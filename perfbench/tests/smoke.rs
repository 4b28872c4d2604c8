//! Every workload at smoke size: its output checks pass, the same seed
//! reproduces bytes and cost, and a traced run emits every per-layer
//! metric `BENCHMARK.json` names.

use perfbench::{run, Report, Scale, Workload};
use std::process::Command;

/// One loop iteration: a run always finishes the job it started.
const SECONDS: f64 = 0.01;

fn names_in(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("sections are arrays")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metric(name)
        .unwrap_or_else(|| panic!("{} reports no {name}", report.workload.name()))
        .value
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, names_in("workloads"));
}

#[test]
fn timed_runs_pass_their_checks_and_repeat_per_seed() {
    let end_to_end = names_in("end_to_end");
    for w in Workload::ALL {
        let a = run(w, 7, SECONDS, false, Scale::Smoke);
        assert!(a.correct(), "{}: {:?}", w.name(), a.checks.notes);
        let printed: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(printed, end_to_end, "{}", w.name());
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let b = run(w, 7, SECONDS, false, Scale::Smoke);
        assert!(b.correct(), "{}: {:?}", w.name(), b.checks.notes);
        for name in ["bytes", "cost"] {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{}: {name}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let per_layer = names_in("per_layer");
    for w in Workload::ALL {
        let r = run(w, 3, SECONDS, true, Scale::Smoke);
        assert!(r.correct(), "{}: {:?}", w.name(), r.checks.notes);
        let printed: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(printed, per_layer, "{}", w.name());
        assert!(!r.spans.is_empty(), "{}", w.name());
    }
    let stream = run(Workload::ContinuousF32, 3, SECONDS, true, Scale::Smoke);
    assert!(value(&stream, "stream.blocks_summarized") > 0.0);
    assert!(value(&stream, "codec.compression_ratio") > 1.0);
    let mux = run(Workload::Sites4096Mux, 3, SECONDS, true, Scale::Smoke);
    assert!(value(&mux, "coordinator.poll_wakeups") > 0.0);
    assert!(value(&mux, "core.coord_ms") > 0.0);
}

#[test]
fn the_command_rejects_bad_arguments_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload sites8-median --seed x --seconds 1 --trace 0",
        "--workload sites8-median --seed 1 --seconds 1 --trace 2",
        "--seed 1 --seconds 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

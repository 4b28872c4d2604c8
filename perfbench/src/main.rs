//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a metadata line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! metrics are the per-layer ledger and the spans are written to
//! `perfbench/traces/<workload>-seed<n>.jsonl`. Exits 1 when an output
//! check failed and 2 on a usage error.

use perfbench::{ledger, run, Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    );
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ledger::to_jsonl(&report.spans)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans -> {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for note in &report.checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    println!("{}", report.meta_json(args.seconds, args.trace));
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

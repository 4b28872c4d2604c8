//! Orchestration: runs a parsed [`Invocation`] through `dpc::api`.
//!
//! Everything protocol-shaped lives behind the typed API: this module
//! only loads CSV rows, attaches them to the parsed job, and returns the
//! [`Artifact`] (text or the shared JSON schema). Configuration smells
//! are the API's typed diagnostics — [`preflight`] surfaces
//! [`ConfigWarning`]s before any data is read, and hard
//! `dpc::api::ConfigError`s (like `stream --eps 0`) abort the run.

use crate::args::Invocation;
use crate::csv::{for_each_point_row, read_points_csv, read_uncertain_csv};
use dpc::prelude::*;
use dpc::workloads::{gaussian_blobs, BlobsSpec};
use std::io::BufRead;

/// True when the invocation's input is a `blobs:` synthetic-workload spec
/// rather than a CSV path (no file is opened for it).
pub fn is_synthetic_input(input: &str) -> bool {
    input.starts_with("blobs:")
}

/// Parses a `blobs:` spec like
/// `blobs:n=50000,dim=32,clusters=8,imbalance=1.0,outliers=64,seed=7`.
fn parse_blobs_spec(input: &str) -> Result<BlobsSpec, String> {
    let body = input
        .strip_prefix("blobs:")
        .ok_or_else(|| "not a blobs: spec".to_string())?;
    let mut spec = BlobsSpec::default();
    for part in body.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("blobs spec entry '{part}' is not key=value"))?;
        let num = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("invalid blobs value '{v}' for '{key}'"))
        };
        let int = |v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("invalid blobs value '{v}' for '{key}'"))
        };
        match key {
            "n" => spec.points = int(value)?,
            "dim" => spec.dim = int(value)?,
            "clusters" => spec.clusters = int(value)?,
            "outliers" => spec.outliers = int(value)?,
            "imbalance" => spec.imbalance = num(value)?,
            "sigma" => spec.sigma = num(value)?,
            "sep" => spec.separation = num(value)?,
            "seed" => spec.seed = int(value)? as u64,
            other => return Err(format!("unknown blobs key '{other}'")),
        }
    }
    if spec.points == 0 || spec.dim == 0 || spec.clusters == 0 {
        return Err("blobs spec needs positive n, dim, and clusters".into());
    }
    if !spec.imbalance.is_finite() || spec.imbalance < 0.0 {
        return Err("blobs imbalance must be finite and non-negative".into());
    }
    Ok(spec)
}

/// Loads the point input: a generated blob workload for `blobs:` specs,
/// otherwise CSV rows from the reader.
fn load_points<R: BufRead>(spec: &str, input: R) -> Result<PointSet, String> {
    if is_synthetic_input(spec) {
        Ok(gaussian_blobs(parse_blobs_spec(spec)?).points)
    } else {
        read_points_csv(input).map_err(|e| e.to_string())
    }
}

/// Validates the invocation before any data is read: hard errors abort,
/// structured no-effect warnings are returned for stderr.
pub fn preflight(inv: &Invocation) -> Result<Vec<ConfigWarning>, String> {
    let Some(grid) = &inv.grid else {
        return inv
            .builder
            .clone()
            .validate()
            .map(|vj| vj.warnings().to_vec())
            .map_err(|e| e.to_string());
    };
    let jobs = grid.over(inv.builder.clone()).jobs();
    let jobs = jobs.map_err(|e| e.to_string())?;
    let mut warnings: Vec<ConfigWarning> = Vec::new();
    for w in jobs.iter().flat_map(ValidJob::warnings) {
        if !warnings.contains(w) {
            warnings.push(w.clone());
        }
    }
    Ok(warnings)
}

/// Executes the parsed invocation, reading CSV rows from `input`.
pub fn execute<R: BufRead>(inv: &Invocation, input: R) -> Result<Artifact, String> {
    if inv.grid.is_some() {
        return Err("sweep invocations go through execute_sweep".into());
    }
    let job = match inv.builder.job() {
        Job::Stream { .. } | Job::Continuous { .. } => return execute_stream(inv, input),
        Job::UncertainMedian => {
            if is_synthetic_input(&inv.input) {
                return Err("blobs: input generates points; uncertain-median needs a CSV".into());
            }
            let nodes = read_uncertain_csv(input).map_err(|e| e.to_string())?;
            inv.builder.clone().data(nodes)
        }
        _ => inv.builder.clone().points(load_points(&inv.input, input)?),
    };
    Ok(job.validate().map_err(|e| e.to_string())?.run())
}

/// Executes a `dpc sweep` invocation: one artifact per grid cell.
pub fn execute_sweep<R: BufRead>(inv: &Invocation, input: R) -> Result<Vec<Artifact>, String> {
    let grid = inv.grid.as_ref().ok_or("not a sweep invocation")?;
    let base = inv.builder.clone().points(load_points(&inv.input, input)?);
    grid.over(base).run().map_err(|e| e.to_string())
}

/// Runs a streaming job: rows are fed to the engine in arrival order as
/// they are parsed — the full input is never materialized.
fn execute_stream<R: BufRead>(inv: &Invocation, input: R) -> Result<Artifact, String> {
    let valid = inv.builder.clone().validate().map_err(|e| e.to_string())?;
    let mut session = valid.session();
    let rows = if is_synthetic_input(&inv.input) {
        let points = load_points(&inv.input, input)?;
        for (_, p) in points.iter() {
            session.push(p);
        }
        points.len()
    } else {
        for_each_point_row(input, |coords| {
            session.push(coords);
            Ok(())
        })
        .map_err(|e| e.to_string())?
    };
    if rows == 0 {
        return Err("no data rows".into());
    }
    let artifact = session.finish();
    if rows < artifact.k {
        return Err(format!(
            "k={} exceeds the {} input points",
            artifact.k, rows
        ));
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn opts(parts: &[&str]) -> Invocation {
        let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        parse_args(&v).unwrap()
    }

    fn toy_csv() -> String {
        let mut s = String::from("x,y\n");
        for i in 0..20 {
            s.push_str(&format!("{},0\n", (i % 5) as f64 * 0.1));
        }
        for i in 0..20 {
            s.push_str(&format!("{},0\n", 100.0 + (i % 5) as f64 * 0.1));
        }
        s.push_str("5000,5000\n");
        s
    }

    /// A longer two-cluster stream with a couple of planted outliers.
    fn stream_csv(n: usize) -> String {
        let mut s = String::from("x,y\n");
        for i in 0..n {
            let c = if i % 2 == 0 { 0.0 } else { 300.0 };
            s.push_str(&format!("{},0\n", c + 0.1 * (i % 5) as f64));
        }
        s.push_str("90000,90000\n-80000,0\n");
        s
    }

    #[test]
    fn median_end_to_end() {
        let o = opts(&["median", "--k", "2", "--t", "1", "--sites", "3", "in.csv"]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(r.job, "median");
        assert_eq!(r.n, 41);
        assert!(r.cost < 20.0, "cost {}", r.cost);
        assert_eq!(r.rounds, 2);
        assert!(r.bytes > 0);
        assert_eq!(r.centers.len(), 2);
        // Per-round breakdown matches the aggregate.
        assert_eq!(r.round_stats.len(), 2);
        assert_eq!(r.upstream_bytes() + r.downstream_bytes(), r.bytes);
    }

    #[test]
    fn center_one_round_end_to_end() {
        let o = opts(&["center", "--k", "2", "--t", "1", "--one-round", "in.csv"]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(r.job, "one-round-center");
        assert_eq!(r.rounds, 1);
        assert!(r.cost < 5.0, "cost {}", r.cost);
        assert!(!r.round_stats.is_empty());
    }

    #[test]
    fn subquadratic_end_to_end() {
        let o = opts(&["subquadratic", "--k", "2", "--t", "1", "in.csv"]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(r.bytes, 0);
        assert!(r.round_stats.is_empty());
        assert!(r.cost < 20.0);
        assert_eq!(r.transport, None);
        assert!(!r.to_json().contains("transport"));
        assert!(!r.text().contains("transport:"));
    }

    #[test]
    fn stream_end_to_end() {
        let o = opts(&["stream", "--k", "2", "--t", "2", "--block", "64", "in.csv"]);
        let r = execute(&o, stream_csv(500).as_bytes()).unwrap();
        assert_eq!(r.n, 502);
        assert_eq!(r.centers.len(), 2);
        assert!(r.cost < 100.0, "cost {}", r.cost);
        let lp = r.live_points.unwrap();
        assert!(lp > 0 && lp < 502, "live points {lp}");
        assert!(r.points_per_sec.unwrap() > 0.0);
        assert_eq!(r.bytes, 0); // no protocol ran
    }

    #[test]
    fn stream_window_end_to_end() {
        let o = opts(&[
            "stream", "--k", "2", "--t", "2", "--block", "32", "--window", "128", "in.csv",
        ]);
        let r = execute(&o, stream_csv(600).as_bytes()).unwrap();
        assert_eq!(r.job, "stream-window");
        assert_eq!(r.centers.len(), 2);
        assert!(r.live_points.unwrap() < 300);
    }

    #[test]
    fn stream_continuous_end_to_end() {
        let o = opts(&[
            "stream",
            "--k",
            "2",
            "--t",
            "2",
            "--block",
            "32",
            "--sync-every",
            "200",
            "--sites",
            "3",
            "in.csv",
        ]);
        let r = execute(&o, stream_csv(500).as_bytes()).unwrap();
        assert_eq!(r.job, "continuous");
        let syncs = r.syncs.unwrap();
        assert!(syncs >= 3, "expected periodic syncs, got {syncs}");
        assert_eq!(r.rounds, 2 * syncs);
        assert!(r.bytes > 0);
        assert_eq!(r.round_stats.len(), 2 * syncs);
        assert!(r.cost < 100.0, "cost {}", r.cost);
    }

    #[test]
    fn uncertain_end_to_end() {
        let mut csv = String::from("node,prob,x,y\n");
        for n in 0..12 {
            let c = if n % 2 == 0 { 0.0 } else { 80.0 };
            csv.push_str(&format!("{n},0.5,{},{}\n", c, 0.1 * n as f64));
            csv.push_str(&format!("{n},0.5,{},{}\n", c + 0.5, 0.1 * n as f64));
        }
        let o = opts(&[
            "uncertain-median",
            "--k",
            "2",
            "--t",
            "0",
            "--sites",
            "2",
            "in.csv",
        ]);
        let r = execute(&o, csv.as_bytes()).unwrap();
        assert_eq!(r.job, "uncertain-median");
        assert_eq!(r.n, 12);
        assert!(r.cost < 30.0, "cost {}", r.cost);
    }

    #[test]
    fn blobs_input_generates_points() {
        let o = opts(&[
            "median",
            "--k",
            "4",
            "--t",
            "4",
            "--sites",
            "3",
            "blobs:n=300,dim=16,clusters=4,outliers=4,imbalance=1.0,seed=9",
        ]);
        let r = execute(&o, std::io::empty()).unwrap();
        assert_eq!(r.n, 304);
        assert_eq!(r.centers.len(), 4);
        assert_eq!(r.centers[0].len(), 16);
        assert!(r.cost.is_finite());
        // Deterministic by seed.
        let again = execute(&o, std::io::empty()).unwrap();
        assert_eq!(r.centers, again.centers);
        // Bad specs are errors, not panics.
        for bad in ["blobs:n=0,dim=4", "blobs:nope=3", "blobs:n", "blobs:dim=x"] {
            let o = opts(&["median", bad]);
            assert!(execute(&o, std::io::empty()).is_err(), "{bad}");
        }
        // Uncertain jobs reject point-generating specs.
        let o = opts(&["uncertain-median", "blobs:n=100,dim=4"]);
        assert!(execute(&o, std::io::empty()).is_err());
    }

    #[test]
    fn blobs_feed_stream_and_sweep() {
        let o = opts(&[
            "stream",
            "--k",
            "3",
            "--t",
            "2",
            "--block",
            "64",
            "blobs:n=400,dim=8,clusters=3,seed=3",
        ]);
        let r = execute(&o, std::io::empty()).unwrap();
        assert_eq!(r.n, 400);
        assert_eq!(r.centers.len(), 3);
        let o = opts(&[
            "sweep",
            "median",
            "--k",
            "2,3",
            "--t",
            "1",
            "--sites",
            "2",
            "blobs:n=200,dim=8,seed=5",
        ]);
        let arts = execute_sweep(&o, std::io::empty()).unwrap();
        assert_eq!(arts.len(), 2);
    }

    #[test]
    fn threads_do_not_change_results() {
        let serial = opts(&["median", "--k", "2", "--t", "1", "--sites", "3", "in.csv"]);
        let threaded = opts(&[
            "median",
            "--k",
            "2",
            "--t",
            "1",
            "--sites",
            "3",
            "--threads",
            "4",
            "in.csv",
        ]);
        let a = execute(&serial, toy_csv().as_bytes()).unwrap();
        let b = execute(&threaded, toy_csv().as_bytes()).unwrap();
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn errors_propagate() {
        let o = opts(&["median", "--k", "100", "in.csv"]);
        assert!(execute(&o, "1,1\n2,2\n".as_bytes()).is_err());
        let o = opts(&["median", "in.csv"]);
        assert!(execute(&o, "not,a,number\nstill,not,numbers\n".as_bytes()).is_err());
        let o = opts(&["stream", "--k", "5", "in.csv"]);
        assert!(execute(&o, "1,1\n2,2\n".as_bytes()).is_err()); // k > n
        assert!(execute(&o, "# empty\n".as_bytes()).is_err());
    }

    #[test]
    fn stream_eps_zero_is_now_a_hard_error() {
        // Promoted from a stderr warning to a typed ConfigError: the run
        // must refuse before reading a single row.
        let o = opts(&["stream", "--eps", "0", "s.csv"]);
        let err = preflight(&o).unwrap_err();
        assert!(err.contains("unexcludable"), "{err}");
        let err = execute(&o, stream_csv(100).as_bytes()).unwrap_err();
        assert!(err.contains("unexcludable"), "{err}");
        // Batch commands keep accepting eps = 0.
        let o = opts(&["median", "--eps", "0", "--k", "2", "in.csv"]);
        assert!(preflight(&o).is_ok());
        assert!(execute(&o, toy_csv().as_bytes()).is_ok());
    }

    #[test]
    fn no_effect_transport_flags_still_warn() {
        // Structured, not silent, not fatal.
        let o = opts(&["subquadratic", "--transport", "mux", "x.csv"]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter()
                .any(|w| matches!(w, ConfigWarning::TransportUnused { .. })),
            "{w:?}"
        );
        let o = opts(&["stream", "--latency", "5ms", "s.csv"]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter()
                .any(|w| matches!(w, ConfigWarning::TransportUnused { .. })),
            "{w:?}"
        );
        // ...but not when the runtime actually runs.
        let o = opts(&[
            "stream",
            "--sync-every",
            "100",
            "--transport",
            "mux",
            "s.csv",
        ]);
        assert!(preflight(&o).unwrap().is_empty());
        assert!(preflight(&opts(&["median", "--transport", "mux", "x.csv"]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn mux_transport_end_to_end_matches_channel() {
        let base = opts(&["median", "--k", "2", "--t", "1", "--sites", "3", "in.csv"]);
        let a = execute(&base, toy_csv().as_bytes()).unwrap();
        assert_eq!(a.transport.as_deref(), Some("channel"));
        // One shard serves every site from one loop; two split them.
        for threads in ["1", "2"] {
            let mux = opts(&[
                "median",
                "--k",
                "2",
                "--t",
                "1",
                "--sites",
                "3",
                "--transport",
                "mux",
                "--threads",
                threads,
                "in.csv",
            ]);
            let b = execute(&mux, toy_csv().as_bytes()).unwrap();
            assert_eq!(b.transport.as_deref(), Some("mux"));
            // Same bytes on the wire, same answer, regardless of backend.
            assert_eq!(a.bytes, b.bytes, "threads={threads}");
            assert_eq!(a.centers, b.centers, "threads={threads}");
            assert_eq!(a.cost, b.cost, "threads={threads}");
        }
    }

    #[test]
    fn fault_flags_end_to_end() {
        // Seeded dropout degrades rounds but the protocol still answers;
        // identical flags reproduce the identical artifact.
        let o = opts(&[
            "median",
            "--k",
            "2",
            "--t",
            "1",
            "--sites",
            "6",
            "--dropout",
            "0.4",
            "--fault-seed",
            "6",
            "--timeout",
            "10ms",
            "in.csv",
        ]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(r.centers.len(), 2);
        assert!(r.degraded_rounds() > 0, "seed 6 drops sites in both rounds");
        assert!(r.total_dropouts() > 0);
        // Failed attempts charge their timeout to the simulated clock.
        assert!(r.network_ms >= 10.0, "network_ms {}", r.network_ms);
        // Identical flags reproduce everything but wall-clock timings.
        let again = execute(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(r.centers, again.centers);
        assert_eq!(r.bytes, again.bytes);
        assert_eq!(r.network_ms, again.network_ms);
        for (a, b) in r.round_stats.iter().zip(&again.round_stats) {
            assert_eq!(a.bytes_up, b.bytes_up);
            assert_eq!(
                (a.dropouts, a.retries, a.degraded),
                (b.dropouts, b.retries, b.degraded)
            );
        }
        // The JSON carries the per-round fault fields.
        assert!(r.to_json().contains("\"degraded\":true"));
        // Fault knobs on a protocol-free command warn but still run.
        let o = opts(&[
            "stream",
            "--k",
            "2",
            "--t",
            "2",
            "--dropout",
            "0.2",
            "s.csv",
        ]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter().any(|w| matches!(
                w,
                ConfigWarning::KnobUnused {
                    knob: "dropout",
                    ..
                }
            )),
            "{w:?}"
        );
    }

    #[test]
    fn observability_flags_end_to_end() {
        let trace =
            std::env::temp_dir().join(format!("dpc_cli_trace_{}.jsonl", std::process::id()));
        let o = opts(&[
            "median",
            "--k",
            "2",
            "--t",
            "1",
            "--sites",
            "3",
            "--dropout",
            "0.3",
            "--fault-seed",
            "6",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            "in.csv",
        ]);
        assert!(preflight(&o).unwrap().is_empty());
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        // The digest reconciles with the artifact's own accounting and
        // shows up in both renderings.
        let m = r.metrics.as_ref().expect("--metrics requested");
        assert_eq!(m.total_bytes, r.bytes as u64);
        assert_eq!(m.rounds, r.rounds as u64);
        assert!(r.text().contains("metrics:"));
        assert!(r.to_json().contains("\"metrics\":{"));
        // The trace is on disk, line-parseable, and replays.
        let doc = std::fs::read_to_string(&trace).unwrap();
        assert!(doc.starts_with("{\"schema\":\"dpc.trace/v1\""));
        let replay = dpc::obs::Trace::from_jsonl(&doc).unwrap();
        assert_eq!(replay.metrics().summary().total_bytes, r.bytes as u64);
        std::fs::remove_file(&trace).unwrap();

        // A trace on a protocol-free command warns (but still runs).
        let o = opts(&[
            "subquadratic",
            "--k",
            "2",
            "--trace",
            "unused.jsonl",
            "in.csv",
        ]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter()
                .any(|w| matches!(w, ConfigWarning::TraceWithoutProtocol { .. })),
            "{w:?}"
        );
        // A format without a path is flagged too.
        let o = opts(&["median", "--trace-format", "chrome", "in.csv"]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter()
                .any(|w| matches!(w, ConfigWarning::TraceFormatWithoutTrace)),
            "{w:?}"
        );
    }

    #[test]
    fn link_model_surfaces_in_artifact() {
        let o = opts(&[
            "median",
            "--k",
            "2",
            "--t",
            "1",
            "--latency",
            "5ms",
            "--bandwidth",
            "1M",
            "in.csv",
        ]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        // 2 rounds × (down latency + up latency) = at least 20 ms.
        assert!(r.network_ms >= 20.0, "network_ms {}", r.network_ms);
        let per_round: f64 = r.round_stats.iter().map(|x| x.network_ms).sum();
        assert!((per_round - r.network_ms).abs() < 1e-9);
    }

    #[test]
    fn sweep_end_to_end() {
        let o = opts(&[
            "sweep",
            "median",
            "--k",
            "2,3",
            "--t",
            "1",
            "--sites",
            "3",
            "--transport",
            "channel,mux",
            "--parallelism",
            "2",
            "in.csv",
        ]);
        let arts = execute_sweep(&o, toy_csv().as_bytes()).unwrap();
        assert_eq!(arts.len(), 4);
        // Grid order: k varies slowest, transport fastest.
        let keys: Vec<(usize, String)> = arts
            .iter()
            .map(|a| (a.k, a.transport.clone().unwrap()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (2, "channel".into()),
                (2, "mux".into()),
                (3, "channel".into()),
                (3, "mux".into()),
            ]
        );
        // Byte accounting is backend-independent per k.
        assert_eq!(arts[0].bytes, arts[1].bytes);
        assert_eq!(arts[2].bytes, arts[3].bytes);
        // The table writers cover every cell.
        let table = dpc::api::csv_table(&arts);
        assert_eq!(table.trim_end().lines().count(), 5);
        // A sweep with an invalid cell fails fast.
        let o = opts(&["sweep", "median", "--k", "0,2", "in.csv"]);
        assert!(execute_sweep(&o, toy_csv().as_bytes()).is_err());
    }

    #[test]
    fn sweep_flag_order_does_not_change_the_grid() {
        // Axes nest in flag-table order, whatever order argv gives them.
        let table = |parts: &[&str]| {
            dpc::api::csv_table(&execute_sweep(&opts(parts), toy_csv().as_bytes()).unwrap())
        };
        let a = table(&[
            "sweep",
            "median",
            "--encoding",
            "raw,f32",
            "--k",
            "2,4",
            "--t",
            "1",
            "in.csv",
        ]);
        let b = table(&[
            "sweep",
            "median",
            "--k",
            "2,4",
            "--encoding",
            "raw,f32",
            "--t",
            "1",
            "in.csv",
        ]);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 5);
    }

    #[test]
    fn encoding_flag_end_to_end() {
        // 16-dim coordinates dominate the messages, so narrowing them
        // outweighs the frame and span-flag overhead.
        let blobs = "blobs:n=300,dim=16,clusters=4,outliers=4,seed=9";
        let base = ["median", "--k", "4", "--t", "4", "--sites", "3"];
        let a = execute(&opts(&[&base[..], &[blobs]].concat()), std::io::empty()).unwrap();
        let f32_run = opts(&[&base[..], &["--encoding", "f32", blobs]].concat());
        let b = execute(&f32_run, std::io::empty()).unwrap();
        assert_eq!(b.encoding.as_deref(), Some("f32"));
        assert_eq!(b.bytes_raw, Some(a.bytes));
        assert!(b.bytes < a.bytes, "{} vs {}", b.bytes, a.bytes);
        assert!(b.quality_delta.is_some());
        // The text report renders the raw -> compressed line.
        assert!(b.text().contains("encoding: f32, bytes "), "{}", b.text());
        assert!(b.to_json().contains("\"encoding\":\"f32\""));
        // Raw artifacts never mention the codec.
        assert_eq!(a.encoding, None);
        assert!(!a.to_json().contains("encoding"));
        // A no-effect combo warns but still runs.
        let o = opts(&["subquadratic", "--k", "2", "--encoding", "rlz", "x.csv"]);
        let w = preflight(&o).unwrap();
        assert!(
            w.iter().any(|w| matches!(
                w,
                ConfigWarning::KnobUnused {
                    knob: "encoding",
                    ..
                }
            )),
            "{w:?}"
        );
        assert!(execute(&o, toy_csv().as_bytes()).is_ok());
    }

    #[test]
    fn sweep_encoding_axis_emits_the_frontier() {
        let o = opts(&[
            "sweep",
            "median",
            "--k",
            "4",
            "--t",
            "4",
            "--sites",
            "3",
            "--encoding",
            "raw,f32,rlz",
            "blobs:n=300,dim=16,clusters=4,outliers=4,seed=9",
        ]);
        let arts = execute_sweep(&o, std::io::empty()).unwrap();
        assert_eq!(arts.len(), 3);
        let raw = &arts[0];
        assert_eq!(raw.encoding, None);
        for enc in &arts[1..] {
            // Every encoded cell's raw accounting reproduces the raw
            // cell's wire total exactly.
            assert_eq!(enc.bytes_raw, Some(raw.bytes));
        }
        // The quantizing codec strictly compresses this 16-dim workload.
        assert!(
            arts[1].bytes * 3 < raw.bytes * 2,
            "f32 should beat 1.5x: {} vs {}",
            arts[1].bytes,
            raw.bytes
        );
        // The lossless cell reproduces the raw answer bit for bit.
        assert_eq!(arts[2].centers, raw.centers);
        assert_eq!(arts[2].cost, raw.cost);
        let table = dpc::api::csv_table(&arts);
        assert!(table
            .lines()
            .next()
            .unwrap()
            .ends_with("encoding,bytes_raw"));
        assert!(table.contains(",f32,"), "{table}");
    }

    #[test]
    fn artifact_json_round_trips_from_cli() {
        let o = opts(&["median", "--k", "2", "--t", "1", "in.csv"]);
        let r = execute(&o, toy_csv().as_bytes()).unwrap();
        let back = Artifact::from_json(&r.to_json()).unwrap();
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.centers, r.centers);
    }
}

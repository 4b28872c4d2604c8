//! End-to-end observability: `Job::trace`/`Job::metrics` through the
//! front door, the golden-pinned `dpc.trace/v1` JSONL schema, trace
//! byte-identity across all three transports, exact reconciliation of
//! the metrics digest with the artifact's byte accounting, the Chrome
//! export, and the no-effect-flag warnings.

use dpc::obs::{json, Trace};
use dpc::prelude::*;

mod test_util;

/// The pinned chaos run: faults on, every transport knob explicit, a
/// fixed thread budget so kernel counters don't vary with the machine.
fn traced_job(path: &std::path::Path) -> JobBuilder {
    Job::median(3, 4)
        .sites(3)
        .seed(11)
        .threads(2)
        .points(test_util::mixture(3, 240, 4, 11).points)
        .dropout(0.25)
        .fault_seed(0x5eed)
        .timeout(std::time::Duration::from_millis(5))
        .retries(1)
        .trace(path)
        .metrics(true)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dpc_obs_{}_{name}", std::process::id()))
}

/// Golden-file pin of the JSONL trace schema, plus the tentpole
/// acceptance: the trace of a seeded faulted run is *byte-identical*
/// on the inline, channel-worker, and loopback-socket (mux) transports.
#[test]
fn trace_schema_is_pinned_and_transport_invariant() {
    let path = temp_path("golden.jsonl");
    let artifact = traced_job(&path).validate().unwrap().run();
    let actual = std::fs::read_to_string(&path).unwrap();

    // Pin against the checked-in snapshot. Run with DPC_BLESS=1 to
    // regenerate after a reviewed schema change.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/trace.jsonl"
    );
    if std::env::var_os("DPC_BLESS").is_some() {
        std::fs::write(golden_path, &actual).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("tests/golden/trace.jsonl missing; run with DPC_BLESS=1 to create it");
    assert_eq!(
        actual, golden,
        "trace JSONL drifted from tests/golden/trace.jsonl (DPC_BLESS=1 regenerates)"
    );

    // The run must actually have been chaotic, or the pin proves little.
    assert!(artifact.round_stats.iter().any(|r| r.degraded));
    assert!(actual.lines().any(|l| l.contains("\"ev\":\"fault\"")));

    // Every line is one standalone JSON object.
    for line in actual.lines() {
        json::parse(line).unwrap();
    }

    // Identical runs over the worker and socket backends record the
    // same bytes; only wall-clock (which the schema omits) may differ.
    for transport in [TransportKind::Channel, TransportKind::Mux] {
        let p = temp_path(&format!("golden_{}.jsonl", transport.name()));
        traced_job(&p)
            .transport(transport)
            .validate()
            .unwrap()
            .run();
        let other = std::fs::read_to_string(&p).unwrap();
        assert_eq!(other, actual, "trace diverged on {transport:?}");
        std::fs::remove_file(&p).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

/// The artifact's metrics digest reconciles bit-for-bit with both the
/// replayed trace and the artifact's own communication accounting.
#[test]
fn metrics_digest_reconciles_with_artifact_accounting() {
    let path = temp_path("metrics.jsonl");
    let artifact = traced_job(&path).validate().unwrap().run();
    let m = artifact.metrics.as_ref().expect("metrics(true) requested");

    // Digest vs the artifact's own roll-up.
    assert_eq!(m.total_bytes, artifact.bytes as u64);
    assert_eq!(m.rounds, artifact.rounds as u64);
    let sum = |f: fn(&RoundBreakdown) -> usize| -> u64 {
        artifact.round_stats.iter().map(f).sum::<usize>() as u64
    };
    assert_eq!(m.dropouts, sum(|r| r.dropouts));
    assert_eq!(m.retries, sum(|r| r.retries));
    assert_eq!(
        m.degraded_rounds,
        artifact.round_stats.iter().filter(|r| r.degraded).count() as u64
    );

    // Digest vs the trace replayed from disk.
    let replay = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let replayed = replay.metrics().summary();
    assert_eq!(replayed.total_bytes, m.total_bytes);
    assert_eq!(replayed.down_bytes, m.down_bytes);
    assert_eq!(replayed.up_bytes, m.up_bytes);
    assert_eq!(replayed.rounds, m.rounds);
    assert_eq!(replayed.dropouts, m.dropouts);
    assert_eq!(replayed.retries, m.retries);
    assert_eq!(replayed.counters, m.counters);

    // The digest survives the artifact's own JSON round trip.
    let back = Artifact::from_json(&artifact.to_json()).unwrap();
    assert_eq!(back.metrics.as_ref(), Some(m));
    assert!(artifact.text().contains("metrics:"));
    std::fs::remove_file(&path).unwrap();
}

/// The Chrome export is one JSON document Perfetto can load.
#[test]
fn chrome_export_is_valid_json() {
    let path = temp_path("chrome.json");
    traced_job(&path)
        .trace_format(TraceFormat::Chrome)
        .validate()
        .unwrap()
        .run();
    let doc = std::fs::read_to_string(&path).unwrap();
    let v = json::parse(doc.trim()).unwrap();
    let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!evs.is_empty());
    std::fs::remove_file(&path).unwrap();
}

/// No-effect observability flags surface as structured warnings, and
/// jobs that drive no protocol rounds still get a run-span trace.
#[test]
fn observability_flags_warn_when_inert() {
    let pts = test_util::mixture(3, 120, 4, 7).points;

    // A trace on a protocol-free job warns but still writes the file.
    let path = temp_path("subq.jsonl");
    let vj = Job::subquadratic(3, 4)
        .points(pts.clone())
        .trace(&path)
        .validate()
        .unwrap();
    assert!(vj
        .warnings()
        .iter()
        .any(|w| matches!(w, ConfigWarning::TraceWithoutProtocol { .. })));
    vj.run();
    let trace = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(!trace
        .events
        .iter()
        .any(|e| matches!(e, dpc::obs::Event::RoundEnd { .. })));
    std::fs::remove_file(&path).unwrap();

    // A format without a path is a no-op worth flagging.
    let vj = Job::median(3, 4)
        .points(pts.clone())
        .trace_format(TraceFormat::Chrome)
        .validate()
        .unwrap();
    assert!(vj
        .warnings()
        .iter()
        .any(|w| matches!(w, ConfigWarning::TraceFormatWithoutTrace)));

    // Fully configured observability on a protocol job: no warnings.
    let vj = Job::median(3, 4)
        .points(pts)
        .trace(temp_path("ok.jsonl"))
        .metrics(true)
        .validate()
        .unwrap();
    assert!(vj.warnings().is_empty(), "{:?}", vj.warnings());
}

/// A continuous streaming session traces its syncs and counts them in
/// the metrics digest.
#[test]
fn continuous_session_traces_syncs() {
    let path = temp_path("continuous.jsonl");
    let artifact = Job::continuous(3, 4)
        .block(32)
        .sync_every(100)
        .threads(2)
        .points(test_util::mixture(3, 240, 4, 13).points)
        .trace(&path)
        .metrics(true)
        .validate()
        .unwrap()
        .run();
    assert_eq!(
        artifact.syncs,
        Some(artifact.metrics.as_ref().unwrap().syncs as usize)
    );
    let trace = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let syncs = trace
        .events
        .iter()
        .filter(|e| matches!(e, dpc::obs::Event::SyncEnd { .. }))
        .count();
    assert!(syncs > 0, "sync_every(100) over 240 points must sync");
    assert_eq!(syncs as u64, artifact.metrics.unwrap().syncs);
    std::fs::remove_file(&path).unwrap();
}

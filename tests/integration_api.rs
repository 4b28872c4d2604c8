//! End-to-end tests of the typed experiment API: every protocol through
//! `Job::...().validate()?.run()`, the pinned `Artifact` JSON schema, and
//! sweep grids whose per-cell accounting matches standalone runs.

use dpc::prelude::*;

mod test_util;

fn points(n: usize, t: usize, seed: u64) -> PointSet {
    test_util::mixture(3, n, t, seed).points
}

/// Acceptance: every protocol the CLI exposes runs through the one front
/// door and produces a coherent artifact.
#[test]
fn every_protocol_runs_through_job() {
    let pts = points(240, 4, 11);
    let nodes = uncertain_mixture(UncertainSpec {
        clusters: 2,
        nodes_per_site: 8,
        sites: 2,
        noise_nodes: 2,
        ..Default::default()
    });
    let jobs: Vec<(JobBuilder, &str, bool)> = vec![
        (Job::median(3, 4).points(pts.clone()), "median", true),
        (Job::means(3, 4).points(pts.clone()), "means", true),
        (Job::center(3, 4).points(pts.clone()), "center", true),
        (
            Job::one_round(Objective::Median, 3, 4).points(pts.clone()),
            "one-round-median",
            true,
        ),
        (
            Job::one_round(Objective::Means, 3, 4).points(pts.clone()),
            "one-round-means",
            true,
        ),
        (
            Job::one_round(Objective::Center, 3, 4).points(pts.clone()),
            "one-round-center",
            true,
        ),
        (
            Job::uncertain_median(2, 2).data(nodes.clone()),
            "uncertain-median",
            true,
        ),
        (Job::center_g(2, 2).data(nodes), "center-g", true),
        (
            Job::stream(3, 4).block(64).points(pts.clone()),
            "stream",
            false,
        ),
        (
            Job::stream(3, 4).block(32).window(128).points(pts.clone()),
            "stream-window",
            false,
        ),
        (
            Job::continuous(3, 4)
                .block(32)
                .sync_every(100)
                .points(pts.clone()),
            "continuous",
            true,
        ),
        (
            Job::subquadratic(3, 4).points(pts.clone()),
            "subquadratic",
            false,
        ),
    ];
    for (job, name, moves_bytes) in jobs {
        let artifact = job.validate().expect(name).run();
        assert_eq!(artifact.job, name);
        assert!(!artifact.centers.is_empty(), "{name}: no centers");
        assert!(artifact.cost.is_finite(), "{name}: bad cost");
        assert_eq!(
            artifact.bytes > 0,
            moves_bytes,
            "{name}: bytes {}",
            artifact.bytes
        );
        // The JSON schema is total: every artifact survives a round trip.
        let back = Artifact::from_json(&artifact.to_json()).expect(name);
        assert_eq!(back.to_json(), artifact.to_json(), "{name}");
    }
}

/// Golden-file pin of the artifact JSON schema: serialize a fixed
/// artifact, compare byte-for-byte against the checked-in snapshot, and
/// read it back. CLI and bench consumers share this schema; any drift
/// has to show up here as a reviewed diff.
#[test]
fn artifact_json_schema_is_pinned() {
    let artifact = Artifact {
        job: "median".into(),
        k: 2,
        t: 1,
        eps: 0.5,
        sites: 3,
        seed: 42,
        n: 41,
        centers: vec![vec![1.0, 2.0], vec![-3.25, 0.0]],
        cost: 3.5,
        budget: 2,
        bytes: 100,
        rounds: 2,
        round_stats: vec![RoundBreakdown {
            bytes_down: vec![5, 5, 5],
            bytes_up: vec![20, 30, 35],
            max_site_ms: 1.5,
            coordinator_ms: 0.5,
            network_ms: 2.25,
            dropouts: 1,
            retries: 2,
            degraded: true,
        }],
        transport: Some("tcp".into()),
        network_ms: 2.25,
        live_points: Some(7),
        syncs: None,
        points_per_sec: Some(1000.0),
        metrics: None,
        encoding: None,
        bytes_raw: None,
        quality_delta: None,
    };
    let golden = include_str!("golden/artifact.json");
    assert_eq!(
        artifact.to_json(),
        golden.trim_end(),
        "artifact JSON schema drifted from tests/golden/artifact.json"
    );
    // Deserialize → reserialize is the identity on the golden document.
    let back = Artifact::from_json(golden.trim_end()).unwrap();
    assert_eq!(back.to_json(), golden.trim_end());
    assert_eq!(back.centers, artifact.centers);
    assert_eq!(back.round_stats, artifact.round_stats);
}

/// Acceptance: a sweep over ≥2 parameters × 2 transports returns
/// per-cell artifacts whose communication accounting is byte-identical
/// to the equivalent single runs.
#[test]
fn sweep_cells_match_standalone_runs() {
    let pts = points(300, 4, 23);
    let ks = [2usize, 3];
    let ts = [1usize, 4];
    let transports = [TransportKind::Channel, TransportKind::Mux];
    let artifacts = Sweep::grid(Job::median(0, 0).sites(3).seed(9).points(pts.clone()))
        .k(&ks)
        .t(&ts)
        .transports(&transports)
        .parallelism(4)
        .run()
        .unwrap();
    assert_eq!(artifacts.len(), 8);
    let mut i = 0;
    for &k in &ks {
        for &t in &ts {
            for &tr in &transports {
                let cell = &artifacts[i];
                i += 1;
                assert_eq!((cell.k, cell.t), (k, t));
                assert_eq!(cell.transport.as_deref(), Some(tr.name()));
                let single = Job::median(k, t)
                    .sites(3)
                    .seed(9)
                    .transport(tr)
                    .points(pts.clone())
                    .validate()
                    .unwrap()
                    .run();
                // Byte-identical accounting, identical outputs.
                assert_eq!(cell.rounds, single.rounds);
                for (a, b) in cell.round_stats.iter().zip(&single.round_stats) {
                    assert_eq!(a.bytes_down, b.bytes_down, "k={k} t={t} {tr:?}");
                    assert_eq!(a.bytes_up, b.bytes_up, "k={k} t={t} {tr:?}");
                }
                assert_eq!(cell.centers, single.centers, "k={k} t={t} {tr:?}");
                assert_eq!(cell.cost, single.cost);
            }
        }
    }
    // The table writers carry one row per cell.
    let table = dpc::api::csv_table(&artifacts);
    assert_eq!(table.trim_end().lines().count(), 9);
    assert!(table.starts_with("job,k,t,eps,sites,seed,transport,"));
}

/// Regression (promoted footgun): invalid configs are hard errors at
/// validate time, while no-effect flags stay structured warnings.
#[test]
fn hard_errors_and_structured_warnings_split_correctly() {
    // eps = 0 streaming: refused, with the failure mode spelled out.
    let err = Job::stream(2, 1).eps(0.0).validate().unwrap_err();
    assert_eq!(err, ConfigError::ExactOutlierQueries);
    assert!(err.to_string().contains("unexcludable"));
    let err = Job::continuous(2, 1).eps(0.0).validate().unwrap_err();
    assert_eq!(err, ConfigError::ExactOutlierQueries);
    // Batch jobs keep accepting eps = 0.
    assert!(Job::median(2, 1).eps(0.0).validate().is_ok());

    // No-effect transport flags: surfaced, structured, non-fatal.
    for job in [Job::subquadratic(2, 1), Job::stream(2, 1)] {
        let vj = job.transport(TransportKind::Mux).validate().unwrap();
        assert!(
            vj.warnings()
                .iter()
                .any(|w| matches!(w, ConfigWarning::TransportUnused { .. })),
            "{:?}",
            vj.warnings()
        );
    }
    // Runtime-driving jobs do not warn on the same flags.
    for job in [Job::median(2, 1), Job::continuous(2, 1)] {
        let vj = job.transport(TransportKind::Mux).validate().unwrap();
        assert!(vj.warnings().is_empty(), "{:?}", vj.warnings());
    }
}

/// `Artifact::evaluate` re-scores centers at any budget on demand.
#[test]
fn artifact_quality_evaluation_on_demand() {
    let pts = points(300, 6, 31);
    let data = Dataset::Points(pts.clone());
    let artifact = Job::median(3, 6)
        .sites(3)
        .points(pts)
        .validate()
        .unwrap()
        .run();
    let (strict, excluded_strict) = artifact.evaluate(&data, 0, Objective::Median).unwrap();
    let (relaxed, _) = artifact.evaluate(&data, 2 * 6, Objective::Median).unwrap();
    assert_eq!(excluded_strict, 0);
    assert!(strict >= relaxed, "budget can only reduce cost");
    // The run's own cost is the relaxed evaluation at the job budget.
    assert!((relaxed - artifact.cost).abs() < 1e-9);
}

/// Acceptance for the bulk-kernel layer: a thread budget changes
/// wall-clock only. Per-round per-site wire bytes, the selected centers,
/// and the evaluated cost are identical between a serial run and a
/// `threads(4)` run, across the median / center / uncertain families and
/// a streaming session.
#[test]
fn thread_budget_never_changes_bytes_or_answers() {
    let pts = points(260, 5, 47);
    let round_bytes = |a: &Artifact| -> Vec<(Vec<usize>, Vec<usize>)> {
        a.round_stats
            .iter()
            .map(|r| (r.bytes_down.clone(), r.bytes_up.clone()))
            .collect()
    };
    let builders: Vec<JobBuilder> = vec![
        Job::median(3, 5).sites(3).points(pts.clone()),
        Job::means(3, 5).sites(3).points(pts.clone()),
        Job::center(3, 5).sites(3).points(pts.clone()),
        Job::one_round(Objective::Center, 3, 5)
            .sites(3)
            .points(pts.clone()),
        Job::subquadratic(3, 5).points(pts.clone()),
        Job::stream(3, 5).block(64).points(pts.clone()),
    ];
    for b in builders {
        let serial = b.clone().sequential().validate().unwrap().run();
        // Sequential sites get the whole budget; four channel shards run
        // sites at once and hand each a serial one.
        for threaded in [b.clone().threads(4).sequential(), b.threads(4)] {
            let threaded = threaded.validate().unwrap().run();
            assert_eq!(serial.centers, threaded.centers, "{}", serial.job);
            assert_eq!(serial.cost, threaded.cost, "{}", serial.job);
            assert_eq!(serial.bytes, threaded.bytes, "{}", serial.job);
            assert_eq!(
                round_bytes(&serial),
                round_bytes(&threaded),
                "{}",
                serial.job
            );
        }
    }
    // Uncertain nodes too (expected-distance loops run on the bulk path).
    let nodes = uncertain_mixture(UncertainSpec {
        clusters: 2,
        nodes_per_site: 10,
        sites: 2,
        noise_nodes: 2,
        ..Default::default()
    });
    let b = Job::uncertain_median(2, 2).data(nodes);
    let serial = b.clone().sequential().validate().unwrap().run();
    for threaded in [b.clone().threads(4).sequential(), b.threads(4)] {
        let threaded = threaded.validate().unwrap().run();
        assert_eq!(serial.centers, threaded.centers);
        assert_eq!(serial.cost, threaded.cost);
        assert_eq!(serial.bytes, threaded.bytes);
    }
    // A merged instance past the swap-scoring work floor: 4-point shards
    // ship most of themselves (here ~80% of the input reaches the
    // coordinator), so its local searches score ~47 candidates against
    // ~1 900 entries and share their tiles out over the budget.
    let big = points(2400, 4, 53);
    assert!(big.len() * 3 / 4 * 46 >= dpc::metric::TILE_PAR_MIN_PAIRS);
    let b = Job::means(2, 4)
        .sites(big.len() / 4)
        .transport(TransportKind::Mux)
        .points(big);
    let serial = b.clone().threads(1).validate().unwrap().run();
    let threaded = b.threads(4).validate().unwrap().run();
    assert_eq!(serial.centers, threaded.centers);
    assert_eq!(serial.cost, threaded.cost);
    assert_eq!(serial.bytes, threaded.bytes);
    assert_eq!(round_bytes(&serial), round_bytes(&threaded));
}

/// The high-dimensional blob workload exercises the kernels end to end:
/// a 64-dimensional imbalanced instance still recovers its planted
/// structure through the full protocol.
#[test]
fn gaussian_blobs_run_through_job() {
    let spec = BlobsSpec {
        clusters: 4,
        points: 600,
        outliers: 6,
        dim: 64,
        imbalance: 1.0,
        seed: 91,
        ..Default::default()
    };
    let blobs = gaussian_blobs(spec);
    let artifact = Job::median(4, 6)
        .sites(3)
        .threads(2)
        .gaussian_blobs(spec)
        .validate()
        .unwrap()
        .run();
    assert_eq!(artifact.n, 606);
    assert_eq!(artifact.centers.len(), 4);
    assert_eq!(artifact.centers[0].len(), 64);
    // Every planted center has a chosen center nearby (σ√d ≈ 8 scale).
    for c in 0..blobs.centers.len() {
        let target = blobs.centers.point(c);
        let near = artifact
            .centers
            .iter()
            .any(|ch| dpc::metric::points::sq_dist(ch, target).sqrt() < 40.0);
        assert!(near, "no center near planted blob {c}");
    }
}

//! `dpc-experiments` — regenerates every table row and figure of
//! *Distributed Partial Clustering* (SPAA 2017) as a measured experiment.
//!
//! The paper's evaluation artefacts are Tables 1–2 (communication / round /
//! runtime bounds) and Figure 1 (the compressed graph construction); each
//! subcommand below measures the corresponding claim on seeded synthetic
//! workloads and prints paper-style rows.
//!
//! Usage:
//!   cargo run --release -p bench --bin dpc-experiments -- all
//!   cargo run --release -p bench --bin dpc-experiments -- e1 e4 e8
//!   cargo run --release -p bench --bin dpc-experiments -- s1   # streaming throughput
//!   cargo run --release -p bench --bin dpc-experiments -- g1   # sweep-driven grid
//!   cargo run --release -p bench --bin dpc-experiments -- kernels threads=2  # -> BENCH_kernels.json
//!   cargo run --release -p bench --bin dpc-experiments -- transport threads=2  # -> BENCH_transport.json
//!   cargo run --release -p bench --bin dpc-experiments -- codec              # -> BENCH_codec.json
//!   cargo run --release -p bench --bin dpc-experiments -- a1 a2 a3           # ablations
//!
//! Comparative rows (E1, E4, E11, G1) drive the typed `dpc::api::Job` /
//! `Sweep` front door; rows that inspect protocol internals the
//! `Artifact` deliberately does not carry (per-site compute times,
//! `shipped_outliers`) call the crate-level entry points directly.

use dpc::core::{run_distributed_median, subquadratic_median};
use dpc::prelude::*;
use dpc::uncertain::{run_center_g, run_uncertain_median};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `threads=N` forces the thread budget for the kernel rows; without it
    // they use one thread per available core, which on a single-core box
    // makes the "+threads" columns a copy of the serial ones.
    let threads: Option<usize> = args
        .iter()
        .find_map(|a| a.strip_prefix("threads=").and_then(|v| v.parse().ok()));
    let run_all =
        args.iter().any(|a| a == "all") || !args.iter().any(|a| !a.starts_with("threads="));
    let want = |id: &str| run_all || args.iter().any(|a| a == id);

    if want("e1") {
        e1_median_comm();
    }
    if want("e2") {
        e2_median_quality();
    }
    if want("e3") {
        e3_means();
    }
    if want("e4") {
        e4_center();
    }
    if want("e5") {
        e5_scaling();
    }
    if want("e6") {
        e6_subquadratic();
    }
    if want("e7") {
        e7_uncertain();
    }
    if want("e8") {
        e8_compressed_graph();
    }
    if want("e9") {
        e9_center_g();
    }
    if want("e10") {
        e10_delta_variant();
    }
    if want("e11") {
        e11_one_round();
    }
    if want("s1") {
        s1_stream_throughput();
    }
    if want("g1") {
        g1_sweep_grid();
    }
    if want("kernels") {
        b1_kernels(threads);
    }
    if want("transport") {
        t1_transport(threads);
    }
    if want("codec") {
        c1_codec();
    }
    if want("a1") {
        a1_grid();
    }
    if want("a2") {
        a2_partition();
    }
    if want("a3") {
        a3_lambda();
    }
}

fn header(id: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}

/// Validate-and-run for experiment rows (their configs are sound by
/// construction).
fn job_artifact(job: JobBuilder) -> Artifact {
    job.validate().expect("sound experiment config").run()
}

fn med_shards(s: usize, n: usize, t: usize, seed: u64) -> Vec<PointSet> {
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 4,
        inliers: n,
        outliers: t,
        seed,
        ..Default::default()
    });
    partition(
        &mix.points,
        s,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        seed ^ 0xabc,
    )
}

/// E1 — Table 1 "median O(1+1/ε)" row: total communication O((sk+t)B),
/// measured in bytes, vs the O((sk+st)B) 1-round baseline.
fn e1_median_comm() {
    header(
        "E1",
        "Table 1 median row: comm O((sk+t)B) for 2-round vs O((sk+st)B) 1-round",
    );
    let (k, t, n) = (4, 48, 1600);
    println!(
        "{:>4} {:>12} {:>12} {:>8} | t fixed at {t}, k={k}, n={n}",
        "s", "2round(B)", "1round(B)", "ratio"
    );
    for &s in &[2usize, 4, 8, 16, 32] {
        let data = Dataset::Shards(med_shards(s, n, t, 1000 + s as u64));
        let two = job_artifact(Job::median(k, t).data(data.clone()));
        let one = job_artifact(Job::one_round(Objective::Median, k, t).data(data));
        println!(
            "{:>4} {:>12} {:>12} {:>8.2}",
            s,
            two.upstream_bytes(),
            one.upstream_bytes(),
            one.upstream_bytes() as f64 / two.upstream_bytes() as f64
        );
    }
    println!(
        "\n{:>6} {:>12} {:>12} | s fixed at 8",
        "t", "2round(B)", "1round(B)"
    );
    for &t in &[8usize, 16, 32, 64, 128] {
        let data = Dataset::Shards(med_shards(8, n, t, 2000 + t as u64));
        let two = job_artifact(Job::median(k, t).data(data.clone()));
        let one = job_artifact(Job::one_round(Objective::Median, k, t).data(data));
        println!(
            "{:>6} {:>12} {:>12}",
            t,
            two.upstream_bytes(),
            one.upstream_bytes()
        );
    }
    println!("\npaper: 2-round comm has NO s·t term -> ratio grows with s; measured above.");
}

/// E2 — Table 1 median row, approximation column: O(1+1/ε) with (1+ε)t
/// outliers, vs centralized bicriteria and exact small instances.
fn e2_median_quality() {
    header(
        "E2",
        "Table 1 median row: (O(1+1/eps), 1+eps)-approximation quality",
    );
    let (k, t) = (4, 12);
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "seed", "distributed", "centralized", "ratio"
    );
    let mut worst: f64 = 0.0;
    for seed in 0..6u64 {
        let sh = med_shards(6, 600, t, 3000 + seed);
        let out = run_distributed_median(&sh, MedianConfig::new(k, t), RunOptions::default());
        let (dist, _) = evaluate_on_full_data(&sh, &out.output.centers, 2 * t, Objective::Median);
        // centralized reference
        let all = merge_shards(&sh);
        let w = WeightedSet::unit(all.len());
        let m = EuclideanMetric::new(&all);
        let c = median_bicriteria(
            &m,
            &w,
            k,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        let centers = all.subset(&c.centers);
        let (cen, _) = evaluate_on_full_data(
            std::slice::from_ref(&all),
            &centers,
            2 * t,
            Objective::Median,
        );
        let ratio = dist / cen.max(1e-9);
        worst = worst.max(ratio);
        println!("{:>6} {:>14.2} {:>14.2} {:>8.2}", seed, dist, cen, ratio);
    }
    println!("\npaper: constant-factor (paper bound 6/eps = 6 at eps=1, vs *optimal*);");
    println!("measured worst distributed/centralized ratio: {worst:.2}");

    // Exact reference on a tiny instance.
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 2,
        inliers: 14,
        outliers: 2,
        ..Default::default()
    });
    let shards = partition(
        &mix.points,
        2,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        5,
    );
    let out = run_distributed_median(&shards, MedianConfig::new(2, 2), RunOptions::default());
    let (dist, _) = evaluate_on_full_data(&shards, &out.output.centers, 4, Objective::Median);
    let all = merge_shards(&shards);
    let w = WeightedSet::unit(all.len());
    let m = EuclideanMetric::new(&all);
    let exact = exact_best(&m, &w, 2, 4.0, Objective::Median, 1_000_000);
    println!(
        "tiny-instance check: distributed {:.3} vs exact optimum {:.3} (ratio {:.2}, bound 6)",
        dist,
        exact.cost,
        dist / exact.cost.max(1e-9)
    );
}

/// E3 — Table 1 means row.
fn e3_means() {
    header(
        "E3",
        "Table 1 means row: same comm shape, squared objective",
    );
    let (k, t) = (4, 16);
    println!(
        "{:>4} {:>12} {:>14} {:>14}",
        "s", "bytes", "dist_cost", "central_cost"
    );
    for &s in &[4usize, 8, 16] {
        let sh = med_shards(s, 800, t, 4000 + s as u64);
        let out =
            run_distributed_median(&sh, MedianConfig::new(k, t).means(), RunOptions::default());
        let (dist, _) = evaluate_on_full_data(&sh, &out.output.centers, 2 * t, Objective::Means);
        let all = merge_shards(&sh);
        let w = WeightedSet::unit(all.len());
        let m = SquaredMetric::new(EuclideanMetric::new(&all));
        let c = median_bicriteria(
            &m,
            &w,
            k,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        let centers = all.subset(&c.centers);
        let (cen, _) = evaluate_on_full_data(
            std::slice::from_ref(&all),
            &centers,
            2 * t,
            Objective::Means,
        );
        println!(
            "{:>4} {:>12} {:>14.1} {:>14.1}",
            s,
            out.stats.upstream_bytes(),
            dist,
            cen
        );
    }
    println!("\npaper: means matches median up to constants (relaxed triangle inequality).");
}

/// E4 — Table 1 center row + the improvement over Malkomes et al. \[19\].
fn e4_center() {
    header(
        "E4",
        "Table 1 center row: O((sk+t)B) vs [19]-style O((sk+st)B), cost parity",
    );
    let (k, t, n) = (4, 40, 2000);
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>10}",
        "s", "2round(B)", "1round(B)", "cost_2r", "cost_1r"
    );
    for &s in &[4usize, 8, 16, 32] {
        let data = Dataset::Shards(med_shards(s, n, t, 5000 + s as u64));
        let two = job_artifact(Job::center(k, t).data(data.clone()));
        let one = job_artifact(Job::one_round(Objective::Center, k, t).data(data));
        println!(
            "{:>4} {:>12} {:>12} {:>10.3} {:>10.3}",
            s,
            two.upstream_bytes(),
            one.upstream_bytes(),
            two.cost,
            one.cost
        );
    }
    println!("\npaper: Theorem 4.3 removes the st term of [19] at matching O(1) cost.");
}

/// E5 — Table 1 "Local Time" column: per-site work shrinks with s.
///
/// Sites are timed under sequential execution so wall-clock equals CPU
/// time (parallel threads oversubscribe cores and inflate per-site wall
/// time). NOTE: the paper's site solver is the O(n_i^2) primal-dual; our
/// Theorem 3.1 substitute is a sampled local search with O(n_i · C) work,
/// so the honest expectation here is critical path ~ 1/s (not 1/s^2) —
/// the *shape* "distribute to shrink per-site time" is what matters, and
/// the coordinator's (sk+t)^2 term growing with s is visible as well.
fn e5_scaling() {
    header(
        "E5",
        "Table 1 local-time column: per-site time falls with s; coordinator grows",
    );
    let (k, t, n) = (4, 24, 4000);
    println!(
        "{:>4} {:>10} {:>16} {:>16} {:>14}",
        "s", "n/s", "max_site_time", "sum_site_time", "coord_time"
    );
    for &s in &[2usize, 4, 8, 16] {
        let sh = med_shards(s, n, t, 6000 + s as u64);
        let out = run_distributed_median(&sh, MedianConfig::new(k, t), RunOptions::sequential());
        let crit = out.stats.site_critical_path().as_secs_f64();
        let total = out.stats.total_site_compute().as_secs_f64();
        let coord = out.stats.coordinator_compute().as_secs_f64();
        println!(
            "{:>4} {:>10} {:>15.3}s {:>15.3}s {:>13.3}s",
            s,
            n / s,
            crit,
            total,
            coord
        );
    }
    println!("\nexpect: max_site_time ~ 1/s with our O(n_i·C) site solver (the paper's");
    println!("O(n_i^2) solver would fall ~1/s^2); coordinator time grows with sk+t.");
}

/// E6 — Theorem 3.10: subquadratic centralized (k,t)-median.
fn e6_subquadratic() {
    header(
        "E6",
        "Theorem 3.10: subquadratic centralized (k,t)-median crossover",
    );
    let k = 4;
    println!(
        "{:>7} {:>5} {:>14} {:>14} {:>10} {:>10}",
        "n", "t", "quad(ms)", "subq(ms)", "cost_q", "cost_s"
    );
    for &n in &[1000usize, 2000, 4000, 8000] {
        let t = ((n as f64).sqrt() as usize) / 2;
        let mix = gaussian_mixture(MixtureSpec {
            clusters: k,
            inliers: n,
            outliers: t,
            seed: 7000 + n as u64,
            ..Default::default()
        });
        let w = WeightedSet::unit(mix.points.len());
        let m = EuclideanMetric::new(&mix.points);
        let t0 = Instant::now();
        let quad = median_bicriteria(
            &m,
            &w,
            k,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        let quad_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let sub = subquadratic_median(&mix.points, k, t, SubquadraticParams::default());
        let sub_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>7} {:>5} {:>14.1} {:>14.1} {:>10.1} {:>10.1}",
            n + t,
            t,
            quad_ms,
            sub_ms,
            quad.cost,
            sub.cost
        );
    }
    println!("\npaper: O(t^2 + n^(4/3) k^2) vs O(n^2): the subq column's growth rate");
    println!("must be visibly smaller, with constant-factor cost parity.");
}

/// E7 — Table 1 uncertain median/means/center-pp row.
fn e7_uncertain() {
    header(
        "E7",
        "Table 1 uncertain row: comm as deterministic + O(n_i T) site time",
    );
    let t = 6;
    type ConfigMod = fn(UncertainConfig) -> UncertainConfig;
    let variants: [(&str, ConfigMod); 3] = [
        ("median", |c| c),
        ("means", |c| c.means()),
        ("center-pp", |c| c.center_pp()),
    ];
    for (name, mk) in variants {
        let sh = uncertain_mixture(UncertainSpec {
            clusters: 3,
            nodes_per_site: 40,
            sites: 4,
            noise_nodes: t,
            support: 4,
            jitter: 1.5,
            separation: 120.0,
            seed: 8000,
        });
        let cfg = mk(UncertainConfig::new(3, t));
        let out = run_uncertain_median(&sh, cfg, RunOptions::default());
        let cost = match name {
            "means" => estimate_expected_cost(&sh, &out.output.centers, 2 * t, true, false),
            "center-pp" => estimate_expected_cost(&sh, &out.output.centers, 2 * t, false, true),
            _ => estimate_expected_cost(&sh, &out.output.centers, 2 * t, false, false),
        };
        println!(
            "{:<10} bytes {:>8}  rounds {}  site_time {:>8.3}s  true_cost {:>10.2}",
            name,
            out.stats.total_bytes(),
            out.stats.num_rounds(),
            out.stats.site_critical_path().as_secs_f64(),
            cost
        );
    }
    // Comm vs n: must not grow.
    let small = uncertain_mixture(UncertainSpec {
        nodes_per_site: 20,
        seed: 8001,
        ..Default::default()
    });
    let big = uncertain_mixture(UncertainSpec {
        nodes_per_site: 80,
        seed: 8001,
        ..Default::default()
    });
    let cfg = UncertainConfig::new(3, 4);
    let a = run_uncertain_median(&small, cfg, RunOptions::default());
    let b = run_uncertain_median(&big, cfg, RunOptions::default());
    println!(
        "\ncomm at 20 nodes/site: {}B; at 80 nodes/site: {}B (paper: independent of n)",
        a.stats.upstream_bytes(),
        b.stats.upstream_bytes()
    );
}

/// E8 — Figure 1 / Lemmas 5.3–5.5: the compressed-graph sandwich.
fn e8_compressed_graph() {
    header(
        "E8",
        "Figure 1: clustering on the compressed graph ~ true uncertain cost",
    );
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "seed", "graph_cost", "true_cost", "true/graph"
    );
    let mut worst: f64 = 0.0;
    for seed in 0..8u64 {
        let sh = uncertain_mixture(UncertainSpec {
            clusters: 3,
            nodes_per_site: 25,
            sites: 1,
            noise_nodes: 3,
            support: 3,
            jitter: 2.0,
            separation: 100.0,
            seed: 9000 + seed,
        });
        let all = &sh[0];
        let (graph, demands) = CompressedGraph::from_nodes(all, false);
        let sol = median_bicriteria(
            &graph,
            &demands,
            3,
            3.0,
            Objective::Median,
            BicriteriaParams {
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut centers = PointSet::new(2);
        for &c in &sol.centers {
            centers.push(graph.y_coords(c));
        }
        let true_cost =
            estimate_expected_cost(std::slice::from_ref(all), &centers, 3, false, false);
        let ratio = true_cost / sol.cost.max(1e-9);
        worst = worst.max(ratio);
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>14.3}",
            seed, sol.cost, true_cost, ratio
        );
    }
    println!("\npaper (Lemma 5.4): true cost <= 2 x graph cost. measured worst ratio: {worst:.3}");
}

/// E9 — Table 1 center-g row (Theorem 5.14).
fn e9_center_g() {
    header(
        "E9",
        "Table 1 center-g row: comm O(skB + tI + s logDelta); cost vs E[max]",
    );
    let t = 4;
    println!(
        "{:>9} {:>10} {:>10} {:>12} {:>12}",
        "support", "bytes", "rounds", "E[max]", "max-E"
    );
    for &support in &[2usize, 4, 8] {
        let sh = uncertain_mixture(UncertainSpec {
            clusters: 3,
            nodes_per_site: 15,
            sites: 3,
            noise_nodes: t,
            support,
            jitter: 1.5,
            separation: 100.0,
            seed: 10_000 + support as u64,
        });
        let out = run_center_g(&sh, CenterGConfig::new(3, t), RunOptions::default());
        let emax = estimate_center_g_cost(&sh, &out.output.centers, t, 1000, 13);
        let ppe = estimate_expected_cost(&sh, &out.output.centers, t, false, true);
        println!(
            "{:>9} {:>10} {:>10} {:>12.2} {:>12.2}",
            support,
            out.stats.total_bytes(),
            out.stats.num_rounds(),
            emax,
            ppe
        );
    }
    println!("\npaper: outliers ship full distributions (I ~ support x (B+8)) -> bytes");
    println!("grow with support size; E[max] >= max-E always (E and max do not commute).");

    // Table 2's 1-round center-g row: O(s(kB+tI) log Delta) — the full tau
    // sweep ships in one round (distance range assumed known a priori).
    let sh = uncertain_mixture(UncertainSpec {
        clusters: 3,
        nodes_per_site: 15,
        sites: 3,
        noise_nodes: t,
        support: 4,
        jitter: 1.5,
        separation: 100.0,
        seed: 10_500,
    });
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for s in &sh {
        if let Some((a, b)) = dpc::uncertain::truncated::distance_range(&s.ground) {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    let adaptive = run_center_g(&sh, CenterGConfig::new(3, t), RunOptions::default());
    let one = dpc::uncertain::run_center_g_one_round(
        &sh,
        CenterGConfig::new(3, t),
        lo,
        hi,
        RunOptions::default(),
    );
    let e_adaptive = estimate_center_g_cost(&sh, &adaptive.output.centers, t, 1000, 17);
    let e_one = estimate_center_g_cost(&sh, &one.output.centers, t, 1000, 17);
    println!("\n1-round vs adaptive (Table 2 last row):");
    println!(
        "  adaptive: {} rounds, {:>7}B, E[max] {:.2}",
        adaptive.stats.num_rounds(),
        adaptive.stats.total_bytes(),
        e_adaptive
    );
    println!(
        "  1-round:  {} rounds, {:>7}B, E[max] {:.2}  (ships the whole tau sweep)",
        one.stats.num_rounds(),
        one.stats.total_bytes(),
        e_one
    );
}

/// E10 — Theorem 3.8 / Table 2: the (2+eps+delta)t counts-only trade-off.
fn e10_delta_variant() {
    header(
        "E10",
        "Theorem 3.8: comm O(s/delta + skB) vs outlier blow-up (2+eps+delta)t",
    );
    let (k, t) = (4, 64);
    let sh = med_shards(8, 1600, t, 11_000);
    let ship = run_distributed_median(&sh, MedianConfig::new(k, t), RunOptions::default());
    let (ship_cost, _) = evaluate_on_full_data(&sh, &ship.output.centers, 2 * t, Objective::Median);
    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "variant", "bytes", "budget", "true_cost"
    );
    println!(
        "{:<22} {:>10} {:>12} {:>12.2}",
        "Alg.1 (ship outliers)",
        ship.stats.upstream_bytes(),
        2 * t,
        ship_cost
    );
    for &delta in &[0.125f64, 0.25, 0.5, 1.0] {
        let out = run_distributed_median(
            &sh,
            MedianConfig::new(k, t).counts_only(delta),
            RunOptions::default(),
        );
        let budget = ((2.0 + 1.0 + delta) * t as f64) as usize;
        let (cost, _) = evaluate_on_full_data(&sh, &out.output.centers, budget, Objective::Median);
        println!(
            "{:<22} {:>10} {:>12} {:>12.2}",
            format!("Thm 3.8 delta={delta}"),
            out.stats.upstream_bytes(),
            budget,
            cost
        );
    }
    println!("\npaper: counts-only drops the t B-sized points from the wire; smaller delta");
    println!("means finer grids (more hull bytes) but fewer excess outliers.");
}

/// E11 — Table 2's 1-round rows across all three objectives.
fn e11_one_round() {
    header("E11", "Table 2 1-round rows: O((sk+st)B) across objectives");
    let (k, t, s) = (4, 32, 8);
    let data = Dataset::Shards(med_shards(s, 1200, t, 12_000));
    let rows = [
        ("median 1-round", Job::one_round(Objective::Median, k, t)),
        ("median 2-round", Job::median(k, t)),
        ("means 1-round", Job::one_round(Objective::Means, k, t)),
        ("center 1-round", Job::one_round(Objective::Center, k, t)),
        ("center 2-round", Job::center(k, t)),
    ];
    println!("{:<22} {:>8} {:>12}", "protocol", "rounds", "bytes");
    for (label, job) in rows {
        let artifact = job_artifact(job.data(data.clone()));
        println!(
            "{:<22} {:>8} {:>12}",
            label,
            artifact.rounds,
            artifact.upstream_bytes()
        );
    }
    println!("\npaper: one fewer round costs a factor ~s on the t-term.");
}

/// G1 — the declarative experiment matrix: one `Sweep`, every
/// `k × t × transport` cell in parallel, one CSV table out.
fn g1_sweep_grid() {
    header(
        "G1",
        "sweep: k x t x transport grid through dpc::api::Sweep, CSV out",
    );
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 8,
        inliers: 1600,
        outliers: 64,
        seed: 17_000,
        ..Default::default()
    });
    let sweep = Sweep::grid(Job::median(0, 0).sites(8).seed(21).points(mix.points))
        .k(&[4, 8])
        .t(&[16, 64])
        .transports(&[TransportKind::Channel, TransportKind::Mux]);
    let t0 = Instant::now();
    let artifacts = sweep.run().expect("every cell validates");
    let elapsed = t0.elapsed().as_secs_f64();
    print!("{}", dpc::api::csv_table(&artifacts));
    println!(
        "\n{} cells in {elapsed:.2}s wall; channel/mux byte parity: {}",
        artifacts.len(),
        artifacts
            .chunks(2)
            .all(|pair| pair[0].bytes == pair[1].bytes)
    );
}

/// S1 — streaming layer: ingest throughput (points/sec) and compression
/// vs block size, plus continuous-mode sync cost on a drifting stream.
fn s1_stream_throughput() {
    header(
        "S1",
        "dpc_stream: points/sec throughput, compression, and sync bytes",
    );
    let (k, t, n) = (4, 24, 20_000);
    let stream = drifting_stream(DriftSpec {
        clusters: k,
        points: n,
        drift: 0.6,
        burst_len: 6,
        burst_every: 2000,
        seed: 16_000,
        ..Default::default()
    });
    println!(
        "{:>7} {:>14} {:>12} {:>12} {:>12}",
        "block", "points/sec", "live_pts", "compress", "true_cost"
    );
    for &block in &[64usize, 128, 256, 512, 1024] {
        let mut engine = StreamEngine::new(2, StreamConfig::new(k, t).block(block));
        let t0 = Instant::now();
        for (_, p) in stream.points.iter() {
            engine.push(p);
        }
        engine.flush();
        let pps = n as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        let sol = engine.solve();
        let (cost, _) = evaluate_on_full_data(
            std::slice::from_ref(&stream.points),
            &sol.centers,
            2 * t,
            Objective::Median,
        );
        println!(
            "{:>7} {:>14.0} {:>12} {:>11.0}x {:>12.1}",
            block,
            pps,
            sol.live_points,
            n as f64 / sol.live_points as f64,
            cost
        );
    }
    // Continuous mode: sync cost must stay flat as the prefix grows.
    let cfg = ContinuousConfig {
        stream: StreamConfig::new(k, t).block(256),
        ..ContinuousConfig::new(k, t)
    }
    .sync_every(4000);
    let mut fleet = ContinuousCluster::new(2, 4, cfg);
    let t0 = Instant::now();
    for (i, p) in stream.points.iter() {
        fleet.ingest(i % 4, p);
    }
    let pps = n as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    println!("\ncontinuous (4 sites, sync every 4000): {pps:.0} points/sec incl. syncs");
    for rec in &fleet.history {
        println!(
            "  sync at {:>6}: {:>6}B over {} rounds",
            rec.at,
            rec.stats.total_bytes(),
            rec.stats.num_rounds()
        );
    }
    println!("\nsmaller blocks: more frequent summarization (lower points/sec), more");
    println!("live summaries; sync bytes are flat in the prefix length (summaries only).");
}

/// B1 — the bulk-kernel speedup record: scalar per-pair loops vs the
/// blocked bulk layer vs bulk + threads, for the assignment shape every
/// protocol bottoms out in (nearest-center over a `k + t` candidate set,
/// the paper's `t ≫ k` regime), at d ∈ {4, 6, 8, 32, 128} on 50k points with
/// 64 candidates, plus the local search's swap scoring at the same dims
/// ([`swap_delta_rows`]).
///
/// Writes `BENCH_kernels.json` at the repo root so the perf trajectory is
/// recorded in-tree; the acceptance bar is ≥ 3× bulk-over-scalar for the
/// Lloyd / Gonzalez assignment kernels at dim ≥ 32.
///
/// `threads_override` (the `threads=N` CLI arg) pins the "+threads"
/// columns to an explicit fan-out; by default they use one thread per
/// available core. The JSON records both the machine's parallelism and
/// the budget the run actually used, so a single-core recording is
/// distinguishable from a fan-out one.
fn b1_kernels(threads_override: Option<usize>) {
    use dpc::cluster::gonzalez_with;
    use dpc::metric::{CenterBlock, EuclideanMetric, NearestAssigner, ThreadBudget};

    header(
        "B1",
        "bulk kernels: scalar vs bulk vs bulk+threads, 50k points, k+t=64 candidates",
    );
    let budget = threads_override
        .map(ThreadBudget::new)
        .unwrap_or_else(ThreadBudget::available);
    const N: usize = 50_000;
    const CLUSTERS: usize = 16;
    /// Candidate-set size: `k + t` with `k = 16`, `t = 48` — the sites'
    /// Gonzalez-prefix / coordinator-instance shape of Table 1.
    const K: usize = 64;
    let dims = [4usize, 6, 8, 32, 128];

    println!(
        "{:>5} {:>16} {:>12} {:>12} {:>14} {:>9} {:>9}",
        "dim", "kernel", "scalar_ms", "bulk_ms", "bulk+thr_ms", "speedup", "thr_x"
    );
    let mut rows = Vec::new();
    for &dim in &dims {
        let blobs = gaussian_blobs(BlobsSpec {
            clusters: CLUSTERS,
            points: N,
            outliers: 0,
            dim,
            imbalance: 0.5,
            seed: 0xbe7c + dim as u64,
            ..Default::default()
        });
        let ps = &blobs.points;
        let ids: Vec<usize> = (0..ps.len()).collect();
        let m = EuclideanMetric::new(ps);

        // The candidate set: the first k + t Gonzalez selections — exactly
        // what Algorithm 2 sites attach their points to before shipping.
        let prefix = gonzalez_with(&m, &ids, K, 0, ThreadBudget::serial()).order;

        // Lloyd-style assignment: scalar per-pair sq_dist_to vs CenterBlock.
        let centroids: Vec<Vec<f64>> = prefix.iter().map(|&c| ps.point(c).to_vec()).collect();
        let scalar_lloyd = time_ms(|| {
            let mut acc = 0.0;
            for i in 0..ps.len() {
                let mut best = f64::INFINITY;
                for c in &centroids {
                    let d = ps.sq_dist_to(i, c);
                    if d < best {
                        best = d;
                    }
                }
                acc += best;
            }
            std::hint::black_box(acc);
        });
        let block = CenterBlock::from_rows(dim, &centroids);
        let bulk_lloyd = time_ms(|| {
            std::hint::black_box(block.assign_sq(ps, &ids, ThreadBudget::serial()));
        });
        let thr_lloyd = time_ms(|| {
            std::hint::black_box(block.assign_sq(ps, &ids, budget));
        });

        // Gonzalez-prefix assignment over the Metric (Algorithm 2's
        // point-attachment step, historically a per-pair `nearest` loop).
        let scalar_gonz = time_ms(|| {
            let mut acc = 0.0;
            for i in 0..ps.len() {
                let mut best = f64::INFINITY;
                for &c in &prefix {
                    let d = ps.dist(i, c);
                    if d < best {
                        best = d;
                    }
                }
                acc += best;
            }
            std::hint::black_box(acc);
        });
        let assigner = NearestAssigner::new(&m);
        let bulk_gonz = time_ms(|| {
            std::hint::black_box(assigner.assign(&ids, &prefix));
        });
        let thr_assigner = NearestAssigner::with_threads(&m, budget);
        let thr_gonz = time_ms(|| {
            std::hint::black_box(thr_assigner.assign(&ids, &prefix));
        });

        // Gonzalez relax traversal (informational — the partial-distance
        // hook prunes less here because the incumbent tightens over steps).
        // The baseline is the pre-kernel-layer traversal verbatim: fused
        // relax + farthest scan with assignment tracking, so the ratio
        // measures the kernel layer and not dropped bookkeeping.
        let scalar_relax = time_ms(|| {
            let mut best = vec![f64::INFINITY; N];
            let mut pos = vec![0usize; N];
            let mut chosen = 0usize;
            for step in 0..CLUSTERS {
                let mut far = (0usize, -1.0f64);
                let zipped = best.iter_mut().zip(pos.iter_mut()).zip(&ids);
                for (i, ((b, p), &id)) in zipped.enumerate() {
                    let d = ps.dist(id, ids[chosen]);
                    if d < *b {
                        *b = d;
                        *p = step;
                    }
                    if *b > far.1 {
                        far = (i, *b);
                    }
                }
                chosen = far.0;
            }
            std::hint::black_box((&best, &pos));
        });
        let bulk_relax = time_ms(|| {
            std::hint::black_box(dpc::cluster::gonzalez(&m, &ids, CLUSTERS, 0));
        });
        let thr_relax = time_ms(|| {
            std::hint::black_box(gonzalez_with(&m, &ids, CLUSTERS, 0, budget));
        });

        // Lloyd iteration ≥ 2: the triangle-inequality path. The
        // BoundedAssigner is seeded by a full pass, then timed against a
        // slightly drifted center set (alternating between two offset
        // copies so every timed call sees a real non-zero drift, like a
        // settling Lloyd run). Baseline ("scalar" column) is the fresh
        // blocked pass an unbounded iteration pays; bulk / bulk+thr are
        // the bounded pass at serial / recorded budget. `skip_rate` is
        // the fraction of queries certified by the bounds (measured via
        // the dpc_obs counters on an untimed pass).
        use dpc::metric::{Assignment, BoundedAssigner};
        use dpc::obs::{Collector, Counter};
        use std::sync::Arc;
        let drifted: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|s| {
                centroids
                    .iter()
                    .map(|c| c.iter().map(|&x| x + 1e-3 * (s as f64 + 1.0)).collect())
                    .collect()
            })
            .collect();
        let iter2_fresh = time_ms(|| {
            let b = CenterBlock::from_rows(dim, &drifted[0]);
            std::hint::black_box(b.assign_sq(ps, &ids, ThreadBudget::serial()));
        });
        let mut bounded = BoundedAssigner::new();
        let mut bout = Assignment::default();
        bounded.assign_sq(ps, &ids, &centroids, ThreadBudget::serial(), &mut bout);
        let mut flip = 0usize;
        let iter2_bounded = time_ms(|| {
            flip ^= 1;
            bounded.assign_sq(ps, &ids, &drifted[flip], ThreadBudget::serial(), &mut bout);
        });
        let mut bounded_thr = BoundedAssigner::new();
        bounded_thr.assign_sq(ps, &ids, &centroids, budget, &mut bout);
        let iter2_thr = time_ms(|| {
            flip ^= 1;
            bounded_thr.assign_sq(ps, &ids, &drifted[flip], budget, &mut bout);
        });
        let col = Arc::new(Collector::new());
        let mut counted = BoundedAssigner::with_recorder(col.handle());
        counted.assign_sq(ps, &ids, &centroids, ThreadBudget::serial(), &mut bout);
        let before = col.snapshot().counters;
        counted.assign_sq(ps, &ids, &drifted[0], ThreadBudget::serial(), &mut bout);
        let after = col.snapshot().counters;
        let skips = after[Counter::BoundSkips.index()] - before[Counter::BoundSkips.index()];
        let queries =
            after[Counter::KernelQueries.index()] - before[Counter::KernelQueries.index()];
        let skip_rate = skips as f64 / queries.max(1) as f64;
        println!(
            "{:>5} {:>16} {:>12.2} {:>12.2} {:>14.2} {:>8.2}x {:>8.2}x  (skip_rate {:.3})",
            dim,
            "lloyd_iter2",
            iter2_fresh,
            iter2_bounded,
            iter2_thr,
            iter2_fresh / iter2_bounded,
            iter2_fresh / iter2_thr,
            skip_rate
        );
        rows.push(format!(
            concat!(
                "{{\"dim\":{},\"kernel\":\"lloyd_iter2\",\"n\":{},\"candidates\":{},",
                "\"scalar_ms\":{:.3},\"bulk_ms\":{:.3},\"bulk_threads_ms\":{:.3},",
                "\"speedup_bulk\":{:.3},\"speedup_threads\":{:.3},\"skip_rate\":{:.4}}}"
            ),
            dim,
            N,
            K,
            iter2_fresh,
            iter2_bounded,
            iter2_thr,
            iter2_fresh / iter2_bounded,
            iter2_fresh / iter2_thr,
            skip_rate
        ));

        for (kernel, scalar, bulk, thr) in [
            ("lloyd_assign", scalar_lloyd, bulk_lloyd, thr_lloyd),
            ("gonzalez_assign", scalar_gonz, bulk_gonz, thr_gonz),
            ("gonzalez_relax", scalar_relax, bulk_relax, thr_relax),
        ] {
            println!(
                "{:>5} {:>16} {:>12.2} {:>12.2} {:>14.2} {:>8.2}x {:>8.2}x",
                dim,
                kernel,
                scalar,
                bulk,
                thr,
                scalar / bulk,
                scalar / thr
            );
            rows.push(format!(
                concat!(
                    "{{\"dim\":{},\"kernel\":\"{}\",\"n\":{},\"candidates\":{},",
                    "\"scalar_ms\":{:.3},\"bulk_ms\":{:.3},\"bulk_threads_ms\":{:.3},",
                    "\"speedup_bulk\":{:.3},\"speedup_threads\":{:.3}}}"
                ),
                dim,
                kernel,
                N,
                K,
                scalar,
                bulk,
                thr,
                scalar / bulk,
                scalar / thr
            ));
        }
    }

    rows.extend(swap_delta_rows(budget, &dims));

    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\"experiment\":\"kernels\",\"available_threads\":{},\"used_threads\":{},\"rows\":[{}]}}\n",
        available,
        budget.get(),
        rows.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded -> BENCH_kernels.json"),
        Err(e) => println!("\ncould not write BENCH_kernels.json: {e}"),
    }
    println!("acceptance: bulk speedup >= 3x for lloyd/gonzalez assignment at dim >= 32.");
}

/// B1's `swap_delta` rows: one local-search iteration's candidate
/// scoring (48 candidates against 4 centers, finite penalty) at
/// n ∈ {300, 2048, 16384}. `scalar_ms` is the per-candidate path (one
/// distance pass per candidate, then a sequential accumulation pass),
/// `bulk_ms` the tiled pass on one thread, `bulk_threads_ms` the tiled
/// pass with its tiles shared out over the budget regardless of the
/// work floor — the crossover these rows show is where
/// `TILE_PAR_MIN_PAIRS` sits. All three must agree bit for bit.
/// `skip_rate` is the share of the `pairs` whose distance the tiled
/// pass's triangle bound skipped.
fn swap_delta_rows(budget: dpc::metric::ThreadBudget, dims: &[usize]) -> Vec<String> {
    use dpc::cluster::swap_deltas;
    use dpc::metric::{EuclideanMetric, NearestAssigner, ThreadBudget};
    const CANDIDATES: usize = 48;
    const CENTERS: usize = 4;
    let mut rows = Vec::new();
    for &dim in dims {
        for n in [300usize, 2048, 16_384] {
            let blobs = gaussian_blobs(BlobsSpec {
                clusters: CENTERS,
                points: n,
                outliers: 0,
                dim,
                seed: 0x5a4d + dim as u64,
                ..Default::default()
            });
            let ps = &blobs.points;
            let m = EuclideanMetric::new(ps);
            let points = WeightedSet::unit(ps.len());
            let (ids, weights) = (points.ids(), points.weights());
            let centers: Vec<usize> = (0..CENTERS).map(|c| c * n / CENTERS).collect();
            let state = NearestAssigner::new(&m).assign2c(ids, &centers);
            let penalty = state.d1.iter().copied().fold(0.0, f64::max) / 2.0;
            let cands: Vec<usize> = (0..CANDIDATES).map(|c| (c * 7919 + 1) % n).collect();

            let assigner = NearestAssigner::new(&m);
            let per_candidate = || {
                let mut out = Vec::with_capacity(CANDIDATES * (CENTERS + 1));
                let mut dx = Vec::new();
                for &cand in &cands {
                    assigner.dists_from(ids[cand], ids, &mut dx);
                    let mut a = 0.0f64;
                    let mut b = [0.0f64; CENTERS];
                    for (e, &w) in weights.iter().enumerate() {
                        if w == 0.0 {
                            continue;
                        }
                        let old = state.d1[e].min(penalty);
                        let with_x = dx[e].min(state.d1[e]).min(penalty);
                        a += w * (with_x - old);
                        b[state.c1[e]] += w * (state.d2[e].min(dx[e]).min(penalty) - with_x);
                    }
                    out.push(a);
                    out.extend(b);
                }
                out
            };
            let tiled =
                |threads| swap_deltas(&m, &points, &state, &centers, penalty, &cands, threads);
            let want = per_candidate();
            let (serial, skipped) = tiled(ThreadBudget::serial());
            assert_eq!(serial, want, "tiled serial differs");
            assert_eq!(tiled(budget), (want, skipped), "tiled threaded differs");
            let skip_rate = skipped as f64 / (n * CANDIDATES) as f64;
            // Five interleaved best-of-3 rounds: at n = 300 a row takes a
            // fraction of a millisecond, and one preempted round must not
            // decide the crossover.
            let (mut scalar, mut bulk, mut thr) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for _ in 0..5 {
                scalar = scalar.min(time_ms(|| {
                    std::hint::black_box(per_candidate());
                }));
                bulk = bulk.min(time_ms(|| {
                    std::hint::black_box(tiled(ThreadBudget::serial()));
                }));
                thr = thr.min(time_ms(|| {
                    std::hint::black_box(tiled(budget));
                }));
            }
            println!(
                "{:>5} {:>16} {:>12.3} {:>12.3} {:>14.3} {:>8.2}x {:>8.2}x  (n {}, skip {:.3})",
                dim,
                "swap_delta",
                scalar,
                bulk,
                thr,
                scalar / bulk,
                scalar / thr,
                n,
                skip_rate
            );
            rows.push(format!(
                concat!(
                    "{{\"dim\":{},\"kernel\":\"swap_delta\",\"n\":{},\"candidates\":{},",
                    "\"pairs\":{},\"scalar_ms\":{:.3},\"bulk_ms\":{:.3},\"bulk_threads_ms\":{:.3},",
                    "\"speedup_bulk\":{:.3},\"speedup_threads\":{:.3},\"skip_rate\":{:.4}}}"
                ),
                dim,
                n,
                CANDIDATES,
                n * CANDIDATES,
                scalar,
                bulk,
                thr,
                scalar / bulk,
                scalar / thr,
                skip_rate
            ));
        }
    }
    rows
}

/// Best-of-3 wall clock of `f` in milliseconds.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// T1 — the transport-layer record: end-to-end wall clock of the same
/// 2-round median protocol on the in-process (channel) and
/// socket-pair event-loop (mux) backends as the fleet grows from 16
/// to 4096 sites, crossed with simulated link latency.
///
/// Writes `BENCH_transport.json` at the repo root (the companion of
/// `BENCH_kernels.json`) so the transport-overhead trajectory is
/// recorded in-tree. Byte charges are asserted identical across
/// backends — only time may differ. Both backends serve the fleet from
/// `used_threads` shards (the job's `threads`), so neither starts a
/// thread per site: channel runs `used_threads` in-process site groups,
/// while mux also pays a socket pair per site and a poll(2) site loop
/// per shard.
fn t1_transport(threads_override: Option<usize>) {
    header(
        "T1",
        "transport backends: in-process shards vs mux event loops over socket pairs",
    );
    let threads = threads_override.unwrap_or(1);
    // Small summaries (k + t = 6 points per site) keep coordinator-side
    // solve time flat, so the grid isolates transport cost.
    let (k, t) = (2usize, 4usize);

    let configure = |job: JobBuilder, backend: &str| match backend {
        "mux" => job.transport(TransportKind::Mux),
        _ => job,
    };

    let mut rows = Vec::new();
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>10} {:>8} {:>11} | full-run wall clock",
        "sites", "backend", "lat_ms", "wall_ms", "bytes", "rounds", "network_ms"
    );
    for &sites in &[16usize, 64, 256, 1024, 4096] {
        // At least 4 points per site so every shard can form a summary.
        let n = (sites * 4).max(4096);
        let data = Dataset::Shards(med_shards(sites, n, t, 18_000 + sites as u64));
        // Best-of-3 even at 4096 sites: a closed Unix socket pair frees
        // its kernel state at once, so a full spawn-run-teardown cycle
        // stays under a second and leaves nothing for the next run.
        let reps = 3;
        for &lat_ms in &[0u64, 1, 5] {
            let link = LinkModel::new(std::time::Duration::from_millis(lat_ms), 1e9);
            let mut base_bytes = None;
            for backend in ["channel", "mux"] {
                let job = || {
                    configure(
                        Job::median(k, t)
                            .threads(threads)
                            .link(link)
                            .data(data.clone()),
                        backend,
                    )
                };
                let mut best = f64::INFINITY;
                let mut artifact = None;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let a = job_artifact(job());
                    best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                    artifact = Some(a);
                }
                let artifact = artifact.expect("at least one repetition");
                assert_eq!(
                    *base_bytes.get_or_insert(artifact.bytes),
                    artifact.bytes,
                    "byte charges must be backend-independent"
                );
                println!(
                    "{:>6} {:>8} {:>8} {:>10.2} {:>10} {:>8} {:>11.3}",
                    sites,
                    backend,
                    lat_ms,
                    best,
                    artifact.bytes,
                    artifact.rounds,
                    artifact.network_ms
                );
                rows.push(format!(
                    concat!(
                        "{{\"sites\":{},\"backend\":\"{}\",\"latency_ms\":{},",
                        "\"wall_ms\":{:.3},\"bytes\":{},\"rounds\":{},\"network_ms\":{:.3}}}"
                    ),
                    sites,
                    backend,
                    lat_ms,
                    best,
                    artifact.bytes,
                    artifact.rounds,
                    artifact.network_ms
                ));
            }
        }
    }

    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\"experiment\":\"transport\",\"available_threads\":{},\"used_threads\":{},\"rows\":[{}]}}\n",
        available,
        threads,
        rows.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded -> BENCH_transport.json"),
        Err(e) => println!("\ncould not write BENCH_transport.json: {e}"),
    }
    println!("expect: bytes and network_ms backend-identical at every cell;");
    println!("network_ms scales linearly in latency; channel rows run on");
    println!("used_threads shard threads, mux rows on 2 x used_threads - 1,");
    println!("whatever the fleet size.");
}

/// C1 — the bicriteria compression frontier: wire bytes vs clustering
/// objective for every codec, on clustered batch jobs and on continuous
/// syncs at two dimensions.
fn c1_codec() {
    header(
        "C1",
        "wire codecs: bytes vs objective frontier, batch median/means and continuous syncs at dim 2 and 16",
    );
    let mut rows = Vec::new();
    let mut frontier_met = false;
    println!(
        "{:>10} {:>9} {:>4} {:>9} {:>9} {:>9} {:>7} {:>10} | ratio = raw/compressed",
        "mode", "objective", "dim", "encoding", "bytes", "raw", "ratio", "delta_pct"
    );
    let mut record = |mode: &str,
                      objective: &str,
                      dim: usize,
                      enc: Encoding,
                      bytes: usize,
                      bytes_raw: usize,
                      cost: f64,
                      delta: f64| {
        let ratio = bytes_raw as f64 / bytes as f64;
        // The frontier target: some lossy or reference mode buys >= 1.5x
        // fewer bytes for <= 5% objective movement.
        if enc != Encoding::Raw && ratio >= 1.5 && delta.abs() <= 0.05 {
            frontier_met = true;
        }
        println!(
            "{:>10} {:>9} {:>4} {:>9} {:>9} {:>9} {:>7.2} {:>+10.3}",
            mode,
            objective,
            dim,
            enc.name(),
            bytes,
            bytes_raw,
            ratio,
            delta * 100.0
        );
        rows.push(format!(
            concat!(
                "{{\"mode\":\"{}\",\"objective\":\"{}\",\"dim\":{},\"encoding\":\"{}\",",
                "\"bytes\":{},\"bytes_raw\":{},\"ratio\":{:.4},",
                "\"cost\":{:.6},\"quality_delta\":{:.6}}}"
            ),
            mode,
            objective,
            dim,
            enc.name(),
            bytes,
            bytes_raw,
            ratio,
            cost,
            delta
        ));
    };

    // Batch jobs: one two-round protocol run per cell.
    let (k, t, sites, n) = (4usize, 24usize, 4usize, 1200usize);
    for dim in [2usize, 16] {
        let mix = gaussian_blobs(BlobsSpec {
            clusters: k,
            points: n,
            outliers: t,
            dim,
            seed: 41_000 + dim as u64,
            ..Default::default()
        });
        let shards = partition(
            &mix.points,
            sites,
            PartitionStrategy::Random,
            &mix.outlier_ids,
            77,
        );
        let data = Dataset::Shards(shards);
        for objective in ["median", "means"] {
            let job = |enc: Encoding| {
                let b = match objective {
                    "means" => Job::means(k, t),
                    _ => Job::median(k, t),
                };
                b.data(data.clone()).encoding(enc)
            };
            let raw = job_artifact(job(Encoding::Raw));
            for enc in Encoding::ALL {
                let a = if enc == Encoding::Raw {
                    raw.clone()
                } else {
                    job_artifact(job(enc))
                };
                let raw_bytes = a.bytes_raw.unwrap_or(a.bytes);
                assert_eq!(
                    raw_bytes, raw.bytes,
                    "{objective}/dim{dim}/{enc}: raw byte totals must match the raw run"
                );
                let delta = a.quality_delta.unwrap_or(0.0);
                record(
                    "batch", objective, dim, enc, a.bytes, raw_bytes, a.cost, delta,
                );
            }
        }
    }

    // Continuous syncs, in the shape of the `continuous-f32` benchmark:
    // each site's previous sync upload is its reference dictionary.
    let (k, t, sites, n) = (4usize, 8usize, 4usize, 4000usize);
    for dim in [2usize, 16] {
        let stream = drifting_stream(DriftSpec {
            clusters: k,
            points: n,
            dim,
            sigma: 1.0,
            separation: 100.0,
            drift: 0.5,
            burst_len: 1,
            burst_every: n / t,
            seed: 1,
        })
        .points;
        // Total and raw sync bytes, and the final cost on every point.
        let run = |enc: Encoding| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(k, t).block(256),
                ..ContinuousConfig::new(k, t)
            }
            .sync_every(200)
            .encoding(enc);
            let mut fleet = ContinuousCluster::new(dim, sites, cfg);
            for (i, p) in stream.iter() {
                fleet.ingest(i % sites, p);
            }
            let last = fleet.sync_if_stale();
            let (cost, _) = evaluate_on_full_data(
                std::slice::from_ref(&stream),
                &fleet.history[last].centers,
                2 * t,
                Objective::Median,
            );
            let bytes_raw = fleet.history.iter().map(|r| r.stats.raw_bytes()).sum();
            (fleet.total_comm_bytes(), bytes_raw, cost)
        };
        let raw = run(Encoding::Raw);
        for enc in Encoding::ALL {
            let (bytes, bytes_raw, cost) = if enc == Encoding::Raw { raw } else { run(enc) };
            assert_eq!(
                bytes_raw, raw.0,
                "continuous/dim{dim}/{enc}: raw byte totals must match the raw run"
            );
            let delta = (cost - raw.2) / raw.2.abs().max(1e-9);
            record(
                "continuous",
                "median",
                dim,
                enc,
                bytes,
                bytes_raw,
                cost,
                delta,
            );
        }
    }

    let json = format!(
        "{{\"experiment\":\"codec\",\"frontier_target_met\":{},\"rows\":[{}]}}\n",
        frontier_met,
        rows.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded -> BENCH_codec.json"),
        Err(e) => println!("\ncould not write BENCH_codec.json: {e}"),
    }
    assert!(
        frontier_met,
        "no lossy/reference mode reached 1.5x bytes at <= 5% objective delta"
    );
    println!("expect: f32 ratios grow with dim (coords dominate at dim 16); rlz");
    println!("stays lossless (delta_pct exactly 0) and expands batch rows (no");
    println!("dictionary). On continuous rows both copy the previous sync, and f32");
    println!("beats rlz: it reference-codes the quantized body, not the raw one.");
}

/// A1 — ablation: geometric grid resolution rho.
fn a1_grid() {
    header(
        "A1",
        "ablation: grid ratio rho — site time vs quality vs Sigma t_i",
    );
    let (k, t) = (4, 48);
    let sh = med_shards(6, 900, t, 13_000);
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>10}",
        "rho", "bytes", "site_time(s)", "true_cost", "sum_ti"
    );
    for &rho in &[1.25f64, 1.5, 2.0, 4.0] {
        let mut cfg = MedianConfig::new(k, t);
        cfg.rho = rho;
        let out = run_distributed_median(&sh, cfg, RunOptions::default());
        let (cost, _) = evaluate_on_full_data(&sh, &out.output.centers, 2 * t, Objective::Median);
        println!(
            "{:>6} {:>12} {:>14.3} {:>12.2} {:>10}",
            rho,
            out.stats.upstream_bytes(),
            out.stats.site_critical_path().as_secs_f64(),
            cost,
            out.output.shipped_outliers
        );
    }
    println!("\nfiner grids: more local solves (time) and hull bytes, tighter Sigma t_i.");
}

/// A2 — ablation: partition adversariality.
fn a2_partition() {
    header("A2", "ablation: partition strategy robustness");
    let (k, t) = (4, 16);
    let mix = gaussian_mixture(MixtureSpec {
        clusters: k,
        inliers: 800,
        outliers: t,
        seed: 14_000,
        ..Default::default()
    });
    println!(
        "{:>14} {:>12} {:>12} {:>10}",
        "strategy", "bytes", "true_cost", "sum_ti"
    );
    for strat in [
        PartitionStrategy::Random,
        PartitionStrategy::RoundRobin,
        PartitionStrategy::ByBlock,
        PartitionStrategy::OutlierSkew,
    ] {
        let sh = partition(&mix.points, 6, strat, &mix.outlier_ids, 77);
        let out = run_distributed_median(&sh, MedianConfig::new(k, t), RunOptions::default());
        let (cost, _) = evaluate_on_full_data(&sh, &out.output.centers, 2 * t, Objective::Median);
        println!(
            "{:>14} {:>12} {:>12.2} {:>10}",
            format!("{strat:?}"),
            out.stats.upstream_bytes(),
            cost,
            out.output.shipped_outliers
        );
    }
    println!("\nthe allocation must route the outlier budget to the skewed site.");
}

/// A3 — ablation: lambda-search iterations in the Theorem 3.1 substitute.
fn a3_lambda() {
    header(
        "A3",
        "ablation: lambda-bisection iterations vs quality/time",
    );
    let (k, t) = (4, 16);
    let sh = med_shards(6, 700, t, 15_000);
    println!("{:>8} {:>14} {:>12}", "iters", "site_time(s)", "true_cost");
    for &iters in &[4usize, 8, 16, 32] {
        let mut cfg = MedianConfig::new(k, t);
        cfg.lambda_iters = iters;
        let out = run_distributed_median(&sh, cfg, RunOptions::default());
        let (cost, _) = evaluate_on_full_data(&sh, &out.output.centers, 2 * t, Objective::Median);
        println!(
            "{:>8} {:>14.3} {:>12.2}",
            iters,
            out.stats.site_critical_path().as_secs_f64(),
            cost
        );
    }
    println!("\ngeometric bisection: ~12 iterations suffice across 12 orders of magnitude.");
}

//! Quickstart: distributed `(k,t)`-median over noisy data, through the
//! typed experiment API.
//!
//! Generates a Gaussian mixture with planted outliers, describes the run
//! as a `Job`, validates it, executes it, and reads everything — measured
//! communication, per-round breakdown, solution quality — off the
//! returned `Artifact`.
//!
//! Run with: `cargo run --release -p dpc --example quickstart`

use dpc::prelude::*;

fn main() {
    let k = 5;
    let t = 25;
    let sites = 8;

    println!("== distributed (k,t)-median quickstart ==");
    println!("k = {k}, t = {t}, sites = {sites}");

    // A mixture of 5 clusters, 2000 inliers, 25 planted outliers.
    let mix = gaussian_mixture(MixtureSpec {
        clusters: k,
        inliers: 2000,
        outliers: t,
        ..Default::default()
    });
    let n = mix.points.len();
    println!("n = {n} points in 2 dims across {sites} sites");

    // One front door: build → validate → run. The job partitions the
    // points across the sites and drives the 2-round protocol of
    // Algorithm 1 (Theorem 3.6).
    let data = Dataset::Points(mix.points);
    let artifact = Job::median(k, t)
        .sites(sites)
        .data(data.clone())
        .validate()
        .expect("sound configuration")
        .run();

    println!("\n-- protocol --");
    println!("rounds:            {}", artifact.rounds);
    println!("total bytes:       {}", artifact.bytes);
    println!("upstream bytes:    {}", artifact.upstream_bytes());
    for (i, r) in artifact.round_stats.iter().enumerate() {
        println!(
            "round {i}: up={}B down={}B site={:.2}ms coord={:.2}ms",
            r.up_total(),
            r.down_total(),
            r.max_site_ms,
            r.coordinator_ms
        );
    }

    // The run already evaluated quality at the (1+eps)t budget; compare
    // against the same centers forced to pay for every point.
    println!("\n-- quality --");
    println!(
        "(k,{})-median cost of returned centers: {:.2}",
        artifact.budget, artifact.cost
    );
    let (cost_all, _) = artifact
        .evaluate(&data, 0, Objective::Median)
        .expect("point data");
    println!("same centers, no exclusions:                {cost_all:.2}");
    println!(
        "outlier robustness bought a {:.0}x cost reduction",
        cost_all / artifact.cost.max(1e-9)
    );

    // Sanity: recovered centers sit near the true ones.
    let mut worst = 0.0f64;
    for c in 0..mix.centers.len() {
        let true_c = mix.centers.point(c);
        let best = artifact
            .centers
            .iter()
            .map(|row| dpc::metric::points::sq_dist(row, true_c).sqrt())
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best);
    }
    println!("worst distance from a true center to its recovered center: {worst:.2}");

    // The artifact is one JSON schema shared with the CLI/benches.
    println!("\nartifact JSON: {} bytes", artifact.to_json().len());
}

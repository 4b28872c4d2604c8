//! End-to-end tests of Theorem 3.10's subquadratic centralized solver.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::subquadratic_median;
use std::time::Instant;

mod test_util;

fn instance(n: usize, t: usize, seed: u64) -> Mixture {
    test_util::mixture(4, n, t, seed)
}

#[test]
fn quality_within_constant_of_quadratic() {
    let mix = instance(900, 12, 211);
    let k = 4;
    let sub = subquadratic_median(&mix.points, k, 12, SubquadraticParams::default());
    // Quadratic reference at the same exclusion budget.
    let w = WeightedSet::unit(mix.points.len());
    let m = EuclideanMetric::new(&mix.points);
    let quad = median_bicriteria(
        &m,
        &w,
        k,
        12.0,
        Objective::Median,
        BicriteriaParams::default(),
    );
    assert!(
        sub.cost <= 8.0 * quad.cost.max(1.0),
        "subquadratic {} vs quadratic {}",
        sub.cost,
        quad.cost
    );
}

#[test]
fn excludes_planted_outliers() {
    let t = 10;
    let mix = instance(700, t, 223);
    let sol = subquadratic_median(&mix.points, 4, t, SubquadraticParams::default());
    for &o in &mix.outlier_ids {
        let op = mix.points.point(o);
        for c in 0..sol.centers.len() {
            let d = dpc::metric::points::sq_dist(sol.centers.point(c), op).sqrt();
            assert!(d > 1000.0, "center on planted outlier");
        }
    }
    assert!(sol.excluded <= 2 * t);
}

#[test]
fn faster_than_quadratic_at_scale() {
    // Wall-clock crossover: by n = 6000 the self-simulation must beat the
    // direct quadratic solver (both in debug-ish test profile, same
    // machine, same instance).
    let n = 6000;
    let t = 30;
    let mix = instance(n, t, 227);
    let k = 4;

    let t0 = Instant::now();
    let _sub = subquadratic_median(&mix.points, k, t, SubquadraticParams::default());
    let sub_time = t0.elapsed();

    let w = WeightedSet::unit(mix.points.len());
    let m = EuclideanMetric::new(&mix.points);
    let t1 = Instant::now();
    let _quad = median_bicriteria(
        &m,
        &w,
        k,
        t as f64,
        Objective::Median,
        BicriteriaParams::default(),
    );
    let quad_time = t1.elapsed();

    assert!(
        sub_time < quad_time,
        "subquadratic {sub_time:?} !< quadratic {quad_time:?} at n={n}"
    );
}

#[test]
fn deeper_recursion_still_correct() {
    let mix = instance(1200, 8, 229);
    let params = SubquadraticParams {
        levels: 2,
        base_threshold: 100,
        ..Default::default()
    };
    let sol = subquadratic_median(&mix.points, 4, 8, params);
    assert!(sol.cost < 1e5, "cost {}", sol.cost);
}

#[test]
fn means_objective_supported() {
    let mix = instance(600, 8, 233);
    let params = SubquadraticParams {
        means: true,
        ..Default::default()
    };
    let sol = subquadratic_median(&mix.points, 4, 8, params);
    assert!(sol.cost < 1e7, "means cost {}", sol.cost);
}

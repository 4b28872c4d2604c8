//! Property-based pins of the bulk kernel layer: every bulk hook must be
//! **output-equivalent** to the scalar loop it replaces, across all four
//! metric implementations, with or without worker threads.
//!
//! Exactness contract (see `dpc_metric::metric` docs):
//!
//! * Euclidean / Matrix / Truncated — bit-identical selected positions,
//!   tie-breaks, and distance values;
//! * Squared — identical positions and ties; values within 1e-9 relative
//!   (the bulk path skips the scalar `sqrt`-then-square round trip).
//!
//! Tie coverage matters: the strategies duplicate rows on purpose so the
//! first-wins rule is exercised by every pruned and tiled path.

use dpc_metric::*;
use proptest::prelude::*;

/// Points with deliberate duplicates (every row may be emitted twice) so
/// nearest-center ties actually occur.
fn arb_points_with_ties(max_n: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    (
        proptest::collection::vec(proptest::collection::vec(-1e4f64..1e4, dim..=dim), 2..max_n),
        proptest::collection::vec(any::<bool>(), max_n),
    )
        .prop_map(|(rows, dup)| {
            let mut all = Vec::new();
            for (i, r) in rows.into_iter().enumerate() {
                all.push(r.clone());
                if dup.get(i).copied().unwrap_or(false) {
                    all.push(r);
                }
            }
            PointSet::from_rows(&all)
        })
}

/// Scalar reference: the strict-`<` first-wins scan over `Metric::dist`.
fn scalar_nearest<M: Metric>(m: &M, i: usize, centers: &[usize]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (pos, &c) in centers.iter().enumerate() {
        let d = m.dist(i, c);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((pos, d));
        }
    }
    best.expect("non-empty centers")
}

/// Scalar reference for the two-slot nearest/second-nearest update.
fn scalar_top2<M: Metric>(m: &M, i: usize, centers: &[usize]) -> (usize, f64, f64) {
    let (c1, _, d1, d2) = scalar_top2c(m, i, centers);
    (c1, d1, d2)
}

/// Scalar reference for the two-slot update *with both positions*.
fn scalar_top2c<M: Metric>(m: &M, i: usize, centers: &[usize]) -> (usize, usize, f64, f64) {
    let (mut c1, mut c2, mut d1, mut d2) = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
    for (pos, &c) in centers.iter().enumerate() {
        let d = m.dist(i, c);
        if d < d1 {
            d2 = d1;
            c2 = c1;
            d1 = d;
            c1 = pos;
        } else if d < d2 {
            d2 = d;
            c2 = pos;
        }
    }
    (c1, c2, d1, d2)
}

/// Pins every bulk hook of `m` against the scalar loops. `exact` demands
/// bitwise equality of distances; otherwise 1e-9 relative.
fn check_metric<M: Metric>(m: &M, centers: &[usize], exact: bool) {
    let ids: Vec<usize> = (0..m.len()).collect();
    let close = |a: f64, b: f64| -> bool {
        if a == b {
            return true; // covers equal infinities (no second-nearest) too
        }
        !exact && (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    };

    for threads in [ThreadBudget::serial(), ThreadBudget::new(4)] {
        let assigner = NearestAssigner::with_threads(m, threads);

        // assign ≡ scalar nearest loop.
        let a = assigner.assign(&ids, centers);
        for (e, &i) in ids.iter().enumerate() {
            let (sp, sd) = scalar_nearest(m, i, centers);
            assert_eq!(a.pos[e], sp, "assign pos for id {} ({:?})", i, threads);
            assert!(
                close(a.dist[e], sd),
                "assign dist for id {}: bulk {} vs scalar {}",
                i,
                a.dist[e],
                sd
            );
        }

        // nearest_in agrees with the scalar scan too.
        for &i in &ids {
            let (bp, bd) = m.nearest_in(i, centers).expect("non-empty");
            let (sp, sd) = scalar_nearest(m, i, centers);
            assert_eq!(bp, sp);
            assert!(close(bd, sd), "nearest_in {} vs {}", bd, sd);
        }

        // assign2 ≡ scalar two-slot update.
        let a2 = assigner.assign2(&ids, centers);
        for (e, &i) in ids.iter().enumerate() {
            let (sc, s1, s2) = scalar_top2(m, i, centers);
            assert_eq!(a2.c1[e], sc, "assign2 winner for id {}", i);
            assert!(close(a2.d1[e], s1), "assign2 d1 {} vs {}", a2.d1[e], s1);
            assert!(close(a2.d2[e], s2), "assign2 d2 {} vs {}", a2.d2[e], s2);
        }

        // assign2c ≡ scalar two-slot update with positions.
        let a2c = assigner.assign2c(&ids, centers);
        for (e, &i) in ids.iter().enumerate() {
            let (sc1, sc2, s1, s2) = scalar_top2c(m, i, centers);
            assert_eq!(a2c.c1[e], sc1, "assign2c winner for id {}", i);
            if centers.len() > 1 {
                assert_eq!(a2c.c2[e], sc2, "assign2c runner-up for id {}", i);
            }
            assert!(close(a2c.d1[e], s1), "assign2c d1 {} vs {}", a2c.d1[e], s1);
            assert!(close(a2c.d2[e], s2), "assign2c d2 {} vs {}", a2c.d2[e], s2);
        }

        // dist_to_many ≡ scalar dist loop.
        let mut bulk = Vec::new();
        for &i in &ids {
            assigner.dists_from(i, centers, &mut bulk);
            for (o, &c) in bulk.iter().zip(centers) {
                let sd = m.dist(i, c);
                assert!(close(*o, sd), "dist_to_many {} vs {}", o, sd);
            }
        }

        // relax_min ≡ the scalar relax loop, from any starting state, with
        // and without the metric's norm bound (O(1) skips).
        for norms in [Vec::new(), m.relax_norms(&ids)] {
            let mut bulk_d: Vec<f64> = ids.iter().map(|&i| (i % 3) as f64 * 1e3).collect();
            bulk_d[0] = f64::INFINITY;
            let mut bulk_p = vec![0usize; ids.len()];
            let mut ref_d = bulk_d.clone();
            let mut ref_p = bulk_p.clone();
            for (mark, &c) in centers.iter().enumerate() {
                assigner.relax_min(c, &ids, &norms, &mut bulk_d, &mut bulk_p, mark);
                for (e, &i) in ids.iter().enumerate() {
                    let d = m.dist(i, c);
                    if d < ref_d[e] {
                        ref_d[e] = d;
                        ref_p[e] = mark;
                    }
                }
            }
            let bounded = !norms.is_empty();
            assert_eq!(&bulk_p, &ref_p, "relax_min marks (bounded {bounded})");
            if exact {
                assert_eq!(&bulk_d, &ref_d, "relax_min distances (bounded {bounded})");
            } else {
                for (a, b) in bulk_d.iter().zip(&ref_d) {
                    assert!(close(*a, *b), "relax_min {} vs {}", a, b);
                }
            }
        }

        // Outlier scoring on the bulk path ≡ the serial evaluation.
        let w = WeightedSet::unit(m.len());
        let serial = cost_excluding_outliers(m, &w, centers, 2.0, Objective::Median);
        let bulk_cost =
            cost_excluding_outliers_with(m, &w, centers, 2.0, Objective::Median, threads);
        if exact {
            assert_eq!(serial.cost, bulk_cost.cost);
            assert_eq!(&serial.assignment, &bulk_cost.assignment);
            assert_eq!(&serial.excluded, &bulk_cost.excluded);
        } else {
            assert!(close(bulk_cost.cost, serial.cost));
            assert_eq!(&serial.assignment, &bulk_cost.assignment);
        }
    }
}

/// Pins [`CenterBlock::assign`] over `ps.subset(center_ids)` against the
/// scalar [`CrossMetric::nearest`] scan, serial and threaded.
fn check_center_block(ps: &PointSet, center_ids: &[usize]) {
    let centers = ps.subset(center_ids);
    let block = CenterBlock::new(&centers);
    let x = CrossMetric::new(ps, &centers);
    let ids: Vec<usize> = (0..ps.len()).collect();
    for threads in [ThreadBudget::serial(), ThreadBudget::new(3)] {
        let a = block.assign(ps, &ids, threads);
        for q in 0..ps.len() {
            let (sp, sd) = x.nearest(q).expect("non-empty");
            assert_eq!(a.pos[q], sp, "query {q} ({threads:?})");
            assert_eq!(a.dist[q], sd, "query {q} ({threads:?})");
        }
    }
}

fn center_subset(n: usize, picks: &[usize]) -> Vec<usize> {
    let mut centers: Vec<usize> = picks.iter().map(|&ix| ix % n).collect();
    centers.dedup();
    if centers.is_empty() {
        centers.push(0);
    }
    centers
}

/// Pins [`Metric::dist_tile_into`] and [`Metric::sq_dist_tile_into`]
/// bit for bit against one [`Metric::dist_to_many_into`] /
/// [`Metric::sq_dist_to_many_into`] call per anchor.
fn check_tile<M: Metric>(m: &M, anchors: &[usize], ids: &[usize]) {
    let len = ids.len();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut tile = vec![f64::NAN; anchors.len() * len];
    let mut sq_tile = vec![f64::NAN; anchors.len() * len];
    m.dist_tile_into(anchors, ids, &mut tile);
    m.sq_dist_tile_into(anchors, ids, &mut sq_tile);
    let mut row = vec![0.0; len];
    for (j, &a) in anchors.iter().enumerate() {
        m.dist_to_many_into(a, ids, &mut row);
        assert_eq!(
            bits(&tile[j * len..(j + 1) * len]),
            bits(&row),
            "anchor {j}"
        );
        m.sq_dist_to_many_into(a, ids, &mut row);
        assert_eq!(
            bits(&sq_tile[j * len..(j + 1) * len]),
            bits(&row),
            "sq anchor {j}"
        );
    }
}

proptest! {
    #[test]
    fn dist_tile_equals_per_anchor_rows(
        dim_ix in 0usize..4,
        seed_rows in proptest::collection::vec(proptest::collection::vec(-1e4f64..1e4, 128), 1..12),
        dup in proptest::collection::vec(any::<bool>(), 12),
        anchor_picks in proptest::collection::vec(any::<usize>(), 0..20),
        id_picks in proptest::collection::vec(any::<usize>(), 0..30),
        tau in 0.0f64..5e3,
    ) {
        // Anchor counts from 0 past two tile widths (repeats allowed),
        // scattered ids with repeats, over every metric.
        let dim = [1usize, 3, 16, 128][dim_ix];
        let mut all = Vec::new();
        for (i, r) in seed_rows.iter().enumerate() {
            all.push(r[..dim].to_vec());
            if dup[i] {
                all.push(r[..dim].to_vec());
            }
        }
        let ps = PointSet::from_rows(&all);
        let n = ps.len();
        let anchors: Vec<usize> = anchor_picks.iter().map(|&a| a % n).collect();
        let ids: Vec<usize> = id_picks.iter().map(|&i| i % n).collect();
        let e = EuclideanMetric::new(&ps);
        check_tile(&e, &anchors, &ids);
        check_tile(&SquaredMetric::new(e), &anchors, &ids);
        check_tile(&&e, &anchors, &ids);
        check_tile(&TruncatedMetric::new(e, tau), &anchors, &ids);
        check_tile(&MatrixMetric::from_metric(&e), &anchors, &ids);
    }

    #[test]
    fn euclidean_bulk_equals_scalar(
        ps in arb_points_with_ties(10, 3),
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        let m = EuclideanMetric::new(&ps);
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, true);
    }

    #[test]
    fn euclidean_high_dim_bulk_equals_scalar(
        ps in arb_points_with_ties(6, 32),
        picks in proptest::collection::vec(any::<usize>(), 1..5),
    ) {
        // High-dimensional rows drive the LANES main loop (dim 32) rather
        // than just the remainder tail.
        let m = EuclideanMetric::new(&ps);
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, true);
    }

    #[test]
    fn squared_bulk_equals_scalar_within_ulps(
        ps in arb_points_with_ties(10, 3),
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        let m = SquaredMetric::new(EuclideanMetric::new(&ps));
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, false);
    }

    #[test]
    fn matrix_bulk_equals_scalar(
        ps in arb_points_with_ties(9, 2),
        picks in proptest::collection::vec(any::<usize>(), 1..5),
    ) {
        let e = EuclideanMetric::new(&ps);
        let m = MatrixMetric::from_metric(&e);
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, true);
    }

    #[test]
    fn truncated_bulk_equals_scalar(
        ps in arb_points_with_ties(9, 2),
        picks in proptest::collection::vec(any::<usize>(), 1..5),
        tau in 0.0f64..5e3,
    ) {
        // Truncation collapses everything within τ to distance 0 — the
        // metric whose ties are *structural*, not accidental. The scalar
        // first-wins rule must survive the bulk path.
        let m = TruncatedMetric::new(EuclideanMetric::new(&ps), tau);
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, true);
    }

    #[test]
    fn center_block_equals_cross_metric(
        ps in arb_points_with_ties(10, 4),
        picks in proptest::collection::vec(any::<usize>(), 1..5),
        band_dim in 5usize..=8,
        band_rows in proptest::collection::vec(proptest::collection::vec(-1e4f64..1e4, 8), 8..14),
        band_dup in proptest::collection::vec(any::<bool>(), 14),
        band_picks in proptest::collection::vec(any::<usize>(), 8..16),
    ) {
        // The coordinate-space kernel vs the scalar CrossMetric scan —
        // the final-evaluation path of every artifact. First a few
        // centers at dim 4, then eight or more at dims 5..=8, the shape
        // the tiled pass takes; duplicated rows and repeated picks make
        // coincident centers and exact ties.
        let center_ids = center_subset(ps.len(), &picks);
        check_center_block(&ps, &center_ids);

        let mut all = Vec::new();
        for (r, &dup) in band_rows.iter().zip(&band_dup) {
            all.push(r[..band_dim].to_vec());
            if dup {
                all.push(r[..band_dim].to_vec());
            }
        }
        let band = PointSet::from_rows(&all);
        let center_ids: Vec<usize> = band_picks.iter().map(|&p| p % band.len()).collect();
        check_center_block(&band, &center_ids);
    }

    #[test]
    fn euclidean_dims_bulk_equals_scalar(
        dim_ix in 0usize..6,
        seed_rows in proptest::collection::vec(proptest::collection::vec(-1e4f64..1e4, 128), 2..8),
        dup in proptest::collection::vec(any::<bool>(), 8),
        picks in proptest::collection::vec(any::<usize>(), 8..12),
    ) {
        // One sweep over the dims the kernels branch on: 2 (below the
        // tiled band), 4, 6 and 8 (tiled band), 32 and 128 (screened
        // partial-distance scans). Duplicated rows force ties; `picks`
        // can repeat, so coincident centers occur too.
        let dims = [2usize, 4, 6, 8, 32, 128];
        let dim = dims[dim_ix];
        let mut all = Vec::new();
        for (i, r) in seed_rows.iter().enumerate() {
            let row: Vec<f64> = r[..dim].to_vec();
            all.push(row.clone());
            if dup.get(i).copied().unwrap_or(false) {
                all.push(row);
            }
        }
        let ps = PointSet::from_rows(&all);
        let m = EuclideanMetric::new(&ps);
        let centers = center_subset(ps.len(), &picks);
        check_metric(&m, &centers, true);
    }

    #[test]
    fn bounded_assigner_matches_fresh_blocked_pass(
        ps in arb_points_with_ties(12, 3),
        picks in proptest::collection::vec(any::<usize>(), 1..6),
        shift in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        // A BoundedAssigner driven through drifting centers (Lloyd's
        // shape) must reproduce a fresh blocked pass bit for bit every
        // iteration, at every thread budget — including iterations where
        // the bounds certify most winners and skip the scan.
        let ids: Vec<usize> = (0..ps.len()).collect();
        let center_ids = center_subset(ps.len(), &picks);
        let base: Vec<Vec<f64>> =
            center_ids.iter().map(|&c| ps.point(c).to_vec()).collect();
        for threads in [ThreadBudget::serial(), ThreadBudget::new(4)] {
            let mut centers = base.clone();
            let mut bounded = BoundedAssigner::new();
            let mut out = Assignment::default();
            for iter in 0..4 {
                bounded.assign_sq(&ps, &ids, &centers, threads, &mut out);
                let block = CenterBlock::from_rows(ps.dim(), &centers);
                let fresh = block.assign_sq(&ps, &ids, threads);
                prop_assert_eq!(&out.pos, &fresh.pos, "iter {} {:?}", iter, threads);
                prop_assert_eq!(&out.dist, &fresh.dist, "iter {} {:?}", iter, threads);
                // Drift half the centers (iteration 1 drifts nothing at
                // all — the all-skip case); the rest stay coincident with
                // their previous position.
                for (ci, c) in centers.iter_mut().enumerate() {
                    if iter > 0 && ci % 2 == 0 {
                        for (x, s) in c.iter_mut().zip(&shift) {
                            *x += s * iter as f64 * 0.1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zorder_scan_order_is_invisible(
        ps in arb_points_with_ties(12, 4),
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        // Scanning queries in Morton order (and scattering back) must be
        // indistinguishable from the caller's order.
        let center_ids = center_subset(ps.len(), &picks);
        let centers = ps.subset(&center_ids);
        let block = CenterBlock::new(&centers);
        let ids: Vec<usize> = (0..ps.len()).collect();
        let order = zorder_permutation(&ps, &ids);
        for threads in [ThreadBudget::serial(), ThreadBudget::new(4)] {
            let plain = block.assign_sq(&ps, &ids, threads);
            let ordered = block.assign_sq_ordered(&ps, &ids, &order, threads);
            prop_assert_eq!(&plain.pos, &ordered.pos);
            prop_assert_eq!(&plain.dist, &ordered.dist);
        }
    }

    #[test]
    fn gonzalez_threads_do_not_change_output(
        ps in arb_points_with_ties(12, 3),
    ) {
        use dpc_metric::kernel::par_chunks_mut;
        // Chunked parallel fills equal one inline fill (par helper sanity).
        let mut serial_out = vec![0.0f64; ps.len()];
        let mut par_out = vec![0.0f64; ps.len()];
        let fill = |start: usize, chunk: &mut [f64]| {
            for (o, v) in chunk.iter_mut().enumerate() {
                *v = ps.point((start + o) % ps.len())[0];
            }
        };
        par_chunks_mut(ThreadBudget::serial(), &mut serial_out[..], fill);
        par_chunks_mut(ThreadBudget::new(4), &mut par_out[..], fill);
        prop_assert_eq!(serial_out, par_out);
    }
}

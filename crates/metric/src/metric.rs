//! The distance-oracle abstraction (the paper's `d(·,·)`).
//!
//! All clustering algorithms in this workspace are generic over [`Metric`],
//! which exposes distances between indexed points. Concrete implementations:
//!
//! * [`EuclideanMetric`] — `d(i,j) = ‖x_i − x_j‖₂` over a [`PointSet`];
//! * [`SquaredMetric`] — squares another metric, used for the `(k,t)`-means
//!   objective (note: only a *relaxed* triangle inequality holds, with
//!   factor 2, exactly as the paper's Lemma 3.2 / Corollary 2.2 exploit);
//! * [`MatrixMetric`] — an explicit distance matrix, used for arbitrary
//!   graphs/oracles (e.g. the compressed graph of Figure 1) and test
//!   fixtures;
//! * [`TruncatedMetric`](crate::truncated::TruncatedMetric) — the paper's
//!   `L_τ(x,y) = max{d(x,y) − τ, 0}` (Definition 5.7).

use crate::kernel::{nearest_row_pruned, top2_row_pruned};
use crate::points::{sq_dist, PointSet};

/// A (pseudo-)metric over `n` indexed points.
///
/// Implementations must be cheap to query and `Sync` so sites can evaluate
/// distances from worker threads. The trait deliberately does *not* require
/// the triangle inequality — `(k,t)`-means works with squared distances,
/// which satisfy only `d(x,z) ≤ 2(d(x,y) + d(y,z))`.
///
/// # Bulk kernels
///
/// Besides the one-pair [`Metric::dist`], the trait carries *bulk* hooks —
/// [`Metric::dist_to_many_into`], [`Metric::assign_block`] and friends —
/// with scalar-loop defaults. Implementations override them with blocked,
/// cache-friendly kernels; [`crate::NearestAssigner`] fans them across a
/// [`crate::ThreadBudget`]. Every bulk hook is contractually **output
/// equivalent** to its scalar default: the same selected positions (ties
/// included: first candidate wins under strict `<`) and the same distance
/// values bit for bit — protocol code whose wire bytes depend on either
/// may switch freely between the scalar and bulk forms. Two deliberate,
/// documented exceptions: [`SquaredMetric`]'s bulk squared kernels skip
/// the scalar path's `sqrt`-then-square round trip (values may differ by
/// ~1 ulp), and [`EuclideanMetric`] resolves winners in the *squared*
/// domain — equivalent to the root domain except in the rounding
/// collision where two distinct squared values round to the same square
/// root, in which case the squared comparison (the tighter one) decides.
/// `crates/metric/tests/proptest_kernels.rs` pins the contracts.
///
/// # Triangle bounds
///
/// [`Metric::triangle_lower_bound`] lets a caller prove `dist(a, b)` large
/// from two distances it already holds, without computing it. Only
/// metrics that satisfy the triangle inequality on the values they return
/// promise a bound: [`EuclideanMetric`] (the reverse triangle inequality)
/// and [`SquaredMetric`] (the square of its inner metric's bound on the
/// roots). [`MatrixMetric`] accepts any symmetric non-negative matrix, so
/// its entries need not obey the triangle inequality at all, and
/// [`TruncatedMetric`](crate::truncated::TruncatedMetric)'s
/// `max{d − τ, 0}` is not a metric (only a weak triangle inequality
/// holds); both keep the default `0.0`, which bounds nothing.
pub trait Metric: Sync {
    /// Number of points the oracle covers (valid indices are `0..len()`).
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// True when the oracle covers no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distances from `i` to each of `js`, written into `out` (which is
    /// resized to `js.len()`). The bulk form of a `dist` loop.
    fn dist_to_many(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.resize(js.len(), 0.0);
        self.dist_to_many_into(i, js, out);
    }

    /// Slice-filling core of [`Metric::dist_to_many`] (`out.len()` must
    /// equal `js.len()`); this is the hook blocked kernels override.
    fn dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        for (o, &j) in out.iter_mut().zip(js) {
            *o = self.dist(i, j);
        }
    }

    /// *Squared* distances from `i` to each of `js`. The default squares
    /// [`Metric::dist`]; metrics with a native squared form (Euclidean)
    /// override it to skip the root entirely, which is what lets
    /// [`SquaredMetric`] route the means objective over the squared
    /// kernel instead of squaring a square root.
    fn sq_dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        self.dist_to_many_into(i, js, out);
        for o in out.iter_mut() {
            *o *= *o;
        }
    }

    /// Distances from several anchors to one block of ids:
    /// `out[j · ids.len() + e] = dist(anchors[j], ids[e])` (`out.len()`
    /// must equal `anchors.len() · ids.len()`). The default runs
    /// [`Metric::dist_to_many_into`] once per anchor; overrides read each
    /// id once per tile of anchors and must match the default bit for bit.
    fn dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), anchors.len() * ids.len());
        if ids.is_empty() {
            return;
        }
        for (&a, row) in anchors.iter().zip(out.chunks_exact_mut(ids.len())) {
            self.dist_to_many_into(a, ids, row);
        }
    }

    /// *Squared* form of [`Metric::dist_tile_into`]; the default runs
    /// [`Metric::sq_dist_to_many_into`] once per anchor.
    fn sq_dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), anchors.len() * ids.len());
        if ids.is_empty() {
            return;
        }
        for (&a, row) in anchors.iter().zip(out.chunks_exact_mut(ids.len())) {
            self.sq_dist_to_many_into(a, ids, row);
        }
    }

    /// Distance from `i` to the nearest point in `centers`, together with
    /// the arg-min position *within the slice*; on ties the first
    /// candidate wins. Returns `None` on an empty slice.
    fn nearest_in(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &c) in centers.iter().enumerate() {
            let d = self.dist(i, c);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((pos, d));
            }
        }
        best
    }

    /// Historical alias of [`Metric::nearest_in`].
    fn nearest(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        self.nearest_in(i, centers)
    }

    /// Nearest-center positions and distances for a block of query ids
    /// (`pos.len() == dist.len() == ids.len()`, `centers` non-empty).
    /// Override with a blocked kernel; outputs must match the scalar
    /// [`Metric::nearest_in`] loop exactly.
    fn assign_block(&self, ids: &[usize], centers: &[usize], pos: &mut [usize], dist: &mut [f64]) {
        for ((p, d), &i) in pos.iter_mut().zip(dist.iter_mut()).zip(ids) {
            let (bp, bd) = self.nearest_in(i, centers).expect("non-empty centers");
            *p = bp;
            *d = bd;
        }
    }

    /// [`Metric::assign_block`] with *squared* distances (same winners —
    /// squaring is monotone on non-negative distances).
    fn assign_block_sq(
        &self,
        ids: &[usize],
        centers: &[usize],
        pos: &mut [usize],
        dist: &mut [f64],
    ) {
        self.assign_block(ids, centers, pos, dist);
        for d in dist.iter_mut() {
            *d *= *d;
        }
    }

    /// Relaxes per-query nearest state against one new candidate `c`:
    /// wherever `dist(id, c) < best_d`, the distance and `mark` are
    /// written. The farthest-first traversal's inner loop. `norms` is
    /// either empty (no norm bound) or [`Metric::relax_norms`] of `ids`.
    /// Overrides may skip queries provably unable to improve (the reverse
    /// triangle inequality `|‖x‖ − ‖c‖| ≤ d(x, c)` over `norms`, or a
    /// partial-distance abort); the resulting state is identical to the
    /// scalar loop either way.
    fn relax_min_block(
        &self,
        c: usize,
        ids: &[usize],
        _norms: &[f64],
        best_d: &mut [f64],
        best_pos: &mut [usize],
        mark: usize,
    ) {
        for ((bd, bp), &i) in best_d.iter_mut().zip(best_pos.iter_mut()).zip(ids) {
            let d = self.dist(i, c);
            if d < *bd {
                *bd = d;
                *bp = mark;
            }
        }
    }

    /// Nearest and second-nearest distances for a block of query ids —
    /// the local-search state. Matches the scalar two-slot update loop
    /// (`d < d1` shifts, `else d < d2` replaces) exactly.
    fn assign2_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        for (e, &i) in ids.iter().enumerate() {
            let (mut bc, mut b1, mut b2) = (0usize, f64::INFINITY, f64::INFINITY);
            for (pos, &c) in centers.iter().enumerate() {
                let d = self.dist(i, c);
                if d < b1 {
                    b2 = b1;
                    b1 = d;
                    bc = pos;
                } else if d < b2 {
                    b2 = d;
                }
            }
            c1[e] = bc;
            d1[e] = b1;
            d2[e] = b2;
        }
    }

    /// [`Metric::assign2_block`] that also reports the runner-up's
    /// *position* — the state incremental local search maintains across
    /// swaps. Both slots follow the scalar two-slot update (strict `<`,
    /// first candidate wins ties), so `(d1, c1)` and `(d2, c2)` are the
    /// two lexicographically smallest `(distance, position)` pairs.
    fn assign2c_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        c2: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        for (e, &i) in ids.iter().enumerate() {
            let (mut bc1, mut bc2, mut b1, mut b2) = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
            for (pos, &c) in centers.iter().enumerate() {
                let d = self.dist(i, c);
                if d < b1 {
                    b2 = b1;
                    bc2 = bc1;
                    b1 = d;
                    bc1 = pos;
                } else if d < b2 {
                    b2 = d;
                    bc2 = pos;
                }
            }
            c1[e] = bc1;
            c2[e] = bc2;
            d1[e] = b1;
            d2[e] = b2;
        }
    }

    /// Per-query norms supporting [`Metric::relax_min_block`]'s O(1) skip
    /// test. Empty (the default) means the metric has no such bound; the
    /// farthest-first traversal computes this once and amortizes it over
    /// every relax round.
    fn relax_norms(&self, _ids: &[usize]) -> Vec<f64> {
        Vec::new()
    }

    /// Lower bound on `dist(a, b)` from `d_ac = dist(a, c)` and
    /// `d_bc = dist(b, c)` for any third point `c`, in exact arithmetic:
    /// callers deflate it by a margin covering the rounding of their
    /// inputs. `0.0` (the default) means no bound.
    fn triangle_lower_bound(&self, _d_ac: f64, _d_bc: f64) -> f64 {
        0.0
    }
}

impl<M: Metric + ?Sized> Metric for &M {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
    fn dist_to_many(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        (**self).dist_to_many(i, js, out)
    }
    fn dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        (**self).dist_to_many_into(i, js, out)
    }
    fn sq_dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        (**self).sq_dist_to_many_into(i, js, out)
    }
    fn dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        (**self).dist_tile_into(anchors, ids, out)
    }
    fn sq_dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        (**self).sq_dist_tile_into(anchors, ids, out)
    }
    fn nearest_in(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        (**self).nearest_in(i, centers)
    }
    fn assign_block(&self, ids: &[usize], centers: &[usize], pos: &mut [usize], dist: &mut [f64]) {
        (**self).assign_block(ids, centers, pos, dist)
    }
    fn assign_block_sq(
        &self,
        ids: &[usize],
        centers: &[usize],
        pos: &mut [usize],
        dist: &mut [f64],
    ) {
        (**self).assign_block_sq(ids, centers, pos, dist)
    }
    fn relax_min_block(
        &self,
        c: usize,
        ids: &[usize],
        norms: &[f64],
        best_d: &mut [f64],
        best_pos: &mut [usize],
        mark: usize,
    ) {
        (**self).relax_min_block(c, ids, norms, best_d, best_pos, mark)
    }
    fn assign2_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        (**self).assign2_block(ids, centers, c1, d1, d2)
    }
    fn assign2c_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        c2: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        (**self).assign2c_block(ids, centers, c1, c2, d1, d2)
    }
    fn relax_norms(&self, ids: &[usize]) -> Vec<f64> {
        (**self).relax_norms(ids)
    }
    fn triangle_lower_bound(&self, d_ac: f64, d_bc: f64) -> f64 {
        (**self).triangle_lower_bound(d_ac, d_bc)
    }
}

/// Pruning break-even for the Euclidean relax kernel: at or below this
/// dimension a squared distance costs less than one abort stride, so the
/// partial-distance machinery cannot pay for itself and surviving queries
/// take the plain exact sum.
const RELAX_PRUNE_MIN_DIM: usize = 8;

/// Euclidean distance over a borrowed [`PointSet`].
#[derive(Clone, Copy, Debug)]
pub struct EuclideanMetric<'a> {
    points: &'a PointSet,
}

impl<'a> EuclideanMetric<'a> {
    /// Wraps a point set.
    pub fn new(points: &'a PointSet) -> Self {
        Self { points }
    }

    /// The underlying points.
    pub fn points(&self) -> &'a PointSet {
        self.points
    }
}

impl Metric for EuclideanMetric<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.points.dist(i, j)
    }

    fn dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        crate::kernel::sq_dists_scattered(self.points, self.points.point(i), js, out);
        for o in out.iter_mut() {
            *o = o.sqrt();
        }
    }

    fn sq_dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        // Native squared form: no root, no re-square.
        crate::kernel::sq_dists_scattered(self.points, self.points.point(i), js, out);
    }

    fn dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        crate::kernel::sq_dists_tiled(self.points, anchors, ids, out);
        for o in out.iter_mut() {
            *o = o.sqrt();
        }
    }

    fn sq_dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        crate::kernel::sq_dists_tiled(self.points, anchors, ids, out);
    }

    fn nearest_in(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        // Compare in the squared domain (same winner, same ties — the
        // root is monotone) and take one root at the end instead of one
        // per candidate.
        let x = self.points.point(i);
        let mut best: Option<(usize, f64)> = None;
        for (pos, &c) in centers.iter().enumerate() {
            let sq = sq_dist(x, self.points.point(c));
            if best.is_none_or(|(_, bd)| sq < bd) {
                best = Some((pos, sq));
            }
        }
        best.map(|(pos, sq)| (pos, sq.sqrt()))
    }

    fn assign_block(&self, ids: &[usize], centers: &[usize], pos: &mut [usize], dist: &mut [f64]) {
        self.assign_block_sq(ids, centers, pos, dist);
        for d in dist.iter_mut() {
            *d = d.sqrt();
        }
    }

    fn assign_block_sq(
        &self,
        ids: &[usize],
        centers: &[usize],
        pos: &mut [usize],
        dist: &mut [f64],
    ) {
        // Norm-bound and partial-distance pruning over the gathered
        // centers (see `nearest_row_pruned`), so ids and distances match
        // the scalar scan bit for bit. In the low-dimension band where
        // the partial-distance screen degenerates, the exact register-
        // blocked tile runs instead.
        let g = crate::kernel::gather_rows(self.points, centers);
        let dim = self.points.dim();
        // Discarded tally: the trait carries no recorder; bulk callers
        // count queries coarsely at the NearestAssigner layer instead.
        let mut stats = crate::kernel::ScanStats::default();
        if crate::kernel::tiled_engages(dim, centers.len()) {
            crate::kernel::assign_sq_tiled(self.points, ids, &g.rows, dim, pos, dist, &mut stats);
            return;
        }
        let mut screen = Vec::with_capacity(centers.len());
        for ((p, d), &i) in pos.iter_mut().zip(dist.iter_mut()).zip(ids) {
            let (bp, bsq) = nearest_row_pruned(
                self.points.point(i),
                &g.rows,
                &g.root_norms,
                dim,
                &mut screen,
                &mut stats,
            );
            *p = bp;
            *d = bsq;
        }
    }

    fn assign2_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        // Pruned two-slot update in the squared domain (equivalent
        // winners and runner-up — monotone transform), roots only on the
        // two outputs.
        let g = crate::kernel::gather_rows(self.points, centers);
        let dim = self.points.dim();
        let mut screen = Vec::with_capacity(centers.len());
        let mut stats = crate::kernel::ScanStats::default();
        for (e, &i) in ids.iter().enumerate() {
            let (bc, _, b1, b2) = top2_row_pruned(
                self.points.point(i),
                &g.rows,
                &g.root_norms,
                dim,
                &mut screen,
                &mut stats,
            );
            c1[e] = bc;
            d1[e] = b1.sqrt();
            d2[e] = b2.sqrt();
        }
    }

    fn assign2c_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        c2: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        let g = crate::kernel::gather_rows(self.points, centers);
        let dim = self.points.dim();
        let mut screen = Vec::with_capacity(centers.len());
        let mut stats = crate::kernel::ScanStats::default();
        for (e, &i) in ids.iter().enumerate() {
            let (bc1, bc2, b1, b2) = top2_row_pruned(
                self.points.point(i),
                &g.rows,
                &g.root_norms,
                dim,
                &mut screen,
                &mut stats,
            );
            c1[e] = bc1;
            c2[e] = bc2;
            d1[e] = b1.sqrt();
            d2[e] = b2.sqrt();
        }
    }

    fn relax_norms(&self, ids: &[usize]) -> Vec<f64> {
        ids.iter()
            .map(|&i| {
                let p = self.points.point(i);
                p.iter().map(|v| v * v).sum::<f64>().sqrt()
            })
            .collect()
    }

    fn relax_min_block(
        &self,
        c: usize,
        ids: &[usize],
        norms: &[f64],
        best_d: &mut [f64],
        best_pos: &mut [usize],
        mark: usize,
    ) {
        // Reverse triangle inequality: d(x, c) ≥ |‖x‖ − ‖c‖|. Deflated by
        // a margin that over-covers the norms' rounding error, the bound
        // certifies "cannot beat the incumbent" in O(1) per query. Above
        // one abort stride, survivors then run a partial-distance abort
        // against a conservatively inflated square of the incumbent. Both
        // skips leave exactly the state the scalar loop would keep.
        let row = self.points.point(c);
        let bounded = !norms.is_empty();
        let rc = if bounded {
            row.iter().map(|v| v * v).sum::<f64>().sqrt()
        } else {
            0.0
        };
        let prune = self.points.dim() > RELAX_PRUNE_MIN_DIM;
        let zipped = best_d.iter_mut().zip(best_pos.iter_mut()).zip(ids);
        for (e, ((bd, bp), &i)) in zipped.enumerate() {
            if bounded && (norms[e] - rc).abs() - 1e-9 * (norms[e] + rc) >= *bd {
                continue;
            }
            let x = self.points.point(i);
            let d = if prune && bd.is_finite() {
                let bb = *bd * *bd;
                match crate::kernel::resume_sq_abort(x, row, 0.0, 0, bb + bb * 1e-9) {
                    Some(sq) => sq.sqrt(),
                    None => continue,
                }
            } else {
                sq_dist(x, row).sqrt()
            };
            if d < *bd {
                *bd = d;
                *bp = mark;
            }
        }
    }

    /// The reverse triangle inequality `d(a, b) ≥ |d(a, c) − d(b, c)|`.
    #[inline]
    fn triangle_lower_bound(&self, d_ac: f64, d_bc: f64) -> f64 {
        (d_ac - d_bc).abs()
    }
}

/// Squares an inner metric; the distance function of the `(k,t)`-means
/// objective (`d²(p, K)` in Definition 1.1).
#[derive(Clone, Copy, Debug)]
pub struct SquaredMetric<M> {
    inner: M,
}

impl<M: Metric> SquaredMetric<M> {
    /// Wraps `inner`, returning `inner.dist(i,j)²` from [`Metric::dist`].
    pub fn new(inner: M) -> Self {
        Self { inner }
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Metric> Metric for SquaredMetric<M> {
    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        let d = self.inner.dist(i, j);
        d * d
    }

    fn dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        // Route straight through the inner metric's squared kernel: for a
        // Euclidean inner metric this skips the sqrt-then-re-square round
        // trip of the scalar path (values may differ from `dist` by ~1
        // ulp; winners and orderings are identical).
        self.inner.sq_dist_to_many_into(i, js, out);
    }

    fn dist_tile_into(&self, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
        // Same routing as `dist_to_many_into`, one tile at a time.
        self.inner.sq_dist_tile_into(anchors, ids, out);
    }

    fn nearest_in(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        // Squaring is monotone: the inner winner is this metric's winner.
        self.inner.nearest_in(i, centers).map(|(p, d)| (p, d * d))
    }

    fn assign_block(&self, ids: &[usize], centers: &[usize], pos: &mut [usize], dist: &mut [f64]) {
        self.inner.assign_block_sq(ids, centers, pos, dist);
    }

    fn assign2_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        self.inner.assign2_block(ids, centers, c1, d1, d2);
        for (a, b) in d1.iter_mut().zip(d2.iter_mut()) {
            *a *= *a;
            *b *= *b;
        }
    }

    fn assign2c_block(
        &self,
        ids: &[usize],
        centers: &[usize],
        c1: &mut [usize],
        c2: &mut [usize],
        d1: &mut [f64],
        d2: &mut [f64],
    ) {
        // Monotone squaring: the inner metric's two lex-smallest pairs
        // are this metric's two lex-smallest pairs.
        self.inner.assign2c_block(ids, centers, c1, c2, d1, d2);
        for (a, b) in d1.iter_mut().zip(d2.iter_mut()) {
            *a *= *a;
            *b *= *b;
        }
    }

    /// The inner metric's bound on the roots, squared: `d ≥ r ≥ 0` gives
    /// `d² ≥ r²`.
    #[inline]
    fn triangle_lower_bound(&self, d_ac: f64, d_bc: f64) -> f64 {
        let r = self.inner.triangle_lower_bound(d_ac.sqrt(), d_bc.sqrt());
        r * r
    }
}

/// An explicit symmetric distance matrix.
///
/// Used for arbitrary finite metrics: test fixtures, shortest-path metrics,
/// and the compressed graph of the uncertain-data reduction. Stores the full
/// `n × n` matrix for O(1) queries.
#[derive(Clone, Debug)]
pub struct MatrixMetric {
    n: usize,
    d: Vec<f64>,
}

impl MatrixMetric {
    /// Builds from a full row-major `n × n` matrix.
    ///
    /// # Panics
    /// Panics if the buffer is not `n²` long, the diagonal is non-zero, the
    /// matrix is asymmetric, or any entry is negative/NaN.
    pub fn from_matrix(n: usize, d: Vec<f64>) -> Self {
        assert_eq!(d.len(), n * n, "matrix buffer must be n^2 long");
        for i in 0..n {
            assert_eq!(d[i * n + i], 0.0, "diagonal must be zero");
            for j in 0..i {
                let a = d[i * n + j];
                let b = d[j * n + i];
                assert!(
                    a.is_finite() && a >= 0.0,
                    "distances must be finite and non-negative"
                );
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "matrix must be symmetric"
                );
            }
        }
        Self { n, d }
    }

    /// Materializes any metric into a matrix (O(n²) space/time).
    pub fn from_metric<M: Metric>(m: &M) -> Self {
        let n = m.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..i {
                let v = m.dist(i, j);
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        Self { n, d }
    }

    /// Builds by evaluating `f(i, j)` for every pair `j < i` and mirroring.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..i {
                let v = f(i, j);
                assert!(
                    v.is_finite() && v >= 0.0,
                    "distances must be finite and non-negative"
                );
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        Self { n, d }
    }
}

impl Metric for MatrixMetric {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }

    fn dist_to_many_into(&self, i: usize, js: &[usize], out: &mut [f64]) {
        // One contiguous row per query: gather within it.
        let row = &self.d[i * self.n..(i + 1) * self.n];
        for (o, &j) in out.iter_mut().zip(js) {
            *o = row[j];
        }
    }

    fn nearest_in(&self, i: usize, centers: &[usize]) -> Option<(usize, f64)> {
        let row = &self.d[i * self.n..(i + 1) * self.n];
        let mut best: Option<(usize, f64)> = None;
        for (pos, &c) in centers.iter().enumerate() {
            let d = row[c];
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((pos, d));
            }
        }
        best
    }
}

/// Distances between two *different* point sets (queries from one set,
/// candidate centers from another), used when the coordinator evaluates the
/// final solution against original data.
#[derive(Clone, Copy, Debug)]
pub struct CrossMetric<'a> {
    queries: &'a PointSet,
    centers: &'a PointSet,
}

impl<'a> CrossMetric<'a> {
    /// Builds the oracle; `dist(q, c)` is Euclidean between `queries[q]` and
    /// `centers[c]`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn new(queries: &'a PointSet, centers: &'a PointSet) -> Self {
        assert_eq!(queries.dim(), centers.dim(), "dimension mismatch");
        Self { queries, centers }
    }

    /// Distance between query `q` and center `c`.
    #[inline]
    pub fn dist(&self, q: usize, c: usize) -> f64 {
        self.queries.sq_dist_to(q, self.centers.point(c)).sqrt()
    }

    /// Nearest center for query `q`; `None` if `centers` is empty.
    pub fn nearest(&self, q: usize) -> Option<(usize, f64)> {
        (0..self.centers.len())
            .map(|c| (c, self.dist(q, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_points() -> PointSet {
        PointSet::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]])
    }

    #[test]
    fn euclidean_basics() {
        let ps = three_points();
        let m = EuclideanMetric::new(&ps);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dist(0, 1), 5.0);
        assert_eq!(m.dist(1, 2), 5.0);
        assert_eq!(m.dist(0, 2), 10.0);
        assert_eq!(m.dist(2, 2), 0.0);
    }

    #[test]
    fn squared_metric_squares() {
        let ps = three_points();
        let m = SquaredMetric::new(EuclideanMetric::new(&ps));
        assert_eq!(m.dist(0, 1), 25.0);
        assert_eq!(m.dist(0, 2), 100.0);
    }

    #[test]
    fn squared_relaxed_triangle() {
        // d²(0,2) ≤ 2 (d²(0,1) + d²(1,2)) — the relaxed triangle inequality
        // the means analysis relies on.
        let ps = three_points();
        let m = SquaredMetric::new(EuclideanMetric::new(&ps));
        assert!(m.dist(0, 2) <= 2.0 * (m.dist(0, 1) + m.dist(1, 2)));
    }

    #[test]
    fn nearest_picks_min() {
        let ps = three_points();
        let m = EuclideanMetric::new(&ps);
        let (pos, d) = m.nearest(0, &[2, 1]).unwrap();
        assert_eq!(pos, 1); // point 1 (slice position 1) at distance 5
        assert_eq!(d, 5.0);
        assert!(m.nearest(0, &[]).is_none());
    }

    #[test]
    fn matrix_roundtrip() {
        let ps = three_points();
        let e = EuclideanMetric::new(&ps);
        let m = MatrixMetric::from_metric(&e);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m.dist(i, j) - e.dist(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn matrix_rejects_asymmetry() {
        let _ = MatrixMetric::from_matrix(2, vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn cross_metric_nearest() {
        let q = PointSet::from_rows(&[vec![0.0, 0.0]]);
        let c = PointSet::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.5]]);
        let x = CrossMetric::new(&q, &c);
        let (idx, d) = x.nearest(0).unwrap();
        assert_eq!(idx, 1);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_bounds_never_exceed_the_computed_distance() {
        // Random dim-16 triples over several scales, half of them nearly
        // collinear (b on the segment or ray from a through c, jittered)
        // so the bound is tight and rounding decides. Deflated by the
        // margin the local search uses, the bound stays at or below the
        // distance the metric computes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for t in 0..400 {
            let scale = [1e-6, 1.0, 1e3, 1e8][t % 4];
            let a: Vec<f64> = (0..16).map(|_| scale * (next() - 0.5)).collect();
            let c: Vec<f64> = (0..16).map(|_| scale * (next() - 0.5)).collect();
            let s = 3.0 * next() - 1.0;
            let jitter = if t % 2 == 0 { 1e-12 } else { 0.3 };
            let b: Vec<f64> = a
                .iter()
                .zip(&c)
                .map(|(&x, &y)| x + s * (y - x) + jitter * scale * (next() - 0.5))
                .collect();
            rows.extend([a, b, c]);
        }
        let ps = PointSet::from_rows(&rows);
        let e = EuclideanMetric::new(&ps);
        let sq = SquaredMetric::new(e);
        fn check<M: Metric>(m: &M, triples: usize) {
            for t in 0..triples {
                let (a, b, c) = (3 * t, 3 * t + 1, 3 * t + 2);
                let (d_ac, d_bc) = (m.dist(a, c), m.dist(b, c));
                let lb = m.triangle_lower_bound(d_ac, d_bc);
                assert!(
                    lb - 1e-9 * (d_ac + d_bc) <= m.dist(a, b),
                    "bound {lb} over distance {} at triple {t}",
                    m.dist(a, b)
                );
            }
        }
        check(&e, 400);
        check(&sq, 400);
        // Neither matrix nor truncated distances promise a bound.
        let mm = MatrixMetric::from_fn(3, |i, j| (i * j + 1) as f64);
        let tr = crate::truncated::TruncatedMetric::new(e, 0.5);
        for _ in 0..100 {
            let (x, y) = (1e3 * next(), 1e3 * next());
            assert_eq!(mm.triangle_lower_bound(x, y), 0.0);
            assert_eq!(tr.triangle_lower_bound(x, y), 0.0);
        }
        let forwarded = <&EuclideanMetric as Metric>::triangle_lower_bound(&&e, 5.0, 2.0);
        assert_eq!(forwarded, 3.0);
        assert_eq!(sq.triangle_lower_bound(25.0, 4.0), 9.0);
    }

    #[test]
    fn from_fn_builds_symmetric() {
        let m = MatrixMetric::from_fn(3, |i, j| (i + j) as f64);
        assert_eq!(m.dist(2, 1), 3.0);
        assert_eq!(m.dist(1, 2), 3.0);
        assert_eq!(m.dist(0, 0), 0.0);
    }
}

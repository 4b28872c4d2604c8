//! Bulk distance kernels: batched, pruned, optionally threaded
//! nearest-center evaluation.
//!
//! Every solver in the workspace bottoms out in "distance from one point
//! to many candidates" — assignment steps, farthest-first relaxation,
//! swap-delta evaluation, outlier scoring. Evaluating those as one-pair
//! [`Metric::dist`] calls pays the full `O(d)` per-coordinate cost for
//! every candidate, including the overwhelming majority that lose by a
//! mile. The bulk layer restructures the loop around three levers:
//!
//! * **pruning** — [`EuclideanMetric`] assignment precomputes `‖c‖` per
//!   center once per block; `d(x,c) ≥ |‖x‖ − ‖c‖|` then rejects most
//!   losing candidates in O(1), and survivors run a partial-distance sum
//!   that aborts the moment it exceeds the incumbent. On clustered data
//!   this is where the order of magnitude comes from.
//! * **register-blocked tiles** — at small dimensions, where the
//!   partial-distance screen cannot pay for itself, [`TILE_Q`] queries
//!   march through every center row together in the exact `(x−c)²`
//!   form: the scalar loop verbatim, four lanes wide.
//! * **thread-level parallelism** — per-query results are independent, so
//!   chunks of queries fan out across a [`ThreadBudget`] with no change
//!   in any output value.
//!
//! The pruning rules are margin-deflated so floating-point error can
//! never discard a true winner, and every surviving comparison runs on
//! the exact [`sq_dist`] summation under the same strict-`<`, first-wins
//! rule as the scalar path — selected ids, tie-breaks, and distance
//! values are bit-identical to the scalar loop, so the bulk layer is
//! drop-in for protocol code whose wire bytes depend on either.
//!
//! [`EuclideanMetric`]: crate::EuclideanMetric

use crate::metric::Metric;
use crate::points::{sq_dist, PointSet};
use dpc_obs::{Counter, RecorderHandle};

/// How many independent candidate accumulators the blocked kernels
/// interleave. Four `f64` chains cover the FMA latency/throughput gap on
/// every mainstream core without spilling registers.
pub const LANES: usize = 4;

/// Queries per work unit when a kernel is split across threads. Small
/// enough to balance uneven chunks, large enough that the per-spawn cost
/// disappears.
const MIN_CHUNK: usize = 256;

/// An explicit cap on the threads a bulk kernel may use.
///
/// Kernels default to [`ThreadBudget::serial`] so library calls never
/// oversubscribe by surprise: a `Sweep::grid` already runs one job per
/// worker thread, and both transports run a shard's sites one at a time
/// on one thread per shard. Opt into intra-kernel parallelism where a
/// single job owns the machine (`Job::threads`, CLI `--threads`).
///
/// Threading never changes any output value: queries are split into
/// chunks, every per-query result is computed independently, and
/// reductions over queries stay on the calling thread in index order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadBudget(usize);

impl ThreadBudget {
    /// One thread: run on the caller, spawn nothing.
    pub fn serial() -> Self {
        Self(1)
    }

    /// Up to `n` threads (clamped to at least 1).
    pub fn new(n: usize) -> Self {
        Self(n.max(1))
    }

    /// One thread per available core.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The thread cap.
    pub fn get(self) -> usize {
        self.0
    }

    /// True when the budget admits no worker threads.
    pub fn is_serial(self) -> bool {
        self.0 <= 1
    }
}

impl Default for ThreadBudget {
    fn default() -> Self {
        Self::serial()
    }
}

/// Runs `work(start, out_chunk)` over disjoint chunks of `out`, in
/// parallel up to the budget. `out` is one mutable slice or a pair of
/// equally long split sets (`(pos, dist)`, `(state, (pos, dist))`, …),
/// all cut at the same offsets; `start` is the offset of the chunk within
/// `out`. Falls back to one inline call when the budget is serial or the
/// input is small. The building block for bulk passes whose per-element
/// results are independent (each chunk writes only its own slices, so
/// outputs are identical at any budget).
pub fn par_chunks_mut<S: split::SplitMut>(
    budget: ThreadBudget,
    out: S,
    work: impl Fn(usize, S) + Sync,
) {
    let n = out.len();
    let threads = budget.get().min(n.div_ceil(MIN_CHUNK)).max(1);
    if threads <= 1 {
        work(0, out);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let work = &work;
        let (mut rest, mut start) = (out, 0);
        while rest.len() > chunk {
            let (head, tail) = rest.split_at(chunk);
            scope.spawn(move || work(start, head));
            (rest, start) = (tail, start + chunk);
        }
        scope.spawn(move || work(start, rest));
    });
}

mod split {
    /// Output slices [`par_chunks_mut`](super::par_chunks_mut) can cut
    /// at one offset: a mutable slice, or a pair of equally long sets.
    pub trait SplitMut: Send + Sized {
        fn len(&self) -> usize;
        fn split_at(self, mid: usize) -> (Self, Self);
    }

    impl<T: Send> SplitMut for &mut [T] {
        fn len(&self) -> usize {
            <[T]>::len(self)
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            self.split_at_mut(mid)
        }
    }

    impl<A: SplitMut, B: SplitMut> SplitMut for (A, B) {
        fn len(&self) -> usize {
            debug_assert_eq!(self.0.len(), self.1.len());
            self.0.len()
        }
        fn split_at(self, mid: usize) -> (Self, Self) {
            let (a0, a1) = self.0.split_at(mid);
            let (b0, b1) = self.1.split_at(mid);
            ((a0, b0), (a1, b1))
        }
    }
}

/// A full point→center assignment: for each queried point, the position
/// (within the candidate slice) of its nearest center and the distance to
/// it, under the metric's own distance (squared for a squared metric).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assignment {
    /// Nearest-center position per query, into the candidate slice.
    pub pos: Vec<usize>,
    /// Distance to that center, per query.
    pub dist: Vec<f64>,
}

impl Assignment {
    /// An empty assignment to reuse across calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of assigned queries.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when nothing has been assigned.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// Nearest *and* second-nearest distances per query — the state the
/// single-swap local search maintains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assignment2 {
    /// Nearest-center position per query.
    pub c1: Vec<usize>,
    /// Distance to the nearest center.
    pub d1: Vec<f64>,
    /// Distance to the second-nearest center (`∞` with one candidate).
    pub d2: Vec<f64>,
}

/// [`Assignment2`] with *both* positions: nearest and second-nearest
/// center per query under `(dist, position)` lexicographic order. Knowing
/// the runner-up's position is what lets the local search update its
/// state incrementally after a swap — an entry whose top-2 does not
/// involve the swapped slot merges the one new distance instead of
/// rescanning every center.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Assignment2C {
    /// Nearest-center position per query.
    pub c1: Vec<usize>,
    /// Second-nearest-center position per query (0 with one candidate).
    pub c2: Vec<usize>,
    /// Distance to the nearest center.
    pub d1: Vec<f64>,
    /// Distance to the second-nearest center (`∞` with one candidate).
    pub d2: Vec<f64>,
}

impl Assignment2C {
    /// Number of assigned queries.
    pub fn len(&self) -> usize {
        self.c1.len()
    }

    /// True when nothing has been assigned.
    pub fn is_empty(&self) -> bool {
        self.c1.is_empty()
    }
}

/// Batched nearest-center evaluation over a [`Metric`].
///
/// Dispatches to the metric's blocked kernels ([`Metric::assign_block`]
/// and friends) chunk by chunk, fanning chunks across the thread budget.
/// All outputs — selected positions, tie-breaks, and distance values —
/// are identical to the scalar `metric.nearest(i, centers)` loop,
/// regardless of the budget.
#[derive(Clone, Copy, Debug)]
pub struct NearestAssigner<'a, M: Metric + ?Sized> {
    metric: &'a M,
    threads: ThreadBudget,
    recorder: Option<&'a RecorderHandle>,
}

impl<'a, M: Metric + ?Sized> NearestAssigner<'a, M> {
    /// A serial assigner (no worker threads).
    pub fn new(metric: &'a M) -> Self {
        Self {
            metric,
            threads: ThreadBudget::serial(),
            recorder: None,
        }
    }

    /// An assigner with an explicit thread budget.
    pub fn with_threads(metric: &'a M, threads: ThreadBudget) -> Self {
        Self {
            metric,
            threads,
            recorder: None,
        }
    }

    /// An assigner that flushes query/candidate counters to `recorder`
    /// (one amortized flush per bulk call — coarse counts, since generic
    /// metrics hide their pruning decisions behind the trait).
    pub fn with_recorder(
        metric: &'a M,
        threads: ThreadBudget,
        recorder: &'a RecorderHandle,
    ) -> Self {
        Self {
            metric,
            threads,
            recorder: Some(recorder),
        }
    }

    /// The thread budget in effect.
    pub fn threads(&self) -> ThreadBudget {
        self.threads
    }

    /// Flushes one bulk call's worth of coarse counters (`queries`
    /// queries over `candidates` candidates each).
    #[inline]
    fn tally(&self, queries: usize, candidates: usize) {
        if let Some(rec) = self.recorder {
            if rec.enabled() {
                rec.add(Counter::KernelQueries, queries as u64);
                rec.add(Counter::CandidatesScanned, (queries * candidates) as u64);
            }
        }
    }

    /// Assigns every id to its nearest candidate in `centers`.
    pub fn assign(&self, ids: &[usize], centers: &[usize]) -> Assignment {
        let mut out = Assignment::new();
        self.assign_into(ids, centers, &mut out);
        out
    }

    /// [`Self::assign`] into a reusable buffer.
    pub fn assign_into(&self, ids: &[usize], centers: &[usize], out: &mut Assignment) {
        assert!(!centers.is_empty(), "assign requires candidates");
        out.pos.clear();
        out.pos.resize(ids.len(), 0);
        out.dist.clear();
        out.dist.resize(ids.len(), 0.0);
        let metric = self.metric;
        let slices = (&mut out.pos[..], &mut out.dist[..]);
        par_chunks_mut(self.threads, slices, |start, (p, d)| {
            metric.assign_block(&ids[start..start + p.len()], centers, p, d);
        });
        self.tally(ids.len(), centers.len());
    }

    /// Like [`Self::assign`], but distances are the metric's *squared*
    /// distances (positions and ties are unchanged — squaring is monotone).
    pub fn assign_sq(&self, ids: &[usize], centers: &[usize]) -> Assignment {
        assert!(!centers.is_empty(), "assign requires candidates");
        let mut out = Assignment::new();
        out.pos.resize(ids.len(), 0);
        out.dist.resize(ids.len(), 0.0);
        let metric = self.metric;
        let slices = (&mut out.pos[..], &mut out.dist[..]);
        par_chunks_mut(self.threads, slices, |start, (p, d)| {
            metric.assign_block_sq(&ids[start..start + p.len()], centers, p, d);
        });
        self.tally(ids.len(), centers.len());
        out
    }

    /// Nearest and second-nearest per id — the local-search state update.
    pub fn assign2(&self, ids: &[usize], centers: &[usize]) -> Assignment2 {
        let mut out = Assignment2 {
            c1: vec![0; ids.len()],
            d1: vec![f64::INFINITY; ids.len()],
            d2: vec![f64::INFINITY; ids.len()],
        };
        if centers.is_empty() {
            return out;
        }
        self.tally(ids.len(), centers.len());
        let metric = self.metric;
        let slices = (&mut out.c1[..], (&mut out.d1[..], &mut out.d2[..]));
        par_chunks_mut(self.threads, slices, |start, (c1, (d1, d2))| {
            metric.assign2_block(&ids[start..start + c1.len()], centers, c1, d1, d2);
        });
        out
    }

    /// Like [`Self::assign2`], but reporting the second-nearest *position*
    /// too ([`Metric::assign2c_block`] per chunk) — the state the
    /// incremental local-search update maintains.
    pub fn assign2c(&self, ids: &[usize], centers: &[usize]) -> Assignment2C {
        let mut out = Assignment2C {
            c1: vec![0; ids.len()],
            c2: vec![0; ids.len()],
            d1: vec![f64::INFINITY; ids.len()],
            d2: vec![f64::INFINITY; ids.len()],
        };
        if centers.is_empty() {
            return out;
        }
        self.tally(ids.len(), centers.len());
        let metric = self.metric;
        let slices = (
            (&mut out.c1[..], &mut out.c2[..]),
            (&mut out.d1[..], &mut out.d2[..]),
        );
        par_chunks_mut(self.threads, slices, |start, ((c1, c2), (d1, d2))| {
            metric.assign2c_block(&ids[start..start + c1.len()], centers, c1, c2, d1, d2);
        });
        out
    }

    /// Distances from one anchor to every id, in id order — the bulk form
    /// of the farthest-first relax step and the swap-delta inner loop.
    pub fn dists_from(&self, from: usize, ids: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        let metric = self.metric;
        par_chunks_mut(self.threads, &mut out[..], |start, d| {
            metric.dist_to_many_into(from, &ids[start..start + d.len()], d);
        });
        self.tally(ids.len(), 1);
    }

    /// Squared-distance variant of [`Self::dists_from`].
    pub fn sq_dists_from(&self, from: usize, ids: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        let metric = self.metric;
        par_chunks_mut(self.threads, &mut out[..], |start, d| {
            metric.sq_dist_to_many_into(from, &ids[start..start + d.len()], d);
        });
        self.tally(ids.len(), 1);
    }

    /// Relaxes nearest-candidate state against a new candidate `c` in
    /// bulk ([`Metric::relax_min_block`] per chunk): wherever
    /// `dist(id, c) < best_d`, writes the distance and `mark`. The
    /// farthest-first traversal's inner loop. `norms` holds per-query
    /// root norms from [`Metric::relax_norms`] (`norms[e] = ‖x_{ids[e]}‖`),
    /// or is empty for a metric with no norm bound. State is identical to
    /// the scalar relax loop either way.
    pub fn relax_min(
        &self,
        c: usize,
        ids: &[usize],
        norms: &[f64],
        best_d: &mut [f64],
        best_pos: &mut [usize],
        mark: usize,
    ) {
        debug_assert!(norms.is_empty() || norms.len() == ids.len());
        let metric = self.metric;
        par_chunks_mut(self.threads, (best_d, best_pos), |start, (bd, bp)| {
            let range = start..start + bd.len();
            let nchunk = if norms.is_empty() {
                norms
            } else {
                &norms[range.clone()]
            };
            metric.relax_min_block(c, &ids[range], nchunk, bd, bp, mark);
        });
        self.tally(ids.len(), 1);
    }
}

// ---------------------------------------------------------------------------
// Flat Euclidean kernels shared by EuclideanMetric and CenterBlock.
// ---------------------------------------------------------------------------

/// Exact per-pair squared distances from one query row to `LANES`-blocked
/// candidate rows in a gathered `k × dim` buffer. Each pair keeps the
/// scalar summation order; blocking only interleaves independent pairs.
pub(crate) fn sq_dists_row(x: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    debug_assert_eq!(rows.len(), dim * out.len());
    let k = out.len();
    let mut c = 0;
    while c + LANES <= k {
        let base = c * dim;
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (d, &xd) in x.iter().enumerate() {
            let e0 = xd - rows[base + d];
            let e1 = xd - rows[base + dim + d];
            let e2 = xd - rows[base + 2 * dim + d];
            let e3 = xd - rows[base + 3 * dim + d];
            a0 += e0 * e0;
            a1 += e1 * e1;
            a2 += e2 * e2;
            a3 += e3 * e3;
        }
        out[c] = a0;
        out[c + 1] = a1;
        out[c + 2] = a2;
        out[c + 3] = a3;
        c += LANES;
    }
    while c < k {
        out[c] = sq_dist(x, &rows[c * dim..(c + 1) * dim]);
        c += 1;
    }
}

/// Exact per-pair squared distances from the coordinate row `x` to the
/// scattered rows `js` of `points`, `LANES` pairs in flight. Per-pair
/// summation order matches [`sq_dist`] exactly.
pub(crate) fn sq_dists_scattered(points: &PointSet, x: &[f64], js: &[usize], out: &mut [f64]) {
    debug_assert_eq!(js.len(), out.len());
    let k = js.len();
    let mut c = 0;
    while c + LANES <= k {
        let r0 = points.point(js[c]);
        let r1 = points.point(js[c + 1]);
        let r2 = points.point(js[c + 2]);
        let r3 = points.point(js[c + 3]);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (d, &xd) in x.iter().enumerate() {
            let e0 = xd - r0[d];
            let e1 = xd - r1[d];
            let e2 = xd - r2[d];
            let e3 = xd - r3[d];
            a0 += e0 * e0;
            a1 += e1 * e1;
            a2 += e2 * e2;
            a3 += e3 * e3;
        }
        out[c] = a0;
        out[c + 1] = a1;
        out[c + 2] = a2;
        out[c + 3] = a3;
        c += LANES;
    }
    while c < k {
        out[c] = sq_dist(x, points.point(js[c]));
        c += 1;
    }
}

/// Anchors per tile of [`Metric::dist_tile_into`]'s Euclidean kernel, and
/// swap candidates per tile of the local search's scoring pass: eight
/// `f64` accumulators side by side are four independent add chains of
/// baseline x86-64 (SSE2) vectors, enough to cover the add latency.
pub const DIST_TILE: usize = 8;

/// Work floor, in entry × candidate pairs, below which the local search
/// scores a swap iteration's candidate tiles on the calling thread: one
/// `thread::scope` per iteration costs more than the tiles it would
/// share out. Calibrated on the `swap_delta` rows of `BENCH_kernels.json`
/// (2-vCPU host, 48 candidates): at n = 300 (14 400 pairs) two threads
/// lose to serial tiles at dims 4–32; at n = 2048 (98 304 pairs) they
/// are 1.2–1.6x faster, and ~1.9x at n = 16 384. Re-checked once the
/// triangle bound skipped about two thirds of those pairs and the serial
/// pass got 2–3x cheaper: a sweep at dims 4–32 still had threads ahead
/// from 98 304 pairs up.
pub const TILE_PAR_MIN_PAIRS: usize = 65_536;

/// Exact squared distances from several anchors to scattered ids:
/// `out[j · ids.len() + e] = ‖anchors[j] − ids[e]‖²`. The anchors are
/// gathered [`DIST_TILE`] at a time into a structure-of-arrays tile (one
/// lane array per coordinate), so each id's row is read once per tile.
/// Every pair sums `(anchor − row)²` in dimension order from `0.0`, the
/// operand order of [`sq_dists_scattered`], so values match it bit for bit.
pub(crate) fn sq_dists_tiled(points: &PointSet, anchors: &[usize], ids: &[usize], out: &mut [f64]) {
    debug_assert_eq!(out.len(), anchors.len() * ids.len());
    let len = ids.len();
    let mut tile = vec![[0.0f64; DIST_TILE]; points.dim()];
    for (t, group) in anchors.chunks(DIST_TILE).enumerate() {
        for (j, &a) in group.iter().enumerate() {
            for (lane, &v) in tile.iter_mut().zip(points.point(a)) {
                lane[j] = v;
            }
        }
        let rows = &mut out[t * DIST_TILE * len..(t * DIST_TILE + group.len()) * len];
        for (e, &i) in ids.iter().enumerate() {
            let mut acc = [0.0f64; DIST_TILE];
            for (lane, &r) in tile.iter().zip(points.point(i)) {
                for (a, &x) in acc.iter_mut().zip(lane) {
                    let d = x - r;
                    *a += d * d;
                }
            }
            for (j, &a) in acc.iter().take(group.len()).enumerate() {
                rows[j * len + e] = a;
            }
        }
    }
}

/// The gathered, norm-annotated candidate rows the pruned kernels scan:
/// contiguous row-major coordinates plus the precomputed norms `‖c‖`
/// behind the O(1) lower bound.
pub(crate) struct GatheredRows {
    pub rows: Vec<f64>,
    pub root_norms: Vec<f64>,
}

/// Gathers the listed rows of `points` (the center-side precomputation of
/// the pruned kernels).
pub(crate) fn gather_rows(points: &PointSet, ids: &[usize]) -> GatheredRows {
    let dim = points.dim();
    let mut rows = Vec::with_capacity(ids.len() * dim);
    let mut root_norms = Vec::with_capacity(ids.len());
    for &i in ids {
        let r = points.point(i);
        rows.extend_from_slice(r);
        root_norms.push(r.iter().map(|&v| v * v).sum::<f64>().sqrt());
    }
    GatheredRows { rows, root_norms }
}

/// Dot product with interleaved accumulators — used only for the
/// *approximate* `‖x‖` behind the margin-deflated norm bound, so
/// reassociating the sum is fine (exact decisions always go back through
/// [`sq_dist`]).
fn dot_approx(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut d = 0;
    while d + LANES <= n {
        acc[0] += a[d] * b[d];
        acc[1] += a[d + 1] * b[d + 1];
        acc[2] += a[d + 2] * b[d + 2];
        acc[3] += a[d + 3] * b[d + 3];
        d += LANES;
    }
    let mut tail = 0.0;
    while d < n {
        tail += a[d] * b[d];
        d += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Safety margin for the O(1) norm bound: the bound must beat the
/// incumbent by this relative factor before a candidate is skipped.
/// Floating-point error in `‖x‖` / `‖c‖` is a few ulps; the 1e-9 margin
/// over-covers it by orders of magnitude, so the bound can never discard
/// a true winner.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Leading coordinates used by the candidate-ordering screen. Two
/// coordinates are enough to separate real cluster structure and keep the
/// screen pass at ~half the cost of a four-wide one.
const SCREEN_DIMS: usize = 2;

/// Coordinates accumulated between abort checks of a partial sum.
const ABORT_STRIDE: usize = 8;

/// Resumes the canonical [`sq_dist`] accumulation of `x` vs `row` from
/// `acc` at coordinate `start`, aborting once the partial sum strictly
/// exceeds `limit`. Partial sums of squares are monotone, so an abort
/// proves the full sum exceeds `limit` — **exactly**, no tolerance.
/// A completed sum is bit-identical to [`sq_dist`] (same single
/// accumulator, same coordinate order).
#[inline]
pub(crate) fn resume_sq_abort(
    x: &[f64],
    row: &[f64],
    mut acc: f64,
    start: usize,
    limit: f64,
) -> Option<f64> {
    let n = x.len();
    debug_assert_eq!(row.len(), n);
    let mut d = start;
    while d < n {
        let stop = (d + ABORT_STRIDE).min(n);
        while d < stop {
            let e = x[d] - row[d];
            acc += e * e;
            d += 1;
        }
        if acc > limit {
            return None;
        }
    }
    Some(acc)
}

/// Local tally of pruning effectiveness for one batch of pruned-kernel
/// queries. Call sites accumulate into a plain stack value and flush the
/// totals to a recorder once per batch (never per candidate), keeping
/// the disabled-recorder path free of any shared-state traffic.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ScanStats {
    /// Candidate centers considered (k per query).
    pub scanned: u64,
    /// Candidates whose exact sum ran to completion; the rest were
    /// pruned by an O(1) bound or a partial-distance abort.
    pub completed: u64,
    /// Exact candidate scores produced by the register-blocked tile
    /// ([`assign_sq_tiled`]: rows × centers pushed through the tiles).
    pub tiled: u64,
    /// Queries whose full candidate scan was skipped outright because
    /// maintained triangle-inequality bounds already proved the winner.
    pub bound_skips: u64,
}

impl ScanStats {
    /// Flushes `queries` queries' worth of tallies to `rec` if it is
    /// enabled (one branch on the disabled path).
    #[inline]
    pub fn flush(self, rec: &RecorderHandle, queries: u64) {
        if rec.enabled() {
            rec.add(Counter::KernelQueries, queries);
            rec.add(Counter::CandidatesScanned, self.scanned);
            rec.add(
                Counter::CandidatesPruned,
                self.scanned.saturating_sub(self.completed),
            );
            if self.tiled > 0 {
                rec.add(Counter::TileScores, self.tiled);
            }
            if self.bound_skips > 0 {
                rec.add(Counter::BoundSkips, self.bound_skips);
            }
        }
    }
}

/// Finds the nearest candidate row to `x` with partial-distance search.
///
/// The scan is restructured around three exact-safe filters, cheapest
/// first:
///
/// 1. **screen + best-first probe** — the first [`SCREEN_DIMS`] terms of
///    every candidate's (canonical-order) squared sum are computed up
///    front; the candidate with the smallest screen is evaluated first,
///    which makes the incumbent tight almost immediately. Screens are
///    partial sums, so any candidate whose screen already exceeds the
///    incumbent is rejected in O(1).
/// 2. **norm bound** — `d²(x,c) ≥ (‖x‖ − ‖c‖)²` from the precomputed
///    center norms (the Cauchy–Schwarz estimate of the
///    `‖x‖² + ‖c‖² − 2·x·c` form) rejects a candidate in O(1).
/// 3. **partial-distance abort** — survivors resume their exact sum from
///    the screen prefix and bail the moment the partial sum exceeds the
///    incumbent ([`resume_sq_abort`]).
///
/// Winners are compared as `(sq, position)` lexicographically, which
/// reproduces the scalar strict-`<` first-wins rule under *any* visit
/// order — the returned `(pos, exact_sq)` is bit-identical to the scalar
/// scan at any data distribution; pruning only changes how much work
/// losing candidates cost.
pub(crate) fn nearest_row_pruned(
    x: &[f64],
    rows: &[f64],
    root_norms: &[f64],
    dim: usize,
    screen: &mut Vec<f64>,
    stats: &mut ScanStats,
) -> (usize, f64) {
    let k = root_norms.len();
    debug_assert!(k > 0);
    stats.scanned += k as u64;
    // Tiny rows or candidate sets: the screen/abort machinery cannot pay
    // for itself below one abort stride — the plain exact scan wins.
    if dim <= ABORT_STRIDE || k <= 2 {
        stats.completed += k as u64;
        let mut best = (0usize, f64::INFINITY);
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            let sq = sq_dist(x, row);
            if sq < best.1 {
                best = (c, sq);
            }
        }
        return best;
    }
    let (probe, _) = fill_screen(x, rows, dim, k, screen);

    // Probe the screen-minimal candidate first: a tight incumbent makes
    // the O(1) screen test reject almost everything else.
    let mut best_pos = probe;
    let mut best_sq = resume_sq_abort(
        x,
        &rows[probe * dim..(probe + 1) * dim],
        screen[probe],
        SCREEN_DIMS,
        f64::INFINITY,
    )
    .expect("infinite limit never aborts");
    stats.completed += 1;

    // The probe is done: poison its screen so the main scan's single
    // comparison skips it along with everything else that lost.
    screen[probe] = f64::INFINITY;
    // `‖x‖` backs the norm bound but costs O(dim); compute it only if
    // some candidate actually survives the screen test.
    let mut sx = f64::NAN;
    for (c, &prefix) in screen.iter().enumerate() {
        if prefix > best_sq {
            continue;
        }
        if sx.is_nan() {
            sx = dot_approx(x, x).sqrt();
        }
        let diff = sx - root_norms[c];
        if diff * diff * PRUNE_MARGIN > best_sq {
            continue;
        }
        let row = &rows[c * dim..(c + 1) * dim];
        if let Some(sq) = resume_sq_abort(x, row, prefix, SCREEN_DIMS, best_sq) {
            stats.completed += 1;
            if sq < best_sq || (sq == best_sq && c < best_pos) {
                best_sq = sq;
                best_pos = c;
            }
        }
    }
    (best_pos, best_sq)
}

/// Computes the [`SCREEN_DIMS`]-coordinate prefix of every candidate's
/// canonical squared sum, returning the positions of the smallest and
/// second-smallest screens.
#[inline]
fn fill_screen(
    x: &[f64],
    rows: &[f64],
    dim: usize,
    k: usize,
    screen: &mut Vec<f64>,
) -> (usize, usize) {
    screen.clear();
    screen.resize(k, 0.0);
    // Unrolled canonical prefix: the additions run in the exact order
    // `sq_dist` uses, so a screen is resumable into the full exact sum.
    let (x0, x1) = (x[0], x[1]);
    let (mut min1, mut min2) = (0usize, 0usize);
    let (mut v1, mut v2) = (f64::INFINITY, f64::INFINITY);
    for (c, (sc, row)) in screen.iter_mut().zip(rows.chunks_exact(dim)).enumerate() {
        let r = &row[..SCREEN_DIMS];
        let e0 = x0 - r[0];
        let e1 = x1 - r[1];
        let mut acc = e0 * e0;
        acc += e1 * e1;
        *sc = acc;
        if acc < v1 {
            v2 = v1;
            min2 = min1;
            v1 = acc;
            min1 = c;
        } else if acc < v2 {
            v2 = acc;
            min2 = c;
        }
    }
    (min1, min2)
}

/// Top-2 variant of [`nearest_row_pruned`]: candidates are pruned against
/// the *second*-nearest incumbent (they must beat it to affect either
/// slot); both slots update under `(sq, position)` lexicographic order,
/// which is visit-order independent — the winner is the lex-least pair
/// and the runner-up the lex-least among the rest — so winner, runner-up,
/// both positions, and all tie-breaks match the scalar position-order
/// loop exactly. Returns `(c1, c2, sq1, sq2)`.
pub(crate) fn top2_row_pruned(
    x: &[f64],
    rows: &[f64],
    root_norms: &[f64],
    dim: usize,
    screen: &mut Vec<f64>,
    stats: &mut ScanStats,
) -> (usize, usize, f64, f64) {
    let k = root_norms.len();
    debug_assert!(k > 0);
    stats.scanned += k as u64;
    let two_slot =
        |c1: &mut usize, c2: &mut usize, b1: &mut f64, b2: &mut f64, c: usize, sq: f64| {
            if sq < *b1 || (sq == *b1 && c < *c1) {
                *b2 = *b1;
                *c2 = *c1;
                *b1 = sq;
                *c1 = c;
            } else if sq < *b2 || (sq == *b2 && c < *c2) {
                *b2 = sq;
                *c2 = c;
            }
        };
    let (mut c1, mut c2, mut b1, mut b2) = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
    if dim <= ABORT_STRIDE || k <= 2 {
        stats.completed += k as u64;
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            let sq = sq_dist(x, row);
            two_slot(&mut c1, &mut c2, &mut b1, &mut b2, c, sq);
        }
        return (c1, c2, b1, b2);
    }
    let (probe1, probe2) = fill_screen(x, rows, dim, k, screen);
    for probe in [probe1, probe2] {
        let sq = resume_sq_abort(
            x,
            &rows[probe * dim..(probe + 1) * dim],
            screen[probe],
            SCREEN_DIMS,
            f64::INFINITY,
        )
        .expect("infinite limit never aborts");
        stats.completed += 1;
        two_slot(&mut c1, &mut c2, &mut b1, &mut b2, probe, sq);
    }
    screen[probe1] = f64::INFINITY;
    screen[probe2] = f64::INFINITY;
    let mut sx = f64::NAN;
    for (c, &prefix) in screen.iter().enumerate() {
        if prefix > b2 {
            continue;
        }
        if sx.is_nan() {
            sx = dot_approx(x, x).sqrt();
        }
        let diff = sx - root_norms[c];
        if diff * diff * PRUNE_MARGIN > b2 {
            continue;
        }
        let row = &rows[c * dim..(c + 1) * dim];
        if let Some(sq) = resume_sq_abort(x, row, prefix, SCREEN_DIMS, b2) {
            stats.completed += 1;
            two_slot(&mut c1, &mut c2, &mut b1, &mut b2, c, sq);
        }
    }
    (c1, c2, b1, b2)
}

// ---------------------------------------------------------------------------
// Register-blocked tile assignment.
// ---------------------------------------------------------------------------

/// Query rows one register-blocked tile carries through the candidate
/// block. Four queries reuse every center row four times from registers,
/// and the four accumulators form one contiguous lane vector the compiler
/// can keep in SIMD registers.
pub const TILE_Q: usize = 4;

/// Smallest candidate count at which the tiled pass engages: below it
/// the query transpose cannot amortize.
const TILE_MIN_K: usize = 8;

/// Whether the register-blocked tile beats the screened partial-distance
/// scan for this shape. At and below [`ABORT_STRIDE`] coordinates the
/// screen/abort machinery cannot pay for itself (the per-query scan is a
/// plain exact loop), while the tile turns the same work into `TILE_Q`
/// register-blocked rows per center. Above it, the screened scan touches
/// only a handful of coordinates per losing candidate, which no amount
/// of vectorized full-row work can undercut.
#[inline]
pub(crate) fn tiled_engages(dim: usize, k: usize) -> bool {
    dim > 2 && dim <= ABORT_STRIDE && k >= TILE_MIN_K
}

/// Exact register-blocked nearest-center assignment over gathered
/// candidate rows: [`TILE_Q`] query lanes march through every candidate
/// row accumulating `(x−c)²` in the canonical left-to-right coordinate
/// order, so each lane's arithmetic is *identical* to the scalar
/// [`sq_dist`] loop and outputs (positions, exact squared distances,
/// tie-breaks) are bit-exact by construction. The four independent
/// accumulator chains supply the instruction-level parallelism the
/// one-query-at-a-time scalar loop lacks, and each center row is loaded
/// once per tile.
pub(crate) fn assign_sq_tiled(
    points: &PointSet,
    ids: &[usize],
    rows: &[f64],
    dim: usize,
    pos: &mut [usize],
    dist: &mut [f64],
    stats: &mut ScanStats,
) {
    let k = rows.len() / dim;
    let n = ids.len();
    debug_assert_eq!(pos.len(), n);
    debug_assert_eq!(dist.len(), n);
    let mut xt = vec![0.0f64; dim * TILE_Q];
    let mut q = 0usize;
    while q < n {
        let tq = TILE_Q.min(n - q);
        for t in 0..TILE_Q {
            // Short tails repeat the tile's first query: the lanes stay
            // full and the duplicate outputs are simply not read back.
            let x = points.point(ids[q + t.min(tq - 1)]);
            for (d, &xv) in x.iter().enumerate() {
                xt[d * TILE_Q + t] = xv;
            }
        }
        let mut best = [f64::INFINITY; TILE_Q];
        let mut bpos = [0usize; TILE_Q];
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            let mut acc = [0.0f64; TILE_Q];
            for (xv, &rv) in xt.chunks_exact(TILE_Q).zip(row) {
                let d0 = xv[0] - rv;
                let d1 = xv[1] - rv;
                let d2 = xv[2] - rv;
                let d3 = xv[3] - rv;
                acc[0] += d0 * d0;
                acc[1] += d1 * d1;
                acc[2] += d2 * d2;
                acc[3] += d3 * d3;
            }
            for (t, &a) in acc.iter().enumerate() {
                // Strict `<` keeps the earliest candidate on ties: the
                // scalar scan's `(sq, position)` lexicographic rule.
                if a < best[t] {
                    best[t] = a;
                    bpos[t] = c;
                }
            }
        }
        stats.scanned += (tq * k) as u64;
        stats.completed += (tq * k) as u64;
        stats.tiled += (tq * k) as u64;
        pos[q..q + tq].copy_from_slice(&bpos[..tq]);
        dist[q..q + tq].copy_from_slice(&best[..tq]);
        q += tq;
    }
}

/// A gathered block of center coordinates with precomputed norms: the
/// coordinate-space form of nearest-center assignment, for callers whose
/// centers are not rows of the query set (Lloyd centroids, coordinator
/// evaluation).
pub struct CenterBlock {
    dim: usize,
    rows: Vec<f64>,
    root_norms: Vec<f64>,
    recorder: RecorderHandle,
}

impl CenterBlock {
    /// Gathers all points of `centers`.
    pub fn new(centers: &PointSet) -> Self {
        Self::from_flat(centers.dim(), centers.as_flat().to_vec())
    }

    /// Gathers the given rows of `points`.
    pub fn from_points(points: &PointSet, ids: &[usize]) -> Self {
        let dim = points.dim();
        let mut rows = Vec::with_capacity(ids.len() * dim);
        for &i in ids {
            rows.extend_from_slice(points.point(i));
        }
        Self::from_flat(dim, rows)
    }

    /// Gathers explicit coordinate rows.
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Self {
        let mut flat = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "center row dimension mismatch");
            flat.extend_from_slice(r);
        }
        Self::from_flat(dim, flat)
    }

    fn from_flat(dim: usize, rows: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            rows.len().is_multiple_of(dim),
            "flat center buffer length mismatch"
        );
        let root_norms: Vec<f64> = rows
            .chunks_exact(dim)
            .map(|r| r.iter().map(|&v| v * v).sum::<f64>().sqrt())
            .collect();
        Self {
            dim,
            rows,
            root_norms,
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches a recorder: the block's pruned scans flush *exact*
    /// query/scan/prune counters to it, one flush per query batch.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Number of centers in the block.
    pub fn len(&self) -> usize {
        self.root_norms.len()
    }

    /// True when the block holds no centers.
    pub fn is_empty(&self) -> bool {
        self.root_norms.is_empty()
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Nearest center to one coordinate row: `(position, exact squared
    /// distance)`, from the screened partial-distance scan
    /// (`nearest_row_pruned`).
    ///
    /// # Panics
    /// Panics when the block is empty.
    pub fn nearest_sq(&self, coords: &[f64]) -> (usize, f64) {
        assert!(!self.is_empty(), "nearest over an empty center block");
        let mut screen = Vec::with_capacity(self.len());
        let mut stats = ScanStats::default();
        let best = nearest_row_pruned(
            coords,
            &self.rows,
            &self.root_norms,
            self.dim,
            &mut screen,
            &mut stats,
        );
        stats.flush(&self.recorder, 1);
        best
    }

    /// Assigns the given rows of `points` to their nearest centers;
    /// distances are Euclidean (`sqrt` of the exact squared distance, so
    /// values match the scalar path bit for bit).
    pub fn assign(&self, points: &PointSet, ids: &[usize], threads: ThreadBudget) -> Assignment {
        let mut out = self.assign_sq(points, ids, threads);
        for d in &mut out.dist {
            *d = d.sqrt();
        }
        out
    }

    /// Assigns the given rows of `points` to their nearest centers with
    /// exact *squared* distances (the means/Lloyd form — no square roots
    /// anywhere on the path).
    ///
    /// Dispatches per shape: low-dimensional blocks (where the screened
    /// partial-distance scan cannot pay for itself) run the register-
    /// blocked tile pass (`assign_sq_tiled`); everything else runs the
    /// screened scan. Either way the outputs are bit-identical to the
    /// scalar loop.
    pub fn assign_sq(&self, points: &PointSet, ids: &[usize], threads: ThreadBudget) -> Assignment {
        assert!(!self.is_empty(), "assign over an empty center block");
        assert_eq!(points.dim(), self.dim, "dimension mismatch");
        let mut out = Assignment::new();
        out.pos.resize(ids.len(), 0);
        out.dist.resize(ids.len(), 0.0);
        let tiled = tiled_engages(self.dim, self.len());
        let slices = (&mut out.pos[..], &mut out.dist[..]);
        par_chunks_mut(threads, slices, |start, (pos, dist)| {
            let mut stats = ScanStats::default();
            if tiled {
                let ids = &ids[start..start + pos.len()];
                assign_sq_tiled(points, ids, &self.rows, self.dim, pos, dist, &mut stats);
            } else {
                let mut screen = Vec::with_capacity(self.len());
                for (o, (p, d)) in pos.iter_mut().zip(dist.iter_mut()).enumerate() {
                    let x = points.point(ids[start + o]);
                    let (bp, bd) = nearest_row_pruned(
                        x,
                        &self.rows,
                        &self.root_norms,
                        self.dim,
                        &mut screen,
                        &mut stats,
                    );
                    *p = bp;
                    *d = bd;
                }
            }
            // One flush per chunk: the collector's counters are atomics,
            // so concurrent chunk flushes stay exact.
            stats.flush(&self.recorder, pos.len() as u64);
        });
        out
    }

    /// [`Self::assign_sq`] scanning the queries in the given order (a
    /// permutation of `0..ids.len()`), with results scattered back to
    /// the original slots. Per-query results are independent, so the
    /// output is identical to [`Self::assign_sq`] for *any* permutation;
    /// a locality-preserving order
    /// ([`zorder_permutation`](crate::layout::zorder_permutation)) keeps
    /// spatial neighbors adjacent in the scan, which makes the pruning
    /// incumbents and branch behavior coherent when `ids` is scattered.
    pub fn assign_sq_ordered(
        &self,
        points: &PointSet,
        ids: &[usize],
        order: &[usize],
        threads: ThreadBudget,
    ) -> Assignment {
        assert_eq!(order.len(), ids.len(), "order must permute the queries");
        let permuted: Vec<usize> = order.iter().map(|&s| ids[s]).collect();
        let inner = self.assign_sq(points, &permuted, threads);
        let mut out = Assignment::new();
        out.pos.resize(ids.len(), 0);
        out.dist.resize(ids.len(), 0.0);
        for (s, &e) in order.iter().enumerate() {
            out.pos[e] = inner.pos[s];
            out.dist[e] = inner.dist[s];
        }
        out
    }

    /// Exact squared distances from one coordinate row to every center, in
    /// center order, using the blocked exact kernel (safe for
    /// accumulation into costs).
    pub fn sq_dists_to_all(&self, coords: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len(), 0.0);
        sq_dists_row(coords, &self.rows, self.dim, out);
    }
}

// ---------------------------------------------------------------------------
// Triangle-inequality bounds for iterative callers (Hamerly-style).
// ---------------------------------------------------------------------------

/// Inflation applied to computed center drifts and the skip test's upper
/// side. Bound maintenance accrues at most a few ulps of rounding per
/// iteration; a 1e-9 relative margin over-covers fifty iterations of it
/// by four orders of magnitude, so a skip can never hide a true winner —
/// and exact ties can never skip (the test demands strict margin-wide
/// domination), so tie-breaks are preserved.
const BOUND_INFLATE: f64 = 1.0 + 1e-9;

/// Deflation applied to the skip test's lower side (see
/// [`BOUND_INFLATE`]).
const BOUND_DEFLATE: f64 = 1.0 - 1e-9;

/// Per-query bound state of a [`BoundedAssigner`], kept in scan order.
#[derive(Clone, Copy, Debug)]
struct BoundState {
    /// Lower bound on the distance to every center *other than* the
    /// assigned one (root domain, conservatively deflated).
    lower: f64,
    /// Assigned center position (into the caller's center list).
    assigned: usize,
}

/// Nearest-center assignment for *iterative* callers (Lloyd): per-query
/// triangle-inequality bounds let iterations after the first skip the
/// full candidate scan for most queries.
///
/// The assigner keeps, per query, the assigned center and a lower bound
/// `l` on the distance to every other center. When the centers move, `l`
/// shrinks by the largest center drift; the exact distance `u` to the
/// (moved) assigned center is recomputed — the output needs it anyway —
/// and whenever `u < l` holds with margin to spare, no other center can
/// possibly have won: the query pays for **one** distance instead of
/// `k`. Queries whose bound cannot certify the winner fall back to the
/// screened top-2 scan, which also refreshes their bounds.
///
/// Outputs are bit-identical to a fresh [`CenterBlock::assign_sq`] per
/// iteration at any thread budget: skips fire only on strict
/// margin-separated domination (never on ties), and every emitted
/// distance is the canonical [`sq_dist`] sum. Queries are scanned in
/// Morton/Z-order over a privately gathered copy of the coordinates
/// (contiguous and locality-sorted — the cache-aware layout pass), with
/// results scattered back to original slots.
///
/// The query set (`points`, `ids`) must stay fixed across calls; the
/// state re-initializes when `ids` or the center count changes.
pub struct BoundedAssigner {
    dim: usize,
    n: usize,
    /// Ids of the previous call (detects query-set changes).
    ids: Vec<usize>,
    /// Scan position → entry index (Z-order permutation of the queries).
    order: Vec<usize>,
    /// Query rows gathered in scan order.
    qrows: Vec<f64>,
    /// Per-query bounds, in scan order.
    state: Vec<BoundState>,
    /// Centers of the previous call (drift reference).
    prev: Option<CenterBlock>,
    /// Scan-order results, scattered to output slots after each pass.
    perm_pos: Vec<usize>,
    perm_dist: Vec<f64>,
    recorder: RecorderHandle,
}

impl BoundedAssigner {
    /// A fresh assigner with no recorder.
    pub fn new() -> Self {
        Self::with_recorder(RecorderHandle::noop())
    }

    /// A fresh assigner flushing exact scan/skip counters to `recorder`
    /// (one flush per query chunk per call).
    pub fn with_recorder(recorder: RecorderHandle) -> Self {
        Self {
            dim: 0,
            n: 0,
            ids: Vec::new(),
            order: Vec::new(),
            qrows: Vec::new(),
            state: Vec::new(),
            prev: None,
            perm_pos: Vec::new(),
            perm_dist: Vec::new(),
            recorder,
        }
    }

    /// Assigns every id to its nearest center with exact squared
    /// distances, reusing bounds from the previous call when the center
    /// list has merely drifted. `centers` is the current center
    /// coordinates (row per center; positions must stay stable across
    /// calls for the bounds to apply — Lloyd's centroid list is).
    pub fn assign_sq(
        &mut self,
        points: &PointSet,
        ids: &[usize],
        centers: &[Vec<f64>],
        threads: ThreadBudget,
        out: &mut Assignment,
    ) {
        assert!(!centers.is_empty(), "assign requires candidates");
        let dim = points.dim();
        let k = centers.len();
        let n = ids.len();
        out.pos.clear();
        out.pos.resize(n, 0);
        out.dist.clear();
        out.dist.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let block = CenterBlock::from_rows(dim, centers);
        let fresh = match &self.prev {
            Some(prev) => prev.len() != k || self.dim != dim || self.n != n || self.ids != ids,
            None => true,
        };
        if fresh {
            self.init(points, ids, dim);
            self.full_pass(&block, threads);
        } else {
            self.bounded_pass(&block, threads);
        }
        for (s, &e) in self.order.iter().enumerate() {
            out.pos[e] = self.perm_pos[s];
            out.dist[e] = self.perm_dist[s];
        }
        self.prev = Some(block);
    }

    /// Gathers the query rows in Z-order and resets the bound state.
    fn init(&mut self, points: &PointSet, ids: &[usize], dim: usize) {
        let n = ids.len();
        self.dim = dim;
        self.n = n;
        self.ids = ids.to_vec();
        self.order = crate::layout::zorder_permutation(points, ids);
        self.qrows.clear();
        self.qrows.reserve(n * dim);
        for &e in &self.order {
            self.qrows.extend_from_slice(points.point(ids[e]));
        }
        self.state.clear();
        self.state.resize(
            n,
            BoundState {
                lower: 0.0,
                assigned: 0,
            },
        );
        self.perm_pos.clear();
        self.perm_pos.resize(n, 0);
        self.perm_dist.clear();
        self.perm_dist.resize(n, 0.0);
    }

    /// Full screened top-2 scan for every query: seeds the bounds.
    fn full_pass(&mut self, block: &CenterBlock, threads: ThreadBudget) {
        let dim = self.dim;
        let qrows = &self.qrows;
        let rec = &self.recorder;
        let slices = (
            &mut self.state[..],
            (&mut self.perm_pos[..], &mut self.perm_dist[..]),
        );
        par_chunks_mut(threads, slices, |start, (st, (pos, dist))| {
            let mut screen = Vec::with_capacity(block.len());
            let mut stats = ScanStats::default();
            for (o, ((s, p), d)) in st
                .iter_mut()
                .zip(pos.iter_mut())
                .zip(dist.iter_mut())
                .enumerate()
            {
                let x = &qrows[(start + o) * dim..(start + o + 1) * dim];
                let (c1, _c2, b1, b2) = top2_row_pruned(
                    x,
                    &block.rows,
                    &block.root_norms,
                    dim,
                    &mut screen,
                    &mut stats,
                );
                s.assigned = c1;
                s.lower = b2.sqrt();
                *p = c1;
                *d = b1;
            }
            stats.flush(rec, pos.len() as u64);
        });
    }

    /// Drift-updated pass: certify-or-rescan per query.
    fn bounded_pass(&mut self, block: &CenterBlock, threads: ThreadBudget) {
        let dim = self.dim;
        let prev = self
            .prev
            .as_ref()
            .expect("bounded pass follows a full pass");
        // Per-center drift ‖c_new − c_old‖, conservatively inflated; the
        // lower bound on "every other center" shrinks by the largest.
        let drift: Vec<f64> = prev
            .rows
            .chunks_exact(dim)
            .zip(block.rows.chunks_exact(dim))
            .map(|(a, b)| sq_dist(a, b).sqrt() * BOUND_INFLATE)
            .collect();
        let max_drift = drift.iter().cloned().fold(0.0f64, f64::max);
        let qrows = &self.qrows;
        let rec = &self.recorder;
        let slices = (
            &mut self.state[..],
            (&mut self.perm_pos[..], &mut self.perm_dist[..]),
        );
        par_chunks_mut(threads, slices, |start, (st, (pos, dist))| {
            let mut screen = Vec::with_capacity(block.len());
            let mut stats = ScanStats::default();
            for (o, ((s, p), d)) in st
                .iter_mut()
                .zip(pos.iter_mut())
                .zip(dist.iter_mut())
                .enumerate()
            {
                let x = &qrows[(start + o) * dim..(start + o + 1) * dim];
                let a = s.assigned;
                let l = (s.lower - max_drift).max(0.0);
                // The output contract needs the exact distance to the
                // winner regardless, so tighten the upper bound with
                // it and test once: one canonical sum instead of k.
                let row = &block.rows[a * dim..(a + 1) * dim];
                let sq_a = resume_sq_abort(x, row, 0.0, 0, f64::INFINITY)
                    .expect("infinite limit never aborts");
                let u = sq_a.sqrt();
                if u * BOUND_INFLATE < l * BOUND_DEFLATE {
                    // Margin-certified: no other center can have won,
                    // and the margin rules out exact ties entirely.
                    s.lower = l;
                    stats.scanned += 1;
                    stats.completed += 1;
                    stats.bound_skips += 1;
                    *p = a;
                    *d = sq_a;
                } else {
                    let (c1, _c2, b1, b2) = top2_row_pruned(
                        x,
                        &block.rows,
                        &block.root_norms,
                        dim,
                        &mut screen,
                        &mut stats,
                    );
                    s.assigned = c1;
                    s.lower = b2.sqrt();
                    *p = c1;
                    *d = b1;
                }
            }
            stats.flush(rec, pos.len() as u64);
        });
    }
}

impl Default for BoundedAssigner {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact squared distances from every listed point to one coordinate row,
/// fanned across the thread budget. Values are bit-identical to
/// `points.sq_dist_to(id, coords)` per entry.
pub fn sq_dists_to_coords(
    points: &PointSet,
    ids: &[usize],
    coords: &[f64],
    out: &mut Vec<f64>,
    threads: ThreadBudget,
) {
    out.clear();
    out.resize(ids.len(), 0.0);
    par_chunks_mut(threads, &mut out[..], |start, chunk| {
        for (o, d) in chunk.iter_mut().enumerate() {
            *d = crate::points::sq_dist(points.point(ids[start + o]), coords);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::EuclideanMetric;

    fn ps(rows: &[Vec<f64>]) -> PointSet {
        PointSet::from_rows(rows)
    }

    #[test]
    fn thread_budget_basics() {
        assert_eq!(ThreadBudget::serial().get(), 1);
        assert!(ThreadBudget::serial().is_serial());
        assert_eq!(ThreadBudget::new(0).get(), 1);
        assert!(ThreadBudget::available().get() >= 1);
        assert_eq!(ThreadBudget::default(), ThreadBudget::serial());
    }

    #[test]
    fn sq_dists_row_matches_scalar_at_every_k() {
        // Exercise the LANES main loop and the remainder tail.
        let x = vec![1.0, -2.0, 0.5];
        for k in 1..=9usize {
            let rows: Vec<f64> = (0..k * 3).map(|i| (i as f64) * 0.37 - 1.0).collect();
            let mut out = vec![0.0; k];
            sq_dists_row(&x, &rows, 3, &mut out);
            for c in 0..k {
                let exact = sq_dist(&x, &rows[c * 3..(c + 1) * 3]);
                assert_eq!(out[c], exact, "k={k} c={c}");
            }
        }
    }

    #[test]
    fn nearest_row_pruned_matches_scalar_scan_with_ties() {
        // Duplicated candidate rows force exact ties; the pruned scan
        // must still pick the first, like the scalar strict-< scan.
        let rows = vec![
            5.0, 5.0, // far
            1.0, 0.0, // tie A
            1.0, 0.0, // tie B (identical)
            3.0, 4.0,
        ];
        let root_norms: Vec<f64> = rows
            .chunks(2)
            .map(|r| f64::sqrt(r[0] * r[0] + r[1] * r[1]))
            .collect();
        let mut screen = Vec::new();
        let mut stats = ScanStats::default();
        let (pos, sq) =
            nearest_row_pruned(&[0.0, 0.0], &rows, &root_norms, 2, &mut screen, &mut stats);
        assert_eq!(pos, 1, "first of the tied pair must win");
        assert_eq!(sq, 1.0);
        assert_eq!(stats.scanned, 4);

        let (c1, c2, d1, d2) =
            top2_row_pruned(&[0.0, 0.0], &rows, &root_norms, 2, &mut screen, &mut stats);
        assert_eq!(c1, 1);
        assert_eq!(c2, 2); // the duplicate row is the runner-up
        assert_eq!(d1, 1.0);
        assert_eq!(d2, 1.0);
    }

    #[test]
    fn center_block_assign_matches_scalar() {
        let centers = ps(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]]);
        let queries = ps(&[
            vec![1.0, 1.0],
            vec![9.0, 1.0],
            vec![-2.0, 8.0],
            vec![5.0, 5.0],
        ]);
        let block = CenterBlock::new(&centers);
        let ids: Vec<usize> = (0..queries.len()).collect();
        for threads in [ThreadBudget::serial(), ThreadBudget::new(4)] {
            let a = block.assign(&queries, &ids, threads);
            for (q, (&p, &d)) in a.pos.iter().zip(&a.dist).enumerate() {
                let (sp, sd) = (0..centers.len())
                    .map(|c| (c, queries.sq_dist_to(q, centers.point(c)).sqrt()))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                assert_eq!(p, sp, "query {q}");
                assert_eq!(d, sd, "query {q}");
            }
        }
    }

    #[test]
    fn assigner_matches_metric_nearest() {
        let points = ps(&[
            vec![0.0, 0.0],
            vec![1.0, 2.0],
            vec![8.0, 1.0],
            vec![4.0, 4.0],
            vec![-3.0, 2.0],
        ]);
        let m = EuclideanMetric::new(&points);
        let ids: Vec<usize> = (0..points.len()).collect();
        let centers = [2usize, 0];
        let a = NearestAssigner::new(&m).assign(&ids, &centers);
        for (e, &i) in ids.iter().enumerate() {
            let (sp, sd) = m.nearest(i, &centers).unwrap();
            assert_eq!(a.pos[e], sp);
            assert_eq!(a.dist[e], sd);
        }
    }

    #[test]
    fn recorders_receive_kernel_counters() {
        use dpc_obs::Collector;
        use std::sync::Arc;

        // Exact counters through CenterBlock: 8 queries × 3 candidates.
        let centers = ps(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]]);
        let queries = ps(&(0..8).map(|i| vec![i as f64, 1.0]).collect::<Vec<_>>());
        let ids: Vec<usize> = (0..queries.len()).collect();
        let collector = Arc::new(Collector::new());
        let block = CenterBlock::new(&centers).with_recorder(collector.handle());
        let plain = CenterBlock::new(&centers);
        let a = block.assign_sq(&queries, &ids, ThreadBudget::serial());
        // Recording never changes any output value.
        assert_eq!(a, plain.assign_sq(&queries, &ids, ThreadBudget::serial()));
        let t = collector.snapshot();
        assert_eq!(t.counters[Counter::KernelQueries.index()], 8);
        assert_eq!(t.counters[Counter::CandidatesScanned.index()], 24);
        assert!(t.counters[Counter::CandidatesPruned.index()] <= 24);

        // Coarse counters through the generic assigner.
        let m = EuclideanMetric::new(&queries);
        let collector = Arc::new(Collector::new());
        let handle = collector.handle();
        let assigner = NearestAssigner::with_recorder(&m, ThreadBudget::serial(), &handle);
        assigner.assign(&ids, &[0, 4]);
        let t = collector.snapshot();
        assert_eq!(t.counters[Counter::KernelQueries.index()], 8);
        assert_eq!(t.counters[Counter::CandidatesScanned.index()], 16);
    }

    #[test]
    fn sq_dists_to_coords_matches_pointwise() {
        let points = ps(&[vec![0.0], vec![2.0], vec![-1.0]]);
        let mut out = Vec::new();
        sq_dists_to_coords(&points, &[2, 0, 1], &[1.0], &mut out, ThreadBudget::new(3));
        assert_eq!(out, vec![4.0, 1.0, 1.0]);
    }
}

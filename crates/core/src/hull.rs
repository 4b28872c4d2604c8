//! Per-site cost profiles and their lower convex hulls (Algorithm 1, lines
//! 2–5).
//!
//! Each site evaluates its local solution cost at the geometrically spaced
//! outlier counts `I = {⌊ρ^r⌋ : 1 ≤ r ≤ ⌊log_ρ t⌋} ∪ {0, t}` and takes the
//! *lower convex hull* of the `O(log t)` points `{(q, C_sol(A_i, 2k, q))}`.
//! The hull induces a convex, non-increasing piecewise-linear function
//! `f_i : {0,…,t} → R` whose marginals `ℓ(i,q) = f_i(q−1) − f_i(q)` are
//! non-increasing in `q` — exactly what the exchange argument of Lemma 3.3
//! needs. Raw cost profiles are *not* convex in general (the paper's key
//! observation), but the hull is within the grid's approximation factor of
//! them.

use bytes::Bytes;
use dpc_codec::Encoding;
use dpc_metric::{WireReader, WireWriter};

/// The geometric grid `I` for outlier counts: `{⌊ρ^r⌋} ∪ {0, t}`, sorted and
/// deduplicated. `|I| = O(log_ρ t)`.
///
/// # Panics
/// Panics unless `rho > 1`.
pub fn geometric_grid(t: usize, rho: f64) -> Vec<usize> {
    assert!(rho > 1.0, "grid ratio must exceed 1");
    let mut grid = vec![0usize];
    if t > 0 {
        let mut x = 1.0f64;
        loop {
            let q = x.floor() as usize;
            if q >= t {
                break;
            }
            if q >= 1 {
                grid.push(q);
            }
            x *= rho;
        }
        grid.push(t);
    }
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// A convex, non-increasing piecewise-linear function on `{0, …, t}` given
/// by its hull vertices.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexProfile {
    /// Vertex x-coordinates (strictly increasing; first is 0).
    qs: Vec<usize>,
    /// Vertex values (non-increasing).
    fs: Vec<f64>,
}

impl ConvexProfile {
    /// Computes the lower convex hull of a cost profile.
    ///
    /// `points` are `(q, cost)` pairs with strictly increasing `q`, the
    /// first being `q = 0`. Costs need not be monotone (local solvers are
    /// heuristics); the hull of the *running minimum* is taken so the
    /// result is non-increasing, which only tightens the function.
    ///
    /// # Panics
    /// Panics if `points` is empty, `q`s are not strictly increasing, or
    /// the first `q` is non-zero.
    pub fn lower_hull(points: &[(usize, f64)]) -> Self {
        assert!(!points.is_empty(), "profile needs at least one point");
        assert_eq!(points[0].0, 0, "profile must start at q = 0");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "q values must be strictly increasing");
        }
        // Enforce monotone non-increasing costs (running minimum): ignoring
        // more points can never cost more, so any increase is solver noise.
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        let mut run_min = f64::INFINITY;
        for &(q, c) in points {
            run_min = run_min.min(c);
            pts.push((q as f64, run_min));
        }
        // Andrew's monotone chain, lower hull only.
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for &p in &pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep b only if it is strictly below segment a–p.
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        ConvexProfile {
            qs: hull.iter().map(|&(q, _)| q as usize).collect(),
            fs: hull.iter().map(|&(_, f)| f).collect(),
        }
    }

    /// Algorithm 2's cumulative insertion-radius profile: `F(q) =
    /// Σ_{q<r≤t} ℓ(r)` with marginal `ℓ(r) = radii[skip + r − 1]` (0 once
    /// the radii run out), sampled on the geometric grid `I` for `(t, ρ)`
    /// and hulled. `radii` are Gonzalez insertion radii, non-increasing,
    /// and `skip` is the number of selections kept as centers, so `ℓ(r)`
    /// is the radius of the `(skip + r)`-th selection.
    pub fn cumulative_radii(radii: &[f64], skip: usize, t: usize, rho: f64) -> Self {
        let mut cum = vec![0.0f64; t + 1];
        for q in (0..t).rev() {
            cum[q] = cum[q + 1] + radii.get(skip + q).copied().unwrap_or(0.0);
        }
        let pts: Vec<(usize, f64)> = geometric_grid(t, rho.max(1.0 + 1e-9))
            .into_iter()
            .map(|q| (q, cum[q]))
            .collect();
        Self::lower_hull(&pts)
    }

    /// Largest point of the domain (`t`).
    pub fn max_q(&self) -> usize {
        *self.qs.last().expect("non-empty hull")
    }

    /// Hull vertices `(q, f(q))`.
    pub fn vertices(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.qs.iter().copied().zip(self.fs.iter().copied())
    }

    /// True if `q` is a hull vertex.
    pub fn is_vertex(&self, q: usize) -> bool {
        self.qs.binary_search(&q).is_ok()
    }

    /// The smallest hull vertex `≥ q` (saturates at the last vertex).
    pub fn next_vertex_at_or_after(&self, q: usize) -> usize {
        match self.qs.binary_search(&q) {
            Ok(i) => self.qs[i],
            Err(i) => self.qs[i.min(self.qs.len() - 1)],
        }
    }

    /// Evaluates `f(q)` by linear interpolation between hull vertices;
    /// constant beyond the last vertex.
    pub fn eval(&self, q: f64) -> f64 {
        let q = q.max(0.0);
        if q >= *self.qs.last().expect("non-empty") as f64 {
            return *self.fs.last().expect("non-empty");
        }
        // Find the segment [qs[i], qs[i+1]] containing q.
        let mut lo = 0usize;
        let mut hi = self.qs.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if (self.qs[mid] as f64) <= q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (x0, x1) = (self.qs[lo] as f64, self.qs[hi] as f64);
        let (y0, y1) = (self.fs[lo], self.fs[hi]);
        y0 + (y1 - y0) * (q - x0) / (x1 - x0)
    }

    /// The marginal `ℓ(q) = f(q−1) − f(q)` for `q ≥ 1` (0 beyond the
    /// domain). Non-negative and non-increasing in `q` by convexity.
    pub fn marginal(&self, q: usize) -> f64 {
        if q == 0 {
            return f64::INFINITY;
        }
        (self.eval((q - 1) as f64) - self.eval(q as f64)).max(0.0)
    }

    /// Serializes the hull (vertex count, then `(varint q, f64 f)` pairs).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.qs.len() as u64);
        for (q, f) in self.vertices() {
            w.put_varint(q as u64);
            w.put_f64(f);
        }
    }

    /// Deserializes a hull written by [`Self::encode`].
    pub fn decode(r: &mut WireReader) -> Self {
        let n = r.get_varint() as usize;
        let mut qs = Vec::with_capacity(n);
        let mut fs = Vec::with_capacity(n);
        for _ in 0..n {
            qs.push(r.get_varint() as usize);
            fs.push(r.get_f64());
        }
        ConvexProfile { qs, fs }
    }

    /// Serializes the hull inside a codec frame ([`Encoding::Raw`]
    /// produces [`Self::encode`]'s bytes unframed). The payload is
    /// `(count, cost)` pairs with no coordinate spans, so every encoding
    /// keeps it bit-exact.
    pub fn encode_with(&self, encoding: Encoding) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        dpc_codec::frame(encoding, w, &[])
    }

    /// Deserializes a hull produced by [`Self::encode_with`] with the
    /// same encoding.
    pub fn decode_with(encoding: Encoding, buf: Bytes) -> Self {
        Self::decode(&mut WireReader::new(dpc_codec::unframe(encoding, buf, &[])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_contains_endpoints_and_powers() {
        let g = geometric_grid(100, 2.0);
        assert_eq!(g, vec![0, 1, 2, 4, 8, 16, 32, 64, 100]);
        assert_eq!(geometric_grid(0, 2.0), vec![0]);
        assert_eq!(geometric_grid(1, 2.0), vec![0, 1]);
        assert_eq!(geometric_grid(3, 2.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn grid_size_logarithmic() {
        let g = geometric_grid(1_000_000, 2.0);
        assert!(g.len() <= 23, "grid size {}", g.len());
        let fine = geometric_grid(1000, 1.25);
        assert!(fine.len() > geometric_grid(1000, 4.0).len());
    }

    #[test]
    fn hull_of_convex_profile_is_identity_on_vertices() {
        // f(q) = (10-q)^2 is convex decreasing on 0..=10.
        let pts: Vec<(usize, f64)> = (0..=10).map(|q| (q, ((10 - q) as f64).powi(2))).collect();
        let h = ConvexProfile::lower_hull(&pts);
        for &(q, c) in &pts {
            assert!((h.eval(q as f64) - c).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn hull_below_nonconvex_profile() {
        // A profile with a bump: hull must be below it everywhere and convex.
        let pts = vec![(0, 10.0), (1, 9.5), (2, 4.0), (4, 3.0), (8, 0.0)];
        let h = ConvexProfile::lower_hull(&pts);
        for &(q, c) in &pts {
            assert!(h.eval(q as f64) <= c + 1e-12);
        }
        // Convexity: marginals non-increasing.
        let mut prev = f64::INFINITY;
        for q in 1..=8 {
            let m = h.marginal(q);
            assert!(m <= prev + 1e-12, "marginal increased at q={q}");
            prev = m;
        }
    }

    #[test]
    fn running_minimum_fixes_noise() {
        // Heuristic noise: cost goes UP at q=2; hull uses the running min.
        let pts = vec![(0, 10.0), (1, 5.0), (2, 6.0), (3, 1.0)];
        let h = ConvexProfile::lower_hull(&pts);
        assert!(h.eval(2.0) <= 5.0 + 1e-12);
        let mut prev = f64::INFINITY;
        for q in 1..=3 {
            assert!(h.marginal(q) <= prev + 1e-12);
            prev = h.marginal(q);
        }
    }

    #[test]
    fn eval_beyond_domain_is_constant() {
        let h = ConvexProfile::lower_hull(&[(0, 4.0), (2, 0.0)]);
        assert_eq!(h.eval(5.0), 0.0);
        assert_eq!(h.marginal(5), 0.0);
        assert_eq!(h.max_q(), 2);
    }

    #[test]
    fn vertex_queries() {
        let h = ConvexProfile::lower_hull(&[(0, 4.0), (1, 3.0), (4, 0.0)]);
        assert!(h.is_vertex(0));
        assert!(h.is_vertex(4));
        assert_eq!(h.next_vertex_at_or_after(2), 4);
        assert_eq!(h.next_vertex_at_or_after(4), 4);
        assert_eq!(h.next_vertex_at_or_after(9), 4);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = ConvexProfile::lower_hull(&[(0, 4.0), (1, 3.5), (4, 1.0), (10, 0.25)]);
        let mut w = WireWriter::new();
        h.encode(&mut w);
        let mut r = WireReader::new(w.finish());
        let h2 = ConvexProfile::decode(&mut r);
        assert_eq!(h, h2);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn single_point_profile() {
        let h = ConvexProfile::lower_hull(&[(0, 7.0)]);
        assert_eq!(h.eval(0.0), 7.0);
        assert_eq!(h.eval(3.0), 7.0);
        assert_eq!(h.marginal(1), 0.0);
    }

    #[test]
    fn marginal_at_zero_is_infinite() {
        let h = ConvexProfile::lower_hull(&[(0, 4.0), (2, 0.0)]);
        assert_eq!(h.marginal(0), f64::INFINITY);
    }
}

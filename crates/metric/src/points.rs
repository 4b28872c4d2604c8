//! Dense point storage.
//!
//! Points live in `R^d` and are stored in a single flat `Vec<f64>` in
//! row-major order, which keeps distance evaluation cache-friendly (the
//! innermost loop of every algorithm in this workspace is a scan over one or
//! two rows of this buffer).

/// Index of a point inside a [`PointSet`].
///
/// Kept as a plain `usize` alias (rather than a newtype) because point ids
/// are used as raw indices in hot loops throughout the workspace.
pub type PointId = usize;

/// A set of `n` points in `R^dim`, stored flat and row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct PointSet {
    dim: usize,
    data: Vec<f64>,
}

impl PointSet {
    /// Creates an empty point set of the given dimension.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PointSet dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty point set with capacity for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "PointSet dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a point set from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "PointSet dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { dim, data }
    }

    /// Builds a point set from explicit rows.
    ///
    /// # Panics
    /// Panics if rows disagree on dimension.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let dim = rows[0].len();
        let mut ps = Self::with_capacity(dim, rows.len());
        for r in rows {
            ps.push(r);
        }
        ps
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: PointId) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point, returning its id.
    ///
    /// # Panics
    /// Panics if `coords.len() != dim`.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.dim, "coordinate dimension mismatch");
        let id = self.len();
        self.data.extend_from_slice(coords);
        id
    }

    /// Appends all points of `other`, returning the id offset at which they
    /// were inserted (point `j` of `other` becomes `offset + j` here).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn extend_from(&mut self, other: &PointSet) -> PointId {
        assert_eq!(self.dim, other.dim, "dimension mismatch in extend_from");
        let offset = self.len();
        self.data.extend_from_slice(&other.data);
        offset
    }

    /// Builds a new point set containing the given points, in order.
    pub fn subset(&self, ids: &[PointId]) -> PointSet {
        let mut out = PointSet::with_capacity(self.dim, ids.len());
        for &i in ids {
            out.push(self.point(i));
        }
        out
    }

    /// Iterator over `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.data.chunks_exact(self.dim).enumerate()
    }

    /// Raw flat buffer (row-major).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Squared Euclidean distance between points `i` and `j`.
    #[inline]
    pub fn sq_dist(&self, i: PointId, j: PointId) -> f64 {
        sq_dist(self.point(i), self.point(j))
    }

    /// Euclidean distance between points `i` and `j`.
    #[inline]
    pub fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.sq_dist(i, j).sqrt()
    }

    /// Squared Euclidean distance between point `i` and an arbitrary
    /// coordinate vector.
    #[inline]
    pub fn sq_dist_to(&self, i: PointId, coords: &[f64]) -> f64 {
        sq_dist(self.point(i), coords)
    }

    /// Coordinate-wise mean of the given points with the given non-negative
    /// weights (the weighted 1-mean in Euclidean space).
    ///
    /// Returns `None` when the total weight is zero or `ids` is empty.
    pub fn weighted_centroid(&self, ids: &[PointId], weights: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(ids.len(), weights.len());
        let total: f64 = weights.iter().sum();
        if ids.is_empty() || total <= 0.0 {
            return None;
        }
        let mut acc = vec![0.0; self.dim];
        for (&i, &w) in ids.iter().zip(weights) {
            for (a, &c) in acc.iter_mut().zip(self.point(i)) {
                *a += w * c;
            }
        }
        for a in &mut acc {
            *a /= total;
        }
        Some(acc)
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// # Panics
/// Debug-asserts equal lengths; in release mismatched lengths silently use
/// the shorter prefix, so callers must uphold the contract.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut ps = PointSet::new(2);
        assert!(ps.is_empty());
        let a = ps.push(&[0.0, 0.0]);
        let b = ps.push(&[3.0, 4.0]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(1), &[3.0, 4.0]);
        assert_eq!(ps.dist(a, b), 5.0);
        assert_eq!(ps.sq_dist(a, b), 25.0);
    }

    #[test]
    fn from_rows_and_subset() {
        let ps = PointSet::from_rows(&[vec![1.0], vec![2.0], vec![4.0]]);
        assert_eq!(ps.len(), 3);
        let sub = ps.subset(&[2, 0]);
        assert_eq!(sub.point(0), &[4.0]);
        assert_eq!(sub.point(1), &[1.0]);
    }

    #[test]
    fn extend_from_offsets() {
        let mut a = PointSet::from_rows(&[vec![0.0, 0.0]]);
        let b = PointSet::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let off = a.extend_from(&b);
        assert_eq!(off, 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.point(2), &[2.0, 2.0]);
    }

    #[test]
    fn weighted_centroid_basic() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0]]);
        let c = ps.weighted_centroid(&[0, 1], &[1.0, 1.0]).unwrap();
        assert_eq!(c, vec![1.0, 1.0]);
        let c = ps.weighted_centroid(&[0, 1], &[3.0, 1.0]).unwrap();
        assert_eq!(c, vec![0.5, 0.5]);
        assert!(ps.weighted_centroid(&[], &[]).is_none());
        assert!(ps.weighted_centroid(&[0], &[0.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_flat_rejects_ragged() {
        let _ = PointSet::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut ps = PointSet::new(2);
        ps.push(&[1.0]);
    }

    #[test]
    fn iter_matches_point() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let collected: Vec<_> = ps.iter().map(|(i, p)| (i, p.to_vec())).collect();
        assert_eq!(collected, vec![(0, vec![1.0, 2.0]), (1, vec![3.0, 4.0])]);
    }
}

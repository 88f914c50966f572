//! N-mode (arbitrary-order) coordinate tensors.
//!
//! The paper focuses its measurements on 3-mode data but notes that "our
//! methodology and result can trivially be extended to higher-order data"
//! via the CSF format (Smith & Karypis, ref. [12]). This module provides
//! the order-generic COO substrate that [`crate::csf`] compresses.
//!
//! Coordinates are stored flattened (`nnz x order`, row-major) to avoid a
//! heap allocation per nonzero.

use crate::Idx;

/// Typed construction errors for [`NdCooTensor::try_from_flat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdError {
    /// `dims` is empty.
    ZeroOrder,
    /// `coords.len()` is not `vals.len() * order` (or that product
    /// overflows `usize`).
    LengthMismatch {
        /// Length of the flattened coordinate vector.
        coords: usize,
        /// Number of values.
        vals: usize,
        /// Tensor order.
        order: usize,
    },
    /// A coordinate is not strictly below its mode's dimension.
    CoordOutOfRange {
        /// Entry index in construction order.
        entry: usize,
        /// Mode of the offending coordinate.
        mode: usize,
        /// The coordinate value.
        coord: Idx,
        /// The dimension it must stay below.
        dim: usize,
    },
}

impl std::fmt::Display for NdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdError::ZeroOrder => write!(f, "tensor order must be positive"),
            NdError::LengthMismatch {
                coords,
                vals,
                order,
            } => write!(
                f,
                "coordinate/value length mismatch ({coords} coords, {vals} values, order {order})"
            ),
            NdError::CoordOutOfRange {
                entry,
                mode,
                coord,
                dim,
            } => write!(
                f,
                "entry {entry}: coordinate {coord} out of range for mode {mode} (dim {dim})"
            ),
        }
    }
}

impl std::error::Error for NdError {}

/// An N-mode sparse tensor in coordinate format.
#[derive(Debug, Clone, PartialEq)]
pub struct NdCooTensor {
    dims: Vec<usize>,
    /// Flattened coordinates: entry `n`'s mode-`m` index is
    /// `coords[n * order + m]`.
    coords: Vec<Idx>,
    vals: Vec<f64>,
}

impl NdCooTensor {
    /// Builds a tensor from flattened coordinates, summing duplicates and
    /// rejecting malformed input with a typed [`NdError`] instead of
    /// panicking. Boundary code (the `.tnsb` decoder) uses this form so a
    /// hostile file becomes a value, not a crash.
    pub fn try_from_flat(
        dims: Vec<usize>,
        coords: Vec<Idx>,
        vals: Vec<f64>,
    ) -> Result<Self, NdError> {
        let order = dims.len();
        if order == 0 {
            return Err(NdError::ZeroOrder);
        }
        let expect = vals
            .len()
            .checked_mul(order)
            .ok_or(NdError::LengthMismatch {
                coords: coords.len(),
                vals: vals.len(),
                order,
            })?;
        if coords.len() != expect {
            return Err(NdError::LengthMismatch {
                coords: coords.len(),
                vals: vals.len(),
                order,
            });
        }
        for (n, chunk) in coords.chunks_exact(order).enumerate() {
            for (m, (&c, &dim)) in chunk.iter().zip(dims.iter()).enumerate() {
                if (c as usize) >= dim {
                    return Err(NdError::CoordOutOfRange {
                        entry: n,
                        mode: m,
                        coord: c,
                        dim,
                    });
                }
            }
        }
        let mut t = NdCooTensor { dims, coords, vals };
        t.sort_and_merge(&(0..order).collect::<Vec<_>>());
        Ok(t)
    }

    /// Builds a tensor from flattened coordinates, summing duplicates.
    ///
    /// # Panics
    /// Panics if `coords.len() != vals.len() * dims.len()`, if the order is
    /// zero, or if a coordinate exceeds its dimension.
    pub fn from_flat(dims: Vec<usize>, coords: Vec<Idx>, vals: Vec<f64>) -> Self {
        match Self::try_from_flat(dims, coords, vals) {
            Ok(t) => t,
            Err(e) => panic!("{e}"), // documented panic; trusted in-memory callers (generators) — lint: allow(panic-reach)
        }
    }

    /// An empty tensor.
    pub fn empty(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "tensor order must be positive");
        NdCooTensor {
            dims,
            coords: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Converts a 3-mode [`crate::CooTensor`].
    pub fn from_coo3(t: &crate::CooTensor) -> Self {
        // nnz entries (≥ 12 bytes each) already fit in memory, so nnz·3
        // cannot overflow usize.
        let mut coords = Vec::with_capacity(t.nnz() * 3);
        let mut vals = Vec::with_capacity(t.nnz());
        for e in t.entries() {
            coords.extend_from_slice(&e.idx);
            vals.push(e.val);
        }
        NdCooTensor {
            dims: t.dims().to_vec(),
            coords,
            vals,
        }
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode lengths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Coordinates of entry `n`.
    #[inline]
    pub fn coord(&self, n: usize) -> &[Idx] {
        let o = self.order();
        // invariant: coords.len() == nnz·order, callers pass n < nnz — lint: allow(panic-reach)
        &self.coords[n * o..(n + 1) * o]
    }

    /// Value of entry `n`.
    #[inline]
    pub fn value(&self, n: usize) -> f64 {
        // invariant: callers pass n < nnz == vals.len() — lint: allow(panic-reach)
        self.vals[n]
    }

    /// All values.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Sorts entries lexicographically by the mode order `perm` (a
    /// permutation of `0..order`) and merges duplicate coordinates.
    pub fn sort_and_merge(&mut self, perm: &[usize]) {
        let order = self.order();
        // defensive API check; construction passes the identity permutation — lint: allow(panic-reach)
        assert_eq!(perm.len(), order, "perm length must equal order");
        let nnz = self.nnz();
        let mut idx: Vec<usize> = (0..nnz).collect();
        idx.sort_unstable_by(|&a, &b| {
            let ca = self.coord(a);
            let cb = self.coord(b);
            for &m in perm {
                // perm is a permutation of 0..order, so m < order == ca.len() — lint: allow(panic-reach)
                match ca[m].cmp(&cb[m]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });

        let mut coords = Vec::with_capacity(self.coords.len());
        let mut vals: Vec<f64> = Vec::with_capacity(nnz);
        for &n in &idx {
            let c = self.coord(n);
            let dup = !vals.is_empty() && {
                // vals non-empty ⇒ coords holds ≥ order entries — lint: allow(panic-reach)
                let last = &coords[coords.len() - order..];
                last == c
            };
            if dup {
                // dup ⇒ vals non-empty; n < nnz == self.vals.len() — lint: allow(panic-reach)
                *vals.last_mut().unwrap() += self.vals[n];
            } else {
                coords.extend_from_slice(c);
                // n < nnz == self.vals.len() — lint: allow(panic-reach)
                vals.push(self.vals[n]);
            }
        }
        self.coords = coords;
        self.vals = vals;
    }

    /// Sum of squared values.
    pub fn sq_norm(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum()
    }
}

/// Uniform random N-mode tensor with `nnz` distinct positions (values in
/// `[0.5, 1.5)`), deterministic in `seed`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a generator axis length fits Idx"
)]
pub fn uniform_nd(dims: &[usize], nnz: usize, seed: u64) -> NdCooTensor {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let cells: u128 = dims.iter().map(|&d| d as u128).product();
    assert!((nnz as u128) <= cells, "too many nonzeros requested");
    let order = dims.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: std::collections::BTreeSet<Vec<Idx>> = std::collections::BTreeSet::new();
    while seen.len() < nnz {
        let c: Vec<Idx> = dims
            .iter()
            .map(|&d| rng.random_range(0..d as Idx))
            .collect();
        seen.insert(c);
    }
    // nnz·order coordinates already exist in `seen`.
    let mut coords = Vec::with_capacity(nnz * order);
    let mut vals = Vec::with_capacity(nnz);
    for c in seen {
        coords.extend_from_slice(&c);
        vals.push(rng.random::<f64>() + 0.5);
    }
    NdCooTensor::from_flat(dims.to_vec(), coords, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = NdCooTensor::from_flat(
            vec![2, 3, 4, 5],
            vec![0, 1, 2, 3, 1, 2, 3, 4],
            vec![1.5, 2.5],
        );
        assert_eq!(t.order(), 4);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.coord(0), &[0, 1, 2, 3]);
        assert_eq!(t.value(1), 2.5);
    }

    #[test]
    fn duplicates_merge() {
        let t = NdCooTensor::from_flat(vec![2, 2], vec![1, 1, 1, 1, 0, 1], vec![2.0, 3.0, 1.0]);
        assert_eq!(t.nnz(), 2);
        let heavy = (0..t.nnz()).find(|&n| t.coord(n) == [1, 1]).unwrap();
        assert_eq!(t.value(heavy), 5.0);
    }

    #[test]
    fn sort_by_permutation() {
        let mut t = NdCooTensor::from_flat(vec![3, 3], vec![2, 0, 0, 2, 1, 1], vec![1.0, 2.0, 3.0]);
        t.sort_and_merge(&[1, 0]); // sort by mode 1 first
        let firsts: Vec<u32> = (0..3).map(|n| t.coord(n)[1]).collect();
        assert!(firsts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn from_coo3_matches() {
        let c3 = crate::CooTensor::from_triples([3, 3, 3], &[0, 1], &[1, 2], &[2, 0], &[4.0, 5.0]);
        let nd = NdCooTensor::from_coo3(&c3);
        assert_eq!(nd.order(), 3);
        assert_eq!(nd.nnz(), 2);
        assert_eq!(nd.coord(0), &[0, 1, 2]);
    }

    #[test]
    fn uniform_nd_generates_distinct() {
        let t = uniform_nd(&[5, 6, 7, 8], 200, 3);
        assert_eq!(t.nnz(), 200);
        for n in 1..t.nnz() {
            assert_ne!(t.coord(n - 1), t.coord(n));
        }
        let t2 = uniform_nd(&[5, 6, 7, 8], 200, 3);
        assert_eq!(t, t2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coordinate_panics() {
        NdCooTensor::from_flat(vec![2, 2], vec![0, 2], vec![1.0]);
    }
}

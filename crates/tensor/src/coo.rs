//! Coordinate (COO) sparse tensor format (Figure 1a of the paper).
//!
//! Each nonzero is stored as its `(i, j, k)` coordinates plus its value. The
//! COO format is the interchange format of this crate: generators and file
//! readers produce it, and [`crate::SplattTensor`] and the blocking grid in
//! `tenblock-core` are built from it.

use crate::{Idx, NMODES};

/// Typed construction errors for [`CooTensor`].
///
/// The panicking constructors ([`CooTensor::from_entries`],
/// [`CooTensor::from_triples`]) delegate to the fallible `try_*` variants
/// and panic with the error's message; boundary code (file readers, the
/// serve registry, the fuzzer) uses the `try_*` forms directly so hostile
/// input becomes a value, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A coordinate is not strictly below its mode's dimension.
    CoordOutOfRange {
        /// Mode of the offending coordinate.
        mode: usize,
        /// The coordinate value.
        coord: Idx,
        /// The dimension it must stay below.
        dim: usize,
    },
    /// A value is NaN or infinite (sparse kernels assume finite data).
    NonFiniteValue {
        /// Index of the offending entry in construction order.
        entry: usize,
    },
    /// Parallel coordinate/value slices have different lengths.
    LengthMismatch {
        /// The four slice lengths `(is, js, ks, vals)`.
        lens: [usize; 4],
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::CoordOutOfRange { mode, coord, dim } => write!(
                f,
                "coordinate {coord} out of range for mode {mode} (dim {dim})"
            ),
            TensorError::NonFiniteValue { entry } => {
                write!(f, "non-finite value at entry {entry}")
            }
            TensorError::LengthMismatch { lens } => write!(
                f,
                "coordinate/value slices must have equal length (got {lens:?})"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// One nonzero: its coordinate in each mode and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Coordinates, one per mode, `0 <= idx[m] < dims[m]`.
    pub idx: [Idx; NMODES],
    /// The nonzero value.
    pub val: f64,
}

impl Entry {
    /// Creates an entry from coordinates and a value.
    pub fn new(i: Idx, j: Idx, k: Idx, val: f64) -> Self {
        Entry {
            idx: [i, j, k],
            val,
        }
    }
}

/// A 3-mode sparse tensor in coordinate format.
///
/// Invariants maintained by all constructors:
/// * every coordinate is strictly below the corresponding dimension,
/// * no two entries share the same coordinate triple (duplicates are summed).
///
/// Entry *order* is not an invariant; [`CooTensor::sort`] establishes a
/// lexicographic order for a chosen mode permutation.
///
/// ```
/// use tenblock_tensor::CooTensor;
/// let x = CooTensor::from_triples(
///     [2, 3, 4],
///     &[0, 1, 1],   // i
///     &[2, 0, 0],   // j
///     &[3, 1, 1],   // k  (the last two entries collide and are summed)
///     &[1.0, 2.0, 0.5],
/// );
/// assert_eq!(x.nnz(), 2);
/// assert_eq!(x.entries()[1].val, 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    dims: [usize; NMODES],
    entries: Vec<Entry>,
}

impl CooTensor {
    /// Builds a tensor from raw entries, rejecting malformed input with a
    /// typed [`TensorError`] instead of panicking.
    ///
    /// Duplicate coordinates are combined by summing their values; entries
    /// whose combined value is exactly `0.0` are kept (explicit zeros are
    /// legal nonzero *positions* in sparse-tensor libraries). NaN and
    /// infinite values are rejected: every downstream kernel assumes
    /// finite arithmetic.
    pub fn try_from_entries(
        dims: [usize; NMODES],
        mut entries: Vec<Entry>,
    ) -> Result<Self, TensorError> {
        for (n, e) in entries.iter().enumerate() {
            for (m, (&c, &dim)) in e.idx.iter().zip(dims.iter()).enumerate() {
                if (c as usize) >= dim {
                    return Err(TensorError::CoordOutOfRange {
                        mode: m,
                        coord: c,
                        dim,
                    });
                }
            }
            if !e.val.is_finite() {
                return Err(TensorError::NonFiniteValue { entry: n });
            }
        }
        entries.sort_unstable_by_key(|e| e.idx);
        entries.dedup_by(|next, acc| {
            if next.idx == acc.idx {
                acc.val += next.val;
                true
            } else {
                false
            }
        });
        Ok(CooTensor { dims, entries })
    }

    /// Builds a tensor from raw entries.
    ///
    /// Semantics of [`CooTensor::try_from_entries`] (duplicates summed,
    /// explicit zeros kept).
    ///
    /// # Panics
    /// Panics if any coordinate is out of range for `dims` or any value is
    /// non-finite.
    pub fn from_entries(dims: [usize; NMODES], entries: Vec<Entry>) -> Self {
        match Self::try_from_entries(dims, entries) {
            Ok(t) => t,
            Err(e) => panic!("{e}"), // documented panic; trusted in-memory callers (generators) — lint: allow(panic-reach)
        }
    }

    /// Builds a tensor from parallel coordinate/value slices, rejecting
    /// malformed input with a typed [`TensorError`].
    pub fn try_from_triples(
        dims: [usize; NMODES],
        is: &[Idx],
        js: &[Idx],
        ks: &[Idx],
        vals: &[f64],
    ) -> Result<Self, TensorError> {
        if !(is.len() == js.len() && js.len() == ks.len() && ks.len() == vals.len()) {
            return Err(TensorError::LengthMismatch {
                lens: [is.len(), js.len(), ks.len(), vals.len()],
            });
        }
        let entries = (0..is.len())
            .map(|n| Entry::new(is[n], js[n], ks[n], vals[n]))
            .collect();
        Self::try_from_entries(dims, entries)
    }

    /// Builds a tensor from parallel coordinate/value slices.
    ///
    /// # Panics
    /// Panics on mismatched slice lengths, out-of-range coordinates, or
    /// non-finite values.
    pub fn from_triples(
        dims: [usize; NMODES],
        is: &[Idx],
        js: &[Idx],
        ks: &[Idx],
        vals: &[f64],
    ) -> Self {
        match Self::try_from_triples(dims, is, js, ks, vals) {
            Ok(t) => t,
            Err(e) => panic!("{e}"), // documented panic; trusted in-memory callers (generators) — lint: allow(panic-reach)
        }
    }

    /// An empty tensor of the given shape.
    pub fn empty(dims: [usize; NMODES]) -> Self {
        CooTensor {
            dims,
            entries: Vec::new(),
        }
    }

    /// Mode lengths `(I, J, K)`.
    pub fn dims(&self) -> [usize; NMODES] {
        self.dims
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, in their current order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Mutable access to values only (coordinates stay fixed).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut f64> {
        self.entries.iter_mut().map(|e| &mut e.val)
    }

    /// Sorts entries lexicographically by `(idx[perm[0]], idx[perm[2]],
    /// idx[perm[1]])` — i.e. slice mode, then fiber mode, then the
    /// within-fiber mode. This is exactly the order required to build the
    /// SPLATT format oriented by `perm` (fibers vary along `perm[1]`).
    pub fn sort(&mut self, perm: [usize; NMODES]) {
        debug_assert!(is_permutation(perm));
        self.entries = crate::fiber_sort::fiber_sorted(self.dims, perm, &self.entries);
    }

    /// Returns a new tensor whose mode `m` is the old mode `perm[m]`
    /// (coordinates and dimensions are relabeled accordingly).
    pub fn permute_modes(&self, perm: [usize; NMODES]) -> CooTensor {
        debug_assert!(is_permutation(perm));
        let dims = [self.dims[perm[0]], self.dims[perm[1]], self.dims[perm[2]]];
        let entries = self
            .entries
            .iter()
            .map(|e| Entry {
                idx: [e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]]],
                val: e.val,
            })
            .collect();
        CooTensor { dims, entries }
    }

    /// The Frobenius norm `sqrt(sum of squared values)`.
    pub fn frob_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.val * e.val)
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of squared values (`||X||_F^2`), used by CPD fit computation.
    pub fn sq_norm(&self) -> f64 {
        self.entries.iter().map(|e| e.val * e.val).sum()
    }

    /// Counts the non-empty fibers for a given orientation: a fiber is a
    /// distinct `(idx[perm[0]], idx[perm[2]])` pair (slice index, fiber
    /// index), matching the `F` of Equation 1.
    pub fn count_fibers(&self, perm: [usize; NMODES]) -> usize {
        debug_assert!(is_permutation(perm));
        let mut keys: Vec<(Idx, Idx)> = self
            .entries
            .iter()
            .map(|e| (e.idx[perm[0]], e.idx[perm[2]]))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Memory footprint of the COO representation in bytes, per the paper's
    /// accounting (`32 * nnz` with 64-bit indices and values; we report the
    /// actual footprint of this implementation alongside).
    pub fn paper_bytes(&self) -> usize {
        32 * self.nnz()
    }

    /// Actual bytes used by this implementation (3 × u32 + f64 per entry,
    /// padded to the `Entry` struct size).
    pub fn actual_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
    }
}

/// True iff `perm` is a permutation of `{0, 1, 2}`.
pub fn is_permutation(perm: [usize; NMODES]) -> bool {
    let mut seen = [false; NMODES];
    for &p in &perm {
        if p >= NMODES || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// The identity orientation: slices along mode 0, fibers varying along mode 1
/// (the paper's mode-1 MTTKRP layout of Figure 1b).
pub const MODE1_PERM: [usize; NMODES] = [0, 1, 2];

/// Cyclic orientation for the mode-`m` MTTKRP: slices along `m`, within-fiber
/// mode `m+1`, fiber mode `m+2` (all mod 3).
pub fn perm_for_mode(m: usize) -> [usize; NMODES] {
    assert!(m < NMODES, "mode out of range");
    [m, (m + 1) % NMODES, (m + 2) % NMODES]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor {
        // The 3x3x3 example of Figure 1 (1-based in the paper, 0-based here).
        CooTensor::from_triples(
            [3, 3, 3],
            &[0, 0, 0, 1, 1, 1, 2],
            &[0, 1, 1, 0, 1, 2, 0],
            &[0, 1, 2, 2, 1, 2, 0],
            &[5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let t = small();
        assert_eq!(t.dims(), [3, 3, 3]);
        assert_eq!(t.nnz(), 7);
        assert!((t.frob_norm().powi(2) - t.sq_norm()).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_summed() {
        let t = CooTensor::from_triples(
            [2, 2, 2],
            &[0, 0, 1],
            &[1, 1, 0],
            &[1, 1, 0],
            &[2.0, 3.0, 4.0],
        );
        assert_eq!(t.nnz(), 2);
        let e = t
            .entries()
            .iter()
            .find(|e| e.idx == [0, 1, 1])
            .expect("merged entry present");
        assert_eq!(e.val, 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CooTensor::from_triples([2, 2, 2], &[2], &[0], &[0], &[1.0]);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        // Formerly-panicking input classes now come back as values.
        assert_eq!(
            CooTensor::try_from_triples([2, 2, 2], &[2], &[0], &[0], &[1.0]),
            Err(TensorError::CoordOutOfRange {
                mode: 0,
                coord: 2,
                dim: 2
            })
        );
        assert_eq!(
            CooTensor::try_from_triples([2, 2, 2], &[0], &[0], &[0], &[f64::NAN]),
            Err(TensorError::NonFiniteValue { entry: 0 })
        );
        assert_eq!(
            CooTensor::try_from_triples([2, 2, 2], &[0, 1], &[0], &[0], &[1.0]),
            Err(TensorError::LengthMismatch { lens: [2, 1, 1, 1] })
        );
        // Valid input still round-trips, duplicates still summed.
        let t =
            CooTensor::try_from_triples([2, 2, 2], &[1, 1], &[0, 0], &[1, 1], &[2.0, 3.0]).unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.entries()[0].val, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_value_panics() {
        CooTensor::from_triples([2, 2, 2], &[0], &[0], &[0], &[f64::INFINITY]);
    }

    #[test]
    fn sort_orders_slice_then_fiber_then_j() {
        let mut t = small();
        t.sort(MODE1_PERM);
        let e = t.entries();
        for w in e.windows(2) {
            let a = (w[0].idx[0], w[0].idx[2], w[0].idx[1]);
            let b = (w[1].idx[0], w[1].idx[2], w[1].idx[1]);
            assert!(a <= b, "entries not sorted: {a:?} > {b:?}");
        }
    }

    #[test]
    fn permute_roundtrip() {
        let t = small();
        let p = t.permute_modes([2, 0, 1]);
        assert_eq!(p.dims(), [3, 3, 3]);
        // applying the inverse permutation restores the original
        let back = p.permute_modes([1, 2, 0]);
        let mut a = t.entries().to_vec();
        let mut b = back.entries().to_vec();
        a.sort_unstable_by_key(|e| e.idx);
        b.sort_unstable_by_key(|e| e.idx);
        assert_eq!(a, b);
    }

    #[test]
    fn fiber_count_matches_figure1() {
        // Figure 1b shows 6 fibers for the example tensor in mode-1
        // orientation (rows 1..3 hold 3, 2, 1 fibers).
        let t = small();
        assert_eq!(t.count_fibers(MODE1_PERM), 6);
    }

    #[test]
    fn empty_tensor() {
        let t = CooTensor::empty([4, 5, 6]);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.count_fibers(MODE1_PERM), 0);
        assert_eq!(t.frob_norm(), 0.0);
    }

    #[test]
    fn perm_helpers() {
        assert!(is_permutation([0, 1, 2]));
        assert!(is_permutation([2, 0, 1]));
        assert!(!is_permutation([0, 0, 2]));
        assert_eq!(perm_for_mode(0), [0, 1, 2]);
        assert_eq!(perm_for_mode(1), [1, 2, 0]);
        assert_eq!(perm_for_mode(2), [2, 0, 1]);
    }
}

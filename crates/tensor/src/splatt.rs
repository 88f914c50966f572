//! The SPLATT compressed-fiber format (Figure 1b of the paper).
//!
//! Nonzeros are grouped into fibers. In the kernel orientation given by a
//! mode permutation `perm`, a *slice* is a fixed value of mode `perm[0]`, a
//! *fiber* within a slice is a fixed value of mode `perm[2]` (the paper's
//! `k_index`), and nonzeros inside a fiber vary along mode `perm[1]` (the
//! paper's `j_index`). This matches the paper's mode-1 layout where fibers
//! are mode-2 fibers.

use crate::coo::{is_permutation, CooTensor, Entry};
use crate::fiber_sort::fiber_sorted;
use crate::{Idx, NMODES};

/// A 3-mode sparse tensor in the SPLATT format, oriented for the MTTKRP of
/// mode `perm[0]`.
///
/// Structure (names follow Figure 1b):
///
/// ```text
/// slice i (local):  fibers  i_ptr[i] .. i_ptr[i+1]
/// fiber f:          k coordinate fiber_kid[f],
///                   nonzeros fiber_ptr[f] .. fiber_ptr[f+1]
/// nonzero n:        j coordinate j_idx[n], value vals[n]
/// ```
///
/// To support multi-dimensional blocking, a `SplattTensor` may cover only a
/// contiguous *slice range* `[slice_begin, slice_begin + n_slices)` of the
/// global slice mode; `i_ptr` is indexed by the local slice offset. For an
/// unblocked tensor `slice_begin == 0` and `n_slices == dims[perm[0]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SplattTensor {
    /// Global dimensions in **original** mode order.
    dims: [usize; NMODES],
    /// Orientation: kernel axis -> original mode. `perm[0]` is the slice
    /// (output) mode, `perm[1]` the within-fiber mode, `perm[2]` the fiber
    /// mode.
    perm: [usize; NMODES],
    /// First global slice covered by this (possibly blocked) tensor.
    slice_begin: Idx,
    /// When `Some`, the tensor is *slice-compressed*: only non-empty slices
    /// are stored and `slice_ids[s]` is the global slice of local slice `s`
    /// (then `slice_begin` is unused). Used by blocked sub-tensors whose
    /// slice ranges are mostly empty.
    slice_ids: Option<Vec<Idx>>,
    /// Fiber ranges per local slice: `n_slices + 1` entries.
    i_ptr: Vec<usize>,
    /// Global `perm[2]` coordinate of each fiber.
    fiber_kid: Vec<Idx>,
    /// Nonzero ranges per fiber: `F + 1` entries.
    fiber_ptr: Vec<usize>,
    /// Global `perm[1]` coordinate of each nonzero.
    j_idx: Vec<Idx>,
    /// Nonzero values, fiber by fiber.
    vals: Vec<f64>,
}

impl SplattTensor {
    /// Builds the SPLATT representation of `coo` oriented by `perm`,
    /// covering all slices of mode `perm[0]`.
    pub fn from_coo(coo: &CooTensor, perm: [usize; NMODES]) -> Self {
        let n_slices = coo.dims()[perm[0]];
        Self::from_entries_ranged(coo.dims(), perm, coo.entries(), 0, n_slices)
    }

    /// Builds the SPLATT representation for the mode-`m` MTTKRP using the
    /// cyclic orientation `[m, m+1, m+2] (mod 3)`.
    pub fn for_mode(coo: &CooTensor, m: usize) -> Self {
        Self::from_coo(coo, crate::coo::perm_for_mode(m))
    }

    /// Builds a (possibly blocked) SPLATT tensor from raw entries covering
    /// global slices `[slice_begin, slice_begin + n_slices)` of mode
    /// `perm[0]`. Entries may arrive in any order; they are sorted here.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation or an entry's coordinate
    /// falls outside `dims` or its slice outside the covered range.
    pub fn from_entries_ranged(
        dims: [usize; NMODES],
        perm: [usize; NMODES],
        entries: &[Entry],
        slice_begin: usize,
        n_slices: usize,
    ) -> Self {
        assert!(is_permutation(perm), "invalid mode permutation {perm:?}");
        assert!(slice_begin + n_slices <= dims[perm[0]]);
        let entries = fiber_sorted(dims, perm, entries);

        let nnz = entries.len();
        let mut i_ptr = Vec::with_capacity(n_slices + 1);
        let mut fiber_kid: Vec<Idx> = Vec::new();
        let mut fiber_ptr: Vec<usize> = vec![0];
        let mut j_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);

        i_ptr.push(0);
        let mut cur_slice = slice_begin; // next slice whose i_ptr entry is open
        let mut last: Option<(Idx, Idx)> = None; // (slice, fiber kid) of open fiber
        for e in &entries {
            let s = e.idx[perm[0]] as usize;
            assert!(
                s >= slice_begin && s < slice_begin + n_slices,
                "entry slice {s} outside block range [{slice_begin}, {})",
                slice_begin + n_slices
            );
            let kid = e.idx[perm[2]];
            if last != Some((e.idx[perm[0]], kid)) {
                // close previous fiber, open a new one
                if !fiber_kid.is_empty() {
                    fiber_ptr.push(j_idx.len());
                }
                // advance i_ptr for all slices up to and including s
                while cur_slice <= s {
                    if cur_slice > slice_begin {
                        i_ptr.push(fiber_kid.len());
                    }
                    cur_slice += 1;
                }
                // the slice s's range is open; record fiber
                fiber_kid.push(kid);
                last = Some((e.idx[perm[0]], kid));
            }
            j_idx.push(e.idx[perm[1]]);
            vals.push(e.val);
        }
        if !fiber_kid.is_empty() {
            fiber_ptr.push(j_idx.len());
        }
        // close remaining slices
        while i_ptr.len() < n_slices + 1 {
            i_ptr.push(fiber_kid.len());
        }
        debug_assert_eq!(fiber_ptr.len(), fiber_kid.len() + 1);
        debug_assert_eq!(*fiber_ptr.last().unwrap(), nnz); // fiber_ptr starts at [0], never empty — lint: allow(panic-reach)

        SplattTensor {
            dims,
            perm,
            slice_begin: slice_begin as Idx,
            slice_ids: None,
            i_ptr,
            fiber_kid,
            fiber_ptr,
            j_idx,
            vals,
        }
    }

    /// Builds a *slice-compressed* SPLATT tensor: only slices that contain
    /// at least one nonzero get an `i_ptr` entry, and their global indices
    /// are recorded in a side array. Memory is then proportional to the
    /// number of non-empty slices rather than the mode length — essential
    /// for the multi-dimensional blocking grid, where each block covers a
    /// slice range that is mostly empty.
    pub fn from_entries_compressed(
        dims: [usize; NMODES],
        perm: [usize; NMODES],
        entries: Vec<Entry>,
    ) -> Self {
        assert!(is_permutation(perm), "invalid mode permutation {perm:?}");
        Self::from_sorted_compressed(dims, perm, &fiber_sorted(dims, perm, &entries))
    }

    /// [`Self::from_entries_compressed`] for entries already in the
    /// `(slice, k, j)` fiber order of `perm` — what
    /// [`crate::fiber_sort::sort_into_cells`] hands each grid block.
    pub fn from_sorted_compressed(
        dims: [usize; NMODES],
        perm: [usize; NMODES],
        entries: &[Entry],
    ) -> Self {
        let nnz = entries.len();
        let mut slice_ids: Vec<Idx> = Vec::new();
        let mut i_ptr: Vec<usize> = vec![0];
        let mut fiber_kid: Vec<Idx> = Vec::new();
        let mut fiber_ptr: Vec<usize> = vec![0];
        let mut j_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);

        let mut last_fiber: Option<(Idx, Idx)> = None;
        for e in entries {
            let s = e.idx[perm[0]];
            assert!((s as usize) < dims[perm[0]], "slice {s} out of range");
            let kid = e.idx[perm[2]];
            if last_fiber != Some((s, kid)) {
                if !fiber_kid.is_empty() {
                    fiber_ptr.push(j_idx.len());
                }
                if slice_ids.last() != Some(&s) {
                    if !slice_ids.is_empty() {
                        i_ptr.push(fiber_kid.len());
                    }
                    slice_ids.push(s);
                }
                fiber_kid.push(kid);
                last_fiber = Some((s, kid));
            }
            j_idx.push(e.idx[perm[1]]);
            vals.push(e.val);
        }
        if !fiber_kid.is_empty() {
            fiber_ptr.push(j_idx.len());
        }
        i_ptr.push(fiber_kid.len());
        if slice_ids.is_empty() {
            // no nonzeros: single empty sentinel range already in i_ptr
            i_ptr = vec![0];
        }
        debug_assert_eq!(i_ptr.len(), slice_ids.len() + 1);

        SplattTensor {
            dims,
            perm,
            slice_begin: 0,
            slice_ids: Some(slice_ids),
            i_ptr,
            fiber_kid,
            fiber_ptr,
            j_idx,
            vals,
        }
    }

    /// Global dimensions in original mode order.
    pub fn dims(&self) -> [usize; NMODES] {
        self.dims
    }

    /// The orientation permutation (kernel axis -> original mode).
    pub fn perm(&self) -> [usize; NMODES] {
        self.perm
    }

    /// First global slice covered (dense slice-range tensors only; for
    /// compressed tensors this is 0 and [`Self::slice_global`] must be
    /// used).
    pub fn slice_begin(&self) -> usize {
        self.slice_begin as usize
    }

    /// Global slice index of local slice `s`.
    #[inline]
    pub fn slice_global(&self, s: usize) -> usize {
        match &self.slice_ids {
            Some(ids) => ids[s] as usize,
            None => self.slice_begin as usize + s,
        }
    }

    /// The first local slice whose global index is `>= row`
    /// ([`Self::n_slices`] if there is none): a binary search over the
    /// stored ids when slice-compressed, arithmetic otherwise.
    pub fn slice_lower_bound(&self, row: usize) -> usize {
        match &self.slice_ids {
            Some(ids) => ids.partition_point(|&g| (g as usize) < row),
            None => row
                .saturating_sub(self.slice_begin as usize)
                .min(self.n_slices()),
        }
    }

    /// True if this tensor stores only non-empty slices.
    pub fn is_slice_compressed(&self) -> bool {
        self.slice_ids.is_some()
    }

    /// Number of local slices covered (including empty ones).
    pub fn n_slices(&self) -> usize {
        self.i_ptr.len() - 1
    }

    /// Number of non-empty fibers `F`.
    pub fn n_fibers(&self) -> usize {
        self.fiber_kid.len()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fiber index range of local slice `s`.
    #[inline]
    pub fn slice_fibers(&self, s: usize) -> std::ops::Range<usize> {
        self.i_ptr[s]..self.i_ptr[s + 1]
    }

    /// Global `perm[2]` coordinate of fiber `f`.
    #[inline]
    pub fn fiber_kid(&self, f: usize) -> Idx {
        self.fiber_kid[f]
    }

    /// Nonzero index range of fiber `f`.
    #[inline]
    pub fn fiber_nnz(&self, f: usize) -> std::ops::Range<usize> {
        self.fiber_ptr[f]..self.fiber_ptr[f + 1]
    }

    /// Raw structure access for kernels: `(i_ptr, fiber_kid, fiber_ptr,
    /// j_idx, vals)`.
    #[allow(clippy::type_complexity)]
    pub fn raw(&self) -> (&[usize], &[Idx], &[usize], &[Idx], &[f64]) {
        (
            &self.i_ptr,
            &self.fiber_kid,
            &self.fiber_ptr,
            &self.j_idx,
            &self.vals,
        )
    }

    /// Reconstructs the entries in **original** mode order. Used by tests
    /// and format round-trips.
    pub fn to_entries(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.nnz());
        for s in 0..self.n_slices() {
            let gi = self.slice_global(s);
            for f in self.slice_fibers(s) {
                let kid = self.fiber_kid[f];
                for n in self.fiber_nnz(f) {
                    let mut idx = [0 as Idx; NMODES];
                    idx[self.perm[0]] = gi as Idx;
                    idx[self.perm[1]] = self.j_idx[n];
                    idx[self.perm[2]] = kid;
                    out.push(Entry {
                        idx,
                        val: self.vals[n],
                    });
                }
            }
        }
        out
    }

    /// Memory footprint per the paper's model: `16 + 8*I + 16*F + 16*nnz`
    /// bytes (64-bit indices/values assumed by the paper).
    pub fn paper_bytes(&self) -> usize {
        16 + 8 * self.n_slices() + 16 * self.n_fibers() + 16 * self.nnz()
    }

    /// Actual bytes used by this implementation's arrays.
    pub fn actual_bytes(&self) -> usize {
        self.i_ptr.len() * 8
            + self.fiber_kid.len() * 4
            + self.fiber_ptr.len() * 8
            + self.j_idx.len() * 4
            + self.vals.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::MODE1_PERM;

    fn fig1_tensor() -> CooTensor {
        CooTensor::from_triples(
            [3, 3, 3],
            &[0, 0, 0, 1, 1, 1, 2],
            &[0, 1, 1, 0, 1, 2, 0],
            &[0, 1, 2, 2, 1, 2, 0],
            &[5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0],
        )
    }

    #[test]
    fn matches_figure_1b() {
        let t = SplattTensor::from_coo(&fig1_tensor(), MODE1_PERM);
        assert_eq!(t.n_slices(), 3);
        assert_eq!(t.n_fibers(), 6);
        assert_eq!(t.nnz(), 7);
        // Row 1 (slice 0) has fibers with k = 0, 1, 2 (paper: 1, 2, 3).
        let fibers: Vec<Idx> = t.slice_fibers(0).map(|f| t.fiber_kid(f)).collect();
        assert_eq!(fibers, vec![0, 1, 2]);
        // Slice 1 fibers: k = 1, 2 with the k=2 fiber holding j=0 and j=2.
        let fibers1: Vec<Idx> = t.slice_fibers(1).map(|f| t.fiber_kid(f)).collect();
        assert_eq!(fibers1, vec![1, 2]);
        let f_k2 = t.slice_fibers(1).find(|&f| t.fiber_kid(f) == 2).unwrap();
        let (_, _, _, j_idx, vals) = t.raw();
        let r = t.fiber_nnz(f_k2);
        assert_eq!(&j_idx[r.clone()], &[0, 2]);
        assert_eq!(&vals[r], &[2.0, 7.0]);
    }

    #[test]
    fn roundtrip_all_modes() {
        let coo = fig1_tensor();
        for m in 0..3 {
            let t = SplattTensor::for_mode(&coo, m);
            let mut back = t.to_entries();
            back.sort_unstable_by_key(|e| e.idx);
            let mut orig = coo.entries().to_vec();
            orig.sort_unstable_by_key(|e| e.idx);
            assert_eq!(back, orig, "mode {m} round-trip failed");
        }
    }

    #[test]
    fn empty_slices_are_handled() {
        // slices 0 and 3 empty
        let coo = CooTensor::from_triples([5, 2, 2], &[1, 4], &[0, 1], &[1, 0], &[1.0, 2.0]);
        let t = SplattTensor::from_coo(&coo, MODE1_PERM);
        assert_eq!(t.n_slices(), 5);
        assert_eq!(t.slice_fibers(0).len(), 0);
        assert_eq!(t.slice_fibers(1).len(), 1);
        assert_eq!(t.slice_fibers(2).len(), 0);
        assert_eq!(t.slice_fibers(3).len(), 0);
        assert_eq!(t.slice_fibers(4).len(), 1);
    }

    #[test]
    fn ranged_block_covers_subrange() {
        let coo = fig1_tensor();
        // block covering slices [1, 3)
        let entries: Vec<Entry> = coo
            .entries()
            .iter()
            .copied()
            .filter(|e| e.idx[0] >= 1)
            .collect();
        let t = SplattTensor::from_entries_ranged([3, 3, 3], MODE1_PERM, &entries, 1, 2);
        assert_eq!(t.slice_begin(), 1);
        assert_eq!(t.n_slices(), 2);
        let cuts: Vec<usize> = (0..5).map(|row| t.slice_lower_bound(row)).collect();
        assert_eq!(cuts, vec![0, 0, 1, 2, 2]);
        assert_eq!(t.nnz(), 4);
        let back = t.to_entries();
        assert!(back.iter().all(|e| e.idx[0] >= 1));
    }

    #[test]
    fn empty_tensor_builds() {
        let coo = CooTensor::empty([4, 4, 4]);
        let t = SplattTensor::from_coo(&coo, MODE1_PERM);
        assert_eq!(t.n_slices(), 4);
        assert_eq!(t.n_fibers(), 0);
        assert_eq!(t.nnz(), 0);
        assert!(t.to_entries().is_empty());
    }

    #[test]
    fn compressed_roundtrip_and_slice_ids() {
        let coo = CooTensor::from_triples(
            [100, 4, 4],
            &[3, 3, 97, 50],
            &[0, 1, 2, 3],
            &[1, 1, 0, 2],
            &[1.0, 2.0, 3.0, 4.0],
        );
        let t =
            SplattTensor::from_entries_compressed(coo.dims(), MODE1_PERM, coo.entries().to_vec());
        assert!(t.is_slice_compressed());
        assert_eq!(t.n_slices(), 3); // slices 3, 50, 97 only
        assert_eq!(t.slice_global(0), 3);
        assert_eq!(t.slice_global(1), 50);
        assert_eq!(t.slice_global(2), 97);
        let cuts: Vec<usize> = [0, 3, 4, 50, 97, 98]
            .iter()
            .map(|&row| t.slice_lower_bound(row))
            .collect();
        assert_eq!(cuts, vec![0, 0, 1, 1, 2, 3]);
        let mut back = t.to_entries();
        back.sort_unstable_by_key(|e| e.idx);
        assert_eq!(back, coo.entries().to_vec());
    }

    #[test]
    fn compressed_empty_tensor() {
        let t = SplattTensor::from_entries_compressed([5, 5, 5], MODE1_PERM, vec![]);
        assert_eq!(t.n_slices(), 0);
        assert_eq!(t.nnz(), 0);
        assert!(t.to_entries().is_empty());
    }

    #[test]
    fn compressed_equals_ranged_semantics() {
        let coo = fig1_tensor();
        let dense = SplattTensor::from_coo(&coo, MODE1_PERM);
        let comp =
            SplattTensor::from_entries_compressed(coo.dims(), MODE1_PERM, coo.entries().to_vec());
        let mut a = dense.to_entries();
        let mut b = comp.to_entries();
        a.sort_unstable_by_key(|e| e.idx);
        b.sort_unstable_by_key(|e| e.idx);
        assert_eq!(a, b);
        assert_eq!(dense.n_fibers(), comp.n_fibers());
    }

    #[test]
    fn memory_accounting() {
        let t = SplattTensor::from_coo(&fig1_tensor(), MODE1_PERM);
        // paper model: 16 + 8*3 + 16*6 + 16*7 = 248
        assert_eq!(t.paper_bytes(), 248);
        assert!(t.actual_bytes() > 0);
    }
}

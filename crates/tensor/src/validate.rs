//! Structural invariant checker for the compressed format.
//!
//! It runs the full battery of representation invariants (monotone
//! pointer arrays, sorted fiber ids within a slice, in-range coordinates,
//! aligned value arrays) and returns human-readable violations. It backs
//! the test suites and is exposed publicly so downstream code that builds
//! `SplattTensor` values by hand (e.g. from mmap'd files) can
//! sanity-check them.

use crate::splatt::SplattTensor;

/// Checks every structural invariant of a SPLATT tensor. Returns all
/// violations found (empty = valid).
pub fn check_splatt(t: &SplattTensor) -> Vec<String> {
    let mut errs = Vec::new();
    let dims = t.dims();
    let perm = t.perm();
    let (i_ptr, fiber_kid, fiber_ptr, j_idx, vals) = t.raw();

    if i_ptr.len() != t.n_slices() + 1 {
        errs.push(format!(
            "i_ptr length {} != n_slices + 1 = {}",
            i_ptr.len(),
            t.n_slices() + 1
        ));
    }
    if fiber_ptr.len() != fiber_kid.len() + 1 {
        errs.push(format!(
            "fiber_ptr length {} != n_fibers + 1 = {}",
            fiber_ptr.len(),
            fiber_kid.len() + 1
        ));
    }
    if j_idx.len() != vals.len() {
        errs.push(format!(
            "j_idx length {} != vals length {}",
            j_idx.len(),
            vals.len()
        ));
    }
    if i_ptr.windows(2).any(|w| w[0] > w[1]) {
        errs.push("i_ptr is not monotone".into());
    }
    if fiber_ptr.windows(2).any(|w| w[0] > w[1]) {
        errs.push("fiber_ptr is not monotone".into());
    }
    if let (Some(&last_i), Some(&last_f)) = (i_ptr.last(), fiber_ptr.last()) {
        if last_i != fiber_kid.len() {
            errs.push(format!(
                "i_ptr end {last_i} != fiber count {}",
                fiber_kid.len()
            ));
        }
        if last_f != vals.len() {
            errs.push(format!("fiber_ptr end {last_f} != nnz {}", vals.len()));
        }
    }
    for s in 0..t.n_slices() {
        if t.slice_global(s) >= dims[perm[0]] {
            errs.push(format!(
                "slice {s} maps to out-of-range global {}",
                t.slice_global(s)
            ));
        }
        // fibers within a slice must have strictly increasing kids
        let fibers: Vec<u32> = t.slice_fibers(s).map(|f| fiber_kid[f]).collect();
        if fibers.windows(2).any(|w| w[0] >= w[1]) {
            errs.push(format!("slice {s} fibers not strictly increasing"));
        }
    }
    if fiber_kid.iter().any(|&k| (k as usize) >= dims[perm[2]]) {
        errs.push("fiber k index out of range".into());
    }
    if j_idx.iter().any(|&j| (j as usize) >= dims[perm[1]]) {
        errs.push("nonzero j index out of range".into());
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::MODE1_PERM;
    use crate::gen::uniform_tensor;

    #[test]
    fn built_splatt_tensors_are_valid() {
        let x = uniform_tensor([30, 25, 20], 600, 4);
        for mode in 0..3 {
            let t = SplattTensor::for_mode(&x, mode);
            assert!(check_splatt(&t).is_empty(), "{:?}", check_splatt(&t));
        }
        let compressed =
            SplattTensor::from_entries_compressed(x.dims(), MODE1_PERM, x.entries().to_vec());
        assert!(check_splatt(&compressed).is_empty());
    }

    #[test]
    fn empty_structures_are_valid() {
        let x = crate::CooTensor::empty([4, 4, 4]);
        assert!(check_splatt(&SplattTensor::for_mode(&x, 0)).is_empty());
    }
}

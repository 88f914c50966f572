//! The Compressed Sparse Fiber (CSF) format — the higher-order extension of
//! the SPLATT format (Smith & Karypis, ref. [12] of the paper).
//!
//! An order-`N` tensor is stored as a forest: level 0 holds the distinct
//! indices of the root mode, each level-`l` node holds a distinct index of
//! mode `perm[l]` within its parent's prefix, and the leaves (level `N-1`)
//! align one-to-one with nonzero values. For `N = 3` with the identity
//! permutation, level 1 is exactly the fiber array of Figure 1b.

use crate::nd::NdCooTensor;
use crate::Idx;

/// An N-mode tensor in CSF form, rooted at mode `perm[0]`.
///
/// ```
/// use tenblock_tensor::{CsfTensor, NdCooTensor};
/// let x = NdCooTensor::from_flat(
///     vec![3, 4, 5, 6],
///     vec![0, 1, 2, 3,  0, 1, 2, 4,  2, 0, 0, 0],
///     vec![1.0, 2.0, 3.0],
/// );
/// let csf = CsfTensor::for_mode(&x, 0);
/// assert_eq!(csf.n_nodes(0), 2);            // roots 0 and 2
/// assert_eq!(csf.nnz(), 3);
/// assert_eq!(csf.to_nd(), x);               // lossless round-trip
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    dims: Vec<usize>,
    /// Level -> original mode.
    perm: Vec<usize>,
    /// `fids[l][node]` is the mode-`perm[l]` index of node `node` at level
    /// `l`. `fids.len() == order`.
    fids: Vec<Vec<Idx>>,
    /// `ptrs[l][node] .. ptrs[l][node+1]` are node `node`'s children at
    /// level `l+1`. `ptrs.len() == order - 1`.
    ptrs: Vec<Vec<usize>>,
    /// Values, aligned with the leaf level `fids[order-1]`.
    vals: Vec<f64>,
}

impl CsfTensor {
    /// Compresses `t` with the mode order `perm` (a permutation of
    /// `0..order`; `perm[0]` becomes the root/output mode).
    pub fn from_nd(t: &NdCooTensor, perm: &[usize]) -> Self {
        let order = t.order();
        assert_eq!(perm.len(), order, "perm length must equal order");
        {
            let mut seen = vec![false; order];
            for &p in perm {
                assert!(p < order && !seen[p], "invalid mode permutation {perm:?}");
                seen[p] = true;
            }
        }
        let mut sorted = t.clone();
        sorted.sort_and_merge(perm);

        let nnz = sorted.nnz();
        let mut fids: Vec<Vec<Idx>> = vec![Vec::new(); order];
        let mut ptrs: Vec<Vec<usize>> = vec![vec![0]; order.saturating_sub(1)];
        let mut vals = Vec::with_capacity(nnz);
        // the coordinate prefix (in perm order) of the currently open path
        let mut open: Vec<Option<Idx>> = vec![None; order];

        for n in 0..nnz {
            let c = sorted.coord(n);
            // first level where this entry's path diverges from the open one
            let mut diverge = order;
            for (l, &m) in perm.iter().enumerate() {
                if open[l] != Some(c[m]) {
                    diverge = l;
                    break;
                }
            }
            // open new nodes from the divergence level down to the leaf
            for (l, &m) in perm.iter().enumerate().skip(diverge) {
                fids[l].push(c[m]);
                open[l] = Some(c[m]);
                for o in open.iter_mut().skip(l + 1) {
                    *o = None;
                }
                if l + 1 < order {
                    // this node's children start where level l+1 currently
                    // ends plus the leaf/node we are about to create; close
                    // the boundary when the NEXT level-l node opens — i.e.
                    // record the running end now and overwrite on growth
                    ptrs[l].push(fids[l + 1].len());
                }
                if l > 0 {
                    // extend the parent's (already pushed) end boundary
                    *ptrs[l - 1].last_mut().expect("parent boundary exists") = fids[l].len();
                }
            }
            vals.push(sorted.value(n));
        }
        // every boundary list has one final end equal to the child count
        for l in 0..order.saturating_sub(1) {
            debug_assert_eq!(ptrs[l].len(), fids[l].len() + 1);
            debug_assert_eq!(*ptrs[l].last().unwrap(), fids[l + 1].len());
        }

        CsfTensor {
            dims: t.dims().to_vec(),
            perm: perm.to_vec(),
            fids,
            ptrs,
            vals,
        }
    }

    /// CSF rooted at mode `m` with the cyclic mode order `m, m+1, …`.
    pub fn for_mode(t: &NdCooTensor, m: usize) -> Self {
        let order = t.order();
        assert!(m < order, "mode out of range");
        let perm: Vec<usize> = (0..order).map(|l| (m + l) % order).collect();
        Self::from_nd(t, &perm)
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode lengths (original order).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Level-to-mode permutation.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of nodes at level `l`.
    pub fn n_nodes(&self, l: usize) -> usize {
        self.fids[l].len()
    }

    /// The mode-`perm[l]` index of node `node` at level `l`.
    #[inline]
    pub fn fid(&self, l: usize, node: usize) -> Idx {
        self.fids[l][node]
    }

    /// The children range of node `node` at level `l` (`l < order - 1`).
    #[inline]
    pub fn children(&self, l: usize, node: usize) -> std::ops::Range<usize> {
        self.ptrs[l][node]..self.ptrs[l][node + 1]
    }

    /// Leaf values.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Reconstructs the entries as a flat `(coords, vals)` pair in
    /// original mode order.
    pub fn to_nd(&self) -> NdCooTensor {
        let order = self.order();
        // nnz·order coordinates were already materialized to build self.
        let mut coords: Vec<Idx> = Vec::with_capacity(self.nnz() * order);
        let mut vals = Vec::with_capacity(self.nnz());
        let mut path = vec![0 as Idx; order];
        self.walk(0, 0..self.n_nodes(0), &mut path, &mut coords, &mut vals);
        NdCooTensor::from_flat(self.dims.clone(), coords, vals)
    }

    fn walk(
        &self,
        l: usize,
        nodes: std::ops::Range<usize>,
        path: &mut Vec<Idx>,
        coords: &mut Vec<Idx>,
        vals: &mut Vec<f64>,
    ) {
        for node in nodes {
            path[self.perm[l]] = self.fids[l][node];
            if l == self.order() - 1 {
                coords.extend_from_slice(path);
                vals.push(self.vals[node]);
            } else {
                self.walk(l + 1, self.children(l, node), path, coords, vals);
            }
        }
    }

    /// Storage bytes of this representation.
    pub fn actual_bytes(&self) -> usize {
        self.fids.iter().map(|f| f.len() * 4).sum::<usize>()
            + self.ptrs.iter().map(|p| p.len() * 8).sum::<usize>()
            + self.vals.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::uniform_nd;

    fn fig1_nd() -> NdCooTensor {
        NdCooTensor::from_flat(
            vec![3, 3, 3],
            vec![
                0, 0, 0, //
                0, 1, 1, //
                0, 1, 2, //
                1, 0, 2, //
                1, 1, 1, //
                1, 2, 2, //
                2, 0, 0,
            ],
            vec![5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0],
        )
    }

    #[test]
    fn csf3_matches_splatt_structure() {
        // with mode order (root, k, j) CSF level 1 = the fibers of Fig. 1b
        let t = CsfTensor::from_nd(&fig1_nd(), &[0, 2, 1]);
        assert_eq!(t.n_nodes(0), 3); // three non-empty slices
        assert_eq!(t.n_nodes(1), 6); // six fibers
        assert_eq!(t.nnz(), 7);
        // slice 0 has fibers k = 0, 1, 2
        let kids: Vec<Idx> = t.children(0, 0).map(|f| t.fid(1, f)).collect();
        assert_eq!(kids, vec![0, 1, 2]);
    }

    #[test]
    fn roundtrip_various_orders_and_roots() {
        for order in [2usize, 3, 4, 5] {
            let dims: Vec<usize> = (0..order).map(|m| 4 + m).collect();
            let cells: usize = dims.iter().product();
            let x = uniform_nd(&dims, 60.min(cells / 2), order as u64);
            for root in 0..order {
                let csf = CsfTensor::for_mode(&x, root);
                let back = csf.to_nd();
                assert_eq!(back, x, "order {order} root {root} round-trip failed");
            }
        }
    }

    #[test]
    fn empty_tensor() {
        let x = NdCooTensor::empty(vec![3, 4, 5, 6]);
        let csf = CsfTensor::for_mode(&x, 1);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.n_nodes(0), 0);
        assert_eq!(csf.to_nd().nnz(), 0);
    }

    #[test]
    fn single_entry() {
        let x = NdCooTensor::from_flat(vec![4, 4, 4, 4], vec![1, 2, 3, 0], vec![8.0]);
        let csf = CsfTensor::for_mode(&x, 2); // perm = [2, 3, 0, 1]
        assert_eq!(csf.n_nodes(0), 1);
        assert_eq!(csf.fid(0, 0), 3);
        assert_eq!(csf.to_nd(), x);
    }

    #[test]
    fn node_counts_decrease_up_the_tree() {
        let x = uniform_nd(&[6, 7, 8, 9], 150, 5);
        let csf = CsfTensor::for_mode(&x, 0);
        for l in 1..csf.order() {
            assert!(csf.n_nodes(l) >= csf.n_nodes(l - 1));
        }
        assert_eq!(csf.n_nodes(csf.order() - 1), csf.nnz());
    }
}

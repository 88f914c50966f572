//! The *executed* distributed MTTKRP: every rank is a thread, factor-row
//! chunks are really exchanged over the message world, local kernels really
//! run, and partial outputs are really reduced — validating both the
//! medium-grained algorithm and the α–β model's volume assumptions with
//! counted bytes.
//!
//! Protocol per mode-1 MTTKRP iteration (Section VI-D):
//!
//! 1. The owner of each mode-2 row chunk broadcasts it within its
//!    `j`-layer; same for mode-3 chunks within the `k`-layer.
//! 2. Every rank runs its local kernel on its sub-tensor.
//! 3. Partial output rows are all-reduced within each `i`-layer.
//! 4. One representative per `i`-layer ships the reduced rows to rank 0,
//!    which assembles the final factor (verification step, not part of the
//!    timed iteration).

use crate::exec::LocalKernel;
use crate::msg::{run_world, RankCtx};
use crate::part3d::Partition3D;
use tenblock_core::MttkrpKernel;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Result of one executed distributed MTTKRP.
pub struct ExecOutcome {
    /// The assembled mode-1 MTTKRP of the **relabeled** tensor
    /// (coordinates are permuted by the medium-grained relabeling; compare
    /// against a sequential MTTKRP of [`Partition3D::relabeled`]).
    pub output: DenseMatrix,
    /// Total bytes actually sent between ranks.
    pub wire_bytes: u64,
    /// Ranks in the world.
    pub n_ranks: usize,
}

/// Deterministic factor rows for global row indices `[lo, hi)` of `mode`.
fn factor_chunk(mode: usize, lo: usize, hi: usize, rank: usize, seed: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity((hi - lo) * rank);
    for row in lo..hi {
        for col in 0..rank {
            let mut h = seed ^ ((row as u64) << 20) ^ ((col as u64) << 2) ^ (mode as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0x2545f4914f6cdd1d);
            h ^= h >> 29;
            out.push((h % 997) as f64 / 997.0 - 0.5);
        }
    }
    out
}

/// The full factor matrix rank 0 would assemble — used by tests to run the
/// sequential comparison.
pub fn full_factor(mode: usize, rows: usize, rank: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::from_vec(rows, rank, factor_chunk(mode, 0, rows, rank, seed))
}

/// Executes a 3D medium-grained distributed mode-1 MTTKRP for real on
/// thread-ranks: [`execute_4d`] with a single rank-strip group.
pub fn execute_3d(
    coo: &CooTensor,
    grid: [usize; NMODES],
    rank: usize,
    local: LocalKernel,
    seed: u64,
) -> ExecOutcome {
    execute_4d(coo, grid, 1, rank, local, seed)
}

/// Executes a 4D (rank-split) distributed mode-1 MTTKRP for real: `t`
/// replica groups of `q x r x s` thread-ranks each. Group `g` runs the
/// module-level protocol on columns `strip_cols(g)` only; rank 0 assembles
/// the full output column-wise. The only cross-group traffic is the final
/// column-strip gather — the paper's "extra AllGather along the rank
/// dimension" — so `t = 1` is the plain 3D exchange.
pub fn execute_4d(
    coo: &CooTensor,
    grid3: [usize; NMODES],
    t: usize,
    rank: usize,
    local: LocalKernel,
    seed: u64,
) -> ExecOutcome {
    use crate::part4d::Partition4D;
    let part4 = Partition4D::new(coo, grid3, t, rank, seed);
    let part = Partition3D::new(coo, grid3, seed); // same seed => same layout
    let (q, r, s) = (grid3[0], grid3[1], grid3[2]);
    let p3 = q * r * s;
    let p = t * p3;
    let dims = coo.dims();
    let rank_id = |g: usize, a: usize, b: usize, c: usize| g * p3 + (a * r + b) * s + c;

    let (mut results, wire_bytes) = run_world(p, |ctx: &mut RankCtx| {
        let me = ctx.rank();
        let g = me / p3;
        let m3 = me % p3;
        let (a, b, c) = (m3 / (r * s), (m3 / s) % r, m3 % s);
        let cols = part4.strip_cols(g);
        let w = cols.len();

        // factor-chunk broadcasts within the replica group, strip columns
        // only (full-width rows are generated, then windowed: ownership of
        // the column strips is what the 4D scheme distributes)
        let (jb_lo, jb_hi) = (part.bounds(1)[b], part.bounds(1)[b + 1]);
        let strip_of = |mode: usize, lo: usize, hi: usize| -> Vec<f64> {
            let full = factor_chunk(mode, lo, hi, rank, seed);
            let mut out = Vec::with_capacity((hi - lo) * w);
            for row in 0..hi - lo {
                out.extend_from_slice(&full[row * rank + cols.start..row * rank + cols.end]);
            }
            out
        };
        let b_chunk = if (a, c) == (0, 0) {
            let data = strip_of(1, jb_lo, jb_hi);
            for aa in 0..q {
                for cc in 0..s {
                    if (aa, cc) != (0, 0) {
                        ctx.send(rank_id(g, aa, b, cc), 100 + b as u64, data.clone());
                    }
                }
            }
            data
        } else {
            ctx.recv(rank_id(g, 0, b, 0), 100 + b as u64)
        };
        let (kc_lo, kc_hi) = (part.bounds(2)[c], part.bounds(2)[c + 1]);
        let c_chunk = if (a, b) == (0, 0) {
            let data = strip_of(2, kc_lo, kc_hi);
            for aa in 0..q {
                for bb in 0..r {
                    if (aa, bb) != (0, 0) {
                        ctx.send(rank_id(g, aa, bb, c), 200 + c as u64, data.clone());
                    }
                }
            }
            data
        } else {
            ctx.recv(rank_id(g, 0, 0, c), 200 + c as u64)
        };

        let mut bmat = DenseMatrix::zeros(dims[1], w);
        bmat.as_mut_slice()[jb_lo * w..jb_hi * w].copy_from_slice(&b_chunk);
        let mut cmat = DenseMatrix::zeros(dims[2], w);
        cmat.as_mut_slice()[kc_lo * w..kc_hi * w].copy_from_slice(&c_chunk);
        let amat = DenseMatrix::zeros(dims[0], w);

        let local_t = part.local(m3);
        let mut out = DenseMatrix::zeros(dims[0], w);
        if local_t.nnz() > 0 {
            let kernel = local.build(local_t, w);
            kernel.mttkrp(&[&amat, &bmat, &cmat], &mut out);
        }

        // reduce partial rows within this replica's i-layer
        let (ia_lo, ia_hi) = (part.bounds(0)[a], part.bounds(0)[a + 1]);
        let mine: Vec<f64> = out.as_slice()[ia_lo * w..ia_hi * w].to_vec();
        let layer: Vec<usize> = (0..r)
            .flat_map(|bb| (0..s).map(move |cc| rank_id(g, a, bb, cc)))
            .collect();
        let reduced = ctx.allreduce_sum(&layer, 300 + a as u64, mine);

        // layer representatives ship their (strip-wide) chunk to rank 0
        if (b, c) == (0, 0) && me != 0 {
            ctx.send(0, 400 + (g * q + a) as u64, reduced.clone());
        }
        if me == 0 {
            let mut assembled = DenseMatrix::zeros(dims[0], rank);
            for gg in 0..t {
                let gcols = part4.strip_cols(gg);
                let gw = gcols.len();
                for aa in 0..q {
                    let (lo, hi) = (part.bounds(0)[aa], part.bounds(0)[aa + 1]);
                    let chunk = if (gg, aa) == (g, a) {
                        reduced.clone()
                    } else {
                        ctx.recv(rank_id(gg, aa, 0, 0), 400 + (gg * q + aa) as u64)
                    };
                    for (row_off, row) in (lo..hi).enumerate() {
                        assembled.row_mut(row)[gcols.clone()]
                            .copy_from_slice(&chunk[row_off * gw..(row_off + 1) * gw]);
                    }
                }
            }
            Some(assembled)
        } else {
            None
        }
    });

    let output = results.remove(0).expect("rank 0 assembles the output");
    ExecOutcome {
        output,
        wire_bytes,
        n_ranks: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_core::mttkrp::dense_mttkrp;
    use tenblock_tensor::gen::uniform_tensor;

    fn sequential_reference(
        part_seed: u64,
        x: &CooTensor,
        grid: [usize; NMODES],
        rank: usize,
    ) -> DenseMatrix {
        let part = Partition3D::new(x, grid, part_seed);
        let rel = part.relabeled();
        let dims = x.dims();
        let a = full_factor(0, dims[0], rank, part_seed);
        let b = full_factor(1, dims[1], rank, part_seed);
        let c = full_factor(2, dims[2], rank, part_seed);
        dense_mttkrp(&rel, &[&a, &b, &c], 0)
    }

    #[test]
    fn executed_3d_matches_sequential() {
        let x = uniform_tensor([18, 16, 14], 500, 4);
        for grid in [[1, 1, 1], [2, 2, 2], [3, 1, 2], [1, 4, 1]] {
            let out = execute_3d(&x, grid, 6, LocalKernel::Baseline, 77);
            let expect = sequential_reference(77, &x, grid, 6);
            assert!(
                expect.approx_eq(&out.output, 1e-9),
                "grid {grid:?}: max diff {}",
                expect.max_abs_diff(&out.output)
            );
        }
    }

    #[test]
    fn executed_3d_blocked_local_matches() {
        let x = uniform_tensor([20, 24, 18], 800, 9);
        let out = execute_3d(
            &x,
            [2, 2, 1],
            8,
            LocalKernel::Blocked {
                grid: [2, 2, 2],
                strip: 8,
            },
            5,
        );
        let expect = sequential_reference(5, &x, [2, 2, 1], 8);
        assert!(expect.approx_eq(&out.output, 1e-9));
    }

    #[test]
    fn executed_4d_matches_sequential() {
        let x = uniform_tensor([16, 15, 14], 450, 12);
        for (grid3, t) in [
            ([2, 1, 1], 2),
            ([1, 2, 1], 3),
            ([2, 2, 1], 2),
            ([1, 1, 1], 4),
        ] {
            let out = execute_4d(&x, grid3, t, 8, LocalKernel::Baseline, 21);
            let expect = sequential_reference(21, &x, grid3, 8);
            assert!(
                expect.approx_eq(&out.output, 1e-9),
                "grid {grid3:?} t={t}: max diff {}",
                expect.max_abs_diff(&out.output)
            );
            assert_eq!(out.n_ranks, t * grid3.iter().product::<usize>());
        }
    }

    #[test]
    fn executed_4d_blocked_local_matches() {
        let x = uniform_tensor([18, 20, 16], 700, 2);
        let out = execute_4d(
            &x,
            [2, 1, 2],
            2,
            12,
            LocalKernel::Blocked {
                grid: [2, 2, 2],
                strip: 4,
            },
            9,
        );
        let expect = sequential_reference(9, &x, [2, 1, 2], 12);
        assert!(expect.approx_eq(&out.output, 1e-9));
    }

    #[test]
    fn wire_bytes_grow_with_grid() {
        let x = uniform_tensor([30, 30, 30], 1_000, 2);
        let single = execute_3d(&x, [1, 1, 1], 8, LocalKernel::Baseline, 3);
        let eight = execute_3d(&x, [2, 2, 2], 8, LocalKernel::Baseline, 3);
        assert_eq!(single.wire_bytes, 0, "one rank should not communicate");
        assert!(eight.wire_bytes > 0);
        assert_eq!(eight.n_ranks, 8);
    }

    /// Bytes the module-level protocol puts on the wire for a 3D `grid` at
    /// factor width `rank`, from the partition's chunk bounds alone.
    fn protocol_bytes(part: &Partition3D, grid: [usize; NMODES], rank: usize) -> u64 {
        let [q, r, s] = grid.map(|g| g as u64);
        let row = 8 * rank as u64;
        let chunk = |m: usize, i: usize| (part.bounds(m)[i + 1] - part.bounds(m)[i]) as u64 * row;
        // step 1: the owner of a B (C) chunk sends it to the rest of its
        // j-layer (k-layer)
        let b_bytes: u64 = (0..grid[1]).map(|b| (q * s - 1) * chunk(1, b)).sum();
        let c_bytes: u64 = (0..grid[2]).map(|c| (q * r - 1) * chunk(2, c)).sum();
        // step 3: each of an i-layer's r*s ranks sends its chunk to the others
        let a_bytes: u64 = (0..grid[0])
            .map(|a| r * s * (r * s - 1) * chunk(0, a))
            .sum();
        // step 4: every layer's representative but rank 0 itself ships to rank 0
        let gather_bytes: u64 = (1..grid[0]).map(|a| chunk(0, a)).sum();
        b_bytes + c_bytes + a_bytes + gather_bytes
    }

    #[test]
    fn wire_volume_matches_protocol_accounting() {
        let x = uniform_tensor([10, 12, 8], 200, 6);
        for grid in [[2, 2, 1], [3, 1, 2], [2, 2, 2]] {
            let out = execute_3d(&x, grid, 4, LocalKernel::Baseline, 11);
            let part = Partition3D::new(&x, grid, 11);
            assert_eq!(out.wire_bytes, protocol_bytes(&part, grid, 4), "{grid:?}");
        }
    }

    /// A 3D grid reached through the 4D entry point moves the 3D protocol's
    /// bytes and no more: one strip group has nobody to gather columns from.
    #[test]
    fn executed_4d_t1_moves_the_3d_protocol_bytes() {
        let x = uniform_tensor([14, 14, 14], 350, 8);
        let grid = [2, 2, 1];
        let out = execute_4d(&x, grid, 1, 6, LocalKernel::Baseline, 4);
        let part = Partition3D::new(&x, grid, 4);
        assert_eq!(out.wire_bytes, protocol_bytes(&part, grid, 6));
        assert_eq!(out.n_ranks, 4);
    }
}

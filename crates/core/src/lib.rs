//! # tenblock-core
//!
//! The paper's primary contribution: sparse MTTKRP kernels with the blocking
//! optimizations of *Choi et al., IPDPS 2018* — multi-dimensional blocking
//! (MB, Section V-A), rank blocking with register blocking (RankB,
//! Section V-B / Algorithm 2), their combination, and the block-size
//! selection heuristic (Section V-C).
//!
//! ## Kernels
//!
//! | `KernelKind` | Paper section | Type |
//! |---|---|---|
//! | `Coo` | III-C1 | [`mttkrp::CooKernel`], coordinate-format reference |
//! | `Splatt` | Algorithm 1 | [`block::BlockedKernel`], no grid, no strips — the baseline |
//! | `Mb` | V-A | [`block::BlockedKernel`] over an `N_A x N_B x N_C` grid |
//! | `RankB` | V-B / Algorithm 2 | [`block::BlockedKernel`] with rank strips + register blocking in its fiber-dense blocks |
//! | `MbRankB` | V-B, Fig. 3b | [`block::BlockedKernel`] with both |
//! | `Csf` | ref. [12] | another name for `RankB` (over three modes CSF is SPLATT's layout) |
//! | `Bcoo` | V-A as a layout | another name for `MbRankB` |
//!
//! The paper's Algorithm 2 is one loop nest — grid blocks ⊃ rank strips ⊃
//! fibers — and SPLATT, MB and RankB are its parameter settings, so one
//! kernel type runs all four. Whether a block is walked once per strip is
//! decided per block, from its nonzeros per fiber. Block-native
//! coordinates (BCOO) are how the tile store keeps a tensor on disk; the
//! streaming driver ([`StreamingMttkrp`]) builds each tile into its block
//! and runs the same per-block loop, so `Bcoo` names no kernel of its own.
//!
//! ## Quick example
//!
//! ```
//! use tenblock_tensor::{gen::uniform_tensor, DenseMatrix};
//! use tenblock_core::{MttkrpKernel, block::BlockedKernel};
//!
//! let x = uniform_tensor([60, 50, 40], 2_000, 7);
//! let rank = 24;
//! let factors: Vec<DenseMatrix> = x
//!     .dims()
//!     .iter()
//!     .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 31 + c) % 7) as f64 * 0.25))
//!     .collect();
//! let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
//!
//! let baseline = BlockedKernel::new(&x, 0, None, None);
//! let blocked = BlockedKernel::new(&x, 0, Some([2, 2, 2]), Some(16));
//! let mut a0 = DenseMatrix::zeros(x.dims()[0], rank);
//! let mut a1 = DenseMatrix::zeros(x.dims()[0], rank);
//! baseline.mttkrp(&fs, &mut a0);
//! blocked.mttkrp(&fs, &mut a1);
//! assert!(a0.approx_eq(&a1, 1e-10));
//! ```

// Index loops are the clearer idiom for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
// `unsafe` in the crate, four items, each with its own `allow` and a
// `// SAFETY:` comment: `mttkrp::prefetch_row` (a prefetch hint, which
// cannot fault), and the three dispatch functions of the sparse loops
// (`mttkrp::process_block_plain`, `mttkrp::process_block_rankb`,
// `mttkrp::coo::coo_rows`), whose `unsafe` calls to `#[target_feature]`
// entry points rest on the `is_x86_feature_detected!` check behind every
// [`isa::Isa`] above the baseline. Anything else is an error.
#![deny(unsafe_code)]
// Production paths return typed errors; waivers are `#[expect]`s with a
// reason (`clippy.toml` exempts tests).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(missing_docs)]

pub mod block;
pub mod check;
pub mod exec;
pub mod isa;
pub mod kernel;
pub mod mttkrp;
pub mod stream;
pub mod timing;
pub mod tune;

pub use block::build_layout;
pub use check::RaceReport;
pub use exec::{ExecPolicy, Threads};
pub use kernel::{
    build_kernel, try_build_kernel, try_build_kernel_with, KernelConfig, KernelError, KernelKind,
    MttkrpKernel,
};
pub use stream::{stream_sq_norm, StreamError, StreamingMttkrp};
pub use tune::{try_tune, try_tune_unblocked, tune, TuneError, TuneOptions, TuneResult};

// Re-export the observability vocabulary so downstream crates don't need a
// direct tenblock-obs dependency to attach a recorder.
pub use tenblock_obs as obs;

//! # tenblock-dist
//!
//! The distributed MTTKRP of Section VI-D, as a *simulated* distributed
//! runtime: the paper ran on a 64-node POWER8 cluster over MPI; here each
//! MPI rank's local computation is executed for real on this machine, and
//! network time is supplied by an α–β communication model. Strong-scaling
//! shape is determined by (a) per-rank nonzero counts after partitioning,
//! (b) per-iteration communication volume of the partition, and (c) the
//! local kernel — all three of which are computed exactly; only the wire
//! constants are modeled.
//!
//! * [`comm`] — α–β cost models for point-to-point and the collectives the
//!   decomposition needs (AllGather, Reduce-Scatter).
//! * [`part3d`] — the medium-grained decomposition of Smith & Karypis
//!   (random mode permutation + greedy nnz-balanced slice chunking into a
//!   `q x r x s` processor grid), as described in Section VI-D.
//! * [`part4d`] — the paper's 4D partitioning: processors split into `t`
//!   rank-strips x a 3D grid of `p/t`, with `t` tensor replicas and an
//!   extra AllGather along the rank dimension.
//! * [`exchange`] — one MTTKRP's data movement as a list of collectives:
//!   priced for Table III, and run on counted thread-ranks by
//!   [`ExchangeKernel`], an `MttkrpKernel` that CP-ALS runs unchanged.
//! * [`exec`] — Table III's rows: the largest rank's local MTTKRP timed
//!   for real plus the priced exchange, with the grid auto-search.

#![forbid(unsafe_code)]

pub mod comm;
pub mod exchange;
pub mod exec;
mod msg;
pub mod part3d;
pub mod part4d;

pub use comm::CommParams;
pub use exchange::{Exchange, ExchangeKernel};
pub use exec::{best_3d, best_4d, run_3d, run_4d, DistConfig, DistResult, LocalKernel};
pub use part3d::Partition3D;
pub use part4d::Partition4D;

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
//!   extra (cheap) AllGather along the rank dimension.
//! * [`exec`] — runs every rank's local MTTKRP, validates that the
//!   partition reassembles to the sequential result, and produces the
//!   Table III rows (grid auto-search included).

//! * [`msg`] / [`mpi_exec`] — a thread-backed message-passing world and an
//!   *executed* (not modeled) distributed MTTKRP on top of it: factor
//!   chunks are really exchanged, partials really reduced, and wire bytes
//!   really counted — validating the α–β model's volume assumptions.

// Index-based loops are the clearer idiom for the numeric code in this
// crate (triangular solves, coordinate walks); silence the style lint.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod als_dist;
pub mod comm;
pub mod exec;
pub mod mpi_exec;
pub mod msg;
pub mod part3d;
pub mod part4d;

pub use als_dist::{distributed_als, sequential_als_reference, DistAlsOptions, DistAlsResult};
pub use comm::CommParams;
pub use exec::{best_3d, best_4d, run_3d, run_4d, DistConfig, DistResult, LocalKernel};
pub use mpi_exec::{execute_3d, execute_4d, ExecOutcome};
pub use part3d::Partition3D;
pub use part4d::Partition4D;

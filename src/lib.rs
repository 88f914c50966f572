//! # tenblock
//!
//! Facade crate for the `tenblock` workspace — a reproduction of
//! *Choi, Liu, Smith, Simon, "Blocking Optimization Techniques for Sparse
//! Tensor Computation", IPDPS 2018*.
//!
//! Re-exports every member crate under a stable path:
//!
//! * [`tensor`] — sparse tensor formats, generators, I/O ([`tenblock_tensor`])
//! * [`core`] — MTTKRP kernels with multi-dimensional / rank / register
//!   blocking ([`tenblock_core`])
//! * [`analysis`] — roofline model, cache simulator, pressure-point analysis
//!   ([`tenblock_analysis`])
//! * [`cpd`] — CP-ALS tensor decomposition ([`tenblock_cpd`])
//! * [`dist`] — simulated distributed MTTKRP with 3D/4D partitioning
//!   ([`tenblock_dist`])
//! * [`check`] — race detection, blocking-invariant oracles, workspace lint
//!   ([`tenblock_check`])
//! * [`fuzz`] — structure-aware differential fuzzer for the input boundary
//!   ([`tenblock_fuzz`])
//! * [`faults`] — deterministic fault-injection plane for every disk
//!   touchpoint ([`tenblock_faults`])
//! * [`serve`] — in-process decomposition service with spill tier and
//!   plan cache ([`tenblock_serve`])
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;

pub use tenblock_analysis as analysis;
pub use tenblock_check as check;
pub use tenblock_core as core;
pub use tenblock_cpd as cpd;
pub use tenblock_dist as dist;
pub use tenblock_faults as faults;
pub use tenblock_fuzz as fuzz;
pub use tenblock_serve as serve;
pub use tenblock_tensor as tensor;

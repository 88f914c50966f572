//! # tenblock-cpd
//!
//! Canonical polyadic decomposition (CP-ALS) built on the blocked MTTKRP
//! kernels of `tenblock-core`.
//!
//! MTTKRP is "the most expensive part of tensor decompositions"
//! (Section III-B of the paper); CPD is the application context that makes
//! the blocking work pay off: each mode's MTTKRP runs once per ALS
//! iteration, 10–1000s of times per decomposition, amortizing the one-time
//! blocking reorganization.
//!
//! * [`linalg`] — the dense algebra ALS needs (gram matrices, Hadamard
//!   products, Cholesky row solves with a ridge fallback). `R x R` systems,
//!   but `n x R` operands with `n` a mode length, so the `O(n R²)` routines
//!   are written for the vector units.
//! * [`kruskal`] — the Kruskal-form result (`λ` + factor matrices), norms,
//!   inner products and fit against a sparse tensor.
//! * [`als`] — the CP-ALS driver, generic over any
//!   [`tenblock_core::MttkrpKernel`]; [`als_stream`] runs the same loop over
//!   a streamed MTTKRP.

//! * [`apr`] — CP-APR, the Poisson (KL-divergence) factorization of
//!   Chi & Kolda used on count data like the paper's Poisson tensors; each
//!   multiplicative update is a value-scaled MTTKRP, so the blocking
//!   kernels apply verbatim.

// Index-based loops are the clearer idiom for the numeric code in this
// crate (triangular solves, coordinate walks); silence the style lint.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod als;
pub mod als_stream;
pub mod apr;
pub mod gcp;
pub mod kruskal;
pub mod linalg;

pub use als::{CpAls, CpAlsOptions, CpAlsResult};
pub use als_stream::CpAlsStream;
pub use apr::{cp_apr, CpAprOptions, CpAprResult};
pub use gcp::{cp_gradient, cp_gradient_descent, GcpOptions, GcpResult};
pub use kruskal::KruskalTensor;

//! # tenblock-analysis
//!
//! The performance-analysis half of the paper (Section IV):
//!
//! * [`roofline`] — Equations (1)–(3): data traffic `Q`, flop count `W`, and
//!   arithmetic intensity `I(R, α)` of the SPLATT MTTKRP kernel, plus the
//!   Figure 2 series generator.
//! * [`cache`] — a set-associative LRU multi-level cache simulator with a
//!   POWER8 preset (64 KiB / 512 KiB, 128-byte lines). This substitutes for
//!   the paper's PMU measurements: it *measures* the cache hit rate `α`
//!   that Equation (1) treats as a free parameter.
//! * [`trace`] — walks the exact memory-access sequence of the baseline and
//!   blocked kernels through the simulator, producing per-structure hit
//!   rates (tensor stream, factor B, factor C, output A).
//! * [`ppa`] — the pressure-point analysis of Table I: the five code
//!   transformations (remove B, pin B to one row, register accumulator,
//!   remove C, move flops inward) implemented as real kernel variants and
//!   timed against the unchanged kernel.

//! * [`tune_model`] — the paper's future-work autotuner: block-size
//!   selection driven by the cache simulator's predicted memory traffic
//!   instead of wall-clock timing.

#![forbid(unsafe_code)]

/// Re-export of the observability crate: recorders, spans, and the
/// [`obs::KernelCounters`] model the kernels report against (the same
/// quantities [`roofline`] predicts).
pub use tenblock_obs as obs;

pub mod cache;
pub mod ppa;
pub mod roofline;
pub mod trace;
pub mod tune_model;

pub use cache::{CacheConfig, CacheSim, LevelStats};
pub use ppa::{run_ppa, PpaResult, PpaVariant};
pub use roofline::{arithmetic_intensity, fig2_series, MachineBalance, RooflineInputs};
pub use trace::{trace_kernel, Stream, TraceKernel, TraceReport};
pub use tune_model::{tune_by_model, ModelTuneOptions, ModelTuneResult};

//! # tenblock-tensor
//!
//! Sparse tensor substrate for the `tenblock` project: storage formats,
//! dense factor matrices, I/O, and synthetic data generators.
//!
//! This crate provides everything below the MTTKRP kernels:
//!
//! * [`CooTensor`] — the coordinate format of Figure 1a of the paper,
//! * [`SplattTensor`] — the fiber-compressed SPLATT format of Figure 1b,
//! * [`BcooTensor`] — block-native coordinate storage: a table of nonempty
//!   blocks, each a mini-tensor of byte-wide local offsets (Section V-A as
//!   a data layout rather than an iteration order),
//! * [`DenseMatrix`] — row-major factor matrices,
//! * [`io`] — FROSTT `.tns` reading/writing,
//! * [`gen`] — the synthetic Poisson / clustered / uniform generators used to
//!   stand in for the paper's data sets (Table II),
//! * [`stats`] — data-set statistics (dimensions, nonzeros, fibers, sparsity).
//!
//! All tensors in this crate are 3-mode, matching the paper's experimental
//! focus ("we focus our optimization efforts on the SPLATT format and 3D
//! data"). Coordinates are stored as `u32` ([`Idx`]), values as `f64`.

// Index-based loops are the clearer idiom for the numeric code in this
// crate (triangular solves, coordinate walks); silence the style lint.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod bcoo;
pub mod coo;
pub mod csf;
pub mod dense;
pub mod fiber_sort;
pub mod gen;
pub mod io;
pub mod io_bin;
pub mod nd;
pub mod persist;
pub mod reorder;
pub mod source;
pub mod splatt;
pub mod stats;
pub mod tile_store;
pub mod validate;

pub use bcoo::BcooTensor;
pub use coo::{CooTensor, Entry, TensorError};
pub use csf::CsfTensor;
pub use dense::DenseMatrix;
pub use fiber_sort::{FiberCols, FiberSorter};
pub use nd::NdCooTensor;
pub use persist::{atomic_write, atomic_write_with, AtomicFile};
pub use source::{BcooSource, CooSource, SourceTile, TensorSource};
pub use splatt::SplattTensor;
pub use stats::TensorStats;
pub use tile_store::{TileMeta, TileStore};

/// Coordinate index type. `u32` comfortably covers every data set in the
/// paper (largest mode length: 4.8M for Amazon) while halving index traffic
/// relative to `usize`.
pub type Idx = u32;

/// Number of modes; the crate is specialized to 3-mode tensors.
pub const NMODES: usize = 3;

//! # tenblock-serve
//!
//! Long-lived, in-process decomposition service over the `tenblock`
//! kernels. Loading a tensor, sorting it into the kernels' layouts, and
//! tuning block sizes are all front-loaded costs that a one-shot CLI pays
//! on every invocation; this crate keeps them resident:
//!
//! * [`registry`] — named tensors, loaded or generated once, shared
//!   (`Arc`) across concurrent jobs with precomputed stats and the
//!   per-mode layouts every fibered kernel runs over,
//! * [`plan_cache`] — memoized Section V-C tuning decisions keyed by
//!   tensor shape fingerprint × rank, persisted as JSON,
//! * [`scheduler`] — a bounded job queue in front of a fixed worker pool,
//!   with typed queue-full rejection, per-job deadlines, and cancellation,
//! * [`metrics`] — atomic counters and latency histograms,
//! * [`proto`] — the request/response vocabulary, transport-independent,
//! * [`server`] — line-delimited JSON over TCP (`tenblock serve`),
//! * [`json`] — the self-contained JSON value type used by all of the
//!   above (the build is offline; no serde).

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod plan_cache;
pub mod proto;
pub mod registry;
pub mod scheduler;
pub mod server;
mod sync;

pub use json::Json;
pub use metrics::{FaultCounters, FaultSnapshot, LayoutCounters, Metrics, MetricsSnapshot};
pub use plan_cache::{PlanCache, PlanKey, TunedPlan};
pub use proto::{ErrorCode, Service, PROTOCOL_VERSION};
pub use registry::{Registry, RegistryError, TensorEntry};
pub use scheduler::{JobId, JobState, Scheduler, SubmitError};
pub use server::{Server, ServerConfig};

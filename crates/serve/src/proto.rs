//! Wire protocol: request parsing, dispatch, and response shaping.
//!
//! Transport-independent on purpose: [`Service::handle`] maps one request
//! [`Json`] value to one response [`Json`] value, so the whole protocol is
//! testable without a socket. `server.rs` wraps this in line-delimited
//! JSON over TCP.
//!
//! Every response carries `"ok"` and the protocol version `"v"`
//! ([`PROTOCOL_VERSION`], currently 1). Errors add `"error"`
//! (human-readable) and `"code"` (machine-readable, one of
//! [`ErrorCode`]). Long-running commands (`tune`, `mttkrp`, `decompose`)
//! submit a job and return its id; pass `"wait": true` to block for the
//! result inline (waits are clamped to [`DEFAULT_WAIT`]).

use crate::json::Json;
use crate::metrics::Metrics;
use crate::plan_cache::{PlanCache, PlanKey, TunedPlan};
use crate::registry::{Registry, RegistryError};
use crate::scheduler::{CancelError, JobId, JobState, Scheduler, SubmitError};
use crate::sync::{Leveled, LAST_TRACE};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tenblock_core::obs::{Rec, TraceRecorder};
use tenblock_core::{try_tune_unblocked, ExecPolicy, KernelConfig, KernelKind, TuneOptions};
use tenblock_cpd::{cp_apr, CpAls, CpAlsOptions, CpAprOptions};
use tenblock_tensor::{DenseMatrix, NMODES};

/// Wire protocol version, carried as `"v"` on every response. Bump it on
/// any change a deployed client could observe (renamed/removed fields,
/// changed semantics); purely additive fields keep the version.
pub const PROTOCOL_VERSION: usize = 1;

/// Default block time for `"wait": true` requests, and the upper bound any
/// client-supplied wait is clamped to (a connection must not be able to
/// park a protocol thread indefinitely).
pub const DEFAULT_WAIT: Duration = Duration::from_secs(600);

/// Machine-readable error codes, serialized into the `"code"` field from
/// exactly one place ([`ErrorCode::as_str`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or incomplete request.
    BadRequest,
    /// Unrecognized `"cmd"`.
    UnknownCmd,
    /// Named tensor or job does not exist.
    NotFound,
    /// The bounded job queue is at capacity.
    QueueFull,
    /// The request was well-formed but the tensor bytes are malformed
    /// (parse/format failure in the `.tns` / `.tnsb` readers).
    InvalidTensor,
    /// The request was well-formed but a parameter is semantically invalid
    /// for the computation (rank 0, mode out of range).
    InvalidConfig,
    /// A spilled tensor's on-disk store failed validation on reload and
    /// was quarantined; the data is unavailable until re-registered.
    SpillCorrupt,
    /// Server-side failure not attributable to the request.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownCmd => "unknown-cmd",
            ErrorCode::NotFound => "not-found",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::InvalidTensor => "invalid-tensor",
            ErrorCode::InvalidConfig => "invalid-config",
            ErrorCode::SpillCorrupt => "spill-corrupt",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Work accepted into the job queue.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// Run the Section V-C heuristic (through the plan cache).
    Tune {
        tensor: String,
        rank: usize,
        reps: usize,
        max_blocks: usize,
    },
    /// Time one mode's MTTKRP with a chosen kernel.
    Mttkrp {
        tensor: String,
        mode: usize,
        kernel: KernelKind,
        rank: usize,
        reps: usize,
    },
    /// Run CP-ALS or CP-APR.
    Decompose {
        tensor: String,
        method: Method,
        rank: usize,
        iters: usize,
        kernel: KernelKind,
    },
}

/// Decomposition algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Alternating least squares.
    Als,
    /// Poisson alternating regression (KL loss).
    Apr,
}

/// Shared read-mostly state: everything the job runner and the protocol
/// handler both touch.
pub struct ServiceCore {
    /// Resident tensors.
    pub registry: Registry,
    /// Memoized tuning plans.
    pub plans: PlanCache,
    /// Service counters.
    pub metrics: Arc<Metrics>,
    /// Span tree of the most recently finished job, served by the `trace`
    /// command. One job's worth is kept: the trace is a debugging aid, not
    /// a log.
    pub(crate) last_trace: Leveled<Mutex<Option<(JobId, Json)>>, LAST_TRACE>,
}

/// The in-process service: core state plus the job scheduler.
pub struct Service {
    core: Arc<ServiceCore>,
    scheduler: Scheduler<JobPayload, Json>,
}

/// The largest rank a request may ask for: twice the largest rank of the
/// paper's Figure 4. Factor matrices are `dims[m] x rank`, so an
/// unbounded rank lets one request ask a worker for more memory than the
/// machine has.
pub const MAX_RANK: usize = 1024;

/// The largest `nnz` a served `gen` may ask for: 2^26, over 50 times the
/// largest data-set analogue's default (1.2M nonzeros). A generator
/// reserves room for every entry before it draws one (24 bytes each,
/// 1.5 GiB at the cap), and a failed allocation aborts the whole server
/// rather than failing the request, so an unbounded `nnz` from the socket
/// could take the service down.
pub const MAX_GEN_NNZ: usize = 1 << 26;

/// Rejects a rank no computation can use (0 means no factor columns) or
/// above [`MAX_RANK`]. Checked at parse time so the job queue never sees
/// the request.
fn require_rank(cmd: &str, rank: usize) -> Result<usize, Json> {
    if rank == 0 || rank > MAX_RANK {
        return Err(err(
            ErrorCode::InvalidConfig,
            format!("{cmd}: rank must be in 1..={MAX_RANK}, got {rank}"),
        ));
    }
    Ok(rank)
}

/// Rejects a mode that names no tensor axis.
fn require_mode(cmd: &str, mode: usize) -> Result<usize, Json> {
    if mode >= NMODES {
        return Err(err(
            ErrorCode::InvalidConfig,
            format!("{cmd}: mode {mode} out of range (0..{NMODES})"),
        ));
    }
    Ok(mode)
}

/// Shapes an error response. Also used by the TCP front-end for
/// parse-level errors, so every error on the wire goes through here.
pub(crate) fn err(code: ErrorCode, msg: impl Into<String>) -> Json {
    Json::obj([
        ("v", Json::usize(PROTOCOL_VERSION)),
        ("ok", Json::Bool(false)),
        ("code", Json::str(code.as_str())),
        ("error", Json::str(msg.into())),
    ])
}

fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut o = Json::obj([
        ("v", Json::usize(PROTOCOL_VERSION)),
        ("ok", Json::Bool(true)),
    ]);
    if let Json::Obj(map) = &mut o {
        for (k, v) in fields {
            map.insert(k.to_string(), v);
        }
    }
    o
}

fn registry_err(e: RegistryError) -> Json {
    match e {
        RegistryError::NotFound(_) => err(ErrorCode::NotFound, e.to_string()),
        RegistryError::InvalidTensor(_) => err(ErrorCode::InvalidTensor, e.to_string()),
        RegistryError::SpillCorrupt(_) => err(ErrorCode::SpillCorrupt, e.to_string()),
        RegistryError::Exists(_) | RegistryError::Load(_) => {
            err(ErrorCode::BadRequest, e.to_string())
        }
    }
}

/// Executes one job payload against the shared core. Runs on a worker
/// thread; the returned JSON becomes the job's `Done` result.
///
/// Every job runs under its own [`TraceRecorder`]; the finished span tree
/// replaces [`ServiceCore::last_trace`] whether the job succeeded or not.
fn run_job(core: &ServiceCore, id: JobId, payload: JobPayload) -> Result<Json, String> {
    let tracer = Arc::new(TraceRecorder::new());
    let rec = Rec::new(Arc::clone(&tracer) as _);
    let result = run_traced(core, &rec, payload);
    let tree = Json::parse(&tracer.to_span_tree_json())
        .unwrap_or_else(|e| err(ErrorCode::Internal, format!("trace serialization: {e}")));
    *crate::sync::lock(&core.last_trace) = Some((id, tree));
    result
}

fn run_traced(core: &ServiceCore, rec: &Rec, payload: JobPayload) -> Result<Json, String> {
    match payload {
        JobPayload::Tune {
            tensor,
            rank,
            reps,
            max_blocks,
        } => {
            let _span = rec.span("job/tune");
            let entry = core.registry.get(&tensor).map_err(|e| e.to_string())?;
            let key = PlanKey {
                fingerprint: entry.fingerprint,
                rank,
            };
            let (plan, cached) = core
                .plans
                .get_or_try_compute::<String, _>(key, || {
                    let mut opts = TuneOptions::new(rank);
                    opts.reps = reps;
                    opts.max_blocks = max_blocks;
                    opts.exec = ExecPolicy::serial().with_recorder(rec.clone());
                    // Degenerate tensors (empty, zero-length mode) fail the
                    // job with a typed message instead of panicking a worker.
                    // Over the held unblocked layout: the tune sorts nothing.
                    let r = try_tune_unblocked(entry.unblocked(0), &opts)
                        .map_err(|e| format!("tune: {e}"))?;
                    Ok(TunedPlan {
                        kernel: KernelKind::MbRankB.as_str().to_string(),
                        grid: r.grid,
                        strip_width: r.strip_width,
                        best_secs: r.best_secs,
                    })
                })
                .map_err(|e| format!("plan cache write failed: {e}"))??;
            if cached {
                core.metrics.plan_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                core.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Json::obj([
                ("tensor", Json::str(tensor)),
                ("rank", Json::usize(rank)),
                ("kernel", Json::str(plan.kernel.clone())),
                (
                    "grid",
                    Json::Arr(plan.grid.iter().map(|&g| Json::usize(g)).collect()),
                ),
                ("strip_width", Json::usize(plan.strip_width)),
                ("best_secs", Json::num(plan.best_secs)),
                ("cached", Json::Bool(cached)),
            ]))
        }
        JobPayload::Mttkrp {
            tensor,
            mode,
            kernel,
            rank,
            reps,
        } => {
            let _span = rec.span("job/mttkrp");
            let entry = core.registry.get(&tensor).map_err(|e| e.to_string())?;
            // Use the tuned plan when one is cached for this shape+rank;
            // otherwise the kernel defaults.
            let mut cfg = core
                .plans
                .lookup(PlanKey {
                    fingerprint: entry.fingerprint,
                    rank,
                })
                .map(|p| KernelConfig {
                    grid: p.grid,
                    strip_width: p.strip_width,
                    ..Default::default()
                })
                .unwrap_or_default();
            cfg.exec = ExecPolicy::serial().with_recorder(rec.clone());
            // Over the entry's shared layout: only the first request for a
            // plan's grid sorts the tensor.
            let k = entry
                .kernel(kernel, mode, &cfg)
                .map_err(|e| e.to_string())?;
            let dims = entry.coo.dims();
            let factors: Vec<DenseMatrix> = dims
                .iter()
                .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 7 + c) % 11) as f64 * 0.1))
                .collect();
            let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
            let mut out = DenseMatrix::zeros(dims[mode], rank);
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                k.mttkrp(&fs, &mut out);
                let secs = t0.elapsed().as_secs_f64();
                core.metrics.mttkrp_latency.observe(secs);
                best = best.min(secs);
            }
            Ok(Json::obj([
                ("tensor", Json::str(tensor)),
                ("mode", Json::usize(mode)),
                ("kernel", Json::str(k.name())),
                ("rank", Json::usize(rank)),
                ("best_secs", Json::num(best)),
            ]))
        }
        JobPayload::Decompose {
            tensor,
            method,
            rank,
            iters,
            kernel,
        } => {
            let _span = rec.span("job/decompose");
            let entry = core.registry.get(&tensor).map_err(|e| e.to_string())?;
            let mut cfg = core
                .plans
                .lookup(PlanKey {
                    fingerprint: entry.fingerprint,
                    rank,
                })
                .map(|p| KernelConfig {
                    grid: p.grid,
                    strip_width: p.strip_width,
                    ..Default::default()
                })
                .unwrap_or(KernelConfig {
                    grid: [4, 2, 2],
                    strip_width: 16,
                    ..Default::default()
                });
            cfg.exec = ExecPolicy::auto().with_recorder(rec.clone());
            match method {
                Method::Als => {
                    let mut opts = CpAlsOptions::new(rank);
                    opts.max_iters = iters;
                    opts.kernel = kernel;
                    let kernels = (0..NMODES)
                        .map(|m| entry.kernel(kernel, m, &cfg))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| e.to_string())?;
                    opts.kernel_cfg = cfg;
                    let r = CpAls::with_kernels(entry.coo.dims(), kernels, opts).run(&entry.coo);
                    Ok(Json::obj([
                        ("tensor", Json::str(tensor)),
                        ("method", Json::str("als")),
                        ("rank", Json::usize(rank)),
                        ("fit", Json::num(*r.fit_history.last().unwrap_or(&0.0))),
                        ("iterations", Json::usize(r.iterations)),
                        ("converged", Json::Bool(r.converged)),
                    ]))
                }
                Method::Apr => {
                    let mut opts = CpAprOptions::new(rank);
                    opts.max_iters = iters;
                    opts.kernel = kernel;
                    opts.kernel_cfg = cfg;
                    let r = cp_apr(&entry.coo, &opts);
                    Ok(Json::obj([
                        ("tensor", Json::str(tensor)),
                        ("method", Json::str("apr")),
                        ("rank", Json::usize(rank)),
                        (
                            "loglik",
                            Json::num(*r.loglik_history.last().unwrap_or(&f64::NEG_INFINITY)),
                        ),
                        ("iterations", Json::usize(r.iterations)),
                        ("converged", Json::Bool(r.converged)),
                    ]))
                }
            }
        }
    }
}

impl Service {
    /// Builds a service: `workers` job threads behind a queue of
    /// `queue_capacity` slots, with `plans` as the tuned-plan cache.
    pub fn new(workers: usize, queue_capacity: usize, plans: PlanCache) -> Service {
        Service::with_registry(workers, queue_capacity, plans, Registry::new())
    }

    /// [`Service::new`] with a caller-built registry (e.g. one configured
    /// with a spill tier via [`Registry::with_spill`]).
    pub fn with_registry(
        workers: usize,
        queue_capacity: usize,
        plans: PlanCache,
        registry: Registry,
    ) -> Service {
        let metrics = Arc::new(Metrics {
            // Share the registry's degradation and layout counters so the
            // `metrics` command sees spill failures, quarantines and layout
            // builds as they happen.
            faults: Arc::clone(registry.fault_counters()),
            layouts: Arc::clone(registry.layout_counters()),
            ..Metrics::default()
        });
        metrics
            .plan_skipped
            .store(plans.skipped(), Ordering::Relaxed);
        let core = Arc::new(ServiceCore {
            registry,
            plans,
            metrics: Arc::clone(&metrics),
            last_trace: Leveled::new(Mutex::new(None)),
        });
        let runner_core = Arc::clone(&core);
        let scheduler = Scheduler::start(workers, queue_capacity, metrics, move |id, payload| {
            run_job(&runner_core, id, payload)
        });
        Service { core, scheduler }
    }

    /// The shared core (registry, plans, metrics).
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Handles one request; never panics on malformed input.
    pub fn handle(&self, req: &Json) -> Json {
        self.core.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let Some(cmd) = req.get_str("cmd") else {
            return err(ErrorCode::BadRequest, "missing \"cmd\"");
        };
        match cmd {
            "load" => self.cmd_load(req),
            "gen" => self.cmd_gen(req),
            "stats" => self.cmd_stats(req),
            "list" => {
                let reg = &self.core.registry;
                let strs = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
                let stream = reg.stream_stats().snapshot();
                ok([
                    ("tensors", strs(reg.names())),
                    ("resident", strs(reg.resident_names())),
                    ("spilled", strs(reg.spilled_names())),
                    // Additive (protocol stays v1): bytes of layouts each
                    // resident tensor holds beside its COO copy.
                    (
                        "layout_bytes",
                        Json::Obj(
                            reg.layout_bytes()
                                .into_iter()
                                .map(|(name, bytes)| (name, Json::usize(bytes)))
                                .collect(),
                        ),
                    ),
                    (
                        "stream",
                        Json::obj([
                            ("tiles_loaded", Json::num(stream.tiles_loaded as f64)),
                            ("bytes_streamed", Json::num(stream.bytes_streamed as f64)),
                            (
                                "prefetch_stall_ns",
                                Json::num(stream.prefetch_stall_ns as f64),
                            ),
                            // Additive (protocol stays v1): transient tile
                            // reloads that were retried.
                            ("tile_retries", Json::num(stream.tile_retries as f64)),
                            // Additive: the prefetch thread's busy time,
                            // split — with the stall it says whether a
                            // pass was I/O-, prepare- or compute-bound.
                            (
                                "prefetch_load_ns",
                                Json::num(stream.prefetch_load_ns as f64),
                            ),
                            (
                                "prefetch_prepare_ns",
                                Json::num(stream.prefetch_prepare_ns as f64),
                            ),
                        ]),
                    ),
                    // Additive (protocol stays v1): degradation counters.
                    ("faults", reg.fault_counters().snapshot().to_json()),
                ])
            }
            "tune" => self.submit_cmd(req, Self::parse_tune),
            "mttkrp" => self.submit_cmd(req, Self::parse_mttkrp),
            "decompose" => self.submit_cmd(req, Self::parse_decompose),
            "job-status" => self.cmd_job_status(req),
            "cancel" => self.cmd_cancel(req),
            "trace" => {
                // Clone out under the lock and release it before building
                // the response: a match-scrutinee temporary would hold the
                // guard for every arm of the surrounding match.
                let snap = crate::sync::lock(&self.core.last_trace).clone();
                match snap {
                    Some((id, tree)) => ok([("job", Json::str(id.to_string())), ("trace", tree)]),
                    None => err(ErrorCode::NotFound, "no job has finished yet"),
                }
            }
            "metrics" => ok([(
                "metrics",
                self.core
                    .metrics
                    .snapshot(self.scheduler.queue_depth(), self.scheduler.capacity())
                    .to_json(),
            )]),
            other => err(ErrorCode::UnknownCmd, format!("unknown command {other:?}")),
        }
    }

    fn cmd_load(&self, req: &Json) -> Json {
        let Some(name) = req.get_str("name") else {
            return err(ErrorCode::BadRequest, "load: missing \"name\"");
        };
        let Some(path) = req.get_str("path") else {
            return err(ErrorCode::BadRequest, "load: missing \"path\"");
        };
        match self.core.registry.load(name, path) {
            Ok(entry) => {
                self.core
                    .metrics
                    .tensors_registered
                    .fetch_add(1, Ordering::Relaxed);
                ok([
                    ("name", Json::str(name)),
                    ("nnz", Json::usize(entry.stats.nnz)),
                    (
                        "fingerprint",
                        Json::str(format!("{:016x}", entry.fingerprint)),
                    ),
                ])
            }
            Err(e) => registry_err(e),
        }
    }

    fn cmd_gen(&self, req: &Json) -> Json {
        let Some(name) = req.get_str("name") else {
            return err(ErrorCode::BadRequest, "gen: missing \"name\"");
        };
        let Some(dataset) = req.get_str("dataset") else {
            return err(ErrorCode::BadRequest, "gen: missing \"dataset\"");
        };
        let nnz = req.get_usize("nnz");
        if let Some(n) = nnz.filter(|&n| n > MAX_GEN_NNZ) {
            return err(
                ErrorCode::InvalidConfig,
                format!("gen: nnz must be at most {MAX_GEN_NNZ}, got {n}"),
            );
        }
        let seed = req.get_u64("seed").unwrap_or(42);
        match self.core.registry.generate(name, dataset, nnz, seed) {
            Ok(entry) => {
                self.core
                    .metrics
                    .tensors_registered
                    .fetch_add(1, Ordering::Relaxed);
                ok([
                    ("name", Json::str(name)),
                    (
                        "dims",
                        Json::Arr(entry.stats.dims.iter().map(|&d| Json::usize(d)).collect()),
                    ),
                    ("nnz", Json::usize(entry.stats.nnz)),
                    (
                        "fingerprint",
                        Json::str(format!("{:016x}", entry.fingerprint)),
                    ),
                ])
            }
            Err(e) => registry_err(e),
        }
    }

    fn cmd_stats(&self, req: &Json) -> Json {
        let Some(name) = req.get_str("tensor") else {
            return err(ErrorCode::BadRequest, "stats: missing \"tensor\"");
        };
        match self.core.registry.get(name) {
            Ok(entry) => {
                let s = &entry.stats;
                ok([
                    ("name", Json::str(name)),
                    (
                        "dims",
                        Json::Arr(s.dims.iter().map(|&d| Json::usize(d)).collect()),
                    ),
                    ("nnz", Json::usize(s.nnz)),
                    ("sparsity", Json::num(s.sparsity)),
                    (
                        "fibers",
                        Json::Arr(s.fibers.iter().map(|&f| Json::usize(f)).collect()),
                    ),
                    (
                        "nnz_per_fiber",
                        Json::Arr(s.nnz_per_fiber.iter().map(|&f| Json::num(f)).collect()),
                    ),
                    (
                        "fingerprint",
                        Json::str(format!("{:016x}", entry.fingerprint)),
                    ),
                ])
            }
            Err(e) => registry_err(e),
        }
    }

    fn parse_tune(req: &Json) -> Result<JobPayload, Json> {
        let tensor = req
            .get_str("tensor")
            .ok_or_else(|| err(ErrorCode::BadRequest, "tune: missing \"tensor\""))?;
        let rank = require_rank("tune", req.get_usize("rank").unwrap_or(16))?;
        let reps = req.get_usize("reps").unwrap_or(2);
        let max_blocks = req.get_usize("max_blocks").unwrap_or(64);
        Ok(JobPayload::Tune {
            tensor: tensor.to_string(),
            rank,
            reps,
            max_blocks,
        })
    }

    fn parse_mttkrp(req: &Json) -> Result<JobPayload, Json> {
        let tensor = req
            .get_str("tensor")
            .ok_or_else(|| err(ErrorCode::BadRequest, "mttkrp: missing \"tensor\""))?;
        let mode = require_mode("mttkrp", req.get_usize("mode").unwrap_or(0))?;
        let kernel = KernelKind::from_name(req.get_str("kernel").unwrap_or("mbrankb"))
            .ok_or_else(|| err(ErrorCode::BadRequest, "mttkrp: unknown kernel name"))?;
        let rank = require_rank("mttkrp", req.get_usize("rank").unwrap_or(16))?;
        let reps = req.get_usize("reps").unwrap_or(3);
        Ok(JobPayload::Mttkrp {
            tensor: tensor.to_string(),
            mode,
            kernel,
            rank,
            reps,
        })
    }

    fn parse_decompose(req: &Json) -> Result<JobPayload, Json> {
        let tensor = req
            .get_str("tensor")
            .ok_or_else(|| err(ErrorCode::BadRequest, "decompose: missing \"tensor\""))?;
        let method = match req.get_str("method").unwrap_or("als") {
            "als" => Method::Als,
            "apr" => Method::Apr,
            other => {
                return Err(err(
                    ErrorCode::BadRequest,
                    format!("unknown method {other:?} (als|apr)"),
                ))
            }
        };
        let rank = require_rank("decompose", req.get_usize("rank").unwrap_or(16))?;
        let iters = req.get_usize("iters").unwrap_or(20);
        let kernel = KernelKind::from_name(req.get_str("kernel").unwrap_or("mbrankb"))
            .ok_or_else(|| err(ErrorCode::BadRequest, "decompose: unknown kernel name"))?;
        Ok(JobPayload::Decompose {
            tensor: tensor.to_string(),
            method,
            rank,
            iters,
            kernel,
        })
    }

    /// Common path for job-submitting commands: parse → submit → either
    /// return the job id or (with `"wait": true`) block for the result.
    fn submit_cmd(&self, req: &Json, parse: fn(&Json) -> Result<JobPayload, Json>) -> Json {
        let payload = match parse(req) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        // Fail fast on unknown tensors: better a not-found now than a
        // failed job later (the job re-checks; the registry never shrinks,
        // so this can't race to a false failure).
        let tensor = match &payload {
            JobPayload::Tune { tensor, .. }
            | JobPayload::Mttkrp { tensor, .. }
            | JobPayload::Decompose { tensor, .. } => tensor,
        };
        if !self.core.registry.contains(tensor) {
            return err(
                ErrorCode::NotFound,
                format!("no tensor registered as {tensor:?}"),
            );
        }
        let deadline = req.get_u64("deadline_ms").map(Duration::from_millis);
        let id = match self.scheduler.submit(payload, deadline) {
            Ok(id) => id,
            Err(SubmitError::QueueFull) => return err(ErrorCode::QueueFull, "job queue is full"),
            Err(SubmitError::Shutdown) => {
                return err(ErrorCode::Internal, "scheduler is shut down")
            }
        };
        if req.get_bool("wait").unwrap_or(false) {
            // Clamp: a client asking for a week must not pin a protocol
            // thread past the server's own patience.
            let timeout = deadline.unwrap_or(DEFAULT_WAIT).min(DEFAULT_WAIT);
            return match self.scheduler.wait(id, timeout) {
                Some(state) => self.job_response(id, state),
                // Timed out waiting: report the job's actual state (it may
                // still be queued, not running).
                None => {
                    let name = self.scheduler.status(id).map_or("running", |s| s.name());
                    ok([
                        ("job", Json::str(id.to_string())),
                        ("state", Json::str(name)),
                        ("timed_out", Json::Bool(true)),
                    ])
                }
            };
        }
        ok([
            ("job", Json::str(id.to_string())),
            ("state", Json::str("queued")),
        ])
    }

    fn job_response(&self, id: JobId, state: JobState<Json>) -> Json {
        let mut fields = vec![
            ("job", Json::str(id.to_string())),
            ("state", Json::str(state.name())),
        ];
        match state {
            JobState::Done(result) => fields.push(("result", result)),
            JobState::Failed(e) => fields.push(("error", Json::str(e))),
            _ => {}
        }
        ok(fields)
    }

    fn cmd_job_status(&self, req: &Json) -> Json {
        let Some(id) = req.get_str("job").and_then(JobId::parse) else {
            return err(
                ErrorCode::BadRequest,
                "job-status: missing or malformed \"job\"",
            );
        };
        match self.scheduler.status(id) {
            Some(state) => self.job_response(id, state),
            None => err(ErrorCode::NotFound, format!("no such job {id}")),
        }
    }

    fn cmd_cancel(&self, req: &Json) -> Json {
        let Some(id) = req.get_str("job").and_then(JobId::parse) else {
            return err(
                ErrorCode::BadRequest,
                "cancel: missing or malformed \"job\"",
            );
        };
        match self.scheduler.cancel(id) {
            Ok(()) => ok([
                ("job", Json::str(id.to_string())),
                ("state", Json::str("cancelled")),
            ]),
            Err(CancelError::NotFound) => err(ErrorCode::NotFound, format!("no such job {id}")),
            Err(e) => err(ErrorCode::BadRequest, e.to_string()),
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests plant corrupt and partial files on purpose"
)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn svc() -> Service {
        Service::new(2, 8, PlanCache::in_memory())
    }

    fn req(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn gen_small(s: &Service, name: &str) {
        let r = s.handle(&req(&format!(
            r#"{{"cmd":"gen","name":"{name}","dataset":"poisson1","nnz":2000,"seed":7}}"#
        )));
        assert_eq!(r.get_bool("ok"), Some(true), "{r:?}");
    }

    #[test]
    fn gen_stats_list_roundtrip() {
        let s = svc();
        gen_small(&s, "t");
        let stats = s.handle(&req(r#"{"cmd":"stats","tensor":"t"}"#));
        assert_eq!(stats.get_bool("ok"), Some(true));
        assert!(stats.get_usize("nnz").unwrap() > 0);
        assert_eq!(stats.get_str("fingerprint").unwrap().len(), 16);
        let list = s.handle(&req(r#"{"cmd":"list"}"#));
        assert_eq!(list.get("tensors"), Some(&Json::Arr(vec![Json::str("t")])));
        // Without a spill tier everything is resident and no bytes stream.
        assert_eq!(list.get("resident"), Some(&Json::Arr(vec![Json::str("t")])));
        assert_eq!(list.get("spilled"), Some(&Json::Arr(vec![])));
        let stream = list.get("stream").unwrap();
        assert_eq!(stream.get_num("tiles_loaded"), Some(0.0));
        // duplicate handle
        let dup = s.handle(&req(
            r#"{"cmd":"gen","name":"t","dataset":"poisson1","nnz":100}"#,
        ));
        assert_eq!(dup.get_str("code"), Some("bad-request"));
    }

    #[test]
    fn list_reports_residency_and_spill_reload_counters() {
        let dir = std::env::temp_dir().join(format!("tenblock_proto_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Service::with_registry(2, 8, PlanCache::in_memory(), Registry::with_spill(&dir, 1));
        gen_small(&s, "a");
        gen_small(&s, "b");

        // Cap 1: registering "b" spilled "a", but "a" is still listed.
        let list = s.handle(&req(r#"{"cmd":"list"}"#));
        assert_eq!(
            list.get("tensors"),
            Some(&Json::Arr(vec![Json::str("a"), Json::str("b")]))
        );
        assert_eq!(list.get("resident"), Some(&Json::Arr(vec![Json::str("b")])));
        assert_eq!(list.get("spilled"), Some(&Json::Arr(vec![Json::str("a")])));

        // Using the spilled tensor streams it back transparently.
        let stats = s.handle(&req(r#"{"cmd":"stats","tensor":"a"}"#));
        assert_eq!(stats.get_bool("ok"), Some(true), "{stats:?}");
        let list = s.handle(&req(r#"{"cmd":"list"}"#));
        assert_eq!(list.get("resident"), Some(&Json::Arr(vec![Json::str("a")])));
        assert_eq!(list.get("spilled"), Some(&Json::Arr(vec![Json::str("b")])));
        let stream = list.get("stream").unwrap();
        assert!(stream.get_num("tiles_loaded").unwrap() > 0.0, "{list:?}");
        assert!(stream.get_num("bytes_streamed").unwrap() > 0.0);
        // Additive v1 fields: retry and degradation counters, all zero on
        // this healthy run.
        assert_eq!(stream.get_num("tile_retries"), Some(0.0));
        let faults = list.get("faults").unwrap();
        assert_eq!(faults.get_usize("spill_failures"), Some(0));
        assert_eq!(faults.get_usize("quarantined_stores"), Some(0));
        let m = s.handle(&req(r#"{"cmd":"metrics"}"#));
        let mf = m.get("metrics").unwrap().get("faults").unwrap();
        assert_eq!(mf.get_usize("io_retries"), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_surfaces_spill_corrupt_code() {
        let dir =
            std::env::temp_dir().join(format!("tenblock_proto_quarantine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Service::with_registry(2, 8, PlanCache::in_memory(), Registry::with_spill(&dir, 1));
        gen_small(&s, "a");
        gen_small(&s, "b"); // spills "a"
        let spill_file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "tnsb"))
            .unwrap();
        let mut bytes = std::fs::read(&spill_file).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&spill_file, &bytes).unwrap();

        // Touching "a" trips validation: typed spill-corrupt, no panic.
        let stats = s.handle(&req(r#"{"cmd":"stats","tensor":"a"}"#));
        assert_eq!(stats.get_bool("ok"), Some(false), "{stats:?}");
        assert_eq!(stats.get_str("code"), Some("spill-corrupt"));
        let list = s.handle(&req(r#"{"cmd":"list"}"#));
        let faults = list.get("faults").unwrap();
        assert_eq!(faults.get_usize("quarantined_stores"), Some(1), "{list:?}");
        // The service keeps serving: the healthy tensor still works.
        let ok_stats = s.handle(&req(r#"{"cmd":"stats","tensor":"b"}"#));
        assert_eq!(ok_stats.get_bool("ok"), Some(true), "{ok_stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tune_waits_and_second_call_hits_cache() {
        let s = svc();
        gen_small(&s, "t");
        let q = r#"{"cmd":"tune","tensor":"t","rank":8,"reps":1,"max_blocks":2,"wait":true}"#;
        let first = s.handle(&req(q));
        assert_eq!(first.get_str("state"), Some("done"), "{first:?}");
        assert_eq!(first.get("result").unwrap().get_bool("cached"), Some(false));
        let second = s.handle(&req(q));
        assert_eq!(second.get("result").unwrap().get_bool("cached"), Some(true));
        let m = s.handle(&req(r#"{"cmd":"metrics"}"#));
        let pc = m.get("metrics").unwrap().get("plan_cache").unwrap();
        assert_eq!(pc.get_usize("hits"), Some(1));
        assert_eq!(pc.get_usize("misses"), Some(1));
    }

    #[test]
    fn mttkrp_and_decompose_run() {
        let s = svc();
        gen_small(&s, "t");
        let r = s.handle(&req(
            r#"{"cmd":"mttkrp","tensor":"t","mode":1,"kernel":"splatt","rank":8,"reps":1,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
        assert!(r.get("result").unwrap().get_num("best_secs").unwrap() >= 0.0);

        let d = s.handle(&req(
            r#"{"cmd":"decompose","tensor":"t","method":"als","rank":4,"iters":2,"wait":true}"#,
        ));
        assert_eq!(d.get_str("state"), Some("done"), "{d:?}");
        assert!(d.get("result").unwrap().get_usize("iterations").unwrap() >= 1);
    }

    fn layout_counts(s: &Service) -> (usize, usize) {
        let m = s.handle(&req(r#"{"cmd":"metrics"}"#));
        let m = m.get("metrics").unwrap();
        (
            m.get_usize("layout_builds").unwrap(),
            m.get_usize("layout_hits").unwrap(),
        )
    }

    fn layout_derived(s: &Service) -> usize {
        let m = s.handle(&req(r#"{"cmd":"metrics"}"#));
        m.get("metrics")
            .unwrap()
            .get_usize("layout_derived")
            .unwrap()
    }

    /// The names of the spans directly under the last job's root.
    fn last_trace_children(s: &Service) -> Vec<String> {
        let t = s.handle(&req(r#"{"cmd":"trace"}"#));
        let Some(Json::Arr(roots)) = t.get("trace").unwrap().get("spans") else {
            panic!("trace has no spans array: {t:?}");
        };
        let Some(Json::Arr(children)) = roots[0].get("children") else {
            return Vec::new();
        };
        children
            .iter()
            .map(|c| c.get_str("name").unwrap().to_string())
            .collect()
    }

    #[test]
    fn a_hundred_default_requests_build_nothing_beyond_registration() {
        let s = svc();
        gen_small(&s, "t");
        assert_eq!(layout_counts(&s), (3, 0), "one unblocked layout per mode");
        for n in 0..100 {
            let r = s.handle(&req(&format!(
                r#"{{"cmd":"mttkrp","tensor":"t","mode":{},"rank":8,"reps":1,"wait":true}}"#,
                n % 3
            )));
            assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
            // The default kind is `mbrankb`, and says so at grid [1,1,1].
            assert_eq!(r.get("result").unwrap().get_str("kernel"), Some("MB+RankB"));
        }
        assert_eq!(layout_counts(&s), (3, 100));
        assert_eq!(last_trace_children(&s), ["mttkrp/MB+RankB"]);
        // `bcoo` is `mbrankb` by another name: a hit on the same layout.
        let r = s.handle(&req(
            r#"{"cmd":"mttkrp","tensor":"t","kernel":"bcoo","rank":8,"reps":1,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
        assert_eq!(layout_counts(&s), (3, 101));
    }

    #[test]
    fn a_plans_grid_is_built_once_into_the_blocked_slot_and_replaced_by_the_next() {
        // Eight workers, so eight first requests really run at once.
        let s = Service::new(8, 16, PlanCache::in_memory());
        gen_small(&s, "t");
        let entry = s.core().registry.get("t").unwrap();
        let pin = |rank, grid| {
            let key = PlanKey {
                fingerprint: entry.fingerprint,
                rank,
            };
            let plan = TunedPlan {
                kernel: "mbrankb".into(),
                grid,
                strip_width: 16,
                best_secs: 0.0,
            };
            s.core().plans.insert(key, plan).unwrap();
        };
        pin(8, [2, 2, 2]);
        pin(4, [2, 1, 2]);
        let mttkrp = |rank: usize| {
            let r = s.handle(&req(&format!(
                r#"{{"cmd":"mttkrp","tensor":"t","mode":1,"rank":{rank},"reps":1,"wait":true}}"#
            )));
            assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
        };

        let unblocked = entry.layout_bytes();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| mttkrp(8));
            }
        });
        assert_eq!(layout_counts(&s), (3, 7));
        assert_eq!(layout_derived(&s), 1);
        assert_eq!(entry.blocked_grid(1), Some([2, 2, 2]));
        let list = s.handle(&req(r#"{"cmd":"list"}"#));
        let listed = list.get("layout_bytes").unwrap().get_usize("t").unwrap();
        assert_eq!(listed, entry.layout_bytes());
        assert!(listed > unblocked);

        // Only a request that derives a layout shows a `job/layout` span.
        mttkrp(4);
        assert_eq!(entry.blocked_grid(1), Some([2, 1, 2]));
        assert_eq!(last_trace_children(&s), ["job/layout", "mttkrp/MB+RankB"]);
        mttkrp(4);
        assert_eq!(last_trace_children(&s), ["mttkrp/MB+RankB"]);
        assert_eq!(layout_counts(&s), (3, 7 + 1));
        assert_eq!(layout_derived(&s), 2);
        // `splatt` ignores the plan's grid and the slot.
        let r = s.handle(&req(
            r#"{"cmd":"mttkrp","tensor":"t","mode":1,"kernel":"splatt","rank":4,"reps":1,"wait":true}"#,
        ));
        assert_eq!(r.get("result").unwrap().get_str("kernel"), Some("SPLATT"));
        assert_eq!(entry.blocked_grid(1), Some([2, 1, 2]));
        assert_eq!(layout_counts(&s), (3, 7 + 2));
        assert_eq!(layout_derived(&s), 2);
    }

    #[test]
    fn served_decompose_matches_the_in_process_solver_and_keeps_its_grids() {
        let s = svc();
        gen_small(&s, "t");
        let entry = s.core().registry.get("t").unwrap();
        let decompose =
            r#"{"cmd":"decompose","tensor":"t","method":"als","rank":4,"iters":6,"wait":true}"#;
        let d = s.handle(&req(decompose));
        assert_eq!(d.get_str("state"), Some("done"), "{d:?}");
        let result = d.get("result").unwrap();

        // What the job runs without a tuned plan, built from COO.
        let mut opts = CpAlsOptions::new(4);
        opts.max_iters = 6;
        opts.kernel = KernelKind::MbRankB;
        opts.kernel_cfg = KernelConfig {
            grid: [4, 2, 2],
            strip_width: 16,
            exec: ExecPolicy::auto(),
        };
        let want = CpAls::new(&entry.coo, opts).run(&entry.coo);
        let fit = result.get_num("fit").unwrap();
        assert!((fit - want.fit_history.last().unwrap()).abs() < 1e-9);
        assert_eq!(result.get_usize("iterations"), Some(want.iterations));

        // The first decomposition derived its grids; the second one
        // neither sorts nor derives.
        assert_eq!(layout_counts(&s), (3, 0));
        assert_eq!(layout_derived(&s), 3);
        assert_eq!(s.handle(&req(decompose)).get("result"), Some(result));
        assert_eq!(layout_counts(&s), (3, 3));
        assert_eq!(layout_derived(&s), 3);
    }

    /// After `load`, a default `decompose` derives its three blocked grids
    /// (under `job/layout` spans that say so) and sorts nothing; a second
    /// one is all hits.
    #[test]
    fn a_default_decompose_derives_its_grids_and_sorts_nothing() {
        let s = svc();
        gen_small(&s, "t");
        let decompose =
            r#"{"cmd":"decompose","tensor":"t","method":"als","rank":4,"iters":2,"wait":true}"#;
        let d = s.handle(&req(decompose));
        assert_eq!(d.get_str("state"), Some("done"), "{d:?}");
        assert_eq!(layout_counts(&s), (3, 0));
        assert_eq!(layout_derived(&s), 3);
        let t = s.handle(&req(r#"{"cmd":"trace"}"#));
        let text = t.to_string_compact();
        assert_eq!(text.matches(r#""name":"job/layout""#).count(), 3, "{text}");
        assert_eq!(text.matches(r#""from":"unblocked""#).count(), 3, "{text}");

        let d = s.handle(&req(decompose));
        assert_eq!(d.get_str("state"), Some("done"), "{d:?}");
        assert_eq!(layout_counts(&s), (3, 3));
        assert_eq!(layout_derived(&s), 3);
    }

    /// A served `tune` runs over the entry's unblocked layout: it sorts
    /// nothing, and its plan is a valid one for the tensor.
    #[test]
    fn a_served_tune_sorts_nothing() {
        let s = svc();
        gen_small(&s, "t");
        let before = layout_counts(&s);
        let r = s.handle(&req(
            r#"{"cmd":"tune","tensor":"t","rank":8,"reps":1,"max_blocks":2,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
        assert_eq!(r.get("result").unwrap().get_bool("cached"), Some(false));
        assert_eq!(layout_counts(&s).0, before.0, "a served tune sorts nothing");
        // Its grid candidates are derived per candidate, not cached.
        assert_eq!(layout_counts(&s).1, before.1);
        assert_eq!(layout_derived(&s), 0);
    }

    #[test]
    fn job_status_lifecycle_without_wait() {
        let s = svc();
        gen_small(&s, "t");
        let sub = s.handle(&req(
            r#"{"cmd":"tune","tensor":"t","rank":8,"reps":1,"max_blocks":2}"#,
        ));
        assert_eq!(sub.get_bool("ok"), Some(true));
        let job = sub.get_str("job").unwrap().to_string();
        // Poll until terminal.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let st = s.handle(&req(&format!(r#"{{"cmd":"job-status","job":"{job}"}}"#)));
            match st.get_str("state") {
                Some("done") => break,
                Some("failed") => panic!("job failed: {st:?}"),
                _ if Instant::now() > deadline => panic!("job never finished"),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    #[test]
    fn unknown_inputs_get_typed_errors() {
        let s = svc();
        assert_eq!(
            s.handle(&req(r#"{"cmd":"frobnicate"}"#)).get_str("code"),
            Some("unknown-cmd")
        );
        assert_eq!(
            s.handle(&req(r#"{"nope":1}"#)).get_str("code"),
            Some("bad-request")
        );
        assert_eq!(
            s.handle(&req(r#"{"cmd":"tune","tensor":"ghost"}"#))
                .get_str("code"),
            Some("not-found")
        );
        assert_eq!(
            s.handle(&req(r#"{"cmd":"job-status","job":"j-999"}"#))
                .get_str("code"),
            Some("not-found")
        );
        assert_eq!(
            s.handle(&req(r#"{"cmd":"mttkrp","tensor":"ghost","kernel":"warp"}"#))
                .get_str("code"),
            Some("bad-request")
        );
    }

    #[test]
    fn every_response_carries_version() {
        let s = svc();
        gen_small(&s, "t");
        let responses = [
            s.handle(&req(r#"{"cmd":"list"}"#)),
            s.handle(&req(r#"{"cmd":"frobnicate"}"#)),
            s.handle(&req(r#"{"cmd":"stats","tensor":"ghost"}"#)),
            s.handle(&req(r#"{"cmd":"metrics"}"#)),
            s.handle(&req(r#"{"nope":1}"#)),
            s.handle(&req(r#"{"cmd":"tune","tensor":"t","rank":0}"#)),
            s.handle(&req(r#"{"cmd":"mttkrp","tensor":"t","mode":3}"#)),
        ];
        for r in responses {
            assert_eq!(r.get_usize("v"), Some(PROTOCOL_VERSION), "{r:?}");
        }
    }

    #[test]
    fn degenerate_parameters_get_invalid_config() {
        let s = svc();
        gen_small(&s, "t");
        for (q, what) in [
            (r#"{"cmd":"tune","tensor":"t","rank":0}"#, "tune rank 0"),
            (r#"{"cmd":"mttkrp","tensor":"t","rank":0}"#, "mttkrp rank 0"),
            (r#"{"cmd":"mttkrp","tensor":"t","mode":3}"#, "mttkrp mode 3"),
            (
                r#"{"cmd":"decompose","tensor":"t","rank":0}"#,
                "decompose rank 0",
            ),
        ] {
            let r = s.handle(&req(q));
            assert_eq!(r.get_str("code"), Some("invalid-config"), "{what}: {r:?}");
            assert_eq!(r.get_usize("v"), Some(PROTOCOL_VERSION), "{what}: {r:?}");
        }
        // Rejection happens at parse time: nothing was queued.
        let m = s.handle(&req(r#"{"cmd":"metrics"}"#));
        let jobs = m.get("metrics").unwrap().get("jobs").unwrap();
        assert_eq!(jobs.get_usize("submitted"), Some(0));
    }

    #[test]
    fn a_rank_past_the_cap_is_refused_and_the_service_keeps_serving() {
        let s = svc();
        gen_small(&s, "t");
        for cmd in ["tune", "mttkrp", "decompose"] {
            for rank in [MAX_RANK + 1, 1 << 40] {
                let r = s.handle(&req(&format!(
                    r#"{{"cmd":"{cmd}","tensor":"t","rank":{rank},"wait":true}}"#
                )));
                assert_eq!(
                    r.get_str("code"),
                    Some("invalid-config"),
                    "{cmd} {rank}: {r:?}"
                );
            }
        }
        // The cap itself is a rank like any other.
        let r = s.handle(&req(&format!(
            r#"{{"cmd":"mttkrp","tensor":"t","mode":0,"kernel":"splatt","rank":{MAX_RANK},"reps":1,"wait":true}}"#
        )));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
    }

    #[test]
    fn a_gen_past_the_cap_is_refused_and_the_service_keeps_serving() {
        let s = svc();
        for nnz in [MAX_GEN_NNZ + 1, 1 << 40] {
            let r = s.handle(&req(&format!(
                r#"{{"cmd":"gen","name":"big","dataset":"poisson1","nnz":{nnz}}}"#
            )));
            assert_eq!(r.get_str("code"), Some("invalid-config"), "{nnz}: {r:?}");
            assert_eq!(r.get_usize("v"), Some(PROTOCOL_VERSION), "{nnz}: {r:?}");
        }
        // Nothing was registered, and the handle is still free.
        assert!(!s.core().registry.contains("big"));
        gen_small(&s, "big");
        let r = s.handle(&req(
            r#"{"cmd":"mttkrp","tensor":"big","rank":4,"reps":1,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");
    }

    #[test]
    fn malformed_tensor_file_gets_invalid_tensor() {
        let dir = std::env::temp_dir().join(format!("tenblock_proto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.tns");
        std::fs::write(&bad, "1 1 1 nan\n").unwrap();
        let s = svc();
        let r = s.handle(&req(&format!(
            r#"{{"cmd":"load","name":"b","path":"{}"}}"#,
            bad.display()
        )));
        assert_eq!(r.get_str("code"), Some("invalid-tensor"), "{r:?}");
        assert_eq!(r.get_usize("v"), Some(PROTOCOL_VERSION));
        // A nonexistent path is a bad request, not a bad tensor.
        let r = s.handle(&req(&format!(
            r#"{{"cmd":"load","name":"m","path":"{}"}}"#,
            dir.join("missing.tns").display()
        )));
        assert_eq!(r.get_str("code"), Some("bad-request"), "{r:?}");
    }

    #[test]
    fn non_utf8_tensor_file_gets_invalid_tensor() {
        // Bytes that are not UTF-8 are bad bytes, like any malformed line:
        // `invalid-tensor` naming the line, not `bad-request`.
        let dir = std::env::temp_dir().join(format!("tenblock_proto_utf8_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.tns");
        std::fs::write(&bad, b"1 1 1 2.0\n2 2 2 \xff\xfe\n").unwrap();
        let s = svc();
        let r = s.handle(&req(&format!(
            r#"{{"cmd":"load","name":"u","path":"{}"}}"#,
            bad.display()
        )));
        assert_eq!(r.get_str("code"), Some("invalid-tensor"), "{r:?}");
        assert!(
            r.get_str("error").is_some_and(|m| m.contains("line 2")),
            "{r:?}"
        );
        assert!(!s.core().registry.contains("u"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_on_degenerate_tensor_fails_typed_instead_of_panicking() {
        use tenblock_tensor::CooTensor;
        let s = svc();
        s.core()
            .registry
            .register("hollow", CooTensor::empty([4, 4, 4]))
            .unwrap();
        let r = s.handle(&req(
            r#"{"cmd":"tune","tensor":"hollow","rank":8,"reps":1,"max_blocks":2,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("failed"), "{r:?}");
        assert!(
            r.get_str("error").unwrap().contains("tune:"),
            "typed tune error expected: {r:?}"
        );
    }

    #[test]
    fn trace_returns_last_job_span_tree() {
        let s = svc();
        let early = s.handle(&req(r#"{"cmd":"trace"}"#));
        assert_eq!(early.get_str("code"), Some("not-found"));

        gen_small(&s, "t");
        let r = s.handle(&req(
            r#"{"cmd":"mttkrp","tensor":"t","mode":0,"kernel":"splatt","rank":8,"reps":2,"wait":true}"#,
        ));
        assert_eq!(r.get_str("state"), Some("done"), "{r:?}");

        let t = s.handle(&req(r#"{"cmd":"trace"}"#));
        assert_eq!(t.get_bool("ok"), Some(true), "{t:?}");
        assert!(t.get_str("job").unwrap().starts_with("j-"));
        let Some(Json::Arr(roots)) = t.get("trace").unwrap().get("spans") else {
            panic!("trace has no spans array: {t:?}");
        };
        assert_eq!(roots.len(), 1, "one root span per job");
        let root = &roots[0];
        assert_eq!(root.get_str("name"), Some("job/mttkrp"));
        let Some(Json::Arr(children)) = root.get("children") else {
            panic!("root span has no children: {root:?}");
        };
        // Two reps -> two kernel spans, each carrying the byte counters.
        let kernel_spans: Vec<_> = children
            .iter()
            .filter(|c| c.get_str("name") == Some("mttkrp/SPLATT"))
            .collect();
        assert_eq!(kernel_spans.len(), 2);
        for k in kernel_spans {
            let args = k.get("args").expect("kernel span has args");
            assert!(args.get_usize("tensor_bytes").unwrap() > 0);
            assert!(args.get_usize("factor_bytes").unwrap() > 0);
        }
    }

    #[test]
    fn queue_full_is_typed() {
        // 1 worker, capacity-1 queue. Back-to-back submissions outpace the
        // worker (each decompose runs many ALS iterations), so among a
        // handful of rapid submits one must hit the full queue.
        let s = Service::new(1, 1, PlanCache::in_memory());
        gen_small(&s, "t");
        let slow = r#"{"cmd":"decompose","tensor":"t","method":"als","rank":8,"iters":500}"#;
        let mut queued = Vec::new();
        let mut rejected = None;
        for _ in 0..6 {
            let r = s.handle(&req(slow));
            if r.get_bool("ok") == Some(true) {
                queued.push(r.get_str("job").unwrap().to_string());
            } else {
                rejected = Some(r);
                break;
            }
        }
        let rejection = rejected.expect("a submission should have been rejected");
        assert_eq!(rejection.get_str("code"), Some("queue-full"));
        assert_eq!(rejection.get_str("error"), Some("job queue is full"));
        // Cancel whatever is still queued so the test doesn't wait out the
        // backlog (the running job cannot be cancelled; ignore errors).
        for job in queued {
            s.handle(&req(&format!(r#"{{"cmd":"cancel","job":"{job}"}}"#)));
        }
    }
}

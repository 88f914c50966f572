//! Implementation of the `tenblock` command-line tool.
//!
//! Subcommands (see [`run`]):
//!
//! * `stats <file>` — Table II-style statistics of a tensor file,
//! * `convert <in> <out>` — convert between FROSTT `.tns` text and the
//!   `.tnsb` binary container (direction inferred from extensions),
//! * `gen <dataset> <out>` — generate a Table II analogue,
//! * `bench <file>` — time every MTTKRP kernel on a tensor,
//! * `tune <file>` — run the Section V-C block-size heuristic,
//! * `decompose <file>` — CP-ALS or CP-APR with a chosen kernel,
//! * `serve` — start the in-process decomposition service (TCP),
//! * `check <file>` — run every kernel once in checked execution mode
//!   (blocking-invariant oracles + write-set race detection),
//! * `fuzz` — differential edge-case fuzzing of the ingest/kernel/tuner
//!   boundary with minimized repro output,
//! * `chaos` — the pinned fault-injection matrix.
//!
//! `tune` and `decompose` accept `--plan-cache <path>` to share tuned
//! block-size plans with each other and with a running `serve` instance.

use std::path::Path;
use std::sync::Arc;
use tenblock_core::obs::{Rec, TraceRecorder};
use tenblock_core::timing::time_reps;
use tenblock_core::tune::grid_for_tile_budget;
use tenblock_core::{try_build_kernel, tune, ExecPolicy, KernelConfig, KernelKind, TuneOptions};
use tenblock_cpd::{cp_apr, CpAls, CpAlsOptions, CpAlsStream, CpAprOptions};
use tenblock_serve::{PlanCache, PlanKey, Server, ServerConfig, TunedPlan};
use tenblock_tensor::gen::{Dataset, ALL_DATASETS};
use tenblock_tensor::{io, io_bin, CooTensor, DenseMatrix, TensorStats, TileStore};

/// A parsed command line: positional arguments and `--key value` flags.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` pairs.
    pub flags: Vec<(String, String)>,
}

impl Args {
    /// Parses raw arguments (no subcommand included).
    pub fn parse(raw: &[String]) -> Args {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // Only consume the next token as this flag's value when it
                // isn't itself a flag, so valueless flags (`--parallel
                // --rank 8`) don't swallow their neighbor.
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().cloned().unwrap(),
                    _ => String::new(),
                };
                args.flags.push((key.to_string(), value));
            } else {
                args.positional.push(a.clone());
            }
        }
        args
    }

    /// Looks up a flag value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a flag into `T`, with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flag(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Loads a tensor by extension: `.tns` (FROSTT text) or `.tnsb` (binary).
pub fn load_tensor(path: &str) -> Result<CooTensor, String> {
    let p = Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("tns") => io::read_tns_file(p).map_err(|e| e.to_string()),
        Some("tnsb") => io_bin::read_bin_file(p).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown tensor extension {other:?} (expected .tns or .tnsb)"
        )),
    }
}

/// Saves a tensor by extension.
pub fn save_tensor(t: &CooTensor, path: &str) -> Result<(), String> {
    let p = Path::new(path);
    match p.extension().and_then(|e| e.to_str()) {
        Some("tns") => io::write_tns_file(t, p).map_err(|e| e.to_string()),
        Some("tnsb") => io_bin::write_bin_file(t, p).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown tensor extension {other:?} (expected .tns or .tnsb)"
        )),
    }
}

/// Resolves a data-set name from the Table II registry.
pub fn dataset_by_name(name: &str) -> Option<Dataset> {
    ALL_DATASETS
        .into_iter()
        .find(|d| d.spec().name.eq_ignore_ascii_case(name))
}

/// Usage text.
pub const USAGE: &str =
    "tenblock — blocking-optimized sparse tensor kernels (IPDPS'18 reproduction)

USAGE:
  tenblock stats <file> [--grid AxBxC]
  tenblock convert <in> <out>
  tenblock gen <dataset> <out> [--nnz N] [--seed S]
  tenblock bench <file> [--rank R] [--reps N] [--grid AxBxC] [--strip W]
                       [--trace [path]]
  tenblock tune <file> [--rank R] [--plan-cache <path>] [--trace [path]]
  tenblock decompose <file> [--rank R] [--iters N] [--method als|apr]
                            [--kernel splatt|mb|rankb|mbrankb|csf|bcoo]
                            [--plan-cache <path>] [--trace [path]]
                            [--stream [--tile-budget BYTES] [--store <path>]
                             [--checked] [--assert-peak-rss BYTES]]
  tenblock serve --addr <host:port> [--workers N] [--queue N]
                 [--plan-cache <path>] [--max-resident N] [--spill-dir <dir>]
  tenblock check <file> [--rank R]
  tenblock fuzz [--seeds N] [--seed BASE] [--corpus dir]
  tenblock chaos [--seeds N]

Files: .tns (FROSTT text) or .tnsb (tenblock binary).
`stats --grid AxBxC` additionally prints a block-occupancy histogram of
the mode-1 blocking under that grid (how many nonzeros each nonempty
block holds — the profile that decides which blocks the strip kernels
walk once per strip).
`--kernel csf` is another name for rankb, and `--kernel bcoo` for mbrankb.
Datasets: Poisson1-3, NELL2, Netflix, Reddit, Amazon (scaled analogues).
--trace records execution spans (kernel calls, ALS iterations, tune
candidates) with Section IV byte/flop counters and writes chrome://tracing
JSON to `path` (default trace.json); open it at chrome://tracing or
https://ui.perfetto.dev.
`check` runs every kernel once under ExecPolicy::checked(): blocking
invariants are validated and each parallel task's output-row write set is
checked for races before the launch; violations print a structured report.
`fuzz` runs N deterministic seeds of adversarial tensors plus mutated .tns
and .tnsb (tile-framing) byte streams through every kernel, the tuner, the
planners, the parsers, and the dense reference; mismatches and panics
print minimized repros (and are written to --corpus, whose .tns/.tnsb
files are replayed first on later runs). Exits nonzero on any finding.
`chaos` runs a pinned matrix of fault-injection scenarios (every fault
site × {errno, transient errno, short read, bit flip, crash} × {first op,
mid-run, every Nth}) against store creation, streamed MTTKRP, and an
in-process serve registry with a spill tier, plus a kill -9 test
mid-`create_from_coo`. Each scenario must recover bit-exactly or fail
with a typed error; panics, hangs (60s watchdog), and half-written
stores visible to `open` are failures. --seeds N draws N scenario
instances round-robin over the matrix (N >= 90 covers every cell).
Exits nonzero on any violation.
`decompose --stream` runs CP-ALS out of core: the tensor is served from an
on-disk tile store (built on the fly for v1/.tns inputs, sized so two
tiles fit --tile-budget) and streamed per MTTKRP with double-buffered
prefetch; the factors match the in-memory path. --checked verifies each
tile's decoded rows against its bounds-derived band; --assert-peak-rss
fails the run if VmHWM exceeded the given bytes.
`serve --max-resident N` caps in-memory tensors: beyond N the registry
spills the least recently used to tile stores in --spill-dir (default a
temp dir) and streams them back on demand; {\"cmd\":\"list\"} reports
resident vs spilled handles and the stream counters.
The serve protocol is line-delimited JSON; see crates/serve/README.md.";

/// Caps each kernel axis of `grid` at the axis length `lens[ax]`, so
/// oversized requests and the built-in default grids degrade to coarser
/// grids on small tensors instead of erroring. A mode-0 kernel's axes run
/// along `dims`; see `decompose` for the all-modes case.
fn clamp_grid(grid: [usize; 3], lens: [usize; 3]) -> [usize; 3] {
    std::array::from_fn(|ax| grid[ax].min(lens[ax].max(1)))
}

/// Parses a `--grid AxBxC` spec for a mode-0 kernel, clamped by
/// [`clamp_grid`].
fn parse_grid(spec: &str, dims: [usize; 3]) -> Result<[usize; 3], String> {
    let parts: Vec<usize> = spec
        .split(['x', 'X'])
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad --grid `{spec}` (expected AxBxC, e.g. 4x4x2)"))?;
    if parts.len() != 3 || parts.contains(&0) {
        return Err(format!(
            "bad --grid `{spec}` (expected three positive axes AxBxC)"
        ));
    }
    Ok(clamp_grid([parts[0], parts[1], parts[2]], dims))
}

/// Resolves `--trace [path]`: present without a value means `trace.json`.
fn trace_path(args: &Args) -> Option<std::path::PathBuf> {
    args.flag("trace").map(|v| {
        if v.is_empty() {
            std::path::PathBuf::from("trace.json")
        } else {
            std::path::PathBuf::from(v)
        }
    })
}

/// Attaches `tracer` to `exec` when `--trace` was given.
fn with_tracing(
    exec: ExecPolicy,
    trace: &Option<std::path::PathBuf>,
    tracer: &Arc<TraceRecorder>,
) -> ExecPolicy {
    match trace {
        Some(_) => exec.with_recorder(Rec::new(Arc::clone(tracer) as _)),
        None => exec,
    }
}

/// Writes the recorded spans as chrome://tracing JSON; returns a footer
/// line for the command's output.
fn write_trace(tracer: &TraceRecorder, path: &Path) -> Result<String, String> {
    std::fs::write(path, tracer.to_chrome_json())
        .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    Ok(format!(
        "\nwrote {} spans (chrome://tracing JSON) to {}",
        tracer.snapshot().len(),
        path.display()
    ))
}

/// Peak resident set size (VmHWM) of this process in bytes, from
/// `/proc/self/status`. `None` off Linux or if the field is missing.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Where `decompose --stream` materializes the tile store when the input
/// is not already one: `--store <path>` or `<input>.tiles.tnsb`.
fn store_path(args: &Args, input: &Path) -> std::path::PathBuf {
    args.flag("store")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| input.with_extension("tiles.tnsb"))
}

/// `decompose --stream`: CP-ALS over a spilled tile store, never holding
/// the full tensor. A v2 `.tnsb` input is opened as-is; a v1 `.tnsb` is
/// re-tiled on disk in bounded memory (two streaming passes); a `.tns`
/// text file is loaded once to build the store (text has no random
/// access). The tile grid comes from `--tile-budget` via the tuner's
/// budget heuristic: expected tile ≤ budget/2, two tiles in flight.
fn decompose_stream(
    args: &Args,
    path: &str,
    rank: usize,
    iters: usize,
    method: &str,
) -> Result<String, String> {
    if method != "als" {
        return Err("--stream supports --method als only".to_string());
    }
    let budget: u64 = args.flag_or("tile-budget", 64u64 << 20);
    if budget == 0 {
        return Err("--tile-budget must be positive".to_string());
    }
    let trace = trace_path(args);
    let tracer = Arc::new(TraceRecorder::new());
    let base_exec = if args.flag("checked").is_some() {
        ExecPolicy::checked()
    } else {
        ExecPolicy::serial()
    };
    let exec = with_tracing(base_exec, &trace, &tracer);

    let p = Path::new(path);
    let (store, store_note) = match p.extension().and_then(|e| e.to_str()) {
        Some("tnsb") => {
            let hdr = io_bin::read_bin_header_file(p).map_err(|e| e.to_string())?;
            if hdr.version == io_bin::VERSION_TILES {
                let store = TileStore::open(p).map_err(|e| e.to_string())?;
                (store, format!("opened tile store {path}"))
            } else {
                if hdr.dims.len() != 3 {
                    return Err(format!(
                        "--stream needs a 3-mode tensor, {path} has order {}",
                        hdr.dims.len()
                    ));
                }
                let dims = [hdr.dims[0], hdr.dims[1], hdr.dims[2]];
                let grid = grid_for_tile_budget(dims, hdr.nnz as usize, budget);
                let dst = store_path(args, p);
                let store = TileStore::build_from_tnsb(p, grid, &dst).map_err(|e| e.to_string())?;
                (store, format!("tiled {path} -> {}", dst.display()))
            }
        }
        _ => {
            let t = load_tensor(path)?;
            let grid = grid_for_tile_budget(t.dims(), t.nnz(), budget);
            let dst = store_path(args, p);
            let store = TileStore::create_from_coo(&t, grid, &dst).map_err(|e| e.to_string())?;
            (store, format!("tiled {path} -> {}", dst.display()))
        }
    };

    let mut opts = CpAlsOptions::new(rank);
    opts.max_iters = iters;
    opts.kernel_cfg.strip_width = args.flag_or("strip", 16);
    opts.kernel_cfg.exec = exec;
    let solver = CpAlsStream::new(&store, opts);
    let result = solver.run().map_err(|e| e.to_string())?;
    let snap = solver.stats().snapshot();
    let n_tiles = store.n_tiles().max(1) as u64;
    let mut msg = format!(
        "CP-ALS (streamed) rank {rank}: fit {:.5} after {} iterations (converged: {})\n\
         {store_note}: {} tiles, grid {:?}, max tile {} B, budget {budget} B\n\
         streamed {} tiles / {} B in {} passes, prefetch stall {:.2} ms\n\
         prefetch thread: load {:.2} ms, prepare {:.2} ms, {} retried load(s)",
        result.fit_history.last().unwrap_or(&0.0),
        result.iterations,
        result.converged,
        store.n_tiles(),
        store.grid(),
        store.max_tile_bytes(),
        snap.tiles_loaded,
        snap.bytes_streamed,
        snap.tiles_loaded / n_tiles,
        snap.prefetch_stall_ns as f64 / 1e6,
        snap.prefetch_load_ns as f64 / 1e6,
        snap.prefetch_prepare_ns as f64 / 1e6,
        snap.tile_retries,
    );
    if let Some(cap) = args.flag("assert-peak-rss") {
        let cap: u64 = cap
            .parse()
            .map_err(|_| format!("bad --assert-peak-rss `{cap}` (expected bytes)"))?;
        let rss = peak_rss_bytes().ok_or("peak RSS unavailable on this platform")?;
        if rss > cap {
            return Err(format!("peak RSS {rss} B exceeds the asserted cap {cap} B"));
        }
        msg.push_str(&format!("\npeak RSS {rss} B (under the {cap} B cap)"));
    }
    if let Some(tp) = trace {
        msg.push_str(&write_trace(&tracer, &tp)?);
    }
    Ok(msg)
}

/// Runs one subcommand; returns the text to print or an error message.
pub fn run(cmd: &str, args: &Args) -> Result<String, String> {
    match cmd {
        "stats" => {
            let path = args.positional.first().ok_or("stats: missing <file>")?;
            let t = load_tensor(path)?;
            let s = TensorStats::of(&t);
            let mut out = s.table_row(path);
            out.push_str(&format!(
                "\nfibers per mode: {:?}\nnnz per fiber:  {:?}",
                s.fibers,
                s.nnz_per_fiber.map(|v| (v * 100.0).round() / 100.0)
            ));
            if let Some(spec) = args.flag("grid") {
                let grid = parse_grid(spec, t.dims())?;
                let counts = tenblock_tensor::stats::block_occupancy(&t, 0, grid);
                out.push_str(&format!(
                    "\nblock occupancy (mode-1 blocks, grid {}x{}x{}): {} nonempty blocks\n",
                    grid[0],
                    grid[1],
                    grid[2],
                    counts.len()
                ));
                out.push_str(&tenblock_tensor::stats::occupancy_histogram(&counts));
            }
            Ok(out)
        }
        "convert" => {
            let src = args.positional.first().ok_or("convert: missing <in>")?;
            let dst = args.positional.get(1).ok_or("convert: missing <out>")?;
            let t = load_tensor(src)?;
            save_tensor(&t, dst)?;
            Ok(format!("wrote {} nonzeros to {dst}", t.nnz()))
        }
        "gen" => {
            let name = args.positional.first().ok_or("gen: missing <dataset>")?;
            let dst = args.positional.get(1).ok_or("gen: missing <out>")?;
            let ds = dataset_by_name(name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
            let spec = ds.spec();
            let nnz = args.flag_or("nnz", spec.default_nnz);
            let seed = args.flag_or("seed", 42u64);
            let t = ds.generate_with(spec.default_dims, nnz, seed);
            save_tensor(&t, dst)?;
            Ok(format!(
                "generated {} analogue: dims {:?}, {} nonzeros -> {dst}",
                spec.name,
                t.dims(),
                t.nnz()
            ))
        }
        "bench" => {
            let path = args.positional.first().ok_or("bench: missing <file>")?;
            let rank: usize = args.flag_or("rank", 64);
            let reps: usize = args.flag_or("reps", 3);
            let t = load_tensor(path)?;
            let factors: Vec<DenseMatrix> = t
                .dims()
                .iter()
                .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 7 + c) % 11) as f64 * 0.1))
                .collect();
            let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
            let mut out = DenseMatrix::zeros(t.dims()[0], rank);
            let trace = trace_path(args);
            let tracer = Arc::new(TraceRecorder::new());
            let grid = match args.flag("grid") {
                Some(spec) => parse_grid(spec, t.dims())?,
                None => clamp_grid([4, 4, 2], t.dims()),
            };
            let cfg = KernelConfig {
                grid,
                strip_width: args.flag_or("strip", 16),
                exec: with_tracing(ExecPolicy::serial(), &trace, &tracer),
            };
            let mut lines = vec![format!(
                "mode-1 MTTKRP on {path}: nnz {}, rank {rank}, grid {}x{}x{}, strip {} (min/mean/stddev of {reps}, 1 warmup)",
                t.nnz(),
                cfg.grid[0],
                cfg.grid[1],
                cfg.grid[2],
                cfg.strip_width,
            )];
            let nnz = t.nnz().max(1) as f64;
            // `csf` and `bcoo` name kernels `rankb` and `mbrankb` already time.
            for kind in KernelKind::ALL
                .into_iter()
                .filter(|&k| !matches!(k, KernelKind::Csf | KernelKind::Bcoo))
            {
                let k = try_build_kernel(kind, &t, 0, &cfg).map_err(|e| e.to_string())?;
                let stats = time_reps(1, reps, || k.mttkrp(&fs, &mut out));
                lines.push(format!(
                    "  {:<10} {:>10.4} s  mean {:>10.4} s  sd {:>9.4} s   {:>6.1} tensor B/nnz",
                    k.name(),
                    stats.min_secs,
                    stats.mean_secs,
                    stats.stddev_secs,
                    k.tensor_bytes() as f64 / nnz
                ));
            }
            let mut msg = lines.join("\n");
            if let Some(p) = trace {
                msg.push_str(&write_trace(&tracer, &p)?);
            }
            Ok(msg)
        }
        "tune" => {
            let path = args.positional.first().ok_or("tune: missing <file>")?;
            let rank: usize = args.flag_or("rank", 64);
            let t = load_tensor(path)?;
            let cache = open_plan_cache(args)?;
            let key = PlanKey::of(&TensorStats::of(&t), rank);
            if let Some(plan) = cache.as_ref().and_then(|c| c.lookup(key)) {
                return Ok(format!(
                    "plan cache hit: kernel {}, grid {}x{}x{}, strip width {} ({:.4} s/MTTKRP when tuned)",
                    plan.kernel,
                    plan.grid[0],
                    plan.grid[1],
                    plan.grid[2],
                    plan.strip_width,
                    plan.best_secs
                ));
            }
            let trace = trace_path(args);
            let tracer = Arc::new(TraceRecorder::new());
            let mut opts = TuneOptions::new(rank);
            opts.reps = 2;
            opts.exec = with_tracing(opts.exec, &trace, &tracer);
            let r = tune(&t, 0, &opts);
            if let Some(cache) = &cache {
                let plan = TunedPlan {
                    kernel: KernelKind::MbRankB.as_str().to_string(),
                    grid: r.grid,
                    strip_width: r.strip_width,
                    best_secs: r.best_secs,
                };
                cache
                    .insert(key, plan)
                    .map_err(|e| format!("plan cache write failed: {e}"))?;
            }
            let mut msg = format!(
                "selected kernel {}, grid {}x{}x{}, strip width {} ({:.4} s/MTTKRP, {} candidates tried)",
                KernelKind::MbRankB.as_str(),
                r.grid[0],
                r.grid[1],
                r.grid[2],
                r.strip_width,
                r.best_secs,
                r.history.len()
            );
            if let Some(p) = trace {
                msg.push_str(&write_trace(&tracer, &p)?);
            }
            Ok(msg)
        }
        "decompose" => {
            let path = args.positional.first().ok_or("decompose: missing <file>")?;
            let rank: usize = args.flag_or("rank", 16);
            let iters: usize = args.flag_or("iters", 20);
            let method = args.flag("method").unwrap_or("als");
            if args.flag("stream").is_some() {
                return decompose_stream(args, path, rank, iters, method);
            }
            let t = load_tensor(path)?;
            // A cached plan for this tensor's shape and rank beats the
            // fixed default grid (and, when `--kernel` is not given, its
            // tuned kernel kind beats the default); a miss keeps the
            // defaults (no tuning run is triggered implicitly).
            let trace = trace_path(args);
            let tracer = Arc::new(TraceRecorder::new());
            let plan = open_plan_cache(args)?
                .and_then(|c| c.lookup(PlanKey::of(&TensorStats::of(&t), rank)));
            let kernel = match args.flag("kernel") {
                Some(name) => KernelKind::from_name(name).ok_or("unknown kernel name")?,
                None => plan
                    .as_ref()
                    .and_then(|p| KernelKind::from_name(&p.kernel))
                    .unwrap_or(KernelKind::MbRankB),
            };
            let mut cfg = plan
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
            // One grid serves all three modes' kernels, and each kernel axis
            // runs along every tensor mode in turn, so the shortest mode
            // bounds every axis (of the default and of a cached plan alike).
            let shortest = t.dims().into_iter().min().unwrap_or(1);
            cfg.grid = clamp_grid(cfg.grid, [shortest; 3]);
            cfg.exec = with_tracing(ExecPolicy::auto(), &trace, &tracer);
            let mut msg = match method {
                "als" => {
                    let kernels = (0..t.dims().len())
                        .map(|m| try_build_kernel(kernel, &t, m, &cfg))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| e.to_string())?;
                    let mut opts = CpAlsOptions::new(rank);
                    opts.max_iters = iters;
                    opts.kernel = kernel;
                    opts.kernel_cfg = cfg;
                    let result = CpAls::with_kernels(t.dims(), kernels, opts).run(&t);
                    format!(
                        "CP-ALS rank {rank}: fit {:.5} after {} iterations (converged: {})",
                        result.fit_history.last().unwrap_or(&0.0),
                        result.iterations,
                        result.converged
                    )
                }
                "apr" => {
                    let mut opts = CpAprOptions::new(rank);
                    opts.max_iters = iters;
                    opts.kernel = kernel;
                    opts.kernel_cfg = cfg;
                    let result = cp_apr(&t, &opts);
                    format!(
                        "CP-APR rank {rank}: log-likelihood {:.2} after {} iterations (converged: {})",
                        result.loglik_history.last().unwrap_or(&f64::NEG_INFINITY),
                        result.iterations,
                        result.converged
                    )
                }
                other => return Err(format!("unknown method `{other}` (als|apr)")),
            };
            if let Some(p) = trace {
                msg.push_str(&write_trace(&tracer, &p)?);
            }
            Ok(msg)
        }
        "serve" => {
            let addr = args.flag("addr").unwrap_or("127.0.0.1:7607");
            let config = ServerConfig {
                workers: args.flag_or("workers", 2),
                queue_capacity: args.flag_or("queue", 16),
                plan_cache_path: args.flag("plan-cache").map(std::path::PathBuf::from),
                max_resident: match args.flag("max-resident") {
                    Some(v) => Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("--max-resident: invalid count `{v}`"))?,
                    ),
                    None => None,
                },
                spill_dir: args.flag("spill-dir").map(std::path::PathBuf::from),
            };
            let server = Server::bind(addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
            // Announce before blocking: `run` only returns output after the
            // server exits, which is never in normal operation.
            eprintln!("tenblock serve: listening on {}", server.addr());
            server.join();
            Ok("server stopped".to_string())
        }
        "check" => {
            let path = args.positional.first().ok_or("check: missing <file>")?;
            let rank: usize = args.flag_or("rank", 16);
            let t = load_tensor(path)?;
            let factors: Vec<DenseMatrix> = t
                .dims()
                .iter()
                .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 3 + c) % 7) as f64 * 0.25))
                .collect();
            let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
            let cfg = KernelConfig {
                grid: clamp_grid([4, 4, 2], t.dims()),
                strip_width: 16,
                exec: ExecPolicy::checked(),
            };
            let mut lines = vec![format!(
                "checked mode-1 MTTKRP on {path}: nnz {}, rank {rank}, {} workers",
                t.nnz(),
                cfg.exec.threads.workers()
            )];
            let mut failures = 0usize;
            for kind in KernelKind::ALL {
                let k = try_build_kernel(kind, &t, 0, &cfg).map_err(|e| e.to_string())?;
                let mut out = DenseMatrix::zeros(t.dims()[0], rank);
                match k.mttkrp_checked(&fs, &mut out) {
                    Ok(()) => lines.push(format!(
                        "  {:<10} ok (invariants hold, write sets race-free)",
                        k.name()
                    )),
                    Err(report) => {
                        failures += 1;
                        lines.push(format!("  {:<10} FAIL\n{report}", k.name()));
                    }
                }
            }
            if failures > 0 {
                Err(lines.join("\n"))
            } else {
                Ok(lines.join("\n"))
            }
        }
        "fuzz" => {
            let opts = tenblock_fuzz::FuzzOptions {
                seeds: args.flag_or("seeds", 200u64),
                base_seed: args.flag_or("seed", 0x7eb0u64),
                corpus: args
                    .flag("corpus")
                    .filter(|p| !p.is_empty())
                    .map(std::path::PathBuf::from),
            };
            let report = tenblock_fuzz::run(&opts);
            if report.is_clean() {
                Ok(format!("{report}"))
            } else {
                Err(format!("{report}"))
            }
        }
        "chaos" => {
            if let Some(dir) = args.flag("child") {
                if dir.is_empty() {
                    return Err("--child requires a directory".to_string());
                }
                return crate::chaos::child_loop(dir);
            }
            let seeds = args.flag_or("seeds", 90u64);
            crate::chaos::run(seeds)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

/// Opens the `--plan-cache` file when the flag is present (with a value).
fn open_plan_cache(args: &Args) -> Result<Option<PlanCache>, String> {
    match args.flag("plan-cache") {
        Some(path) if !path.is_empty() => PlanCache::open(Path::new(path))
            .map(Some)
            .map_err(|e| format!("plan cache {path}: {e}")),
        Some(_) => Err("--plan-cache requires a path".to_string()),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("tenblock_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn arg_parsing() {
        let raw: Vec<String> = ["a.tns", "--rank", "32", "b.tnsb", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&raw);
        assert_eq!(a.positional, vec!["a.tns", "b.tnsb"]);
        assert_eq!(a.flag("rank"), Some("32"));
        assert_eq!(a.flag_or("seed", 0u64), 7);
        assert_eq!(a.flag_or("missing", 5usize), 5);
    }

    #[test]
    fn valueless_flag_does_not_swallow_the_next_flag() {
        let raw: Vec<String> = ["--verbose", "--rank", "8", "x.tns", "--dry-run"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&raw);
        // `--verbose` has no value; `--rank` must keep its `8`.
        assert_eq!(a.flag("verbose"), Some(""));
        assert_eq!(a.flag("rank"), Some("8"));
        assert_eq!(a.positional, vec!["x.tns"]);
        assert_eq!(a.flag("dry-run"), Some(""));
    }

    #[test]
    fn gen_stats_convert_roundtrip() {
        let tns = tmpfile("gen.tns");
        let raw = vec!["Poisson1".to_string(), tns.clone()];
        let mut args = Args::parse(&raw);
        args.flags.push(("nnz".into(), "2000".into()));
        args.flags.push(("seed".into(), "1".into()));
        let msg = run("gen", &args).unwrap();
        assert!(msg.contains("Poisson1"));

        let stats = run("stats", &Args::parse(std::slice::from_ref(&tns))).unwrap();
        assert!(stats.contains("fibers per mode"));
        assert!(!stats.contains("block occupancy"), "histogram is opt-in");

        let mut gridded = Args::parse(std::slice::from_ref(&tns));
        gridded.flags.push(("grid".into(), "4x4x2".into()));
        let stats = run("stats", &gridded).unwrap();
        assert!(stats.contains("block occupancy"), "{stats}");
        assert!(stats.contains("nnz/block"), "{stats}");

        let mut bad = Args::parse(std::slice::from_ref(&tns));
        bad.flags.push(("grid".into(), "4x0x2".into()));
        assert!(run("stats", &bad).is_err(), "zero axis must be rejected");

        let tnsb = tmpfile("gen.tnsb");
        let msg = run("convert", &Args::parse(&[tns.clone(), tnsb.clone()])).unwrap();
        assert!(msg.contains("wrote"));
        let a = load_tensor(&tns).unwrap();
        let b = load_tensor(&tnsb).unwrap();
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn stats_reads_a_tile_store_as_its_v1_file() {
        let tns = tmpfile("store_src.tns");
        let mut args = Args::parse(&["Poisson1".to_string(), tns.clone()]);
        args.flags.push(("nnz".into(), "2000".into()));
        args.flags.push(("seed".into(), "3".into()));
        run("gen", &args).unwrap();
        let v1 = tmpfile("store_src.tnsb");
        run("convert", &Args::parse(&[tns.clone(), v1.clone()])).unwrap();
        let store = tmpfile("store_src.tiles.tnsb");
        let mut dargs = Args::parse(std::slice::from_ref(&v1));
        for (k, v) in [
            ("rank", "4"),
            ("iters", "1"),
            ("stream", ""),
            ("store", store.as_str()),
        ] {
            dargs.flags.push((k.into(), v.into()));
        }
        let msg = run("decompose", &dargs).unwrap();
        assert!(msg.contains("tiled"), "{msg}");

        let stats = |path: &str| {
            let out = run("stats", &Args::parse(&[path.to_string()])).unwrap();
            out.replace(path, "<file>")
        };
        assert_eq!(stats(&store), stats(&v1));
        assert_eq!(load_tensor(&store).unwrap(), load_tensor(&v1).unwrap());
    }

    #[test]
    fn bench_tune_decompose_smoke() {
        let tns = tmpfile("small.tnsb");
        let mut args = Args::parse(&["Poisson1".to_string(), tns.clone()]);
        args.flags.push(("nnz".into(), "3000".into()));
        run("gen", &args).unwrap();

        let mut bargs = Args::parse(std::slice::from_ref(&tns));
        bargs.flags.push(("rank".into(), "8".into()));
        bargs.flags.push(("reps".into(), "1".into()));
        let bench = run("bench", &bargs).unwrap();
        assert!(bench.contains("SPLATT"));
        assert_eq!(bench.matches("MB+RankB").count(), 1, "{bench}");

        let tune_out = run("tune", &bargs).unwrap();
        assert!(tune_out.contains("selected kernel"));
        assert!(tune_out.contains("grid"));

        let mut dargs = Args::parse(std::slice::from_ref(&tns));
        dargs.flags.push(("rank".into(), "4".into()));
        dargs.flags.push(("iters".into(), "3".into()));
        let als = run("decompose", &dargs).unwrap();
        assert!(als.contains("CP-ALS"));
        dargs.flags.push(("method".into(), "apr".into()));
        let apr = run("decompose", &dargs).unwrap();
        assert!(apr.contains("CP-APR"));
    }

    fn parse_fit(msg: &str) -> f64 {
        let at = msg.find("fit ").expect("fit in output") + 4;
        msg[at..]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .expect("numeric fit")
    }

    #[test]
    fn decompose_stream_matches_in_memory_and_reports_counters() {
        let tnsb = tmpfile("stream_src.tnsb");
        let mut gargs = Args::parse(&["Poisson1".to_string(), tnsb.clone()]);
        gargs.flags.push(("nnz".into(), "4000".into()));
        gargs.flags.push(("seed".into(), "11".into()));
        run("gen", &gargs).unwrap();

        let mut mem = Args::parse(std::slice::from_ref(&tnsb));
        mem.flags.push(("rank".into(), "4".into()));
        mem.flags.push(("iters".into(), "5".into()));
        let in_memory = run("decompose", &mem).unwrap();

        // Tile budget far below the tensor's entry footprint forces a
        // real multi-tile grid; checked mode and the RSS assertion ride
        // along.
        let store = tmpfile("stream_src.tiles.tnsb");
        let mut st = mem.clone();
        st.flags.push(("stream".into(), String::new()));
        st.flags.push(("tile-budget".into(), "16384".into()));
        st.flags.push(("store".into(), store.clone()));
        st.flags.push(("checked".into(), String::new()));
        st.flags
            .push(("assert-peak-rss".into(), (1u64 << 40).to_string()));
        let streamed = run("decompose", &st).unwrap();
        assert!(streamed.contains("CP-ALS (streamed)"), "{streamed}");
        assert!(streamed.contains("passes"), "{streamed}");
        assert!(streamed.contains("peak RSS"), "{streamed}");
        assert!(
            (parse_fit(&streamed) - parse_fit(&in_memory)).abs() < 1e-4,
            "streamed vs in-memory fit:\n{streamed}\n{in_memory}"
        );
        // 5 iterations x 3 modes + the norm pass = 16 passes.
        assert!(streamed.contains("in 16 passes"), "{streamed}");

        // The materialized store is a valid v2 input on its own.
        let mut reopened = Args::parse(std::slice::from_ref(&store));
        reopened.flags.push(("rank".into(), "4".into()));
        reopened.flags.push(("iters".into(), "5".into()));
        reopened.flags.push(("stream".into(), String::new()));
        let again = run("decompose", &reopened).unwrap();
        assert!(again.contains("opened tile store"), "{again}");
        assert!(
            (parse_fit(&again) - parse_fit(&streamed)).abs() < 1e-12,
            "same store, same fit:\n{again}\n{streamed}"
        );

        // APR has no streaming path: typed refusal, not a panic.
        let mut apr = st.clone();
        apr.flags.push(("method".into(), "apr".into()));
        assert!(run("decompose", &apr).is_err());
    }

    #[test]
    fn plan_cache_flag_shares_plans_between_tune_and_decompose() {
        let tns = tmpfile("plan_cached.tnsb");
        let mut gargs = Args::parse(&["Poisson1".to_string(), tns.clone()]);
        gargs.flags.push(("nnz".into(), "2000".into()));
        run("gen", &gargs).unwrap();

        let cache = tmpfile("plans.json");
        let _ = std::fs::remove_file(&cache);
        let mut targs = Args::parse(std::slice::from_ref(&tns));
        targs.flags.push(("rank".into(), "8".into()));
        targs.flags.push(("plan-cache".into(), cache.clone()));
        let first = run("tune", &targs).unwrap();
        assert!(first.contains("selected kernel"), "{first}");
        let second = run("tune", &targs).unwrap();
        assert!(second.contains("plan cache hit"), "{second}");

        let mut dargs = Args::parse(std::slice::from_ref(&tns));
        dargs.flags.push(("rank".into(), "8".into()));
        dargs.flags.push(("iters".into(), "2".into()));
        dargs.flags.push(("plan-cache".into(), cache));
        let als = run("decompose", &dargs).unwrap();
        assert!(als.contains("CP-ALS"), "{als}");
    }

    #[test]
    fn decompose_trace_writes_chrome_json() {
        let tns = tmpfile("traced.tnsb");
        let mut gargs = Args::parse(&["Poisson1".to_string(), tns.clone()]);
        gargs.flags.push(("nnz".into(), "2000".into()));
        run("gen", &gargs).unwrap();

        let out = tmpfile("trace.json");
        let _ = std::fs::remove_file(&out);
        let mut dargs = Args::parse(std::slice::from_ref(&tns));
        dargs.flags.push(("rank".into(), "4".into()));
        dargs.flags.push(("iters".into(), "2".into()));
        dargs.flags.push(("kernel".into(), "splatt".into()));
        dargs.flags.push(("trace".into(), out.clone()));
        let msg = run("decompose", &dargs).unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with('['), "not a chrome event array");
        assert!(json.contains("\"ph\""));
        assert!(json.contains("cpd/als/iter"));
        assert!(json.contains("mttkrp/SPLATT"));
        assert!(json.contains("tensor_bytes"));
    }

    #[test]
    fn fuzz_smoke_is_clean() {
        let mut args = Args::default();
        args.flags.push(("seeds".into(), "15".into()));
        let msg = run("fuzz", &args).unwrap();
        assert!(msg.contains("no findings"), "{msg}");
        assert!(msg.contains("15 seed(s)"), "{msg}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run("stats", &Args::default()).is_err());
        assert!(run("nonsense", &Args::default()).is_err());
        assert!(load_tensor("/nonexistent.xyz").is_err());
        let mut dargs = Args::parse(&["x.tns".to_string()]);
        dargs.flags.push(("method".into(), "magic".into()));
        assert!(run("decompose", &dargs).is_err());
        assert!(run("help", &Args::default()).unwrap().contains("USAGE"));
        // `bench` has no file-less form: the flags of the removed quick
        // suite get the usage error, not a silent no-op.
        for raw in [&[][..], &["--json"], &["--compare", "x"]] {
            let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            let err = run("bench", &Args::parse(&raw)).unwrap_err();
            assert!(err.contains("missing <file>"), "{raw:?}: {err}");
        }
    }

    #[test]
    fn default_grids_shrink_to_a_tensor_with_a_short_mode() {
        // 3 x 9 x 9: shorter along mode 0 than the default grids' 4 blocks.
        let tns = tmpfile("short_mode.tns");
        std::fs::write(&tns, "1 1 1 1.0\n3 9 9 2.0\n2 5 4 3.0\n").unwrap();
        let file = Args::parse(std::slice::from_ref(&tns));
        let bench = run("bench", &file).unwrap();
        assert!(bench.contains("grid 3x4x2"), "{bench}");
        let check = run("check", &file).unwrap();
        assert!(check.contains("MB+RankB"), "{check}");
        let mut dargs = file.clone();
        dargs.flags.push(("iters".into(), "2".into()));
        let als = run("decompose", &dargs).unwrap();
        assert!(als.contains("CP-ALS"), "{als}");
        dargs.flags.push(("method".into(), "apr".into()));
        let apr = run("decompose", &dargs).unwrap();
        assert!(apr.contains("CP-APR"), "{apr}");
    }
}

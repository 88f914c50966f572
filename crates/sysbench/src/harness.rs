//! The measured phase: set-up, the job from input bytes to fit, and the warm
//! MTTKRP sweeps, each through the workload's own execution path, with
//! tracing off. The job functions take a recorder so the traced phase
//! (`layers.rs`) runs the very same code with one attached.

use crate::client::{self, Client};
use crate::json::Json;
use crate::machine::{peak_rss_mb, Machine};
use crate::spec::{Path, Workload, STRIP, TILE_BUDGET};
use crate::stats::{median, spread, timed};
use std::path::PathBuf;
use std::time::Instant;
use tenblock_core::obs::Rec;
use tenblock_core::tune::grid_for_tile_budget;
use tenblock_core::{
    build_kernel, ExecPolicy, KernelConfig, KernelKind, MttkrpKernel, StreamingMttkrp,
};
use tenblock_cpd::{CpAls, CpAlsOptions, CpAlsStream};
use tenblock_serve::{Server, ServerConfig};
use tenblock_tensor::io::{read_tns, write_tns};
use tenblock_tensor::{CooTensor, DenseMatrix, TileStore};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Connections of the closed loop; with the server's two workers idle
/// while a client waits, busy threads never exceed a 2-core `nproc`.
pub const LOOP_CLIENTS: usize = 2;
/// Agreement demanded of anything compared to a reference.
pub const TOLERANCE: f64 = 1e-9;
/// Handle the input is registered under on every server.
pub const HANDLE: &str = "t";

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// `check` only: a token machine probe instead of gigabytes of triad.
    pub smoke: bool,
    /// Perturbs every reference, so `check` can see the checks fail.
    pub corrupt_reference: bool,
    /// A probe taken by the parent, if there was one.
    pub machine: Option<Machine>,
    /// Where scratch directories and traces go (inside the checkout).
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Quartile distance over median of the samples behind `value`.
    pub spread: f64,
}

/// What a phase reports: metrics, operations attempted and failed, and a
/// line for each failure.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub ops: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: 1,
            spread: 0.0,
        });
    }

    /// The median of `samples` under `name`.
    pub fn put_median(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: median(samples),
            unit,
            samples: samples.len(),
            spread: spread(samples),
        });
    }

    /// Counts one operation; a failed one is also noted.
    pub fn op(&mut self, result: Result<(), String>) {
        self.ops += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.notes.push(why);
        }
    }

    /// A result check, counted as an operation of its own.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One set-up: generate from the seed, write the `.tns` bytes, drop the
/// tensor. Everything measured afterwards sees only the file.
pub fn write_input(w: &Workload, seed: u64, input: &std::path::Path) -> Result<(), String> {
    let x = w.generate(seed);
    let file = std::fs::File::create(input).map_err(|e| format!("create input: {e}"))?;
    write_tns(&x, std::io::BufWriter::new(file)).map_err(|e| format!("write input: {e}"))
}

pub fn parse_input(input: &std::path::Path) -> Result<CooTensor, String> {
    let file = std::fs::File::open(input).map_err(|e| format!("open input: {e}"))?;
    read_tns(file).map_err(|e| format!("parse input: {e}"))
}

/// An in-process server on an OS-assigned port.
pub fn bind_server() -> Result<Server, String> {
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

/// The solver options of a workload; `tol = 0` pins the iteration count.
pub fn als_options(w: &Workload, exec: ExecPolicy) -> CpAlsOptions {
    let (kernel, grid) = match w.path {
        Path::Mem { kernel, grid, .. } => (kernel, grid),
        // `CpAlsStream` ignores both: the store's grid is the blocking.
        Path::Stream | Path::Serve => (KernelKind::Bcoo, [1, 1, 1]),
    };
    let mut opts = CpAlsOptions::new(w.rank);
    opts.max_iters = w.iters;
    opts.tol = 0.0;
    opts.kernel = kernel;
    opts.kernel_cfg = KernelConfig {
        grid,
        strip_width: STRIP,
        exec,
    };
    opts
}

pub fn exec_policy(w: &Workload, rec: &Rec) -> ExecPolicy {
    let exec = match w.path {
        Path::Mem { parallel: true, .. } => ExecPolicy::auto(),
        _ => ExecPolicy::serial(),
    };
    exec.with_recorder(rec.clone())
}

/// What one job yields: the times behind `job_s`, `prepare_s`, `iter_s`,
/// and the result the checks look at.
#[derive(Debug, Clone)]
pub struct JobOut {
    pub total_s: f64,
    pub prepare_s: f64,
    pub solve_s: f64,
    pub iterations: usize,
    /// Fit after each iteration (the served job only reports the last).
    pub fits: Vec<f64>,
}

/// Times `f` under a harness span `bench/<workload>/<step>`; with the
/// no-op recorder the span costs a branch.
pub fn step<T>(rec: &Rec, w: &Workload, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = rec.span(&format!("bench/{}/{name}", w.name));
    timed(f)
}

/// A run's scratch directory, the files in it, and what a job leaves for
/// later steps. The directory is removed on drop — on an error return and
/// on a panic's unwind as much as on success.
pub struct Env {
    dir: PathBuf,
    pub input: PathBuf,
    pub store: PathBuf,
    /// The server of the last served job, tensor loaded.
    pub server: Option<Server>,
}

impl Env {
    pub fn new(work_dir: &std::path::Path, w: &Workload) -> Result<Env, String> {
        let dir = work_dir.join(format!("tmp-{}-{}", std::process::id(), w.name));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // The server resolves `load` paths itself, so hand it absolute ones.
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        Ok(Env {
            input: dir.join("input.tns"),
            store: dir.join("store.tnsb"),
            server: None,
            dir,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.server = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the workload's job once: input bytes → parse → layout → N ALS
/// iterations → final fit, along the workload's path.
pub fn run_job(w: &Workload, env: &mut Env, rec: &Rec) -> Result<JobOut, String> {
    let mut t0 = Instant::now();
    let (prepare_s, solve_s, iterations, fits) = match w.path {
        Path::Mem { .. } => {
            let x = step(rec, w, "parse", || parse_input(&env.input)).0?;
            let opts = als_options(w, exec_policy(w, rec));
            let (als, _) = step(rec, w, "build", || CpAls::new(&x, opts));
            let prepare_s = t0.elapsed().as_secs_f64();
            let (r, solve_s) = step(rec, w, "solve", || als.run(&x));
            (prepare_s, solve_s, r.iterations, r.fit_history)
        }
        Path::Stream => {
            let x = step(rec, w, "parse", || parse_input(&env.input)).0?;
            let (store, _) = step(rec, w, "tilestore", || {
                let grid = grid_for_tile_budget(x.dims(), x.nnz(), TILE_BUDGET);
                TileStore::create_from_coo(&x, grid, &env.store)
            });
            let store = store.map_err(|e| format!("tile store: {e}"))?;
            drop(x);
            let opts = als_options(w, exec_policy(w, rec));
            let (solver, _) = step(rec, w, "build", || CpAlsStream::new(&store, opts));
            let prepare_s = t0.elapsed().as_secs_f64();
            let (r, solve_s) = step(rec, w, "solve", || solver.run());
            let r = r.map_err(|e| format!("streamed ALS: {e}"))?;
            (prepare_s, solve_s, r.iterations, r.fit_history)
        }
        Path::Serve => {
            // Binding is set-up, not job: a fresh server per repetition
            // only keeps one job's registry from serving the next.
            env.server = None;
            let server = env.server.insert(bind_server()?);
            t0 = Instant::now();
            let mut c = Client::connect(server.addr())?;
            let load = client::load(HANDLE, &env.input);
            step(rec, w, "load", || c.request(&load)).0?;
            let prepare_s = t0.elapsed().as_secs_f64();
            let decompose = client::decompose(HANDLE, w.rank, w.iters);
            let (result, solve_s) = step(rec, w, "solve", || c.job(&decompose)).0?;
            let num = |key: &str| {
                result
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("decompose result without {key:?}: {result}"))
            };
            (
                prepare_s,
                solve_s,
                num("iterations")? as usize,
                vec![num("fit")?],
            )
        }
    };
    Ok(JobOut {
        total_s: t0.elapsed().as_secs_f64(),
        prepare_s,
        solve_s,
        iterations,
        fits,
    })
}

/// Factor matrices every sweep and probe uses: fixed pseudo-random values
/// in `[0.5, 1.5)`, a function of position only.
pub fn sweep_factors(dims: [usize; 3], rank: usize) -> Vec<DenseMatrix> {
    dims.iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                let h = ((r * rank + c) as u64 + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(m as u64)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
            })
        })
        .collect()
}

/// Largest element difference over the largest reference element.
pub fn rel_max_diff(got: &DenseMatrix, want: &DenseMatrix) -> f64 {
    let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if got.rows() != want.rows() || got.cols() != want.cols() {
        return f64::INFINITY;
    }
    got.max_abs_diff(want) / scale.max(f64::MIN_POSITIVE)
}

/// The three MTTKRPs by the coordinate kernel: the reference for every
/// sweep. `corrupt` scales it, which every comparison must then notice.
pub fn reference_sweep(x: &CooTensor, factors: &[DenseMatrix], corrupt: bool) -> Vec<DenseMatrix> {
    let fs = [&factors[0], &factors[1], &factors[2]];
    (0..3)
        .map(|m| {
            let k = build_kernel(KernelKind::Coo, x, m, &KernelConfig::default());
            let mut out = DenseMatrix::zeros(x.dims()[m], factors[m].cols());
            k.mttkrp(&fs, &mut out);
            if corrupt {
                out.as_mut_slice().iter_mut().for_each(|v| *v *= 1.001);
            }
            out
        })
        .collect()
}

fn bits(m: &DenseMatrix) -> u64 {
    m.as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Times `sweeps` three-mode sweeps after one warm-up; returns the seconds
/// of each and the outputs of the last. Each sweep is one operation, failed
/// if a mode errs or its output's bits differ from the first sweep's.
fn sweep_loop(
    dims: [usize; 3],
    rank: usize,
    sweeps: usize,
    report: &mut Report,
    mut one: impl FnMut(usize, &mut DenseMatrix) -> Result<(), String>,
) -> (Vec<f64>, Vec<DenseMatrix>) {
    let mut outs: Vec<DenseMatrix> = dims.iter().map(|&d| DenseMatrix::zeros(d, rank)).collect();
    let mut first: Option<Vec<u64>> = None;
    let mut secs = Vec::new();
    // The first sweep warms caches and the allocator and is not kept.
    for n in 0..=sweeps {
        let (result, s) = timed(|| (0..3).try_for_each(|m| one(m, &mut outs[m])));
        if n == 0 {
            if let Err(why) = result {
                report.op(Err(why));
                break;
            }
            continue;
        }
        secs.push(s);
        let sums: Vec<u64> = outs.iter().map(bits).collect();
        let same = *first.get_or_insert_with(|| sums.clone()) == sums;
        report.op(result.and_then(|()| {
            same.then_some(())
                .ok_or(format!("sweep {n}: output differs from the first sweep's"))
        }));
    }
    (secs, outs)
}

/// The closed loop: each client sends its next `mttkrp` when the last one
/// answered, modes round-robin, `per_client` requests each. Returns
/// per-request seconds per client; a refused or failed request is a failed
/// operation.
pub fn closed_loop(
    server: &Server,
    rank: usize,
    per_client: usize,
    report: &mut Report,
) -> Vec<Vec<f64>> {
    let addr = server.addr();
    let outcomes: Vec<(Vec<f64>, Option<String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..LOOP_CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut secs = Vec::new();
                    let mut c = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return (secs, Some(e)),
                    };
                    while secs.len() < per_client {
                        match c.job(&client::mttkrp(HANDLE, secs.len() % 3, rank)) {
                            Ok((_, s)) => secs.push(s),
                            // The connection's state is unknown after an
                            // error; the client stops there.
                            Err(e) => return (secs, Some(e)),
                        }
                    }
                    (secs, None)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| (Vec::new(), Some("client thread panicked".into())))
            })
            .collect()
    });
    outcomes
        .into_iter()
        .map(|(secs, error)| {
            secs.iter().for_each(|_| report.op(Ok(())));
            error.into_iter().for_each(|e| report.op(Err(e)));
            secs
        })
        .collect()
}

/// Checks fit histories: all repetitions bit-identical to the first, and
/// every value a finite fit.
pub fn check_repeatable(jobs: &[JobOut], report: &mut Report) {
    let Some(first) = jobs.first() else { return };
    for (n, j) in jobs.iter().enumerate() {
        let same = j.iterations == first.iterations
            && j.fits.len() == first.fits.len()
            && j.fits
                .iter()
                .zip(&first.fits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let sane = j.fits.iter().all(|f| f.is_finite() && *f <= 1.0);
        report.expect(same && sane, || {
            format!(
                "job {n}: fit history {:?} differs from job 0's {:?}",
                j.fits, first.fits
            )
        });
    }
}

/// The in-process solver a workload's result is held against: for the
/// streamed job, `CpAls` over BCOO at the store's grid; for the served
/// job, what the server runs for `decompose` without a tuned plan
/// (`mbrankb`, grid `[4,2,2]`, strip 16, default `tol`, all threads).
pub fn reference_options(w: &Workload, x: &CooTensor, rec: &Rec) -> CpAlsOptions {
    let mut opts = als_options(w, ExecPolicy::serial().with_recorder(rec.clone()));
    match w.path {
        Path::Stream => {
            opts.kernel = KernelKind::Bcoo;
            opts.kernel_cfg.grid = grid_for_tile_budget(x.dims(), x.nnz(), TILE_BUDGET);
        }
        Path::Serve => {
            opts.kernel = KernelKind::MbRankB;
            opts.kernel_cfg.grid = [4, 2, 2];
            opts.kernel_cfg.exec = ExecPolicy::auto().with_recorder(rec.clone());
            opts.tol = CpAlsOptions::new(w.rank).tol;
        }
        Path::Mem { .. } => {}
    }
    opts
}

/// Holds a job's fits against the reference solver's, within `TOLERANCE`.
pub fn check_against_reference(
    w: &Workload,
    job: &JobOut,
    reference: &tenblock_cpd::CpAlsResult,
    corrupt: bool,
    report: &mut Report,
) {
    let bias = if corrupt { 1e-3 } else { 0.0 };
    let want: Vec<f64> = match w.path {
        Path::Serve => reference.fit_history.last().copied().into_iter().collect(),
        _ => reference.fit_history.clone(),
    };
    let ok = job.iterations == reference.iterations
        && job.fits.len() == want.len()
        && job
            .fits
            .iter()
            .zip(&want)
            .all(|(a, b)| (a - (b + bias)).abs() <= TOLERANCE);
    report.expect(ok, || {
        format!(
            "{}: fits {:?} ({} iterations) differ from the reference solver's {:?} ({})",
            w.name, job.fits, job.iterations, want, reference.iterations
        )
    });
}

/// What the warm sweeps yield: seconds per sweep, the last outputs, and
/// the factors they were computed from (both empty on the served path,
/// which returns no numbers to check).
struct Swept {
    secs: Vec<f64>,
    outs: Vec<DenseMatrix>,
    factors: Vec<DenseMatrix>,
}

/// One untimed and `n_sweeps` timed three-mode sweeps through the
/// workload's path, on what the last job left behind.
fn sweep_phase(
    w: &Workload,
    env: &Env,
    n_sweeps: usize,
    report: &mut Report,
) -> Result<Swept, String> {
    match w.path {
        Path::Mem { kernel, grid, .. } => {
            let x = parse_input(&env.input)?;
            let cfg = KernelConfig {
                grid,
                strip_width: STRIP,
                exec: exec_policy(w, &Rec::noop()),
            };
            let kernels: Vec<Box<dyn MttkrpKernel>> =
                (0..3).map(|m| build_kernel(kernel, &x, m, &cfg)).collect();
            let factors = sweep_factors(x.dims(), w.rank);
            let fs = [&factors[0], &factors[1], &factors[2]];
            let (secs, outs) = sweep_loop(x.dims(), w.rank, n_sweeps, report, |m, out| {
                kernels[m].mttkrp(&fs, out);
                Ok(())
            });
            Ok(Swept {
                secs,
                outs,
                factors,
            })
        }
        Path::Stream => {
            let store = TileStore::open(&env.store).map_err(|e| format!("open store: {e}"))?;
            let factors = sweep_factors(store.dims(), w.rank);
            let fs = [&factors[0], &factors[1], &factors[2]];
            let (secs, outs) = sweep_loop(store.dims(), w.rank, n_sweeps, report, |m, out| {
                StreamingMttkrp::new(&store, m, STRIP)
                    .run(&fs, out)
                    .map_err(|e| format!("streamed MTTKRP mode {m}: {e}"))
            });
            Ok(Swept {
                secs,
                outs,
                factors,
            })
        }
        Path::Serve => {
            let server = env.server.as_ref().ok_or("no server left by the jobs")?;
            // One sample per sweep: three consecutive round trips of one
            // client, one per mode. No request is untimed, so the warm
            // call sends one round.
            let requests = 3 * n_sweeps.div_ceil(LOOP_CLIENTS).max(1);
            let per_client = closed_loop(server, w.rank, requests, report);
            let secs = per_client
                .iter()
                .flat_map(|c| c.chunks_exact(3).map(|s| s.iter().sum::<f64>()))
                .collect();
            Ok(Swept {
                secs,
                outs: Vec::new(),
                factors: Vec::new(),
            })
        }
    }
}

/// The measured phase of one run: end-to-end metrics, tracing off.
pub fn measure(w: &Workload, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut env = Env::new(&opts.work_dir, w)?;

    // The first set-up pays for this process's first page faults and is
    // not kept.
    let mut setup = Vec::new();
    for _ in 0..=SETUPS {
        let (done, s) = timed(|| {
            write_input(w, opts.seed, &env.input)?;
            if matches!(w.path, Path::Serve) {
                drop(bind_server()?);
            }
            Ok::<(), String>(())
        });
        done?;
        setup.push(s);
    }
    setup.remove(0);

    let (n_jobs, n_sweeps) = w.repetitions(opts.seconds);
    let mut jobs = Vec::new();
    let mut peak = None;
    for n in 0..n_jobs {
        match run_job(w, &mut env, &Rec::noop()) {
            Ok(j) => {
                report.op(Ok(()));
                jobs.push(j);
            }
            Err(why) => report.op(Err(why)),
        }
        if n == 0 {
            // Memory is read once the process has run one job and one
            // sweep. Later repetitions add only what the allocator happens
            // to keep from earlier ones (it differs by a fifth between
            // identical runs of the served workload), and the references
            // computed at the end are the benchmark's, not the program's.
            sweep_phase(w, &env, 0, &mut report)?;
            peak = peak_rss_mb();
        }
    }
    if jobs.is_empty() {
        return Err(format!("every job failed: {:?}", report.notes));
    }
    let peak = peak.ok_or("cannot read VmHWM from /proc/self/status")?;
    check_repeatable(&jobs, &mut report);

    let Swept {
        secs: sweeps,
        outs,
        factors,
    } = sweep_phase(w, &env, n_sweeps, &mut report)?;
    env.server = None;

    let x = parse_input(&env.input)?;
    if !outs.is_empty() {
        let want = reference_sweep(&x, &factors, opts.corrupt_reference);
        for (m, (got, want)) in outs.iter().zip(&want).enumerate() {
            let diff = rel_max_diff(got, want);
            report.expect(diff <= TOLERANCE, || {
                format!("sweep output of mode {m} is {diff:e} from the coo kernel's")
            });
        }
    }
    if let (Path::Stream | Path::Serve, Some(job)) = (w.path, jobs.first()) {
        let reference = CpAls::new(&x, reference_options(w, &x, &Rec::noop())).run(&x);
        check_against_reference(w, job, &reference, opts.corrupt_reference, &mut report);
    }

    let of = |f: fn(&JobOut) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    report.put_median("setup_s", &setup, "s");
    report.put_median("job_s", &of(|j| j.total_s), "s");
    report.put_median("prepare_s", &of(|j| j.prepare_s), "s");
    report.put_median(
        "iter_s",
        &of(|j| j.solve_s / j.iterations.max(1) as f64),
        "s",
    );
    report.put_median("mttkrp_s", &sweeps, "s");
    report.put("peak_rss_mb", peak, "MiB");
    Ok(report)
}

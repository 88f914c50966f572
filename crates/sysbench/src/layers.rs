//! The traced phase: one more job with a `TraceRecorder` attached, then a
//! probe of every layer from outside — timed calls into the layers' public
//! functions, each under a harness span `bench/<workload>/<step>` on the
//! same recorder, so the library's own `mttkrp/*` and `cpd/als/iter` spans
//! nest under them. Every probe runs on every workload, on that workload's
//! input and rank, so each per-layer metric exists everywhere.

use crate::client::{self, Client};
use crate::harness::{
    bind_server, check_against_reference, check_repeatable, closed_loop, parse_input,
    reference_options, reference_sweep, rel_max_diff, run_job, step, sweep_factors, write_input,
    Env, Opts, Report, HANDLE, TOLERANCE,
};
use crate::json::Json;
use crate::machine;
use crate::spec::{Path, Workload, PAR_KERNELS, STRIP, SWEEP_GRID, TILE_BUDGET};
use crate::stats::{median, percentile, timed};
use std::sync::Arc;
use tenblock_core::obs::{Rec, SpanSnapshot, StreamStats, TraceRecorder};
use tenblock_core::tune::grid_for_tile_budget;
use tenblock_core::{
    build_kernel, tune, ExecPolicy, KernelConfig, KernelKind, StreamingMttkrp, TuneOptions,
};
use tenblock_cpd::linalg::{gram, hadamard_assign, normalize_columns, solve_spd_rhs_rows};
use tenblock_cpd::{CpAls, KruskalTensor};
use tenblock_tensor::{CooTensor, DenseMatrix, TileStore};

const MIB: f64 = (1u64 << 20) as f64;
/// Timed calls per probe after one warm-up; the median is reported.
const REPS: usize = 3;
/// Round trips of the no-op request behind `serve.rtt_s`.
const RTT_REPS: usize = 50;
/// Requests per client in the traced closed loop: 120 in all, so twelve
/// samples lie beyond the reported p90.
const LOOP_REQUESTS: usize = 60;

/// One warm-up call, then the seconds of `REPS` timed ones.
fn time_reps(mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..REPS).map(|_| timed(&mut f).1).collect()
}

/// Self time of each span: its duration minus what its children cover.
fn self_ns(spans: &[SpanSnapshot]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanSnapshot::dur_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = &mut own[s.parent as usize - 1];
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Whether span `s` lies under the span with id `root` (ids are 1-based
/// positions in the snapshot, parents precede children).
fn is_under(spans: &[SpanSnapshot], s: &SpanSnapshot, root: u64) -> bool {
    let mut parent = s.parent;
    while parent != 0 && parent != root {
        parent = spans[parent as usize - 1].parent;
    }
    parent == root
}

/// Splits the ALS iterations under the harness span `root` into kernel
/// time (Σ `mttkrp/*` spans) and dense time (self time of `cpd/als/iter`),
/// both per iteration, in seconds.
fn als_breakdown(spans: &[SpanSnapshot], root: &str, iterations: usize) -> (f64, f64) {
    let Some(root) = spans.iter().find(|s| s.name == root) else {
        return (f64::NAN, f64::NAN);
    };
    let own = self_ns(spans);
    let (mut kernel, mut dense) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&own) {
        if !is_under(spans, s, root.id) {
            continue;
        }
        if s.name.starts_with("mttkrp/") {
            kernel += s.dur_ns();
        } else if s.name == "cpd/als/iter" {
            dense += own;
        }
    }
    let per_iter = |ns: u64| ns as f64 / 1e9 / iterations.max(1) as f64;
    (per_iter(kernel), per_iter(dense))
}

fn machine_layer(opts: &Opts, report: &mut Report) -> machine::Machine {
    let m = opts.machine.unwrap_or_else(|| machine::probe(opts.smoke));
    eprintln!(
        "machine: {} threads, last-level cache {:.1} MiB, triad arrays {:.1} MiB each",
        m.nproc, m.llc_mb, m.array_mb
    );
    report.put("machine.triad_gbs", m.triad_gbs, "GB/s");
    report.put("machine.triad_1t_gbs", m.triad_1t_gbs, "GB/s");
    report.put("machine.nproc", m.nproc as f64, "count");
    report.put("machine.llc_mb", m.llc_mb, "MiB");
    m
}

/// `tensor.*`: parse, tile-store build, open, and one load of every tile.
/// Returns the parsed tensor and the store for the later probes.
fn tensor_layer(
    w: &Workload,
    env: &Env,
    rec: &Rec,
    report: &mut Report,
) -> Result<(CooTensor, TileStore), String> {
    let file_mb = std::fs::metadata(&env.input)
        .map_err(|e| e.to_string())?
        .len() as f64
        / 1e6;
    let (x, parse_s) = step(rec, w, "probe-parse", || parse_input(&env.input));
    let x = x?;
    report.put("tensor.parse_s", parse_s, "s");
    report.put("tensor.parse_mb_s", file_mb / parse_s, "MB/s");
    report.put("tensor.nnz", x.nnz() as f64, "count");

    let grid = grid_for_tile_budget(x.dims(), x.nnz(), TILE_BUDGET);
    let (store, build_s) = step(rec, w, "probe-tilestore-build", || {
        TileStore::create_from_coo(&x, grid, &env.store)
    });
    drop(store.map_err(|e| format!("tile store: {e}"))?);
    let store_bytes = std::fs::metadata(&env.store)
        .map_err(|e| e.to_string())?
        .len();
    let (store, open_s) = step(rec, w, "probe-tilestore-open", || {
        TileStore::open(&env.store)
    });
    let store = store.map_err(|e| format!("open store: {e}"))?;
    let (loaded, load_s) = step(rec, w, "probe-tile-load", || {
        (0..store.n_tiles()).try_fold(0u64, |bytes, i| {
            let tile = store.load_tile(i).map_err(|e| format!("tile {i}: {e}"))?;
            std::hint::black_box(&tile);
            Ok::<u64, String>(bytes + store.tile(i).len)
        })
    });
    report.put("tensor.tilestore_build_s", build_s, "s");
    report.put("tensor.tilestore_open_s", open_s, "s");
    report.put("tensor.tilestore_mb", store_bytes as f64 / MIB, "MiB");
    report.put("tensor.tile_load_s", load_s, "s");
    report.put(
        "tensor.tile_load_mb_s",
        loaded? as f64 / 1e6 / load_s,
        "MB/s",
    );
    Ok((x, store))
}

/// What the probes of the kernel layers share: the parsed input, fixed
/// factors, and the coordinate kernel's mode-0 output as the reference.
struct Probe<'a> {
    w: &'a Workload,
    rec: &'a Rec,
    x: &'a CooTensor,
    factors: &'a [DenseMatrix],
    want: &'a DenseMatrix,
}

/// The kernel sweep: every registry kernel on mode 0 at one fixed
/// configuration. Returns the fastest serial time of any kernel.
fn kernel_layer(p: &Probe, triad_1t_gbs: f64, tracer: &TraceRecorder, report: &mut Report) -> f64 {
    let Probe {
        w,
        rec,
        x,
        factors,
        want,
    } = *p;
    let fs = [&factors[0], &factors[1], &factors[2]];
    let mut out = DenseMatrix::zeros(x.dims()[0], w.rank);
    let mut fastest = f64::INFINITY;
    for kind in KernelKind::ALL {
        let k = kind.as_str();
        let cfg = |exec: ExecPolicy| KernelConfig {
            grid: SWEEP_GRID,
            strip_width: STRIP,
            exec,
        };
        let serial = cfg(ExecPolicy::serial().with_recorder(rec.clone()));
        let (kernel, build_s) = step(rec, w, &format!("probe-build-{k}"), || {
            build_kernel(kind, x, 0, &serial)
        });
        let (secs, _) = step(rec, w, &format!("probe-mttkrp-{k}"), || {
            time_reps(|| kernel.mttkrp(&fs, &mut out))
        });
        let diff = rel_max_diff(&out, want);
        report.expect(diff <= TOLERANCE, || {
            format!("{k}: mode-0 output is {diff:e} from the coo kernel's")
        });
        // The kernel's own span of the last call carries its §IV counters.
        let bytes = tracer
            .snapshot()
            .iter()
            .rev()
            .find_map(|s| s.counters.filter(|_| s.name.starts_with("mttkrp/")))
            .map_or(f64::NAN, |c| c.total_bytes() as f64);
        let serial_s = median(&secs);
        fastest = fastest.min(secs.iter().copied().fold(f64::INFINITY, f64::min));
        let gbs = bytes / serial_s / 1e9;
        report.put(format!("core.build_s.{k}"), build_s, "s");
        report.put_median(format!("core.mttkrp_s.{k}"), &secs, "s");
        report.put(format!("core.gbs.{k}"), gbs, "GB/s");
        report.put(
            format!("core.roofline_frac.{k}"),
            gbs / triad_1t_gbs,
            "ratio",
        );
        report.put(
            format!("core.bytes_per_nnz.{k}"),
            kernel.tensor_bytes() as f64 / x.nnz().max(1) as f64,
            "B/nnz",
        );
        if PAR_KERNELS.contains(&kind) {
            let kernel = build_kernel(kind, x, 0, &cfg(ExecPolicy::auto()));
            let (secs, _) = step(rec, w, &format!("probe-mttkrp-par-{k}"), || {
                time_reps(|| kernel.mttkrp(&fs, &mut out))
            });
            let diff = rel_max_diff(&out, want);
            report.expect(diff <= TOLERANCE, || {
                format!("{k} (parallel): mode-0 output is {diff:e} from the coo kernel's")
            });
            report.put_median(format!("core.mttkrp_par_s.{k}"), &secs, "s");
        }
    }
    fastest
}

/// `core.tune_*`: what the tuner costs and whether its pick beats the
/// fastest kernel of the sweep (which races kernels the tuner never does).
fn tuner_layer(p: &Probe, fastest_sweep_s: f64, report: &mut Report) {
    let Probe { w, rec, x, .. } = *p;
    let mut options = TuneOptions::new(w.rank);
    options.reps = 2;
    options.exec = ExecPolicy::serial().with_recorder(rec.clone());
    let (result, tune_s) = step(rec, w, "probe-tune", || tune(x, 0, &options));
    report.put("core.tune_s", tune_s, "s");
    report.put("core.tune_candidates", result.history.len() as f64, "count");
    report.put("core.tune_best_s", result.best_secs, "s");
    report.put(
        "core.tune_vs_sweep",
        result.best_secs / fastest_sweep_s,
        "ratio",
    );
}

/// `core.stream_*`: the streamed mode-0 MTTKRP against the in-memory BCOO
/// kernel at the store's grid, with the prefetch stall separated out.
fn stream_layer(p: &Probe, store: &TileStore, report: &mut Report) {
    let Probe {
        w,
        rec,
        x,
        factors,
        want,
    } = *p;
    let fs = [&factors[0], &factors[1], &factors[2]];
    let mut out = DenseMatrix::zeros(x.dims()[0], w.rank);
    let exec = ExecPolicy::serial().with_recorder(rec.clone());
    let stats = Arc::new(StreamStats::new());
    let mut failed = None;
    let mut warm = stats.snapshot();
    let (secs, _) = step(rec, w, "probe-stream", || {
        let mut calls = 0;
        time_reps(|| {
            if calls == 1 {
                warm = stats.snapshot();
            }
            calls += 1;
            let run = StreamingMttkrp::new(store, 0, STRIP)
                .with_exec(exec.clone())
                .with_stats(Arc::clone(&stats))
                .run(&fs, &mut out);
            if let Err(e) = run {
                failed = Some(e.to_string());
            }
        })
    });
    let diff = rel_max_diff(&out, want);
    report.expect(failed.is_none() && diff <= TOLERANCE, || {
        format!("streamed MTTKRP: error {failed:?}, output {diff:e} from the coo kernel's")
    });
    // Counters of the timed calls only: the totals less the warm-up's.
    let end = stats.snapshot();
    let per_call = |total: u64, warm: u64| (total - warm) as f64 / REPS as f64;
    let stall_s = per_call(end.prefetch_stall_ns, warm.prefetch_stall_ns) / 1e9;
    let stream_s = median(&secs);

    // For mode 0 the kernel axes are the store's axes, so the grid carries over.
    let cfg = KernelConfig {
        grid: store.grid(),
        strip_width: STRIP,
        exec,
    };
    let bcoo = build_kernel(KernelKind::Bcoo, x, 0, &cfg);
    let (mem_secs, _) = step(rec, w, "probe-stream-mem", || {
        time_reps(|| bcoo.mttkrp(&fs, &mut out))
    });
    report.put_median("core.stream_mttkrp_s", &secs, "s");
    report.put("core.stream_vs_mem", stream_s / median(&mem_secs), "ratio");
    report.put("core.stream_stall_s", stall_s, "s");
    report.put("core.stream_stall_frac", stall_s / stream_s, "ratio");
    report.put(
        "core.stream_mb",
        per_call(end.bytes_streamed, warm.bytes_streamed) / MIB,
        "MiB",
    );
    report.put(
        "core.stream_retries",
        (end.tile_retries - warm.tile_retries) as f64,
        "count",
    );
}

/// The dense steps of one ALS iteration on the workload's shapes, each
/// summed over the three modes: gram, solve, normalize; and one fit.
fn dense_layer(p: &Probe, report: &mut Report) {
    let Probe {
        w, rec, x, factors, ..
    } = *p;
    let grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();
    let mut v = grams[1].clone();
    hadamard_assign(&mut v, &grams[2]);
    let probe = |name: &str, f: &mut dyn FnMut()| median(&step(rec, w, name, || time_reps(f)).0);
    let gram_s = probe("probe-gram", &mut || {
        factors
            .iter()
            .for_each(|a| drop(std::hint::black_box(gram(a))));
    });
    let solve_s = probe("probe-solve", &mut || {
        factors
            .iter()
            .for_each(|a| drop(std::hint::black_box(solve_spd_rhs_rows(&v, a))));
    });
    let mut scratch = factors.to_vec();
    let normalize_s = probe("probe-normalize", &mut || {
        scratch
            .iter_mut()
            .for_each(|a| drop(std::hint::black_box(normalize_columns(a))));
    });
    let model = KruskalTensor::new(vec![1.0; w.rank], factors.to_vec());
    let fit_s = probe("probe-fit", &mut || {
        std::hint::black_box(model.fit(x));
    });
    report.put("cpd.gram_s", gram_s, "s");
    report.put("cpd.solve_s", solve_s, "s");
    report.put("cpd.normalize_s", normalize_s, "s");
    report.put("cpd.fit_s", fit_s, "s");
}

/// Mean seconds of a latency histogram in the server's `metrics` answer.
fn mean_secs(metrics: &Json, histogram: &str) -> f64 {
    metrics
        .path(&["metrics", histogram, "mean_secs"])
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `serve.*`: `load` + `decompose` over TCP (already done by the traced
/// job on the served workload, whose server and times are passed in),
/// then the no-op round trip, the closed loop, and the server's own
/// accounting from its `metrics` op.
fn serve_layer(
    w: &Workload,
    env: &mut Env,
    served_job: Option<(f64, f64)>,
    rec: &Rec,
    report: &mut Report,
) -> Result<(), String> {
    let (load_s, decompose_s) = match served_job {
        Some(times) => times,
        None => {
            let server = env.server.insert(bind_server()?);
            let mut c = Client::connect(server.addr())?;
            let load = client::load(HANDLE, &env.input);
            let (loaded, load_s) = step(rec, w, "probe-serve-load", || c.request(&load));
            loaded?;
            let decompose = client::decompose(HANDLE, w.rank, w.iters);
            let (job, _) = step(rec, w, "probe-serve-decompose", || c.job(&decompose));
            report.op(job.as_ref().map(|_| ()).map_err(String::clone));
            (load_s, job?.1)
        }
    };
    let server = env.server.as_ref().ok_or("no server to probe")?;
    let mut c = Client::connect(server.addr())?;
    let rtt: Result<Vec<f64>, String> = (0..RTT_REPS)
        .map(|_| {
            let (resp, s) = timed(|| c.request(&client::cmd("metrics")));
            resp.map(|_| s)
        })
        .collect();
    let (per_client, loop_s) = step(rec, w, "probe-serve-loop", || {
        closed_loop(server, w.rank, LOOP_REQUESTS, report)
    });
    let latencies: Vec<f64> = per_client.concat();
    let metrics = c.request(&client::cmd("metrics"))?;
    let count = |key: &str| {
        metrics
            .path(&["metrics", "jobs", key])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let p50 = median(&latencies);
    let kernel_mean_s = mean_secs(&metrics, "mttkrp_latency");
    report.put_median("serve.rtt_s", &rtt?, "s");
    report.put("serve.load_s", load_s, "s");
    report.put("serve.decompose_s", decompose_s, "s");
    report.put_median("serve.mttkrp_p50_s", &latencies, "s");
    report.put("serve.mttkrp_p90_s", percentile(&latencies, 0.9), "s");
    report.put("serve.mttkrp_n", latencies.len() as f64, "count");
    report.put("serve.rps", latencies.len() as f64 / loop_s, "1/s");
    report.put("serve.kernel_mean_s", kernel_mean_s, "s");
    report.put("serve.kernel_share", kernel_mean_s / p50, "ratio");
    report.put(
        "serve.queue_wait_mean_s",
        mean_secs(&metrics, "job_queue_wait"),
        "s",
    );
    report.put("serve.job_run_mean_s", mean_secs(&metrics, "job_run"), "s");
    report.put("serve.rejected", count("rejected"), "count");
    report.put("serve.failed", count("failed"), "count");
    report.expect(count("rejected") == 0.0 && count("failed") == 0.0, || {
        format!("server rejected or failed jobs: {metrics}")
    });
    env.server = None;
    Ok(())
}

/// The traced phase of one run: every per-layer metric.
pub fn trace(w: &Workload, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let machine = machine_layer(opts, &mut report);

    let mut env = Env::new(&opts.work_dir, w)?;
    write_input(w, opts.seed, &env.input)?;

    let tracer = Arc::new(TraceRecorder::new());
    let rec = Rec::new(Arc::clone(&tracer) as _);

    // The job once more without and once with the recorder: the ratio is
    // what tracing costs, the spans say where the job's time went.
    let plain = run_job(w, &mut env, &Rec::noop())?;
    let (traced, _) = step(&rec, w, "job", || run_job(w, &mut env, &rec));
    let traced = traced?;
    report.op(Ok(()));
    report.op(Ok(()));
    check_repeatable(&[plain.clone(), traced.clone()], &mut report);
    let job_spans = tracer.snapshot();
    let root = format!("bench/{}/job", w.name);
    if let Some(job) = job_spans.iter().find(|s| s.name == root) {
        // The harness steps must cover the job: what no step accounts
        // for is the job span's self time.
        let unaccounted = self_ns(&job_spans)[job.id as usize - 1] as f64 / job.dur_ns() as f64;
        report.expect(unaccounted < 0.05, || {
            format!(
                "{:.1} % of the traced job lies outside every step span",
                100.0 * unaccounted
            )
        });
    }
    report.put(
        "obs.trace_overhead_frac",
        traced.total_s / plain.total_s - 1.0,
        "ratio",
    );
    report.put("obs.spans", job_spans.len() as f64, "count");

    let (x, store) = tensor_layer(w, &env, &rec, &mut report)?;
    let factors = sweep_factors(x.dims(), w.rank);
    let want = reference_sweep(&x, &factors, opts.corrupt_reference);

    // Where the ALS iterations' time went: from the traced job itself
    // where it ran in this process, else from the reference solver.
    let mut als_root = root;
    if let Path::Stream | Path::Serve = w.path {
        let options = reference_options(w, &x, &rec);
        let (reference, _) = step(&rec, w, "reference", || CpAls::new(&x, options).run(&x));
        check_against_reference(w, &traced, &reference, opts.corrupt_reference, &mut report);
        if let Path::Serve = w.path {
            als_root = format!("bench/{}/reference", w.name);
        }
    }
    let (kernel_s, dense_s) = als_breakdown(&tracer.snapshot(), &als_root, traced.iterations);
    let options = reference_options(w, &x, &Rec::noop());
    let (_, new_s) = step(&rec, w, "probe-als-new", || drop(CpAls::new(&x, options)));
    report.put("cpd.new_s", new_s, "s");
    report.put("cpd.iter_mttkrp_s", kernel_s, "s");
    report.put("cpd.iter_dense_s", dense_s, "s");
    report.put("cpd.mttkrp_share", kernel_s / (kernel_s + dense_s), "ratio");
    report.put("cpd.iterations", traced.iterations as f64, "count");
    report.put(
        "cpd.fit_final",
        traced.fits.last().copied().unwrap_or(f64::NAN),
        "fit",
    );
    let probe = Probe {
        w,
        rec: &rec,
        x: &x,
        factors: &factors,
        want: &want[0],
    };
    dense_layer(&probe, &mut report);
    let fastest = kernel_layer(&probe, machine.triad_1t_gbs, &tracer, &mut report);
    tuner_layer(&probe, fastest, &mut report);
    stream_layer(&probe, &store, &mut report);
    drop((x, store, factors, want));

    let served_job = matches!(w.path, Path::Serve).then_some((traced.prepare_s, traced.solve_s));
    serve_layer(w, &mut env, served_job, &rec, &mut report)?;

    let trace_file = opts.work_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_file, tracer.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    eprintln!(
        "trace: {} spans in {}",
        tracer.snapshot().len(),
        trace_file.display()
    );
    Ok(report)
}

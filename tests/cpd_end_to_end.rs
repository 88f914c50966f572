//! End-to-end CPD integration: decomposition quality is identical across
//! kernels, the tuner's output plugs straight into ALS, and the whole
//! pipeline survives realistic (clustered, count-valued) data.

use tenblock::core::{tune, ExecPolicy, KernelConfig, KernelKind, TuneOptions};
use tenblock::cpd::{CpAls, CpAlsOptions, CpAlsResult, CpAlsStream, KruskalTensor};
use tenblock::tensor::gen::{clustered_tensor, ClusteredConfig};
use tenblock::tensor::{CooSource, CooTensor, DenseMatrix, Entry};

/// Low-rank planted tensor via the Kruskal materializer.
fn planted(rank: usize, dims: [usize; 3], seed: u64) -> tenblock::tensor::CooTensor {
    let factors: Vec<DenseMatrix> = dims
        .iter()
        .enumerate()
        .map(|(m, &d)| {
            DenseMatrix::from_fn(d, rank, |r, c| {
                let h = (r * 2654435761 + c * 40503 + m * 97 + seed as usize) % 1000;
                h as f64 / 1000.0 + 0.05
            })
        })
        .collect();
    KruskalTensor::new(vec![1.0; rank], factors).to_coo()
}

#[test]
fn blocked_cpd_recovers_planted_rank() {
    let x = planted(4, [15, 12, 10], 3);
    let mut opts = CpAlsOptions::new(4);
    opts.max_iters = 150;
    opts.tol = 1e-10;
    opts.kernel = KernelKind::MbRankB;
    opts.kernel_cfg = KernelConfig {
        grid: [2, 2, 2],
        strip_width: 16,
        ..Default::default()
    };
    let result = CpAls::new(&x, opts).run(&x);
    let fit = *result.fit_history.last().unwrap();
    assert!(fit > 0.99, "fit = {fit}");
}

#[test]
fn tuner_output_feeds_als() {
    let cfg = ClusteredConfig::new([200, 300, 150], 15_000);
    let x = clustered_tensor(&cfg, 21);
    let mut topts = TuneOptions::new(16);
    topts.reps = 1;
    topts.max_blocks = 8;
    let tuned = tune(&x, 0, &topts);

    let mut opts = CpAlsOptions::new(16);
    opts.max_iters = 10;
    opts.tol = 0.0;
    opts.kernel = KernelKind::MbRankB;
    opts.kernel_cfg = KernelConfig {
        grid: tuned.grid,
        strip_width: tuned.strip_width,
        exec: ExecPolicy::auto(),
    };
    let result = CpAls::new(&x, opts).run(&x);
    assert_eq!(result.fit_history.len(), 10);
    // count data with structure: ALS should make real progress
    let fit = *result.fit_history.last().unwrap();
    assert!(fit > 0.0, "fit = {fit}");
}

#[test]
fn kernel_choice_does_not_change_the_math() {
    let x = planted(3, [12, 14, 9], 8);
    let mut fits = Vec::new();
    for kind in KernelKind::ALL {
        let mut opts = CpAlsOptions::new(3);
        opts.max_iters = 20;
        opts.tol = 0.0;
        opts.kernel = kind;
        opts.kernel_cfg = KernelConfig {
            grid: [3, 2, 2],
            strip_width: 8,
            ..Default::default()
        };
        let result = CpAls::new(&x, opts).run(&x);
        fits.push(*result.fit_history.last().unwrap());
    }
    for f in &fits[1..] {
        assert!(
            (f - fits[0]).abs() < 1e-6,
            "fits diverge across kernels: {fits:?}"
        );
    }
}

const ORACLE_GRID: [usize; 3] = [2, 2, 2];

fn oracle_opts(rank: usize, kernel: KernelKind, exec: ExecPolicy, iters: usize) -> CpAlsOptions {
    let mut opts = CpAlsOptions::new(rank);
    opts.max_iters = iters;
    opts.tol = 0.0;
    opts.kernel = kernel;
    opts.kernel_cfg = KernelConfig {
        grid: ORACLE_GRID,
        strip_width: 16,
        exec,
    };
    opts
}

/// The ALS loop's fit comes from the last MTTKRP and the grams, never from
/// the nonzeros; the oracle is `KruskalTensor::fit`, which walks them.
fn assert_final_fit_is_the_oracles(run: &CpAlsResult, x: &CooTensor, what: &str) {
    let (fit, oracle) = (*run.fit_history.last().unwrap(), run.model.fit(x));
    assert!(
        (fit - oracle).abs() < 1e-9,
        "{what}, iteration {}: fit {fit} vs oracle {oracle}",
        run.iterations
    );
}

/// Runs `solve` at 1..=5 iterations: every iteration's fit must equal the
/// oracle's on that iteration's model, and a shorter run must be a bit-exact
/// prefix of a longer one. Returns the 5-iteration result.
fn check_every_iteration(
    x: &CooTensor,
    what: &str,
    solve: impl Fn(usize) -> CpAlsResult,
) -> CpAlsResult {
    let full = solve(5);
    assert_eq!(full.fit_history.len(), 5, "{what}");
    assert_final_fit_is_the_oracles(&full, x, what);
    for iters in 1..5 {
        let run = solve(iters);
        assert_eq!(run.fit_history, full.fit_history[..iters], "{what}: rerun");
        assert_final_fit_is_the_oracles(&run, x, what);
    }
    full
}

fn assert_histories_agree(a: &CpAlsResult, b: &CpAlsResult, what: &str) {
    assert_eq!(a.fit_history.len(), b.fit_history.len(), "{what}");
    for (p, q) in a.fit_history.iter().zip(&b.fit_history) {
        assert!((p - q).abs() < 1e-9, "{what}: fit {p} vs {q}");
    }
}

/// The decomposition-level oracle: on a clustered count tensor and on a
/// planted low-rank one, every kernel and the streamed solver report the
/// oracle's fit and agree with each other at every iteration, threaded runs
/// agree with serial ones, and where the kernel's own output is thread-count
/// independent so is the whole decomposition, bit for bit.
///
/// The per-iteration oracle needs one rerun per iteration count; at 1e5
/// nonzeros in a debug build those reruns are most of the test, so there
/// only the default kernel and the streamed solver get them — the other
/// kernels' earlier iterations are held to the default kernel's history.
#[test]
fn every_kernel_and_path_reports_the_oracles_fit() {
    let clustered = clustered_tensor(&ClusteredConfig::new([2_000, 1_500, 1_000], 100_000), 5);
    for (x, rank) in [(clustered, 16), (planted(4, [15, 12, 10], 3), 4)] {
        let mut first: Option<CpAlsResult> = None;
        for kind in KernelKind::ALL {
            let what = format!("{kind:?} rank {rank}");
            let solve = |exec: ExecPolicy, iters| {
                CpAls::new(&x, oracle_opts(rank, kind, exec, iters)).run(&x)
            };
            let serial = if x.nnz() < 10_000 || kind == KernelKind::Splatt {
                check_every_iteration(&x, &what, |i| solve(ExecPolicy::serial(), i))
            } else {
                solve(ExecPolicy::serial(), 5)
            };
            assert_final_fit_is_the_oracles(&serial, &x, &what);
            assert_histories_agree(first.get_or_insert(serial.clone()), &serial, &what);

            let threaded = solve(ExecPolicy::fixed(3), 5);
            assert_final_fit_is_the_oracles(&threaded, &x, &what);
            assert_histories_agree(&serial, &threaded, &what);
            // tests/kernel_golden.rs pins these kernels' outputs as
            // independent of the thread count; the dense half must be too.
            let blocked = [
                KernelKind::Splatt,
                KernelKind::Mb,
                KernelKind::RankB,
                KernelKind::MbRankB,
            ];
            if blocked.contains(&kind) {
                assert_eq!(serial.fit_history, threaded.fit_history, "{what}");
                assert_eq!(serial.model.lambda, threaded.model.lambda, "{what}");
                assert_eq!(serial.model.factors, threaded.model.factors, "{what}");
            }
        }
        let src = CooSource::new(&x, ORACLE_GRID);
        let streamed = check_every_iteration(&x, "streamed", |iters| {
            let opts = oracle_opts(rank, KernelKind::Bcoo, ExecPolicy::serial(), iters);
            CpAlsStream::new(&src, opts)
                .run()
                .expect("in-memory source")
        });
        let first = first.expect("at least one kernel");
        assert_histories_agree(&first, &streamed, "in-memory vs streamed");
    }
}

/// Shapes where the fit identity could go wrong: a last-mode slice with no
/// nonzeros (a zero row in the MTTKRP the fit is read from) and a tensor of
/// explicit zeros (`‖X‖² = 0`, every column norm zero).
#[test]
fn degenerate_tensors_get_the_oracles_fit() {
    let mut entries: Vec<Entry> = planted(2, [6, 5, 4], 1).entries().to_vec();
    let with_empty_slice = CooTensor::from_entries([6, 5, 7], entries.clone());
    entries.iter_mut().for_each(|e| e.val = 0.0);
    let all_zero = CooTensor::from_entries([6, 5, 4], entries);
    assert_eq!(all_zero.sq_norm(), 0.0);

    for x in [with_empty_slice, all_zero] {
        let src = CooSource::new(&x, ORACLE_GRID);
        let opts = |kind| oracle_opts(2, kind, ExecPolicy::serial(), 4);
        let results = [
            CpAls::new(&x, opts(KernelKind::Splatt)).run(&x),
            CpAls::new(&x, opts(KernelKind::MbRankB)).run(&x),
            CpAlsStream::new(&src, opts(KernelKind::Bcoo))
                .run()
                .unwrap(),
        ];
        for r in results {
            assert_final_fit_is_the_oracles(&r, &x, "degenerate");
            let fit = *r.fit_history.last().unwrap();
            let finite = |m: &DenseMatrix| m.as_slice().iter().all(|v| v.is_finite());
            assert!(r.model.factors.iter().all(finite), "factors stay finite");
            if x.sq_norm() == 0.0 {
                assert_eq!(fit, 1.0, "the zero model fits the zero tensor");
                assert!(r.model.lambda.iter().all(|&l| l == 0.0));
            }
        }
    }
}

//! The recorded kernel counters agree with the Section IV traffic model:
//! the bytes a traced MTTKRP reports must match `RooflineInputs` (Eq. 1
//! at `alpha = 0`) computed independently from the tensor, for every mode.
//!
//! Also exercises the `ExecPolicy` entry points, which are the only way
//! to select threading since the `parallel: bool` shims were retired.

use std::collections::HashSet;
use std::sync::Arc;
use tenblock::analysis::RooflineInputs;
use tenblock::core::obs::{Rec, TraceRecorder};
use tenblock::core::{build_kernel, ExecPolicy, KernelConfig, KernelKind};
use tenblock::tensor::coo::perm_for_mode;
use tenblock::tensor::gen::Dataset;
use tenblock::tensor::{CooTensor, DenseMatrix};

/// SPLATT fiber count for `mode`, computed straight from the COO entries —
/// independent of the kernel's own bookkeeping. A fiber is a distinct
/// (slice, fiber-mode) pair: fixed `perm[0]` and `perm[2]`, varying
/// `perm[1]` (Figure 1b).
fn fiber_count(t: &CooTensor, mode: usize) -> u64 {
    let perm = perm_for_mode(mode);
    let pairs: HashSet<(u32, u32)> = t
        .entries()
        .iter()
        .map(|e| (e.idx[perm[0]], e.idx[perm[2]]))
        .collect();
    pairs.len() as u64
}

#[test]
fn traced_mttkrp_bytes_match_section_iv_model() {
    let t = Dataset::Poisson1.generate_with([60, 50, 40], 6_000, 7);
    let rank = 16;
    let factors: Vec<DenseMatrix> = t
        .dims()
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r + 3 * c) % 7) as f64 * 0.25))
        .collect();
    let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];

    for mode in 0..3 {
        let tracer = Arc::new(TraceRecorder::new());
        let cfg = KernelConfig::default()
            .with_exec(ExecPolicy::serial().with_recorder(Rec::new(Arc::clone(&tracer) as _)));
        let k = build_kernel(KernelKind::Splatt, &t, mode, &cfg);
        let mut out = DenseMatrix::zeros(t.dims()[mode], rank);
        k.mttkrp(&fs, &mut out);

        let spans = tracer.snapshot();
        let span = spans
            .iter()
            .find(|s| s.name == "mttkrp/SPLATT")
            .expect("traced kernel emits a span");
        let c = span.counters.as_ref().expect("kernel span has counters");

        let model = RooflineInputs {
            nnz: t.nnz() as u64,
            fibers: fiber_count(&t, mode),
            rank: rank as u64,
            alpha: 0.0,
        };
        let measured = (c.tensor_bytes + c.factor_bytes) as f64;
        let predicted = model.traffic_bytes();
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.10,
            "mode {mode}: measured {measured} vs model {predicted} ({:.1}% off)",
            rel * 100.0
        );
        assert_eq!(c.flops as f64, model.flops(), "mode {mode} flop count");
        assert_eq!(c.nnz, t.nnz() as u64);
    }
}

#[test]
fn exec_policy_is_the_single_threading_entry_point() {
    use tenblock::core::block::BlockedKernel;
    use tenblock::core::{tune, MttkrpKernel, TuneOptions};

    let t = Dataset::Poisson1.generate_with([30, 25, 20], 2_000, 3);
    let rank = 8;
    let factors: Vec<DenseMatrix> = t
        .dims()
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r * 5 + c) % 9) as f64 * 0.3))
        .collect();
    let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];

    // ExecPolicy::auto() selects the parallel path and the result matches
    // the serial kernel.
    let serial = BlockedKernel::new(&t, 0, None, None);
    let auto = BlockedKernel::new(&t, 0, None, None).with_exec(ExecPolicy::auto());
    let mut a = DenseMatrix::zeros(t.dims()[0], rank);
    let mut b = DenseMatrix::zeros(t.dims()[0], rank);
    serial.mttkrp(&fs, &mut a);
    auto.mttkrp(&fs, &mut b);
    assert!(a.approx_eq(&b, 1e-12));

    // The tuner threads ExecPolicy through and config_with carries the
    // caller's policy into the selected KernelConfig.
    let mut opts = TuneOptions::new(rank);
    opts.reps = 1;
    opts.max_blocks = 4;
    let r = tune(&t, 0, &opts);
    assert!(r.config_with(ExecPolicy::auto()).exec.is_parallel());
    assert!(!r.config_with(ExecPolicy::serial()).exec.is_parallel());
    assert_eq!(r.config_with(ExecPolicy::auto()).grid, r.grid);
}

#[test]
fn traced_launches_say_which_instruction_set_ran() {
    use tenblock::core::isa::Isa;
    use tenblock::core::obs::Attr;

    let t = Dataset::Poisson1.generate_with([30, 25, 20], 2_000, 5);
    let rank = 24;
    let factors: Vec<DenseMatrix> = t
        .dims()
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r + c) % 5) as f64 * 0.5))
        .collect();
    let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
    for kind in KernelKind::ALL {
        let tracer = Arc::new(TraceRecorder::new());
        let cfg = KernelConfig::default()
            .with_exec(ExecPolicy::serial().with_recorder(Rec::new(Arc::clone(&tracer) as _)));
        let k = build_kernel(kind, &t, 0, &cfg);
        k.mttkrp(&fs, &mut DenseMatrix::zeros(t.dims()[0], rank));

        let spans = tracer.snapshot();
        let span = spans
            .iter()
            .find(|s| s.name.starts_with("mttkrp/"))
            .expect("traced kernel emits a span");
        let isa = span.attrs.iter().find_map(|(key, v)| match v {
            Attr::Str(v) if key == "isa" => Some(v.as_str()),
            _ => None,
        });
        let isa = isa.unwrap_or_else(|| panic!("{} span has no isa", span.name));
        assert!(
            ["avx512", "avx2", "baseline"].contains(&isa),
            "{}: isa {isa:?}",
            span.name
        );
        // Every loop runs on the widest set the host has.
        assert_eq!(isa, Isa::best().name(), "{}", span.name);
    }
}

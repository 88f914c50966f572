//! What every kernel's launch guarantees, checked by running each kind in
//! `KernelKind::ALL` rather than by reading its source:
//!
//! * a traced launch emits exactly one span, `mttkrp/<name>`, whose
//!   counters carry the tensor's nonzero count;
//! * `KernelKind::ALL` lists every variant exactly once;
//! * a factor one row short or one row long is refused with the same
//!   message for every kind, before the output is touched.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tenblock::core::obs::{Rec, TraceRecorder};
use tenblock::core::{build_kernel, ExecPolicy, KernelConfig, KernelKind};
use tenblock::tensor::gen::uniform_tensor;
use tenblock::tensor::{CooTensor, DenseMatrix};

const RANK: usize = 12;

fn tensor() -> CooTensor {
    uniform_tensor([14, 11, 9], 600, 42)
}

fn factors(dims: [usize; 3]) -> Vec<DenseMatrix> {
    (0..3)
        .map(|m| DenseMatrix::from_fn(dims[m], RANK, |r, c| ((r * 7 + c * 3 + m) % 11) as f64))
        .collect()
}

fn config(exec: ExecPolicy) -> KernelConfig {
    KernelConfig {
        grid: [3, 2, 2],
        strip_width: 8,
        exec,
    }
}

#[test]
fn every_kind_emits_one_span_named_after_it_carrying_the_nnz() {
    let x = tensor();
    let fs_owned = factors(x.dims());
    let fs = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    for kind in KernelKind::ALL {
        for exec in [
            ExecPolicy::serial(),
            ExecPolicy::fixed(3),
            ExecPolicy::checked(),
        ] {
            let tracer = Arc::new(TraceRecorder::new());
            let exec = exec.with_recorder(Rec::new(Arc::clone(&tracer) as _));
            let k = build_kernel(kind, &x, 1, &config(exec));
            k.mttkrp(&fs, &mut DenseMatrix::zeros(x.dims()[1], RANK));
            let spans = tracer.snapshot();
            assert_eq!(spans.len(), 1, "{kind:?}: {spans:?}");
            assert_eq!(spans[0].name, format!("mttkrp/{}", k.name()), "{kind:?}");
            let nnz = spans[0].counters.as_ref().map(|c| c.nnz);
            assert_eq!(nnz, Some(x.nnz() as u64), "{kind:?}");
        }
    }
}

/// A new variant stops this test compiling until the match names it. Give
/// it the next position and bump `arms` with it: the test then fails until
/// `ALL` lists the variant. The test cannot see a variant the match names
/// but `arms` does not count, so the two must move together.
#[test]
fn all_lists_every_variant_exactly_once() {
    let position = |kind: KernelKind| match kind {
        KernelKind::Coo => 0,
        KernelKind::Splatt => 1,
        KernelKind::Mb => 2,
        KernelKind::RankB => 3,
        KernelKind::MbRankB => 4,
        KernelKind::Csf => 5,
        KernelKind::Bcoo => 6,
    };
    // One position per arm above: bump along with the match.
    let arms = 7;
    let listed: Vec<usize> = KernelKind::ALL.into_iter().map(position).collect();
    assert_eq!(listed, (0..arms).collect::<Vec<_>>());
}

#[test]
fn a_factor_one_row_off_is_refused_alike_before_the_output_is_touched() {
    let x = tensor();
    let dims = x.dims();
    for (mode, m) in [(0, 1), (0, 2), (1, 0), (2, 1)] {
        for rows in [dims[m] - 1, dims[m] + 1] {
            let mut fs_owned = factors(dims);
            fs_owned[m] = DenseMatrix::from_fn(rows, RANK, |r, c| (r + c) as f64);
            let fs = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
            let mut messages = Vec::new();
            for kind in KernelKind::ALL {
                let k = build_kernel(kind, &x, mode, &config(ExecPolicy::serial()));
                let mut out = DenseMatrix::from_fn(dims[mode], RANK, |_, _| 1234.5);
                let refused = catch_unwind(AssertUnwindSafe(|| k.mttkrp(&fs, &mut out)))
                    .expect_err("a mis-shaped factor must be refused");
                let message = refused
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    out.as_slice().iter().all(|&v| v == 1234.5),
                    "{kind:?} touched the output before refusing"
                );
                messages.push((kind, message));
            }
            let (_, first) = &messages[0];
            assert!(first.contains(&format!("factor {m}")), "{first}");
            for (kind, message) in &messages {
                assert_eq!(
                    message, first,
                    "{kind:?}, mode {mode}, factor {m} of {rows} rows"
                );
            }
        }
    }
}

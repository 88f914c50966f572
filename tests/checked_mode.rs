//! Checked-execution integration tests.
//!
//! * Every kernel passes race detection and invariant oracles on healthy
//!   inputs (and still computes the right answer).
//! * A deliberately corrupted MB grid — one block boundary shifted by a
//!   single row — is refused before launch with a structured [`RaceReport`]
//!   naming the overlapping output rows.
//! * The checked-mode overhead on SPLATT stays bounded (< 2x), so checked
//!   execution is cheap enough to leave on in CI.

use tenblock::core::block::{BlockGrid, BlockedKernel};
use tenblock::core::check::Violation;
use tenblock::core::mttkrp::{dense_mttkrp, BcooKernel};
use tenblock::core::{build_kernel, ExecPolicy, KernelConfig, KernelKind, MttkrpKernel};
use tenblock::tensor::gen::uniform_tensor;
use tenblock::tensor::{BcooTensor, DenseMatrix};

/// Deterministic factors for a tensor's dims.
fn factors(dims: [usize; 3], rank: usize) -> Vec<DenseMatrix> {
    (0..3)
        .map(|m| {
            DenseMatrix::from_fn(dims[m], rank, |r, c| {
                ((r * 13 + c * 5 + m * 7) % 17) as f64 * 0.125 - 1.0
            })
        })
        .collect()
}

#[test]
fn all_kernels_pass_checked_mode_and_match_reference() {
    let x = uniform_tensor([14, 11, 9], 600, 42);
    let rank = 12;
    let fs_owned = factors(x.dims(), rank);
    let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    for mode in 0..3 {
        let expect = dense_mttkrp(&x, &fs, mode);
        let cfg = KernelConfig {
            grid: [3, 2, 2],
            strip_width: 8,
            exec: ExecPolicy::checked(),
        };
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, mode, &cfg);
            let mut out = DenseMatrix::zeros(x.dims()[mode], rank);
            k.mttkrp_checked(&fs, &mut out)
                .unwrap_or_else(|report| panic!("{kind:?} mode {mode} refused: {report}"));
            assert!(
                expect.approx_eq(&out, 1e-9),
                "{kind:?} mode {mode}: checked run diverged from reference"
            );
        }
    }
}

#[test]
fn shifted_block_boundary_is_caught_with_the_overlapping_row() {
    let x = uniform_tensor([12, 8, 8], 500, 7);
    let mut grid = BlockGrid::new(&x, 0, [3, 2, 2]);
    let boundary = grid.bounds(0)[1];

    // The healthy grid passes.
    let healthy = BlockGrid::new(&x, 0, [3, 2, 2]);
    let k = BlockedKernel::over(healthy.into(), true, None).with_exec(ExecPolicy::checked());
    let fs_owned = factors(x.dims(), 8);
    let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    let mut out = DenseMatrix::zeros(12, 8);
    k.mttkrp_checked(&fs, &mut out)
        .expect("healthy grid passes");

    // Shift one slice-axis boundary by a single row without re-bucketing
    // the nonzeros: block row 1 still contains slices starting at
    // `boundary`, which now belong to task 0's claim.
    grid.shift_bound_for_test(0, 1, 1);
    let bad = BlockedKernel::over(grid.into(), true, None).with_exec(ExecPolicy::checked());
    let mut out = DenseMatrix::zeros(12, 8);
    let report = bad
        .mttkrp_checked(&fs, &mut out)
        .expect_err("shifted boundary must be refused");

    assert_eq!(report.kernel, "MB");
    assert!(
        report.overlapping_rows().contains(&boundary),
        "report must name the boundary row {boundary}: {report}"
    );
    // The grid oracle independently notices entries escaping their box.
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Invariant { .. })),
        "grid oracle should also fire: {report}"
    );
}

#[test]
fn shifted_bcoo_boundary_is_caught_with_the_overlapping_row() {
    let x = uniform_tensor([12, 8, 8], 500, 7);
    let fs_owned = factors(x.dims(), 8);
    let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];

    // The healthy layout passes checked mode.
    let healthy = BcooTensor::from_coo(&x, 0, [3, 2, 2]);
    let boundary = healthy.bounds(0)[1];
    let k = BcooKernel::from_tensor(healthy, 8).with_exec(ExecPolicy::checked());
    let mut out = DenseMatrix::zeros(12, 8);
    k.mttkrp_checked(&fs, &mut out)
        .expect("healthy BCOO layout passes");

    // Shift one slice-axis boundary without touching the blocks' origins:
    // block row 1 still decodes entries at slice `boundary`, which now
    // belongs to block row 0's claim.
    let mut t = BcooTensor::from_coo(&x, 0, [3, 2, 2]);
    t.shift_bound_for_test(0, 1, 1);
    let bad = BcooKernel::from_tensor(t, 8).with_exec(ExecPolicy::checked());
    let mut out = DenseMatrix::zeros(12, 8);
    let report = bad
        .mttkrp_checked(&fs, &mut out)
        .expect_err("shifted boundary must be refused");

    assert_eq!(report.kernel, "BCOO");
    assert!(
        report.overlapping_rows().contains(&boundary),
        "report must name the boundary row {boundary}: {report}"
    );
    // The grid oracle independently notices decoded entries escaping
    // their (shifted) box.
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Invariant { .. })),
        "grid oracle should also fire: {report}"
    );
}

#[test]
fn plain_mttkrp_panics_on_a_corrupt_grid_in_checked_mode() {
    let x = uniform_tensor([12, 8, 8], 500, 7);
    let mut grid = BlockGrid::new(&x, 0, [3, 2, 2]);
    grid.shift_bound_for_test(0, 1, 1);
    let bad = BlockedKernel::over(grid.into(), true, None).with_exec(ExecPolicy::checked());
    let fs_owned = factors(x.dims(), 8);
    let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = DenseMatrix::zeros(12, 8);
        bad.mttkrp(&fs, &mut out);
    }));
    let err = caught.expect_err("checked mode must refuse the launch");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("checked execution refused launch"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn checked_mode_overhead_on_splatt_is_bounded() {
    let x = uniform_tensor([60, 50, 40], 20_000, 3);
    let rank = 32;
    let fs_owned = factors(x.dims(), rank);
    let fs: [&DenseMatrix; 3] = [&fs_owned[0], &fs_owned[1], &fs_owned[2]];
    let cfg_auto = KernelConfig {
        grid: [1, 1, 1],
        strip_width: rank,
        exec: ExecPolicy::auto(),
    };
    let cfg_checked = KernelConfig {
        exec: ExecPolicy::checked(),
        ..cfg_auto.clone()
    };

    let time = |cfg: &KernelConfig| {
        let k = build_kernel(KernelKind::Splatt, &x, 0, cfg);
        let mut out = DenseMatrix::zeros(x.dims()[0], rank);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            k.mttkrp(&fs, &mut out);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    let auto = time(&cfg_auto);
    let checked = time(&cfg_checked);
    let ratio = checked / auto;
    println!("SPLATT checked-mode overhead: {ratio:.3}x ({auto:.6}s auto, {checked:.6}s checked)");
    assert!(
        ratio < 2.0,
        "checked mode must stay under 2x (measured {ratio:.3}x)"
    );
}

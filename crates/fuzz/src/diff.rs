//! The differential runner: every generated case goes through every
//! MTTKRP kernel in the registry (all seven kinds), the BCOO storage
//! round-trip, the tuner, and (sampled) the distributed executors,
//! cross-checked against the dense reference and the `tenblock-check`
//! oracles. Any panic, typed-error mismatch, or numeric disagreement
//! becomes a [`Finding`] with a minimized `.tns` repro.

use crate::gen::{render_tns, FuzzCase};
use crate::rng::FuzzRng;
use crate::Finding;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tenblock_core::mttkrp::dense_mttkrp;
use tenblock_core::{
    try_build_kernel, try_tune, ExecPolicy, KernelConfig, KernelKind, StreamError, StreamingMttkrp,
    TuneError, TuneOptions,
};
use tenblock_dist::exec::{run_3d, run_4d, DistConfig};
use tenblock_tensor::bcoo::uniform_bounds;
use tenblock_tensor::coo::perm_for_mode;
use tenblock_tensor::io_bin::BinError;
use tenblock_tensor::{CooSource, CooTensor, DenseMatrix, SourceTile, TensorSource, NMODES};

/// Numeric agreement tolerance. Generated values are in `[-1, 1)` and case
/// sizes are bounded, so anything past reassociation noise is a real
/// divergence.
const TOL: f64 = 1e-7;

/// Runs `f`, converting a panic into its message. The caller installs a
/// silent panic hook for the whole fuzz run, so a caught panic does not
/// spam stderr.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Deterministic factor matrices for a differential run.
fn factors_for(coo: &CooTensor, rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = FuzzRng::new(seed);
    coo.dims()
        .iter()
        .map(|&d| DenseMatrix::from_fn(d, rank, |_, _| rng.signed_unit()))
        .collect()
}

/// A valid random kernel configuration for `(coo, mode)`: every grid axis
/// within its kernel-axis length, strip width from the interesting set.
fn valid_config(coo: &CooTensor, mode: usize, rank: usize, rng: &mut FuzzRng) -> KernelConfig {
    let perm = perm_for_mode(mode);
    let dims = coo.dims();
    let grid = std::array::from_fn(|ax| {
        let len = dims[perm[ax]].max(1);
        1 + rng.below(len.min(4))
    });
    let strip = *rng.pick(&[0, 1, 15, 16, 17, rank.max(1)]);
    KernelConfig {
        grid,
        strip_width: strip,
        exec: ExecPolicy::serial(),
    }
}

/// One full differential pass over a case: every kernel kind against the
/// dense reference (and each other), plus the race/invariant oracle run
/// and the BCOO storage round-trip.
/// Returns findings; pushes nothing when everything agrees.
pub(crate) fn check_kernels(case: &FuzzCase, rng: &mut FuzzRng) -> Vec<Finding> {
    let mut findings = Vec::new();
    let coo = &case.coo;
    let rank = case.rank;
    let mode = rng.below(NMODES);
    let cfg = valid_config(coo, mode, rank, rng);
    findings.extend(check_bcoo_round_trip(case, mode, &cfg));
    let factors = factors_for(coo, rank, rng.next_u64());
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];

    // Dense reference (cheap for the bounded generator sizes).
    let reference = match catch(|| dense_mttkrp(coo, &fs, mode)) {
        Ok(r) => r,
        Err(p) => {
            findings.push(Finding {
                seed: 0,
                case: format!("{}/dense-ref", case.label),
                detail: format!("dense reference panicked: {p}"),
                repro: Some(repro_text(coo, mode, rank, &cfg)),
                repro_bin: None,
            });
            return findings;
        }
    };

    for kind in KernelKind::ALL {
        let outcome = catch(|| {
            let k = try_build_kernel(kind, coo, mode, &cfg)?;
            let mut out = DenseMatrix::zeros(coo.dims()[mode], rank);
            k.mttkrp(&fs, &mut out);
            let mut checked = DenseMatrix::zeros(coo.dims()[mode], rank);
            let race = k.mttkrp_checked(&fs, &mut checked);
            Ok::<_, tenblock_core::KernelError>((out, checked, race))
        });
        let failure = match outcome {
            Err(panic_msg) => Some(format!("panicked: {panic_msg}")),
            Ok(Err(e)) => Some(format!("valid config rejected: {e}")),
            Ok(Ok((out, checked, race))) => {
                if let Err(r) = race {
                    Some(format!("oracle violation: {r}"))
                } else if !out.approx_eq(&reference, TOL) {
                    Some("diverges from the dense reference".to_string())
                } else if !checked.approx_eq(&out, TOL) {
                    Some("checked run disagrees with the plain run".to_string())
                } else {
                    None
                }
            }
        };
        if let Some(detail) = failure {
            // Shrink the tensor while the same check still fails, then
            // print the minimized case as a .tns repro.
            let small = minimize_entries(coo, &|cand| {
                kernel_check_fails(kind, cand, mode, rank, &cfg)
            });
            findings.push(Finding {
                seed: 0,
                case: format!("{}/{kind:?}", case.label),
                detail: format!("{kind:?} kernel {detail}"),
                repro: Some(repro_text(&small, mode, rank, &cfg)),
                repro_bin: None,
            });
        }
    }
    findings
}

/// The BCOO layout must round-trip losslessly (COO → BCOO → COO) for the
/// differential grid — the storage invariant every block-native kernel
/// result rests on.
fn check_bcoo_round_trip(case: &FuzzCase, mode: usize, cfg: &KernelConfig) -> Vec<Finding> {
    let coo = &case.coo;
    let failure = match catch(|| {
        let t = tenblock_tensor::BcooTensor::from_coo(coo, mode, cfg.grid);
        t.to_coo()
    }) {
        Err(p) => Some(format!("BCOO round-trip panicked: {p}")),
        Ok(back) if back != *coo => Some(format!(
            "BCOO round-trip lost data: {} entries in, {} out",
            coo.nnz(),
            back.nnz()
        )),
        Ok(_) => None,
    };
    failure
        .map(|detail| {
            let small = minimize_entries(coo, &|cand| {
                catch(|| {
                    tenblock_tensor::BcooTensor::from_coo(cand, mode, cfg.grid).to_coo() != *cand
                })
                .unwrap_or(true)
            });
            Finding {
                seed: 0,
                case: format!("{}/bcoo-round-trip", case.label),
                detail,
                repro: Some(repro_text(&small, mode, case.rank, cfg)),
                repro_bin: None,
            }
        })
        .into_iter()
        .collect()
}

/// The minimization predicate: does `kind` still fail (panic, rejection,
/// oracle violation, or dense divergence) on this shrunken tensor?
fn kernel_check_fails(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    rank: usize,
    cfg: &KernelConfig,
) -> bool {
    let factors = factors_for(coo, rank, 0xfeed);
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    let Ok(reference) = catch(|| dense_mttkrp(coo, &fs, mode)) else {
        return true;
    };
    match catch(|| {
        let k = try_build_kernel(kind, coo, mode, cfg)?;
        let mut out = DenseMatrix::zeros(coo.dims()[mode], rank);
        k.mttkrp(&fs, &mut out);
        Ok::<_, tenblock_core::KernelError>(out)
    }) {
        Err(_) | Ok(Err(_)) => true,
        Ok(Ok(out)) => !out.approx_eq(&reference, TOL),
    }
}

/// Greedy delta-debugging over the entry list: repeatedly drop chunks while
/// `fails` still holds. Dimensions are preserved (the kernel config's
/// validity depends on them).
pub fn minimize_entries(coo: &CooTensor, fails: &dyn Fn(&CooTensor) -> bool) -> CooTensor {
    let mut cur = coo.clone();
    let mut chunk = (cur.nnz() / 2).max(1);
    while cur.nnz() > 0 {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.nnz() {
            let mut entries = cur.entries().to_vec();
            let end = (i + chunk).min(entries.len());
            entries.drain(i..end);
            match CooTensor::try_from_entries(cur.dims(), entries) {
                Ok(cand) if fails(&cand) => {
                    cur = cand;
                    shrunk = true;
                }
                _ => i = end,
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

/// Repro text: the offending tensor in `.tns` form plus the exact request.
fn repro_text(coo: &CooTensor, mode: usize, rank: usize, cfg: &KernelConfig) -> String {
    format!(
        "# mode {mode} rank {rank} grid {:?} strip {}\n{}",
        cfg.grid,
        cfg.strip_width,
        render_tns(coo)
    )
}

/// Invalid kernel requests must come back as typed errors — never panics,
/// never silent acceptance.
pub(crate) fn check_invalid_configs(case: &FuzzCase, rng: &mut FuzzRng) -> Vec<Finding> {
    let mut findings = Vec::new();
    let coo = &case.coo;
    let base = valid_config(coo, 0, case.rank, rng);
    let mut expect_rejected = |label: &str, mode: usize, cfg: KernelConfig| {
        for kind in KernelKind::ALL {
            match catch(|| try_build_kernel(kind, coo, mode, &cfg).err()) {
                Err(p) => findings.push(Finding {
                    seed: 0,
                    case: format!("{}/{label}", case.label),
                    detail: format!("{kind:?} panicked on an invalid request: {p}"),
                    repro: Some(repro_text(coo, mode, case.rank, &cfg)),
                    repro_bin: None,
                }),
                Ok(None) => findings.push(Finding {
                    seed: 0,
                    case: format!("{}/{label}", case.label),
                    detail: format!("{kind:?} accepted an invalid request"),
                    repro: Some(repro_text(coo, mode, case.rank, &cfg)),
                    repro_bin: None,
                }),
                Ok(Some(_)) => {}
            }
        }
    };

    let bad_mode = NMODES + rng.below(5);
    expect_rejected("bad-mode", bad_mode, base.clone());

    let mut zero_grid = base.clone();
    zero_grid.grid[rng.below(NMODES)] = 0;
    expect_rejected("zero-grid", 0, zero_grid);

    let mode = rng.below(NMODES);
    let perm = perm_for_mode(mode);
    let ax = rng.below(NMODES);
    let mut oversized = base.clone();
    oversized.grid = std::array::from_fn(|a| {
        let len = coo.dims()[perm[a]].max(1);
        if a == ax {
            len + 1 + rng.below(3)
        } else {
            1
        }
    });
    expect_rejected("oversized-grid", mode, oversized);
    findings
}

/// The tuner must return `Ok` exactly on non-degenerate input, and the
/// selected configuration must satisfy the tuning oracle.
pub(crate) fn check_tuner(case: &FuzzCase, rng: &mut FuzzRng) -> Vec<Finding> {
    let mut findings = Vec::new();
    let coo = &case.coo;
    let mode = rng.below(NMODES);
    let mut opts = TuneOptions::new(case.rank);
    opts.reps = 1;
    opts.max_blocks = 4;
    opts.seed = rng.next_u64();

    let degenerate = coo.nnz() == 0 || case.rank == 0 || coo.dims().contains(&0);
    match catch(|| try_tune(coo, mode, &opts)) {
        Err(p) => findings.push(Finding {
            seed: 0,
            case: format!("{}/tune", case.label),
            detail: format!("tuner panicked: {p}"),
            repro: Some(render_tns(coo)),
            repro_bin: None,
        }),
        Ok(Ok(r)) => {
            if degenerate {
                findings.push(Finding {
                    seed: 0,
                    case: format!("{}/tune", case.label),
                    detail: "tuner accepted degenerate input".to_string(),
                    repro: Some(render_tns(coo)),
                    repro_bin: None,
                });
            } else if let Err(e) = r.validate(coo.dims(), mode, case.rank) {
                findings.push(Finding {
                    seed: 0,
                    case: format!("{}/tune", case.label),
                    detail: format!("selected configuration fails the tuning oracle: {e}"),
                    repro: Some(render_tns(coo)),
                    repro_bin: None,
                });
            }
        }
        Ok(Err(e)) => {
            let justified = match e {
                TuneError::EmptyTensor => coo.nnz() == 0,
                TuneError::RankZero => case.rank == 0,
                TuneError::ZeroAxis { mode } => coo.dims()[mode] == 0,
                TuneError::ModeOutOfRange { .. } => false, // mode < NMODES here
            };
            if !justified {
                findings.push(Finding {
                    seed: 0,
                    case: format!("{}/tune", case.label),
                    detail: format!("tuner rejected valid input: {e}"),
                    repro: Some(render_tns(coo)),
                    repro_bin: None,
                });
            }
        }
    }
    findings
}

/// A [`CooSource`] that serves one tile wrong: its entries in reverse
/// order (legal — sources may serve any order), or with one local offset
/// moved outside the tile's span, or with a value column one short.
struct MutantSource {
    inner: CooSource,
    tile: usize,
    lie: SourceLie,
}

#[derive(Debug, Clone, Copy)]
enum SourceLie {
    Reversed,
    OffsetPastSpan { axis: usize, offset: u32 },
    ShortValues,
}

impl TensorSource for MutantSource {
    fn dims(&self) -> [usize; NMODES] {
        self.inner.dims()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn grid(&self) -> [usize; NMODES] {
        self.inner.grid()
    }
    fn n_tiles(&self) -> usize {
        self.inner.n_tiles()
    }
    fn tile_cell(&self, i: usize) -> [usize; NMODES] {
        self.inner.tile_cell(i)
    }
    fn tile_nnz(&self, i: usize) -> usize {
        self.inner.tile_nnz(i)
    }
    fn load_tile_into(&self, i: usize, tile: &mut SourceTile) -> Result<(), BinError> {
        self.inner.load_tile_into(i, tile)?;
        if i == self.tile {
            match self.lie {
                SourceLie::Reversed => {
                    tile.locals.reverse();
                    tile.vals.reverse();
                }
                SourceLie::OffsetPastSpan { axis, offset } => {
                    if let Some(l) = tile.locals.last_mut() {
                        l[axis] = offset;
                    }
                }
                SourceLie::ShortValues => {
                    tile.vals.pop();
                }
            }
        }
        Ok(())
    }
}

/// Source stage: the streaming driver over a [`TensorSource`] it cannot
/// trust. A tile served in another order must still produce the dense
/// reference; a tile that lies about its spans (an offset at or past the
/// span, up to `u32::MAX`, or columns of unequal length) must come back as
/// `StreamError::Load` — the driver's counting passes index histograms by
/// offset, so anything else is an out-of-bounds index waiting to happen.
pub(crate) fn check_source(case: &FuzzCase, rng: &mut FuzzRng) -> Vec<Finding> {
    let mut findings = Vec::new();
    let coo = &case.coo;
    let dims = coo.dims();
    if case.rank == 0 || coo.nnz() == 0 {
        return findings;
    }
    let grid: [usize; NMODES] = std::array::from_fn(|m| 1 + rng.below(dims[m].min(3)));
    let inner = CooSource::new(coo, grid);
    let tile = rng.below(inner.n_tiles());
    let axis = rng.below(NMODES);
    let span = uniform_bounds(dims[axis], grid[axis])
        .windows(2)
        .nth(inner.tile_cell(tile)[axis])
        .map_or(0, |w| (w[1] - w[0]) as u32);
    let far = u32::MAX - rng.below(3) as u32;
    let lie = *rng.pick(&[
        SourceLie::Reversed,
        SourceLie::OffsetPastSpan { axis, offset: span },
        SourceLie::OffsetPastSpan { axis, offset: far },
        SourceLie::ShortValues,
    ]);
    let src = MutantSource { inner, tile, lie };
    let mode = rng.below(NMODES);
    let factors = factors_for(coo, case.rank, rng.next_u64());
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];
    let exec = if rng.below(2) == 0 {
        ExecPolicy::serial()
    } else {
        ExecPolicy::checked()
    };
    let outcome = catch(|| {
        let mut out = DenseMatrix::zeros(dims[mode], case.rank);
        StreamingMttkrp::new(&src, mode, 16)
            .with_exec(exec)
            .run(&fs, &mut out)
            .map(|()| out)
    });
    let failure = match (lie, outcome) {
        (_, Err(p)) => Some(format!("panicked: {p}")),
        (SourceLie::Reversed, Ok(Ok(out))) => (!out.approx_eq(&dense_mttkrp(coo, &fs, mode), TOL))
            .then(|| "reversed tile changed the streamed result".to_string()),
        (SourceLie::Reversed, Ok(Err(e))) => Some(format!("honest source rejected: {e}")),
        (_, Ok(Err(StreamError::Load(_)))) => None,
        (_, Ok(Err(e))) => Some(format!("lie surfaced as the wrong error: {e}")),
        (_, Ok(Ok(_))) => Some("lie about the tile's spans was accepted".to_string()),
    };
    if let Some(detail) = failure {
        findings.push(Finding {
            seed: 0,
            case: format!("{}/source-{lie:?}", case.label),
            detail,
            repro: Some(render_tns(coo)),
            repro_bin: None,
        });
    }
    findings
}

/// Distributed execution on degenerate shapes: the partitioner and the
/// α–β model must produce finite times on anything the constructors accept.
pub(crate) fn check_dist(case: &FuzzCase, rng: &mut FuzzRng) -> Vec<Finding> {
    let mut findings = Vec::new();
    let coo = &case.coo;
    if case.rank == 0 || coo.nnz() == 0 || coo.dims().contains(&0) {
        return findings;
    }
    let cfg = DistConfig {
        reps: 1,
        ..DistConfig::new(case.rank)
    };
    let dims = coo.dims();
    let grid: [usize; NMODES] = std::array::from_fn(|m| (1 + rng.below(2)).min(dims[m]));
    let mut judge =
        |what: &str, outcome: Result<tenblock_dist::exec::DistResult, String>| match outcome {
            Err(p) => findings.push(Finding {
                seed: 0,
                case: format!("{}/{what}", case.label),
                detail: format!("{what} panicked: {p}"),
                repro: Some(render_tns(coo)),
                repro_bin: None,
            }),
            Ok(r) => {
                if !r.total_secs.is_finite() || r.total_secs < 0.0 || r.imbalance < 1.0 {
                    findings.push(Finding {
                        seed: 0,
                        case: format!("{}/{what}", case.label),
                        detail: format!(
                            "{what} produced a non-physical result: total {} imbalance {}",
                            r.total_secs, r.imbalance
                        ),
                        repro: Some(render_tns(coo)),
                        repro_bin: None,
                    });
                }
            }
        };
    judge("dist-3d", catch(|| run_3d(coo, &cfg, grid)));
    if case.rank >= 16 {
        let t = 1 + rng.below(2);
        judge("dist-4d", catch(|| run_4d(coo, &cfg, grid, t)));
    }
    findings
}

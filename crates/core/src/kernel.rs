//! The [`MttkrpKernel`] trait and the kernel registry.

use crate::block::{build_layout, BlockGrid, BlockedKernel};
use crate::exec::ExecPolicy;
use crate::mttkrp::{BcooKernel, CooKernel, Csf3Kernel};
use std::sync::Arc;
use tenblock_check::RaceReport;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// A prepared MTTKRP kernel for one mode of one tensor.
///
/// Construction may reorganize the tensor (sorting, blocking); the
/// [`MttkrpKernel::mttkrp`] call itself only reads the factor matrices and
/// writes the output. This split matches CPD usage, where each mode's
/// MTTKRP runs 10–1000s of times against changing factors (Section III-B).
pub trait MttkrpKernel: Send + Sync {
    /// Computes the mode-`m` MTTKRP: `out = X_(m) (⊙ of the other factors)`.
    ///
    /// `factors` are indexed by original mode; `factors[self.mode()]` is
    /// ignored (it is the output slot). `out` must be
    /// `dims[m] x R` where every factor has `R` columns.
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix);

    /// Like [`MttkrpKernel::mttkrp`], but first verifies the kernel's
    /// blocking invariants and the write sets of its parallel tasks
    /// (claimed output-row ranges pairwise disjoint and jointly covering
    /// the output, actual touches confined to the owning claim). On
    /// violation, returns a structured [`RaceReport`] *without running any
    /// task*; on success, computes exactly what `mttkrp` would.
    ///
    /// The default implementation performs no verification — kernels with
    /// a parallel path override it. A kernel whose `exec` policy is
    /// [`crate::Threads::Checked`] performs the same verification inside
    /// `mttkrp` itself and panics with the report on violation.
    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport> {
        self.mttkrp(factors, out);
        Ok(())
    }

    /// The mode this kernel computes.
    fn mode(&self) -> usize;

    /// Human-readable kernel name for harness output.
    fn name(&self) -> &'static str;

    /// Bytes of tensor data this kernel's representation occupies
    /// (for memory/traffic reporting).
    fn tensor_bytes(&self) -> usize;
}

/// Kernel families available in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Coordinate-format kernel (Section III-C1).
    Coo,
    /// Baseline SPLATT kernel (Algorithm 1).
    Splatt,
    /// Multi-dimensional blocking (Section V-A).
    Mb,
    /// Rank + register blocking (Algorithm 2).
    RankB,
    /// MB and RankB combined (Figure 3b).
    MbRankB,
    /// Compressed sparse fiber (the higher-order format of ref. [12]),
    /// with rank blocking.
    Csf,
    /// Block-native coordinate storage with the register-tiled dense
    /// micro-kernel (Section V-A as a data layout).
    Bcoo,
}

impl KernelKind {
    /// All kinds, in paper presentation order.
    pub const ALL: [KernelKind; 7] = [
        KernelKind::Coo,
        KernelKind::Splatt,
        KernelKind::Mb,
        KernelKind::RankB,
        KernelKind::MbRankB,
        KernelKind::Csf,
        KernelKind::Bcoo,
    ];

    /// Canonical lowercase name, as accepted by the CLI and serve
    /// `kernel` parameters and stored in cached plans.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Coo => "coo",
            KernelKind::Splatt => "splatt",
            KernelKind::Mb => "mb",
            KernelKind::RankB => "rankb",
            KernelKind::MbRankB => "mbrankb",
            KernelKind::Csf => "csf",
            KernelKind::Bcoo => "bcoo",
        }
    }

    /// Inverse of [`Self::as_str`], ignoring ASCII case; `mb+rankb`, the
    /// spelling of that kernel's `name()`, is accepted for `mbrankb`.
    pub fn from_name(name: &str) -> Option<KernelKind> {
        let name = name.to_ascii_lowercase();
        if name == "mb+rankb" {
            return Some(KernelKind::MbRankB);
        }
        KernelKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// Blocking and execution parameters for [`build_kernel`].
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// MB grid in kernel axes `[slice, j, k]`; `[1, 1, 1]` disables MB.
    pub grid: [usize; NMODES],
    /// RankB strip width in columns; `0` means "whole rank" (disables
    /// rank blocking).
    pub strip_width: usize,
    /// Threading policy and observability recorder.
    pub exec: ExecPolicy,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            grid: [1, 1, 1],
            strip_width: 0,
            exec: ExecPolicy::serial(),
        }
    }
}

impl KernelConfig {
    /// Replaces the execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// Typed rejection of an invalid [`build_kernel`] request.
///
/// Every variant names the exact constraint violated, so boundary layers
/// (serve, CLI, fuzzer) can surface the reason without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `mode` is not in `0..NMODES`.
    ModeOutOfRange {
        /// The requested mode.
        mode: usize,
    },
    /// An MB grid axis requests zero blocks.
    GridAxisZero {
        /// Kernel axis (0 = slice, 1 = j, 2 = k).
        axis: usize,
    },
    /// An MB grid axis requests more blocks than the axis has indices.
    GridExceedsAxis {
        /// Kernel axis (0 = slice, 1 = j, 2 = k).
        axis: usize,
        /// Requested block count.
        blocks: usize,
        /// The axis length (tensor dimension along that kernel axis).
        len: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ModeOutOfRange { mode } => {
                write!(f, "mode {mode} out of range (0..{NMODES})")
            }
            KernelError::GridAxisZero { axis } => {
                write!(f, "MB grid requests 0 blocks along kernel axis {axis}")
            }
            KernelError::GridExceedsAxis { axis, blocks, len } => write!(
                f,
                "MB grid requests {blocks} blocks along kernel axis {axis} of length {len}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Validates a `(mode, grid)` request against the tensor's dimensions.
///
/// This is the exact precondition `BlockGrid::new` asserts; checking it
/// here turns a would-be panic on hostile input into a [`KernelError`].
fn validate_request(
    coo: &CooTensor,
    mode: usize,
    grid: [usize; NMODES],
) -> Result<(), KernelError> {
    if mode >= NMODES {
        return Err(KernelError::ModeOutOfRange { mode });
    }
    let perm = tenblock_tensor::coo::perm_for_mode(mode);
    let dims = coo.dims();
    for ax in 0..NMODES {
        if grid[ax] == 0 {
            return Err(KernelError::GridAxisZero { axis: ax });
        }
        let len = dims[perm[ax]].max(1);
        if grid[ax] > len {
            return Err(KernelError::GridExceedsAxis {
                axis: ax,
                blocks: grid[ax],
                len,
            });
        }
    }
    Ok(())
}

/// Builds a kernel of the requested kind for mode `mode` of `coo`,
/// rejecting invalid requests with a typed [`KernelError`] instead of
/// panicking.
///
/// MB kinds use `cfg.grid`; RankB kinds use `cfg.strip_width` (a width of 0
/// falls back to 16 columns, two cache lines of doubles, the paper's
/// `N_RegB`). Non-MB kinds ignore the grid but still validate it, so an
/// invalid config is rejected uniformly regardless of kind.
pub fn try_build_kernel(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
) -> Result<Box<dyn MttkrpKernel>, KernelError> {
    try_build_kernel_with(kind, coo, mode, cfg, |grid| build_layout(coo, mode, grid))
}

/// [`try_build_kernel`], with the caller supplying the layout: the four
/// fibered kinds call `layout(grid)` for the [`BlockGrid`] of `(coo, mode,
/// grid)` — `[1, 1, 1]` for `Splatt`/`RankB`, `cfg.grid` for
/// `Mb`/`MbRankB` — and wrap what it returns, so a caller that keeps
/// layouts (built with [`build_layout`]) pays for each once however many
/// kernels it asks for. `layout` runs only after validation and at most
/// once; `Coo`, `Csf` and `Bcoo` have their own layouts and never call it.
pub fn try_build_kernel_with(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
    layout: impl FnOnce([usize; NMODES]) -> Arc<BlockGrid>,
) -> Result<Box<dyn MttkrpKernel>, KernelError> {
    validate_request(coo, mode, cfg.grid)?;
    Ok(build_validated(kind, coo, mode, cfg, layout))
}

/// Builds a kernel of the requested kind for mode `mode` of `coo`.
///
/// MB kinds use `cfg.grid`; RankB kinds use `cfg.strip_width` (a width of 0
/// falls back to 16 columns, two cache lines of doubles, the paper's
/// `N_RegB`).
///
/// # Panics
/// Panics on an invalid request; boundary code should prefer
/// [`try_build_kernel`].
pub fn build_kernel(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
) -> Box<dyn MttkrpKernel> {
    match try_build_kernel(kind, coo, mode, cfg) {
        Ok(k) => k,
        Err(e) => panic!("{e}"),
    }
}

fn build_validated(
    kind: KernelKind,
    coo: &CooTensor,
    mode: usize,
    cfg: &KernelConfig,
    layout: impl FnOnce([usize; NMODES]) -> Arc<BlockGrid>,
) -> Box<dyn MttkrpKernel> {
    let strip = if cfg.strip_width == 0 {
        16
    } else {
        cfg.strip_width
    };
    let exec = cfg.exec.clone();
    match kind {
        KernelKind::Coo => Box::new(CooKernel::new(coo, mode).with_exec(exec)),
        // One kernel, four corners: the kind says which blockings are on.
        KernelKind::Splatt | KernelKind::Mb | KernelKind::RankB | KernelKind::MbRankB => {
            let mb = matches!(kind, KernelKind::Mb | KernelKind::MbRankB);
            let grid = if mb { cfg.grid } else { [1, 1, 1] };
            let strip = matches!(kind, KernelKind::RankB | KernelKind::MbRankB).then_some(strip);
            Box::new(BlockedKernel::over(layout(grid), mb, strip).with_exec(exec))
        }
        KernelKind::Csf => Box::new(
            Csf3Kernel::new(coo, mode)
                .with_strip_width(strip)
                .with_exec(exec),
        ),
        KernelKind::Bcoo => Box::new(BcooKernel::new(coo, mode, cfg.grid, strip).with_exec(exec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_tensor::gen::uniform_tensor;

    #[test]
    fn invalid_requests_get_typed_errors() {
        let x = uniform_tensor([4, 6, 8], 30, 1);
        let cfg = KernelConfig::default();
        for kind in KernelKind::ALL {
            assert_eq!(
                try_build_kernel(kind, &x, 3, &cfg).err(),
                Some(KernelError::ModeOutOfRange { mode: 3 }),
                "{kind:?}"
            );
            let zero_grid = KernelConfig {
                grid: [1, 0, 1],
                ..Default::default()
            };
            assert_eq!(
                try_build_kernel(kind, &x, 0, &zero_grid).err(),
                Some(KernelError::GridAxisZero { axis: 1 }),
                "{kind:?}"
            );
            // Mode-0 kernel axes are [dims[0], dims[1], dims[2]] = [4,6,8];
            // 5 blocks along the 4-long slice axis cannot tile it.
            let oversized = KernelConfig {
                grid: [5, 1, 1],
                ..Default::default()
            };
            assert_eq!(
                try_build_kernel(kind, &x, 0, &oversized).err(),
                Some(KernelError::GridExceedsAxis {
                    axis: 0,
                    blocks: 5,
                    len: 4
                }),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn from_name_inverts_as_str() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::from_name(kind.as_str()), Some(kind));
            let upper = kind.as_str().to_ascii_uppercase();
            assert_eq!(KernelKind::from_name(&upper), Some(kind));
        }
        assert_eq!(KernelKind::from_name("MB+RankB"), Some(KernelKind::MbRankB));
        assert_eq!(KernelKind::from_name("blocked"), None);
        assert_eq!(KernelKind::from_name(""), None);
    }

    #[test]
    fn registry_builds_every_kind() {
        let x = uniform_tensor([10, 12, 14], 200, 3);
        let rank = 8;
        let factors: Vec<DenseMatrix> = x
            .dims()
            .iter()
            .map(|&d| DenseMatrix::from_fn(d, rank, |r, c| ((r + c) % 5) as f64))
            .collect();
        let fs: [&DenseMatrix; 3] = [&factors[0], &factors[1], &factors[2]];
        let cfg = KernelConfig {
            grid: [2, 2, 2],
            strip_width: 4,
            exec: ExecPolicy::serial(),
        };

        let mut reference: Option<DenseMatrix> = None;
        for kind in KernelKind::ALL {
            let k = build_kernel(kind, &x, 0, &cfg);
            assert_eq!(k.mode(), 0);
            assert!(!k.name().is_empty());
            let mut out = DenseMatrix::zeros(x.dims()[0], rank);
            k.mttkrp(&fs, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert!(
                    r.approx_eq(&out, 1e-10),
                    "{:?} disagrees with reference",
                    kind
                ),
            }
        }
    }
}

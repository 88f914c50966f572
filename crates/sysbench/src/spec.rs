//! What the benchmark runs and what it reports: the four workloads, the
//! metric names, and the declaration in `BENCHMARK.json` they must match.

use crate::json::Json;
use tenblock_core::KernelKind;
use tenblock_tensor::gen::{
    clustered_tensor, poisson_tensor, powerlaw_tensor, ClusteredConfig, PoissonConfig,
    PowerLawConfig,
};
use tenblock_tensor::CooTensor;

/// The benchmark's declaration, compiled in so the binary, `check` and
/// `compare` can never disagree with the file the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Grid and strip every probe of the kernel layer uses, so entries stay
/// comparable across workloads and across commits.
pub const SWEEP_GRID: [usize; 3] = [8, 8, 4];
pub const STRIP: usize = 16;

/// Tile budget handed to `grid_for_tile_budget` for every tile store.
pub const TILE_BUDGET: u64 = 4 << 20;

/// Kernels that also get a `core.mttkrp_par_s` entry.
pub const PAR_KERNELS: [KernelKind; 3] =
    [KernelKind::Splatt, KernelKind::MbRankB, KernelKind::Bcoo];

#[derive(Debug, Clone, Copy)]
pub enum Gen {
    Clustered,
    PowerLaw,
    Poisson,
}

/// The execution path from input bytes to fit.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// `read_tns` → `CpAls::new` → `run`, all in memory.
    Mem {
        kernel: KernelKind,
        grid: [usize; 3],
        parallel: bool,
    },
    /// `read_tns` → `TileStore::create_from_coo` → `CpAlsStream`.
    Stream,
    /// `load` + `decompose` over TCP against an in-process `Server`.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub gen: Gen,
    pub dims: [usize; 3],
    pub nnz: usize,
    pub rank: usize,
    pub iters: usize,
    /// Job repetitions and warm sweeps of a `NOMINAL_SECONDS` run. Counts
    /// are fixed, not timed out, so two runs do the same work and their
    /// medians and memory peaks are comparable.
    pub jobs: usize,
    pub sweeps: usize,
    pub path: Path,
}

/// The `--seconds` the repetition counts below fill on the reference box
/// (2 cores, 2 MiB L2 each); other values scale the counts in proportion.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Sizes are chosen so the factor matrices leave the 2 MiB L2 (the paper's
/// precondition for blocking to pay) and the three execution paths each
/// get a workload; README.md says which layer dominates which.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "clustered-mem",
        gen: Gen::Clustered,
        dims: [40_000, 30_000, 20_000],
        nnz: 1_000_000,
        rank: 64,
        iters: 4,
        jobs: 3,
        sweeps: 24,
        path: Path::Mem {
            kernel: KernelKind::MbRankB,
            grid: SWEEP_GRID,
            parallel: true,
        },
    },
    Workload {
        name: "powerlaw-mem",
        gen: Gen::PowerLaw,
        dims: [120_000, 12_000, 400],
        nnz: 1_000_000,
        rank: 64,
        iters: 3,
        jobs: 3,
        sweeps: 10,
        path: Path::Mem {
            kernel: KernelKind::Splatt,
            grid: [1, 1, 1],
            parallel: false,
        },
    },
    Workload {
        name: "clustered-stream",
        gen: Gen::Clustered,
        dims: [40_000, 30_000, 20_000],
        nnz: 1_000_000,
        rank: 16,
        iters: 8,
        jobs: 4,
        sweeps: 14,
        path: Path::Stream,
    },
    Workload {
        name: "poisson-serve",
        gen: Gen::Poisson,
        dims: [20_000, 30_000, 15_000],
        nnz: 1_250_000,
        rank: 16,
        // The server's `decompose` stops at its default `tol`, on these
        // tensors after 3 or 4 iterations depending on the seed; 2 are
        // always performed, so the job's work does not vary with the seed.
        iters: 2,
        jobs: 6,
        sweeps: 20,
        path: Path::Serve,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The same workload with `1/div` of the nonzeros and `5/div` of every
    /// dimension (`check` runs `div = 50`); ranks and grids are kept.
    pub fn scaled(mut self, div: usize) -> Workload {
        self.nnz /= div;
        self.dims = self.dims.map(|d| d * 5 / div);
        self
    }

    /// Job repetitions and sweeps for a run of `seconds`: the nominal
    /// counts in proportion, never fewer than 3 jobs and 10 sweeps.
    pub fn repetitions(&self, seconds: f64) -> (usize, usize) {
        let scale = |n: usize| (n as f64 * seconds / NOMINAL_SECONDS).ceil() as usize;
        (scale(self.jobs).max(3), scale(self.sweeps).max(10))
    }

    /// Generates the input tensor; the same seed gives the same tensor.
    pub fn generate(&self, seed: u64) -> CooTensor {
        match self.gen {
            Gen::Clustered => clustered_tensor(&ClusteredConfig::new(self.dims, self.nnz), seed),
            Gen::PowerLaw => powerlaw_tensor(&PowerLawConfig::new(self.dims, self.nnz), seed),
            Gen::Poisson => poisson_tensor(&PoissonConfig::new(self.dims, self.nnz), seed),
        }
    }
}

/// One declared metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base value by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let j = Json::parse(text)?;
        let list = |key: &str| {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no list {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(String::from)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f:?}"))
                    };
                    Ok(Declared {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declaration {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration this binary was built with.
    pub fn built_in() -> Result<Declaration, String> {
        Declaration::parse(BENCHMARK_JSON)
    }
}

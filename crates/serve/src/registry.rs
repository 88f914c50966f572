//! Tensor registry: named, shared, immutable tensor residency — with an
//! optional spill tier.
//!
//! A decomposition service repeats three expensive steps per request if it
//! is naive: parse the tensor file, compute statistics, and sort the tensor
//! into the fiber-compressed layout a kernel runs over. The registry does
//! each exactly once per tensor and hands out `Arc<TensorEntry>` clones, so
//! concurrent jobs share one resident copy. Entries are keyed by a
//! caller-chosen string handle; registration is first-wins (re-registering
//! an existing handle is an error rather than a silent replace, so a handle
//! never changes meaning mid-session).
//!
//! # Layouts
//!
//! A layout is a `BlockGrid`: the tensor sorted for one mode at one grid.
//! It depends on nothing else — strip width, kernel name and execution
//! policy belong to the per-job `BlockedKernel` wrapped around it — so an
//! entry keeps its layouts and every job shares them:
//!
//! * **At registration** (and at each reload from the spill tier) the three
//!   unblocked `[1, 1, 1]` layouts are built, one per mode. `splatt` and
//!   `rankb` always run over them, `mb`/`mbrankb` do whenever no tuned plan
//!   pins a grid, and the per-mode fiber counts of [`TensorStats`] are read
//!   off them instead of from three more sorts.
//! * **On first use** a blocked grid — a tuned plan's, or `decompose`'s
//!   default — is built into the mode's one blocked slot. A plan pins one
//!   grid per tensor × rank, so one slot is the working set; a request for
//!   a different grid replaces it (jobs still running over the old layout
//!   keep it alive until they finish). Concurrent first requests for the
//!   same grid build it once: the others wait for that build, not for
//!   their own.
//!
//! Memory per resident entry is therefore the COO tensor plus at most two
//! layouts per mode. `coo`, `csf` and `bcoo` kernels have layouts of their
//! own and still build per request. Evicting an entry to the spill tier
//! drops its layouts with it.
//!
//! # Spill tier
//!
//! With [`Registry::with_spill`] the registry caps how many tensors stay
//! resident. When the cap is exceeded the least-recently-used entry is
//! serialized to an on-disk [`TileStore`] (the `.tnsb` v2 tile framing)
//! and its in-memory entry dropped; a later [`Registry::get`] streams the
//! tiles back and rebuilds the entry transparently, charging the I/O to
//! the registry's [`StreamStats`]. Two invariants hold regardless of
//! residency:
//!
//! * **Names never shrink.** A spilled tensor still counts for
//!   [`Registry::contains`] / [`Registry::names`] / [`Registry::len`];
//!   the protocol layer's first-wins and fail-fast checks rely on a
//!   handle never disappearing mid-session.
//! * **Spilling is lossless.** The tile store round-trips exact `f64`
//!   bits and coordinates, so a reloaded entry has the same fingerprint
//!   and statistics as the original.
//!
//! # Fault tolerance
//!
//! Spill I/O degrades gracefully instead of taking the registry down:
//!
//! * **Eviction is best-effort.** Transient spill-write errors
//!   (`EINTR`/`EAGAIN`) retry with seeded capped backoff; a write that
//!   fails permanently leaves the victim resident (correctness over the
//!   memory cap), counted in [`FaultCounters::evictions_skipped`].
//! * **Corrupt stores are quarantined.** A spill file that fails
//!   validation on reload is moved into a sibling `<file>.quarantine/`
//!   directory and the caller gets a typed
//!   [`RegistryError::SpillCorrupt`] — never a worker panic.
//! * **Startup re-adopts the spill dir.** [`Registry::with_spill`] scans
//!   `dir`: valid `*.tnsb` stores are re-registered as spilled entries
//!   (surviving a restart), invalid ones are quarantined, and `*.tmp`
//!   litter from a crashed writer is removed.

use crate::metrics::{FaultCounters, LayoutCounters};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use tenblock_core::block::BlockGrid;
use tenblock_core::obs::{Rec, StreamStats};
use tenblock_core::tune::grid_for_tile_budget;
use tenblock_core::{
    build_layout, try_build_kernel_with, KernelConfig, KernelError, KernelKind, MttkrpKernel,
};
use tenblock_faults::{is_transient, Backoff, FaultPolicy};
use tenblock_tensor::gen::ALL_DATASETS;
use tenblock_tensor::{io, io_bin, CooTensor, TensorStats, TileStore, NMODES};

/// Per-tile byte budget used when spilling (the tile grid is chosen so a
/// reload streams in modest chunks rather than one giant payload).
const SPILL_TILE_BUDGET: u64 = 8 << 20;

/// The grid of the unblocked layout.
const UNBLOCKED: [usize; NMODES] = [1, 1, 1];

/// A blocked layout being built or built: the slot is claimed for `grid`
/// before the sort runs, so concurrent requests for it find the claim and
/// wait on `layout` instead of sorting again.
#[derive(Debug)]
struct BlockedLayout {
    grid: [usize; NMODES],
    layout: OnceLock<Arc<BlockGrid>>,
}

/// One mode's layouts (see the module doc).
#[derive(Debug)]
struct ModeLayouts {
    unblocked: Arc<BlockGrid>,
    /// The most recently requested blocked grid.
    blocked: Mutex<Option<Arc<BlockedLayout>>>,
}

/// One resident tensor with everything derived from it.
#[derive(Debug)]
pub struct TensorEntry {
    /// Registry handle.
    pub name: String,
    /// The coordinate-format tensor (layouts are built from this).
    pub coo: CooTensor,
    /// Precomputed statistics (also the plan-cache fingerprint source).
    pub stats: TensorStats,
    /// Shape fingerprint, cached from `stats`.
    pub fingerprint: u64,
    layouts: [ModeLayouts; NMODES],
    counters: Arc<LayoutCounters>,
}

impl TensorEntry {
    fn build(name: &str, coo: CooTensor, counters: Arc<LayoutCounters>) -> TensorEntry {
        let layouts = [0, 1, 2].map(|mode| ModeLayouts {
            unblocked: build_layout(&coo, mode, UNBLOCKED),
            blocked: Mutex::new(None),
        });
        counters.builds.fetch_add(NMODES as u64, Ordering::Relaxed);
        // The unblocked layout of a mode has counted that mode's fibers.
        let fibers = [0, 1, 2].map(|mode| layouts[mode].unblocked.n_fibers());
        let stats = TensorStats::from_fibers(coo.dims(), coo.nnz(), fibers);
        TensorEntry {
            name: name.to_string(),
            fingerprint: stats.fingerprint(),
            coo,
            stats,
            layouts,
            counters,
        }
    }

    /// A kernel of `kind` for mode `mode` at `cfg`, rejecting an invalid
    /// mode or grid as [`tenblock_core::try_build_kernel`] does. The four
    /// fibered kinds run over the entry's shared layouts, so only the first
    /// request for a blocked grid sorts the tensor (under a `job/layout`
    /// span of `cfg.exec`'s recorder); the others build per request.
    pub fn kernel(
        &self,
        kind: KernelKind,
        mode: usize,
        cfg: &KernelConfig,
    ) -> Result<Box<dyn MttkrpKernel>, KernelError> {
        try_build_kernel_with(kind, &self.coo, mode, cfg, |grid| {
            self.layout(mode, grid, &cfg.exec.recorder)
        })
    }

    /// The layout of `mode` at `grid` (valid for this tensor), built under a
    /// `job/layout` span of `rec` if the entry does not hold it.
    fn layout(&self, mode: usize, grid: [usize; NMODES], rec: &Rec) -> Arc<BlockGrid> {
        let layouts = &self.layouts[mode];
        let mut built = false;
        let layout = if grid == UNBLOCKED {
            Arc::clone(&layouts.unblocked)
        } else {
            let claim = {
                let mut slot = crate::sync::lock(&layouts.blocked);
                match &*slot {
                    Some(held) if held.grid == grid => Arc::clone(held),
                    _ => Arc::clone(slot.insert(Arc::new(BlockedLayout {
                        grid,
                        layout: OnceLock::new(),
                    }))),
                }
            };
            // Outside the slot's lock: a request for another grid replaces
            // the claim without waiting for this sort.
            Arc::clone(claim.layout.get_or_init(|| {
                built = true;
                let _span = rec.span("job/layout");
                build_layout(&self.coo, mode, grid)
            }))
        };
        let counter = if built {
            &self.counters.builds
        } else {
            &self.counters.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        layout
    }

    /// The blocked grid `mode`'s slot holds, built or being built.
    #[cfg(test)]
    pub(crate) fn blocked_grid(&self, mode: usize) -> Option<[usize; NMODES]> {
        crate::sync::lock(&self.layouts[mode].blocked)
            .as_ref()
            .map(|b| b.grid)
    }

    /// Bytes of the layouts the entry holds right now.
    pub fn layout_bytes(&self) -> usize {
        self.layouts
            .iter()
            .map(|l| {
                let blocked = crate::sync::lock(&l.blocked);
                let blocked = blocked.as_ref().and_then(|b| b.layout.get());
                l.unblocked.tensor_bytes() + blocked.map_or(0, |b| b.tensor_bytes())
            })
            .sum()
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The handle is already registered (first-wins policy).
    Exists(String),
    /// No tensor under that handle.
    NotFound(String),
    /// Loading or generating the tensor failed (I/O, unknown extension or
    /// data set — the request itself, not the tensor bytes).
    Load(String),
    /// The tensor file was readable but its contents are malformed
    /// (parse or format error from the `.tns` / `.tnsb` readers).
    InvalidTensor(String),
    /// A spilled tile store failed validation on reload and was moved to
    /// its `*.quarantine/` directory. The handle stays registered but its
    /// data is gone until an operator re-registers it.
    SpillCorrupt(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Exists(n) => write!(f, "tensor {n:?} is already registered"),
            RegistryError::NotFound(n) => write!(f, "no tensor registered as {n:?}"),
            RegistryError::Load(msg)
            | RegistryError::InvalidTensor(msg)
            | RegistryError::SpillCorrupt(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Spill-tier configuration: where evicted tensors go and how many may
/// stay resident.
#[derive(Debug, Clone)]
struct SpillConfig {
    dir: PathBuf,
    max_resident: usize,
}

/// One registered handle: resident, spilled to disk, or (transiently
/// during a reload) both.
#[derive(Debug)]
struct Slot {
    resident: Option<Arc<TensorEntry>>,
    /// Tile-store file written by a past eviction. Kept even after a
    /// reload so a second eviction can drop the entry without rewriting
    /// the (immutable) file.
    spill_path: Option<PathBuf>,
    /// Logical timestamp of the last `get`/registration (LRU ordering).
    last_used: AtomicU64,
}

/// Thread-safe name → tensor map with optional LRU spill-to-disk.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<HashMap<String, Slot>>,
    spill: Option<SpillConfig>,
    clock: AtomicU64,
    stream_stats: Arc<StreamStats>,
    /// Fault-injection hook for spill writes and reloads (no-op in
    /// production; armed by `tenblock chaos` and the fault tests).
    faults: FaultPolicy,
    /// Degradation counters, shared with the service [`crate::Metrics`].
    counters: Arc<FaultCounters>,
    /// Layout-cache counters, shared with every entry and the metrics.
    layout_counters: Arc<LayoutCounters>,
}

/// `name`, reduced to filesystem-safe characters for the spill filename.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Recovers the registry handle from a spill filename stem: eviction
/// writes `{sanitized-name}-{fingerprint:016x}`, so strip a trailing
/// 16-hex-digit suffix if present, else use the whole stem.
fn adopted_name(stem: &str) -> String {
    if stem.len() > 17 {
        let (head, tail) = stem.split_at(stem.len() - 17);
        if let Some(hex) = tail.strip_prefix('-') {
            if hex.len() == 16 && hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return head.to_string();
            }
        }
    }
    stem.to_string()
}

impl Registry {
    /// Empty registry; everything stays resident.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Empty registry that keeps at most `max_resident` tensors in
    /// memory, spilling the least recently used to tile stores in `dir`.
    ///
    /// If `dir` already holds spill stores from a previous process, valid
    /// ones are re-adopted as spilled entries (named by stripping the
    /// fingerprint suffix from the filename), invalid ones are moved to
    /// their `*.quarantine/` directory, and leftover `*.tmp` files from a
    /// crashed writer are deleted.
    pub fn with_spill<P: AsRef<Path>>(dir: P, max_resident: usize) -> Registry {
        let reg = Registry {
            spill: Some(SpillConfig {
                dir: dir.as_ref().to_path_buf(),
                max_resident: max_resident.max(1),
            }),
            ..Registry::default()
        };
        reg.adopt_spill_dir();
        reg
    }

    /// Arms a fault-injection policy over spill writes and reloads.
    pub fn with_faults(mut self, faults: FaultPolicy) -> Registry {
        self.faults = faults;
        self
    }

    /// The degradation counters this registry increments (shared into the
    /// service metrics).
    pub fn fault_counters(&self) -> &Arc<FaultCounters> {
        &self.counters
    }

    /// The layout-cache counters this registry's entries increment (shared
    /// into the service metrics).
    pub fn layout_counters(&self) -> &Arc<LayoutCounters> {
        &self.layout_counters
    }

    /// The stream counters charged by spill reloads.
    pub fn stream_stats(&self) -> &Arc<StreamStats> {
        &self.stream_stats
    }

    /// Scans the spill directory at startup: re-adopts valid stores as
    /// spilled entries, quarantines stores that fail validation, removes
    /// `*.tmp` crash litter. A missing or unreadable directory is fine —
    /// the first eviction will create it.
    fn adopt_spill_dir(&self) {
        let Some(cfg) = &self.spill else { return };
        let Ok(rd) = std::fs::read_dir(&cfg.dir) else {
            return;
        };
        for entry in rd.filter_map(|e| e.ok()) {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            match path.extension().and_then(|e| e.to_str()) {
                Some("tmp") => {
                    // An uncommitted temp file from a writer that died:
                    // never adoptable, safe to delete.
                    let _ = std::fs::remove_file(&path);
                }
                Some("tnsb") => match TileStore::open(&path) {
                    Ok(_) => {
                        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                        let name = adopted_name(stem);
                        let mut map = crate::sync::write(&self.entries);
                        // First wins, as everywhere else.
                        map.entry(name).or_insert_with(|| Slot {
                            resident: None,
                            spill_path: Some(path.clone()),
                            last_used: AtomicU64::new(self.tick()),
                        });
                    }
                    Err(_) => self.quarantine(&path),
                },
                _ => {}
            }
        }
    }

    /// Moves a spill store that failed validation into a sibling
    /// `<file>.quarantine/` directory so it can never be adopted again but
    /// stays available for offline inspection.
    fn quarantine(&self, path: &Path) {
        self.counters
            .quarantined_stores
            .fetch_add(1, Ordering::Relaxed);
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            return;
        };
        let qdir = path.with_file_name(format!("{file}.quarantine"));
        let moved =
            std::fs::create_dir_all(&qdir).and_then(|()| std::fs::rename(path, qdir.join(file)));
        match moved {
            Ok(()) => eprintln!(
                "tenblock-serve: quarantined corrupt spill store {}",
                path.display()
            ),
            Err(e) => eprintln!(
                "tenblock-serve: failed to quarantine {}: {e}",
                path.display()
            ),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts least-recently-used residents (never `exempt`) until the
    /// resident count fits the cap. Called with the write lock held; the
    /// spill write happens under the lock, which is acceptable for a
    /// registry whose churn is operator-driven, not per-request.
    fn enforce_residency(&self, map: &mut HashMap<String, Slot>, exempt: &str) {
        let Some(cfg) = &self.spill else { return };
        loop {
            let resident = map.values().filter(|s| s.resident.is_some()).count();
            if resident <= cfg.max_resident {
                return;
            }
            let victim = map
                .iter()
                .filter(|(n, s)| s.resident.is_some() && n.as_str() != exempt)
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(n, _)| n.clone());
            let Some(name) = victim else { return };
            let Some(slot) = map.get_mut(&name) else {
                return;
            };
            let Some(entry) = slot.resident.clone() else {
                return;
            };
            // A past eviction already wrote the file; the tensor is
            // immutable, so dropping the entry suffices.
            if let Some(p) = &slot.spill_path {
                if p.exists() {
                    slot.resident = None;
                    continue;
                }
            }
            let path = cfg.dir.join(format!(
                "{}-{:016x}.tnsb",
                sanitize(&name),
                entry.fingerprint
            ));
            let grid = grid_for_tile_budget(entry.coo.dims(), entry.coo.nnz(), SPILL_TILE_BUDGET);
            // Transient write errors retry with seeded capped backoff;
            // permanent ones skip the eviction (counted, logged): the
            // victim stays resident rather than being lost.
            let mut backoff = Backoff::for_io(entry.fingerprint);
            let written = loop {
                let attempt = std::fs::create_dir_all(&cfg.dir)
                    .map_err(io_bin::BinError::from)
                    .and_then(|()| {
                        TileStore::create_from_coo_with(
                            &entry.coo,
                            grid,
                            &path,
                            self.faults.clone(),
                        )
                    });
                match attempt {
                    Err(io_bin::BinError::Io(e)) if is_transient(&e) => {
                        match backoff.next_delay() {
                            Some(delay) => {
                                self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(delay);
                            }
                            None => break Err(io_bin::BinError::Io(e)),
                        }
                    }
                    other => break other,
                }
            };
            match written {
                Ok(_) => {
                    slot.spill_path = Some(path);
                    slot.resident = None;
                }
                Err(e) => {
                    self.counters.spill_failures.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .evictions_skipped
                        .fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "tenblock-serve: spill of {name:?} failed ({e}); \
                         tensor stays resident over the cap"
                    );
                    return;
                }
            }
        }
    }

    /// Registers an in-memory tensor under `name`.
    pub fn register(&self, name: &str, coo: CooTensor) -> Result<Arc<TensorEntry>, RegistryError> {
        // Build outside the lock: the three layout sorts must not block
        // readers. The handle check is repeated under the write lock (first
        // insert wins).
        let entry = Arc::new(TensorEntry::build(
            name,
            coo,
            Arc::clone(&self.layout_counters),
        ));
        let mut map = crate::sync::write(&self.entries);
        if map.contains_key(name) {
            return Err(RegistryError::Exists(name.to_string()));
        }
        map.insert(
            name.to_string(),
            Slot {
                resident: Some(Arc::clone(&entry)),
                spill_path: None,
                last_used: AtomicU64::new(self.tick()),
            },
        );
        // Spilling evictees to disk under the entries lock is the
        // residency-cap design: the cap must hold atomically with the
        // insert that can breach it — lint: allow(lock-discipline)
        self.enforce_residency(&mut map, name);
        Ok(entry)
    }

    /// Loads a tensor file (`.tns` text or `.tnsb` binary) and registers it.
    pub fn load(&self, name: &str, path: &str) -> Result<Arc<TensorEntry>, RegistryError> {
        if self.contains(name) {
            return Err(RegistryError::Exists(name.to_string()));
        }
        let p = Path::new(path);
        // Parse/format failures become InvalidTensor (the bytes are wrong);
        // I/O failures and a bad extension stay Load (the request is wrong).
        let coo = match p.extension().and_then(|e| e.to_str()) {
            Some("tns") => io::read_tns_file(p).map_err(|e| match e {
                io::TnsError::Parse { .. } => RegistryError::InvalidTensor(e.to_string()),
                io::TnsError::Io(_) => RegistryError::Load(e.to_string()),
            })?,
            Some("tnsb") => io_bin::read_bin_file(p).map_err(|e| match e {
                io_bin::BinError::Format(_) => RegistryError::InvalidTensor(e.to_string()),
                io_bin::BinError::Io(_) => RegistryError::Load(e.to_string()),
            })?,
            other => {
                return Err(RegistryError::Load(format!(
                    "unknown tensor extension {other:?} (expected .tns or .tnsb)"
                )))
            }
        };
        self.register(name, coo)
    }

    /// Generates a Table II data-set analogue and registers it.
    pub fn generate(
        &self,
        name: &str,
        dataset: &str,
        nnz: Option<usize>,
        seed: u64,
    ) -> Result<Arc<TensorEntry>, RegistryError> {
        if self.contains(name) {
            return Err(RegistryError::Exists(name.to_string()));
        }
        let ds = ALL_DATASETS
            .into_iter()
            .find(|d| d.spec().name.eq_ignore_ascii_case(dataset))
            .ok_or_else(|| RegistryError::Load(format!("unknown data set {dataset:?}")))?;
        let spec = ds.spec();
        let coo = ds.generate_with(spec.default_dims, nnz.unwrap_or(spec.default_nnz), seed);
        self.register(name, coo)
    }

    /// Looks up a tensor by handle, streaming it back from the spill tier
    /// if it was evicted.
    pub fn get(&self, name: &str) -> Result<Arc<TensorEntry>, RegistryError> {
        let spill_path = {
            let map = crate::sync::read(&self.entries);
            let Some(slot) = map.get(name) else {
                return Err(RegistryError::NotFound(name.to_string()));
            };
            slot.last_used.store(self.tick(), Ordering::Relaxed);
            if let Some(entry) = &slot.resident {
                return Ok(Arc::clone(entry));
            }
            // Invariant: a registered slot is resident or spilled. Surface
            // a violation as a typed error instead of panicking a worker.
            match slot.spill_path.clone() {
                Some(p) => p,
                None => {
                    return Err(RegistryError::Load(format!(
                        "tensor {name:?} is neither resident nor spilled"
                    )))
                }
            }
        };
        // Reload outside the lock: tile streaming plus the layout rebuild
        // must not block concurrent lookups of other tensors. Transient
        // I/O errors retry with backoff; a validation failure means the
        // bytes on disk are wrong — quarantine the store and surface a
        // typed error instead of panicking a worker.
        let mut backoff = Backoff::for_io(self.clock.load(Ordering::Relaxed));
        let coo = loop {
            let attempt =
                TileStore::open_with(&spill_path, self.faults.clone()).and_then(|store| {
                    let lens: Vec<u64> = (0..store.n_tiles()).map(|i| store.tile(i).len).collect();
                    store.to_coo().map(|coo| (coo, lens))
                });
            match attempt {
                Ok((coo, lens)) => {
                    // Charge the stream stats only for the attempt that
                    // succeeded; retried partial reads don't count tiles.
                    for len in lens {
                        self.stream_stats.add_tile(len);
                    }
                    break coo;
                }
                Err(io_bin::BinError::Io(e)) if is_transient(&e) => match backoff.next_delay() {
                    Some(delay) => {
                        self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(delay);
                    }
                    None => {
                        return Err(RegistryError::Load(format!(
                            "reloading spilled {name:?}: {e}"
                        )))
                    }
                },
                Err(io_bin::BinError::Format(msg)) => {
                    self.quarantine(&spill_path);
                    let mut map = crate::sync::write(&self.entries);
                    if let Some(slot) = map.get_mut(name) {
                        // The file is gone; the handle stays registered
                        // (names never shrink) but has no data to serve.
                        slot.spill_path = None;
                    }
                    return Err(RegistryError::SpillCorrupt(format!(
                        "spilled store for {name:?} failed validation and was quarantined: {msg}"
                    )));
                }
                Err(e) => {
                    return Err(RegistryError::Load(format!(
                        "reloading spilled {name:?}: {e}"
                    )))
                }
            }
        };
        let entry = Arc::new(TensorEntry::build(
            name,
            coo,
            Arc::clone(&self.layout_counters),
        ));
        let mut map = crate::sync::write(&self.entries);
        let Some(slot) = map.get_mut(name) else {
            return Err(RegistryError::NotFound(name.to_string()));
        };
        // First reload wins; a racing thread's entry is as good as ours.
        if let Some(existing) = &slot.resident {
            return Ok(Arc::clone(existing));
        }
        slot.resident = Some(Arc::clone(&entry));
        slot.last_used.store(self.tick(), Ordering::Relaxed);
        // Spilling evictees to disk under the entries lock is the
        // residency-cap design: the cap must hold atomically with the
        // insert that can breach it — lint: allow(lock-discipline)
        self.enforce_residency(&mut map, name);
        Ok(entry)
    }

    /// Whether `name` is registered (resident or spilled).
    pub fn contains(&self, name: &str) -> bool {
        crate::sync::read(&self.entries).contains_key(name)
    }

    /// Registered handles, sorted. Spilled tensors are included: the set
    /// of names never shrinks while the registry lives.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = crate::sync::read(&self.entries).keys().cloned().collect();
        v.sort();
        v
    }

    /// Handles currently resident in memory, sorted.
    pub fn resident_names(&self) -> Vec<String> {
        let mut v: Vec<_> = crate::sync::read(&self.entries)
            .iter()
            .filter(|(_, s)| s.resident.is_some())
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// Handles evicted to the spill tier, sorted.
    pub fn spilled_names(&self) -> Vec<String> {
        let mut v: Vec<_> = crate::sync::read(&self.entries)
            .iter()
            .filter(|(_, s)| s.resident.is_none())
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// Bytes of layouts held per resident tensor, sorted by handle.
    pub fn layout_bytes(&self) -> Vec<(String, usize)> {
        let mut v: Vec<_> = crate::sync::read(&self.entries)
            .iter()
            .filter_map(|(n, s)| Some((n.clone(), s.resident.as_ref()?.layout_bytes())))
            .collect();
        v.sort();
        v
    }

    /// Number of registered tensors, resident or spilled.
    pub fn len(&self) -> usize {
        crate::sync::read(&self.entries).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenblock_core::{build_kernel, ExecPolicy};
    use tenblock_tensor::gen::uniform_tensor;
    use tenblock_tensor::DenseMatrix;

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenblock_spill_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One launch of `k` at rank 5 on fixed factors, as output bits.
    fn run_bits(k: &dyn MttkrpKernel, dims: [usize; NMODES]) -> Vec<u64> {
        let fs = dims.map(|d| DenseMatrix::from_fn(d, 5, |r, c| ((r * 7 + c) % 11) as f64 * 0.1));
        let mut out = DenseMatrix::zeros(dims[k.mode()], 5);
        k.mttkrp(&[&fs[0], &fs[1], &fs[2]], &mut out);
        out.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn counts(reg: &Registry) -> (u64, u64) {
        let c = reg.layout_counters();
        (
            c.builds.load(Ordering::Relaxed),
            c.hits.load(Ordering::Relaxed),
        )
    }

    /// Plan-cache keys are persisted: the fingerprint read off the layouts
    /// must be the one `TensorStats::of` computes with its own sorts.
    #[test]
    fn stats_from_the_layouts_equal_stats_of_the_tensor() {
        let mut tensors: Vec<CooTensor> = ALL_DATASETS
            .into_iter()
            .map(|ds| ds.generate_with([40, 60, 30], 1_500, 9))
            .collect();
        // Empty slices in every mode, duplicates of one fiber, and nothing.
        tensors.push(CooTensor::from_triples(
            [6, 5, 7],
            &[0, 0, 4, 4, 4],
            &[1, 3, 3, 3, 0],
            &[6, 6, 2, 2, 2],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        ));
        tensors.push(CooTensor::empty([4, 4, 4]));
        let reg = Registry::new();
        for (n, coo) in tensors.into_iter().enumerate() {
            let want = TensorStats::of(&coo);
            let e = reg.register(&format!("t{n}"), coo).unwrap();
            assert_eq!(e.stats, want, "tensor {n}");
            assert_eq!(e.fingerprint, want.fingerprint(), "tensor {n}");
        }
    }

    /// Eight first requests at once: a blocked grid is sorted by exactly
    /// one of them, the unblocked layout by none (registration built it),
    /// and every kernel computes what a fresh build from COO computes.
    #[test]
    fn concurrent_first_requests_build_once_and_match_a_fresh_kernel() {
        const THREADS: usize = 8;
        let x = uniform_tensor([40, 30, 20], 3_000, 17);
        let cfg = KernelConfig {
            grid: [2, 2, 2],
            strip_width: 4,
            exec: ExecPolicy::serial(),
        };
        let reg = Registry::new();
        for kind in [
            KernelKind::Splatt,
            KernelKind::Mb,
            KernelKind::RankB,
            KernelKind::MbRankB,
        ] {
            // A fresh entry per kind: its blocked slots start empty.
            let e = reg.register(kind.as_str(), x.clone()).unwrap();
            let blocked = matches!(kind, KernelKind::Mb | KernelKind::MbRankB) as u64;
            for mode in 0..NMODES {
                let fresh = build_kernel(kind, &x, mode, &cfg);
                let want = (fresh.name(), run_bits(fresh.as_ref(), x.dims()));
                let before = counts(&reg);
                let barrier = std::sync::Barrier::new(THREADS);
                let got: Vec<_> = std::thread::scope(|s| {
                    let served: Vec<_> = (0..THREADS)
                        .map(|_| {
                            s.spawn(|| {
                                barrier.wait();
                                let k = e.kernel(kind, mode, &cfg).unwrap();
                                (k.name(), run_bits(k.as_ref(), x.dims()))
                            })
                        })
                        .collect();
                    served.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let after = counts(&reg);
                assert_eq!(after.0 - before.0, blocked, "{kind:?} mode {mode}: builds");
                assert_eq!(
                    after.1 - before.1,
                    THREADS as u64 - blocked,
                    "{kind:?} mode {mode}: hits"
                );
                assert!(got.iter().all(|g| *g == want), "{kind:?} mode {mode}");
            }
        }
    }

    #[test]
    fn a_second_grid_replaces_the_first_in_the_blocked_slot() {
        let x = uniform_tensor([24, 18, 12], 1_200, 5);
        let reg = Registry::new();
        let e = reg.register("t", x.clone()).unwrap();
        let unblocked = e.layout_bytes();
        assert_eq!(e.blocked_grid(0), None);
        let at = |grid| KernelConfig {
            grid,
            ..KernelConfig::default()
        };
        for grid in [[2, 2, 2], [3, 1, 2], [3, 1, 2]] {
            e.kernel(KernelKind::Mb, 0, &at(grid)).unwrap();
            assert_eq!(e.blocked_grid(0), Some(grid));
            // The unblocked layouts plus this grid — never the one before.
            let held = build_layout(&x, 0, grid).tensor_bytes();
            assert_eq!(e.layout_bytes(), unblocked + held);
        }
        // Registration, then one build per distinct grid; the repeat hit.
        assert_eq!(counts(&reg), (3 + 2, 1));
        // The unblocked grid never takes the slot, nor do invalid ones.
        e.kernel(KernelKind::Mb, 0, &at([1, 1, 1])).unwrap();
        assert!(e.kernel(KernelKind::Mb, 0, &at([25, 1, 1])).is_err());
        assert!(e.kernel(KernelKind::Mb, 3, &at([1, 1, 1])).is_err());
        assert_eq!(e.blocked_grid(0), Some([3, 1, 2]));
    }

    #[test]
    fn register_get_and_first_wins() {
        let reg = Registry::new();
        let t = uniform_tensor([20, 30, 10], 500, 7);
        let e = reg.register("a", t.clone()).unwrap();
        assert_eq!(e.stats.nnz, e.coo.nnz());
        assert_eq!(e.fingerprint, e.stats.fingerprint());

        let again = reg.register("a", t);
        assert_eq!(again.unwrap_err(), RegistryError::Exists("a".into()));
        assert_eq!(reg.get("a").unwrap().name, "a");
        assert!(matches!(reg.get("b"), Err(RegistryError::NotFound(_))));
        assert_eq!(reg.names(), vec!["a".to_string()]);
        // Without a spill tier everything is resident.
        assert_eq!(reg.resident_names(), vec!["a".to_string()]);
        assert!(reg.spilled_names().is_empty());
    }

    #[test]
    fn generate_registers_dataset_analogue() {
        let reg = Registry::new();
        let e = reg.generate("p1", "poisson1", Some(2_000), 42).unwrap();
        assert!(e.stats.nnz > 0 && e.stats.nnz <= 2_000);
        assert!(matches!(
            reg.generate("p2", "nosuch", None, 0),
            Err(RegistryError::Load(_))
        ));
    }

    #[test]
    fn load_rejects_unknown_extension() {
        let reg = Registry::new();
        assert!(matches!(
            reg.load("x", "/tmp/whatever.csv"),
            Err(RegistryError::Load(_))
        ));
    }

    #[test]
    fn malformed_tensor_bytes_are_invalid_tensor_not_load() {
        let dir = std::env::temp_dir().join(format!("tenblock_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.tns");
        std::fs::write(&bad, "1 1 1 not-a-number\n").unwrap();
        let reg = Registry::new();
        assert!(matches!(
            reg.load("x", bad.to_str().unwrap()),
            Err(RegistryError::InvalidTensor(_))
        ));
        // A missing file is an I/O problem with the request, not bad bytes.
        let missing = dir.join("never_written.tns");
        assert!(matches!(
            reg.load("y", missing.to_str().unwrap()),
            Err(RegistryError::Load(_))
        ));
    }

    #[test]
    fn concurrent_register_same_name_single_winner() {
        let reg = std::sync::Arc::new(Registry::new());
        let t = uniform_tensor([10, 10, 10], 200, 1);
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let reg = std::sync::Arc::clone(&reg);
                    let t = t.clone();
                    s.spawn(move || reg.register("shared", t).is_ok() as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn spill_evicts_lru_and_reload_round_trips() {
        let dir = spill_dir("lru");
        let reg = Registry::with_spill(&dir, 1);
        let ta = uniform_tensor([15, 12, 9], 400, 3);
        let a = reg.register("a", ta).unwrap();
        let (a_nnz, a_fp) = (a.coo.nnz(), a.fingerprint);
        reg.register("b", uniform_tensor([8, 8, 8], 150, 5))
            .unwrap();

        // "a" was least recently used, so registering "b" spilled it —
        // but the handle stays registered.
        assert_eq!(reg.resident_names(), vec!["b".to_string()]);
        assert_eq!(reg.spilled_names(), vec!["a".to_string()]);
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(reg.len(), 2);
        assert!(reg.contains("a"));

        // Reloading streams the tiles back bit-exact and evicts "b".
        let a2 = reg.get("a").unwrap();
        assert_eq!(a2.coo.nnz(), a_nnz);
        assert_eq!(a2.fingerprint, a_fp);
        assert_eq!(reg.resident_names(), vec!["a".to_string()]);
        assert_eq!(reg.spilled_names(), vec!["b".to_string()]);

        let snap = reg.stream_stats().snapshot();
        assert!(snap.tiles_loaded > 0, "reload must be counted");
        assert!(snap.bytes_streamed > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_the_layouts_and_reload_rebuilds_them_bit_for_bit() {
        let dir = spill_dir("layouts");
        let reg = Registry::with_spill(&dir, 1);
        let cfg = KernelConfig {
            grid: [3, 2, 2],
            strip_width: 4,
            exec: ExecPolicy::serial(),
        };
        let a = reg
            .register("a", uniform_tensor([15, 12, 9], 400, 3))
            .unwrap();
        let dims = a.coo.dims();
        let serve = |e: &TensorEntry| -> Vec<_> {
            (0..NMODES)
                .map(|m| {
                    run_bits(
                        e.kernel(KernelKind::MbRankB, m, &cfg).unwrap().as_ref(),
                        dims,
                    )
                })
                .collect()
        };
        let before = serve(&a);
        assert_eq!(counts(&reg).0, 3 + 3);
        drop(a);
        reg.register("b", uniform_tensor([8, 8, 8], 150, 5))
            .unwrap();
        // "a" is on disk only: its layouts went with the entry.
        assert_eq!(reg.spilled_names(), vec!["a".to_string()]);
        assert_eq!(
            reg.layout_bytes()
                .iter()
                .map(|(n, _)| n)
                .collect::<Vec<_>>(),
            ["b"]
        );

        let builds = counts(&reg).0;
        let a2 = reg.get("a").unwrap();
        assert_eq!(a2.blocked_grid(0), None);
        assert_eq!(serve(&a2), before);
        // Three unblocked layouts at the reload, three blocked on demand.
        assert_eq!(counts(&reg).0 - builds, 3 + 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_refreshes_lru_order() {
        let dir = spill_dir("touch");
        let reg = Registry::with_spill(&dir, 2);
        reg.register("a", uniform_tensor([10, 10, 10], 100, 1))
            .unwrap();
        reg.register("b", uniform_tensor([10, 10, 10], 100, 2))
            .unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        reg.get("a").unwrap();
        reg.register("c", uniform_tensor([10, 10, 10], 100, 3))
            .unwrap();
        assert_eq!(reg.resident_names(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(reg.spilled_names(), vec!["b".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_spill_keeps_victim_resident_and_counts() {
        use tenblock_faults::{FaultAction, FaultOp, Trigger};
        let dir = spill_dir("spillfail");
        // Every write fails with ENOSPC (28): eviction can never succeed.
        let reg = Registry::with_spill(&dir, 1).with_faults(FaultPolicy::new(
            FaultOp::Write,
            FaultAction::Errno(28),
            Trigger::EveryNth(1),
            3,
        ));
        reg.register("a", uniform_tensor([10, 10, 10], 200, 1))
            .unwrap();
        reg.register("b", uniform_tensor([10, 10, 10], 200, 2))
            .unwrap();
        // Over the cap, but nothing was lost: the spill failed so "a"
        // stays resident.
        assert_eq!(reg.resident_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(reg.spilled_names().is_empty());
        let snap = reg.fault_counters().snapshot();
        assert!(snap.spill_failures >= 1, "snap: {snap:?}");
        assert!(snap.evictions_skipped >= 1);
        assert_eq!(snap.quarantined_stores, 0);
        // No half-written spill file is left behind.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        assert!(stray.is_empty(), "stray files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_spill_errors_retry_and_succeed() {
        use tenblock_faults::{FaultAction, FaultOp, Trigger};
        let dir = spill_dir("spillretry");
        // First two writes hit EAGAIN, then the fault heals. (EINTR would
        // be swallowed: `Write::write_all` retries `Interrupted` itself.)
        let reg = Registry::with_spill(&dir, 1).with_faults(FaultPolicy::transient(
            FaultOp::Write,
            FaultAction::Errno(11),
            Trigger::EveryNth(1),
            9,
            2,
        ));
        reg.register("a", uniform_tensor([10, 10, 10], 200, 1))
            .unwrap();
        reg.register("b", uniform_tensor([10, 10, 10], 200, 2))
            .unwrap();
        assert_eq!(reg.spilled_names(), vec!["a".to_string()]);
        let snap = reg.fault_counters().snapshot();
        assert!(snap.io_retries >= 1, "snap: {snap:?}");
        assert_eq!(snap.spill_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_store_is_quarantined_with_typed_error() {
        let dir = spill_dir("quarantine");
        let reg = Registry::with_spill(&dir, 1);
        reg.register("a", uniform_tensor([12, 10, 8], 300, 3))
            .unwrap();
        reg.register("b", uniform_tensor([8, 8, 8], 100, 4))
            .unwrap();
        assert_eq!(reg.spilled_names(), vec!["a".to_string()]);
        // Corrupt the spilled store's header in place.
        let spill_file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "tnsb"))
            .unwrap();
        let mut bytes = std::fs::read(&spill_file).unwrap();
        bytes[0] ^= 0xff; // break the magic
        std::fs::write(&spill_file, &bytes).unwrap();

        let err = reg.get("a").unwrap_err();
        assert!(
            matches!(err, RegistryError::SpillCorrupt(_)),
            "got: {err:?}"
        );
        assert_eq!(reg.fault_counters().snapshot().quarantined_stores, 1);
        // The store moved into its quarantine directory...
        assert!(!spill_file.exists());
        let qdir = spill_file.with_file_name(format!(
            "{}.quarantine",
            spill_file.file_name().unwrap().to_str().unwrap()
        ));
        assert!(qdir.join(spill_file.file_name().unwrap()).exists());
        // ...the handle stays registered (names never shrink), and a
        // second get fails typed rather than panicking.
        assert!(reg.contains("a"));
        assert!(matches!(reg.get("a"), Err(RegistryError::Load(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_adopts_valid_stores_quarantines_bad_and_sweeps_tmp() {
        let dir = spill_dir("adopt");
        {
            let reg = Registry::with_spill(&dir, 1);
            let a = reg
                .register("alpha", uniform_tensor([12, 10, 8], 250, 6))
                .unwrap();
            let _fp = a.fingerprint;
            reg.register("beta", uniform_tensor([8, 8, 8], 90, 7))
                .unwrap();
            assert_eq!(reg.spilled_names(), vec!["alpha".to_string()]);
        }
        // Simulate crash litter: a half-written temp and a corrupt store.
        std::fs::write(dir.join("halfway.tnsb.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("bad-0000000000000bad.tnsb"), b"TNSBgarbage").unwrap();

        let reg2 = Registry::with_spill(&dir, 1);
        // The valid store was re-adopted under its original name.
        assert_eq!(reg2.names(), vec!["alpha".to_string()]);
        assert_eq!(reg2.spilled_names(), vec!["alpha".to_string()]);
        let a = reg2.get("alpha").unwrap();
        assert_eq!(a.coo.nnz(), 250);
        // The corrupt store was quarantined, the tmp litter deleted.
        assert_eq!(reg2.fault_counters().snapshot().quarantined_stores, 1);
        assert!(!dir.join("halfway.tnsb.tmp").exists());
        assert!(!dir.join("bad-0000000000000bad.tnsb").exists());
        assert!(dir
            .join("bad-0000000000000bad.tnsb.quarantine")
            .join("bad-0000000000000bad.tnsb")
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopted_name_strips_fingerprint_suffix() {
        assert_eq!(adopted_name("amazon-00deadbeef123456"), "amazon");
        assert_eq!(adopted_name("has-dashes-0123456789abcdef"), "has-dashes");
        // Not a fingerprint suffix: kept verbatim.
        assert_eq!(adopted_name("short"), "short");
        assert_eq!(adopted_name("name-notahexsuffix00"), "name-notahexsuffix00");
    }

    #[test]
    fn second_eviction_reuses_the_spill_file() {
        let dir = spill_dir("reuse");
        let reg = Registry::with_spill(&dir, 1);
        reg.register("a", uniform_tensor([12, 12, 12], 300, 4))
            .unwrap();
        reg.register("b", uniform_tensor([6, 6, 6], 80, 5)).unwrap();
        let files = || {
            let mut v: Vec<_> = std::fs::read_dir(&dir)
                .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.file_name())).collect())
                .unwrap_or_default();
            v.sort();
            v
        };
        let after_first = files();
        assert_eq!(after_first.len(), 1, "one spill file for \"a\"");
        // Ping-pong: a back in, b out; then b back in, a out again. The
        // immutable spill files are written once each and then reused.
        reg.get("a").unwrap();
        reg.get("b").unwrap();
        assert_eq!(files().len(), 2);
        assert_eq!(reg.spilled_names(), vec!["a".to_string()]);
        let a = reg.get("a").unwrap();
        assert_eq!(a.coo.nnz(), 300);
        assert_eq!(files().len(), 2, "no third file on re-eviction");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

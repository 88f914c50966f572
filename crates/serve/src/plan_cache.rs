//! Tuned-plan cache: memoizes the Section V-C block-size heuristic.
//!
//! Tuning costs `O(log I_n)` timed MTTKRP runs per request — cheap next to
//! a decomposition, but pure waste when repeated for the same tensor shape
//! and rank. The cache key is the tensor's [`TensorStats::fingerprint`]
//! (dims × nnz × fiber counts) crossed with the rank; the value is the
//! selected `(grid, strip_width)` pair. Entries persist to a JSON file so
//! plans survive restarts and are shared between `tenblock serve` and the
//! `tune` / `decompose` subcommands (`--plan-cache`).
//!
//! Concurrent misses for the *same* key are coalesced by a compute lock:
//! the second requester blocks, then reads the first requester's plan as a
//! hit. The lock is global across keys — deliberate, because plan timing
//! measures wall-clock MTTKRP runs, and concurrent tuning jobs would
//! perturb each other's measurements.
//!
//! The compute lock also spans every save — of a computed plan and of an
//! [`PlanCache::insert`]ed one — which makes it the one serve lock held
//! across I/O (see `sync.rs`). A concurrent tuner for the same key must
//! find the saved plan, and two saves must not run at once: `AtomicFile`
//! writes through one fixed temp name per target (`<file>.tmp`), so
//! concurrent saves would share it, and one could rename the file the
//! other is still writing. The lock orders saves within one process only:
//! two *processes* sharing one plan file are still last-writer-wins, each
//! rewriting the whole file from its own plans.

use crate::json::Json;
use crate::sync::{Leveled, COMPUTE, PLANS};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tenblock_tensor::{TensorStats, NMODES};

/// Cache key: tensor shape fingerprint × decomposition rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`TensorStats::fingerprint`] of the tensor.
    pub fingerprint: u64,
    /// Rank the plan was tuned for.
    pub rank: usize,
}

impl PlanKey {
    /// Key for `stats` at `rank`.
    pub fn of(stats: &TensorStats, rank: usize) -> PlanKey {
        PlanKey {
            fingerprint: stats.fingerprint(),
            rank,
        }
    }
}

/// A memoized tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// Kernel kind the plan runs. The tuner writes `"mbrankb"`; older
    /// plans may say `"bcoo"`, another name for the same kernel. Files
    /// written before this field existed load as `"mbrankb"`, which was
    /// the only kernel the tuner could pick back then.
    pub kernel: String,
    /// Selected MB grid (kernel axes).
    pub grid: [usize; NMODES],
    /// Selected RankB strip width in columns.
    pub strip_width: usize,
    /// Best time observed when the plan was tuned, seconds per MTTKRP.
    pub best_secs: f64,
}

impl TunedPlan {
    fn to_json(&self, key: &PlanKey) -> Json {
        Json::obj([
            (
                "fingerprint",
                Json::str(format!("{:016x}", key.fingerprint)),
            ),
            ("rank", Json::usize(key.rank)),
            ("kernel", Json::str(self.kernel.clone())),
            (
                "grid",
                Json::Arr(self.grid.iter().map(|&g| Json::usize(g)).collect()),
            ),
            ("strip_width", Json::usize(self.strip_width)),
            ("best_secs", Json::num(self.best_secs)),
        ])
    }

    fn from_json(v: &Json) -> Option<(PlanKey, TunedPlan)> {
        let fingerprint = u64::from_str_radix(v.get_str("fingerprint")?, 16).ok()?;
        let rank = v.get_usize("rank")?;
        let kernel = v.get_str("kernel").unwrap_or("mbrankb").to_string();
        let grid_arr = match v.get("grid") {
            Some(Json::Arr(items)) if items.len() == NMODES => items,
            _ => return None,
        };
        let mut grid = [0usize; NMODES];
        for (g, item) in grid.iter_mut().zip(grid_arr) {
            match item {
                Json::Num(n) if *n >= 1.0 && n.fract() == 0.0 => *g = *n as usize,
                _ => return None,
            }
        }
        let strip_width = v.get_usize("strip_width").filter(|&w| w >= 1)?;
        let best_secs = v.get_num("best_secs").unwrap_or(0.0);
        Some((
            PlanKey { fingerprint, rank },
            TunedPlan {
                kernel,
                grid,
                strip_width,
                best_secs,
            },
        ))
    }
}

/// Thread-safe plan cache with optional JSON persistence.
#[derive(Debug)]
pub struct PlanCache {
    plans: Leveled<Mutex<HashMap<PlanKey, TunedPlan>>, PLANS>,
    /// Serializes plan computation and its save (see module docs).
    compute: Leveled<Mutex<()>, COMPUTE>,
    path: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Malformed entries skipped while loading the backing file.
    skipped: u64,
}

impl PlanCache {
    /// In-memory cache (no persistence).
    pub fn in_memory() -> PlanCache {
        PlanCache {
            plans: Leveled::new(Mutex::new(HashMap::new())),
            compute: Leveled::new(Mutex::new(())),
            path: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: 0,
        }
    }

    /// Cache backed by `path`. A missing file starts empty. A file that is
    /// not JSON, or lacks the `"plans"` array, is an error (the cache was
    /// replaced wholesale by something else — don't guess). A *malformed
    /// entry* inside an otherwise valid file is skipped and counted (see
    /// [`PlanCache::skipped`]): one bad record must not discard every good
    /// plan alongside it. Skips emit one structured warning on stderr.
    pub fn open(path: &Path) -> io::Result<PlanCache> {
        let mut cache = PlanCache::in_memory();
        cache.path = Some(path.to_path_buf());
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let doc = Json::parse(&text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let plans = match doc.get("plans") {
                    Some(Json::Arr(items)) => items,
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "plan cache file lacks a \"plans\" array",
                        ))
                    }
                };
                let mut map = HashMap::new();
                for item in plans {
                    match TunedPlan::from_json(item) {
                        Some((key, plan)) => {
                            map.insert(key, plan);
                        }
                        None => cache.skipped += 1,
                    }
                }
                if cache.skipped > 0 {
                    let warning = Json::obj([
                        ("warn", Json::str("plan-cache-skip")),
                        ("path", Json::str(path.display().to_string())),
                        ("skipped", Json::usize(cache.skipped as usize)),
                        ("loaded", Json::usize(map.len())),
                    ]);
                    eprintln!("{}", warning.to_string_compact());
                }
                *crate::sync::lock(&cache.plans) = map;
                Ok(cache)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(cache),
            Err(e) => Err(e),
        }
    }

    /// Malformed entries skipped when the backing file was loaded.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Raw lookup. Does not touch the hit/miss counters — use
    /// [`PlanCache::get_or_compute`] on serving paths.
    pub fn lookup(&self, key: PlanKey) -> Option<TunedPlan> {
        crate::sync::lock(&self.plans).get(&key).cloned()
    }

    /// Inserts (or replaces) a plan and persists if file-backed, under
    /// the compute lock (see the module doc).
    pub fn insert(&self, key: PlanKey, plan: TunedPlan) -> io::Result<()> {
        let _guard = crate::sync::lock(&self.compute);
        self.store(key, plan)
    }

    /// Inserts a plan and saves; the caller holds the compute lock.
    fn store(&self, key: PlanKey, plan: TunedPlan) -> io::Result<()> {
        crate::sync::lock(&self.plans).insert(key, plan);
        self.save()
    }

    /// Returns the cached plan for `key`, or computes, stores, and persists
    /// one with `compute`. The bool is `true` on a cache hit. Concurrent
    /// calls for the same key run `compute` once.
    pub fn get_or_compute<F: FnOnce() -> TunedPlan>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> io::Result<(TunedPlan, bool)> {
        match self.get_or_try_compute::<std::convert::Infallible, _>(key, || Ok(compute()))? {
            Ok(hit) => Ok(hit),
            Err(never) => match never {},
        }
    }

    /// [`PlanCache::get_or_compute`] with a fallible compute step: a compute
    /// error is passed through in the inner `Result` and nothing is cached
    /// (the next request for the key retries). The outer `Result` carries
    /// persistence failures. Counts a miss whenever `compute` runs, even if
    /// it fails — a failed tune still means the cache had no answer.
    pub fn get_or_try_compute<E, F: FnOnce() -> Result<TunedPlan, E>>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> io::Result<Result<(TunedPlan, bool), E>> {
        if let Some(plan) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Ok((plan, true)));
        }
        let _guard = crate::sync::lock(&self.compute);
        // Double-check: another thread may have tuned this key while we
        // waited on the compute lock.
        if let Some(plan) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Ok((plan, true)));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = match compute() {
            Ok(plan) => plan,
            Err(e) => return Ok(Err(e)),
        };
        // Saved under the compute lock this call already holds.
        self.store(key, plan.clone())?;
        Ok(Ok((plan, false)))
    }

    /// (hits, misses) since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        crate::sync::lock(&self.plans).len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the cache to its backing file (no-op when in-memory), with
    /// the compute lock held by the caller. Write-then-rename so a crash
    /// never leaves a half-written cache.
    fn save(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let doc = {
            let plans = crate::sync::lock(&self.plans);
            // BTreeMap keys sort, so sort entries for stable file output.
            let mut entries: Vec<_> = plans.iter().collect();
            entries.sort_by_key(|(k, _)| (k.fingerprint, k.rank));
            Json::obj([
                ("version", Json::usize(1)),
                (
                    "plans",
                    Json::Arr(entries.into_iter().map(|(k, p)| p.to_json(k)).collect()),
                ),
            ])
        };
        crate::sync::assert_unlocked();
        tenblock_tensor::atomic_write(path, (doc.to_string_compact() + "\n").as_bytes())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests plant corrupt and partial files on purpose"
)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenblock_plan_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan(g: usize) -> TunedPlan {
        TunedPlan {
            kernel: "mbrankb".to_string(),
            grid: [g, 2, 1],
            strip_width: 16,
            best_secs: 0.25,
        }
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = PlanCache::in_memory();
        let key = PlanKey {
            fingerprint: 0xabc,
            rank: 16,
        };
        let mut computed = 0;
        let (p1, hit1) = cache
            .get_or_compute(key, || {
                computed += 1;
                plan(4)
            })
            .unwrap();
        let (p2, hit2) = cache
            .get_or_compute(key, || {
                computed += 1;
                plan(8)
            })
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(computed, 1);
        assert_eq!(p1, p2);
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn persists_and_reloads() {
        let path = tmpdir().join("plans_roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let cache = PlanCache::open(&path).unwrap();
        cache
            .insert(
                PlanKey {
                    fingerprint: u64::MAX,
                    rank: 32,
                },
                plan(2),
            )
            .unwrap();
        cache
            .insert(
                PlanKey {
                    fingerprint: 7,
                    rank: 8,
                },
                plan(16),
            )
            .unwrap();

        let reloaded = PlanCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.lookup(PlanKey {
                fingerprint: u64::MAX,
                rank: 32
            }),
            Some(plan(2)),
            "u64::MAX fingerprint survives the hex round-trip"
        );
        assert_eq!(
            reloaded.lookup(PlanKey {
                fingerprint: 7,
                rank: 8
            }),
            Some(plan(16))
        );
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let path = tmpdir().join("plans_partial.json");
        // One good entry, one with a zero grid axis, one missing its rank.
        std::fs::write(
            &path,
            concat!(
                r#"{"version":1,"plans":["#,
                r#"{"fingerprint":"00000000000000ab","rank":16,"grid":[2,2,1],"strip_width":16,"best_secs":0.5},"#,
                r#"{"fingerprint":"00000000000000cd","rank":8,"grid":[0,2,1],"strip_width":16,"best_secs":0.5},"#,
                r#"{"fingerprint":"00000000000000ef","grid":[2,2,1],"strip_width":16,"best_secs":0.5}"#,
                r#"]}"#,
            ),
        )
        .unwrap();
        let cache = PlanCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1, "the good entry survives");
        assert_eq!(cache.skipped(), 2);
        let loaded = cache
            .lookup(PlanKey {
                fingerprint: 0xab,
                rank: 16,
            })
            .unwrap();
        assert_eq!(
            loaded.kernel, "mbrankb",
            "pre-kernel-field entries load with the historical default"
        );
    }

    #[test]
    fn kernel_kind_round_trips() {
        let path = tmpdir().join("plans_kernel.json");
        let _ = std::fs::remove_file(&path);
        let cache = PlanCache::open(&path).unwrap();
        let key = PlanKey {
            fingerprint: 0x1234,
            rank: 16,
        };
        let mut p = plan(4);
        p.kernel = "bcoo".to_string();
        cache.insert(key, p.clone()).unwrap();
        let reloaded = PlanCache::open(&path).unwrap();
        assert_eq!(reloaded.lookup(key), Some(p));
    }

    #[test]
    fn failed_compute_caches_nothing_and_retries() {
        let cache = PlanCache::in_memory();
        let key = PlanKey {
            fingerprint: 1,
            rank: 4,
        };
        let r = cache
            .get_or_try_compute::<&str, _>(key, || Err("tensor too degenerate"))
            .unwrap();
        assert_eq!(r, Err("tensor too degenerate"));
        assert!(
            cache.is_empty(),
            "a failed compute must not poison the cache"
        );
        // The key is still computable afterwards.
        let (p, hit) = cache.get_or_compute(key, || plan(4)).unwrap();
        assert!(!hit);
        assert_eq!(p, plan(4));
        assert_eq!(cache.counters(), (0, 2), "both computes count as misses");
    }

    #[test]
    fn corrupt_file_is_an_error() {
        let path = tmpdir().join("plans_corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(PlanCache::open(&path).is_err());
        std::fs::write(&path, r#"{"version":1}"#).unwrap();
        assert!(PlanCache::open(&path).is_err(), "missing plans array");
    }

    /// Concurrent inserts each save the whole cache through the one
    /// `<file>.tmp`: every save must finish before the next starts.
    #[test]
    fn concurrent_inserts_all_save_and_all_load() {
        let path = tmpdir().join("plans_concurrent_inserts.json");
        let _ = std::fs::remove_file(&path);
        let cache = PlanCache::open(&path).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = &cache;
                s.spawn(move || {
                    for n in 0..25 {
                        let key = PlanKey {
                            fingerprint: t,
                            rank: n,
                        };
                        cache.insert(key, plan(1 + n)).unwrap();
                    }
                });
            }
        });
        let reopened = PlanCache::open(&path).unwrap();
        assert_eq!(reopened.len(), 200);
        assert_eq!(reopened.skipped(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_starts_empty() {
        let path = tmpdir().join("plans_missing_never_created.json");
        let _ = std::fs::remove_file(&path);
        let cache = PlanCache::open(&path).unwrap();
        assert!(cache.is_empty());
    }
}

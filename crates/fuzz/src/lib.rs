//! # tenblock-fuzz
//!
//! Zero-dependency, deterministic, structure-aware fuzzing for the
//! workspace's input boundary. Two coordinated stages per seed:
//!
//! 1. **Differential stage** — an adversarial [`CooTensor`] (empty
//!    tensors, single-slice/single-fiber shapes, all-duplicate
//!    coordinates, hyper-sparse long-tail dimensions, clustered dense
//!    blocks, ranks straddling the register block) runs through the
//!    layout derivation (the seed's grid derived from the unblocked
//!    layout must equal the sort into it), all seven MTTKRP kernel
//!    kinds, the block-size tuner, the streaming
//!    driver over a source that serves one tile in another order or lies
//!    about its spans, and (sampled) the distributed executors. Results
//!    are cross-checked against the dense reference and the
//!    `tenblock_core::check` oracles; invalid requests must come back as typed
//!    errors ([`tenblock_core::KernelError`], [`tenblock_core::TuneError`]).
//! 2. **Parse stage** — a mutated `.tns` byte stream (non-finite values,
//!    zero/overflowing/near-`Idx::MAX` coordinates, truncations, trailing
//!    fields, non-UTF-8 bytes) goes through `read_tns`, which must return
//!    `Ok` or a typed `TnsError` — never panic — and must return the same
//!    through a reader that hands out a few bytes per call (a
//!    `tns-short-read` finding otherwise). Accepted mutants small
//!    enough to allocate factors for are fed back into stage 1. A second
//!    mutator targets the `.tnsb` tile framing (truncated tile tables,
//!    lying per-tile lengths, overlapping byte extents, out-of-range
//!    cells and locals): `TileStore::validate_bytes` must likewise fail
//!    typed, never panic. A `.tnsb` whose header says version 1 (a flat
//!    COO payload) goes to `io_bin::read_bin` instead, under the same
//!    rule.
//!
//! Every violation becomes a [`Finding`] carrying a delta-debugged
//! (entry-minimized) `.tns` repro. The whole run is reproduced by its
//! base seed; there is no global state, no wall-clock dependence, and no
//! external crate.
//!
//! [`CooTensor`]: tenblock_tensor::CooTensor

#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod rng;

pub use diff::minimize_entries;
pub use gen::{arb_case, mutant_tns, mutant_tnsb, render_tns, FuzzCase, RANKS};
pub use rng::FuzzRng;

use std::path::{Path, PathBuf};
use tenblock_tensor::io::{read_tns, TnsError};
use tenblock_tensor::CooTensor;

/// Fuzzing run parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of seeds (cases) to run.
    pub seeds: u64,
    /// Base seed; seed `n` of the run derives from `base_seed + n`.
    pub base_seed: u64,
    /// Optional corpus directory: existing `.tns` files in it are replayed
    /// through the parse + differential stages and `.tnsb` files through
    /// the reader their header's version names (the v1 COO decoder or the
    /// tile-framing validator); repro files for any findings are written
    /// back into it.
    pub corpus: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seeds: 200,
            base_seed: 0x7eb0,
            corpus: None,
        }
    }
}

/// One fuzzing violation: a panic that escaped the typed-error boundary, a
/// kernel/reference divergence, or an oracle failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Seed of the case that produced the finding.
    pub seed: u64,
    /// Generator class and failing component, e.g. `hyper-sparse/Mb`.
    pub case: String,
    /// What went wrong.
    pub detail: String,
    /// Minimized repro (`.tns` text with a request-parameter header), when
    /// one could be produced.
    pub repro: Option<String>,
    /// Binary repro (`.tnsb` tile-framing bytes), for findings from the
    /// binary parse stage where text cannot express the malformation.
    pub repro_bin: Option<Vec<u8>>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[seed {:#x}] {}: {}", self.seed, self.case, self.detail)?;
        if let Some(repro) = &self.repro {
            for line in repro.lines() {
                write!(f, "\n    {line}")?;
            }
        }
        if let Some(bin) = &self.repro_bin {
            write!(f, "\n    <{} bytes of .tnsb repro>", bin.len())?;
        }
        Ok(())
    }
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Differential tensor cases generated.
    pub tensor_cases: u64,
    /// Mutated `.tns` streams parsed.
    pub parse_cases: u64,
    /// Mutants the parser accepted.
    pub parse_accepted: u64,
    /// Mutants the parser rejected with a typed error.
    pub parse_rejected: u64,
    /// Mutated `.tnsb` tile-framing streams validated.
    pub tnsb_cases: u64,
    /// Tile-framing mutants the validator accepted.
    pub tnsb_accepted: u64,
    /// Tile-framing mutants the validator rejected with a typed error.
    pub tnsb_rejected: u64,
    /// Fault-injected `create_from_coo` runs (store published or typed
    /// error; never a panic or a half-written store).
    pub fault_runs: u64,
    /// Tuner differential runs.
    pub tuner_runs: u64,
    /// Distributed-executor differential runs.
    pub dist_runs: u64,
    /// Streaming runs over a source that serves one tile wrong.
    pub source_runs: u64,
    /// Corpus files replayed.
    pub corpus_replayed: u64,
    /// Every violation found.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Whether the run found nothing (the expected steady state).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fuzz: {} seed(s), {} tensor case(s), {} parse case(s) \
             ({} accepted / {} rejected)",
            self.seeds_run,
            self.tensor_cases,
            self.parse_cases,
            self.parse_accepted,
            self.parse_rejected
        )?;
        writeln!(
            f,
            "      {} tnsb case(s) ({} accepted / {} rejected)",
            self.tnsb_cases, self.tnsb_accepted, self.tnsb_rejected
        )?;
        writeln!(
            f,
            "      {} tuner run(s), {} dist run(s), {} source run(s), {} fault run(s), \
             {} corpus file(s) replayed",
            self.tuner_runs,
            self.dist_runs,
            self.source_runs,
            self.fault_runs,
            self.corpus_replayed
        )?;
        if self.findings.is_empty() {
            write!(f, "      no findings")
        } else {
            write!(f, "      {} FINDING(S):", self.findings.len())?;
            for finding in &self.findings {
                write!(f, "\n{finding}")?;
            }
            Ok(())
        }
    }
}

/// Runs the fuzzer. Deterministic in `opts`; panics inside the exercised
/// code are caught (with a silenced panic hook) and reported as findings.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport::default();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    if let Some(dir) = &opts.corpus {
        replay_corpus(dir, &mut report);
    }
    for n in 0..opts.seeds {
        let seed = opts
            .base_seed
            .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        run_seed(seed, &mut report);
        report.seeds_run += 1;
    }

    std::panic::set_hook(hook);
    if let Some(dir) = &opts.corpus {
        write_repros(dir, &report);
    }
    report
}

/// One seed: generate, run the differential stage, then the parse stage.
fn run_seed(seed: u64, report: &mut FuzzReport) {
    let mut rng = FuzzRng::new(seed);
    let case = gen::arb_case(&mut rng);
    report.tensor_cases += 1;
    collect(report, seed, diff::check_kernels(&case, &mut rng));
    collect(report, seed, diff::check_invalid_configs(&case, &mut rng));
    collect(report, seed, diff::check_tuner(&case, &mut rng));
    report.tuner_runs += 1;
    if rng.below(4) == 0 {
        collect(report, seed, diff::check_dist(&case, &mut rng));
        report.dist_runs += 1;
    }
    collect(report, seed, diff::check_source(&case, &mut rng));
    report.source_runs += 1;

    let (label, bytes) = gen::mutant_tns(&mut rng);
    report.parse_cases += 1;
    parse_stage(label, &bytes, seed, &mut rng, report);

    let (label, bytes) = gen::mutant_tnsb(&mut rng);
    report.tnsb_cases += 1;
    tnsb_stage(label, &bytes, seed, report);

    if rng.below(4) == 0 {
        fault_stage(&case, seed, &mut rng, report);
        report.fault_runs += 1;
    }
}

/// Fault stage: `TileStore::create_from_coo_with` under one randomly
/// drawn I/O fault (site × action × trigger) must publish a decodable
/// store or fail with a typed error — never panic, and never leave a
/// half-written file visible at the final path. The byte-flip action is
/// exempt from decodability (the payload is unchecksummed by design).
fn fault_stage(case: &FuzzCase, seed: u64, rng: &mut FuzzRng, report: &mut FuzzReport) {
    use tenblock_faults::{FaultAction, FaultOp, FaultPolicy, Trigger};
    if case.coo.nnz() == 0 {
        return;
    }
    let op = *rng.pick(&[FaultOp::Write, FaultOp::Sync, FaultOp::Rename]);
    let (action, flip) = *rng.pick(&[
        (FaultAction::Errno(5), false),
        (FaultAction::Errno(28), false),
        (FaultAction::ShortRead, false),
        (FaultAction::FlipByte, true),
        (FaultAction::Crash, false),
    ]);
    let trigger = if rng.below(2) == 0 {
        Trigger::Nth(rng.below(16) as u64)
    } else {
        Trigger::EveryNth(1 + rng.below(5) as u64)
    };
    let dir =
        std::env::temp_dir().join(format!("tenblock_fuzz_fault_{}_{seed}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join("store.tnsb");
    let policy = FaultPolicy::new(op, action, trigger, seed);
    let outcome = diff::catch(|| {
        tenblock_tensor::TileStore::create_from_coo_with(&case.coo, [2, 2, 2], &path, policy)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let mut fail = |detail: String| {
        report.findings.push(Finding {
            seed,
            case: format!("fault/{}/{op:?}-{action:?}-{trigger:?}", case.label),
            detail,
            repro: None,
            repro_bin: None,
        });
    };
    match outcome {
        Err(p) => fail(format!("create_from_coo_with panicked: {p}")),
        Ok(_) => {
            if path.exists() && !flip {
                if let Err(e) = tenblock_tensor::TileStore::open(&path).and_then(|s| s.to_coo()) {
                    fail(format!("half-written store visible after fault: {e}"));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Binary parse-stage check, routed by the header's version field: a
/// version-1 COO payload goes through `io_bin::read_bin`, anything else
/// through `TileStore::validate_bytes` (truncated tables, lying lengths,
/// overlapping extents). Either must return `Ok` or a typed
/// [`tenblock_tensor::io_bin::BinError`] and never panic. There is no size
/// guard: each reader's own bound on what a header can make it allocate is
/// itself under test.
fn tnsb_stage(label: &'static str, bytes: &[u8], seed: u64, report: &mut FuzzReport) {
    use tenblock_tensor::io_bin::{read_bin, VERSION_COO};
    let v1 = bytes.get(4..8) == Some(VERSION_COO.to_le_bytes().as_slice());
    let (reader, outcome) = if v1 {
        ("read_bin", diff::catch(|| read_bin(bytes).map(drop)))
    } else {
        (
            "validate_bytes",
            diff::catch(|| tenblock_tensor::TileStore::validate_bytes(bytes)),
        )
    };
    match outcome {
        Err(p) => report.findings.push(Finding {
            seed,
            case: format!("tnsb/{label}"),
            detail: format!("{reader} panicked: {p}"),
            repro: None,
            repro_bin: Some(bytes.to_vec()),
        }),
        Ok(Ok(())) => report.tnsb_accepted += 1,
        Ok(Err(_)) => report.tnsb_rejected += 1,
    }
}

/// Parse-stage check: `read_tns` must not panic, and the same bytes read
/// through a reader that hands out 1 to 7 bytes per call must give the
/// same tensor, bit for bit, or the same error; accepted tensors small
/// enough to allocate factor matrices for go back through the kernels.
/// (The size guard is what keeps near-`Idx::MAX` coordinates confined to
/// the parse stage: a 4-billion-row factor matrix is an OOM, not a bug.)
fn parse_stage(
    label: &'static str,
    bytes: &[u8],
    seed: u64,
    rng: &mut FuzzRng,
    report: &mut FuzzReport,
) {
    let parsed = match diff::catch(|| read_tns(bytes)) {
        Err(p) => {
            report.findings.push(Finding {
                seed,
                case: format!("tns/{label}"),
                detail: format!("read_tns panicked: {p}"),
                repro: Some(String::from_utf8_lossy(bytes).into_owned()),
                repro_bin: None,
            });
            return;
        }
        Ok(parsed) => parsed,
    };
    if let Some(detail) = short_read_disagreement(bytes, &parsed) {
        let repro = minimize_lines(bytes, &|b| {
            diff::catch(|| read_tns(b)).is_ok_and(|p| short_read_disagreement(b, &p).is_some())
        });
        report.findings.push(Finding {
            seed,
            case: format!("tns-short-read/{label}"),
            detail,
            repro: Some(String::from_utf8_lossy(&repro).into_owned()),
            repro_bin: None,
        });
    }
    match parsed {
        Ok(t) => {
            report.parse_accepted += 1;
            if t.dims().iter().all(|&d| d <= 4096) && t.nnz() <= 2000 {
                let case = FuzzCase {
                    label: "tns-accepted",
                    coo: t,
                    rank: *rng.pick(&RANKS[1..]),
                };
                collect(report, seed, diff::check_kernels(&case, rng));
            }
        }
        Err(_) => report.parse_rejected += 1,
    }
}

/// A reader handing out its bytes 1 to 7 at a time.
struct ShortReads<'a> {
    data: &'a [u8],
    calls: usize,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let n = (1 + self.calls % 7).min(out.len()).min(self.data.len());
        let (head, tail) = self.data.split_at(n);
        out[..n].copy_from_slice(head);
        self.data = tail;
        Ok(n)
    }
}

/// How `bytes` read through [`ShortReads`] differs from `whole`, the
/// result of reading them at once: `None` for the same tensor (dims,
/// coordinates and value bits) or the same error message.
fn short_read_disagreement(bytes: &[u8], whole: &Result<CooTensor, TnsError>) -> Option<String> {
    let short = match diff::catch(|| {
        read_tns(ShortReads {
            data: bytes,
            calls: 0,
        })
    }) {
        Ok(short) => short,
        Err(p) => return Some(format!("read_tns over short reads panicked: {p}")),
    };
    let same = match (whole, &short) {
        (Ok(a), Ok(b)) => {
            a.dims() == b.dims()
                && a.nnz() == b.nnz()
                && a.entries()
                    .iter()
                    .zip(b.entries())
                    .all(|(x, y)| x.idx == y.idx && x.val.to_bits() == y.val.to_bits())
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    };
    let show = |r: &Result<CooTensor, TnsError>| match r {
        Ok(t) => format!("Ok(dims {:?}, nnz {})", t.dims(), t.nnz()),
        Err(e) => format!("Err({e})"),
    };
    (!same).then(|| {
        format!(
            "short reads disagree with one read: {} vs {}",
            show(&short),
            show(whole)
        )
    })
}

/// Greedy delta-debugging over the lines of `bytes`: repeatedly drops
/// runs of lines while `fails` still holds.
fn minimize_lines(bytes: &[u8], fails: &dyn Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let mut chunk = (lines.len() / 2).max(1);
    while !lines.is_empty() {
        let mut shrunk = false;
        let mut i = 0;
        while i < lines.len() {
            let end = (i + chunk).min(lines.len());
            let mut cand = lines.clone();
            cand.drain(i..end);
            if fails(&cand.concat()) {
                lines = cand;
                shrunk = true;
            } else {
                i = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    lines.concat()
}

/// Stamps the seed onto stage findings and appends them.
fn collect(report: &mut FuzzReport, seed: u64, mut findings: Vec<Finding>) {
    for f in &mut findings {
        f.seed = seed;
    }
    report.findings.append(&mut findings);
}

/// Replays every `.tns` file in `dir` through the parse stage (and the
/// differential stage when small enough), and every `.tnsb` file through
/// the binary stage. Unreadable directories are
/// reported as findings rather than errors: a fuzz run should always
/// produce a report.
fn replay_corpus(dir: &Path, report: &mut FuzzReport) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            report.findings.push(Finding {
                seed: 0,
                case: "corpus".to_string(),
                detail: format!("cannot read corpus dir {}: {e}", dir.display()),
                repro: None,
                repro_bin: None,
            });
            return;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("tns") | Some("tnsb")
            )
        })
        .collect();
    paths.sort();
    for path in paths {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        report.corpus_replayed += 1;
        // Corpus files replay with a seed derived from their byte content,
        // so a repro file keeps exercising the same downstream choices.
        let seed = bytes
            .iter()
            .fold(0xc0f5u64, |h, &b| h.wrapping_mul(31).wrapping_add(b as u64));
        if path.extension().and_then(|x| x.to_str()) == Some("tnsb") {
            report.tnsb_cases += 1;
            tnsb_stage("corpus", &bytes, seed, report);
        } else {
            let mut rng = FuzzRng::new(seed);
            report.parse_cases += 1;
            parse_stage("corpus", &bytes, seed, &mut rng, report);
        }
    }
}

/// Writes each finding's repro into the corpus directory for replay.
fn write_repros(dir: &Path, report: &FuzzReport) {
    if report.findings.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(dir);
    for (n, f) in report.findings.iter().enumerate() {
        if let Some(repro) = &f.repro {
            let path = dir.join(format!("repro-{:016x}-{n}.tns", f.seed));
            let _ = std::fs::write(path, repro);
        }
        if let Some(bin) = &f.repro_bin {
            let path = dir.join(format!("repro-{:016x}-{n}.tnsb", f.seed));
            let _ = std::fs::write(path, bin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_counts() {
        let report = run(&FuzzOptions {
            seeds: 30,
            base_seed: 0x5eed,
            corpus: None,
        });
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.seeds_run, 30);
        assert_eq!(report.tensor_cases, 30);
        assert_eq!(report.parse_cases, 30);
        assert_eq!(report.parse_accepted + report.parse_rejected, 30);
        assert_eq!(report.tnsb_cases, 30);
        assert_eq!(report.tnsb_accepted + report.tnsb_rejected, 30);
        // Nearly every framing mutation is a precise malformation the
        // validator must catch; only bit flips may land in value bytes.
        assert!(report.tnsb_rejected > report.tnsb_accepted);
        assert!(report.tuner_runs > 0);
        assert_eq!(report.source_runs, 30);
        assert!(report.to_string().contains("no findings"));
    }

    #[test]
    fn runs_are_reproducible() {
        let opts = FuzzOptions {
            seeds: 10,
            base_seed: 7,
            corpus: None,
        };
        let a = run(&opts);
        let b = run(&opts);
        assert_eq!(a.parse_accepted, b.parse_accepted);
        assert_eq!(a.parse_rejected, b.parse_rejected);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn corpus_files_are_replayed() {
        let dir = std::env::temp_dir().join(format!("tenblock_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.tns"), "1 1 1 2.0\n2 2 2 -1.5\n").unwrap();
        std::fs::write(dir.join("bad.tns"), "1 1 1 nan\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a tensor").unwrap();
        let report = run(&FuzzOptions {
            seeds: 1,
            base_seed: 1,
            corpus: Some(dir.clone()),
        });
        assert_eq!(report.corpus_replayed, 2);
        assert!(report.is_clean(), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn minimizer_shrinks_to_the_essential_entry() {
        let mut rng = FuzzRng::new(44);
        let dims = [8, 8, 8];
        let mut entries: Vec<tenblock_tensor::Entry> = (0..50u32)
            .map(|n| tenblock_tensor::Entry {
                idx: [rng.below(8) as u32, rng.below(8) as u32, n % 8],
                val: 0.25,
            })
            .collect();
        entries.push(tenblock_tensor::Entry {
            idx: [7, 7, 7],
            val: 9.0,
        });
        let coo = CooTensor::from_entries(dims, entries);
        let small = minimize_entries(&coo, &|t| t.entries().iter().any(|e| e.val > 5.0));
        assert_eq!(small.nnz(), 1);
        assert_eq!(small.entries()[0].val, 9.0);
    }
}

//! Deterministic fault injection for tenblock's disk touchpoints.
//!
//! Every out-of-core path (tile stores, serve spill, plan cache, bench
//! records) threads a [`FaultPolicy`] through its reads, writes, renames,
//! and syncs. The default policy is a no-op costing one `Option` check
//! per operation; a seeded policy makes a chosen operation class fail
//! with a chosen errno, deliver a short read, flip a byte, or simulate a
//! process crash (everything after the trigger point fails, and cleanup
//! that a dead process could not have run is skipped) at the Nth
//! matching operation. Equal seeds and triggers reproduce the exact same
//! failure, the same way `crates/fuzz` reproduces a case from its seed —
//! `tenblock chaos` drives a pinned matrix of these policies and asserts
//! recovery.
//!
//! The crate is zero-dependency and knows nothing about tensors: it
//! decides *what happens to an I/O operation*, and the callers own how
//! to apply that decision to their file handles.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The operation classes a policy can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Reading payload bytes from an existing file.
    Read,
    /// Writing payload bytes to a file.
    Write,
    /// Renaming a file (the commit point of an atomic write).
    Rename,
    /// `sync_all` on a file or directory handle.
    Sync,
}

impl FaultOp {
    /// Stable name used by the chaos matrix and scenario reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Rename => "rename",
            FaultOp::Sync => "sync",
        }
    }
}

/// What happens when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with this raw OS errno (e.g. 5 = `EIO`,
    /// 28 = `ENOSPC`, 4 = `EINTR`).
    Errno(i32),
    /// Deliver only a seeded prefix of the requested bytes. Readers see
    /// the `UnexpectedEof` a truncated file would produce; writers
    /// accept a partial chunk (their `write_all` loop continues).
    ShortRead,
    /// Corrupt one byte at a seeded offset within the buffer.
    FlipByte,
    /// Simulate a crash: a seeded prefix of the triggering write lands,
    /// then every subsequent operation fails and [`FaultPolicy::crashed`]
    /// reports `true` so callers skip cleanup a dead process could not
    /// have run.
    Crash,
}

impl FaultAction {
    /// Stable name used by the chaos matrix and scenario reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Errno(_) => "errno",
            FaultAction::ShortRead => "short-read",
            FaultAction::FlipByte => "flip-byte",
            FaultAction::Crash => "crash",
        }
    }
}

/// When the fault fires, counted over operations matching the policy's
/// [`FaultOp`] (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly at matching operation `n`.
    Nth(u64),
    /// Fire at every `n`th matching operation (`n >= 1`).
    EveryNth(u64),
}

/// The decision for one I/O operation. Callers apply it to their own
/// file handle.
#[derive(Debug)]
pub enum IoOutcome {
    /// Perform the operation normally.
    Ok,
    /// Deliver/accept only the first `n` bytes (`n < len`).
    Short(usize),
    /// Perform the operation but flip the byte at this buffer offset.
    Corrupt(usize),
    /// Fail with this error without touching the file.
    Err(std::io::Error),
}

#[derive(Debug)]
struct Inner {
    op: FaultOp,
    action: FaultAction,
    trigger: Trigger,
    /// `Some(k)`: the fault heals after firing `k` times (transient);
    /// `None`: it fires forever once (or whenever) triggered.
    heals_after: Option<u64>,
    seed: u64,
    /// Matching operations observed so far.
    counter: AtomicU64,
    /// Faults actually fired so far.
    fired: AtomicU64,
    crashed: AtomicBool,
}

/// A seeded, deterministic fault policy. Cheap to clone (an `Arc`);
/// [`FaultPolicy::none`] is a no-op and allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy(Option<Arc<Inner>>);

impl FaultPolicy {
    /// The no-op policy: every operation proceeds normally.
    pub fn none() -> Self {
        FaultPolicy(None)
    }

    /// A permanent fault: once `trigger` fires, `action` applies (and for
    /// [`Trigger::Nth`] keeps applying only at that one operation;
    /// [`FaultAction::Crash`] always persists).
    pub fn new(op: FaultOp, action: FaultAction, trigger: Trigger, seed: u64) -> Self {
        FaultPolicy(Some(Arc::new(Inner {
            op,
            action,
            trigger,
            heals_after: None,
            seed,
            counter: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })))
    }

    /// A transient fault: fires at most `heals_after` times, then the
    /// site behaves normally — the shape a retry loop must survive.
    pub fn transient(
        op: FaultOp,
        action: FaultAction,
        trigger: Trigger,
        seed: u64,
        heals_after: u64,
    ) -> Self {
        FaultPolicy(Some(Arc::new(Inner {
            op,
            action,
            trigger,
            heals_after: Some(heals_after),
            seed,
            counter: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })))
    }

    /// Whether this is the allocation-free no-op policy.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Whether a simulated crash has occurred. Callers skip temp-file
    /// cleanup when true — a dead process could not have run it.
    pub fn crashed(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|i| i.crashed.load(Ordering::Acquire))
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.fired.load(Ordering::Relaxed))
    }

    /// Decides the fate of one operation of class `op` touching `len`
    /// bytes (0 for renames/syncs). Deterministic in (seed, operation
    /// index); thread-safe.
    pub fn before(&self, op: FaultOp, len: usize) -> IoOutcome {
        let Some(inner) = self.0.as_ref() else {
            return IoOutcome::Ok;
        };
        if inner.crashed.load(Ordering::Acquire) {
            return IoOutcome::Err(crash_error());
        }
        if op != inner.op {
            return IoOutcome::Ok;
        }
        let n = inner.counter.fetch_add(1, Ordering::AcqRel);
        let fires = match inner.trigger {
            Trigger::Nth(at) => n == at,
            Trigger::EveryNth(every) => every > 0 && (n + 1) % every == 0,
        };
        if !fires {
            return IoOutcome::Ok;
        }
        if let Some(budget) = inner.heals_after {
            if inner.fired.load(Ordering::Acquire) >= budget {
                return IoOutcome::Ok; // healed
            }
        }
        inner.fired.fetch_add(1, Ordering::AcqRel);
        let draw = splitmix64(inner.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match inner.action {
            FaultAction::Errno(errno) => IoOutcome::Err(std::io::Error::from_raw_os_error(errno)),
            FaultAction::ShortRead => {
                if len == 0 {
                    IoOutcome::Err(crash_error())
                } else {
                    IoOutcome::Short((draw % len as u64) as usize)
                }
            }
            FaultAction::FlipByte => {
                if len == 0 {
                    IoOutcome::Err(crash_error())
                } else {
                    IoOutcome::Corrupt((draw % len as u64) as usize)
                }
            }
            FaultAction::Crash => {
                inner.crashed.store(true, Ordering::Release);
                if op == FaultOp::Write && len > 0 {
                    // A seeded prefix of the triggering write lands, then
                    // the "process" is gone.
                    IoOutcome::Short((draw % len as u64) as usize)
                } else {
                    IoOutcome::Err(crash_error())
                }
            }
        }
    }
}

/// The error a simulated crash produces for operations after the
/// trigger point.
pub fn crash_error() -> std::io::Error {
    std::io::Error::other("simulated crash (fault injection)")
}

/// Whether an I/O error is worth retrying: interrupted/timed-out
/// syscalls, not corrupt data or missing files. The shared
/// classification for every retry loop in the workspace.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    ) || matches!(
        e.raw_os_error(),
        Some(4 /* EINTR */) | Some(11 /* EAGAIN */)
    )
}

/// Capped exponential backoff with seeded jitter: delay for attempt `k`
/// is uniform in `[0, min(base << k, cap)]`, so equal seeds replay the
/// same schedule. Yields `None` once `max_retries` attempts are spent.
#[derive(Debug, Clone)]
pub struct Backoff {
    state: u64,
    base: Duration,
    cap: Duration,
    attempt: u32,
    max_retries: u32,
}

impl Backoff {
    /// A seeded schedule of at most `max_retries` delays.
    pub fn new(seed: u64, max_retries: u32, base: Duration, cap: Duration) -> Self {
        Backoff {
            state: seed,
            base,
            cap,
            attempt: 0,
            max_retries,
        }
    }

    /// The sensible default for disk retries: 3 attempts, 1 ms base,
    /// 50 ms cap.
    pub fn for_io(seed: u64) -> Self {
        Backoff::new(seed, 3, Duration::from_millis(1), Duration::from_millis(50))
    }

    /// Next jittered delay, or `None` when the retry budget is spent.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_retries {
            return None;
        }
        let ceiling = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt += 1;
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let draw = splitmix64(self.state);
        let nanos = ceiling.as_nanos().max(1) as u64;
        Some(Duration::from_nanos(draw % nanos))
    }

    /// Attempts spent so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// One SplitMix64 output for `x` (the same mixer as `crates/fuzz`).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_policy_never_interferes() {
        let p = FaultPolicy::none();
        assert!(p.is_noop());
        for op in [
            FaultOp::Read,
            FaultOp::Write,
            FaultOp::Rename,
            FaultOp::Sync,
        ] {
            assert!(matches!(p.before(op, 100), IoOutcome::Ok));
        }
        assert!(!p.crashed());
        assert_eq!(p.fired(), 0);
    }

    #[test]
    fn nth_trigger_fires_once_at_the_right_op() {
        let p = FaultPolicy::new(FaultOp::Write, FaultAction::Errno(5), Trigger::Nth(2), 7);
        assert!(matches!(p.before(FaultOp::Write, 10), IoOutcome::Ok));
        // Non-matching ops don't advance the counter.
        assert!(matches!(p.before(FaultOp::Read, 10), IoOutcome::Ok));
        assert!(matches!(p.before(FaultOp::Write, 10), IoOutcome::Ok));
        match p.before(FaultOp::Write, 10) {
            IoOutcome::Err(e) => assert_eq!(e.raw_os_error(), Some(5)),
            other => panic!("expected errno, got {other:?}"),
        }
        assert!(matches!(p.before(FaultOp::Write, 10), IoOutcome::Ok));
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn every_nth_keeps_firing_until_healed() {
        let p = FaultPolicy::transient(
            FaultOp::Read,
            FaultAction::Errno(4),
            Trigger::EveryNth(2),
            1,
            2,
        );
        let mut errs = 0;
        for _ in 0..10 {
            if let IoOutcome::Err(e) = p.before(FaultOp::Read, 8) {
                assert!(is_transient(&e));
                errs += 1;
            }
        }
        assert_eq!(errs, 2, "fault heals after its budget");
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn short_and_flip_are_seeded_and_bounded() {
        for seed in [1u64, 2, 99] {
            let mk = |action| FaultPolicy::new(FaultOp::Read, action, Trigger::Nth(0), seed);
            let a = mk(FaultAction::ShortRead);
            let b = mk(FaultAction::ShortRead);
            match (a.before(FaultOp::Read, 64), b.before(FaultOp::Read, 64)) {
                (IoOutcome::Short(x), IoOutcome::Short(y)) => {
                    assert_eq!(x, y, "same seed, same cut");
                    assert!(x < 64);
                }
                other => panic!("expected short reads, got {other:?}"),
            }
            let c = mk(FaultAction::FlipByte);
            match c.before(FaultOp::Read, 64) {
                IoOutcome::Corrupt(off) => assert!(off < 64),
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_poisons_everything_after_the_trigger() {
        let p = FaultPolicy::new(FaultOp::Write, FaultAction::Crash, Trigger::Nth(1), 3);
        assert!(matches!(p.before(FaultOp::Write, 16), IoOutcome::Ok));
        assert!(matches!(p.before(FaultOp::Write, 16), IoOutcome::Short(_)));
        assert!(p.crashed());
        for op in [
            FaultOp::Read,
            FaultOp::Write,
            FaultOp::Rename,
            FaultOp::Sync,
        ] {
            assert!(matches!(p.before(op, 16), IoOutcome::Err(_)));
        }
    }

    #[test]
    fn crash_on_rename_fails_before_the_commit_point() {
        let p = FaultPolicy::new(FaultOp::Rename, FaultAction::Crash, Trigger::Nth(0), 3);
        assert!(matches!(p.before(FaultOp::Write, 16), IoOutcome::Ok));
        assert!(matches!(p.before(FaultOp::Rename, 0), IoOutcome::Err(_)));
        assert!(p.crashed());
    }

    #[test]
    fn backoff_is_seeded_capped_and_bounded() {
        let schedule = |seed| {
            let mut b = Backoff::new(seed, 5, Duration::from_millis(1), Duration::from_millis(8));
            let mut out = Vec::new();
            while let Some(d) = b.next_delay() {
                out.push(d);
            }
            out
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "equal seeds replay the same schedule");
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|d| *d <= Duration::from_millis(8)));
        assert_ne!(a, schedule(43));
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&std::io::Error::from_raw_os_error(4)));
        assert!(is_transient(&std::io::Error::from_raw_os_error(11)));
        assert!(is_transient(&std::io::Error::from(
            std::io::ErrorKind::TimedOut
        )));
        assert!(!is_transient(&std::io::Error::from_raw_os_error(5)));
        assert!(!is_transient(&std::io::Error::from_raw_os_error(28)));
        assert!(!is_transient(&crash_error()));
    }
}

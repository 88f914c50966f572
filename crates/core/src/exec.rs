//! The unified execution policy: one place to say *how* a kernel runs —
//! threading and observability — instead of a `parallel: bool` scattered
//! across every constructor.
//!
//! [`ExecPolicy`] is carried by [`crate::KernelConfig`], accepted by every
//! kernel's `with_exec`, and threaded through [`crate::tune`] and the CPD
//! solvers. It is the only way to select threading: the pre-`ExecPolicy`
//! `.with_parallel(bool)` builders went through a `#[deprecated]` cycle
//! and are gone.

use tenblock_faults::FaultPolicy;
use tenblock_obs::Rec;

/// Threading policy for slice/block-row loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use every thread rayon offers.
    Auto,
    /// Single-threaded (the default, matching the old `parallel: false`).
    #[default]
    Serial,
    /// Target `n` workers. `Fixed(1)` is serial; `Fixed(n > 1)` runs the
    /// parallel path with work split for roughly `n` workers (the rayon
    /// shim sizes its pool from available parallelism, so this bounds
    /// work-splitting granularity rather than pinning a thread count).
    Fixed(usize),
    /// Like [`Threads::Auto`], but every launch first validates the
    /// kernel's blocking invariants and parallel write sets
    /// ([`crate::MttkrpKernel::mttkrp_checked`]); a violation is reported
    /// as a [`crate::RaceReport`] before any task runs.
    Checked,
}

impl Threads {
    /// Whether the parallel code path should run at all.
    pub fn is_parallel(self) -> bool {
        match self {
            Threads::Auto | Threads::Checked => true,
            Threads::Serial => false,
            Threads::Fixed(n) => n > 1,
        }
    }

    /// Whether launches must pass write-set/invariant verification first.
    pub fn is_checked(self) -> bool {
        matches!(self, Threads::Checked)
    }

    /// Worker count used to size work chunks.
    pub fn workers(self) -> usize {
        match self {
            Threads::Auto | Threads::Checked => rayon::current_num_threads().max(1),
            Threads::Serial => 1,
            Threads::Fixed(n) => n.max(1),
        }
    }
}

/// How a kernel executes: threading plus the observability recorder.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Threading policy.
    pub threads: Threads,
    /// Span/counter sink; defaults to the no-op recorder, which costs one
    /// branch per kernel call.
    pub recorder: Rec,
    /// Fault-injection policy for I/O the execution performs (streaming
    /// tile loads). No-op by default; `tenblock chaos` and the
    /// fault-injection tests arm it to prove the recovery paths.
    pub faults: FaultPolicy,
}

impl ExecPolicy {
    /// Single-threaded, no recording (the default).
    pub fn serial() -> Self {
        ExecPolicy::default()
    }

    /// All available threads, no recording.
    pub fn auto() -> Self {
        ExecPolicy {
            threads: Threads::Auto,
            ..ExecPolicy::default()
        }
    }

    /// Approximately `n` workers, no recording.
    pub fn fixed(n: usize) -> Self {
        ExecPolicy {
            threads: Threads::Fixed(n),
            ..ExecPolicy::default()
        }
    }

    /// All available threads with pre-launch write-set verification.
    pub fn checked() -> Self {
        ExecPolicy {
            threads: Threads::Checked,
            ..ExecPolicy::default()
        }
    }

    /// Attaches a recorder.
    pub fn with_recorder(mut self, recorder: Rec) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a fault-injection policy for the I/O this execution
    /// performs.
    pub fn with_faults(mut self, faults: FaultPolicy) -> Self {
        self.faults = faults;
        self
    }

    /// Shorthand for `self.threads.is_parallel()`.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads.is_parallel()
    }

    /// Shorthand for `self.threads.is_checked()`.
    #[inline]
    pub fn is_checked(&self) -> bool {
        self.threads.is_checked()
    }

    /// Chunk size splitting `items` so each worker sees ~4 chunks (the
    /// oversubscription factor every kernel used before this type).
    #[inline]
    pub fn chunk_size(&self, items: usize) -> usize {
        items.div_ceil(4 * self.threads.workers()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_policy_semantics() {
        assert!(Threads::Auto.is_parallel());
        assert!(!Threads::Serial.is_parallel());
        assert!(!Threads::Fixed(1).is_parallel());
        assert!(Threads::Fixed(8).is_parallel());
        assert_eq!(Threads::Serial.workers(), 1);
        assert_eq!(Threads::Fixed(6).workers(), 6);
        assert!(Threads::Auto.workers() >= 1);
        assert!(Threads::Checked.is_parallel());
        assert!(Threads::Checked.is_checked());
        assert!(!Threads::Auto.is_checked());
        assert_eq!(Threads::Checked.workers(), Threads::Auto.workers());
        assert!(ExecPolicy::checked().is_checked());
        assert!(!ExecPolicy::auto().is_checked());
    }

    #[test]
    fn chunking_oversubscribes_by_four() {
        let p = ExecPolicy::fixed(2);
        assert_eq!(p.chunk_size(80), 10);
        // never zero, even for empty input
        assert_eq!(p.chunk_size(0), 1);
        let serial = ExecPolicy::serial();
        assert_eq!(serial.chunk_size(100), 25);
    }

    #[test]
    fn default_policy_is_serial_and_unrecorded() {
        assert!(!ExecPolicy::default().is_parallel());
        assert!(!ExecPolicy::default().recorder.enabled());
    }
}

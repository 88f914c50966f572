//! Poison-recovering lock helpers.
//!
//! The serve crate keeps running after a worker panic: the panic is caught
//! at the job boundary and reported as a failed job, so a poisoned mutex
//! only means "a panic happened while the lock was held", not that the
//! guarded data is gone. These helpers recover the guard instead of
//! unwrapping, which keeps the scheduler, registry, and plan cache alive —
//! and keeps `lock().unwrap()` out of the workspace lint's findings.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
#[expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrapper itself"
)]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Read-locks an `RwLock`, recovering from poisoning.
#[expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrapper itself"
)]
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-locks an `RwLock`, recovering from poisoning.
#[expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrapper itself"
)]
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Waits on a condvar with a timeout, recovering the guard from poisoning
/// (the timed-out flag is dropped — callers re-check their predicate).
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _timeout)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "poisons a mutex through the raw API"
)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn lock_recovers_after_a_panic_poisons_the_mutex() {
        let m: Mutex<VecDeque<u32>> = Mutex::new([1, 2].into());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(caught.is_err());
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(lock(&m).pop_front(), Some(1));
    }

    #[test]
    fn rwlock_helpers_round_trip() {
        let l = RwLock::new(5u32);
        *write(&l) += 1;
        assert_eq!(*read(&l), 6);
    }

    #[test]
    fn wait_timeout_returns_the_guard() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let g = lock(&m);
        let g = wait_timeout(&cv, g, Duration::from_millis(1));
        assert_eq!(*g, 0);
    }
}

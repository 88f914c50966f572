//! Serve's locks: poison recovery and the lock policy, in one place.
//!
//! The serve crate keeps running after a worker panic: the panic is caught
//! at the job boundary and reported as a failed job, so a poisoned mutex
//! only means "a panic happened while the lock was held", not that the
//! guarded data is gone. [`lock`], [`read`] and [`write`] recover the
//! guard instead of unwrapping, which keeps the scheduler, registry, and
//! plan cache alive.
//!
//! Every serve lock is a [`Leveled`] lock whose level is part of its type:
//!
//! | level | lock | may be held across I/O |
//! |---|---|---|
//! | [`ENTRIES`] | `Registry`'s handle → slot map | no |
//! | [`BLOCKED`] | a layout slot's blocked grid | no |
//! | [`JOBS`] | the scheduler's job table | no |
//! | [`COMPUTE`] | the plan cache's single-flight tuning lock | yes: the plan-file save |
//! | [`PLANS`] | the plan cache's map | no |
//! | [`LAST_TRACE`] | the service's last job trace | no |
//!
//! Debug builds check two rules on every guard; release builds compile
//! the tracking out.
//!
//! * **Order.** A thread may take a lock only if its level is above every
//!   level the thread already holds, so no two threads can wait on each
//!   other. Two nestings exist: `Registry::layout_bytes` (entries →
//!   blocked) and `PlanCache::get_or_try_compute` (compute → plans).
//! * **No I/O under a lock.** Each of serve's I/O sites (spill write,
//!   spill reload, quarantine, spill-dir adoption, plan-file save, socket
//!   writer) calls [`assert_unlocked`] first: a disk write under a lock
//!   makes every other user of that lock wait for the disk. `compute` is
//!   the one level allowed across I/O. It serializes tuning, and it must
//!   also serialize the save that publishes the plan: `AtomicFile`'s temp
//!   name is fixed per target (`<file>.tmp`), so two plan saves running at
//!   once would share one temp file.
//!
//! A guard records its level when it is taken and releases it in `Drop`.
//! A guard kept alive by a `match` scrutinee (`match lock(&m).get(k)
//! { .. }` holds the lock to the end of the `match`) therefore counts for
//! exactly as long as it lives. The checks see only the paths a debug
//! build runs: a nesting no test reaches goes unreported.

#![expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrappers themselves, and a test that poisons a mutex"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

// The levels of the table above, lowest first.
pub(crate) const ENTRIES: u8 = 0;
pub(crate) const BLOCKED: u8 = 1;
pub(crate) const JOBS: u8 = 2;
pub(crate) const COMPUTE: u8 = 3;
pub(crate) const PLANS: u8 = 4;
pub(crate) const LAST_TRACE: u8 = 5;

const NAMES: [&str; 6] = [
    "entries",
    "blocked",
    "jobs",
    "compute",
    "plans",
    "last_trace",
];

/// A `Mutex` or `RwLock` at level `L` of the order above.
#[derive(Debug, Default)]
pub(crate) struct Leveled<R, const L: u8>(R);

impl<R, const L: u8> Leveled<R, L> {
    /// Places `raw` at level `L`.
    pub(crate) const fn new(raw: R) -> Self {
        Leveled(raw)
    }
}

/// What [`lock`], [`read`] and [`write`] take: a [`Leveled`] lock or, in
/// tests, a plain std lock, which stays outside the order.
pub(crate) trait Lockable {
    /// The std lock.
    type Raw;
    /// The lock's bit in a thread's held set (0: outside the order).
    const BIT: u8;
    fn raw(&self) -> &Self::Raw;
}

impl<R, const L: u8> Lockable for Leveled<R, L> {
    type Raw = R;
    const BIT: u8 = 1 << L;
    fn raw(&self) -> &R {
        &self.0
    }
}

#[cfg(test)]
impl<T> Lockable for Mutex<T> {
    type Raw = Self;
    const BIT: u8 = 0;
    fn raw(&self) -> &Self {
        self
    }
}

#[cfg(test)]
impl<T> Lockable for RwLock<T> {
    type Raw = Self;
    const BIT: u8 = 0;
    fn raw(&self) -> &Self {
        self
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The levels this thread holds, one bit each.
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Replaces this thread's held set with `f` of it; a no-op in release
/// builds.
fn update_held(f: impl FnOnce(u8) -> u8) {
    #[cfg(debug_assertions)]
    HELD.with(|held| held.set(f(held.get())));
    #[cfg(not(debug_assertions))]
    let _ = f;
}

/// The names of the levels in `held`.
fn names(held: u8) -> String {
    let held: Vec<_> = (0..NAMES.len())
        .filter(|l| held >> l & 1 == 1)
        .map(|l| format!("`{}`", NAMES[l]))
        .collect();
    held.join(", ")
}

/// One guard's level, released when the guard drops.
struct Held(u8);

impl Held {
    fn take(bit: u8) -> Held {
        update_held(|held| {
            debug_assert!(
                bit == 0 || held < bit,
                "lock order: taking {} while holding {}",
                names(bit),
                names(held)
            );
            held | bit
        });
        Held(bit)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        update_held(|held| held & !self.0);
    }
}

/// Asserts, in debug builds, that this thread holds no lock but
/// `compute`. Each of serve's I/O sites calls it first.
pub(crate) fn assert_unlocked() {
    update_held(|held| {
        debug_assert!(
            held & !(1 << COMPUTE) == 0,
            "I/O while holding {}",
            names(held)
        );
        held
    });
}

/// A guard from [`lock`], [`read`] or [`write`]. Fields drop in order:
/// the lock is released, then its level.
pub(crate) struct Guard<G> {
    inner: G,
    held: Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock<T, M: Lockable<Raw = Mutex<T>>>(m: &M) -> Guard<MutexGuard<'_, T>> {
    let held = Held::take(M::BIT);
    let inner = m.raw().lock().unwrap_or_else(PoisonError::into_inner);
    Guard { inner, held }
}

/// Read-locks an `RwLock`, recovering from poisoning.
pub(crate) fn read<T, L: Lockable<Raw = RwLock<T>>>(l: &L) -> Guard<RwLockReadGuard<'_, T>> {
    let held = Held::take(L::BIT);
    let inner = l.raw().read().unwrap_or_else(PoisonError::into_inner);
    Guard { inner, held }
}

/// Write-locks an `RwLock`, recovering from poisoning.
pub(crate) fn write<T, L: Lockable<Raw = RwLock<T>>>(l: &L) -> Guard<RwLockWriteGuard<'_, T>> {
    let held = Held::take(L::BIT);
    let inner = l.raw().write().unwrap_or_else(PoisonError::into_inner);
    Guard { inner, held }
}

/// Waits on a condvar with a timeout, recovering the guard from poisoning
/// (the timed-out flag is dropped — callers re-check their predicate).
/// The level stays held across the wait.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: Guard<MutexGuard<'a, T>>,
    dur: Duration,
) -> Guard<MutexGuard<'a, T>> {
    let Guard { inner, held } = guard;
    let inner = match cv.wait_timeout(inner, dur) {
        Ok((g, _timeout)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    };
    Guard { inner, held }
}

#[cfg(test)]
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

    #[test]
    fn levels_are_taken_in_order_and_released_on_drop() {
        let entries = Leveled::<_, ENTRIES>::new(RwLock::new(1u32));
        let blocked = Leveled::<_, BLOCKED>::new(Mutex::new(2u32));
        let compute = Leveled::<_, COMPUTE>::new(Mutex::new(()));
        let plans = Leveled::<_, PLANS>::new(Mutex::new(3u32));
        {
            let _entries = read(&entries);
            assert_eq!(*lock(&blocked), 2);
        }
        // The scrutinee's guard lives to the end of the `match`, then
        // releases `blocked`, so `entries` may be taken after it.
        match lock(&blocked).checked_sub(2) {
            Some(0) => {}
            other => panic!("{other:?}"),
        }
        *write(&entries) += 1;
        let _compute = lock(&compute);
        *lock(&plans) += 1;
        // `compute` is the one level allowed across I/O.
        assert_unlocked();
    }

    /// A seeded order violation: `entries` taken under `plans`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order: taking `entries` while holding `plans`")]
    fn taking_a_lower_level_under_a_higher_one_panics() {
        let entries = Leveled::<_, ENTRIES>::new(RwLock::new(0u32));
        let plans = Leveled::<_, PLANS>::new(Mutex::new(0u32));
        let _plans = lock(&plans);
        let _entries = read(&entries);
    }

    /// A seeded I/O-under-lock violation: an I/O site under `entries`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "I/O while holding `entries`")]
    fn io_under_an_entries_guard_panics() {
        let entries = Leveled::<_, ENTRIES>::new(RwLock::new(0u32));
        let _entries = write(&entries);
        assert_unlocked();
    }
}

//! Offline shim for the `rayon` crate, covering the API subset this
//! workspace uses: `into_par_iter().for_each` and [`current_num_threads`].
//!
//! Unlike a sequential stub, this shim delivers real parallelism: items are
//! pulled from a shared queue by `std::thread::scope` workers. The kernels
//! in `tenblock-core` already chunk their work coarsely (a few items per
//! hardware thread), so a simple shared-queue pull loop — no work stealing —
//! recovers nearly all of rayon's benefit for these workloads.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Number of worker threads a parallel call will use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Locks the shared work queue, recovering from poisoning.
///
/// If a worker panics while holding the lock, the mutex is poisoned; without
/// recovery every *other* worker would then panic on `lock().unwrap()`, and
/// the secondary panics would abort the process before `std::thread::scope`
/// can re-raise the original. Recovering the guard lets the surviving
/// workers drain (or observe an empty) queue and park at the scope join, so
/// the caller sees the original panic, not a pile-up.
fn lock_queue<T>(queue: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` over `items` on up to [`current_num_threads`] scoped threads.
/// Panics in workers propagate to the caller when the scope joins.
fn drive<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    let queue = Mutex::new(VecDeque::from(items));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // The guard drops here, before `f` runs.
                let next = lock_queue(&queue).pop_front();
                match next {
                    Some(item) => f(item),
                    None => break,
                }
            });
        }
    });
}

/// Parallel iterator over an owned list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Consumes every item, in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        drive(self.items, f);
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Converts `self` into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    pub use super::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_visits_everything() {
        let seen = AtomicUsize::new(0);
        (0..100usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|i| {
                seen.fetch_add(i, Ordering::Relaxed);
            });
        assert_eq!(seen.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn lock_queue_recovers_a_poisoned_mutex() {
        use std::collections::VecDeque;
        use std::sync::Mutex;
        let queue: Mutex<VecDeque<(usize, u32)>> = Mutex::new([(0, 7), (1, 8)].into());
        // Poison the mutex by panicking while the guard is held.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = queue.lock().unwrap();
            panic!("poison");
        }));
        assert!(poison.is_err());
        assert!(queue.lock().is_err(), "mutex should be poisoned");
        // The recovering lock still hands out the data.
        assert_eq!(super::lock_queue(&queue).pop_front(), Some((0, 7)));
        assert_eq!(super::lock_queue(&queue).pop_front(), Some((1, 8)));
    }

    #[test]
    fn worker_panic_propagates_once() {
        let processed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..64usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|i| {
                    if i == 3 {
                        panic!("task 3 failed");
                    }
                    processed.fetch_add(1, Ordering::Relaxed);
                });
        }));
        // The original panic reaches the caller (not an abort from a
        // secondary poisoning panic), and the surviving workers made
        // progress on other items.
        assert!(result.is_err());
        assert!(processed.load(Ordering::Relaxed) <= 63);
    }
}

//! Offline shim for the `rayon` crate, covering the API subset this
//! workspace uses: `into_par_iter().for_each`, `.enumerate().for_each`,
//! `par_chunks_mut`, and [`current_num_threads`].
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
fn lock_queue<'a, T>(
    queue: &'a Mutex<VecDeque<(usize, T)>>,
) -> MutexGuard<'a, VecDeque<(usize, T)>> {
    queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` over `items` on up to [`current_num_threads`] scoped threads.
/// Panics in workers propagate to the caller when the scope joins.
fn drive<T: Send, F: Fn(usize, T) + Sync>(items: Vec<T>, f: F) {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = lock_queue(&queue).pop_front();
                match next {
                    Some((i, item)) => f(i, item),
                    None => break,
                }
            });
        }
    });
}

/// Like [`drive`], but runs `verify` over all items *before* any worker
/// starts. If `verify` rejects the batch, no task runs and the error is
/// returned — this is the entry point for checked execution
/// (`Threads::Checked` in `tenblock-core`), where the verifier is a
/// write-set disjointness check.
pub fn drive_checked<T, E, V, F>(items: Vec<T>, verify: V, f: F) -> Result<(), E>
where
    T: Send,
    V: FnOnce(&[T]) -> Result<(), E>,
    F: Fn(usize, T) + Sync,
{
    verify(&items)?;
    drive(items, f);
    Ok(())
}

/// Parallel iterator over an owned list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Consumes every item, in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        drive(self.items, |_, item| f(item));
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParEnumerate<T> {
        ParEnumerate { items: self.items }
    }
}

/// Index-carrying parallel iterator (result of [`ParIter::enumerate`]).
pub struct ParEnumerate<T> {
    items: Vec<T>,
}

impl<T: Send> ParEnumerate<T> {
    /// Consumes every `(index, item)` pair, in parallel.
    pub fn for_each<F: Fn((usize, T)) + Sync>(self, f: F) {
        drive(self.items, |i, item| f((i, item)));
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

/// Parallel mutable-chunk splitting for slices.
pub trait ParallelSliceMut<T: Send> {
    /// Like `chunks_mut`, but the chunks are processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSliceMut};
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
    fn enumerate_indices_match_order() {
        let vals: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let hits = AtomicUsize::new(0);
        vals.into_par_iter().enumerate().for_each(|(i, v)| {
            assert_eq!(v, i as u32 * 3);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn par_chunks_mut_covers_disjointly() {
        let mut data = vec![0u64; 1000];
        data.par_chunks_mut(64).enumerate().for_each(|(ci, rows)| {
            for r in rows {
                *r += ci as u64 + 1;
            }
        });
        // every element written exactly once, by its own chunk
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 64) as u64 + 1);
        }
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

    #[test]
    fn drive_checked_runs_only_after_verification() {
        let sum = AtomicUsize::new(0);
        let ok: Result<(), &str> = super::drive_checked(
            (0..16usize).collect(),
            |items| {
                if items.len() == 16 {
                    Ok(())
                } else {
                    Err("bad batch")
                }
            },
            |_, v| {
                sum.fetch_add(v, Ordering::Relaxed);
            },
        );
        assert!(ok.is_ok());
        assert_eq!(sum.load(Ordering::Relaxed), 15 * 16 / 2);

        let ran = AtomicUsize::new(0);
        let err: Result<(), &str> = super::drive_checked(
            vec![1usize, 2, 3],
            |_| Err("rejected"),
            |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(err, Err("rejected"));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "no task may run after a rejected batch"
        );
    }
}

//! Bounded job scheduler: a fixed worker pool fed by a bounded MPMC
//! channel, with explicit backpressure.
//!
//! Design decisions, in order of importance:
//!
//! * **Rejection over buffering.** `submit` uses `try_send`; a full queue
//!   returns [`SubmitError::QueueFull`] immediately instead of blocking the
//!   protocol thread or growing an unbounded backlog. Clients see a typed
//!   `queue-full` error and decide whether to retry.
//! * **Deadlines are checked at dequeue.** A job whose deadline passed
//!   while it waited in the queue fails with `deadline exceeded` without
//!   running — late answers to tuning/decomposition requests are worthless,
//!   so the worker's time goes to jobs that can still make their deadline.
//!   Running jobs are not preempted (MTTKRP loops have no safe interruption
//!   points).
//! * **Cancellation is queue-only.** `cancel` flips a queued job to
//!   `Cancelled`; the worker observes the flag at dequeue and skips it.
//!   Cancelling a running, finished, or unknown job is an error.
//! * **Finished jobs are forgotten.** The table keeps the
//!   [`RETAINED_JOBS`] most recently finished records; an older id reads
//!   as unknown, so no client can grow the table without bound.
//!
//! The scheduler is generic over the payload and runner so its queueing
//! logic unit-tests without tensors.

use crate::metrics::Metrics;
use crate::sync::{Leveled, JOBS};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many finished (done, failed or cancelled) job records the table
/// keeps for `job-status` and `wait`; the oldest is forgotten first.
pub const RETAINED_JOBS: usize = 1024;

/// Opaque job handle, rendered as `j-<n>` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j-{}", self.0)
    }
}

impl JobId {
    /// Parses the `j-<n>` wire form.
    pub fn parse(s: &str) -> Option<JobId> {
        s.strip_prefix("j-")?.parse().ok().map(JobId)
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState<R> {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; result attached.
    Done(R),
    /// Finished with an error (including `deadline exceeded`).
    Failed(String),
    /// Cancelled while queued.
    Cancelled,
}

impl<R> JobState<R> {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure, try again later.
    QueueFull,
    /// The scheduler has been shut down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::Shutdown => write!(f, "scheduler is shut down"),
        }
    }
}

/// Why a cancellation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// No such job.
    NotFound,
    /// The job is already running; running jobs are not preempted.
    Running,
    /// The job already reached a terminal state.
    Finished,
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::NotFound => write!(f, "no such job"),
            CancelError::Running => write!(f, "job is already running"),
            CancelError::Finished => write!(f, "job already finished"),
        }
    }
}

struct JobRecord<R> {
    state: JobState<R>,
    deadline: Option<Instant>,
    submitted: Instant,
}

/// Every queued or running job, plus the [`RETAINED_JOBS`] most recently
/// finished.
struct Jobs<R> {
    records: HashMap<JobId, JobRecord<R>>,
    /// Finished ids, oldest first.
    finished: VecDeque<JobId>,
}

impl<R> Jobs<R> {
    /// Moves `id` to the terminal `state`, forgetting the oldest finished
    /// record past [`RETAINED_JOBS`].
    fn finish(&mut self, id: JobId, state: JobState<R>) {
        let Some(rec) = self.records.get_mut(&id) else {
            return;
        };
        rec.state = state;
        self.finished.push_back(id);
        if self.finished.len() > RETAINED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.records.remove(&old);
            }
        }
    }
}

struct Table<P, R> {
    jobs: Leveled<Mutex<Jobs<R>>, JOBS>,
    /// Notified on every state transition; `wait` parks on it.
    changed: Condvar,
    _payload: std::marker::PhantomData<fn(P)>,
}

/// The scheduler. `P` is the job payload, `R` the result type.
pub struct Scheduler<P: Send + 'static, R: Clone + Send + 'static> {
    table: Arc<Table<P, R>>,
    sender: Option<crossbeam::channel::Sender<(JobId, P)>>,
    queue: crossbeam::channel::Receiver<(JobId, P)>,
    capacity: usize,
    next_id: AtomicU64,
    metrics: Arc<Metrics>,
    workers: Vec<JoinHandle<()>>,
}

impl<P: Send + 'static, R: Clone + Send + 'static> Scheduler<P, R> {
    /// Starts `workers` worker threads behind a queue of `capacity` slots.
    /// Each dequeued payload runs through `runner`; its `Result` becomes
    /// the job's terminal state.
    pub fn start<F>(workers: usize, capacity: usize, metrics: Arc<Metrics>, runner: F) -> Self
    where
        F: Fn(JobId, P) -> Result<R, String> + Send + Sync + 'static,
    {
        let (tx, rx) = crossbeam::channel::bounded(capacity.max(1));
        let table: Arc<Table<P, R>> = Arc::new(Table {
            jobs: Leveled::new(Mutex::new(Jobs {
                records: HashMap::new(),
                finished: VecDeque::new(),
            })),
            changed: Condvar::new(),
            _payload: std::marker::PhantomData,
        });
        let runner = Arc::new(runner);
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx: crossbeam::channel::Receiver<(JobId, P)> = rx.clone();
                let table = Arc::clone(&table);
                let metrics = Arc::clone(&metrics);
                let runner = Arc::clone(&runner);
                std::thread::spawn(move || {
                    while let Ok((id, payload)) = rx.recv() {
                        let submitted = {
                            let mut jobs = crate::sync::lock(&table.jobs);
                            // A missing record means the submitter's insert
                            // was rolled back, or the job was cancelled and
                            // then forgotten; drop the stale queue entry.
                            let Some(rec) = jobs.records.get_mut(&id) else {
                                continue;
                            };
                            if matches!(rec.state, JobState::Cancelled) {
                                continue;
                            }
                            if rec.deadline.is_some_and(|d| Instant::now() > d) {
                                let late = "deadline exceeded while queued".into();
                                jobs.finish(id, JobState::Failed(late));
                                metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                                table.changed.notify_all();
                                continue;
                            }
                            rec.state = JobState::Running;
                            table.changed.notify_all();
                            rec.submitted
                        };
                        metrics
                            .job_queue_wait
                            .observe(submitted.elapsed().as_secs_f64());
                        let run_start = Instant::now();
                        let outcome = runner(id, payload);
                        metrics.job_run.observe(run_start.elapsed().as_secs_f64());
                        metrics
                            .job_latency
                            .observe(submitted.elapsed().as_secs_f64());
                        let state = match outcome {
                            Ok(r) => {
                                metrics.jobs_done.fetch_add(1, Ordering::Relaxed);
                                JobState::Done(r)
                            }
                            Err(e) => {
                                metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                                JobState::Failed(e)
                            }
                        };
                        crate::sync::lock(&table.jobs).finish(id, state);
                        table.changed.notify_all();
                    }
                })
            })
            .collect();
        Scheduler {
            table,
            sender: Some(tx),
            queue: rx,
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            metrics,
            workers: handles,
        }
    }

    /// Submits a job. Full queue → immediate [`SubmitError::QueueFull`].
    pub fn submit(&self, payload: P, deadline: Option<Duration>) -> Result<JobId, SubmitError> {
        let Some(sender) = &self.sender else {
            return Err(SubmitError::Shutdown);
        };
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let now = Instant::now();
        {
            let mut jobs = crate::sync::lock(&self.table.jobs);
            jobs.records.insert(
                id,
                JobRecord {
                    state: JobState::Queued,
                    deadline: deadline.map(|d| now + d),
                    submitted: now,
                },
            );
        }
        match sender.try_send((id, payload)) {
            Ok(()) => {
                self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                Ok(id)
            }
            Err(e) => {
                // Remove the provisional record; the job never existed as
                // far as clients are concerned.
                crate::sync::lock(&self.table.jobs).records.remove(&id);
                match e {
                    crossbeam::channel::TrySendError::Full(_) => {
                        self.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                        Err(SubmitError::QueueFull)
                    }
                    crossbeam::channel::TrySendError::Disconnected(_) => Err(SubmitError::Shutdown),
                }
            }
        }
    }

    /// Current state of `id` (cloned), or `None` for unknown jobs.
    pub fn status(&self, id: JobId) -> Option<JobState<R>> {
        crate::sync::lock(&self.table.jobs)
            .records
            .get(&id)
            .map(|r| r.state.clone())
    }

    /// Blocks until `id` reaches a terminal state, up to `timeout`.
    /// Returns the terminal state, or `None` on unknown job / timeout.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobState<R>> {
        let deadline = Instant::now() + timeout;
        let mut jobs = crate::sync::lock(&self.table.jobs);
        loop {
            match jobs.records.get(&id) {
                None => return None,
                Some(rec) if rec.state.is_terminal() => return Some(rec.state.clone()),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            jobs = crate::sync::wait_timeout(&self.table.changed, jobs, deadline - now);
        }
    }

    /// Cancels a queued job.
    pub fn cancel(&self, id: JobId) -> Result<(), CancelError> {
        let mut jobs = crate::sync::lock(&self.table.jobs);
        let rec = jobs.records.get(&id).ok_or(CancelError::NotFound)?;
        match rec.state {
            JobState::Queued => {
                jobs.finish(id, JobState::Cancelled);
                self.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                self.table.changed.notify_all();
                Ok(())
            }
            JobState::Running => Err(CancelError::Running),
            _ => Err(CancelError::Finished),
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Configured queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stops accepting jobs, drains the queue, joins the workers.
    pub fn shutdown(&mut self) {
        self.sender = None; // workers' recv() returns Err once drained
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<P: Send + 'static, R: Clone + Send + 'static> Drop for Scheduler<P, R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched<F>(workers: usize, cap: usize, f: F) -> (Scheduler<u64, u64>, Arc<Metrics>)
    where
        F: Fn(u64) -> Result<u64, String> + Send + Sync + 'static,
    {
        let metrics = Arc::new(Metrics::default());
        (
            Scheduler::start(workers, cap, Arc::clone(&metrics), move |_, x| f(x)),
            metrics,
        )
    }

    /// One worker, parked inside job 1 until `open` is called, and an
    /// empty queue of `cap` slots.
    fn parked(cap: usize) -> (Scheduler<u64, u64>, Arc<Metrics>, JobId, impl Fn()) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let (s, m) = sched(1, cap, move |x| {
            let (lock, cv) = &*g;
            let mut open = crate::sync::lock(lock);
            while !*open {
                open = crate::sync::wait_timeout(cv, open, Duration::from_secs(1));
            }
            Ok(x)
        });
        let first = s.submit(1, None).unwrap();
        while s.status(first) != Some(JobState::Running) {
            std::thread::yield_now();
        }
        let open = move || {
            *crate::sync::lock(&gate.0) = true;
            gate.1.notify_all();
        };
        (s, m, first, open)
    }

    #[test]
    fn runs_jobs_to_done() {
        let (s, m) = sched(2, 8, |x| Ok(x * 2));
        let ids: Vec<_> = (0..5).map(|x| s.submit(x, None).unwrap()).collect();
        for (x, id) in ids.into_iter().enumerate() {
            match s.wait(id, Duration::from_secs(5)) {
                Some(JobState::Done(r)) => assert_eq!(r, x as u64 * 2),
                other => panic!("job {id} ended as {other:?}"),
            }
        }
        assert_eq!(m.jobs_done.load(Ordering::Relaxed), 5);
        // Every executed job contributes to all three latency histograms.
        assert_eq!(m.job_latency.snapshot().total, 5);
        assert_eq!(m.job_queue_wait.snapshot().total, 5);
        assert_eq!(m.job_run.snapshot().total, 5);
    }

    #[test]
    fn failure_is_reported() {
        let (s, m) = sched(1, 4, |_| Err("boom".to_string()));
        let id = s.submit(1, None).unwrap();
        assert_eq!(
            s.wait(id, Duration::from_secs(5)),
            Some(JobState::Failed("boom".into()))
        );
        assert_eq!(m.jobs_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_rejects_typed() {
        let (s, _m, _running, open) = parked(1);
        let queued = s.submit(2, None).unwrap();
        assert_eq!(s.submit(3, None), Err(SubmitError::QueueFull));
        assert_eq!(s.queue_depth(), 1);

        open();
        assert!(matches!(
            s.wait(queued, Duration::from_secs(5)),
            Some(JobState::Done(_))
        ));
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        let (s, _m, first, open) = parked(4);
        let second = s.submit(2, None).unwrap();
        assert_eq!(s.cancel(second), Ok(()));
        assert_eq!(s.status(second), Some(JobState::Cancelled));
        assert_eq!(s.cancel(first), Err(CancelError::Running));
        assert_eq!(s.cancel(JobId(999)), Err(CancelError::NotFound));
        open();
        assert!(matches!(
            s.wait(first, Duration::from_secs(5)),
            Some(JobState::Done(_))
        ));
        // Cancelled job stays cancelled (worker skipped it).
        assert_eq!(s.status(second), Some(JobState::Cancelled));
        assert_eq!(s.cancel(second), Err(CancelError::Finished));
    }

    #[test]
    fn queued_deadline_expires_without_running() {
        let (s, m, _first, open) = parked(4);
        let doomed = s.submit(2, Some(Duration::from_millis(1))).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        open();
        match s.wait(doomed, Duration::from_secs(5)) {
            Some(JobState::Failed(msg)) => assert!(msg.contains("deadline")),
            other => panic!("expected deadline failure, got {other:?}"),
        }
        assert!(m.jobs_failed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn finished_records_past_the_retention_cap_are_forgotten() {
        const JOBS: usize = RETAINED_JOBS + 37;
        let (mut s, m) = sched(1, JOBS, Ok);
        let ids: Vec<_> = (0..JOBS as u64)
            .map(|x| s.submit(x, None).unwrap())
            .collect();
        s.shutdown();
        assert_eq!(m.jobs_done.load(Ordering::Relaxed), JOBS as u64);
        let jobs = crate::sync::lock(&s.table.jobs);
        assert_eq!(jobs.records.len(), RETAINED_JOBS);
        assert_eq!(jobs.finished.len(), RETAINED_JOBS);
        drop(jobs);
        // The oldest are unknown now; the most recent still answer.
        assert_eq!(s.status(ids[0]), None);
        assert_eq!(s.status(ids[JOBS - RETAINED_JOBS - 1]), None);
        assert_eq!(
            s.status(ids[JOBS - RETAINED_JOBS]),
            Some(JobState::Done(ids[JOBS - RETAINED_JOBS].0 - 1))
        );
        assert_eq!(s.cancel(ids[0]), Err(CancelError::NotFound));
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let (mut s, m) = sched(2, 8, Ok);
        let ids: Vec<_> = (0..4).map(|x| s.submit(x, None).unwrap()).collect();
        s.shutdown();
        assert_eq!(s.submit(9, None), Err(SubmitError::Shutdown));
        for id in ids {
            assert!(matches!(s.status(id), Some(JobState::Done(_))));
        }
        assert_eq!(m.jobs_done.load(Ordering::Relaxed), 4);
    }
}

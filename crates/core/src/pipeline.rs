//! A std-only work-queue scheduler for embarrassingly parallel pipeline
//! stages (per-instruction trace generation, per-case verification).
//!
//! The paper's evaluation verifies nine case studies one instruction at a
//! time; the structure is embarrassingly parallel. This module fans a
//! fixed job list out across `N` std threads and joins the results
//! **deterministically**: outputs come back indexed by job, so callers
//! that iterate in job order see byte-identical results whatever the
//! worker count or interleaving.
//!
//! Degradation is graceful by construction: with `jobs <= 1` no thread is
//! spawned at all, and when a spawn fails (resource exhaustion) the main
//! thread simply keeps draining the queue itself — the scheduler never
//! returns fewer results than jobs.
//!
//! Panics inside a job are caught per job ([`JobPanic`]), so one poisoned
//! work item fails its own slot without wedging the queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use islaris_obs::Recorder;

/// A job that panicked, with the captured payload rendered to text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job.
    pub index: usize,
    /// The panic payload (if it was a string; `"non-string panic"`
    /// otherwise).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Resolves a requested worker count: `0` means "ask the OS"
/// ([`std::thread::available_parallelism`], 1 if unknown).
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs `count` jobs (`f(0)` … `f(count-1)`) on up to `jobs` workers and
/// returns the results **in job order**. Each job is isolated with
/// [`catch_unwind`]; a panicking job yields `Err(JobPanic)` in its slot
/// and the queue keeps draining. Callers that fail fast collect the
/// result into `Result<Vec<T>, JobPanic>`, which stops at the
/// lowest-index panic.
///
/// `jobs == 0` asks the OS for the parallelism level; `jobs == 1` runs
/// inline with no threads.
///
/// When a [`Recorder`] is supplied, each job contributes two wall-clock
/// spans: `job-i.wait` (from scheduler start until a worker claims the
/// job — queue wait) and `job-i` (the job body). When `recorder` is
/// `None` no clocks are read and no atomics are touched beyond the work
/// queue itself.
///
/// # Panics
///
/// Never panics itself; job panics are reified into the result vector.
pub fn run_jobs<T, F>(
    jobs: usize,
    count: usize,
    recorder: Option<&Recorder>,
    f: F,
) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs).min(count.max(1));
    let queued_at = recorder.map(|_| Instant::now());
    let run_one = |i: usize| -> Result<T, JobPanic> {
        if let (Some(rec), Some(q)) = (recorder, queued_at) {
            rec.record_between(format!("job-{i}.wait"), "pipeline", q, Instant::now());
        }
        let _span = recorder.map(|rec| rec.span(format!("job-{i}"), "pipeline"));
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| JobPanic {
            index: i,
            message: payload_message(&*p),
        })
    };
    if jobs <= 1 {
        return (0..count).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T, JobPanic>>>> =
        Mutex::new((0..count).map(|_| None).collect());
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let r = run_one(i);
        results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(r);
    };
    std::thread::scope(|s| {
        // jobs-1 helpers; the main thread is the last worker. If a spawn
        // fails we fall through: the queue drains regardless.
        for w in 1..jobs {
            let builder = std::thread::Builder::new().name(format!("islaris-worker-{w}"));
            let _unspawned = builder.spawn_scoped(s, worker);
        }
        worker();
    });
    results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed and stored"))
        .collect()
}

// ---------------------------------------------------------------------------
// Long-lived worker pool (the service scheduler)
// ---------------------------------------------------------------------------

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — the service backpressure signal
    /// (mapped to `503 overloaded` by the server).
    Saturated,
    /// The pool is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated => write!(f, "work queue saturated"),
            SubmitError::ShuttingDown => write!(f, "pool shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One unit of pool work: a closure invoked with `true` iff the job's
/// deadline had already passed when a worker claimed it (the job should
/// then produce its deadline-exceeded answer instead of doing the work),
/// and with the job's [`Claim`] on the in-flight count.
type PoolTask = Box<dyn FnOnce(bool, Claim) + Send>;

/// A running pool job's share of [`WorkerPool::in_flight`]. The count
/// drops when the claim does: when the job returns (or unwinds) at the
/// latest, or earlier if the job drops its claim before it publishes
/// its answer, so a submitter woken by that answer never counts its own
/// job as still in flight.
pub struct Claim {
    shared: Arc<PoolShared>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        // Relaxed is enough: a submitter that must see this decrement
        // waits on the job's `JobSlot`, whose mutex orders the fill
        // after it.
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

struct QueuedJob {
    deadline: Option<Instant>,
    /// When the job entered the queue; with a recorder attached the
    /// worker turns this into the `queue-wait` span at claim time.
    enqueued_at: Instant,
    /// Per-request span sink threaded through the pool by the service
    /// (`None` = no clocks are read for this job beyond the deadline
    /// check the scheduler does anyway).
    recorder: Option<Arc<Recorder>>,
    run: PoolTask,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<std::collections::VecDeque<QueuedJob>>,
    cv: std::sync::Condvar,
    stopping: std::sync::atomic::AtomicBool,
    /// Jobs whose closure panicked (the worker survives; the counter is
    /// the observable trace of the isolation).
    panics: AtomicUsize,
    /// Jobs claimed by a worker whose [`Claim`] is still held — the
    /// service in-flight gauge ([`WorkerPool::in_flight`]).
    in_flight: AtomicUsize,
}

/// A long-lived bounded work queue for the verification service: `N`
/// resident workers, a capacity-limited queue with an explicit
/// backpressure signal ([`SubmitError::Saturated`]), and per-job
/// deadlines checked at dequeue time.
///
/// This is the service-shaped sibling of [`run_jobs`]: where `run_jobs`
/// drains a fixed batch and joins, a `WorkerPool` outlives any one
/// request stream. Jobs are *not* preempted — a deadline that expires
/// while the job waits in the queue skips the work entirely (the worker
/// calls the closure with `expired = true`); a deadline that expires
/// mid-execution is the submitter's concern.
///
/// Panic isolation matches the batch scheduler: a panicking job is
/// caught, counted ([`WorkerPool::panics`]), and the worker keeps
/// serving — no poisoned worker, no wedged queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    cap: usize,
}

impl WorkerPool {
    /// Spawns `workers` resident threads over a queue holding at most
    /// `cap` waiting jobs (running jobs don't count against `cap`).
    /// `workers == 0` asks the OS ([`effective_jobs`]).
    #[must_use]
    pub fn new(workers: usize, cap: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared::default());
        let n = effective_jobs(workers);
        let handles = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("islaris-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            cap: cap.max(1),
        }
    }

    /// Enqueues a job unless the queue is at capacity or the pool is
    /// stopping. The closure receives `true` iff `deadline` had passed
    /// by the time a worker claimed the job, and the job's [`Claim`].
    ///
    /// With a `recorder`, the worker records a `queue-wait` span (submit
    /// → dequeue, category `pool`) into it at claim time, attributed to
    /// the worker's logical tid. The job body records its own `exec` span
    /// *before* publishing its result, so a submitter that reads the
    /// recorder after the answer arrives sees every span (the queue-wait
    /// span is recorded before the closure runs for the same reason).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when `cap` jobs are already waiting,
    /// [`SubmitError::ShuttingDown`] after [`WorkerPool::shutdown`].
    pub fn try_submit(
        &self,
        deadline: Option<Instant>,
        recorder: Option<Arc<Recorder>>,
        run: impl FnOnce(bool, Claim) + Send + 'static,
    ) -> Result<(), SubmitError> {
        if self.shared.stopping.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if queue.len() >= self.cap {
            return Err(SubmitError::Saturated);
        }
        queue.push_back(QueuedJob {
            deadline,
            enqueued_at: Instant::now(),
            recorder,
            run: Box::new(run),
        });
        drop(queue);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not running).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Jobs claimed by a worker whose [`Claim`] is still held.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Number of jobs whose closure panicked (each was isolated; every
    /// worker is still serving).
    #[must_use]
    pub fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Resident worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops accepting work, drains the queue, and joins every worker.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let job = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let claimed_at = Instant::now();
        let expired = job.deadline.is_some_and(|d| claimed_at >= d);
        if let Some(rec) = &job.recorder {
            rec.record_between("queue-wait", "pool", job.enqueued_at, claimed_at);
        }
        let run = job.run;
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let claim = Claim {
            shared: Arc::clone(shared),
        };
        if catch_unwind(AssertUnwindSafe(move || run(expired, claim))).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A one-shot result slot for handing a pool job's answer back to the
/// submitting thread (a connection handler, in the server). The
/// submitter [`JobSlot::wait`]s; the job [`JobSlot::fill`]s exactly once.
pub struct JobSlot<T> {
    inner: Arc<(Mutex<Option<T>>, std::sync::Condvar)>,
}

impl<T> Clone for JobSlot<T> {
    fn clone(&self) -> Self {
        JobSlot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for JobSlot<T> {
    fn default() -> Self {
        JobSlot {
            inner: Arc::new((Mutex::new(None), std::sync::Condvar::new())),
        }
    }
}

impl<T> JobSlot<T> {
    /// An empty slot.
    #[must_use]
    pub fn new() -> Self {
        JobSlot::default()
    }

    /// Stores the result and wakes the waiter. Later fills are ignored
    /// (first answer wins).
    pub fn fill(&self, value: T) {
        let (lock, cv) = &*self.inner;
        let mut slot = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(value);
        }
        drop(slot);
        cv.notify_all();
    }

    /// Blocks until the slot is filled and takes the value.
    pub fn wait(&self) -> T {
        let (lock, cv) = &*self.inner;
        let mut slot = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [0, 1, 2, 4, 16, 200] {
            let got: Vec<usize> = run_jobs(jobs, 100, None, |i| i * i)
                .into_iter()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn zero_count_is_empty() {
        assert!(run_jobs(4, 0, None, |i| i).is_empty());
    }

    #[test]
    fn a_panicking_job_fails_only_its_own_slot() {
        let out = run_jobs(4, 10, None, |i| {
            assert!(i != 3, "poisoned job");
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("poisoned job"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn sequential_mode_also_isolates_panics() {
        let out = run_jobs(1, 4, None, |i| {
            assert!(i != 0, "first job dies");
            i
        });
        assert!(out[0].is_err());
        assert_eq!(*out[3].as_ref().unwrap(), 3);
    }

    #[test]
    fn collecting_reports_lowest_index_panic() {
        let err = run_jobs(2, 8, None, |i| {
            assert!(i % 3 != 2, "dies");
        })
        .into_iter()
        .collect::<Result<Vec<()>, _>>()
        .unwrap_err();
        assert_eq!(err.index, 2);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let got: Vec<usize> = run_jobs(64, 3, None, |i| i + 1)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn profiled_runs_record_wait_and_exec_spans_per_job() {
        for jobs in [1, 4] {
            let rec = Recorder::new();
            let got: Vec<usize> = run_jobs(jobs, 5, Some(&rec), |i| i)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
            let spans = rec.spans();
            assert_eq!(spans.len(), 10, "jobs = {jobs}: one wait + one exec each");
            for i in 0..5 {
                assert!(spans.iter().any(|s| s.name == format!("job-{i}")));
                assert!(spans.iter().any(|s| s.name == format!("job-{i}.wait")));
            }
            assert!(spans.iter().all(|s| s.cat == "pipeline"));
        }
    }

    #[test]
    fn pool_runs_jobs_and_fills_slots() {
        let pool = WorkerPool::new(2, 16);
        let slots: Vec<JobSlot<usize>> = (0..8).map(|_| JobSlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            let slot = slot.clone();
            pool.try_submit(None, None, move |expired, _| {
                assert!(!expired);
                slot.fill(i * i);
            })
            .unwrap();
        }
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.wait(), i * i);
        }
        pool.shutdown();
    }

    #[test]
    fn pool_saturation_rejects_with_backpressure() {
        // One worker, blocked on a gate; capacity 2. The blocker occupies
        // the worker, two jobs fill the queue, the next submit must be
        // refused deterministically.
        let pool = WorkerPool::new(1, 2);
        let gate = JobSlot::<()>::new();
        let started = JobSlot::<()>::new();
        {
            let gate = gate.clone();
            let started = started.clone();
            pool.try_submit(None, None, move |_, _| {
                started.fill(());
                gate.wait();
            })
            .unwrap();
        }
        started.wait(); // worker is now parked inside the blocker
        pool.try_submit(None, None, |_, _| {}).unwrap();
        pool.try_submit(None, None, |_, _| {}).unwrap();
        assert_eq!(
            pool.try_submit(None, None, |_, _| {}),
            Err(SubmitError::Saturated)
        );
        assert_eq!(pool.queued(), 2);
        gate.fill(());
        pool.shutdown();
    }

    #[test]
    fn pool_expired_deadline_is_reported_at_dequeue() {
        let pool = WorkerPool::new(1, 4);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let slot = JobSlot::<bool>::new();
        {
            let slot = slot.clone();
            pool.try_submit(Some(past), None, move |expired, _| slot.fill(expired))
                .unwrap();
        }
        assert!(slot.wait(), "a lapsed deadline must reach the job as true");
        let slot2 = JobSlot::<bool>::new();
        {
            let slot2 = slot2.clone();
            let far = Instant::now() + std::time::Duration::from_secs(3600);
            pool.try_submit(Some(far), None, move |expired, _| slot2.fill(expired))
                .unwrap();
        }
        assert!(!slot2.wait());
        pool.shutdown();
    }

    #[test]
    fn pool_traced_submit_records_queue_wait_before_the_job_runs() {
        let pool = WorkerPool::new(1, 4);
        let rec = Arc::new(Recorder::new());
        let slot = JobSlot::<usize>::new();
        {
            let slot = slot.clone();
            let rec2 = Arc::clone(&rec);
            pool.try_submit(None, Some(Arc::clone(&rec)), move |_, _| {
                // The queue-wait span is visible from inside the job:
                // the worker records it before invoking the closure.
                let names: Vec<String> = rec2.spans().into_iter().map(|s| s.name).collect();
                assert_eq!(names, vec!["queue-wait".to_string()]);
                slot.fill(7);
            })
            .unwrap();
        }
        assert_eq!(slot.wait(), 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cat, "pool");
        pool.shutdown();
    }

    #[test]
    fn pool_tracks_in_flight_jobs() {
        let pool = WorkerPool::new(1, 4);
        assert_eq!(pool.in_flight(), 0);
        let gate = JobSlot::<()>::new();
        let started = JobSlot::<()>::new();
        {
            let gate = gate.clone();
            let started = started.clone();
            pool.try_submit(None, None, move |_, _| {
                started.fill(());
                gate.wait();
            })
            .unwrap();
        }
        started.wait();
        assert_eq!(pool.in_flight(), 1, "blocked job counts as in flight");
        gate.fill(());

        // A job that drops its claim retires from the count before it
        // returns: the submitter it answers sees the pool idle.
        let answer = JobSlot::<usize>::new();
        let gate = JobSlot::<()>::new();
        {
            let answer = answer.clone();
            let gate = gate.clone();
            let pool_view = Arc::clone(&pool.shared);
            pool.try_submit(None, None, move |_, claim| {
                drop(claim);
                answer.fill(pool_view.in_flight.load(Ordering::Relaxed));
                gate.wait();
            })
            .unwrap();
        }
        assert_eq!(answer.wait(), 0, "a dropped claim leaves the count");
        assert_eq!(pool.in_flight(), 0, "the job still runs, unclaimed");
        gate.fill(());
        pool.shutdown();
    }

    #[test]
    fn pool_worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1, 4);
        pool.try_submit(None, None, |_, _| panic!("poisoned job"))
            .unwrap();
        let slot = JobSlot::<u32>::new();
        {
            let slot = slot.clone();
            pool.try_submit(None, None, move |_, _| slot.fill(7))
                .unwrap();
        }
        assert_eq!(slot.wait(), 7, "the worker must outlive the panic");
        assert_eq!(pool.panics(), 1);
        pool.shutdown();
    }

    #[test]
    fn pool_shutdown_refuses_new_work() {
        let pool = WorkerPool::new(2, 4);
        let shared = pool.shared.clone();
        pool.shutdown();
        assert!(shared.stopping.load(Ordering::Acquire));
        let pool2 = WorkerPool::new(1, 1);
        drop(pool2); // Drop path joins too.
    }
}

//! A reusable fixed-size worker thread pool.
//!
//! [`points_to_parallel`](crate::points_to_parallel) used to spawn fresh
//! scoped threads per call; both it and the `ddpa-serve` query server now
//! share this pool so long-lived processes pay thread start-up once.
//!
//! Two submission modes:
//!
//! * [`ThreadPool::execute`] — fire-and-forget `'static` jobs;
//! * [`ThreadPool::scoped`] — a *batch* of borrowing jobs; the call blocks
//!   until every job of the batch has finished, which is what makes the
//!   lifetime erasure inside sound (the borrowed data outlives the wait).
//!
//! Jobs that panic do not kill workers: the panic is caught and the first
//! payload is re-raised verbatim (`resume_unwind`) from the submitting
//! side ([`ThreadPool::scoped`] / [`ThreadPool::join`]), preserving both
//! the old spawn-per-call behaviour where a worker panic propagated out
//! of the driver *and* the original panic message — a later `.expect`
//! or test assertion sees `"boom"`, not an anonymous count.
//!
//! The pool itself carries no analysis state: each worker job constructs
//! its own [`DemandEngine`](crate::DemandEngine) from a configuration the
//! *driver* clones in, so every worker inherits the same settings and
//! its memo table stays private to its engine.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A caught panic payload, carried back to the submitting side.
type Payload = Box<dyn Any + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Jobs currently running on a worker.
    active: usize,
    /// First panic payload since the last [`ThreadPool::join`] (later
    /// ones are dropped — resuming can only re-raise one).
    panic_payload: Option<Payload>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Wakes workers when jobs arrive or shutdown is requested.
    available: Condvar,
    /// Wakes `join`/`scoped` waiters when a job finishes.
    done: Condvar,
}

/// A fixed-size pool of worker threads processing a shared job queue.
///
/// Dropping the pool drains the queue: remaining jobs still run, then the
/// workers exit and are joined.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ddpa_demand::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.scoped((0..100).map(|i| {
///     let sum = &sum;
///     Box::new(move || {
///         sum.fetch_add(i, Ordering::Relaxed);
///     }) as Box<dyn FnOnce() + Send + '_>
/// }));
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Starts a pool of `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let shared = Arc::new(Shared::default());
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ddpa-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.available.notify_one();
    }

    /// Blocks until the queue is empty and no job is running.
    ///
    /// # Panics
    ///
    /// If any job panicked since the last `join`, re-raises the first
    /// such panic's original payload.
    pub fn join(&self) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        while !q.jobs.is_empty() || q.active > 0 {
            q = self.shared.done.wait(q).expect("pool queue poisoned");
        }
        let payload = q.panic_payload.take();
        drop(q);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs a batch of borrowing jobs to completion.
    ///
    /// The jobs may borrow from the caller's stack: this call does not
    /// return until every job of the batch has run, so the borrows cannot
    /// outlive their owners. Concurrent `scoped` batches from different
    /// threads interleave safely — each batch waits only on its own jobs.
    ///
    /// # Panics
    ///
    /// If any job of the batch panicked, re-raises the first such
    /// panic's original payload.
    pub fn scoped<'env>(&self, jobs: impl IntoIterator<Item = Box<dyn FnOnce() + Send + 'env>>) {
        struct Batch {
            remaining: Mutex<usize>,
            /// First panic payload of the batch.
            panicked: Mutex<Option<Payload>>,
            finished: Condvar,
        }
        let batch = Arc::new(Batch {
            remaining: Mutex::new(0),
            panicked: Mutex::new(None),
            finished: Condvar::new(),
        });

        let mut submitted = 0usize;
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            for job in jobs {
                // SAFETY: the job only needs to live until this function
                // returns, and we block below until `remaining` reaches
                // zero — i.e. until every erased job has finished running
                // — so the 'env borrows are never used after free.
                let job: Box<dyn FnOnce() + Send + 'static> = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'env>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                let batch = Arc::clone(&batch);
                q.jobs.push_back(Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(job));
                    let mut remaining = batch.remaining.lock().expect("batch poisoned");
                    *remaining -= 1;
                    if let Err(payload) = outcome {
                        let mut first = batch.panicked.lock().expect("batch poisoned");
                        first.get_or_insert(payload);
                    }
                    batch.finished.notify_all();
                }));
                submitted += 1;
            }
            *batch.remaining.lock().expect("batch poisoned") = submitted;
        }
        self.shared.available.notify_all();

        let mut remaining = batch.remaining.lock().expect("batch poisoned");
        while *remaining > 0 {
            remaining = batch.finished.wait(remaining).expect("batch poisoned");
        }
        drop(remaining);
        let payload = batch.panicked.lock().expect("batch poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.active += 1;
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let mut q = shared.queue.lock().expect("pool queue poisoned");
        q.active -= 1;
        if let Err(payload) = outcome {
            q.panic_payload.get_or_insert(payload);
        }
        drop(q);
        shared.done.notify_all();
    }
}

/// One worker's stealable deque (see [`crate::sched`]).
///
/// The owner pushes and pops at the *back* (LIFO, depth-first) or pops at
/// the *front* (FIFO, breadth-first); thieves always [`steal`] from the
/// front, so under the depth-first policy they take the owner's oldest —
/// coarsest — frames, the classic work-stealing granularity argument.
/// A `Mutex<VecDeque>` rather than a lock-free Chase–Lev deque: frames
/// are coarse units of work (a whole goal-step), so the queue is touched
/// orders of magnitude less often than facts are published, and the
/// uncontended-lock cost is noise next to a frame step.
///
/// [`steal`]: StealQueue::steal
#[derive(Debug, Default)]
pub struct StealQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> StealQueue<T> {
    /// An empty deque.
    pub fn new() -> Self {
        StealQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Owner: enqueues at the back.
    pub fn push(&self, item: T) {
        self.items
            .lock()
            .expect("steal queue poisoned")
            .push_back(item);
    }

    /// Owner, depth-first: pops the newest item.
    pub fn pop_back(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_back()
    }

    /// Owner, breadth-first: pops the oldest item.
    pub fn pop_front(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_front()
    }

    /// Thief: takes the oldest item.
    pub fn steal(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_front()
    }

    /// Number of queued items (racy under concurrency — a hint only).
    pub fn len(&self) -> usize {
        self.items.lock().expect("steal queue poisoned").len()
    }

    /// Whether the deque is empty (racy under concurrency — a hint only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_static_jobs() {
        let pool = ThreadPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn scoped_jobs_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let inputs: Vec<usize> = (0..32).collect();
        let outputs: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.scoped(inputs.iter().map(|&i| {
            let outputs = &outputs;
            Box::new(move || {
                outputs[i].store(i * i, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), i * i);
        }
    }

    #[test]
    fn scoped_empty_batch_returns_immediately() {
        let pool = ThreadPool::new(1);
        pool.scoped(std::iter::empty());
    }

    #[test]
    fn sequential_scoped_batches_reuse_workers() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.scoped((0..4).map(|_| {
                let count = &count;
                Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            }));
        }
        assert_eq!(count.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn panicking_job_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped([Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>]);
        }));
        assert!(caught.is_err(), "scoped re-raises job panics");
        // The worker that ran the panicking job is still alive.
        let ran = AtomicUsize::new(0);
        pool.scoped((0..4).map(|_| {
            let ran = &ran;
            Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scoped_preserves_the_panic_payload() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped([Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>]);
        }));
        let payload = caught.expect_err("scoped re-raises job panics");
        let msg = payload.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("boom"), "original payload, not a count");
    }

    #[test]
    fn join_preserves_the_first_panic_payload() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("first"));
        pool.execute(|| panic!("second"));
        let caught = catch_unwind(AssertUnwindSafe(|| pool.join()));
        let payload = caught.expect_err("join re-raises job panics");
        // One worker runs the jobs in order, so "first" is the payload
        // that is kept; "second" was dropped, not re-raised.
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("first"));
        // The pool is healthy afterwards: a clean join succeeds.
        pool.execute(|| {});
        pool.join();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(1);
            for _ in 0..20 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn steal_queue_orders_owner_and_thief_ends() {
        let q = StealQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_back(), Some(3), "owner DFS pops newest");
        assert_eq!(q.steal(), Some(1), "thief takes oldest");
        assert_eq!(q.pop_front(), Some(2), "owner BFS pops oldest");
        assert_eq!(q.pop_back(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn steal_queue_is_safe_across_threads() {
        let q = Arc::new(StealQueue::new());
        for i in 0..1000 {
            q.push(i);
        }
        let taken = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let taken = Arc::clone(&taken);
                s.spawn(move || {
                    while q.steal().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), 1000, "every item taken once");
    }
}

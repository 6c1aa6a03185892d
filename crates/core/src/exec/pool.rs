//! Fixed work-stealing worker pool and order-restoring collector.
//!
//! The morsel driver (see [`super::morsel`]) needs two primitives:
//!
//! * [`WorkerPool`] — a fixed set of named OS threads, each with its own
//!   job deque. Submission round-robins across deques; an idle worker
//!   first drains its own deque front-to-back, then *steals* from the
//!   back of a sibling's deque, so skewed morsel costs still keep every
//!   core busy. Workers park with a bounded timeout when idle and are
//!   unparked on submit, so an idle pool burns no CPU.
//! * [`OrderedCollector`] — a sequence-number reorder buffer. Workers
//!   push results tagged with the morsel's submission sequence; the
//!   consumer pops them strictly in sequence order, which is what makes
//!   parallel output byte-identical to the serial pipeline.
//!
//! Locking discipline (geolint `lock-across-blocking`): every mutex
//! guard in this module lives inside an explicit block scope and is
//! dropped *before* any park or job execution. Parking uses
//! [`std::thread::park_timeout`] + [`std::thread::Thread::unpark`] —
//! token-based, so an unpark that races ahead of the park simply makes
//! the next park return immediately; the bounded timeout covers the
//! remaining window without a busy loop.
//!
//! Chunk buffers recycled on worker threads land in the worker's
//! thread-local pool tier and migrate to the shared tier at pool
//! shutdown (see [`crate::model::chunk`]), so cross-thread recycling
//! conserves buffers.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker (or waiting collector consumer) parks before
/// re-checking for work; bounds wakeup latency if an unpark is missed.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

#[derive(Default)]
struct WorkerStats {
    jobs: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
}

/// Point-in-time counters for one worker, for metrics export and the
/// `geostreams_exec_worker_*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStatsSnapshot {
    /// Worker index within the pool.
    pub worker: u64,
    /// Jobs executed (own-queue pops plus steals).
    pub jobs: u64,
    /// Jobs obtained by stealing from a sibling's deque.
    pub steals: u64,
    /// Wall nanoseconds spent inside job closures.
    pub busy_ns: u64,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    stats: Vec<WorkerStats>,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop_own(&self, me: usize) -> Option<Job> {
        let mut q = self.queues[me].lock().unwrap_or_else(PoisonError::into_inner);
        q.pop_front()
    }

    fn steal(&self, me: usize) -> Option<Job> {
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            let job = {
                let mut q = self.queues[victim].lock().unwrap_or_else(PoisonError::into_inner);
                q.pop_back()
            };
            if job.is_some() {
                self.stats[me].steals.fetch_add(1, Ordering::Relaxed);
                return job;
            }
        }
        None
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        let job = match shared.pop_own(me) {
            Some(j) => Some(j),
            None => shared.steal(me),
        };
        match job {
            Some(job) => {
                // One Instant pair per *job* (a whole morsel), not per
                // chunk: the sampled-clock rule does not apply here.
                let t0 = Instant::now();
                job(me);
                let stats = &shared.stats[me];
                stats.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                stats.jobs.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                thread::park_timeout(PARK_TIMEOUT);
            }
        }
    }
}

/// A fixed pool of worker threads with per-worker work-stealing deques.
///
/// Dropping the pool signals shutdown, unparks every worker, and joins
/// them; jobs still queued at that point are executed first (workers
/// only exit once their queues and all steal targets are dry).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Unpark handles, index-aligned with `shared.queues`; `None` where
    /// OS thread creation failed (submission then skips that deque).
    threads: Vec<Option<Thread>>,
    live: Vec<usize>,
    next: AtomicUsize,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one deque is always created).
    /// With zero workers — asked for, or because the OS refused every
    /// thread — jobs run inline on the submitting thread; if the OS
    /// refuses some threads the pool degrades to fewer workers.
    pub fn new(workers: usize) -> WorkerPool {
        let n = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            stats: (0..n).map(|_| WorkerStats::default()).collect(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        let mut live = Vec::with_capacity(workers);
        for i in 0..workers {
            let sh = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("exec-worker-{i}"))
                .spawn(move || worker_loop(&sh, i));
            match spawned {
                Ok(h) => {
                    threads.push(Some(h.thread().clone()));
                    handles.push(h);
                    live.push(i);
                }
                Err(_) => threads.push(None),
            }
        }
        WorkerPool { shared, handles, threads, live, next: AtomicUsize::new(0) }
    }

    /// Number of live worker threads.
    pub fn workers(&self) -> usize {
        self.live.len()
    }

    /// Submits a job; the closure receives the executing worker's index.
    /// Round-robins across live workers. With no live workers (thread
    /// spawn failed everywhere) the job runs inline, so submission never
    /// strands work.
    pub fn submit(&self, job: impl FnOnce(usize) + Send + 'static) {
        if self.live.is_empty() {
            job(0);
            return;
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.live.len();
        let idx = self.live[slot];
        {
            let mut q = self.shared.queues[idx].lock().unwrap_or_else(PoisonError::into_inner);
            q.push_back(Box::new(job));
        }
        if let Some(t) = &self.threads[idx] {
            t.unpark();
        }
    }

    /// Per-worker counters (jobs, steals, busy time) since pool creation.
    pub fn stats(&self) -> Vec<WorkerStatsSnapshot> {
        self.shared
            .stats
            .iter()
            .enumerate()
            .map(|(i, s)| WorkerStatsSnapshot {
                worker: i as u64,
                jobs: s.jobs.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads.iter().flatten() {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers()).finish()
    }
}

struct CollectorState<T> {
    next: u64,
    ready: BTreeMap<u64, T>,
}

/// A sequence-number reorder buffer: producers [`push`](Self::push)
/// results tagged with their submission sequence from any thread; the
/// *constructing* thread pops them back in exact sequence order.
///
/// `wait_next` parks the consumer between arrivals; every push unparks
/// it. Only the thread that constructed the collector may call
/// `wait_next` (it is the one push unparks).
pub struct OrderedCollector<T> {
    inner: Mutex<CollectorState<T>>,
    consumer: Thread,
}

impl<T> OrderedCollector<T> {
    /// A collector whose consumer is the current thread, expecting
    /// sequences `0, 1, 2, …`.
    pub fn new() -> OrderedCollector<T> {
        OrderedCollector {
            inner: Mutex::new(CollectorState { next: 0, ready: BTreeMap::new() }),
            consumer: thread::current(),
        }
    }

    /// Delivers the result for sequence number `seq` (each sequence must
    /// be pushed exactly once).
    pub fn push(&self, seq: u64, item: T) {
        {
            let mut st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            st.ready.insert(seq, item);
        }
        self.consumer.unpark();
    }

    /// Pops the next in-order result if it has arrived.
    pub fn try_next(&self) -> Option<T> {
        let mut st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = st.next;
        let item = st.ready.remove(&seq)?;
        st.next += 1;
        Some(item)
    }

    /// Blocks (parking) until the next in-order result arrives. Call
    /// only from the constructing thread, and only when that sequence
    /// number is guaranteed to eventually be pushed.
    pub fn wait_next(&self) -> T {
        loop {
            if let Some(item) = self.try_next() {
                return item;
            }
            thread::park_timeout(PARK_TIMEOUT);
        }
    }

    /// Results buffered out of order, waiting for an earlier sequence.
    pub fn pending(&self) -> usize {
        let st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        st.ready.len()
    }

    /// The next sequence number the consumer will pop.
    pub fn next_seq(&self) -> u64 {
        let st = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        st.next
    }
}

impl<T> Default for OrderedCollector<T> {
    fn default() -> Self {
        OrderedCollector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_executes_every_submitted_job() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(4);
            for _ in 0..64 {
                let c = Arc::clone(&counter);
                pool.submit(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins after draining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn zero_workers_run_jobs_inline_on_the_submitting_thread() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let me = thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&ran_on);
        pool.submit(move |_| *slot.lock().unwrap() = Some(thread::current().id()));
        // Inline: done by the time `submit` returns, on this thread.
        assert_eq!(*ran_on.lock().unwrap(), Some(me));
    }

    #[test]
    fn pool_stats_account_for_all_jobs() {
        let pool = WorkerPool::new(2);
        let gate = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let g = Arc::clone(&gate);
            pool.submit(move |_| {
                g.fetch_add(1, Ordering::Relaxed);
            });
        }
        while gate.load(Ordering::Relaxed) < 32 {
            thread::park_timeout(Duration::from_micros(50));
        }
        let total: u64 = pool.stats().iter().map(|s| s.jobs).sum();
        assert_eq!(total, 32);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn collector_restores_submission_order() {
        let collector = Arc::new(OrderedCollector::new());
        let pool = WorkerPool::new(3);
        for seq in 0..100u64 {
            let col = Arc::clone(&collector);
            pool.submit(move |_| {
                // Reverse-ish completion order within each worker queue.
                if seq % 3 == 0 {
                    thread::park_timeout(Duration::from_micros(200));
                }
                col.push(seq, seq * 10);
            });
        }
        for seq in 0..100u64 {
            assert_eq!(collector.wait_next(), seq * 10);
        }
        assert_eq!(collector.pending(), 0);
        assert_eq!(collector.next_seq(), 100);
    }

    #[test]
    fn try_next_holds_until_gap_fills() {
        let collector: OrderedCollector<&str> = OrderedCollector::new();
        collector.push(1, "b");
        assert!(collector.try_next().is_none(), "seq 0 missing");
        assert_eq!(collector.pending(), 1);
        collector.push(0, "a");
        assert_eq!(collector.try_next(), Some("a"));
        assert_eq!(collector.try_next(), Some("b"));
        assert!(collector.try_next().is_none());
    }

    #[test]
    fn worker_receives_its_index() {
        let pool = WorkerPool::new(2);
        let collector = Arc::new(OrderedCollector::new());
        for seq in 0..8u64 {
            let col = Arc::clone(&collector);
            pool.submit(move |w| col.push(seq, w));
        }
        for _ in 0..8 {
            let w = collector.wait_next();
            assert!(w < 2, "worker index in range, got {w}");
        }
    }
}

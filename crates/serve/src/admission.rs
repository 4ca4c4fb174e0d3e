//! The admission controller: a bounded queue into the worker pool, and a
//! completion board back out of it.
//!
//! The event loop never executes runs; it [`try_enqueue`]s a [`Job`]
//! carrying a routing token and moves on to the next readiness event. A
//! full queue sheds the request immediately (the caller answers
//! `429 Retry-After`) — the queue is the *only* buffer, so a traffic
//! spike costs `capacity` queued specs, never unbounded memory. On
//! drain the queue closes: already-queued jobs still execute (finish
//! in-flight), new arrivals are refused.
//!
//! A worker finishing a job does not own a reply channel; it posts a
//! [`Completion`] onto the shared [`CompletionBoard`] and nudges the
//! loop's [`Notifier`]. The loop drains the board on its next wakeup and
//! routes each completion back to its connection by token — a token with
//! no connection (deadline fired, peer hung up) is simply dropped; the
//! row is already in the cache for the retry.
//!
//! [`try_enqueue`]: AdmissionQueue::try_enqueue

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use jnativeprof::harness::HarnessError;
use jnativeprof::session::SessionSpec;
use jvmsim_cache::CacheKey;
use jvmsim_metrics::{CounterId, MetricsEntry};
use polling::Notifier;

use crate::peer::FetchAttempt;

/// One queued run request.
#[derive(Debug)]
pub struct Job {
    /// The validated spec to execute.
    pub spec: SessionSpec,
    /// The spec's cell-result key, derived once on the loop; `None`
    /// without a cache or when the key could not be derived.
    pub key: Option<CacheKey>,
    /// Routing token: the loop maps the eventual [`Completion`] back to
    /// the waiting connection through it. Tokens are minted from one
    /// monotonic counter and never reused.
    pub token: u64,
    /// The requester's root-span context, carried to the peer-fetch tier
    /// so an answering peer's span joins this request's trace.
    pub traceparent: Option<String>,
    /// Set by the loop when the request's deadline fires; a worker
    /// seeing it skips execution entirely, so a request the client
    /// already gave up on is never run (and never double-counted).
    pub abandoned: Arc<AtomicBool>,
}

impl Job {
    /// Has the requester given up on this job?
    #[must_use]
    pub fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }
}

/// What a finished job hands back to the loop.
#[derive(Debug)]
pub struct JobOutput {
    /// The canonical row JSON — byte-identical to the batch artifact.
    pub row: String,
    /// The run's total PCL cycles (the span plane's `recompute` stage);
    /// meaningless when `hit` (nothing was recomputed).
    pub cycles: u64,
    /// Was the row supplied by a peer's cache instead of a recompute?
    pub hit: bool,
    /// Every peer-fetch wire attempt, for span attribution.
    pub attempts: Vec<FetchAttempt>,
}

/// One finished job: the token it was queued under plus its result.
#[derive(Debug)]
pub struct Completion {
    /// Routing token of the originating [`Job`].
    pub token: u64,
    /// The row (or harness failure) the worker produced.
    pub result: Result<JobOutput, HarnessError>,
}

/// Where workers post finished jobs for the loop to collect.
///
/// A plain mutex-guarded vector plus the loop's [`Notifier`]: posting is
/// O(1) and wakes the loop exactly when there is something to route,
/// with no per-job channel allocation.
pub struct CompletionBoard {
    completed: Mutex<Vec<Completion>>,
    notifier: Notifier,
}

impl CompletionBoard {
    /// A board that wakes `notifier` on every post.
    #[must_use]
    pub fn new(notifier: Notifier) -> CompletionBoard {
        CompletionBoard {
            completed: Mutex::new(Vec::new()),
            notifier,
        }
    }

    /// Post one finished job and wake the loop.
    pub fn post(&self, completion: Completion) {
        self.completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(completion);
        self.notifier.notify();
    }

    /// Take everything posted since the last drain (loop thread only).
    #[must_use]
    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut self.completed.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Why a job was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity: shed with `429`.
    Full,
    /// The server is draining: refuse with `503`.
    Closed,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded request queue feeding the worker pool.
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` pending jobs (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `job`, or refuse it without blocking. On success, returns
    /// the number of jobs that were already queued ahead of it — the
    /// depth the span plane prices its `queue_wait` stage from.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Full`] at capacity, [`AdmissionError::Closed`]
    /// once draining began. The job is dropped either way.
    pub fn try_enqueue(&self, job: Job) -> Result<usize, AdmissionError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(AdmissionError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(AdmissionError::Full);
        }
        let ahead = state.jobs.len();
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(ahead)
    }

    /// Block until a job is available. `None` once the queue is closed
    /// *and* empty — the worker-pool exit signal; jobs queued before the
    /// close still come out first (drain finishes in-flight work).
    pub fn dequeue(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Begin draining: refuse new jobs, wake every worker so the pool can
    /// run down the backlog and exit.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Pending jobs (diagnostics only; racy by nature).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .len()
    }

    /// Is the queue empty right now?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A daemon's admission ledger plus its fleet counters, frozen from a
/// metrics snapshot. The cluster sums a member's lives via
/// [`AdmissionLedger::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionLedger {
    /// Requests admitted (the ledger's left-hand side).
    pub accepted: u64,
    /// Answered 2xx.
    pub served: u64,
    /// Load-shed 429.
    pub shed: u64,
    /// 408/504 deadline outcomes.
    pub timeout: u64,
    /// Connection dropped before the response was written.
    pub dropped: u64,
    /// Other 4xx/5xx.
    pub errors: u64,
    /// Rows actually computed through a worker.
    pub runs_executed: u64,
    /// Local misses satisfied by a peer's store.
    pub peer_hits: u64,
    /// Peer walks exhausted into a local recompute.
    pub peer_misses: u64,
    /// Extra peer-fetch attempts after the first.
    pub retries: u64,
    /// Entries evicted by store compaction.
    pub evictions: u64,
}

impl AdmissionLedger {
    /// Extract the serve-plane counters from a daemon's metric entries
    /// (the first entry is the server's own registry).
    #[must_use]
    pub fn from_entries(entries: &[MetricsEntry]) -> AdmissionLedger {
        let Some(entry) = entries.first() else {
            return AdmissionLedger::default();
        };
        let c = |id| entry.snapshot.counter(id);
        AdmissionLedger {
            accepted: c(CounterId::ServeAccepted),
            served: c(CounterId::ServeServed),
            shed: c(CounterId::ServeShed),
            timeout: c(CounterId::ServeTimeout),
            dropped: c(CounterId::ServeDropped),
            errors: c(CounterId::ServeErrors),
            runs_executed: c(CounterId::ServeRunsExecuted),
            peer_hits: c(CounterId::ClusterPeerHits),
            peer_misses: c(CounterId::ClusterPeerMisses),
            retries: c(CounterId::ClusterRetries),
            evictions: c(CounterId::ClusterEvictions),
        }
    }

    /// Does the admission ledger balance? (`accepted` equals the sum of
    /// the five exclusive outcome classes.)
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.accepted == self.served + self.shed + self.timeout + self.dropped + self.errors
    }

    /// Add another life's totals into this one.
    pub fn absorb(&mut self, other: &AdmissionLedger) {
        self.accepted += other.accepted;
        self.served += other.served;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.dropped += other.dropped;
        self.errors += other.errors;
        self.runs_executed += other.runs_executed;
        self.peer_hits += other.peer_hits;
        self.peer_misses += other.peer_misses;
        self.retries += other.retries;
        self.evictions += other.evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ProblemSize;

    fn job(token: u64) -> Job {
        Job {
            spec: SessionSpec::new(
                "compress",
                jnativeprof::harness::AgentChoice::None,
                ProblemSize::S1,
            ),
            key: None,
            token,
            traceparent: None,
            abandoned: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn sheds_at_capacity_and_refuses_after_close() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_enqueue(job(0)).unwrap(), 0);
        assert_eq!(q.try_enqueue(job(1)).unwrap(), 1);
        assert_eq!(q.try_enqueue(job(2)).unwrap_err(), AdmissionError::Full);
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_enqueue(job(3)).unwrap_err(), AdmissionError::Closed);
        // Queued-before-close jobs still drain, then the pool exit signal.
        assert_eq!(q.dequeue().map(|j| j.token), Some(0));
        assert_eq!(q.dequeue().map(|j| j.token), Some(1));
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn dequeue_blocks_until_work_or_close() {
        let q = Arc::new(AdmissionQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let first = q2.dequeue().is_some();
            let second = q2.dequeue().is_none();
            (first, second)
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.try_enqueue(job(0)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        let (first, second) = consumer.join().unwrap();
        assert!(first, "blocked dequeue must see the enqueued job");
        assert!(second, "closed empty queue must signal exit");
    }

    #[test]
    fn abandoned_flag_is_visible_to_workers() {
        let j = job(0);
        assert!(!j.is_abandoned());
        j.abandoned.store(true, Ordering::Release);
        assert!(j.is_abandoned());
    }

    #[test]
    fn board_collects_posts_and_wakes_the_notifier() {
        let poller = polling::Poller::new().unwrap();
        let board = Arc::new(CompletionBoard::new(poller.notifier()));
        let poster = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                board.post(Completion {
                    token: 41,
                    result: Err(HarnessError::Vm("x".to_owned())),
                });
                board.post(Completion {
                    token: 42,
                    result: Ok(JobOutput {
                        row: "{}".to_owned(),
                        cycles: 7,
                        hit: false,
                        attempts: Vec::new(),
                    }),
                });
            })
        };
        // The notifier must wake a blocked wait even with no fd events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(std::time::Duration::from_secs(5)))
            .unwrap();
        poster.join().unwrap();
        let drained = board.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].token, 41);
        assert!(drained[1].result.is_ok());
        assert!(board.drain().is_empty(), "drain empties the board");
    }

    #[test]
    fn admission_ledger_balances_and_absorbs() {
        let mut a = AdmissionLedger {
            accepted: 5,
            served: 3,
            errors: 2,
            ..AdmissionLedger::default()
        };
        assert!(a.balanced());
        let b = AdmissionLedger {
            accepted: 2,
            timeout: 1,
            dropped: 1,
            runs_executed: 4,
            ..AdmissionLedger::default()
        };
        assert!(b.balanced());
        a.absorb(&b);
        assert!(a.balanced());
        assert_eq!(a.accepted, 7);
        assert_eq!(a.runs_executed, 4);
        let broken = AdmissionLedger {
            accepted: 1,
            ..AdmissionLedger::default()
        };
        assert!(!broken.balanced());
    }

    #[test]
    fn from_entries_survives_emptiness() {
        assert_eq!(
            AdmissionLedger::from_entries(&[]),
            AdmissionLedger::default()
        );
    }
}

//! A minimal ordered fan-out pool for partition-level join parallelism.
//!
//! Both PBSM and S³J reduce the external join to a sequence of *independent*
//! in-memory joins on pairs of partitions. [`run_ordered`], the one pool,
//! runs those units across worker threads (the partition driver,
//! `storage::PartitionSink`, is its caller) while preserving two properties
//! the rest of the workspace depends on:
//!
//! 1. **Deterministic output order.** Every task is tagged with its index
//!    and the collector re-assembles completions into canonical order
//!    (task 0, 1, 2, …) before handing them to the caller's sink — so the
//!    emitted result stream is byte-identical across thread counts and
//!    scheduling interleavings.
//! 2. **Per-worker state.** Each worker owns private state (forked I/O
//!    counters, its own internal-join instance, a partial stats struct)
//!    created on the worker thread and returned to the caller for a
//!    deterministic merge once all tasks finish.
//!
//! Scheduling is dynamic: workers claim the next unclaimed task from one
//! shared queue, so a straggler partition does not idle the rest of the
//! pool (the work-stealing effect without per-worker deques).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// Explicit cooperative cancellation (operator closed the stream, user
    /// hit ^C, …).
    Cancelled,
    /// A simulated-time deadline expired. The join layer owns the clock; it
    /// trips the shared token with this cause when the budget runs out.
    Deadline,
}

const TOKEN_LIVE: u8 = 0;
const TOKEN_CANCELLED: u8 = 1;
const TOKEN_DEADLINE: u8 = 2;

struct TokenInner {
    state: AtomicU8,
    /// Deterministic test hook: trip (with `Cancelled`) on the `n`-th
    /// [`CancelToken::check`]. `0` = disabled.
    trip_after: AtomicU64,
    checks: AtomicU64,
}

/// A shared cooperative-cancellation flag, checked at partition granularity.
///
/// Cloning shares the flag. Workers poll [`CancelToken::check`] between
/// partitions; whoever trips the token first (an explicit
/// [`CancelToken::cancel`], a deadline owner calling
/// [`CancelToken::cancel_deadline`], or the deterministic
/// [`CancelToken::cancel_after_checks`] test hook) wins, and the cause is
/// latched — later trips do not overwrite it.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
    /// The token a [`child`](CancelToken::child) also observes.
    parent: Option<Arc<TokenInner>>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cause", &self.cause())
            .finish()
    }
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: AtomicU8::new(TOKEN_LIVE),
                trip_after: AtomicU64::new(0),
                checks: AtomicU64::new(0),
            }),
            parent: None,
        }
    }

    /// A run-local stop signal tied to this token. The child reports its
    /// own cause or, failing that, this token's — a non-counting peek that
    /// leaves [`CancelToken::cancel_after_checks`] exact. Tripping the child
    /// never trips this token.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            parent: Some(Arc::clone(&self.inner)),
            ..CancelToken::new()
        }
    }

    /// Trips the token with [`CancelCause::Cancelled`] (first trip wins).
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_CANCELLED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Trips the token with [`CancelCause::Deadline`] (first trip wins).
    pub fn cancel_deadline(&self) {
        let _ = self.inner.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_DEADLINE,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Arms the deterministic test hook: the `n`-th subsequent
    /// [`CancelToken::check`] (1-based) trips the token with
    /// [`CancelCause::Cancelled`]. Lets tests cancel at an exact,
    /// reproducible point of the partition phase.
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.checks.store(0, Ordering::Release);
        self.inner.trip_after.store(n, Ordering::Release);
    }

    /// Polls the token, counting this call toward
    /// [`CancelToken::cancel_after_checks`]. Returns the latched cause once
    /// tripped.
    pub fn check(&self) -> Option<CancelCause> {
        let armed = self.inner.trip_after.load(Ordering::Acquire);
        if armed > 0 {
            let seen = self.inner.checks.fetch_add(1, Ordering::AcqRel) + 1;
            if seen >= armed {
                self.cancel();
            }
        }
        self.cause()
    }

    /// Non-counting peek at the latched cause.
    pub fn cause(&self) -> Option<CancelCause> {
        let cause = |t: &TokenInner| match t.state.load(Ordering::Acquire) {
            TOKEN_CANCELLED => Some(CancelCause::Cancelled),
            TOKEN_DEADLINE => Some(CancelCause::Deadline),
            _ => None,
        };
        cause(&self.inner).or_else(|| self.parent.as_deref().and_then(cause))
    }

    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }
}

/// Cumulative on-CPU time of the calling thread, in seconds, where the
/// platform exposes it (Linux: `/proc/thread-self/schedstat`, nanosecond
/// granularity). `None` elsewhere.
pub fn thread_cpu_seconds() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-9)
}

/// Per-worker compute clock. Measures on-CPU thread time when the platform
/// exposes it, wall time otherwise.
///
/// The distinction matters for the max-over-workers CPU reduction: a worker
/// descheduled by an oversubscribed host still *consumes* no CPU, so on-CPU
/// time reports what the fan-out costs on dedicated cores — the quantity the
/// cost model wants — while wall time would silently double-count
/// timeslicing. Must be read on the thread that created it.
pub struct WorkClock {
    wall: Instant,
    cpu0: Option<f64>,
}

impl WorkClock {
    pub fn start() -> WorkClock {
        WorkClock {
            wall: Instant::now(),
            cpu0: thread_cpu_seconds(),
        }
    }

    /// Seconds of compute since [`WorkClock::start`].
    pub fn seconds(&self) -> f64 {
        match self.cpu0 {
            Some(c0) => thread_cpu_seconds()
                .map(|c| c - c0)
                .unwrap_or_else(|| self.wall.elapsed().as_secs_f64()),
            None => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Number of worker threads the machine supports.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `threads` config knob: `0` means "use all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Scheduling state of [`run_ordered`]: fresh task indices come from
/// `next`, failed tasks wait in `retries` for any worker to pick up.
struct Requeue {
    next: usize,
    retries: Vec<(usize, u32)>, // (task index, round = prior failures)
    in_flight: usize,
    requeues: u64,
}

/// Scheduler-level counters from one [`run_ordered`] run, counted by the
/// shared queue itself — independent of whatever the per-worker states
/// accumulate, so callers can cross-check their own accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh task indices claimed (≤ `n_tasks` under cancellation).
    pub tasks_claimed: u64,
    /// Failed tasks pushed back onto the queue for another round.
    pub requeues: u64,
}

/// Decrements `in_flight` and wakes waiters even if the task panicked —
/// without this a panicking task would leave idle workers blocked on the
/// condvar forever.
struct InFlightGuard<'a> {
    queue: &'a Mutex<Requeue>,
    cvar: &'a Condvar,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut q = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        q.in_flight -= 1;
        self.cvar.notify_all();
    }
}

/// Claims the next job: a queued retry (preferred — it is oldest work) or a
/// fresh index. With `block`, waits while in-flight tasks might still spawn
/// retries and returns `None` only when nothing can arrive (or the token
/// tripped); without, returns `None` as soon as nothing is immediately
/// claimable — the non-blocking probe a pipelining worker uses while it
/// still holds work of its own (waiting there would deadlock on itself).
fn claim_job(
    queue: &Mutex<Requeue>,
    cvar: &Condvar,
    n_tasks: usize,
    cancel: Option<&CancelToken>,
    block: bool,
) -> Option<(usize, u32)> {
    let mut q = queue.lock().expect("requeue lock");
    loop {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        if let Some(job) = q.retries.pop() {
            q.in_flight += 1;
            return Some(job);
        }
        if q.next < n_tasks {
            let i = q.next;
            q.next += 1;
            q.in_flight += 1;
            return Some((i, 0));
        }
        if !block || q.in_flight == 0 {
            return None;
        }
        q = cvar.wait(q).expect("requeue lock");
    }
}

/// Runs `n_tasks` independent fallible tasks over `threads` workers,
/// delivering each task's final result to `sink` **in canonical task
/// order** on the calling thread, streaming (a completed task is emitted as
/// soon as every earlier task has been emitted — the collector never waits
/// for the whole batch). A task runs in two stages, a **load** and a
/// **compute**, with bounded requeueing.
///
/// * `init(worker_idx)` builds one worker's private state on its thread.
/// * `load(&mut state, task_idx, round)` performs the task's input I/O and
///   returns whatever the compute stage needs. It runs exactly once per
///   (task, round) — a requeued round re-loads.
/// * `task(&mut state, task_idx, round, loaded)` consumes the loaded input;
///   `round = 0` on the first run and `round = k` on the `k`-th requeue.
///   Both stages of one task run on the same worker (same forked meter), in
///   order, so per-task deltas stay exact. Tasks are claimed from a shared
///   queue, so assignment to workers is dynamic and non-deterministic —
///   outputs must not depend on which worker ran them.
/// * `sink(task_idx, result)` observes exactly one final result per task,
///   in order 0, 1, 2, ….
///
/// Requeueing: a task that returns `Err` goes back into the shared queue up
/// to `max_requeues` times before its final `Err` is delivered. Each retry
/// runs on whichever worker claims it (round-robin recovery: a partition
/// whose worker exhausted its I/O retry budget gets a fresh chance, and the
/// storage layer's shared per-identity fault counters have advanced in the
/// meantime, so deterministic transient faults are eventually consumed).
///
/// Pipelining: each worker claims and `load`s task `k+1` *before* computing
/// task `k`, so on a multi-channel disk the next partition's pages stream in
/// on their own channel while the current partition's join runs
/// (double-buffered prefetch — the channel model turns the overlap into
/// hidden simulated time).
///
/// Cooperative cancellation: workers poll `cancel` before claiming (fresh
/// indices *and* queued retries) and stop claiming once it trips; claimed
/// tasks — a prefetched one included — still complete. Fresh tasks are
/// claimed in index order, so the sink observes the contiguous prefix of
/// tasks claimed before the trip: a cancelled run's partial output is a
/// clean prefix, never a gapped subset.
///
/// Returns every worker's final state (indexed by worker), for the caller
/// to merge deterministically, with the scheduler's own [`PoolStats`].
/// Panics in a stage propagate.
#[allow(clippy::too_many_arguments)] // the pool's knobs plus its three stages
pub fn run_ordered<S, L, T, E, FInit, FLoad, FTask, FSink>(
    threads: usize,
    n_tasks: usize,
    max_requeues: u32,
    cancel: Option<&CancelToken>,
    init: FInit,
    load: FLoad,
    task: FTask,
    mut sink: FSink,
) -> (Vec<S>, PoolStats)
where
    S: Send,
    L: Send,
    T: Send,
    E: Send,
    FInit: Fn(usize) -> S + Sync,
    FLoad: Fn(&mut S, usize, u32) -> L + Sync,
    FTask: Fn(&mut S, usize, u32, L) -> Result<T, E> + Sync,
    FSink: FnMut(usize, Result<T, E>),
{
    let threads = threads.max(1).min(n_tasks.max(1));
    let queue = Mutex::new(Requeue {
        next: 0,
        retries: Vec::new(),
        in_flight: 0,
        requeues: 0,
    });
    let cvar = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, E>)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let tx = tx.clone();
                let queue = &queue;
                let cvar = &cvar;
                let init = &init;
                let load = &load;
                let task = &task;
                scope.spawn(move || {
                    let mut state = init(w);
                    // The prefetched job: claimed, loaded, awaiting compute.
                    // Its guard keeps `in_flight` honest if compute panics.
                    let mut held: Option<(usize, u32, L, InFlightGuard)> = None;
                    loop {
                        let (i, round, loaded, guard) = match held.take() {
                            Some(j) => j,
                            None => {
                                // A held job is computed even after a cancel
                                // trip (it was claimed); claim_job refuses
                                // new claims once tripped.
                                match claim_job(queue, cvar, n_tasks, cancel, true) {
                                    Some((i, round)) => {
                                        let guard = InFlightGuard { queue, cvar };
                                        let l = load(&mut state, i, round);
                                        (i, round, l, guard)
                                    }
                                    None => break,
                                }
                            }
                        };
                        // Double buffering: claim and load the next job
                        // before computing this one. Non-blocking — waiting
                        // here while holding unfinished work would deadlock
                        // the pool on itself.
                        if let Some((j, r)) = claim_job(queue, cvar, n_tasks, cancel, false) {
                            let g = InFlightGuard { queue, cvar };
                            let l = load(&mut state, j, r);
                            held = Some((j, r, l, g));
                        }
                        match task(&mut state, i, round, loaded) {
                            Err(_) if round < max_requeues => {
                                let mut q = queue.lock().expect("requeue lock");
                                q.retries.push((i, round + 1));
                                q.requeues += 1;
                            }
                            // The receiver outlives the scope; send cannot
                            // fail unless the collector below panicked first.
                            final_res => {
                                let _ = tx.send((i, final_res));
                            }
                        }
                        drop(guard); // decrement + notify after requeue push
                    }
                    state
                })
            })
            .collect();
        drop(tx);
        // Canonical-order reassembly on the calling thread: buffer
        // out-of-order completions and flush the contiguous prefix as it
        // forms, until every worker has hung up its sender.
        let mut pending: BTreeMap<usize, Result<T, E>> = BTreeMap::new();
        let mut emit_next = 0usize;
        for (i, out) in rx {
            pending.insert(i, out);
            while let Some(out) = pending.remove(&emit_next) {
                sink(emit_next, out);
                emit_next += 1;
            }
        }
        let states: Vec<S> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
        let q = match queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let stats = PoolStats {
            tasks_claimed: q.next as u64,
            requeues: q.requeues,
        };
        drop(q);
        (states, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool run with no load stage and no failures.
    fn run_plain<S: Send, T: Send>(
        threads: usize,
        n_tasks: usize,
        cancel: Option<&CancelToken>,
        init: impl Fn(usize) -> S + Sync,
        task: impl Fn(&mut S, usize) -> T + Sync,
        mut sink: impl FnMut(usize, T),
    ) -> Vec<S> {
        let (states, pool) = run_ordered(
            threads,
            n_tasks,
            0,
            cancel,
            init,
            |_, _, _| (),
            |state, i, _round, ()| Ok::<T, ()>(task(state, i)),
            |i, out| sink(i, out.expect("infallible task")),
        );
        assert_eq!(pool.requeues, 0);
        states
    }

    #[test]
    fn outputs_arrive_in_canonical_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let states = run_plain(
                threads,
                100,
                None,
                |w| (w, 0usize),
                |(_, count), i| {
                    *count += 1;
                    // Uneven task costs to force out-of-order completion.
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * 3
                },
                |i, out| {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.push((i, out));
                },
            );
            assert_eq!(seen, (0..100).map(|i| (i, i * 3)).collect::<Vec<_>>());
            // One state per worker, in worker order; every task ran once.
            assert_eq!(states.len(), threads);
            for (w, (id, _)) in states.iter().enumerate() {
                assert_eq!(*id, w);
            }
            assert_eq!(states.iter().map(|(_, n)| n).sum::<usize>(), 100);
        }
    }

    #[test]
    fn thread_knob_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn work_clock_is_monotonic_and_tracks_compute() {
        let clock = WorkClock::start();
        let t0 = clock.seconds();
        // Burn a little CPU so the clock has something to count.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(acc != 1); // keep the loop alive
        let t1 = clock.seconds();
        assert!(t0 >= 0.0);
        assert!(t1 >= t0, "clock went backwards: {t0} -> {t1}");
    }

    #[test]
    fn prefetch_pool_requeues_up_to_cap() {
        use std::collections::HashMap;
        use std::sync::Mutex as StdMutex;
        // Task i fails its first `i % 3` runs; with cap 2 every task
        // eventually succeeds, in canonical order, reporting the round it
        // succeeded on, with load running exactly once per (task, round).
        for threads in [1, 2, 4, 8] {
            let loads: StdMutex<HashMap<(usize, u32), u32>> = StdMutex::new(HashMap::new());
            let mut seen = Vec::new();
            let (_, pool) = run_ordered(
                threads,
                30,
                2,
                None,
                |_| (),
                |_, i, round| {
                    *loads.lock().unwrap().entry((i, round)).or_insert(0) += 1;
                    i * 10 // the "loaded" payload
                },
                |_, i, round, loaded| {
                    assert_eq!(loaded, i * 10, "compute sees its own load");
                    if round < (i % 3) as u32 {
                        Err(format!("task {i} round {round}"))
                    } else {
                        Ok((i, round))
                    }
                },
                |i, out| seen.push((i, out)),
            );
            assert_eq!(seen.len(), 30);
            for (idx, (i, out)) in seen.iter().enumerate() {
                assert_eq!(idx, *i, "canonical order");
                let (task, round) = out.as_ref().expect("all tasks recover within cap");
                assert_eq!((*task, *round), (idx, (idx % 3) as u32));
            }
            let l = loads.lock().unwrap();
            for i in 0..30usize {
                for round in 0..=(i % 3) as u32 {
                    assert_eq!(l.get(&(i, round)), Some(&1), "task {i} round {round}");
                }
            }
            assert_eq!(
                l.len(),
                (0..30).map(|i| i % 3 + 1).sum::<usize>(),
                "no extra rounds"
            );
            // Scheduler-side counters agree with the task-side bookkeeping:
            // every task was claimed once fresh, and each requeue is one
            // failed round, i.e. sum over i of (i % 3).
            assert_eq!(pool.tasks_claimed, 30);
            assert_eq!(pool.requeues, (0..30).map(|i| (i % 3) as u64).sum::<u64>());
        }
    }

    #[test]
    fn prefetch_pool_surfaces_final_error_after_cap() {
        for threads in [1, 3] {
            let mut results = Vec::new();
            let (_, pool) = run_ordered(
                threads,
                10,
                1,
                None,
                |_| (),
                |_, i, _r| i,
                |_, i, _round, loaded| {
                    if loaded == 4 {
                        Err("always fails")
                    } else {
                        Ok(i)
                    }
                },
                |i, out| results.push((i, out)),
            );
            assert_eq!(results.len(), 10);
            for (i, out) in &results {
                if *i == 4 {
                    assert_eq!(*out, Err("always fails"));
                } else {
                    assert_eq!(*out, Ok(*i));
                }
            }
            assert_eq!(pool.requeues, 1, "task 4 requeued once before the cap");
        }
    }

    #[test]
    fn cancelled_prefetch_pool_emits_a_clean_prefix() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let mut seen = Vec::new();
            run_ordered(
                threads,
                100,
                0,
                Some(&token),
                |_| (),
                |_, i, _r| i,
                |_, i, _round, _loaded| {
                    if i == 10 {
                        token.cancel();
                    }
                    Ok::<usize, ()>(i)
                },
                |i, out| seen.push((i, out)),
            );
            // Everything emitted is the contiguous prefix 0..k, and the trip
            // stopped the pool well short of the full run.
            assert!(seen.len() < 100, "pool ran to completion despite cancel");
            for (idx, (i, out)) in seen.iter().enumerate() {
                assert_eq!((idx, Ok(idx)), (*i, *out));
            }
            assert!(seen.len() >= 11, "claimed (and prefetched) tasks complete");
        }
    }

    #[test]
    fn prefetch_pool_zero_tasks_is_fine() {
        let (states, pool) = run_ordered(
            4,
            0,
            3,
            None,
            |_| (),
            |_, i, _r| i,
            |_, _s, _i, _r| Ok::<(), ()>(()),
            |_, _| panic!("no tasks"),
        );
        assert_eq!(states.len(), 1, "pool clamps to one idle worker");
        assert_eq!(pool, PoolStats::default());
    }

    #[test]
    fn cancel_token_latches_first_cause() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), None);
        t.cancel_deadline();
        t.cancel(); // later trip must not overwrite the cause
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        assert_eq!(t.check(), Some(CancelCause::Deadline));
        let shared = t.clone();
        assert!(shared.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn a_child_observes_its_parent_but_never_trips_it() {
        let parent = CancelToken::new();
        parent.cancel_after_checks(2);
        let child = parent.child();
        child.cancel();
        assert_eq!(child.cause(), Some(CancelCause::Cancelled));
        assert!(
            !parent.is_cancelled(),
            "tripping a child tripped its parent"
        );
        let child = parent.child();
        assert!(!child.is_cancelled() && child.check().is_none());
        assert_eq!(parent.check(), None, "child polls do not count");
        parent.cancel_deadline();
        assert_eq!(child.cause(), Some(CancelCause::Deadline));
    }

    #[test]
    fn cancel_after_checks_trips_on_the_exact_check() {
        let t = CancelToken::new();
        t.cancel_after_checks(3);
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), None);
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
        assert_eq!(t.check(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn cancelled_prefetch_pool_stops_claiming_retries() {
        let token = CancelToken::new();
        let mut seen = Vec::new();
        let (_, pool) = run_ordered(
            2,
            50,
            3,
            Some(&token),
            |_| (),
            |_, i, _r| i,
            |_, i, round, _loaded| {
                if i == 5 && round == 0 {
                    token.cancel();
                    return Err("tripped mid-task");
                }
                Ok::<usize, &str>(i)
            },
            |i, out| seen.push((i, out)),
        );
        assert!(seen.len() < 50);
        // Task 5's retry was queued but never claimed: nothing after the
        // first gap is emitted, and everything emitted is ordered.
        for w in seen.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(!seen.iter().any(|(i, _)| *i == 5));
        assert_eq!(pool.requeues, 1, "the tripped task was queued for retry");
        assert!(pool.tasks_claimed < 50);
    }
}

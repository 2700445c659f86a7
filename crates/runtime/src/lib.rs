//! Persistent worker pool powering every parallel region in the workspace.
//!
//! A tuned SpMV may run for microseconds while creating a thread costs tens
//! of them, so the executor's `parallelize(var, threads, chunk)` runs on a
//! fixed set of workers parked on a condvar: each parallel region is
//! broadcast to them, and they *claim ranges of the loop* through a shared
//! atomic counter — the `schedule(dynamic, chunk)` load-balancing the
//! paper's chunk-size knob tunes (Table 6 attributes about half of WACO's
//! wins to it) — writing the region's one output in place through
//! [`DisjointMut`]: nothing is allocated, zeroed or merged per participant.
//!
//! Design notes:
//!
//! * **A pool the size of the host.** [`ThreadPool::global`] has
//!   `available_parallelism()` participants (or `WACO_POOL_THREADS`): a
//!   schedule tuned for 48 simulated threads gets what the process has.
//! * **`chunk` is the minimum grain, not the claim size.** One `fetch_add`
//!   claims as many consecutive chunks as leave the region about 32 claims
//!   per participant (`claim_chunks`), so `chunk = 1` is not one contended
//!   atomic per row, and neighbouring rows — which share cache lines of the
//!   output — stay with one thread. A stated deviation from OpenMP's
//!   `dynamic, chunk`, invisible in the output: which thread ran an
//!   iteration never changes what it writes.
//! * **Caller participation.** The submitting thread always runs slot 0
//!   itself, so a pool of `N` workers serves parallel regions of up to
//!   `N + 1` participants and a `threads = 1` region never touches the
//!   pool at all — it runs `0..extent` as one range.
//! * **Nested or concurrent regions fall back to inline execution.** Only
//!   one region is active at a time; a second submission (from a worker
//!   thread, or from another thread while the pool is busy) runs all its
//!   slots sequentially on the caller. This keeps the pool deadlock-free
//!   without a task queue, and is semantically identical because every
//!   region must tolerate any range→worker assignment.
//! * **Two tasks, never lost.** [`ThreadPool::join`] is the region of two
//!   unequal tasks: the caller runs `a`, and `b` sits in one slot that the
//!   first participant to reach it takes — a woken worker, or the caller
//!   once `a` returns. A bare two-slot `broadcast` would not do: its slot 1
//!   is dropped when no worker claims it before the caller withdraws the
//!   job. The cold tune is its user (`a` runs the upper band of the feature
//!   extraction, the Stage-1 prune, the search and most of the measurement;
//!   `b` the lower band and the walks over the default's storage), and so
//!   is `CostModel::extract_feature` (one band each).
//! * **Panic propagation.** A panic in any slot is captured and re-raised
//!   on the submitting thread after the region quiesces, so no worker dies
//!   and the pool stays usable.
//!
//! When a `waco-obs` subscriber is installed the pool reports
//! `runtime.parallel_regions`, `runtime.chunks_claimed` (total chunks, all
//! participants), `runtime.chunks_stolen` (chunks claimed by non-submitting
//! workers), `runtime.broadcasts` / `runtime.inline_regions`, and
//! `runtime.parks` / `runtime.wakes` from the worker condvar. Totals are
//! deterministic in the work, not the worker count or the claim size:
//! `chunks_claimed` for a region is always `ceil(extent / chunk)`.
//!
//! Beside the pool: [`DisjointMut`], the handle parallel kernels write one
//! shared output through; [`hash`], the workspace's one FNV-1a 64; and
//! [`poll`], one `poll(2)` call and a cross-thread waker — the readiness
//! the serve layer's event loop runs on.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

mod disjoint;
pub mod hash;
#[cfg(unix)]
pub mod poll;

pub use disjoint::{Claim, DisjointMut};

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A parallel region handed to the workers. The `'static` lifetime is a
/// lie told under strict supervision: [`ThreadPool::run_on_pool`] does not
/// return (not even by unwinding) until the job is withdrawn and every
/// worker that claimed a slot has finished, so the borrow it erases always
/// outlives every use.
type Task = &'static (dyn Fn(usize) + Sync);

struct PendingJob {
    func: Task,
    /// Next participant slot to hand out (slot 0 is the submitter's).
    next_slot: usize,
    /// Total participants, including the submitter.
    cap: usize,
}

struct PoolState {
    job: Option<PendingJob>,
    /// Workers currently inside a claimed slot (submitter not counted).
    running: usize,
    /// First panic payload captured from a worker slot.
    panic_payload: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a job (or shutdown).
    work_cv: Condvar,
    /// The submitter parks here waiting for `running == 0`.
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // A worker can only poison the lock by panicking between lock and
        // unlock, and all user code runs outside the lock under
        // catch_unwind; recover defensively anyway.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Marks the pool free again when a region leaves it, by unwinding too.
struct BusyReset<'a>(&'a AtomicBool);

impl Drop for BusyReset<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A persistent pool of parked worker threads.
pub struct ThreadPool {
    shared: &'static Shared,
    busy: AtomicBool,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool serving parallel regions of up to `participants`
    /// threads (the submitting thread plus `participants - 1` workers).
    /// `participants <= 1` builds a pool with no workers: every region
    /// runs inline.
    pub fn new(participants: usize) -> Self {
        let workers = participants.saturating_sub(1);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                running: 0,
                panic_payload: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        let handles = (0..workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("waco-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            busy: AtomicBool::new(false),
            handles,
            workers,
        }
    }

    /// The process-wide pool: `WACO_POOL_THREADS` participants
    /// when that is set to an integer ≥ 1, else the host's
    /// `available_parallelism()` (the rule is `pool_size`).
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            let var = std::env::var("WACO_POOL_THREADS").ok();
            ThreadPool::new(pool_size(var.as_deref(), host))
        })
    }

    /// Maximum number of participants a single region can have.
    pub fn max_participants(&self) -> usize {
        self.workers + 1
    }

    /// Runs `f(0)` on the caller and `f(slot)` once for each further slot
    /// of `1..participants` that a worker claims before `f(0)` returns — a
    /// slot no worker reached in time is not run, so `f` shares its work
    /// through something slot 0 drains (a claim counter; [`Self::join`]'s
    /// one task slot). Blocks until every claimed slot finishes; re-raises
    /// the first panic observed. Falls back to running every slot
    /// sequentially on the caller when the pool is busy, when called from
    /// inside a pool worker, or when `participants <= 1`.
    pub fn broadcast(&self, participants: usize, f: impl Fn(usize) + Sync) {
        let participants = participants.clamp(1, self.max_participants());
        let Some(_busy) = self.enter(participants) else {
            for slot in 0..participants {
                f(slot);
            }
            return;
        };
        self.run_on_pool(participants, &f, || f(0));
    }

    /// Runs `a` and `b`, in parallel when a worker is free, and returns
    /// `(a(), b())`. The calling thread always runs `a`. `b` goes to
    /// whichever participant reaches it first: a worker woken for it, or the
    /// caller once `a` has returned, so a worker that wakes late leaves `b`
    /// to the caller and `b` runs exactly once either way. A pool of one
    /// participant, a busy pool, or a call from inside a pool worker runs
    /// `a` and then `b` inline on the caller. A panic in either is re-raised
    /// on the caller once neither is running, and the pool stays usable.
    pub fn join<RA, RB: Send>(
        &self,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let Some(_busy) = self.enter(self.max_participants().min(2)) else {
            let ra = a();
            return (ra, b());
        };
        let b = Mutex::new(Some(b));
        let rb = Mutex::new(None);
        // Whoever takes `b` out of its slot first runs it; everyone after
        // finds the slot empty.
        let run_b = || {
            let b = b.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(b) = b {
                let r = b();
                *rb.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            }
        };
        let mut ra = None;
        self.run_on_pool(2, &|_| run_b(), || {
            ra = Some(a());
            run_b();
        });
        let rb = rb.into_inner().unwrap_or_else(|e| e.into_inner());
        (
            ra.expect("the caller ran `a`"),
            rb.expect("`b` ran on the caller or a worker"),
        )
    }

    /// Takes the pool for one region of `participants`: the guard frees it
    /// when dropped. `None` when the region must run inline on the caller —
    /// one participant, a call from inside a pool worker, or a pool already
    /// running another region.
    fn enter(&self, participants: usize) -> Option<BusyReset<'_>> {
        if participants <= 1
            || IN_POOL_WORKER.with(Cell::get)
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            waco_obs::counter("runtime.inline_regions", 1);
            return None;
        }
        waco_obs::counter("runtime.broadcasts", 1);
        Some(BusyReset(&self.busy))
    }

    /// Posts `slot` for workers to claim slots `1..participants` of, runs
    /// `mine` (the caller's share) meanwhile, then withdraws the job and
    /// waits for every claimed slot before returning or re-raising.
    fn run_on_pool(&self, participants: usize, slot: &(dyn Fn(usize) + Sync), mine: impl FnOnce()) {
        // SAFETY: the job is withdrawn below and `running` drained to zero
        // before this function returns or unwinds, so no worker can touch
        // `func` after `slot`'s borrow expires (see the `Task` doc comment).
        let func: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(slot) };
        {
            let mut st = self.shared.lock();
            debug_assert!(st.job.is_none() && st.running == 0, "pool region overlap");
            st.job = Some(PendingJob {
                func,
                next_slot: 1,
                cap: participants,
            });
            self.shared.work_cv.notify_all();
        }
        // The caller's share never waits for a worker: chunk stealing (or,
        // for `join`, taking `b` itself) completes the region even if no
        // worker wakes in time.
        let mine = panic::catch_unwind(AssertUnwindSafe(mine));
        let worker_panic = {
            let mut st = self.shared.lock();
            st.job = None; // no further slot claims; late workers see nothing
            while st.running > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.panic_payload.take()
        };
        if let Err(p) = mine {
            panic::resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            panic::resume_unwind(p);
        }
    }

    /// Dynamic-chunk parallel loop: runs `run(range)` over ranges that
    /// partition `0..extent`, claimed through a shared counter by up to
    /// `threads` participants. Every range starts on a multiple of `chunk`
    /// and spans `claim_chunks` of them (the last is cut at `extent`); which
    /// participant runs which range is not deterministic, so `run` must
    /// write only what its own indices own — see [`DisjointMut`]. One
    /// participant (`threads <= 1`, one chunk, or a pool without workers)
    /// runs `0..extent` as a single range on the caller.
    pub fn run_chunked(
        &self,
        extent: usize,
        threads: usize,
        chunk: usize,
        run: impl Fn(Range<usize>) + Sync,
    ) {
        let chunk = chunk.max(1);
        let nchunks = extent.div_ceil(chunk);
        let want = threads
            .clamp(1, nchunks.max(1))
            .min(self.max_participants());
        waco_obs::counter("runtime.parallel_regions", 1);
        if want <= 1 {
            if extent > 0 {
                run(0..extent);
            }
            waco_obs::counter("runtime.chunks_claimed", nchunks as u64);
            return;
        }
        let grain = claim_chunks(nchunks, want) * chunk;
        let next = AtomicUsize::new(0);
        self.broadcast(want, |slot| {
            let mut claimed = 0u64;
            loop {
                // Relaxed: the counter hands out indices and publishes
                // nothing; the pool's lock at the region's end publishes
                // what the ranges wrote.
                let start = next.fetch_add(grain, Ordering::Relaxed);
                if start >= extent {
                    break;
                }
                let end = start.saturating_add(grain).min(extent);
                run(start..end);
                claimed += (end - start).div_ceil(chunk) as u64;
            }
            if claimed > 0 {
                waco_obs::counter("runtime.chunks_claimed", claimed);
                if slot != 0 {
                    waco_obs::counter("runtime.chunks_stolen", claimed);
                }
            }
        });
    }

    /// Parallel map preserving item order: evaluates `f` on every item
    /// using up to `threads` participants and returns the results in input
    /// order. Items are claimed one at a time (chunk size 1), which suits
    /// coarse work like simulating one tuning candidate.
    pub fn map<T: Sync, R: Send>(
        &self,
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let want = threads
            .clamp(1, items.len().max(1))
            .min(self.max_participants());
        if want <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.broadcast(want, |_slot| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let r = f(item);
            *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        });
        out.into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every index claimed and completed")
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // `self.shared` is intentionally leaked (a pool lives for the
        // process in practice; tests create a handful at most).
    }
}

fn worker_loop(shared: &'static Shared) {
    IN_POOL_WORKER.with(|b| b.set(true));
    let mut st = shared.lock();
    loop {
        if let Some(job) = &mut st.job {
            if job.next_slot < job.cap {
                let slot = job.next_slot;
                job.next_slot += 1;
                let func = job.func;
                st.running += 1;
                drop(st);
                let r = panic::catch_unwind(AssertUnwindSafe(|| func(slot)));
                st = shared.lock();
                if let Err(p) = r {
                    st.panic_payload.get_or_insert(p);
                }
                st.running -= 1;
                shared.done_cv.notify_all();
                continue;
            }
        }
        if st.shutdown {
            return;
        }
        waco_obs::counter("runtime.parks", 1);
        st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        waco_obs::counter("runtime.wakes", 1);
    }
}

/// `WACO_POOL_THREADS` → participants of the global pool: the variable when
/// it parses to at least 1, else `host` (`available_parallelism()`).
fn pool_size(var: Option<&str>, host: usize) -> usize {
    var.and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(host)
}

/// Claims a region aims to leave each participant: too few and the last
/// claim to finish idles the other threads when rows are skewed, too many
/// and the shared counter and the output's cache lines bounce between cores
/// again. 32 is within 5 % of the best on every case of the sweep in DESIGN
/// §4.1.1 (uniform and power-law rows, chunk 1); nothing under 16 or over
/// 512 is.
const CLAIMS_PER_PARTICIPANT: usize = 32;

/// How many consecutive chunks one claim takes in a region of `nchunks`
/// chunks and `participants` threads: the schedule's chunk is the minimum
/// grain, and a region with chunks to spare batches them down to about
/// `CLAIMS_PER_PARTICIPANT` claims each.
fn claim_chunks(nchunks: usize, participants: usize) -> usize {
    (nchunks / (participants.max(1) * CLAIMS_PER_PARTICIPANT)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Sum of the indices a region ran, and how many ranges it ran them in.
    fn index_sum(run: impl FnOnce(&(dyn Fn(Range<usize>) + Sync))) -> (u64, usize) {
        let (sum, ranges) = (AtomicU64::new(0), AtomicUsize::new(0));
        run(&|r: Range<usize>| {
            sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
            ranges.fetch_add(1, Ordering::Relaxed);
        });
        (sum.into_inner(), ranges.into_inner())
    }

    #[test]
    fn one_participant_runs_one_range_and_matches_parallel() {
        let pool = ThreadPool::new(4);
        let serial = index_sum(|f| pool.run_chunked(5000, 1, 13, f));
        let par = index_sum(|f| pool.run_chunked(5000, 4, 13, f));
        assert_eq!(serial, (5000 * 4999 / 2, 1));
        assert_eq!(par.0, serial.0);
        // 385 chunks over 4 participants: 3 chunks per claim.
        assert_eq!(par.1, 385usize.div_ceil(3));
        assert_eq!(index_sum(|f| pool.run_chunked(0, 4, 8, f)), (0, 0));
    }

    #[test]
    fn chunks_batch_down_to_a_claim_count() {
        assert_eq!(claim_chunks(131_072, 2), 2048);
        assert_eq!(claim_chunks(1024, 2), 16);
        // Nothing to spare: the schedule's chunk is the grain.
        assert_eq!(claim_chunks(63, 2), 1);
        assert_eq!(claim_chunks(0, 8), 1);
    }

    #[test]
    fn every_index_written_exactly_once_in_place() {
        let pool = ThreadPool::new(8);
        let mut out = vec![0usize; 1000];
        {
            // SAFETY: each range writes only its own indices.
            let out = unsafe { DisjointMut::new(&mut out) };
            pool.run_chunked(1000, 8, 7, |r| {
                let mut mine = out.claim(r.start);
                for (o, i) in mine.slice(r.clone()).iter_mut().zip(r) {
                    *o += i + 1;
                }
            });
        }
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two owners")]
    fn a_second_owner_panics_in_debug_builds() {
        let mut out = [0u8; 4];
        // SAFETY: not upheld on purpose — the owner check must catch it
        // before the second claim gets a reference.
        let out = unsafe { DisjointMut::new(&mut out) };
        *out.claim(0).at(2) = 1;
        *out.claim(0).at(2) = 2; // same claim again: fine
        out.claim(1).slice(1..3);
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunked(100, 4, 1, |r| {
                if r.contains(&57) {
                    panic!("boom at 57");
                }
            });
        }));
        assert!(attempt.is_err(), "panic must propagate to the submitter");
        // The pool must remain fully usable afterwards.
        assert_eq!(index_sum(|f| pool.run_chunked(100, 4, 3, f)).0, 4950);
    }

    #[test]
    fn nested_regions_run_inline() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        pool.run_chunked(16, 4, 2, |r| {
            // A nested region from inside a slot must not deadlock.
            ThreadPool::global().run_chunked(8, 4, 2, |ir| {
                total.fetch_add(r.len() * ir.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 16 * 8);
    }

    /// Spins until `flag` is set: holds `a` on the caller until a worker
    /// has taken `b`, so the pool path is the one under test.
    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn join_runs_a_on_the_caller_and_returns_both_results() {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let b_started = AtomicBool::new(false);
        let (a, b) = pool.join(
            || {
                wait_for(&b_started);
                (std::thread::current().id(), "a")
            },
            || {
                b_started.store(true, Ordering::Release);
                (std::thread::current().id(), 2)
            },
        );
        assert_eq!(a, (caller, "a"));
        assert_eq!(b.1, 2);
        assert_ne!(b.0, caller, "`b` was taken by the worker");
    }

    #[test]
    fn join_never_loses_b_to_a_late_worker() {
        // `a` returns at once, so the caller and a waking worker race for
        // `b`; whichever takes it, it runs exactly once.
        let pool = ThreadPool::new(2);
        let runs = AtomicUsize::new(0);
        for i in 0..500 {
            let (a, b) = pool.join(|| i, || runs.fetch_add(1, Ordering::Relaxed) + 1);
            assert_eq!((a, b), (i, i + 1));
        }
        assert_eq!(runs.into_inner(), 500);
    }

    /// The task and the thread of every start inside one `join` on `pool`.
    fn join_trace(pool: &ThreadPool) -> Vec<(char, std::thread::ThreadId)> {
        let starts = Mutex::new(Vec::new());
        let log = |task| {
            let me = std::thread::current().id();
            starts.lock().unwrap().push((task, me));
        };
        pool.join(|| log('a'), || log('b'));
        starts.into_inner().unwrap()
    }

    #[test]
    fn join_runs_inline_on_one_participant_a_busy_pool_and_a_worker() {
        let caller = std::thread::current().id();
        assert_eq!(
            join_trace(&ThreadPool::new(1)),
            [('a', caller), ('b', caller)]
        );
        // Slot 0 joins on the caller while its own broadcast holds the pool;
        // slot 1 joins from inside the worker that claimed it.
        let pool = ThreadPool::new(2);
        let worker_in = AtomicBool::new(false);
        let traces = Mutex::new(Vec::new());
        pool.broadcast(2, |slot| {
            if slot == 0 {
                wait_for(&worker_in);
            } else {
                worker_in.store(true, Ordering::Release);
            }
            let me = std::thread::current().id();
            let trace = join_trace(&pool);
            traces.lock().unwrap().push((slot, me, trace));
        });
        let mut traces = traces.into_inner().unwrap();
        traces.sort_by_key(|t| t.0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].1, caller);
        assert_ne!(traces[1].1, caller);
        for (slot, me, trace) in traces {
            assert_eq!(trace, [('a', me), ('b', me)], "slot {slot}");
        }
    }

    #[test]
    fn a_panic_in_b_reaches_the_caller_and_the_pool_survives() {
        for participants in [1, 2] {
            let pool = ThreadPool::new(participants);
            let b_started = AtomicBool::new(false);
            let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || {
                        if participants > 1 {
                            wait_for(&b_started);
                        }
                    },
                    || {
                        b_started.store(true, Ordering::Release);
                        panic!("boom in b")
                    },
                )
            }));
            let payload = attempt.expect_err("`b`'s panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in b"));
            assert_eq!(pool.join(|| 3, || 4), (3, 4));
            assert_eq!(index_sum(|f| pool.run_chunked(100, 4, 3, f)).0, 4950);
        }
    }

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map(&items, 4, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        let empty: Vec<usize> = pool.map(&[] as &[usize], 4, |&x: &usize| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn single_participant_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.max_participants(), 1);
        assert_eq!(index_sum(|f| pool.run_chunked(10, 8, 3, f)), (45, 1));
    }

    #[test]
    fn the_global_pool_is_shared_and_the_size_of_the_host() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(std::ptr::eq(a, b));
        // The sizing rule, apart from the process-wide pool and environment.
        assert_eq!(pool_size(None, 2), 2);
        assert_eq!(pool_size(Some("1"), 2), 1);
        assert_eq!(pool_size(Some("8"), 2), 8);
        for ignored in ["0", "", "-3", "many", "2.5"] {
            assert_eq!(pool_size(Some(ignored), 6), 6, "{ignored:?}");
        }
    }
}

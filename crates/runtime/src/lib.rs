//! Persistent worker pool powering every parallel region in the workspace.
//!
//! The executor's `parallelize(var, threads, chunk)` used to spawn fresh
//! scoped threads on every kernel invocation — pure overhead on the hot
//! path, since a tuned SpMV may run for microseconds while thread creation
//! costs tens of microseconds. This crate keeps a fixed set of workers
//! parked on a condvar and broadcasts each parallel region to them; workers
//! then *steal work at chunk granularity* through a shared atomic counter,
//! which is exactly the `schedule(dynamic, chunk)` load-balancing the
//! paper's chunk-size knob tunes (Table 6 attributes about half of WACO's
//! wins to it).
//!
//! Design notes:
//!
//! * **Caller participation.** The submitting thread always runs slot 0
//!   itself, so a pool of `N` workers serves parallel regions of up to
//!   `N + 1` participants and a `threads = 1` region never touches the
//!   pool at all.
//! * **Nested or concurrent regions fall back to inline execution.** Only
//!   one broadcast is active at a time; a second submission (from a worker
//!   thread, or from another thread while the pool is busy) runs all its
//!   slots sequentially on the caller. This keeps the pool deadlock-free
//!   without a task queue, and is semantically identical because every
//!   region must tolerate any chunk→worker assignment.
//! * **Panic propagation.** A panic in any slot is captured and re-raised
//!   on the submitting thread after the region quiesces, so no worker dies
//!   and the pool stays usable.
//!
//! [`run_chunked_spawn`] preserves the old spawn-per-call strategy as a
//! reference implementation; the `substrates` micro-benchmark compares the
//! two and `results/microbench.json` records the difference.
//!
//! When a `waco-obs` subscriber is installed the pool reports
//! `runtime.parallel_regions`, `runtime.chunks_claimed` (total chunks, all
//! participants), `runtime.chunks_stolen` (chunks claimed by non-submitting
//! workers), `runtime.broadcasts` / `runtime.inline_regions`, and
//! `runtime.parks` / `runtime.wakes` from the worker condvar. Totals are
//! deterministic in the work, not the worker count: `chunks_claimed` for a
//! region is always `ceil(extent / chunk)` whether 1 or 8 workers ran it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

pub mod hash;
#[cfg(unix)]
pub mod poll;

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

    /// The process-wide pool. Sized by `WACO_POOL_THREADS` when set, else
    /// `max(available_parallelism, 8)` total participants, so schedules
    /// tuned for 8-thread machines exercise real concurrency even on
    /// smaller hosts.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::env::var("WACO_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map_or(1, |n| n.get())
                        .max(8)
                });
            ThreadPool::new(n)
        })
    }

    /// Maximum number of participants a single region can have.
    pub fn max_participants(&self) -> usize {
        self.workers + 1
    }

    /// Runs `f(slot)` once for every `slot in 0..participants`, the
    /// submitter taking slot 0. Blocks until all slots finish; re-raises
    /// the first panic observed. Falls back to running every slot
    /// sequentially on the caller when the pool is busy, when called from
    /// inside a pool worker, or when `participants <= 1`.
    pub fn broadcast(&self, participants: usize, f: impl Fn(usize) + Sync) {
        let participants = participants.clamp(1, self.max_participants());
        let nested = IN_POOL_WORKER.with(Cell::get);
        if participants <= 1
            || nested
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            waco_obs::counter("runtime.inline_regions", 1);
            for slot in 0..participants {
                f(slot);
            }
            return;
        }
        waco_obs::counter("runtime.broadcasts", 1);
        struct BusyReset<'a>(&'a AtomicBool);
        impl Drop for BusyReset<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _reset = BusyReset(&self.busy);
        self.run_on_pool(participants, &f);
    }

    fn run_on_pool(&self, participants: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the job is withdrawn below and `running` drained to zero
        // before this function returns or unwinds, so no worker can touch
        // `func` after `f`'s borrow expires (see the `Task` doc comment).
        let func: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(f) };
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
        // Participate as slot 0; chunk stealing means the region completes
        // even if no worker wakes in time.
        let mine = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
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

    /// Dynamic-chunk parallel reduction: cuts `0..extent` into chunks of
    /// `chunk` indices, lets up to `threads` participants claim chunks
    /// through a shared counter, and returns one accumulator per
    /// participant slot. Merge order (the `Vec` order) is deterministic;
    /// which chunks landed in which accumulator is not, so accumulators
    /// must merge by a commutative reduction. `threads <= 1` runs entirely
    /// on the caller.
    pub fn run_chunked<Acc: Send>(
        &self,
        extent: usize,
        threads: usize,
        chunk: usize,
        make_acc: impl Fn() -> Acc + Sync,
        run: impl Fn(std::ops::Range<usize>, &mut Acc) + Sync,
    ) -> Vec<Acc> {
        let chunk = chunk.max(1);
        let nchunks = extent.div_ceil(chunk);
        let want = threads
            .clamp(1, nchunks.max(1))
            .min(self.max_participants());
        waco_obs::counter("runtime.parallel_regions", 1);
        if want <= 1 {
            let acc = run_serial(extent, chunk, &make_acc, &run);
            waco_obs::counter("runtime.chunks_claimed", nchunks as u64);
            return vec![acc];
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Acc>>> = (0..want).map(|_| Mutex::new(None)).collect();
        self.broadcast(want, |slot| {
            let mut acc = make_acc();
            let mut claimed = 0u64;
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let start = idx * chunk;
                if start >= extent {
                    break;
                }
                claimed += 1;
                run(start..(start + chunk).min(extent), &mut acc);
            }
            if claimed > 0 {
                waco_obs::counter("runtime.chunks_claimed", claimed);
                if slot != 0 {
                    waco_obs::counter("runtime.chunks_stolen", claimed);
                }
            }
            *slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(acc);
        });
        // A slot the pool never dispatched (the submitter drained all
        // chunks first) contributes an untouched accumulator, keeping the
        // output length deterministic.
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(&make_acc)
            })
            .collect()
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

fn run_serial<Acc>(
    extent: usize,
    chunk: usize,
    make_acc: &impl Fn() -> Acc,
    run: &impl Fn(std::ops::Range<usize>, &mut Acc),
) -> Acc {
    let mut acc = make_acc();
    let mut start = 0;
    while start < extent {
        run(start..(start + chunk).min(extent), &mut acc);
        start += chunk;
    }
    acc
}

/// The pre-pool strategy, kept as a reference point: spawns fresh scoped
/// threads on every call (what `crossbeam::thread::scope` used to do).
/// Semantically interchangeable with [`ThreadPool::run_chunked`]; the
/// `substrates` micro-benchmark quantifies the per-call overhead this
/// crate removes.
pub fn run_chunked_spawn<Acc: Send>(
    extent: usize,
    threads: usize,
    chunk: usize,
    make_acc: impl Fn() -> Acc + Sync,
    run: impl Fn(std::ops::Range<usize>, &mut Acc) + Sync,
) -> Vec<Acc> {
    let chunk = chunk.max(1);
    let nchunks = extent.div_ceil(chunk);
    let workers = threads.clamp(1, nchunks.max(1));
    if workers <= 1 {
        return vec![run_serial(extent, chunk, &make_acc, &run)];
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let make_acc = &make_acc;
                let run = &run;
                s.spawn(move || {
                    let mut acc = make_acc();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let start = idx * chunk;
                        if start >= extent {
                            break;
                        }
                        run(start..(start + chunk).min(extent), &mut acc);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fallback_matches_parallel_sum() {
        let pool = ThreadPool::new(4);
        let body = |r: std::ops::Range<usize>, acc: &mut u64| {
            for i in r {
                *acc += i as u64;
            }
        };
        let serial: u64 = pool.run_chunked(5000, 1, 13, || 0u64, body).iter().sum();
        let par: u64 = pool.run_chunked(5000, 4, 13, || 0u64, body).iter().sum();
        let spawn: u64 = run_chunked_spawn(5000, 4, 13, || 0u64, body).iter().sum();
        assert_eq!(serial, 5000 * 4999 / 2);
        assert_eq!(par, serial);
        assert_eq!(spawn, serial);
    }

    #[test]
    fn merge_order_is_deterministic() {
        // The *shape* of the result (length, slot order) must not depend
        // on scheduling: always `want` accumulators, slot-indexed.
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let accs = pool.run_chunked(64, 4, 4, || 0usize, |r, a| *a += r.len());
            assert_eq!(accs.len(), 4);
            assert_eq!(accs.iter().sum::<usize>(), 64);
        }
    }

    #[test]
    fn every_index_covered_exactly_once() {
        let pool = ThreadPool::new(8);
        let accs = pool.run_chunked(1000, 8, 7, Vec::new, |r, acc: &mut Vec<usize>| {
            acc.extend(r);
        });
        let mut all: Vec<usize> = accs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunked(
                100,
                4,
                1,
                || 0usize,
                |r, _| {
                    if r.start == 57 {
                        panic!("boom at 57");
                    }
                },
            );
        }));
        assert!(attempt.is_err(), "panic must propagate to the submitter");
        // The pool must remain fully usable afterwards.
        let total: usize = pool
            .run_chunked(100, 4, 3, || 0usize, |r, a| *a += r.len())
            .iter()
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn nested_regions_run_inline() {
        let pool = ThreadPool::new(4);
        let accs = pool.run_chunked(
            16,
            4,
            2,
            || 0usize,
            |r, acc| {
                // A nested region from inside a slot must not deadlock.
                let inner: usize = ThreadPool::global()
                    .run_chunked(8, 4, 2, || 0usize, |ir, ia| *ia += ir.len())
                    .iter()
                    .sum();
                *acc += r.len() * inner;
            },
        );
        assert_eq!(accs.iter().sum::<usize>(), 16 * 8);
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
        let accs = pool.run_chunked(10, 8, 3, Vec::new, |r, acc: &mut Vec<usize>| acc.extend(r));
        assert_eq!(accs.len(), 1);
        assert_eq!(accs[0], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.max_participants() >= 1);
    }
}

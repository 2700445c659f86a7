//! The `waco-obs` registry must aggregate runtime counters identically no
//! matter how many pool workers contribute or how many chunks one claim
//! batches: work-stealing may move ranges between threads, but every chunk
//! is claimed exactly once, so `runtime.chunks_claimed` is deterministic
//! while `runtime.chunks_stolen` only redistributes.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use waco_runtime::ThreadPool;

// The obs registry is process-global; serialize the tests that install it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const EXTENT: usize = 4096;
const CHUNK: usize = 64;

fn run_with_workers(threads: usize) -> (u64, waco_obs::Snapshot) {
    let pool = ThreadPool::new(threads);
    waco_obs::reset();
    let sum = AtomicU64::new(0);
    pool.run_chunked(EXTENT, threads, CHUNK, |r| {
        sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
    });
    (sum.into_inner(), waco_obs::snapshot())
}

#[test]
fn chunk_counters_deterministic_across_worker_counts() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    waco_obs::install();
    let (sum1, snap1) = run_with_workers(1);
    let (sum8, snap8) = run_with_workers(8);
    waco_obs::uninstall();

    let expected_chunks = EXTENT.div_ceil(CHUNK) as u64;
    assert_eq!(sum1, (EXTENT * (EXTENT - 1) / 2) as u64);
    assert_eq!(sum8, sum1);
    // Every chunk is claimed exactly once regardless of worker count.
    assert_eq!(snap1.counter("runtime.chunks_claimed"), expected_chunks);
    assert_eq!(snap8.counter("runtime.chunks_claimed"), expected_chunks);
    assert_eq!(snap1.counter("runtime.parallel_regions"), 1);
    assert_eq!(snap8.counter("runtime.parallel_regions"), 1);
    // Stolen chunks are a subset of claimed ones; one worker steals nothing.
    assert_eq!(snap1.counter("runtime.chunks_stolen"), 0);
    assert!(snap8.counter("runtime.chunks_stolen") <= expected_chunks);
}

/// SplitMix64: a seeded stream for the property below (`waco-check` depends
/// on this crate, so its harness is not available here).
fn next(state: &mut u64) -> usize {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 1) as usize
}

/// For random `(extent, chunk)` at 1, 2 and 8 participants: the claimed
/// ranges partition `0..extent` exactly once, every boundary but the last is
/// a multiple of `chunk` (a claim is a whole number of chunks — the
/// schedule's chunk stays the minimum grain), and `runtime.chunks_claimed`
/// totals `ceil(extent / chunk)` however the chunks were batched.
#[test]
fn claimed_ranges_partition_the_extent_on_chunk_boundaries() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    waco_obs::install();
    let pools = [1, 2, 8].map(ThreadPool::new);
    let mut state = 0x5eed;
    for case in 0..200 {
        // A mix of scales: tiny extents, and ones with chunks to batch.
        let extent = next(&mut state) % [1, 40, 5_000, 300_000][case % 4];
        let chunk = 1 + next(&mut state) % [1, 7, 128, 1000][(case / 4) % 4];
        for pool in &pools {
            let threads = pool.max_participants();
            waco_obs::reset();
            let ranges = Mutex::new(Vec::<Range<usize>>::new());
            pool.run_chunked(extent, threads, chunk, |r| {
                ranges.lock().unwrap().push(r);
            });
            let snap = waco_obs::snapshot();
            let mut ranges = ranges.into_inner().unwrap();
            ranges.sort_by_key(|r| r.start);
            let what = format!("extent {extent}, chunk {chunk}, {threads} participants");

            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "gap or overlap: {what}");
                assert!(r.start < r.end, "empty claim: {what}");
                assert_eq!(r.start % chunk, 0, "claim splits a chunk: {what}");
                covered = r.end;
            }
            assert_eq!(covered, extent, "{what}");
            assert_eq!(
                snap.counter("runtime.chunks_claimed"),
                extent.div_ceil(chunk) as u64,
                "{what}"
            );
            if threads == 1 {
                assert!(ranges.len() <= 1, "one participant, one range: {what}");
            }
        }
    }
    waco_obs::uninstall();
}

#[test]
fn worker_spans_and_counters_merge_into_one_registry() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    waco_obs::install();
    waco_obs::reset();
    let pool = ThreadPool::new(4);
    // Each participant opens its own span and bumps a shared counter; the
    // snapshot must see the union across worker-local span stacks.
    let total = AtomicU64::new(0);
    pool.run_chunked(256, 4, 16, |r| {
        let _s = waco_obs::span("test_body");
        waco_obs::counter("test.ranges", 1);
        total.fetch_add(r.len() as u64, Ordering::Relaxed);
    });
    let snap = waco_obs::snapshot();
    waco_obs::uninstall();

    assert_eq!(total.into_inner(), 256);
    // 16 chunks over 4 participants: nothing to batch, one claim per chunk.
    let ranges = 256usize.div_ceil(16) as u64;
    assert_eq!(snap.counter("test.ranges"), ranges);
    let span = snap.span_total("test_body");
    assert_eq!(span.count, ranges);
}

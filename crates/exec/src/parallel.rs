//! Dynamic-chunk parallel execution, after OpenMP's
//! `#pragma omp parallel for schedule(dynamic, chunk)` — the work-stealing
//! granularity the paper's chunk-size parameter tunes (Table 6 attributes
//! about half of all WACO wins to it). The region itself lives in
//! [`waco_runtime::ThreadPool::run_chunked`]: a pool the size of the host
//! however many threads the schedule names, `chunk` as the *minimum* grain
//! of a claim, and one output written in place by every participant
//! (`dispatch` in `kernels.rs` states why that is race-free). Neither
//! deviation is visible in an output. What stays here is the chunk
//! arithmetic the cost simulator shares.

/// Splits `0..extent` into the chunk ranges dynamic scheduling would dispatch
/// (used by the cost simulator to model load balance without real threads).
pub fn chunk_ranges(extent: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    (0..extent.div_ceil(chunk))
        .map(|i| (i * chunk)..((i + 1) * chunk).min(extent))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition() {
        let ranges = chunk_ranges(10, 4);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4).len(), 0);
        assert_eq!(chunk_ranges(4, 100), vec![0..4]);
    }
}

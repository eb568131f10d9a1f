//! The one fan-out every batch path uses: serving evaluation, the
//! experiment runner's targets and the attack harness's trials.

/// Returns `[f(0), …, f(len − 1)]`, computed in contiguous chunks on at
/// most `threads` scoped worker threads (`None` = available
/// parallelism). When every index fits in one chunk — always at
/// `threads: Some(1)` — it runs on the calling thread: a worker would
/// only add a spawn and, under glibc, spread allocations over another
/// malloc arena, which raises peak RSS for callers that fan out often.
///
/// Results are in index order whatever the thread count, so callers
/// that derive each index's randomness from the index alone are
/// bit-identical across thread counts.
pub fn map_chunked<T: Send>(
    threads: Option<usize>,
    len: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
        .max(1);
    let chunk_size = len.div_ceil(threads).max(1);
    if len <= chunk_size {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for (chunk_index, chunk) in out.chunks_mut(chunk_size).enumerate() {
            scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(chunk_index * chunk_size + offset));
                }
            });
        }
    });
    out.into_iter().map(|t| t.expect("every index ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_on_both_sides_of_one_chunk() {
        for len in [0usize, 1, 2, 7, 9] {
            let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
            for threads in [None, Some(1), Some(2), Some(8)] {
                assert_eq!(map_chunked(threads, len, |i| i * i), expected, "{len} on {threads:?}");
            }
        }
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = map_chunked(Some(1), 5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let ids = map_chunked(Some(2), 4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller), "two chunks fan out");
    }
}

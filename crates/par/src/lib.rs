//! Deterministic fork-join parallelism for the profit-mining workspace.
//!
//! The container image bakes no external crates, so instead of `rayon`
//! this crate provides the one primitive the miners and the evaluation
//! harness need: an **order-preserving** parallel map over an index
//! range, built on [`std::thread::scope`]. Work items are claimed
//! dynamically through an atomic counter (good load balance for skewed
//! per-anchor costs), but the results are reassembled by index, so the
//! output of [`par_map`] is byte-identical at any thread count — the
//! property the §3.2 generation-order tie-break depends on.
//!
//! A thread count of `0` means "all available cores"; `1` runs inline on
//! the calling thread with no pool at all.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available, at least 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` → the `PM_THREADS` environment
/// variable if set (CI runs the whole test suite once with `PM_THREADS=1`
/// to pin every fan-out to inline execution), else all cores; an explicit request
/// passes through unchanged.
pub fn resolve(threads: usize) -> usize {
    if threads == 0 {
        match std::env::var("PM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            Some(n) if n >= 1 => n,
            _ => max_threads(),
        }
    } else {
        threads
    }
}

/// Apply `f` to every index in `0..n` and collect the results **in index
/// order**, fanning the calls out over up to `threads` worker threads
/// (`0` = all cores). `f` must be deterministic per index; the output is
/// then independent of the thread count and of OS scheduling.
///
/// Panics in `f` are propagated to the caller.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // A worker panic resurfaces here, on the caller's thread.
            for (i, v) in h.join().expect("pm-par worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index computed"))
        .collect()
}

/// [`par_map`] with per-worker scratch state: `init` runs once on each
/// worker thread and the resulting state is threaded through every call
/// that worker claims. Use this when each work item needs an expensive
/// reusable buffer (the miner's per-anchor rule emitter). Results are
/// still reassembled in index order, so the determinism guarantee of
/// [`par_map`] carries over as long as `f` is deterministic per index
/// for a freshly initialized *or* previously used state — i.e. the
/// state is scratch, not an accumulator.
pub fn par_map_init<S, T, G, F>(n: usize, threads: usize, init: G, f: F) -> Vec<T>
where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = resolve(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("pm-par worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index computed"))
        .collect()
}

/// [`par_map`] over the items of a slice, preserving slice order.
pub fn par_map_slice<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map(items.len(), threads, |i| f(&items[i]))
}

/// Split `0..n` into at most `chunks` contiguous ranges of near-equal
/// length (the last chunks are one shorter when `n % chunks != 0`).
/// Returns an empty vector for `n == 0`.
pub fn even_chunks(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 33] {
            assert_eq!(
                par_map(1000, threads, |i| i * i),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn slice_variant() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(par_map_slice(&items, 2, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn init_variant_preserves_order_and_reuses_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 2, 4] {
            inits.store(0, Ordering::SeqCst);
            let out = par_map_init(
                100,
                threads,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    i * 3
                },
            );
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert!(inits.load(Ordering::SeqCst) <= threads.max(1));
        }
    }

    #[test]
    fn resolve_semantics() {
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(5), 5);
        assert!(resolve(0) >= 1);
        match std::env::var("PM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => assert_eq!(resolve(0), n),
            _ => assert_eq!(resolve(0), max_threads()),
        }
    }

    #[test]
    fn even_chunks_partition() {
        for n in [0usize, 1, 7, 64, 100] {
            for c in [1usize, 2, 3, 8] {
                let chunks = even_chunks(n, c);
                let total: usize = chunks.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} c={c}");
                let mut prev = 0;
                for r in &chunks {
                    assert_eq!(r.start, prev);
                    assert!(!r.is_empty());
                    prev = r.end;
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}

//! Deterministic indexed fan-out over scoped worker threads.
//!
//! Several subsystems (the wavefront engine's callers, the analysis
//! pipeline's component sweep, the simulator's S-sweep, the validation
//! pipeline's point sweep) share one concurrency shape: `count`
//! independent work items, pulled from a shared atomic queue by scoped
//! workers that each own some reusable local state, with the results
//! reassembled **by item index** so the output is bit-identical at any
//! worker count. [`fan_out_indexed`] is that shape, written once.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The workspace's one thread-count rule: `threads == 0` selects
/// `std::thread::available_parallelism` (the convention every
/// `--threads` flag follows), and the result is clamped to `1..=work`,
/// so there is at least one worker and never more workers than items.
///
/// ```
/// use dmc_cdag::fanout::resolve_threads;
///
/// assert_eq!(resolve_threads(8, 3), 3);
/// assert_eq!(resolve_threads(2, 100), 2);
/// assert_eq!(resolve_threads(4, 0), 1);
/// assert!(resolve_threads(0, usize::MAX) >= 1);
/// ```
pub fn resolve_threads(threads: usize, work: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    t.clamp(1, work.max(1))
}

/// Runs `work` on every index in `0..count` across up to `workers`
/// scoped threads (resolved by [`resolve_threads`], so `0` =
/// `std::thread::available_parallelism`) and returns the results in
/// index order.
///
/// Each worker calls `init` once to build its private mutable state (a
/// scratch arena, a simulator, …) and then pulls indices from a shared
/// atomic counter until the range is drained. With one effective worker
/// everything runs inline on the caller's thread — same results, no
/// spawning. The index-ordered merge makes the output independent of
/// scheduling, which is what lets callers advertise bit-identical
/// reports at any thread count.
///
/// ```
/// use dmc_cdag::fanout::fan_out_indexed;
///
/// let squares = fan_out_indexed(5, 3, || (), |_, i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// // Identical at any worker count.
/// assert_eq!(squares, fan_out_indexed(5, 1, || (), |_, i| i * i));
/// ```
pub fn fan_out_indexed<S, T, I, W>(count: usize, workers: usize, init: I, work: W) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let workers = resolve_threads(workers, count);
    if workers <= 1 {
        let mut state = init();
        return (0..count).map(|i| work(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    // dmc-lint: allow(s2) -- this IS the blessed fan-out the rule routes everyone through; the sort_by_key below merges in index order
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, work(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // dmc-lint: allow(s1) -- join fails only if a worker panicked; re-raising the panic on the caller thread is the contract
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_in_order_at_any_worker_count() {
        let base: Vec<usize> = (0..37).map(|i| i * 3).collect();
        for workers in [0usize, 1, 2, 4, 9, 64] {
            assert_eq!(
                fan_out_indexed(37, workers, || (), |_, i| i * 3),
                base,
                "@ {workers} workers"
            );
        }
    }

    #[test]
    fn worker_state_is_initialized_per_worker_and_reused() {
        // Each worker's state counts its own items; the total covers
        // exactly the index range.
        let counts = fan_out_indexed(
            100,
            4,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(counts.len(), 100);
        assert!(counts.iter().enumerate().all(|(i, &(idx, _))| idx == i));
        // Reuse happened: at least one worker processed more than one item.
        assert!(counts.iter().any(|&(_, seen)| seen > 1));
    }

    #[test]
    fn empty_range_is_fine() {
        assert_eq!(fan_out_indexed(0, 8, || (), |_, i| i), Vec::<usize>::new());
    }
}

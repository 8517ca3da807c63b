//! Deterministic data-parallel fan-out for batch execution.
//!
//! Work items (input vectors) are split into contiguous blocks, one per
//! worker; each worker writes its own disjoint output region and returns a
//! local accumulator that the caller merges in block order. Because every
//! item's result depends only on `(layer, item, item index)` — noise
//! streams are derived per item, see
//! [`raella_xbar::noise::NoiseRng::for_stream`] — the output bytes and the
//! merged statistics are bit-identical at any thread count, including 1.
//!
//! Built on `std::thread::scope`: no dependency, no unsafe, no pool state.
//! The caller runs block 0 and each other block gets a scoped thread,
//! which costs 25–45 µs of wall time on a shared 2-vCPU x86-64 host; the
//! engine amortizes that over whole batches, and batches smaller than
//! [`MIN_ITEMS_PER_THREAD`] items per worker shrink the worker count.
//! The core count is read once per process ([`cores`]), so a CPU quota
//! change after the first fan-out is not seen; `RAELLA_THREADS` is read
//! on every call.

use std::sync::OnceLock;

/// Minimum items per worker before another thread pays for itself.
pub const MIN_ITEMS_PER_THREAD: usize = 2;

/// The host's available parallelism, looked up once per process: on
/// Linux the lookup reads cgroup files (~28 µs).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of worker threads for `items` work items: the available
/// parallelism, capped so each worker gets at least
/// [`MIN_ITEMS_PER_THREAD`] items, overridable with the
/// `RAELLA_THREADS` environment variable (useful for benchmarking and for
/// pinning CI).
pub fn worker_count(items: usize) -> usize {
    worker_count_for(items, MIN_ITEMS_PER_THREAD)
}

/// [`worker_count`] with an explicit minimum-items-per-worker policy.
///
/// Small work items (engine vectors) want [`MIN_ITEMS_PER_THREAD`] per
/// worker before another thread pays for itself; heavyweight items (whole
/// images through a model) justify one worker each — pass
/// `min_per_worker = 1`. Items that fit one worker return 1 at once.
pub fn worker_count_for(items: usize, min_per_worker: usize) -> usize {
    if items <= min_per_worker.max(1) {
        return 1;
    }
    let env = std::env::var("RAELLA_THREADS").ok();
    thread_budget(env.as_deref(), cores(), items, min_per_worker)
}

/// The rule behind [`worker_count_for`]: a positive `RAELLA_THREADS`
/// value, else `cores`, capped at `min_per_worker` items per worker.
fn thread_budget(env: Option<&str>, cores: usize, items: usize, min_per_worker: usize) -> usize {
    let hw = env
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores);
    hw.min(items.div_ceil(min_per_worker.max(1))).max(1)
}

/// Runs `work` on every part, part 0 on the calling thread and each
/// other part on its own scoped thread; results come back in part order.
/// A panic in any part propagates once every part has finished.
fn fan_out<P: Send, A: Send>(
    parts: impl Iterator<Item = P>,
    work: impl Fn(P) -> A + Sync,
) -> Vec<A> {
    let mut parts = parts.peekable();
    let head = parts.next().expect("at least one part");
    if parts.peek().is_none() {
        return vec![work(head)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = parts.map(|p| scope.spawn(move || work(p))).collect();
        let head = work(head);
        let rest = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"));
        std::iter::once(head).chain(rest).collect()
    })
}

/// Runs `work` over `items` work items fanned out across `threads`
/// contiguous blocks, writing into disjoint `stride`-sized regions of
/// `out`. The calling thread runs block 0.
///
/// `work(first_item, n_items, out_block)` processes items
/// `first_item .. first_item + n_items`, writing `n_items × stride` bytes
/// into `out_block`, and returns a block-local accumulator. Accumulators
/// are returned in block order (deterministic regardless of scheduling).
///
/// # Panics
///
/// Panics if `out.len() != items × stride`, if `stride` is 0 while
/// `items` is not, or if a worker panics (once every block finished).
pub fn run_blocks<A, F>(
    out: &mut [u8],
    items: usize,
    stride: usize,
    threads: usize,
    work: F,
) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize, &mut [u8]) -> A + Sync,
{
    assert_eq!(out.len(), items * stride, "output size mismatch");
    if items == 0 {
        return Vec::new();
    }
    let block_items = items.div_ceil(threads.clamp(1, items));
    let blocks = out.chunks_mut(block_items * stride).enumerate();
    fan_out(blocks, |(b, block)| {
        work(b * block_items, block.len() / stride, block)
    })
}

/// Runs `work` over `items` work items fanned out across `threads`
/// contiguous blocks, with no shared output buffer. The calling thread
/// runs block 0.
///
/// `work(first_item, n_items)` processes items
/// `first_item .. first_item + n_items` and returns a block-local result;
/// results come back in block order (deterministic regardless of
/// scheduling). This is the fan-out for work whose output size is not
/// known up front — e.g. whole images through a compiled model, where each
/// block returns its own tensors.
///
/// # Panics
///
/// Panics if a worker panics (once every block finished).
pub fn run_chunks<A, F>(items: usize, threads: usize, work: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let block_items = items.div_ceil(threads.clamp(1, items));
    fan_out((0..items).step_by(block_items), |first| {
        work(first, block_items.min(items - first))
    })
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_item_exactly_once_at_any_thread_count() {
        let items = 37;
        let stride = 3;
        for threads in [1, 2, 3, 4, 8, 37, 64] {
            let mut out = vec![0u8; items * stride];
            let counts = run_blocks(&mut out, items, stride, threads, |first, n, block| {
                for (k, chunk) in block.chunks_exact_mut(stride).enumerate() {
                    let item = first + k;
                    chunk.fill(item as u8);
                }
                n
            });
            assert_eq!(counts.iter().sum::<usize>(), items, "threads={threads}");
            for (i, chunk) in out.chunks_exact(stride).enumerate() {
                assert!(chunk.iter().all(|&v| v == i as u8), "threads={threads}");
            }
        }
    }

    #[test]
    fn accumulators_come_back_in_block_order() {
        let items = 16;
        let mut out = vec![0u8; items];
        let firsts = run_blocks(&mut out, items, 1, 4, |first, _n, _block| first);
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut out = vec![0u8; 0];
        let r: Vec<u32> = run_blocks(&mut out, 0, 4, 8, |_, _, _| 1);
        assert!(r.is_empty());
    }

    #[test]
    fn worker_count_respects_small_batches() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(2) <= 1.max(2 / MIN_ITEMS_PER_THREAD));
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn worker_count_for_heavy_items_allows_one_each() {
        // With min_per_worker = 1 the cap is the item count itself.
        assert!(worker_count_for(3, 1) <= 3);
        assert_eq!(worker_count_for(0, 1), 1);
        assert_eq!(worker_count_for(5, 0), worker_count_for(5, 1));
    }

    #[test]
    fn run_chunks_covers_items_in_block_order() {
        for threads in [1, 2, 3, 4, 8, 37, 64] {
            let blocks = run_chunks(37, threads, |first, n| (first, n));
            let total: usize = blocks.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, 37, "threads={threads}");
            let mut next = 0;
            for &(first, n) in &blocks {
                assert_eq!(first, next, "threads={threads}");
                next = first + n;
            }
        }
    }

    #[test]
    fn run_chunks_empty_is_a_no_op() {
        let r: Vec<u32> = run_chunks(0, 8, |_, _| 1);
        assert!(r.is_empty());
    }

    #[test]
    fn thread_budget_honours_each_new_env_value() {
        assert_eq!(thread_budget(Some("3"), 2, 100, 1), 3);
        assert_eq!(thread_budget(Some("5"), 2, 100, 1), 5);
        assert_eq!(thread_budget(Some("1"), 8, 100, 1), 1);
        // Capped by the items per worker, not by the core count.
        assert_eq!(thread_budget(Some("16"), 2, 10, 2), 5);
    }

    #[test]
    fn thread_budget_falls_back_to_cores_on_bad_or_zero_env() {
        for env in [
            None,
            Some("0"),
            Some(""),
            Some("four"),
            Some("-2"),
            Some("2.5"),
        ] {
            assert_eq!(thread_budget(env, 6, 100, 1), 6, "env={env:?}");
        }
    }

    #[test]
    fn thread_budget_gives_one_worker_when_items_fit_one() {
        for (items, min_per_worker) in [(0, 1), (1, 1), (2, 2), (1, 2), (1, 0), (0, 0)] {
            assert_eq!(thread_budget(Some("8"), 8, items, min_per_worker), 1);
            assert_eq!(worker_count_for(items, min_per_worker), 1);
        }
    }

    #[test]
    fn block_zero_runs_on_the_caller_and_results_keep_block_order() {
        let caller = std::thread::current().id();
        let chunks = run_chunks(12, 4, |first, n| (first, n, std::thread::current().id()));
        let mut out = vec![0u8; 12];
        let blocks = run_blocks(&mut out, 12, 1, 4, |first, n, _| {
            (first, n, std::thread::current().id())
        });
        for results in [chunks, blocks] {
            let firsts: Vec<(usize, usize)> = results.iter().map(|&(f, n, _)| (f, n)).collect();
            assert_eq!(firsts, [(0, 3), (3, 3), (6, 3), (9, 3)]);
            assert_eq!(results[0].2, caller);
            assert!(results[1..].iter().all(|&(_, _, id)| id != caller));
        }
    }

    /// Runs `fan` with a work function that panics in `bad_block` while
    /// every other block waits for that panic to start and then counts
    /// itself finished; returns whether `fan` panicked and that count.
    fn panic_in_block(bad_block: usize, fan: impl Fn(&(dyn Fn(usize) + Sync))) -> (bool, usize) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan(&|block| {
                if block == bad_block {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("planted panic in block {block}");
                }
                while !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }))
        .is_err();
        (panicked, finished.load(Ordering::SeqCst))
    }

    #[test]
    fn a_panicking_block_propagates_after_the_others_finish() {
        for bad_block in [0, 2] {
            let chunks = panic_in_block(bad_block, |work| {
                run_chunks(4, 4, |first, _| work(first));
            });
            let blocks = panic_in_block(bad_block, |work| {
                let mut out = vec![0u8; 4];
                run_blocks(&mut out, 4, 1, 4, |first, _, _| work(first));
            });
            assert_eq!(chunks, (true, 3), "run_chunks, bad block {bad_block}");
            assert_eq!(blocks, (true, 3), "run_blocks, bad block {bad_block}");
        }
    }
}

//! Deterministic data-parallel fan-out for batch execution.
//!
//! Work items (input vectors) are cut into contiguous chunks, about eight
//! per worker, which the workers claim one at a time; each chunk writes
//! its own disjoint output region and returns a local accumulator that
//! the caller merges in item order. Because every item's result depends
//! only on `(layer, item, item index)` — noise streams are derived per
//! item, see
//! [`raella_xbar::noise::NoiseRng::for_stream`] — the output bytes and the
//! merged statistics are bit-identical at any thread count, including 1.
//!
//! Built on `std::thread::scope` and a `Mutex` over the chunk iterator.
//! The caller is a worker and each other worker a scoped thread, which
//! costs 25–45 µs of wall time on a shared 2-vCPU x86-64 host; the
//! engine amortizes that over whole batches, and batches smaller than
//! [`MIN_ITEMS_PER_THREAD`] items per worker shrink the worker count.
//! The core count is read once per process ([`cores`]), so a CPU quota
//! change after the first fan-out is not seen; `RAELLA_THREADS` is read
//! on every call.

use std::sync::{Mutex, OnceLock};

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

/// Chunks per worker a fan-out cuts its items into.
const CHUNKS_PER_THREAD: usize = 8;

/// Items per chunk: all of them for one worker, else about
/// `items / (threads × CHUNKS_PER_THREAD)`, at least 1.
fn chunk_items(items: usize, threads: usize) -> usize {
    let per_thread = if threads > 1 { CHUNKS_PER_THREAD } else { 1 };
    items.div_ceil(threads.max(1) * per_thread)
}

/// Runs `work` on every part over up to `threads` threads and returns the
/// results in part order. The caller claims part 0 before it spawns; then
/// every thread claims the next unclaimed part until none is left. A
/// panic in any part propagates once every thread has stopped.
fn fan_out<P: Send, A: Send>(
    parts: impl ExactSizeIterator<Item = P> + Send,
    threads: usize,
    work: impl Fn(P) -> A + Sync,
) -> Vec<A> {
    let spawned = threads.clamp(1, parts.len()) - 1;
    if spawned == 0 {
        return parts.map(work).collect();
    }
    let cursor = Mutex::new(parts.enumerate());
    let claim = || cursor.lock().expect("cursor never poisoned").next();
    let drain = |mut next: Option<(usize, P)>| {
        let mut done = Vec::new();
        while let Some((i, part)) = next {
            done.push((i, work(part)));
            next = claim();
        }
        done
    };
    let head = claim();
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| scope.spawn(|| drain(claim())))
            .collect();
        let mut done = drain(head);
        for handle in handles {
            done.extend(handle.join().expect("parallel worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, a)| a).collect()
}

/// Runs `work` over `items` work items fanned out across `threads`
/// workers, writing into disjoint `stride`-sized regions of `out`. The
/// workers, the calling thread first, claim contiguous chunks of items.
///
/// `work(first_item, n_items, out_chunk)` processes items
/// `first_item .. first_item + n_items`, writing `n_items × stride` bytes
/// into `out_chunk`, and returns a chunk-local accumulator. Accumulators
/// are returned in item order (deterministic regardless of scheduling).
///
/// # Panics
///
/// Panics if `out.len() != items × stride`, if `stride` is 0 while
/// `items` is not, or if a worker panics (once every worker stopped).
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
    let chunk = chunk_items(items, threads);
    let chunks = out.chunks_mut(chunk * stride).enumerate();
    fan_out(chunks, threads, |(c, block)| {
        work(c * chunk, block.len() / stride, block)
    })
}

/// [`run_blocks`] with no shared output buffer: `work(first_item,
/// n_items)` returns a chunk-local result, and results come back in item
/// order. This is the fan-out for work whose output size is not known up
/// front — e.g. whole images through a compiled model, where each chunk
/// returns its own tensors. Panics if a worker panics (once every worker
/// stopped).
pub fn run_chunks<A, F>(items: usize, threads: usize, work: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let chunk = chunk_items(items, threads);
    let firsts = (0..items.div_ceil(chunk)).map(|c| c * chunk);
    fan_out(firsts, threads, |first| {
        work(first, chunk.min(items - first))
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

    /// `run_blocks` (stride 1, output unused) and `run_chunks` over the
    /// same `work(first, n)`, in that order.
    fn both<A: Send>(
        items: usize,
        threads: usize,
        work: impl Fn(usize, usize) -> A + Sync,
    ) -> [Vec<A>; 2] {
        let mut out = vec![0u8; items];
        let blocks = run_blocks(&mut out, items, 1, threads, |first, n, _| work(first, n));
        [blocks, run_chunks(items, threads, work)]
    }

    #[test]
    fn every_item_is_claimed_once_and_comes_back_in_item_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items = 1000;
        for threads in [1, 2, 3, 4, 8, 37, 64] {
            let claims: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            let results = both(items, threads, |first, n| {
                for claim in &claims[first..first + n] {
                    claim.fetch_add(1, Ordering::SeqCst);
                }
                (first, n)
            });
            // Once by each of the two fan-outs.
            assert!(
                claims.iter().all(|c| c.load(Ordering::SeqCst) == 2),
                "threads={threads}"
            );
            for chunks in results {
                let mut next = 0;
                for (first, n) in chunks.iter().copied() {
                    assert_eq!(first, next, "threads={threads}");
                    next = first + n;
                }
                assert_eq!(next, items, "threads={threads}");
                let most = if threads == 1 {
                    1
                } else {
                    threads * CHUNKS_PER_THREAD
                };
                assert!(chunks.len() <= most, "threads={threads}");
            }
        }
    }

    #[test]
    fn the_caller_claims_the_first_chunk() {
        let caller = std::thread::current().id();
        for threads in [2, 4, 8] {
            for results in both(64, threads, |first, _| (first, std::thread::current().id())) {
                assert_eq!(results[0], (0, caller), "threads={threads}");
            }
        }
    }

    /// Every spawned thread sleeps inside its first chunk until the caller
    /// has run all the others (or 10 s pass); the caller waits in its own
    /// first chunk until every spawned thread is asleep, so nothing but
    /// claiming decides who runs the rest.
    #[test]
    fn the_caller_finishes_the_rest_while_the_other_threads_sleep() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        for threads in [2, 4] {
            let items = threads * CHUNKS_PER_THREAD;
            let sleepers = threads - 1;
            for blocks in [false, true] {
                let (asleep, caller_ran) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let deadline = Instant::now() + Duration::from_secs(10);
                let wait_for = |counter: &AtomicUsize, value: usize| {
                    while counter.load(Ordering::SeqCst) < value && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                };
                let work = |first: usize, _| {
                    let me = std::thread::current().id();
                    if me == caller {
                        if first == 0 {
                            wait_for(&asleep, sleepers);
                        }
                        caller_ran.fetch_add(1, Ordering::SeqCst);
                    } else {
                        asleep.fetch_add(1, Ordering::SeqCst);
                        wait_for(&caller_ran, items - sleepers);
                    }
                    me
                };
                let ran_on = if blocks {
                    let mut out = vec![0u8; items];
                    run_blocks(&mut out, items, 1, threads, |first, n, _| work(first, n))
                } else {
                    run_chunks(items, threads, work)
                };
                let on_caller = ran_on.iter().filter(|&&id| id == caller).count();
                assert_eq!(
                    on_caller,
                    items - sleepers,
                    "threads={threads}, run_blocks={blocks}"
                );
            }
        }
    }

    /// Runs `fan` with a work function that panics in `bad_chunk` while
    /// every other chunk waits for that panic to start and then counts
    /// itself finished; returns whether `fan` panicked and that count.
    fn panic_in_chunk(bad_chunk: usize, fan: impl Fn(&(dyn Fn(usize) + Sync))) -> (bool, usize) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan(&|chunk| {
                if chunk == bad_chunk {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("planted panic in chunk {chunk}");
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
    fn a_panicking_chunk_propagates_after_the_other_threads_stop() {
        for bad_chunk in [0, 2, 3] {
            let chunks = panic_in_chunk(bad_chunk, |work| {
                run_chunks(4, 4, |first, _| work(first));
            });
            let blocks = panic_in_chunk(bad_chunk, |work| {
                let mut out = vec![0u8; 4];
                run_blocks(&mut out, 4, 1, 4, |first, _, _| work(first));
            });
            assert_eq!(chunks, (true, 3), "run_chunks, bad chunk {bad_chunk}");
            assert_eq!(blocks, (true, 3), "run_blocks, bad chunk {bad_chunk}");
        }
    }
}

//! Parallel execution of independent simulation sessions.
//!
//! Every figure and table in the reproduction is an embarrassingly parallel
//! fan-out: N independent sessions, each a single-threaded deterministic DES
//! run, whose outputs are then aggregated. This module provides the worker
//! pool that exploits that independence without giving up reproducibility.
//!
//! The determinism contract has two halves:
//!
//! 1. **Seeds are identity-derived, not schedule-derived.** Callers must
//!    compute each session's seed from its identity (via
//!    [`crate::rng::derive_seed`] or an explicit per-index formula), never by
//!    drawing from a shared RNG inside the submission loop. A session's seed
//!    is then independent of *when* it runs.
//! 2. **Results are collected by index.** [`par_indexed`] returns
//!    `results[i] == f(i)` regardless of which worker ran `i` or in what
//!    order workers finished, so the aggregate is byte-identical for any
//!    `jobs` count — including the serial `jobs == 1` path.
//!
//! The pool is `std`-only: a `std::thread::scope` with an atomic cursor as a
//! self-balancing work queue. Workers claim one index at a time, so a slow
//! session (long video, lossy profile) does not stall the neighbours a
//! static chunking would have assigned to the same worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count for batch helpers that do not take an explicit
/// `jobs` argument: the host's available parallelism, or 1 if unknown.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(0), f(1), …, f(n - 1)` on up to `jobs` worker threads and
/// returns the results **ordered by index**.
///
/// `f` must be a pure function of its index (plus captured shared state) —
/// the output is then independent of the number of workers and of
/// completion order. With `jobs <= 1` (or a trivially small `n`) the
/// closure runs inline on the caller's thread with no pool at all; the
/// result is identical either way.
///
/// # Panics
/// If `f` panics for any index, the panic is resurfaced on the calling
/// thread after the scope joins.
pub fn par_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_indexed_with_finish(n, jobs, || (), |(), i| f(i), |()| {})
}

/// [`par_indexed`] with per-worker scratch state and a `finish` hook.
///
/// Each worker thread calls `init()` once to build its private scratch
/// value, then runs `f(&mut scratch, i)` for every index it claims. The
/// scratch gives back-to-back sessions on one worker a place to recycle
/// allocations (event-queue storage, segment buffers, the worker's metrics
/// registry) without any cross-thread sharing.
///
/// The determinism contract additionally requires that `f`'s *output* not
/// depend on the scratch's history, only its own index. Scratch may
/// legitimately carry capacity hints and reusable buffers; it must never
/// carry simulation state across calls. The serial path uses a single
/// scratch for the whole batch, so any violation shows up as a `--jobs`
/// dependence the determinism suite catches.
///
/// After a worker exhausts the index space, `finish(scratch)` consumes its
/// scratch value. The hook exists for end-of-batch bookkeeping that must
/// happen exactly once per scratch — e.g. flushing a worker's accumulated
/// metrics registry to the process-wide collector. It runs on the worker's
/// own thread (on the caller's thread for the serial path), outside any
/// lock, and must not affect `f`'s outputs: determinism requires results to
/// be a pure function of the index regardless of how workers' lifetimes are
/// carved up.
///
/// # Panics
/// If `f` or `finish` panics, the panic is resurfaced on the calling thread
/// after the scope joins.
pub fn par_indexed_with_finish<T, S, I, F, G>(n: usize, jobs: usize, init: I, f: F, finish: G) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    G: Fn(S) + Sync,
{
    let workers = jobs.min(n).max(1);
    if workers == 1 {
        let mut scratch = init();
        let out: Vec<T> = (0..n).map(|i| f(&mut scratch, i)).collect();
        finish(scratch);
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                // Claim indices one at a time; buffer locally and flush in
                // one lock acquisition so the mutex stays cold relative to
                // the session work.
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&mut scratch, i)));
                }
                finish(scratch);
                if !local.is_empty() {
                    let mut slots = slots.lock().expect("executor slots poisoned");
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("executor slots poisoned")
        .iter_mut()
        .map(|slot| slot.take().expect("executor: missing result slot"))
        .collect()
}

/// A deterministic partition of `n` work items into fixed-size shards: the
/// unit of checkpoint/resume for long campaigns.
///
/// Shards cover `0..n` contiguously in index order, each `shard_size` items
/// except possibly the last. The plan is a pure function of `(n,
/// shard_size)` — the resumable cursor is simply the number of completed
/// shards, and a resumed run replays the identical plan regardless of
/// worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total work items.
    pub total: usize,
    /// Items per shard (the last shard may be smaller).
    pub shard_size: usize,
}

impl ShardPlan {
    /// Creates a plan; `shard_size` is clamped to at least 1.
    pub fn new(total: usize, shard_size: usize) -> Self {
        ShardPlan { total, shard_size: shard_size.max(1) }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.total.div_ceil(self.shard_size)
    }

    /// The `[start, end)` index range of shard `k`.
    ///
    /// # Panics
    /// If `k` is not a valid shard index.
    pub fn bounds(&self, k: usize) -> (usize, usize) {
        assert!(k < self.shards(), "shard {k} out of range ({} shards)", self.shards());
        let start = k * self.shard_size;
        (start, (start + self.shard_size).min(self.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = par_indexed(257, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(par_indexed(257, jobs, f), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn results_are_ordered_by_index() {
        let out = par_indexed(1000, 8, |i| i);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = par_indexed(100, 4, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn empty_and_tiny_batches() {
        assert_eq!(par_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_indexed(1, 8, |i| i * 2), vec![0]);
    }

    #[test]
    fn zero_jobs_is_treated_as_serial() {
        assert_eq!(par_indexed(5, 0, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(par_indexed(3, 100, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn non_copy_results_are_moved_intact() {
        let out = par_indexed(50, 4, |i| vec![i; i % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn scratch_variant_matches_plain_for_pure_functions() {
        let f = |i: usize| (i as u64).wrapping_mul(0xC2B2_AE35).rotate_left(7);
        let plain = par_indexed(123, 1, f);
        for jobs in [1, 2, 8] {
            let with = par_indexed_with_finish(
                123,
                jobs,
                Vec::<u64>::new,
                |buf, i| {
                    // Scratch is reused across indices on a worker...
                    buf.push(i as u64);
                    // ...but the output depends only on the index.
                    f(i)
                },
                |_| {},
            );
            assert_eq!(with, plain, "jobs = {jobs}");
        }
    }

    #[test]
    fn scratch_init_runs_once_per_worker_serial() {
        let inits = AtomicU64::new(0);
        let out = par_indexed_with_finish(
            10,
            1,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |s, i| {
                *s += 1;
                (*s, i)
            },
            |_| {},
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1, "serial path shares one scratch");
        // The scratch accumulated across the whole batch.
        assert_eq!(out.last(), Some(&(10, 9)));
    }

    #[test]
    fn finish_hook_runs_once_per_worker() {
        for jobs in [1usize, 4] {
            let inits = AtomicU64::new(0);
            let finishes = AtomicU64::new(0);
            let total = AtomicU64::new(0);
            par_indexed_with_finish(
                20,
                jobs,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |s, i| {
                    *s += i as u64;
                },
                |s| {
                    finishes.fetch_add(1, Ordering::Relaxed);
                    total.fetch_add(s, Ordering::Relaxed);
                },
            );
            assert_eq!(
                inits.load(Ordering::Relaxed),
                finishes.load(Ordering::Relaxed),
                "jobs = {jobs}: every scratch must be finished exactly once"
            );
            // The per-worker partial sums always total the full batch.
            assert_eq!(total.load(Ordering::Relaxed), (0..20u64).sum::<u64>(), "jobs = {jobs}");
        }
    }

    #[test]
    fn shard_plan_covers_every_index_exactly_once() {
        for (n, size) in [(0usize, 4usize), (1, 4), (7, 3), (8, 4), (9, 4), (100, 1)] {
            let plan = ShardPlan::new(n, size);
            let mut covered = Vec::new();
            for (start, end) in (0..plan.shards()).map(|k| plan.bounds(k)) {
                assert!(start < end, "empty shard in ({n}, {size})");
                assert!(end - start <= size);
                covered.extend(start..end);
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "({n}, {size})");
            assert_eq!(plan.shards(), n.div_ceil(size));
        }
    }

    #[test]
    fn shard_plan_clamps_zero_size() {
        let plan = ShardPlan::new(5, 0);
        assert_eq!(plan.shard_size, 1);
        assert_eq!(plan.shards(), 5);
        assert_eq!(plan.bounds(4), (4, 5));
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        par_indexed(16, 4, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}

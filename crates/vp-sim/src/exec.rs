//! The blessed OS-thread shard executor.
//!
//! This module is the **only** place in the workspace where a concurrency
//! primitive may be named: `clippy.toml` bans threads, locks, condvars,
//! channels and atomics everywhere, and this module alone expects the ban
//! (`static mut` needs `unsafe`, which every crate forbids). What crosses
//! this module's boundary is held by rustc, not by analysis: a shard job
//! is `Fn(usize) -> T + Sync` with `T: Send`, so a closure that captures
//! unsynchronised shared state does not compile (see the `compile_fail`
//! example on [`ShardExecutor::run_sharded`]), and every library crate
//! carries `#![forbid(unsafe_code)]`, so the bound cannot be argued away.
//! See DESIGN.md §14 for the full contract.
//!
//! The executor's shape is the arrival-order-proof one: each shard `k`
//! delivers its result through its **own** channel, and the barrier
//! receives channel 0, 1, 2, … in shard-id order. A caller folding the
//! returned vector therefore merges in shard-id order by construction —
//! there is no shared channel whose message order could leak thread
//! scheduling into the result.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the blessed executor: the one module that spawns threads and owns their channels"
)]

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use vp_obs::Clock;

/// Wall-channel marks for one shard's trip through the executor, read
/// from a caller-supplied [`Clock`] (the executor itself never touches a
/// wall clock). The three derived intervals:
///
/// * queue wait  = `started_ns - queued_ns` (job waited for a worker),
/// * compute     = `finished_ns - started_ns` (the job itself),
/// * barrier wait = `merged_ns - finished_ns` (result waited for the
///   shard-id-ordered barrier to reach it).
///
/// These are observability only: they are outside the §7 determinism
/// contract and never feed back into scan results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    pub shard: usize,
    /// When the shard's job became runnable (before worker pickup).
    pub queued_ns: u64,
    /// When a worker started executing the job.
    pub started_ns: u64,
    /// When the job returned its result.
    pub finished_ns: u64,
    /// When the barrier received the result (shard-id order).
    pub merged_ns: u64,
}

/// What a worker sends the barrier: a shard's result and its start and
/// finish marks.
type Delivery<T> = (T, u64, u64);

/// A bounded pool of OS worker threads that runs one job per shard and
/// returns the results **indexed by shard id**, never by arrival order.
///
/// Worker `w` owns shards `w, w + workers, w + 2·workers, …` (the same
/// deterministic round-robin split at every shard count), so the set of
/// jobs each thread runs is a pure function of `(shards, workers)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardExecutor {
    workers: usize,
}

impl ShardExecutor {
    /// An executor with exactly `workers` OS threads (floored at one).
    /// With one worker, jobs run inline on the calling thread.
    pub fn new(workers: usize) -> ShardExecutor {
        ShardExecutor {
            workers: workers.max(1),
        }
    }

    /// An executor that runs every shard inline on the calling thread.
    /// Used where the caller is itself already a shard worker (nested
    /// parallelism would oversubscribe the host).
    pub fn serial() -> ShardExecutor {
        ShardExecutor { workers: 1 }
    }

    /// An executor bounded by the host's available parallelism and the
    /// shard count: a shard count far above the core count — even one per
    /// hitlist entry — degrades gracefully instead of spawning thousands
    /// of threads.
    pub fn host_parallel(shards: usize) -> ShardExecutor {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        ShardExecutor {
            workers: hw.min(shards).max(1),
        }
    }

    /// The number of OS threads `run_sharded` will use (before the shard
    /// count caps it further).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(k)` for every shard `k in 0..shards` and returns the
    /// results in shard-id order.
    ///
    /// Each shard has its own rendezvous channel; the barrier receives
    /// them in ascending shard id, so the output order is independent of
    /// thread scheduling. Worker threads own the senders for their shards:
    /// a panicking worker drops its undelivered senders, the matching
    /// `recv` errors out, and the panic propagates at the barrier instead
    /// of deadlocking it.
    ///
    /// The bounds are the concurrency contract: a job that captures
    /// unsynchronised shared state is rejected by the compiler (`Rc` is
    /// not `Send`, `RefCell` is not `Sync`), not by a lint —
    ///
    /// ```compile_fail,E0277
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    /// use vp_sim::exec::ShardExecutor;
    ///
    /// let tally = Rc::new(RefCell::new(0u64));
    /// ShardExecutor::new(4).run_sharded(8, |k| *tally.borrow_mut() += k as u64);
    /// ```
    ///
    /// — while the same fold over the returned, shard-id-ordered vector
    /// compiles and is deterministic:
    ///
    /// ```
    /// use vp_sim::exec::ShardExecutor;
    ///
    /// let per_shard = ShardExecutor::new(4).run_sharded(8, |k| k as u64);
    /// assert_eq!(per_shard.iter().sum::<u64>(), 28);
    /// ```
    ///
    /// # Panics
    /// Propagates a panic from any shard job.
    pub fn run_sharded<T, F>(&self, shards: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_sharded_timed(shards, job, None).0
    }

    /// [`ShardExecutor::run_sharded`] plus per-shard executor timings read
    /// from `clock`. With `clock: None` the timing vector is empty and the
    /// call behaves exactly like `run_sharded`; with a clock, one
    /// [`ShardTiming`] per shard comes back in shard-id order. The clock
    /// is read outside the result path, so attaching one cannot perturb
    /// the §7 bit-equivalence contract.
    #[expect(
        clippy::expect_used,
        reason = "a shard worker panic must propagate at the barrier, not be swallowed."
    )]
    pub fn run_sharded_timed<T, F>(
        &self,
        shards: usize,
        job: F,
        clock: Option<&(dyn Clock + Sync)>,
    ) -> (Vec<T>, Vec<ShardTiming>)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let now = |clock: Option<&(dyn Clock + Sync)>| clock.map_or(0, |c| c.now_nanos());
        let workers = self.workers.min(shards);
        if workers <= 1 {
            let mut results = Vec::with_capacity(shards);
            let mut timings = Vec::new();
            for k in 0..shards {
                // Inline: the job is picked up the moment it is queued and
                // merged the moment it finishes.
                let queued_ns = now(clock);
                let result = job(k);
                let finished_ns = now(clock);
                results.push(result);
                if clock.is_some() {
                    timings.push(ShardTiming {
                        shard: k,
                        queued_ns,
                        started_ns: queued_ns,
                        finished_ns,
                        merged_ns: finished_ns,
                    });
                }
            }
            return (results, timings);
        }

        // Worker `w` owns shards `w, w + workers, …` and holds their
        // senders; the barrier holds the receivers in shard order.
        let mut receivers: Vec<(usize, Receiver<Delivery<T>>)> = Vec::with_capacity(shards);
        let batches: Vec<Vec<(usize, SyncSender<Delivery<T>>)>> = (0..workers)
            .map(|w| {
                (w..shards)
                    .step_by(workers)
                    .map(|k| {
                        // Buffer of one: a worker finishing a shard never
                        // blocks on the barrier having reached that shard yet.
                        let (tx, rx) = sync_channel(1);
                        receivers.push((k, rx));
                        (k, tx)
                    })
                    .collect()
            })
            .collect();
        receivers.sort_unstable_by_key(|&(k, _)| k);

        // All jobs are queued before any worker is spawned.
        let queued_ns = now(clock);
        std::thread::scope(|scope| {
            for batch in batches {
                let job = &job;
                scope.spawn(move || {
                    for (k, tx) in batch {
                        let started_ns = now(clock);
                        let result = job(k);
                        let finished_ns = now(clock);
                        // The receiver side outlives the scope; a send can
                        // only fail if the barrier already panicked, in
                        // which case the result is moot.
                        let _ = tx.send((result, started_ns, finished_ns));
                    }
                });
            }
            let mut results = Vec::with_capacity(shards);
            let mut timings = Vec::new();
            for &(k, ref rx) in &receivers {
                let (result, started_ns, finished_ns) = rx
                    .recv()
                    .expect("shard worker panicked before delivering");
                results.push(result);
                if clock.is_some() {
                    timings.push(ShardTiming {
                        shard: k,
                        queued_ns,
                        started_ns,
                        finished_ns,
                        merged_ns: now(clock),
                    });
                }
            }
            (results, timings)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_shard_id_order_regardless_of_arrival() {
        // Jobs record the order they *complete* in; the output must be in
        // shard-id order even when completion order differs.
        for (shards, workers) in [(1, 1), (5, 2), (7, 3), (16, 4), (4, 16)] {
            let arrivals = AtomicUsize::new(0);
            let exec = ShardExecutor::new(workers);
            let out = exec.run_sharded(shards, |k| {
                // Skew the work so higher shards tend to finish first.
                let mut acc = 0u64;
                for i in 0..((shards - k) * 20_000) {
                    acc = acc.wrapping_mul(31).wrapping_add(i as u64);
                }
                let arrived = arrivals.fetch_add(1, Ordering::SeqCst);
                (k, arrived, acc)
            });
            assert_eq!(out.len(), shards);
            for (k, result) in out.iter().enumerate() {
                assert_eq!(result.0, k, "slot {k} holds shard {}", result.0);
            }
            assert_eq!(arrivals.load(Ordering::SeqCst), shards);
        }
    }

    #[test]
    fn zero_shards_yields_empty() {
        let exec = ShardExecutor::new(4);
        let out: Vec<u32> = exec.run_sharded(0, |_| panic!("no shards to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn serial_executor_runs_inline() {
        let exec = ShardExecutor::serial();
        assert_eq!(exec.workers(), 1);
        let caller = std::thread::current().id();
        let out = exec.run_sharded(3, |k| (k, std::thread::current().id()));
        for (k, (id, tid)) in out.iter().enumerate() {
            assert_eq!(*id, k);
            assert_eq!(*tid, caller, "serial executor must not spawn");
        }
    }

    #[test]
    fn threaded_and_serial_agree() {
        let job = |k: usize| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial: Vec<u64> = ShardExecutor::serial().run_sharded(11, job);
        for workers in [2, 3, 8] {
            let threaded = ShardExecutor::new(workers).run_sharded(11, job);
            assert_eq!(serial, threaded);
        }
    }

    #[test]
    #[should_panic(expected = "shard worker panicked before delivering")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        ShardExecutor::new(2).run_sharded(4, |k| {
            assert!(k != 2, "shard 2 explodes");
            k
        });
    }

    #[test]
    fn workers_floor_at_one() {
        assert_eq!(ShardExecutor::new(0).workers(), 1);
        assert!(ShardExecutor::host_parallel(8).workers() >= 1);
        assert_eq!(ShardExecutor::host_parallel(1).workers(), 1);
    }

    /// A monotone atomic test clock (no wall clock is involved).
    struct TickClock(std::sync::atomic::AtomicU64);

    impl Clock for TickClock {
        fn now_nanos(&self) -> u64 {
            self.0.fetch_add(1, Ordering::SeqCst)
        }
    }

    #[test]
    fn timed_run_returns_ordered_monotone_timings() {
        let clock = TickClock(std::sync::atomic::AtomicU64::new(1));
        for workers in [1, 2, 4] {
            let exec = ShardExecutor::new(workers);
            let (results, timings) =
                exec.run_sharded_timed(7, |k| k * 10, Some(&clock));
            assert_eq!(results, (0..7).map(|k| k * 10).collect::<Vec<_>>());
            assert_eq!(timings.len(), 7);
            for (k, t) in timings.iter().enumerate() {
                assert_eq!(t.shard, k, "timings must be in shard-id order");
                assert!(t.queued_ns <= t.started_ns, "{t:?}");
                assert!(t.started_ns < t.finished_ns, "{t:?}");
                assert!(t.finished_ns <= t.merged_ns, "{t:?}");
            }
            // The barrier merges in shard-id order, so merge times are
            // nondecreasing across shards.
            for pair in timings.windows(2) {
                assert!(pair[0].merged_ns <= pair[1].merged_ns, "{pair:?}");
            }
        }
    }

    #[test]
    fn timed_run_without_clock_matches_untimed() {
        let job = |k: usize| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let exec = ShardExecutor::new(3);
        let (results, timings) = exec.run_sharded_timed(9, job, None);
        assert!(timings.is_empty(), "no clock must mean no timings");
        assert_eq!(results, exec.run_sharded(9, job));
    }
}

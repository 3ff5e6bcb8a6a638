//! Parallel cell execution over std scoped threads, under one job budget.
//!
//! Workers self-schedule off a shared atomic cursor (dynamic load
//! balancing — a long-running cell never blocks short ones behind it), and
//! results are reassembled by index, so the output order is deterministic
//! and independent of scheduling. `cargo`'s offline sandbox has no rayon;
//! scoped threads provide the same fan-out with zero dependencies.
//!
//! Every computing thread holds one token of a [`JobBudget`]. The engine's
//! cell workers take theirs when they start and give them back when they
//! run out of cells; a fan-out inside a cell (the Fig 6(d) Monte Carlo)
//! spawns a helper only while it can take a spare token. So a cell that
//! outlives its siblings picks up their freed workers, and the number of
//! live compute threads never exceeds the budget's `jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed number of compute tokens shared by one run's cell workers and
/// every fan-out inside its cells.
///
/// The thread that creates the budget holds one of its tokens; the rest
/// start spare. A thread computes only while it holds a token, and
/// helpers are spawned only on spare ones, so at most `jobs` threads of
/// one budget compute at once.
#[derive(Debug)]
pub struct JobBudget {
    /// Tokens no thread holds.
    spare: AtomicUsize,
}

impl JobBudget {
    /// A budget of `jobs` tokens (at least one), one of them held by the
    /// calling thread; under `new(1)` everything runs serially on it.
    pub fn new(jobs: usize) -> Self {
        Self {
            spare: AtomicUsize::new(jobs.max(1) - 1),
        }
    }

    fn try_take(&self) -> bool {
        self.spare
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
            .is_ok()
    }

    fn give_back(&self) {
        self.spare.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs the cells `f(0..n)` and returns their results in index order,
    /// calling `observe(i, &result)` once per cell as it finishes (on the
    /// worker thread that computed it, so in completion order — for
    /// streaming progress, not for assembly).
    ///
    /// The caller works the cells itself and starts a worker on every
    /// spare token while cells remain. A worker, the caller included,
    /// gives its token back when it runs out of cells, so fan-outs in the
    /// cells still running can use it. This must be the outermost user of
    /// the budget: when it returns, the caller holds its token again. With
    /// no spare token it is a plain serial loop on the caller — the
    /// reference path for determinism tests.
    pub fn run_cells<T, F, O>(&self, n: usize, f: F, observe: O) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        O: Fn(usize, &T) + Sync,
    {
        self.run(
            n,
            |i| {
                let value = f(i);
                observe(i, &value);
                value
            },
            true,
        )
    }

    /// Runs `f(0..n)` inside a cell and returns the results in index
    /// order. The caller, which already holds a token, works the items
    /// itself and spawns a helper only on a spare token taken while items
    /// remain; helpers give their tokens back when the items run out. The
    /// caller keeps its token while it waits for them, so keep items
    /// short: the wait is at most one item.
    pub fn fan_out<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, f, false)
    }

    fn run<T, F>(&self, n: usize, f: F, lend_while_waiting: bool) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (i < n).then_some(i)
        };
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        let keep = |local: Vec<(usize, T)>| {
            collected.lock().expect("no poisoned workers").extend(local);
        };
        std::thread::scope(|scope| {
            let mut helpers = 0usize;
            let mut local = Vec::new();
            loop {
                // The caller takes the next item itself, so a helper is
                // worth a token only while another item is unclaimed.
                while helpers + 1 < n.saturating_sub(cursor.load(Ordering::Relaxed))
                    && self.try_take()
                {
                    helpers += 1;
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        while let Some(i) = claim() {
                            local.push((i, f(i)));
                        }
                        self.give_back();
                        keep(local);
                    });
                }
                let Some(i) = claim() else { break };
                local.push((i, f(i)));
            }
            if lend_while_waiting {
                self.give_back();
            }
            keep(local);
        });
        if lend_while_waiting {
            // Every worker has returned its token, and fan-outs only live
            // inside cells, which have all finished: the take succeeds.
            let retaken = self.try_take();
            debug_assert!(retaken, "run_cells is the budget's outermost user");
        }
        let mut pairs = collected.into_inner().expect("all workers joined");
        debug_assert_eq!(pairs.len(), n);
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, v)| v).collect()
    }
}

/// The default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_indexed<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        JobBudget::new(jobs).run_cells(n, f, |_, _| {})
    }

    #[test]
    fn parallel_matches_serial_in_order_and_content() {
        let f = |i: usize| i * i + 1;
        let serial = run_indexed(257, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(257, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn unbalanced_work_still_assembles_in_order() {
        // Make early indices slow so late indices finish first.
        let f = |i: usize| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i
        };
        let out = run_indexed(64, 8, f);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i), vec![0]);
        assert_eq!(JobBudget::new(4).fan_out(0, |i| i), Vec::<usize>::new());
        assert_eq!(JobBudget::new(4).fan_out(1, |i| i), vec![0]);
    }

    #[test]
    fn observer_sees_every_cell_exactly_once() {
        for jobs in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let out = JobBudget::new(jobs).run_cells(
                37,
                |i| i * 2,
                |i, v| seen.lock().unwrap().push((i, *v)),
            );
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..37).map(|i| (i, i * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_fan_out_matches_the_serial_loop() {
        let cell = |budget: &JobBudget, c: usize| budget.fan_out(c * 7 % 23, |i| c * 1000 + i * i);
        let serial: Vec<Vec<usize>> = (0..12)
            .map(|c| (0..c * 7 % 23).map(|i| c * 1000 + i * i).collect())
            .collect();
        for jobs in [1, 2, 3, 8] {
            let budget = JobBudget::new(jobs);
            assert_eq!(
                budget.run_cells(12, |c| cell(&budget, c), |_, _| {}),
                serial,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn nested_fan_out_never_runs_more_closures_than_the_budget() {
        struct Gauge {
            running: AtomicUsize,
            high_water: AtomicUsize,
        }
        impl Gauge {
            fn work(&self, ms: u64) {
                let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
                self.high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(ms));
                self.running.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for jobs in [1, 2, 3] {
            let gauge = Gauge {
                running: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            };
            let budget = JobBudget::new(jobs);
            // Cell 0 is long and fans out; the short cells finish first
            // and hand their tokens to its helpers.
            budget.run_cells(
                6,
                |c| {
                    if c == 0 {
                        budget.fan_out(24, |_| gauge.work(3));
                    } else {
                        gauge.work(5);
                    }
                },
                |_, _| {},
            );
            let high_water = gauge.high_water.load(Ordering::SeqCst);
            assert!(
                (1..=jobs).contains(&high_water),
                "jobs={jobs}: {high_water} closures ran at once"
            );
            assert_eq!(
                budget.spare.load(Ordering::SeqCst),
                jobs - 1,
                "tokens restored"
            );
        }
    }
}

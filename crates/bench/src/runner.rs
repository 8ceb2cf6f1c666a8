//! A work-stealing, order-preserving parallel job runner for the
//! experiment harnesses.
//!
//! Every paper artifact is a sweep of fully independent deterministic
//! simulations: one `World`, one workload, one result. The runner
//! exploits that by fanning a flat job list out over worker threads via
//! an atomic index queue (idle workers steal the next unclaimed index),
//! while keeping the *results* in job order so rendered output is
//! byte-identical whatever the worker count.
//!
//! # Determinism contract
//!
//! Output must be identical for `--jobs 1` and `--jobs N`. The runner
//! guarantees the result-ordering half of that contract; the seeding
//! half is guaranteed by deriving every job's seeds from its position in
//! the sweep ([`point_seed`], [`workload_seed`]) and never from shared
//! mutable state. Worker closures construct their `World` *inside* the
//! job (so `World` never needs `Send`) and return plain data.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: all available hardware parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `work` over every job, using up to `workers` threads, and
/// returns the results in job order.
///
/// Workers claim jobs from an atomic index queue, so a slow job never
/// stalls the queue behind it. If any job panics, the panic is
/// propagated to the caller after the remaining workers drain.
pub fn run_jobs<J, R, F>(jobs: &[J], workers: usize, work: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_jobs_with(jobs, workers, |_: &mut (), job| work(job))
}

/// Like [`run_jobs`], but each worker thread carries a mutable scratch
/// state `S` across the jobs it claims.
///
/// The state is for *capacity recycling only* (e.g. a
/// [`renofs::WorldScratch`] of observed buffer sizes): because which
/// worker runs which job depends on scheduling, any state that changed
/// a job's *result* would break the determinism contract. Results must
/// be a pure function of the job.
pub fn run_jobs_with<J, R, S, F>(jobs: &[J], workers: usize, work: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    S: Default,
    F: Fn(&mut S, &J) -> R + Sync,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    if workers == 1 {
        // Sequential fast path: one state threaded through every job.
        let mut state = S::default();
        return jobs.iter().map(|j| work(&mut state, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(jobs.len()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = S::default();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        done.push((i, work(&mut state, &jobs[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(chunk) => {
                    for (i, r) in chunk {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("index queue covered every job"))
        .collect()
}

/// The canonical per-point world seed: mixes the experiment's base seed
/// with the run number and the rate index.
///
/// Every experiment must derive per-job seeds through this helper (or
/// [`workload_seed`]) rather than hand-rolling seed arithmetic, so that
/// seeds depend only on a job's position in the sweep — never on
/// execution order — keeping parallel runs byte-identical to serial
/// ones.
pub fn point_seed(base: u64, run: usize, rate_idx: usize) -> u64 {
    base ^ ((run as u64) << 8) ^ ((rate_idx as u64) << 16)
}

/// The canonical workload-generator seed for one run: decorrelated from
/// the world seed of the same point by a fixed tweak.
pub fn workload_seed(base: u64, run: usize) -> u64 {
    base ^ 0xBEEF ^ run as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_job_list_returns_empty() {
        let out: Vec<u32> = run_jobs(&[] as &[u32], 8, |j| *j);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_job_order_any_worker_count() {
        let jobs: Vec<usize> = (0..97).collect();
        for workers in [1, 2, 3, 8, 200] {
            let out = run_jobs(&jobs, workers, |&j| {
                // Make late indices finish first so out-of-order
                // completion is actually exercised.
                if j % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                j * 3
            });
            assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..64).collect();
        let out = run_jobs(&jobs, 6, |&j| {
            RUNS.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(out.len(), 64);
        assert_eq!(RUNS.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_in_one_job_propagates() {
        let jobs: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            run_jobs(&jobs, 4, |&j| {
                if j == 11 {
                    panic!("job 11 exploded");
                }
                j
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job 11 exploded"), "got: {msg}");
    }

    #[test]
    fn stateful_runner_matches_stateless_results() {
        let jobs: Vec<u64> = (0..50).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 3, 8] {
            // State counts jobs per worker; results must not depend on it.
            let out = run_jobs_with(&jobs, workers, |seen: &mut u64, &j| {
                *seen += 1;
                j * j
            });
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn seed_helpers_match_the_historical_derivation() {
        // The formula the experiments used before it was centralized;
        // changing it silently would shift every calibrated result.
        assert_eq!(point_seed(101, 0, 0), 101);
        assert_eq!(point_seed(101, 1, 2), 101 ^ (1 << 8) ^ (2 << 16));
        assert_eq!(workload_seed(101, 0), 101 ^ 0xBEEF);
        assert_eq!(workload_seed(101, 3), 101 ^ 0xBEEF ^ 3);
    }

    #[test]
    fn distinct_points_get_distinct_seeds() {
        let mut seen = std::collections::HashSet::new();
        for run in 0..8 {
            for ri in 0..32 {
                assert!(seen.insert(point_seed(0xA5A5, run, ri)));
            }
        }
    }
}

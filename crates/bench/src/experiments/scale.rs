//! Experiment scaling: paper-length runs vs quick CI runs.

use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{LoadMix, NhfsstoneConfig};

/// Controls run lengths and sweep densities.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Measured interval per point (the paper used 30 minutes).
    pub duration: SimDuration,
    /// Warm-up before measuring.
    pub warmup: SimDuration,
    /// Offered-load sweep for the LAN/token-ring graphs (RPC/sec).
    pub lan_rates: Vec<f64>,
    /// Offered-load sweep for the 56 Kbps graphs.
    pub slow_rates: Vec<f64>,
    /// Independent runs per (transport, config) tuple (the paper plots
    /// two lines per tuple).
    pub runs: usize,
    /// Files in the Nhfsstone subtree.
    pub nfiles: usize,
    /// Iterations of the Create-Delete benchmark.
    pub cd_iters: usize,
    /// Worker threads for the parallel job runner. Results are
    /// byte-identical whatever the value; see `runner`.
    pub jobs: usize,
}

impl Scale {
    /// Full paper-style runs (30 min per point).
    pub fn paper() -> Self {
        Scale {
            duration: SimDuration::from_secs(30 * 60),
            warmup: SimDuration::from_secs(60),
            lan_rates: vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0],
            slow_rates: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            runs: 2,
            nfiles: 100,
            cd_iters: 20,
            jobs: crate::runner::default_jobs(),
        }
    }

    /// Whether this is a quick run (a measured interval under five
    /// minutes): the sweeps that scale their matrices and windows apart
    /// from `duration` pick their small ones.
    pub fn is_quick(&self) -> bool {
        self.duration < SimDuration::from_secs(5 * 60)
    }

    /// A paper-style Nhfsstone run of `mix` at `rate` ops/s, measured
    /// over this scale's interval and warm-up against its subtree size.
    pub fn nhfsstone(&self, rate: f64, mix: LoadMix) -> NhfsstoneConfig {
        NhfsstoneConfig {
            duration: self.duration,
            warmup: self.warmup,
            nfiles: self.nfiles,
            ..NhfsstoneConfig::paper(rate, mix)
        }
    }

    /// Shortened runs for tests and fast iteration.
    pub fn quick() -> Self {
        Scale {
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(5),
            lan_rates: vec![10.0, 25.0, 40.0],
            slow_rates: vec![2.0, 5.0],
            runs: 1,
            nfiles: 40,
            cd_iters: 5,
            jobs: crate::runner::default_jobs(),
        }
    }
}

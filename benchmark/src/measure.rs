//! The measurement loop and the end-to-end metrics.
//!
//! One invocation measures one workload. The first pass over its cells is
//! the *reference* pass: untimed, it lets page faults, buffer pools and
//! lazy set-up settle, samples simulated RPC latency, checks payloads,
//! and fixes each cell's digest. Then the cell list is run again and
//! again until the time budget is spent; every repeat must reproduce its
//! cell's digest, and each cell keeps its fastest build and its fastest
//! run ([`sigma_min`]).

use std::time::{Duration, Instant};

use crate::cells::{run_cell, CellOutcome, CellSpec};
use crate::host::{self, Pinning, RefKernels, Rusage};
use crate::names::END_TO_END;
use crate::stats::{p99, quantile, sigma_min};
use crate::wrapper::Mode;

/// Timed passes a run never goes below, whatever the budget.
pub const MIN_PASSES: usize = 3;

/// Everything the passes over one cell list produced.
pub struct PassSet {
    /// The reference pass, one outcome per cell.
    pub reference: Vec<CellOutcome>,
    /// Build-phase nanoseconds: per cell, one entry per timed pass.
    pub build_ns: Vec<Vec<f64>>,
    /// Run-phase nanoseconds, same shape.
    pub run_ns: Vec<Vec<f64>>,
    /// Run-phase heap allocations, same shape.
    pub allocs: Vec<Vec<f64>>,
    /// Run-phase bytes allocated, same shape.
    pub alloc_bytes: Vec<Vec<f64>>,
    /// Syscalls by kind over one timed pass (the reference pass adds
    /// `now()` calls of its own, so its counts are not the workload's).
    pub syscalls: [u64; 10],
    /// CPU time and context switches summed over every timed run phase.
    pub usage: Rusage,
    /// Timed passes made.
    pub passes: usize,
    /// The reference kernels, sampled between passes.
    pub refs: RefKernels,
    /// Failed checks; empty when every output was correct.
    pub errors: Vec<String>,
}

impl PassSet {
    /// RPC replies delivered to procs in one pass.
    pub fn rpcs(&self) -> f64 {
        self.reference.iter().map(|c| c.delivered).sum::<u64>() as f64
    }

    /// One fingerprint of every cell's digest, in cell order.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .reference
            .iter()
            .flat_map(|c| c.digest.to_le_bytes())
            .collect();
        renofs_oracle::fnv1a(&bytes)
    }

    /// Σ-min host nanoseconds of the run phases of one pass.
    pub fn run_floor_ns(&self) -> f64 {
        sigma_min(&self.run_ns)
    }
}

/// Runs the reference pass, then timed passes until `deadline` (at least
/// `min_passes`, at most `max_passes`).
pub fn measure(
    specs: &[CellSpec],
    deadline: Instant,
    min_passes: usize,
    max_passes: usize,
) -> PassSet {
    let n = specs.len();
    let mut errors = Vec::new();
    let reference_mode = Mode {
        reference: true,
        trace: false,
    };
    let reference: Vec<CellOutcome> = specs
        .iter()
        .map(|s| {
            let mut outcome = run_cell(*s, reference_mode).outcome;
            for e in outcome.errors.drain(..) {
                errors.push(format!("cell {}: {e}", s.index));
            }
            outcome
        })
        .collect();
    let mut set = PassSet {
        reference,
        build_ns: vec![Vec::new(); n],
        run_ns: vec![Vec::new(); n],
        allocs: vec![Vec::new(); n],
        alloc_bytes: vec![Vec::new(); n],
        syscalls: [0; 10],
        usage: Rusage::default(),
        passes: 0,
        refs: RefKernels::default(),
        errors,
    };
    set.refs.sample();
    let mut slowest_pass = Duration::ZERO;
    while set.passes < max_passes
        && (set.passes < min_passes || Instant::now() + slowest_pass <= deadline)
    {
        let pass_start = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            let t = run_cell(*spec, Mode::default());
            set.build_ns[i].push(t.build_ns());
            set.run_ns[i].push(t.run_ns());
            set.allocs[i].push(t.run_allocs as f64);
            set.alloc_bytes[i].push(t.run_alloc_bytes as f64);
            set.usage.user_s += t.run_usage.user_s;
            set.usage.sys_s += t.run_usage.sys_s;
            set.usage.ctx_switches += t.run_usage.ctx_switches;
            if set.passes == 0 {
                for (total, k) in set.syscalls.iter_mut().zip(t.outcome.syscalls) {
                    *total += k;
                }
            }
            if t.outcome.digest != set.reference[i].digest {
                set.errors.push(format!(
                    "cell {} pass {}: digest {:016x} is not the reference's {:016x}",
                    spec.index,
                    set.passes + 1,
                    t.outcome.digest,
                    set.reference[i].digest
                ));
            }
            for e in t.outcome.errors {
                set.errors
                    .push(format!("cell {} pass {}: {e}", spec.index, set.passes + 1));
            }
        }
        set.passes += 1;
        set.refs.sample();
        slowest_pass = slowest_pass.max(pass_start.elapsed());
    }
    set
}

/// Where and on what the numbers were taken. Witnesses of machine state:
/// not metrics, and nothing is normalised by them.
pub struct Env {
    /// Allowed CPUs and the one the process is pinned to.
    pub pin: Pinning,
    /// The reference kernels' fastest samples.
    pub refs: RefKernels,
    /// Load averages when the run began and ended.
    pub loadavg: (String, String),
}

impl Env {
    /// Human-readable block.
    pub fn print(&self) {
        println!(
            "env: pinned_cpu={} allowed={:?} nproc={} rustc=\"{}\"",
            self.pin.cpu,
            self.pin.allowed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            host::rustc_version()
        );
        println!(
            "env: loadavg {} -> {}  env.ref_handoff_us={:.3} env.ref_compute_us={:.1}",
            self.loadavg.0, self.loadavg.1, self.refs.handoff_us, self.refs.compute_us
        );
    }
}

/// The end-to-end metrics of a pass set, in [`END_TO_END`] order, with
/// the number of latency samples behind the two percentiles.
pub fn end_to_end(set: &PassSet) -> (Vec<(&'static str, f64)>, usize) {
    let rpcs = set.rpcs();
    let attempted: u64 = set.reference.iter().map(|c| c.attempted).sum();
    let retransmits: u64 = set.reference.iter().map(|c| c.retransmits).sum();
    let sim_elapsed_s = set.reference.iter().map(|c| c.sim_elapsed_ns).sum::<u64>() as f64 / 1e9;
    let mut rtt_ms: Vec<f64> = set
        .reference
        .iter()
        .flat_map(|c| c.rtt_ns.iter().map(|ns| *ns as f64 / 1e6))
        .collect();
    rtt_ms.sort_by(f64::total_cmp);
    let values: [f64; END_TO_END.len()] = [
        set.run_floor_ns() / 1e3 / rpcs,
        sigma_min(&set.build_ns) / 1e9,
        host::peak_rss_mb(),
        sigma_min(&set.allocs) / rpcs,
        rpcs / sim_elapsed_s,
        quantile(&rtt_ms, 0.5),
        p99(&rtt_ms).expect("every workload yields the 1,000 samples a p99 needs"),
        (attempted + retransmits) as f64 / rpcs,
        sim_elapsed_s,
    ];
    (
        END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        rtt_ms.len(),
    )
}

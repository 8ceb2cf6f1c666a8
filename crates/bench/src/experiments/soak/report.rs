//! Sweeping seeds and reporting them: the per-seed rows, the seed-range
//! and budget sweeps, and the one table all three reports render.

use std::fmt;
use std::time::{Duration, Instant};

use super::run::{run_case, shrink, CaseOutcome, RunOpts};
use super::world::{derive_world_for, kept_windows, DerivedWorld, SoakCase, SoakProfile};
use super::{Mutation, PAPER_SEEDS, QUICK_SEEDS};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One seed of a sweep: its full world, what running it gave, and how
/// long that took.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// The seed.
    pub seed: u64,
    /// The world the seed derives.
    pub world: DerivedWorld,
    /// What running that world gave.
    pub outcome: CaseOutcome,
    /// Wall-clock seconds the run took.
    pub wall: f64,
}

/// Runs a seed's full world.
fn run_seed(seed: u64, profile: SoakProfile, mutation: Mutation) -> SoakRow {
    let t0 = Instant::now();
    let outcome = run_case(&SoakCase::from_seed_profile(seed, profile), mutation);
    SoakRow {
        seed,
        world: derive_world_for(seed, profile),
        outcome,
        wall: t0.elapsed().as_secs_f64(),
    }
}

/// A sweep's report: its rows, plus the first violating row's first
/// five violations and its case shrunk, if any row violated.
fn report(rows: Vec<SoakRow>, profile: SoakProfile, mutation: Mutation) -> SoakReport {
    let mut report = SoakReport {
        rows,
        first_violations: Vec::new(),
        shrunk: None,
        profile,
    };
    let bad = report
        .rows
        .iter()
        .find(|r| !r.outcome.violations.is_empty());
    if let Some(bad) = bad {
        eprintln!("[soak] seed {} violated; shrinking...", bad.seed);
        let msgs = bad.outcome.violations.iter().take(5);
        report.first_violations = msgs.map(|v| v.to_string()).collect();
        let case = SoakCase::from_seed_profile(bad.seed, profile);
        report.shrunk = Some(shrink(&case, mutation));
    }
    report
}

/// The grace a profile's worlds are checked at, in ms.
fn grace_ms(profile: SoakProfile) -> u64 {
    profile.stream(RunOpts::default().stream).grace / 1_000_000
}

/// The cell a row shows under a column header.
fn cell(r: &SoakRow, column: &str) -> String {
    let (w, o) = (&r.world, &r.outcome);
    match column {
        "seed" => r.seed.to_string(),
        "N" => w.clients.to_string(),
        "nfsd" => w.nfsds.to_string(),
        "M" => w.servers.to_string(),
        "config" => w.topo.0.to_string(),
        "transport" => w.transport.0.to_string(),
        "mount" if w.soft => "soft".to_string(),
        "mount" => "hard".to_string(),
        "rnds" => w.rounds.to_string(),
        "faults" => {
            let mut kinds: Vec<&str> = Vec::new();
            for label in w.windows.iter().map(|w| w.label()) {
                if !kinds.contains(&label) {
                    kinds.push(label);
                }
            }
            kinds.join("+")
        }
        "ops" => o.ok_ops.to_string(),
        "taint" => o.taints.to_string(),
        "corrupt" => o.corrupted_frames.to_string(),
        "ckdrop" => o.checksum_drops.to_string(),
        "garb" => o.garbage.to_string(),
        "issued" => o.leases.issued.to_string(),
        "renew" => o.leases.renewed.to_string(),
        "recall" => o.leases.recalls.to_string(),
        "vacate" => o.leases.vacate_waits.to_string(),
        "expire" => o.leases.expiries.to_string(),
        "viol" => o.violations.len().to_string(),
        "peak" => o.peak_retained.to_string(),
        "wall(s)" => format!("{:.2}", r.wall),
        "obs/s" if r.wall > 0.0 => format!("{:.0}", o.observations as f64 / r.wall),
        "obs/s" => "0".to_string(),
        other => unreachable!("no soak column {other:?}"),
    }
}

/// The seed-range sweep's columns.
const QUICK_COLUMNS: &str =
    "seed N nfsd M config transport mount rnds faults ops taint corrupt ckdrop garb viol";
/// Lease sweeps drop the corruption bookkeeping for the server's lease
/// traffic, so a table shows at a glance whether leases were actually
/// exercised in the worlds that came back clean. Lease worlds are
/// single-server hard mounts.
const LEASE_COLUMNS: &str =
    "seed N nfsd config transport rnds faults ops taint issued renew recall vacate expire viol";
/// Budget runs add the streaming checker's memory bound and wall-clock
/// throughput.
const BUDGET_COLUMNS: &str =
    "seed N nfsd M config transport mount rnds faults ops taint viol peak wall(s) obs/s";

/// The soak report: one row per seed, plus the shrunk repro for the
/// first violating seed (if any).
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-seed rows, in seed order.
    pub rows: Vec<SoakRow>,
    /// First violating seed's violations (display capped).
    pub first_violations: Vec<String>,
    /// The shrunk minimal case, if anything violated.
    pub shrunk: Option<SoakCase>,
    /// The world recipe the seeds ran through: lease reports render
    /// extra lease-traffic columns.
    pub profile: SoakProfile,
}

impl SoakReport {
    /// Total violations across all seeds.
    pub fn total_violations(&self) -> usize {
        self.rows.iter().map(|r| r.outcome.violations.len()).sum()
    }

    /// Renders the report: its title, one row per seed under `columns`,
    /// its summary line, and — when a seed violated — the first
    /// violating seed's violations and the minimal repro.
    fn render(
        &self,
        f: &mut fmt::Formatter<'_>,
        title: fmt::Arguments<'_>,
        columns: &str,
        summary: fmt::Arguments<'_>,
    ) -> fmt::Result {
        writeln!(f, "{title}")?;
        let columns: Vec<&str> = columns.split(' ').collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| columns.iter().map(|c| cell(r, c)).collect())
            .collect();
        write!(f, "{}", table(&columns, &cells))?;
        writeln!(f, "{summary}")?;
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "ORACLE VIOLATIONS (first violating seed):")?;
            for v in &self.first_violations {
                writeln!(f, "  {v}")?;
            }
            writeln!(f, "minimal repro: repro soak --case \"{shrunk}\"")?;
        }
        Ok(())
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grace_ms = grace_ms(self.profile);
        let ops: u64 = self.rows.iter().map(|r| r.outcome.ok_ops).sum();
        let (n, v) = (self.rows.len(), self.total_violations());
        let (title, columns, worlds) = if self.profile == SoakProfile::Lease {
            let title = format!(
                "Soak (lease profile): NQNFS lease worlds checked against the sequential \
                 oracle (grace {grace_ms} ms — tighter than the {} ms lease term, so stale \
                 cache past a term is a violation)",
                renofs::proto::LEASE_TERM_MS
            );
            (title, LEASE_COLUMNS, "lease worlds")
        } else {
            let title = format!(
                "Soak: randomized chaos worlds checked against the sequential oracle \
                 (grace {grace_ms} ms)"
            );
            (title, QUICK_COLUMNS, "worlds")
        };
        let summary = format_args!("checked {n} {worlds}: {ops} successful ops, {v} violations");
        self.render(f, format_args!("{title}"), columns, summary)
    }
}

/// Runs seeds `first..first + count` through [`run_case`] under a world
/// recipe, in parallel, then shrinks the first violating seed (if any)
/// sequentially.
pub fn soak_profile_with(
    scale: &Scale,
    first: u64,
    count: usize,
    mutation: Mutation,
    profile: SoakProfile,
) -> SoakReport {
    let seeds: Vec<u64> = (first..first + count as u64).collect();
    let rows = run_jobs(&seeds, scale.jobs, |&seed| {
        run_seed(seed, profile, mutation)
    });
    report(rows, profile, mutation)
}

/// Renders one case for `repro soak --case`: the derived world shape,
/// the headline counters, and every violation. Returns the report text
/// and whether the case violated (for the caller's exit status).
pub fn replay_report(case: &SoakCase) -> (String, bool) {
    let d = derive_world_for(case.seed, case.profile);
    let out = run_case(case, Mutation::None);
    let faults: Vec<String> = kept_windows(case)
        .iter()
        .map(|w| format!("{}@{}ms+{}ms", w.label(), w.at_ms, w.dur_ms))
        .collect();
    let mut s = format!(
        "Soak case replay: {case}\n\
         world: {} clients, {} rounds, {} / {}, nfsd={}, {} server(s), {} mount, faults [{}]\n\
         ops={} taints={} corrupted={} checksum_drops={} garbage={} dup_hits={}\n",
        case.clients,
        case.rounds,
        d.topo.0,
        d.transport.0,
        d.nfsds,
        d.servers,
        if d.soft { "soft" } else { "hard" },
        faults.join(", "),
        out.ok_ops,
        out.taints,
        out.corrupted_frames,
        out.checksum_drops,
        out.garbage,
        out.dup_hits
    );
    if out.violations.is_empty() {
        s += "no oracle violations\n";
    } else {
        s += "ORACLE VIOLATIONS:\n";
        for v in &out.violations {
            s += &format!("  {v}\n");
        }
    }
    (s, !out.violations.is_empty())
}

/// The `repro soak` entry point: the default seed range for the scale.
pub fn soak(scale: &Scale) -> SoakReport {
    let count = if scale.is_quick() {
        QUICK_SEEDS
    } else {
        PAPER_SEEDS
    };
    soak_profile_with(scale, 0, count, Mutation::None, SoakProfile::Quick)
}

/// Stop conditions for [`soak_budget`], the `--duration`/`--max-ops`/
/// `--long` certification mode.
#[derive(Clone, Copy, Debug)]
pub struct BudgetOpts {
    /// Stop once this much wall-clock has elapsed (checked between
    /// world batches; the running batch finishes).
    pub wall_limit: Option<Duration>,
    /// Stop once this many observations have been checked.
    pub max_ops: Option<u64>,
    /// Hard cap on seeds run.
    pub max_seeds: usize,
    /// World recipe.
    pub profile: SoakProfile,
}

/// Why a budget soak stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetStop {
    /// Ran every seed up to the cap.
    Seeds,
    /// Wall-clock budget exhausted.
    Duration,
    /// Observation budget exhausted.
    Ops,
    /// Fail-fast on the first violating world.
    Violation,
}

impl BudgetStop {
    fn describe(&self) -> &'static str {
        match self {
            BudgetStop::Seeds => "seed cap reached",
            BudgetStop::Duration => "wall-clock budget reached",
            BudgetStop::Ops => "observation budget reached",
            BudgetStop::Violation => "stopped at first violation (fail-fast)",
        }
    }
}

/// The budget-mode report: the sweep (its rows carry their memory
/// bound and wall-clock throughput), totals, and why it stopped.
#[derive(Clone, Debug)]
pub struct BudgetReport {
    /// The seeds run, and the shrunk repro if the run failed fast.
    pub sweep: SoakReport,
    /// Observations checked across all worlds.
    pub observations: u64,
    /// Total wall-clock seconds.
    pub elapsed: f64,
    /// Why the run stopped.
    pub stopped: BudgetStop,
}

impl BudgetReport {
    /// Whether any world violated (the caller's exit status).
    pub fn violated(&self) -> bool {
        self.sweep.total_violations() > 0
    }
}

impl fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sweep = &self.sweep;
        let peak = sweep.rows.iter().map(|r| r.outcome.peak_retained);
        self.sweep.render(
            f,
            format_args!(
                "Soak ({} profile, streaming oracle, grace {} ms): budget run",
                sweep.profile.tag(),
                grace_ms(sweep.profile)
            ),
            BUDGET_COLUMNS,
            format_args!(
                "checked {} worlds in {:.1}s: {} observations, peak retained {}, \
                 {} violations — {}",
                sweep.rows.len(),
                self.elapsed,
                self.observations,
                peak.max().unwrap_or(0),
                sweep.total_violations(),
                self.stopped.describe()
            ),
        )
    }
}

/// The budget/certification soak: runs seeds in `--jobs`-sized batches
/// until a wall-clock, observation, or seed budget is exhausted —
/// heartbeating progress to stderr every few seconds — and **fails
/// fast** on the first violating world, which it shrinks. Its columns
/// include wall-clock ones, so its output is not deterministic.
pub fn soak_budget(scale: &Scale, opts: &BudgetOpts) -> BudgetReport {
    let start = Instant::now();
    let mut last_beat = start;
    let mut rows: Vec<SoakRow> = Vec::new();
    let mut observations = 0u64;
    let mut violations = 0usize;
    let mut stopped = BudgetStop::Seeds;
    let jobs = scale.jobs.max(1);
    let cap = opts.max_seeds as u64;
    for first in (0..cap).step_by(jobs) {
        let batch: Vec<u64> = (first..cap.min(first + jobs as u64)).collect();
        for row in run_jobs(&batch, jobs, |&seed| {
            run_seed(seed, opts.profile, Mutation::None)
        }) {
            observations += row.outcome.observations as u64;
            violations += row.outcome.violations.len();
            rows.push(row);
        }
        if last_beat.elapsed() >= Duration::from_secs(5) {
            last_beat = Instant::now();
            eprintln!(
                "[soak] {:.0}s elapsed: {} worlds, {observations} observations, \
                 {violations} violations",
                start.elapsed().as_secs_f64(),
                rows.len(),
            );
        }
        stopped = if violations > 0 {
            BudgetStop::Violation
        } else if opts.wall_limit.is_some_and(|cap| start.elapsed() >= cap) {
            BudgetStop::Duration
        } else if opts.max_ops.is_some_and(|cap| observations >= cap) {
            BudgetStop::Ops
        } else {
            continue;
        };
        break;
    }
    BudgetReport {
        sweep: report(rows, opts.profile, Mutation::None),
        observations,
        elapsed: start.elapsed().as_secs_f64(),
        stopped,
    }
}

//! Sweeping seeds and reporting them: the per-seed rows, the one seed
//! sweep (which a deadline may cut short), and the table it renders.

use std::fmt;
use std::time::Instant;

use super::run::{run_case, shrink, CaseOutcome, RunOpts};
use super::world::{derive_world_for, kept_windows, DerivedWorld, SoakCase, SoakProfile};
use super::{Mutation, PAPER_SEEDS, QUICK_SEEDS};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One seed of a sweep: its full world and what running it gave.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// The seed.
    pub seed: u64,
    /// The world the seed derives.
    pub world: DerivedWorld,
    /// What running that world gave.
    pub outcome: CaseOutcome,
}

/// Runs a seed's full world.
fn run_seed(seed: u64, profile: SoakProfile) -> SoakRow {
    let outcome = run_case(&SoakCase::from_seed_profile(seed, profile), Mutation::None);
    SoakRow {
        seed,
        world: derive_world_for(seed, profile),
        outcome,
    }
}

/// A sweep's report: its rows, plus the first violating row's first
/// five violations and its case shrunk, if any row violated.
fn report(rows: Vec<SoakRow>, profile: SoakProfile, seeds: usize) -> SoakReport {
    let mut report = SoakReport {
        rows,
        first_violations: Vec::new(),
        shrunk: None,
        profile,
        seeds,
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
        report.shrunk = Some(shrink(&case, Mutation::None));
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
        other => unreachable!("no soak column {other:?}"),
    }
}

/// The quick sweep's columns.
const QUICK_COLUMNS: &str =
    "seed N nfsd M config transport mount rnds faults ops taint corrupt ckdrop garb viol";
/// Lease sweeps drop the corruption bookkeeping for the server's lease
/// traffic, so a table shows at a glance whether leases were actually
/// exercised in the worlds that came back clean. Lease worlds are
/// single-server hard mounts.
const LEASE_COLUMNS: &str =
    "seed N nfsd config transport rnds faults ops taint issued renew recall vacate expire viol";
/// Long sweeps show the streaming checker's memory bound, which their
/// many-round worlds are there to exercise, in place of the corruption
/// bookkeeping.
const LONG_COLUMNS: &str = "seed N nfsd M config transport mount rnds faults ops taint viol peak";

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
    /// The world recipe the seeds ran through: it picks the title and
    /// the columns.
    pub profile: SoakProfile,
    /// The seeds the sweep was asked for: fewer rows than this means a
    /// deadline or a violation cut it short.
    pub seeds: usize,
}

impl SoakReport {
    /// Total violations across all seeds.
    pub fn total_violations(&self) -> usize {
        self.rows.iter().map(|r| r.outcome.violations.len()).sum()
    }
}

/// The report renders its title, one row per seed, its summary line,
/// and — when a seed violated — the first violating seed's violations
/// and the minimal repro.
impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grace_ms = grace_ms(self.profile);
        let (title, columns, worlds) = match self.profile {
            SoakProfile::Lease => (
                format!(
                    "Soak (lease profile): NQNFS lease worlds checked against the sequential \
                     oracle (grace {grace_ms} ms — tighter than the {} ms lease term, so stale \
                     cache past a term is a violation)",
                    renofs::proto::LEASE_TERM_MS
                ),
                LEASE_COLUMNS,
                "lease worlds",
            ),
            SoakProfile::Long => (
                format!(
                    "Soak (long profile): certification worlds with crash/reboot cycles \
                     checked against the sequential oracle (grace {grace_ms} ms)"
                ),
                LONG_COLUMNS,
                "long worlds",
            ),
            SoakProfile::Quick => (
                format!(
                    "Soak: randomized chaos worlds checked against the sequential oracle \
                     (grace {grace_ms} ms)"
                ),
                QUICK_COLUMNS,
                "worlds",
            ),
        };
        writeln!(f, "{title}")?;
        let columns: Vec<&str> = columns.split(' ').collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| columns.iter().map(|c| cell(r, c)).collect())
            .collect();
        write!(f, "{}", table(&columns, &cells))?;
        let ops: u64 = self.rows.iter().map(|r| r.outcome.ok_ops).sum();
        let (n, v) = (self.rows.len(), self.total_violations());
        write!(
            f,
            "checked {n} {worlds}: {ops} successful ops, {v} violations"
        )?;
        if n < self.seeds {
            let why = if v > 0 {
                "a seed violated"
            } else {
                "the deadline passed"
            };
            write!(f, " (cut short after {n} of {} seeds: {why})", self.seeds)?;
        }
        writeln!(f)?;
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

/// Runs seeds `0..seeds` of a profile through [`run_case`] on
/// `scale.jobs` workers, then shrinks the first violating seed (if any).
/// `seeds` is `None` for the scale's count (12 quick, 64 paper).
///
/// Without a deadline every seed runs in one parallel batch. With one
/// (`repro soak --duration`), the seeds run `scale.jobs` at a time and
/// the sweep stops between chunks once the deadline has passed or a seed
/// has violated; the report says so. Either way each row depends on its
/// seed alone, so a sweep that is not cut short prints the same bytes.
pub fn sweep(
    scale: &Scale,
    profile: SoakProfile,
    seeds: Option<usize>,
    deadline: Option<Instant>,
) -> SoakReport {
    let seeds = seeds.unwrap_or(if scale.is_quick() {
        QUICK_SEEDS
    } else {
        PAPER_SEEDS
    });
    let all: Vec<u64> = (0..seeds as u64).collect();
    let run = |chunk: &[u64]| run_jobs(chunk, scale.jobs, |&seed| run_seed(seed, profile));
    let Some(deadline) = deadline else {
        return report(run(&all), profile, seeds);
    };
    let mut rows = Vec::new();
    for chunk in all.chunks(scale.jobs.max(1)) {
        rows.extend(run(chunk));
        let violated = rows.iter().any(|r| !r.outcome.violations.is_empty());
        if violated || Instant::now() >= deadline {
            break;
        }
    }
    report(rows, profile, seeds)
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

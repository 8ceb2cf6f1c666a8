//! The chaos soak harness: randomized worlds, a randomized multi-client
//! workload, and a differential consistency oracle.
//!
//! Every seed deterministically generates a whole world — client count,
//! topology, transport, nfsd pool width, mount semantics, and a fault
//! timeline mixing partitions, loss bursts, duplication, reordering,
//! delay spikes, server crashes, and **byte corruption** — then runs a
//! phased workload from every client: each round, every client rewrites
//! its own files (single-writer discipline), exercises non-idempotent
//! CREATE/REMOVE pairs, and reads its neighbours' files. Every
//! client-visible outcome is recorded as a [`renofs_oracle::Obs`] and
//! fed, as the world runs, to a [`renofs_oracle::StreamingOracle`], which checks it
//! against the sequential model filesystem in bounded memory: close-to-
//! open consistency, content integrity, synchronous-write durability,
//! and exactly-once semantics for non-idempotent RPCs (DESIGN.md §10).
//! `tests/soak_differential.rs` holds its verdicts to a buffered
//! reference checker that lives in the oracle crate's tests.
//!
//! A violating seed **auto-shrinks**: the harness re-runs the case with
//! fewer clients, then greedily drops fault windows, then trims rounds,
//! keeping every reduction that still violates — and prints a minimal
//! deterministic `repro soak --case ...` command.
//!
//! Every case's seeds derive from its position, so output is
//! byte-identical at any `--jobs` level. `world` holds what a seed names
//! (the recipe, fault windows and the `--case` grammar), `run` runs one
//! case (the workload, the observation sink and the shrinker), and
//! `report` sweeps seeds and renders the tables.

use renofs_sim::SimDuration;

mod report;
mod run;
mod world;

pub use report::{replay_report, sweep, SoakReport, SoakRow};
pub use run::{run_case, run_case_opts, shrink, CaseOutcome, RunOpts};
pub use world::{
    derive_world_for, filter_crash_replays, kept_windows, DerivedWorld, SoakCase, SoakProfile,
    WindowKind, WindowSpec,
};

/// Virtual length of one workload round.
const ROUND: u64 = 8; // seconds
/// Offset of the cross-read phase within a round.
const READ_SLOT: u64 = 4; // seconds
/// Setup slack before round 0 (mounts, mkdir, file creation).
const SETUP: u64 = 3; // seconds
/// Client attribute-cache lifetime in soak worlds.
const ATTR_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Close-to-open staleness the oracle tolerates: the attribute-cache
/// lifetime plus transfer/scheduling slack.
pub const GRACE_NS: u64 = 2_000_000_000;
/// A sweep's seed count per scale when `--seeds` is not given.
const QUICK_SEEDS: usize = 12;
const PAPER_SEEDS: usize = 64;

/// A deliberately planted consistency bug, for mutation-testing the
/// oracle (the soak must *catch* these; they are never enabled by
/// `repro soak`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No bug: the tuned system.
    None,
    /// Disable the server duplicate-request cache: retransmitted
    /// non-idempotent RPCs re-execute.
    NoDupCache,
    /// Never expire the client attribute cache: close-to-open breaks.
    StickyAttrs,
    /// Do not flush dirty data on close: other clients read old bytes.
    NoClosePush,
    /// Lease client serves cached data past its lease expiry (lease
    /// worlds only): the cache outlives the term the server promised.
    ServeStaleLease,
    /// Server reboots without waiting out the maximum lease term (lease
    /// worlds only): conflicting leases are granted while pre-crash
    /// holders still trust theirs.
    NoRebootGrace,
    /// Client 0's automount map aliases every non-root export onto
    /// server 0 (sharded worlds only): that one client resolves its
    /// peers' shard subtrees against the wrong server's namespace, so
    /// durable files its neighbours wrote simply are not there.
    WrongShardRoute,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::time::Instant;

    #[test]
    fn derivation_is_a_pure_function_of_the_seed() {
        for seed in 0..50 {
            let a = derive_world_for(seed, SoakProfile::Quick);
            let b = derive_world_for(seed, SoakProfile::Quick);
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.windows, b.windows);
            assert!((2..=5).contains(&a.clients));
            assert!((3..=5).contains(&a.rounds));
            assert!((1..=4).contains(&a.windows.len()));
            for w in &a.windows {
                assert!(w.at_ms >= SETUP * 1000, "{w:?}");
            }
        }
    }

    #[test]
    fn case_roundtrips_through_the_cli_encoding() {
        let mut case = SoakCase::from_seed(17);
        case.clients = 1;
        case.windows = vec![1];
        let s = case.to_string();
        assert_eq!(SoakCase::parse(&s).unwrap(), case);
        // Omitted fields fall back to the derived values.
        let partial = SoakCase::parse("seed=17").unwrap();
        assert_eq!(partial, SoakCase::from_seed(17));
        assert!(SoakCase::parse("clients=2").is_err());
        assert!(SoakCase::parse("seed=17,bogus=1").is_err());
        // An empty windows list parses (a fault-free world).
        let none = SoakCase::parse("seed=17,windows=").unwrap();
        assert!(none.windows.is_empty());
        // A nonzero salt survives the roundtrip; zero stays implicit.
        case.salt = 7;
        assert!(case.to_string().contains("salt=7"));
        assert_eq!(SoakCase::parse(&case.to_string()).unwrap(), case);
        assert_eq!(SoakCase::parse("seed=17").unwrap().salt, 0);
        // A case names a sub-world of its seed. Seed 3 derives 3 clients
        // and 2 fault windows; rounds past the derived count only
        // lengthen the world.
        let full = SoakCase::from_seed(3);
        assert_eq!((full.clients, full.windows.len()), (3, 2), "{full}");
        assert_eq!(SoakCase::parse("seed=3,rounds=9").unwrap().rounds, 9);
        for (spec, why) in [
            ("seed=3,clients=0", "outside 1..=3"),
            ("seed=3,clients=9", "outside 1..=3"),
            ("seed=3,rounds=0", "rounds=0"),
            ("seed=3,windows=7;9", "window 7 is out of range"),
            ("seed=3,windows=2", "window 2 is out of range"),
            ("seed=3,windows=1;1", "window 1 is listed twice"),
        ] {
            let err = SoakCase::parse(spec).expect_err(spec);
            assert!(err.contains(why), "{spec}: {err}");
        }
    }

    #[test]
    fn a_handful_of_seeds_soak_clean() {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        let r = sweep(&scale, SoakProfile::Quick, Some(6), None);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.total_violations(), 0, "{r}");
        assert!(r.shrunk.is_none());
        for row in &r.rows {
            assert!(row.outcome.ok_ops > 0, "{row:?}");
        }
        // The seed mix exercises the corruption path somewhere.
        assert!(
            r.rows.iter().any(|row| row
                .world
                .windows
                .iter()
                .any(|w| w.kind == WindowKind::Corrupt)),
            "expected at least one corrupt window in the first seeds"
        );
    }

    #[test]
    fn lease_worlds_soak_clean_and_exercise_leases() {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        let r = sweep(&scale, SoakProfile::Lease, Some(4), None);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.total_violations(), 0, "{r}");
        assert!(r.shrunk.is_none());
        for row in &r.rows {
            assert!(row.outcome.ok_ops > 0, "{row:?}");
            assert!(!row.world.soft, "lease worlds are hard mounts only");
            assert!(row.outcome.leases.issued > 0, "no leases issued: {row:?}");
        }
        // The sweep hits lease contention somewhere: recalls, deferred
        // grants, or server-side expiry of unreleased terms.
        assert!(
            r.rows.iter().any(|row| {
                let l = row.outcome.leases;
                l.recalls > 0 || l.vacate_waits > 0 || l.expiries > 0
            }),
            "no lease contention anywhere in the sweep: {r}"
        );
        // The lease render carries the lease-traffic columns.
        assert!(r.to_string().contains("recall"), "{r}");
    }

    #[test]
    fn lease_case_roundtrips_and_derivation_is_pure() {
        let case = SoakCase::from_seed_profile(3, SoakProfile::Lease);
        let s = case.to_string();
        assert!(s.contains("profile=lease"), "{s}");
        assert_eq!(SoakCase::parse(&s).unwrap(), case);
        for seed in 0..32 {
            let a = derive_world_for(seed, SoakProfile::Lease);
            let b = derive_world_for(seed, SoakProfile::Lease);
            assert_eq!(a.windows, b.windows);
            assert!(!a.soft, "lease worlds must mount hard");
            for w in &a.windows {
                if w.kind == WindowKind::Partition {
                    assert!(w.dur_ms < 2_500, "partition outlives the term: {w:?}");
                }
            }
        }
    }

    #[test]
    fn report_headers_print_the_grace_their_worlds_run_under() {
        let header = |profile| {
            let report = SoakReport {
                rows: Vec::new(),
                first_violations: Vec::new(),
                shrunk: None,
                profile,
                seeds: 0,
            };
            report.to_string().lines().next().unwrap().to_string()
        };
        assert!(header(SoakProfile::Lease).contains("grace 500 ms"));
        assert!(header(SoakProfile::Quick).contains("grace 2000 ms"));
        assert!(header(SoakProfile::Long).contains("grace 2000 ms"));
    }

    #[test]
    fn a_sweep_past_its_deadline_runs_one_chunk_and_says_so() {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        let r = sweep(&scale, SoakProfile::Quick, Some(6), Some(Instant::now()));
        let seeds: Vec<u64> = r.rows.iter().map(|row| row.seed).collect();
        assert_eq!(seeds, [0, 1]);
        assert_eq!(r.total_violations(), 0, "{r}");
        // The title, the header, the rule and the two rows print as a
        // whole two-seed sweep does; only the summary adds the cut.
        let (cut, whole) = (
            r.to_string(),
            sweep(&scale, SoakProfile::Quick, Some(2), None).to_string(),
        );
        let (cut, whole): (Vec<_>, Vec<_>) = (cut.lines().collect(), whole.lines().collect());
        assert_eq!(cut[..5], whole[..5]);
        assert_eq!(
            cut[5],
            format!(
                "{} (cut short after 2 of 6 seeds: the deadline passed)",
                whole[5]
            )
        );
    }
}

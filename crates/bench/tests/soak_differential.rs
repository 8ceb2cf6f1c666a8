//! Differential equivalence: the streaming checker must report the
//! *identical* violation set — same kinds, same paths, same order — as
//! the buffered reference checker (`crates/oracle/tests/reference/`,
//! test code only) on every world both can see.
//!
//! Each case runs once with capture enabled: the streaming verdict
//! comes from the live run, the buffered verdict from replaying the
//! captured client-major log post-hoc through the reference, with the
//! same crash-window replay filter. The comparison covers
//! the full 24-seed quick sweep that `scripts/check.sh` gates on, the
//! first 24 lease worlds at the lease grace, plus every planted mutant
//! from `soak_mutation.rs` — the bugs must be caught by the streaming
//! path with byte-identical reports.

use renofs::TransportKind;
use renofs_bench::experiments::soak::{
    derive_world_for, filter_crash_replays, kept_windows, run_case_opts, Mutation, RunOpts,
    SoakCase, SoakProfile, WindowKind, GRACE_NS,
};
use renofs_oracle::StreamConfig;

#[path = "../../oracle/tests/reference/mod.rs"]
mod reference;
use reference::Oracle;

/// Runs one case through the streaming checker (capturing the log),
/// replays the captured log through the buffered checker, and asserts
/// the two violation lists are identical.
fn assert_equivalent(case: &SoakCase, mutation: Mutation) -> usize {
    let opts = RunOpts {
        capture: true,
        ..RunOpts::default()
    };
    let out = run_case_opts(case, mutation, &opts);
    let log = out.full_log.as_ref().expect("capture enabled");
    assert_eq!(
        log.len(),
        out.observations,
        "case {case}: captured log and processed count disagree"
    );
    let grace = match case.profile {
        SoakProfile::Lease => StreamConfig::for_lease_soak().grace,
        _ => GRACE_NS,
    };
    let mut buffered = Oracle::new(grace).check(log);
    filter_crash_replays(&kept_windows(case), &mut buffered);
    let streamed: Vec<String> = out.violations.iter().map(|v| format!("{v:?}")).collect();
    let buffed: Vec<String> = buffered.iter().map(|v| format!("{v:?}")).collect();
    assert_eq!(
        streamed, buffed,
        "case {case} ({mutation:?}): streaming and buffered verdicts diverged"
    );
    out.violations.len()
}

/// The `scripts/check.sh` gate range: every world of the 24-seed quick
/// sweep must adjudicate identically under both checkers (and clean).
#[test]
fn quick_sweep_is_equivalent_and_clean() {
    let mut total = 0;
    for seed in 0..24u64 {
        total += assert_equivalent(&SoakCase::from_seed(seed), Mutation::None);
    }
    assert_eq!(total, 0, "the quick sweep must soak clean");
}

/// Lease worlds at the 500 ms lease grace: the 24-seed sweep, seed
/// 51's full world and its shrunk fault-free case. Seed 51 is where a
/// write-behind version read before its flush, with a byte-identical
/// twin one round older, once made the streaming checker report a stale
/// read the buffered one did not.
#[test]
fn lease_sweep_is_equivalent_and_clean() {
    let mut cases: Vec<SoakCase> = (0..24u64)
        .chain([51])
        .map(|seed| SoakCase::from_seed_profile(seed, SoakProfile::Lease))
        .collect();
    let shrunk = "seed=51,clients=2,rounds=5,windows=,profile=lease,salt=11";
    cases.push(SoakCase::parse(shrunk).expect("seed 51's shrunk case parses"));
    let total: usize = cases
        .iter()
        .map(|case| assert_equivalent(case, Mutation::None))
        .sum();
    assert_eq!(total, 0, "these lease worlds must soak clean");
}

/// Seeds whose derived worlds can expose a disabled duplicate-request
/// cache (same filter as `soak_mutation.rs`): UDP hard mounts under
/// random frame loss or corruption.
fn dup_cache_candidates() -> Vec<u64> {
    (0..400)
        .filter(|&seed| {
            let d = derive_world_for(seed, SoakProfile::Quick);
            let udp = !matches!(d.transport.1, TransportKind::Tcp);
            let risky = d.windows.iter().any(|w| {
                matches!(w.kind, WindowKind::Loss | WindowKind::Corrupt) && w.prob >= 0.15
            });
            udp && !d.soft && risky
        })
        .collect()
}

/// Every planted mutant must be *caught by the streaming path* with a
/// verdict identical to the buffered checker's. The dup-cache mutant
/// needs a lossy-UDP world; the consistency mutants fail almost
/// anywhere.
#[test]
fn planted_mutants_are_equivalent_and_caught() {
    let mut caught = 0;
    for &seed in dup_cache_candidates().iter().take(12) {
        caught += assert_equivalent(&SoakCase::from_seed(seed), Mutation::NoDupCache);
        if caught > 0 {
            break;
        }
    }
    assert!(caught > 0, "streaming path never caught NoDupCache");
    for mutation in [Mutation::StickyAttrs, Mutation::NoClosePush] {
        let mut caught = 0;
        for seed in 0..5u64 {
            caught += assert_equivalent(&SoakCase::from_seed(seed), mutation);
        }
        assert!(caught > 0, "streaming path never caught {mutation:?}");
    }
}

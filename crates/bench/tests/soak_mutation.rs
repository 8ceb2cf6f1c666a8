//! Mutation-testing the soak oracle: a deliberately planted consistency
//! bug must be *caught* by `repro soak` and then *shrunk* to a small,
//! deterministic repro. If the oracle waves these through, its clean
//! verdict on the real system means nothing.

use renofs::TransportKind;
use renofs_bench::experiments::soak::{
    derive_world_for, run_case, shrink, Mutation, SoakCase, SoakProfile, WindowKind,
};

/// Seeds whose derived worlds can expose a disabled duplicate-request
/// cache at small scale: a UDP hard mount under a fault window that
/// drops *individual frames at random* (loss, or corruption caught by a
/// checksum), so a reply can vanish and the retransmission re-execute.
/// Duplication alone never loses the first OK reply, and a partition
/// only swallows a reply that happens to be *transmitted* inside the
/// window — which at one or two clients (no nfsd queueing delay) is a
/// microsecond coincidence that effectively never happens. Derivation
/// is pure and cheap, so scanning is instant; only promising seeds are
/// actually run.
fn candidate_seeds() -> Vec<u64> {
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

#[test]
fn planted_dup_cache_bug_is_caught_and_shrunk() {
    let seeds = candidate_seeds();
    assert!(
        seeds.len() >= 10,
        "the seed space must offer lossy UDP worlds, got {}",
        seeds.len()
    );
    // The tuned system must soak clean on the exact worlds the mutant
    // fails on — otherwise the catch below proves nothing.
    let mut caught: Option<SoakCase> = None;
    for &seed in &seeds {
        let case = SoakCase::from_seed(seed);
        let mutant = run_case(&case, Mutation::NoDupCache);
        if !mutant.violations.is_empty() {
            let clean = run_case(&case, Mutation::None);
            assert!(
                clean.violations.is_empty(),
                "seed {seed}: the unmutated system must pass the oracle, got {:?}",
                clean.violations
            );
            caught = Some(case);
            break;
        }
    }
    let case = caught.expect("no candidate world exposed the disabled dup cache");
    let minimal = shrink(&case, Mutation::NoDupCache);
    // The shrinker must reach a genuinely small repro.
    assert!(
        minimal.clients <= 2,
        "shrunk to {} clients: {minimal:?}",
        minimal.clients
    );
    assert!(
        minimal.windows.len() <= 3,
        "shrunk to {} fault windows: {minimal:?}",
        minimal.windows.len()
    );
    // And the minimal case still reproduces, deterministically.
    let replay = run_case(&minimal, Mutation::NoDupCache);
    assert!(
        !replay.violations.is_empty(),
        "the minimal case must still violate"
    );
    let again = run_case(&minimal, Mutation::NoDupCache);
    assert_eq!(
        replay.violations.len(),
        again.violations.len(),
        "identical reruns reproduce identically"
    );
}

/// The cache-consistency mutants break close-to-open almost everywhere:
/// a client that never expires attributes serves stale versions, and one
/// that skips the close-time flush publishes nothing for neighbours to
/// read. A handful of seeds must suffice to catch each.
#[test]
fn planted_consistency_bugs_are_caught() {
    for (mutation, what) in [
        (Mutation::StickyAttrs, "sticky attribute cache"),
        (Mutation::NoClosePush, "missing close-time flush"),
    ] {
        let caught = (0..5u64).any(|seed| {
            !run_case(&SoakCase::from_seed(seed), mutation)
                .violations
                .is_empty()
        });
        assert!(caught, "oracle never caught the {what} mutant");
    }
}

/// The sharded-fleet mutant: client 0 runs a stale automount map that
/// aliases every non-root export onto server 0, so its neighbours'
/// shard subtrees resolve against the wrong server's namespace. Any
/// derived world fielding at least two servers exposes it the moment
/// client 0 cross-reads a neighbour's durable file (the file simply is
/// not on server 0), and because the catch needs no fault window at
/// all, the shrinker must strip the case down to a faultless two-client
/// world.
#[test]
fn planted_wrong_shard_route_is_caught_and_shrunk() {
    let seeds: Vec<u64> = (0..100)
        .filter(|&seed| derive_world_for(seed, SoakProfile::Quick).servers >= 2)
        .collect();
    assert!(
        seeds.len() >= 10,
        "the seed space must offer multi-server worlds, got {}",
        seeds.len()
    );
    let mut caught: Option<SoakCase> = None;
    for &seed in &seeds {
        let case = SoakCase::from_seed(seed);
        let mutant = run_case(&case, Mutation::WrongShardRoute);
        if !mutant.violations.is_empty() {
            let clean = run_case(&case, Mutation::None);
            assert!(
                clean.violations.is_empty(),
                "seed {seed}: the unmutated fleet must pass the oracle, got {:?}",
                clean.violations
            );
            caught = Some(case);
            break;
        }
    }
    let case = caught.expect("no multi-server world exposed the wrong-shard route");
    let minimal = shrink(&case, Mutation::WrongShardRoute);
    assert!(
        minimal.clients <= 2,
        "shrunk to {} clients: {minimal:?}",
        minimal.clients
    );
    assert!(
        minimal.windows.is_empty(),
        "a wrong route needs no fault window, kept {:?}",
        minimal.windows
    );
    let replay = run_case(&minimal, Mutation::WrongShardRoute);
    assert!(
        !replay.violations.is_empty(),
        "the minimal case must still violate"
    );
    let again = run_case(&minimal, Mutation::WrongShardRoute);
    assert_eq!(
        replay.violations.len(),
        again.violations.len(),
        "identical reruns reproduce identically"
    );
}

/// The two planted NQNFS lease bugs, each fatal to the lease contract:
/// a client that serves cached data past its lease expiry (the term the
/// server promised is the *only* thing standing in for per-open
/// revalidation), and a server that reboots without waiting out the
/// maximum lease term (pre-crash holders still trust leases the
/// rebooted server has forgotten, so it grants conflicting ones). Both
/// must be caught by the lease soak's tightened oracle grace and then
/// shrunk to a deterministic minimal repro.
#[test]
fn planted_lease_mutants_are_caught_and_shrunk() {
    for (mutation, needs_crash, what) in [
        (
            Mutation::ServeStaleLease,
            false,
            "client serving cache past lease expiry",
        ),
        (
            Mutation::NoRebootGrace,
            true,
            "server skipping the post-reboot lease grace",
        ),
    ] {
        // The reboot-grace mutant is only observable across a crash;
        // derivation is pure and cheap, so scan for qualifying worlds.
        let seeds: Vec<u64> = (0..300)
            .filter(|&s| {
                let d = derive_world_for(s, SoakProfile::Lease);
                d.clients >= 2
                    && (!needs_crash || d.windows.iter().any(|w| w.kind == WindowKind::Crash))
            })
            .collect();
        assert!(
            seeds.len() >= 10,
            "the lease seed space must offer qualifying worlds for the \
             {what} mutant, got {}",
            seeds.len()
        );
        let mut caught: Option<SoakCase> = None;
        for &seed in &seeds {
            let case = SoakCase::from_seed_profile(seed, SoakProfile::Lease);
            if !run_case(&case, mutation).violations.is_empty() {
                // The honest system must pass the oracle on the exact
                // world the mutant fails on.
                let clean = run_case(&case, Mutation::None);
                assert!(
                    clean.violations.is_empty(),
                    "seed {seed}: the unmutated lease world must pass, got {:?}",
                    clean.violations
                );
                caught = Some(case);
                break;
            }
        }
        let case = caught.unwrap_or_else(|| panic!("no lease world exposed the {what} mutant"));
        let minimal = shrink(&case, mutation);
        let replay = run_case(&minimal, mutation);
        assert!(
            !replay.violations.is_empty(),
            "the minimal case must still violate ({what})"
        );
        let again = run_case(&minimal, mutation);
        assert_eq!(
            replay.violations.len(),
            again.violations.len(),
            "identical reruns reproduce identically ({what})"
        );
    }
}

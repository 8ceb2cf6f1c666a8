//! Bounded-memory regression: `peak_retained` must be a function of
//! the staleness window, never of soak length. A future retirement bug
//! that silently re-buffers the world fails here, not in an overnight
//! run.
//!
//! The case is a quick-profile world with its round count overridden
//! far past anything the quick sweep runs (`SoakCase::rounds` is an
//! override, so no new world recipe is needed), checked with a
//! deliberately small retirement window so retirement cycles many
//! times. Doubling the round count must not move the high-water mark
//! at all.

use renofs_bench::experiments::soak::{run_case_opts, Mutation, RunOpts, SoakCase, GRACE_NS};
use renofs_oracle::StreamConfig;

const SEC: u64 = 1_000_000_000;

/// The PR 5 quick soak checked 1156 observations across its 12 seeds;
/// the long run here must cover at least 10x that in a single world.
const QUICK_SWEEP_OPS: usize = 1156;

fn run(rounds: usize) -> renofs_bench::experiments::soak::CaseOutcome {
    // Seed 5's quick world has 5 clients on a fast LAN — the densest
    // cross-read traffic in the early seed range. Faults are dropped:
    // the derived windows all land inside the original 3-round span,
    // so they would only perturb the first seconds anyway, and a clean
    // world keeps the test fast and the oracle verdict empty.
    let mut case = SoakCase::from_seed(5);
    assert!(case.clients >= 4, "seed 5 world changed shape: {case}");
    case.windows.clear();
    case.rounds = rounds;
    let opts = RunOpts {
        stream: StreamConfig::new(GRACE_NS, 30 * SEC),
        ..RunOpts::default()
    };
    run_case_opts(&case, Mutation::None, &opts)
}

#[test]
fn peak_retained_is_independent_of_soak_length() {
    let short = run(110);
    let long = run(220);
    assert!(
        short.violations.is_empty() && long.violations.is_empty(),
        "the clean world must stay clean: {:?} / {:?}",
        short.violations,
        long.violations
    );
    assert!(
        long.observations >= 10 * QUICK_SWEEP_OPS,
        "the long run must dwarf the quick sweep: {} observations",
        long.observations
    );
    // The memory bound: doubling the soak length must not move the
    // high-water mark at all (the trajectory reaches steady state
    // within the first retirement cycles), and the retirement counter
    // must show the checker actually discarding history.
    assert_eq!(
        short.peak_retained, long.peak_retained,
        "peak_retained moved with soak length"
    );
    assert!(
        long.peak_retained <= 64,
        "peak_retained {} blew the fixed ceiling",
        long.peak_retained
    );
    assert!(
        short.retired > 0 && long.retired > short.retired,
        "retirement must track length: short {} long {}",
        short.retired,
        long.retired
    );
    assert!(
        long.retired >= 2 * short.retired - short.retired / 4,
        "retired must grow ~linearly: short {} long {}",
        short.retired,
        long.retired
    );
}

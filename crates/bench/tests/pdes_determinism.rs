//! Carved worlds through the job runner.
//!
//! `determinism.rs` holds the `--jobs` axis for the crowd and the plain
//! soak, whose multi-client cells carve (quiet background, UDP). What is
//! left for this file: the guard that such a world really does carve, or
//! those tests compare the single queue with itself, and the lease soak,
//! whose client-side lease state is the one thing they do not run.

use renofs::{World, WorldConfig};
use renofs_bench::experiments::soak;
use renofs_bench::Scale;
use renofs_sim::SimDuration;

fn scale(jobs: usize) -> Scale {
    let mut s = Scale::quick();
    s.duration = SimDuration::from_secs(4);
    s.warmup = SimDuration::from_secs(1);
    s.nfiles = 12;
    s.jobs = jobs;
    s
}

/// The carve guard: the representative crowd world — multi-client,
/// quiet background, UDP — must actually carve into per-machine domains.
#[test]
fn quiet_udp_multiclient_worlds_carve() {
    let mut cfg = WorldConfig::baseline();
    cfg.clients = 4;
    let world = World::new(cfg);
    assert!(
        world.is_partitioned(),
        "a quiet multi-client UDP world must carve into domains"
    );
}

/// Lease worlds across `--jobs`: write-behind and recall servicing add
/// client-side state (the lease map, the recall queue, retry sleeps)
/// whose iteration order must stay deterministic for the rendered report
/// — lease-traffic columns included — to come out the same byte for byte.
#[test]
fn lease_soak_output_is_byte_identical_across_the_matrix() {
    let render = |jobs: usize| {
        soak::soak_profile_with(
            &scale(jobs),
            0,
            2,
            soak::Mutation::None,
            soak::SoakProfile::Lease,
        )
        .to_string()
    };
    let baseline = render(1);
    assert!(
        baseline.contains("recall"),
        "lease report must carry lease columns: {baseline}"
    );
    for jobs in [2usize, 4] {
        assert_eq!(
            render(jobs),
            baseline,
            "lease soak output diverged at jobs={jobs}"
        );
    }
}

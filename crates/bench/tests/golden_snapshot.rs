//! Golden-snapshot guard for the hot-path work: the rendered output of
//! `repro graph1 --scale quick` is pinned to a committed fixture, so any
//! change to the event queue, the mbuf layer, or the network simulator
//! that shifts results — even by one rounding digit — fails CI instead
//! of silently drifting the reproduction.
//!
//! The fixture is regenerated (deliberately, when an output change is
//! intended and understood) with:
//!
//! ```text
//! cargo run --release -p renofs-bench --bin repro -- graph1 --scale quick \
//!   > crates/bench/tests/golden/graph1_quick.txt
//! ```

use renofs_bench::experiments::{crowd, soak, transport};
use renofs_bench::Scale;

const GOLDEN: &str = include_str!("golden/graph1_quick.txt");
const CROWD_GOLDEN: &str = include_str!("golden/crowd_quick.txt");
const SOAK_GOLDEN: &str = include_str!("golden/soak_quick.txt");

#[test]
fn graph1_quick_matches_the_committed_golden_snapshot() {
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let out = transport::graph1(&scale).to_string();
    assert_eq!(
        out.trim_end(),
        GOLDEN.trim_end(),
        "graph1 --scale quick no longer matches the committed fixture; \
         if the change is intended, regenerate tests/golden/graph1_quick.txt"
    );
}

#[test]
fn graph1_quick_matches_the_golden_snapshot_at_every_worker_count() {
    for jobs in [2, 4, 8] {
        let mut scale = Scale::quick();
        scale.jobs = jobs;
        let out = transport::graph1(&scale).to_string();
        assert_eq!(
            out.trim_end(),
            GOLDEN.trim_end(),
            "graph1 --scale quick diverged from the fixture at jobs={jobs}"
        );
    }
}

#[test]
fn crowd_quick_matches_the_committed_golden_snapshot() {
    // Regenerate (deliberately) with:
    //   cargo run --release -p renofs-bench --bin repro -- crowd \
    //     --scale quick --jobs 1 > crates/bench/tests/golden/crowd_quick.txt
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let out = crowd::crowd(&scale).to_string();
    assert_eq!(
        out.trim_end(),
        CROWD_GOLDEN.trim_end(),
        "crowd --scale quick no longer matches the committed fixture; \
         if the change is intended, regenerate tests/golden/crowd_quick.txt"
    );
}

#[test]
fn crowd_quick_matches_the_golden_snapshot_at_every_worker_count() {
    for jobs in [2, 4, 8] {
        let mut scale = Scale::quick();
        scale.jobs = jobs;
        let out = crowd::crowd(&scale).to_string();
        assert_eq!(
            out.trim_end(),
            CROWD_GOLDEN.trim_end(),
            "crowd --scale quick diverged from the fixture at jobs={jobs}"
        );
    }
}

#[test]
fn soak_quick_matches_the_committed_golden_snapshot() {
    // Regenerate (deliberately) with:
    //   cargo run --release -p renofs-bench --bin repro -- soak \
    //     --scale quick --jobs 1 > crates/bench/tests/golden/soak_quick.txt
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let out = soak::sweep(&scale, soak::SoakProfile::Quick, None, None).to_string();
    assert_eq!(
        out.trim_end(),
        SOAK_GOLDEN.trim_end(),
        "soak --scale quick no longer matches the committed fixture; \
         if the change is intended, regenerate tests/golden/soak_quick.txt"
    );
}

#[test]
fn soak_quick_matches_the_golden_snapshot_at_every_worker_count() {
    for jobs in [2, 4, 8] {
        let mut scale = Scale::quick();
        scale.jobs = jobs;
        let out = soak::sweep(&scale, soak::SoakProfile::Quick, None, None).to_string();
        assert_eq!(
            out.trim_end(),
            SOAK_GOLDEN.trim_end(),
            "soak --scale quick diverged from the fixture at jobs={jobs}"
        );
    }
}

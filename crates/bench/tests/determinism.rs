//! The runner's determinism contract: rendered experiment output must
//! be byte-identical whatever the worker count, because per-job seeds
//! derive from sweep position and results are reassembled in job order.

use renofs_bench::experiments::{cd, crowd, faults, shard, soak, transport};
use renofs_bench::Scale;
use renofs_sim::SimDuration;

fn quick_subset() -> Scale {
    let mut scale = Scale::quick();
    scale.lan_rates = vec![10.0, 30.0];
    scale.slow_rates = vec![3.0];
    scale
}

#[test]
fn graph1_is_byte_identical_across_worker_counts() {
    let mut scale = quick_subset();
    scale.jobs = 1;
    let serial = transport::graph1(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = transport::graph1(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "graph1 output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn multi_run_aggregation_is_byte_identical_across_worker_counts() {
    // runs > 1 exercises the mean ± stddev aggregation path on top of
    // the job-order reassembly.
    let mut scale = quick_subset();
    scale.runs = 2;
    scale.jobs = 1;
    let serial = transport::graph1(&scale).to_string();
    scale.jobs = 4;
    let parallel = transport::graph1(&scale).to_string();
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("(mean of 2 runs)"),
        "aggregated labels expected, got:\n{serial}"
    );
    // The aggregated numbers themselves, not only their agreement across
    // worker counts: `Scale::quick()` runs once, so no golden covers
    // `aggregate_runs`.
    assert_eq!(
        renofs_oracle::fnv1a(serial.as_bytes()),
        MULTI_RUN_FNV,
        "the two-run graph1 moved:\n{serial}"
    );
}

/// FNV-1a of the two-run quick-subset graph1 above.
const MULTI_RUN_FNV: u64 = 0x54d5_016f_1a21_043d;

#[test]
fn faults_is_byte_identical_across_worker_counts() {
    // The fault matrix threads scheduled failures (and their RNG draws)
    // through the link layer; fault state must stay a pure function of
    // virtual time for this to hold.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = faults::faults(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = faults::faults(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "faults output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn crowd_is_byte_identical_across_worker_counts() {
    // The crowd sweep spawns N generator procs per cell (not one), so
    // seed-splitting per client — not which worker runs a cell — must be
    // the only source of randomness for the output to survive any fan-out.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = crowd::crowd(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = crowd::crowd(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "crowd output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn shard_is_byte_identical_across_worker_counts() {
    // Every fleet cell seeds its world and workload from its sweep
    // position; the rendered table carries each cell's state hash, so a
    // cell that simulated anything differently at another worker count
    // shows here even where the rounded columns agree.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = shard::shard(&scale).to_string();
    for jobs in [2, 4] {
        scale.jobs = jobs;
        let parallel = shard::shard(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "shard output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn soak_is_byte_identical_across_worker_counts() {
    // Every chaos world derives from its seed alone and each client
    // thread returns its observation log through a per-client slot, so
    // the merged oracle verdict — and the rendered report — must not
    // depend on thread scheduling or worker count.
    let render =
        |scale: &Scale| soak::sweep(scale, soak::SoakProfile::Quick, Some(8), None).to_string();
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = render(&scale);
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = render(&scale);
        assert_eq!(
            serial, parallel,
            "soak output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn table5_is_byte_identical_across_worker_counts() {
    // Table 5 fans out heterogeneous jobs (local rows and NFS rows with
    // different configs); order-preserving reassembly must still hold.
    let mut scale = Scale::quick();
    scale.cd_iters = 3;
    scale.jobs = 1;
    let serial = cd::table5(&scale).to_string();
    scale.jobs = 4;
    let parallel = cd::table5(&scale).to_string();
    assert_eq!(serial, parallel);
}

/// Lease worlds across `--jobs`: write-behind and recall servicing add
/// client-side state (the lease map, the recall queue, retry sleeps)
/// whose iteration order must stay deterministic for the rendered report
/// — lease-traffic columns included — to come out the same byte for byte.
#[test]
fn lease_soak_output_is_byte_identical_across_the_matrix() {
    let render = |jobs: usize| {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_secs(4);
        scale.warmup = SimDuration::from_secs(1);
        scale.nfiles = 12;
        scale.jobs = jobs;
        soak::sweep(&scale, soak::SoakProfile::Lease, Some(2), None).to_string()
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

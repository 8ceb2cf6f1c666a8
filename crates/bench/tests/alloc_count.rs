//! Steady-state allocation discipline, measured with the counting
//! allocator: once buffer pools and scratch vectors are warm, running
//! more simulated traffic must allocate (almost) nothing per RPC.
//!
//! Method: run the same LAN read-RPC workload twice at different
//! durations on one thread, so the second world inherits warm
//! thread-local mbuf pools. The *marginal* allocations of the extra
//! simulated seconds — (allocs of long run) − (allocs of short run) —
//! divide over the extra RPCs; world setup and pool fills cancel out.
//!
//! Needs `--features profile` (the counting allocator lives behind the
//! same feature as the profiler): `cargo test -p renofs-bench
//! --features profile --test alloc_count`.
#![cfg(feature = "profile")]

use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_bench::experiments::world_for;
use renofs_mbuf::{pool, CopyMeter, MbufChain};
use renofs_netsim::topology::presets::Background;
use std::sync::{Mutex, MutexGuard, PoisonError};

use renofs_sim::{profile, EventQueue, SimDuration, SimTime};
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// `profile::allocs()` counts for the whole process, and the harness
/// runs tests on parallel threads: every test holds this for its whole
/// body so no other test's allocations land inside a measured section.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    // A failed budget assertion poisons the lock; the others still run.
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn a_presized_event_queue_fills_without_allocating() {
    let _alone = measuring();
    let n = 512;
    // The harness thread itself allocates now and then (it may be
    // spawning the next test); that only ever adds, so the quietest of a
    // few tries is the queue's own count.
    let quietest = (0..5)
        .map(|_| {
            let mut q: EventQueue<[u64; 37]> = EventQueue::with_capacity(n);
            let a0 = profile::allocs();
            for i in 0..n as u64 {
                q.push(SimTime::from_nanos(i * 7919 % 1000), [i; 37]);
            }
            assert_eq!(q.len(), n);
            profile::allocs() - a0
        })
        .min();
    assert_eq!(quietest, Some(0), "pushes within the hint allocated");
}

/// A chain of the 8 KB READ-reply shape: a header mbuf and four clusters.
fn read_reply_chain(meter: &mut CopyMeter) -> MbufChain {
    let mut c = MbufChain::with_leading_space(64);
    c.append_bytes(&[0x5a; 48], meter);
    c.append_bytes(&[0xa5; 8192], meter);
    assert_eq!(c.seg_count(), 5);
    c
}

#[test]
fn warm_pools_build_8k_reply_chains_without_allocating() {
    let _alone = measuring();
    let mut meter = CopyMeter::new();
    // One warm-up round fills the spine, cluster and small-area lists.
    drop(read_reply_chain(&mut meter));
    // Quietest of a few tries, as above: the harness thread only adds.
    let quietest = (0..5)
        .map(|_| {
            let a0 = profile::allocs();
            for _ in 0..1000 {
                drop(read_reply_chain(&mut meter));
            }
            profile::allocs() - a0
        })
        .min();
    assert_eq!(quietest, Some(0), "a chain built on warm pools allocated");
}

#[test]
fn spines_dropped_on_a_second_thread_come_back_to_the_builder() {
    let _alone = measuring();
    // The spine twin of `crowd_budget_survives_a_second_sim_thread`
    // below: this thread only builds chains and another only drops them,
    // as a client domain's worker and the coordinator do at
    // `sim_threads > 1`. The dropper is a pure producer, so its frees
    // must reach the shared tier and this thread must refill from there;
    // a stranded spine shows as `fresh` growing by a batch every round.
    // The rounds compared build more chains than the shared tier can
    // hold, so nothing an earlier test left there can stand in for them.
    const BATCH: usize = 256;
    let (to_dropper, chains) = std::sync::mpsc::channel::<Vec<MbufChain>>();
    let (dropped, acks) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for batch in chains {
                drop(batch);
                dropped.send(()).unwrap();
            }
        });
        let mut meter = CopyMeter::new();
        let mut fresh_after = Vec::new();
        for _ in 0..40 {
            let batch: Vec<_> = (0..BATCH).map(|_| read_reply_chain(&mut meter)).collect();
            fresh_after.push(pool::spine_stats().fresh);
            to_dropper.send(batch).unwrap();
            // The next round builds only once this one has been freed.
            acks.recv().unwrap();
        }
        drop(to_dropper);
        assert_eq!(
            fresh_after[7], fresh_after[39],
            "spines freed on the other thread never came back: {fresh_after:?}"
        );
    });
}

/// Runs a pure-read LAN workload for `secs` simulated seconds and
/// returns (heap allocations during the run, RPCs completed).
fn run_reads(secs: u64) -> (u64, u64) {
    let mut world = world_for(
        TopologyKind::SameLan,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        Background::off_peak(),
        0xA11C,
    );
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let mut cfg = NhfsstoneConfig::paper(20.0, mix);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.nfiles = 20;
    cfg.seed = 7;
    let a0 = profile::allocs();
    let report = nhfsstone::run(&mut world, &cfg);
    let allocs = profile::allocs() - a0;
    let rpcs = report.read_ms.count() as u64;
    assert!(rpcs > 50, "workload must complete reads, got {rpcs}");
    (allocs, rpcs)
}

#[test]
fn steady_state_lan_read_rpcs_allocate_next_to_nothing() {
    let _alone = measuring();
    // First run warms the thread-local cluster/small-mbuf pools and
    // takes the one-time lazy-init allocations.
    let (_, _) = run_reads(10);
    let (a_short, r_short) = run_reads(20);
    let (a_long, r_long) = run_reads(60);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 200,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    eprintln!("marginal allocs/RPC, LAN read: {marginal:.3}");
    // An 8 KB read RPC moves ~6 fragments through two NICs, the link
    // layer, reassembly, and the RPC layer. With the pools (clusters,
    // small areas, chain spines) and scratch buffers in place the whole
    // path should recycle memory — and since procs run on the world's
    // own thread it does, through one thread's free lists: measured 0.000
    // (0.010, 7 allocations over 671 RPCs, while long chains spilled an
    // inline segment array). The harness's own thread can add a handful
    // to the process-wide count, so the bound stays a floor of 0.05.
    assert!(
        marginal < 0.05,
        "steady-state LAN read RPCs allocate too much: {marginal:.2} allocs/RPC \
         ({} allocs over {} extra RPCs)",
        a_long.saturating_sub(a_short),
        extra_rpcs
    );
}

/// Runs `mix` with 16 clients against a 4-daemon nfsd pool for `secs`
/// simulated seconds and returns (allocations, RPCs completed). The
/// world carves (quiet background, UDP), so this binds the partitioned
/// engine's allocation discipline at `sim_threads` OS threads.
fn run_crowd_16_threads(secs: u64, mix: LoadMix, sim_threads: usize) -> (u64, u64) {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SameLan;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.background = Background::quiet();
    cfg.clients = 16;
    cfg.nfsds = 4;
    cfg.seed = 0xA11C;
    cfg.server.dup_cache = true;
    cfg.sim_threads = sim_threads;
    let mut world = World::new(cfg);
    assert!(
        world.is_partitioned(),
        "the crowd budget binds the PDES engine"
    );
    let mut wcfg = NhfsstoneConfig::paper(4.0, mix);
    wcfg.procs = 2;
    wcfg.duration = SimDuration::from_secs(secs);
    wcfg.warmup = SimDuration::from_secs(2);
    wcfg.nfiles = 20;
    wcfg.seed = 7;
    let a0 = profile::allocs();
    let reports = nhfsstone::run_crowd(&mut world, &wcfg);
    let allocs = profile::allocs() - a0;
    let rpcs: u64 = reports.iter().map(|r| r.ops).sum();
    assert!(rpcs > 200, "crowd must complete ops, got {rpcs}");
    (allocs, rpcs)
}

/// The marginal allocations per RPC of the extra simulated seconds,
/// long run minus short run (same method as the single-client test).
fn marginal_crowd_threads(mix: LoadMix, sim_threads: usize) -> f64 {
    let (_, _) = run_crowd_16_threads(6, mix, sim_threads);
    let (a_short, r_short) = run_crowd_16_threads(10, mix, sim_threads);
    let (a_long, r_long) = run_crowd_16_threads(30, mix, sim_threads);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 500,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    eprintln!("marginal allocs/RPC at sim_threads={sim_threads}: {marginal:.3}");
    marginal
}

/// [`marginal_crowd_threads`] at the default one sim thread.
fn marginal_crowd(mix: LoadMix) -> f64 {
    marginal_crowd_threads(mix, 1)
}

#[test]
fn steady_state_read_rpcs_at_16_clients_allocate_next_to_nothing() {
    let _alone = measuring();
    // The single-client budget, re-enforced at 16 clients sharing one
    // nfsd pool: per-client transports, the request queue, and 32
    // workload procs all dropping reply chains back into the mbuf
    // pools of the one thread that runs every domain.
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let marginal = marginal_crowd(mix);
    // Measured 0.070; the bound is twice that.
    assert!(
        marginal < 0.15,
        "steady-state read RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

#[test]
fn steady_state_crowd_mix_at_16_clients_stays_within_its_op_costs() {
    let _alone = measuring();
    // The full crowd mix carries allocations the ops themselves own,
    // identical at N=1 and so not scale-out costs: every lookup decodes
    // its name into a fresh `String` on the server, and every setattr
    // (non-idempotent) clones its reply into the duplicate-request
    // cache. With 40% lookups and 10% setattrs that budgets ~1 extra
    // alloc/RPC on top of the read-path bound above; hold the line there
    // so the transport/pool side cannot silently regress underneath.
    // Measured 0.91 (0.73 before a chain's segment list was a pooled
    // spine: each cached SETATTR reply now also keeps a spine — a box
    // and its buffer — out of circulation while the ring fills); the
    // bound was and stays 1.5.
    let marginal = marginal_crowd(LoadMix::crowd());
    assert!(
        marginal < 1.5,
        "crowd-mix RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

#[test]
fn crowd_budget_survives_a_second_sim_thread() {
    let _alone = measuring();
    // The same crowd world on two OS threads: each conservative round
    // now ships its jobs to a worker over a channel (a Go order, the
    // job list, a Done report) and reply chains drop back into mbuf
    // pools from the *worker* thread, so its frees must spill to the
    // shared tier rather than strand in worker-local caches — stranding
    // shows up here as the simulation side allocating fresh clusters
    // every round. The round-protocol messages legitimately cost a few
    // allocations each, so the budget is looser than the inline bound
    // (measured 28.0 allocs/RPC, the bound is twice that); what it guards
    // is the order of magnitude: a stranded pool or a per-round
    // O(clients) buffer regression blows past it immediately.
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let marginal = marginal_crowd_threads(mix, 2);
    assert!(
        marginal < 56.0,
        "read RPCs at 16 clients on 2 sim threads allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

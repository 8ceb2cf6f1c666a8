//! Steady-state allocation discipline, measured with the counting
//! allocator: once buffer pools and scratch vectors are warm, running
//! more simulated traffic must allocate (almost) nothing per RPC.
//!
//! Method: run the same LAN read-RPC workload twice at different
//! durations on one thread, so the second world inherits warm
//! thread-local mbuf pools. The *marginal* allocations of the extra
//! simulated seconds — (allocs of long run) − (allocs of short run) —
//! divide over the extra RPCs; world setup and pool fills cancel out.
//! That also cancels whatever a proc allocates once, when it starts, so
//! two *absolute* budgets stand beside the marginal ones: a whole short
//! `World::run` per client, and a generator proc against the size of the
//! file set it draws from.
//!
//! Needs `--features profile` (the counting allocator lives behind the
//! same feature as the profiler): `cargo test -p renofs-bench
//! --features profile --test alloc_count`.
#![cfg(feature = "profile")]

use renofs::proto::{build, results};
use renofs::syscalls::Loopback;
use renofs::{
    NfsProc, NfsServer, NfsStatus, ServerConfig, TopologyKind, TransportKind, World, WorldConfig,
};
use renofs_bench::experiments::world_for;
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::topology::presets::Background;
use std::sync::{Mutex, MutexGuard, PoisonError};

use renofs_sim::{profile, EventQueue, SimDuration, SimTime};
use renofs_sunrpc::{
    AcceptStat, AuthUnix, CallHeader, ReplyHeader, RpcError, NFS_PROGRAM, NFS_VERSION,
};
use renofs_vfs::{NameCache, VnodeId};
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};
use renofs_xdr::{XdrDecoder, XdrError};

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
fn a_crowds_live_set_of_8k_reply_chains_is_rebuilt_without_allocating() {
    let _alone = measuring();
    // A crowd holds many chains at once, not one at a time: the free
    // lists must park a whole live set when it is dropped and hand it
    // back to the next one. 288 8 KB replies hold 1,152 clusters, all the
    // cluster list parks (and 288 of the spines and small areas).
    const LIVE: usize = 288;
    let mut meter = CopyMeter::new();
    let mut live = Vec::with_capacity(LIVE);
    let mut round = || {
        live.extend((0..LIVE).map(|_| read_reply_chain(&mut meter)));
        live.clear();
    };
    // The first round fills the lists.
    round();
    assert_eq!(quietest(round), 0, "a rebuilt live set allocated");
}

/// The LAN read-RPC mount every single-client budget here uses.
fn udp() -> TransportKind {
    TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    }
}

/// Runs a pure-read LAN workload over `transport` for `secs` simulated
/// seconds and returns (heap allocations during the run, RPCs completed).
fn run_reads(transport: TransportKind, secs: u64) -> (u64, u64) {
    let mut world = world_for(
        TopologyKind::SameLan,
        transport,
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

/// The marginal allocations per RPC of 40 extra simulated seconds of LAN
/// reads over `transport`, long run minus short run.
fn marginal_reads(transport: TransportKind) -> f64 {
    // First run warms the thread-local cluster/small-mbuf pools and
    // takes the one-time lazy-init allocations.
    let (_, _) = run_reads(transport.clone(), 10);
    let (a_short, r_short) = run_reads(transport.clone(), 20);
    let (a_long, r_long) = run_reads(transport.clone(), 60);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 200,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    eprintln!("marginal allocs/RPC, LAN read over {transport:?}: {marginal:.3}");
    marginal
}

#[test]
fn steady_state_lan_read_rpcs_allocate_next_to_nothing() {
    let _alone = measuring();
    let marginal = marginal_reads(udp());
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
        "steady-state LAN read RPCs allocate too much: {marginal:.2} allocs/RPC"
    );
}

#[test]
fn steady_state_lan_read_rpcs_over_tcp_allocate_next_to_nothing() {
    let _alone = measuring();
    // The same budget through the connection: an 8 KB reply is six
    // segments and their ACKs, each a TCP step at one end or the other.
    // Measured 0.016 with every step appending into a spare output the
    // world keeps (17.2 while each step returned two fresh vectors).
    let marginal = marginal_reads(TransportKind::Tcp);
    assert!(
        marginal < 0.05,
        "steady-state LAN read RPCs over TCP allocate too much: {marginal:.2} allocs/RPC"
    );
}

/// Runs `mix` with 16 clients against a 4-daemon nfsd pool for `secs`
/// simulated seconds and returns (allocations, RPCs completed).
fn run_crowd_16(secs: u64, mix: LoadMix) -> (u64, u64) {
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
    let mut world = World::new(cfg);
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
/// long run minus short run (same method as the single-client test). The
/// warm-up is as long as the long run, so the spines a full dup cache
/// holds are already in the pools whatever test ran before (after a 6 s
/// warm-up the crowd mix read 0.14 or 0.36–0.43 by test order).
fn marginal_crowd(mix: LoadMix) -> f64 {
    let (_, _) = run_crowd_16(30, mix);
    let (a_short, r_short) = run_crowd_16(10, mix);
    let (a_long, r_long) = run_crowd_16(30, mix);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 500,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    eprintln!("marginal allocs/RPC at 16 clients: {marginal:.3}");
    marginal
}

#[test]
fn steady_state_read_rpcs_at_16_clients_allocate_next_to_nothing() {
    let _alone = measuring();
    // The single-client budget, re-enforced at 16 clients sharing one
    // nfsd pool: per-client transports, the request queue, and 32
    // workload procs all dropping reply chains back into the mbuf
    // pools of the one thread that runs the world.
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let marginal = marginal_crowd(mix);
    // Measured 0.044 (0.070 while every client machine had a queue of its
    // own); the bound is twice that.
    assert!(
        marginal < 0.09,
        "steady-state read RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

#[test]
fn steady_state_crowd_mix_at_16_clients_stays_within_its_op_costs() {
    let _alone = measuring();
    // The full crowd mix: every setattr (non-idempotent) clones its reply
    // into the duplicate-request cache, and each cached reply keeps a
    // spine — a box and its buffer — out of circulation while the ring
    // fills; the warm-up fills it. Measured 0.047, level with the
    // read-only mix (0.14 while a SETATTR's disk write was a `Vec` in its
    // cost and every name-cache probe built a `String` key, 0.16 with a
    // queue per client machine, 0.63 while every server-side LOOKUP, 40%
    // of the mix, decoded its name into a fresh `String`); the bound is
    // twice that.
    let marginal = marginal_crowd(LoadMix::crowd());
    assert!(
        marginal < 0.10,
        "crowd-mix RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

#[test]
fn a_short_crowd_run_allocates_a_bounded_amount_per_client() {
    let _alone = measuring();
    // What the marginal budgets above cannot see: allocations a client
    // makes once. A 64-client world, one generator proc each over the
    // default 100 files, the whole of a 4 s `World::run` (preload
    // excluded), divided by clients. A proc that builds a table over its
    // file set, or a buffer sized per client on first use, lands here in
    // full.
    const CLIENTS: usize = 64;
    let mut cfg = WorldConfig::baseline();
    cfg.background = Background::quiet();
    cfg.clients = CLIENTS;
    cfg.nfsds = 4;
    cfg.seed = 0xA11C;
    cfg.server.dup_cache = true;
    let mut world = World::new(cfg);
    let mut wcfg = NhfsstoneConfig::paper(4.0, LoadMix::crowd());
    wcfg.procs = 1;
    wcfg.duration = SimDuration::from_secs(4);
    wcfg.warmup = SimDuration::ZERO;
    wcfg.seed = 7;
    let (dir, files) = nhfsstone::preload_subtree(&mut world, &wcfg);
    let end = world.now() + wcfg.duration;
    for ci in 0..CLIENTS {
        let (wcfg, files) = (wcfg.clone(), files.clone());
        world.spawn_on(ci, move |sys| {
            nhfsstone::generator_proc(sys, 0, &wcfg, dir, &files, SimTime::ZERO, end, None);
        });
    }
    let a0 = profile::allocs();
    world.run();
    let per_client = (profile::allocs() - a0) as f64 / CLIENTS as f64;
    eprintln!("allocs per client over a short crowd run: {per_client:.1}");
    // Measured 22.8 (30.2 with a queue and an access network per client
    // machine, 135.3 while every generator proc rendered its 100 lookup
    // names and filled an 8 KB write payload before its first RPC); the
    // bound is twice the reading.
    assert!(
        per_client < 46.0,
        "a short crowd run allocates too much: {per_client:.1} per client"
    );
}

/// Allocations inside one LOOKUP-only generator proc over a loopback
/// server exporting `nfiles` files. The proc runs twice and the second
/// run counts: it draws the same files, so whatever the server keeps per
/// file it has looked up is already there.
fn lookup_proc_allocs(nfiles: usize) -> u64 {
    let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
    let mut cfg = NhfsstoneConfig::paper(20.0, LoadMix::pure_lookup());
    cfg.nfiles = nfiles;
    let root = server.fs().root();
    let dir = server
        .fs_mut()
        .mkdir(root, "t", 0o755, SimTime::ZERO)
        .unwrap();
    let files: Vec<_> = (0..nfiles)
        .map(|i| {
            let name = nhfsstone::file_name(i, cfg.long_names);
            let ino = server.fs_mut().create(dir, &name, 0o644, SimTime::ZERO);
            server.handle_for(ino.unwrap()).unwrap()
        })
        .collect();
    let dir = server.handle_for(dir).unwrap();
    let mut sys = Loopback::new(server);
    let mut run = |end| {
        let a0 = profile::allocs();
        let samples =
            nhfsstone::generator_proc(&mut sys, 0, &cfg, dir, &files, SimTime::ZERO, end, None);
        assert!(samples.len() > 50, "the proc must look files up");
        profile::allocs() - a0
    };
    run(SimTime::from_secs(30));
    run(SimTime::from_secs(60))
}

#[test]
fn a_generator_proc_allocates_nothing_per_file() {
    let _alone = measuring();
    // Equal runs but for the size of the file set (the draws, hence the
    // RPC count, do not depend on it): quietest of a few tries each, as
    // above. A per-proc table of names made these differ by 990.
    let quietest = |nfiles| (0..3).map(|_| lookup_proc_allocs(nfiles)).min();
    assert_eq!(quietest(10), quietest(1000));
}

/// A complete call message: header, then `args`.
fn call(proc: NfsProc, args: impl FnOnce(&mut MbufChain, &mut CopyMeter)) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut chain = MbufChain::with_leading_space(64);
    CallHeader {
        xid: 7,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: proc.to_wire(),
        auth: AuthUnix::root("uvax"),
    }
    .encode(&mut chain, &mut meter);
    args(&mut chain, &mut meter);
    chain
}

/// The fewest allocations any of a few rounds of `body` makes (the
/// harness thread only ever adds to the process-wide count).
fn quietest(mut body: impl FnMut()) -> u64 {
    let rounds = (0..5).map(|_| {
        let a0 = profile::allocs();
        body();
        profile::allocs() - a0
    });
    rounds.min().expect("five rounds")
}

#[test]
fn a_warm_name_cache_hits_misses_and_enters_without_allocating() {
    let _alone = measuring();
    // Twice as many names as entries, so every pass evicts as well.
    let mut nc = NameCache::new(32);
    let names: Vec<String> = (0..64).map(|i| format!("file{i:02}.c")).collect();
    let long = "x".repeat(40);
    let pass = |nc: &mut NameCache| {
        for (i, name) in names.iter().enumerate() {
            let (dir, target) = (VnodeId(1), VnodeId(100 + i as u64));
            if nc.lookup(dir, name).is_none() {
                nc.enter(dir, name, target);
            }
            assert_eq!(nc.lookup(dir, name), Some(target));
            assert_eq!(nc.lookup(VnodeId(2), name), None);
            nc.enter(dir, name, target);
        }
        assert_eq!(nc.lookup(VnodeId(1), &long), None);
    };
    // The first pass grows the table to its working size.
    pass(&mut nc);
    let allocs = quietest(|| pass(&mut nc));
    assert!(nc.stats().evictions > 0, "the loop must evict");
    assert_eq!(allocs, 0, "a warm name cache allocated");
}

#[test]
fn a_garbled_verifier_length_asks_the_allocator_for_nothing() {
    let _alone = measuring();
    let mut meter = CopyMeter::new();
    // `flat` with the word at `at` — the verifier's length — garbled.
    let garble = |msg: MbufChain, at: usize, meter: &mut CopyMeter| {
        let mut flat = msg.to_vec_for_test();
        flat[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_be_bytes());
        MbufChain::from_slice(&flat, meter)
    };
    // The verifier closes a call header: flavor, then length.
    let null = call(NfsProc::Null, |_, _| {});
    let at = null.len() - 4;
    let bad_call = garble(null, at, &mut meter);
    let mut reply = MbufChain::new();
    ReplyHeader {
        xid: 7,
        stat: AcceptStat::Success,
    }
    .encode(&mut reply, &mut meter);
    // xid, REPLY, accepted, verifier flavor, verifier length.
    let bad_reply = garble(reply, 16, &mut meter);
    let truncated = RpcError::Xdr(XdrError::Truncated);
    let allocs = quietest(|| {
        let got = CallHeader::decode(&mut XdrDecoder::new(&bad_call));
        assert_eq!(got.unwrap_err(), truncated);
        let got = ReplyHeader::decode(&mut XdrDecoder::new(&bad_reply));
        assert_eq!(got.unwrap_err(), truncated);
    });
    assert_eq!(allocs, 0, "a 4 GiB length word reached the allocator");
}

#[test]
fn a_warm_server_services_small_rpcs_and_reads_without_allocating() {
    let _alone = measuring();
    let t = SimTime::from_secs(1);
    let mut server = NfsServer::new(ServerConfig::reno(), t);
    let root = server.fs().root();
    // Nhfsstone's long names: past the name cache, so a LOOKUP scans.
    let (name, absent) = (nhfsstone::file_name(3, true), nhfsstone::file_name(4, true));
    let read = server.fs_mut().create(root, &name, 0o644, t).unwrap();
    let written = server.fs_mut().create(root, "written", 0o644, t).unwrap();
    for ino in [read, written] {
        server.fs_mut().write(ino, 0, &[0x5a; 8192], t).unwrap();
    }
    let fh = |server: &NfsServer, ino| server.handle_for(ino).unwrap();
    let (root, read, written) = (fh(&server, root), fh(&server, read), fh(&server, written));
    let status = |reply: &MbufChain| {
        let mut dec = XdrDecoder::new(reply);
        ReplyHeader::decode(&mut dec).unwrap();
        results::get_stat(&mut dec).unwrap()
    };
    let mut serve = |what: &str, msg: &dyn Fn() -> MbufChain, want: NfsStatus, budget: u64| {
        // The first pass warms the pools, the scratch buffer and the caches.
        assert_eq!(status(&server.service_from(t, &msg(), 0).0), want, "{what}");
        let requests: Vec<_> = (0..100).map(|_| msg()).collect();
        let allocs = quietest(|| {
            for request in &requests {
                drop(server.service_from(t, request, 0));
            }
        });
        eprintln!("allocs per 100 warm {what}: {allocs}");
        assert!(allocs <= budget, "{what}: {allocs} allocations in 100 RPCs");
    };
    let dirop = |name: &str| call(NfsProc::Lookup, |c, m| build::dirop_args(c, m, &root, name));
    serve("LOOKUP", &|| dirop(&name), NfsStatus::Ok, 0);
    serve("absent LOOKUP", &|| dirop(&absent), NfsStatus::NoEnt, 0);
    let getattr = || call(NfsProc::Getattr, |c, m| build::handle_args(c, m, &read));
    serve("GETATTR", &getattr, NfsStatus::Ok, 0);
    let read = || call(NfsProc::Read, |c, m| build::read_args(c, m, &read, 0, 8192));
    serve("8 KB READ", &read, NfsStatus::Ok, 0);
    // A WRITE over what the file already holds: its two disk writes are
    // recorded inline in the cost it returns (they were a `Vec`, one
    // allocation an RPC).
    let write = || {
        let data = MbufChain::from_slice(&[0xa5; 8192], &mut CopyMeter::new());
        call(NfsProc::Write, |c, m| {
            build::write_args(c, m, &written, 0, data)
        })
    };
    serve("8 KB WRITE", &write, NfsStatus::Ok, 0);
}

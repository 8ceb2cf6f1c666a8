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
//! Every count is `profile::thread_allocs()`, the test thread's own: a
//! world runs its procs as coroutines on the thread that runs it, so no
//! measured section here runs on another thread, and the harness's
//! threads (or a test running beside this one) add nothing to it. One
//! measurement each, after whatever warm-up the section needs.
//!
//! Needs `--features profile` (the counting allocator lives behind the
//! same feature as the profiler): `cargo test -p renofs-bench
//! --features profile --test alloc_count`.
#![cfg(feature = "profile")]

use renofs::client::{ClientConfig, ClientFs};
use renofs::proto::{build, results};
use renofs::syscalls::Loopback;
use renofs::{
    NfsProc, NfsServer, NfsStatus, ServerConfig, TopologyKind, TransportKind, World, WorldConfig,
};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::topology::presets::Background;

use renofs_sim::{profile, EventQueue, SimDuration, SimTime};
use renofs_sunrpc::{
    AcceptStat, AuthUnix, CallHeader, ReplyHeader, RpcError, NFS_PROGRAM, NFS_VERSION,
};
use renofs_vfs::{Buf, BufCache, CacheOrg, InodeId, MemFs, NameCache, VnodeId};
use renofs_workload::andrew::{preload_andrew_source, run_andrew, AndrewSpec};
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig, Spread};
use renofs_xdr::{XdrDecoder, XdrError};

#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// The allocations one run of `body` makes on this thread.
fn allocs_in(body: impl FnOnce()) -> u64 {
    let a0 = profile::thread_allocs();
    body();
    profile::thread_allocs() - a0
}

#[test]
fn a_presized_event_queue_fills_without_allocating() {
    let n = 512;
    let mut q: EventQueue<[u64; 37]> = EventQueue::with_capacity(n);
    let allocs = allocs_in(|| {
        for i in 0..n as u64 {
            q.push(SimTime::from_nanos(i * 7919 % 1000), [i; 37]);
        }
    });
    assert_eq!(q.len(), n);
    assert_eq!(allocs, 0, "pushes within the hint allocated");
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
    let mut meter = CopyMeter::new();
    // One warm-up round fills the spine, cluster and small-area lists.
    drop(read_reply_chain(&mut meter));
    let allocs = allocs_in(|| {
        for _ in 0..1000 {
            drop(read_reply_chain(&mut meter));
        }
    });
    assert_eq!(allocs, 0, "a chain built on warm pools allocated");
}

#[test]
fn a_crowds_live_set_of_8k_reply_chains_is_rebuilt_without_allocating() {
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
    assert_eq!(allocs_in(round), 0, "a rebuilt live set allocated");
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
    let mut world = World::new(WorldConfig {
        transport,
        background: Background::off_peak(),
        seed: 0xA11C,
        ..WorldConfig::baseline()
    });
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
    let a0 = profile::thread_allocs();
    let report = nhfsstone::run(&mut world, &cfg);
    let allocs = profile::thread_allocs() - a0;
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
    let marginal = marginal_reads(udp());
    // An 8 KB read RPC moves ~6 fragments through two NICs, the link
    // layer, reassembly, and the RPC layer. With the pools (clusters,
    // small areas, chain spines) and scratch buffers in place the whole
    // path should recycle memory — and since procs run on the world's
    // own thread it does, through one thread's free lists: measured 0.000
    // (0.010, 7 allocations over 671 RPCs, while long chains spilled an
    // inline segment array); the bound is 0.05.
    assert!(
        marginal < 0.05,
        "steady-state LAN read RPCs allocate too much: {marginal:.2} allocs/RPC"
    );
}

#[test]
fn steady_state_lan_read_rpcs_over_tcp_allocate_next_to_nothing() {
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
    let a0 = profile::thread_allocs();
    let reports = nhfsstone::run_spread(&mut world, &wcfg, Spread::EveryClient, |_| {});
    let allocs = profile::thread_allocs() - a0;
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

/// A short crowd cell: `clients` clients, one generator proc each over
/// the default 100 files, 4 simulated seconds. Returns its allocations
/// per client in building the world, preloading it and spawning the
/// procs, and in the whole of `World::run`.
fn short_crowd_per_client(clients: usize) -> (f64, f64) {
    let mut cfg = WorldConfig::baseline();
    cfg.background = Background::quiet();
    cfg.clients = clients;
    cfg.nfsds = 4;
    cfg.seed = 0xA11C;
    cfg.server.dup_cache = true;
    let mut wcfg = NhfsstoneConfig::paper(4.0, LoadMix::crowd());
    wcfg.procs = 1;
    wcfg.duration = SimDuration::from_secs(4);
    wcfg.warmup = SimDuration::ZERO;
    wcfg.seed = 7;
    let a0 = profile::thread_allocs();
    let mut world = World::new(cfg);
    let (dir, files) = nhfsstone::preload_subtree_on(&mut world, 0, &wcfg);
    let end = world.now() + wcfg.duration;
    for ci in 0..clients {
        let (wcfg, files) = (wcfg.clone(), files.clone());
        world.spawn_on(ci, move |sys| {
            nhfsstone::generator_proc(sys, 0, &wcfg, dir, &files, SimTime::ZERO, end, None);
        });
    }
    let a1 = profile::thread_allocs();
    world.run();
    let a2 = profile::thread_allocs();
    let per_client = |n: u64| n as f64 / clients as f64;
    (per_client(a1 - a0), per_client(a2 - a1))
}

#[test]
fn a_short_crowd_run_allocates_a_bounded_amount_per_client() {
    // What the marginal budgets above cannot see: allocations a client
    // makes once, in the whole of a 64-client `World::run` (building and
    // preloading excluded). A proc that builds a table over its file set,
    // or a buffer sized per client on first use, lands here in full.
    let (_, per_client) = short_crowd_per_client(64);
    eprintln!("allocs per client over a short crowd run: {per_client:.1}");
    // Measured 15.9 (17.9 while every client's first call allocated its
    // two in-flight tables, 22.8 before chain clones shared small mbufs,
    // 30.2 with a queue and an access network per client machine, 135.3
    // while every generator proc rendered its 100 lookup names and filled
    // an 8 KB write payload before its first RPC); the bound is twice the
    // reading.
    assert!(
        per_client < 32.0,
        "a short crowd run allocates too much: {per_client:.1} per client"
    );
}

#[test]
fn a_crowd_cell_built_and_run_allocates_a_bounded_amount_per_client() {
    // The run-only budget above would pass if a client's allocations
    // only moved into `World::new`: this one counts building, preloading,
    // spawning and running together, at 256 clients.
    let (build, run) = short_crowd_per_client(256);
    let per_client = build + run;
    eprintln!("allocs per client, crowd cell built and run: {build:.2} + {run:.2}");
    // Measured 7.53 + 12.67 = 20.20. It was 7.52 + 14.67 = 22.19 while
    // every client allocated two in-flight tables on its first call; the
    // world's two, sized to the clients at build, take two allocations in
    // all. The bound keeps that fall of at least 1.9 per client.
    const BEFORE: f64 = 22.19;
    assert!(
        per_client <= BEFORE - 1.9,
        "a crowd cell allocates too much: {per_client:.2} per client"
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
        let a0 = profile::thread_allocs();
        let samples =
            nhfsstone::generator_proc(&mut sys, 0, &cfg, dir, &files, SimTime::ZERO, end, None);
        assert!(samples.len() > 50, "the proc must look files up");
        profile::thread_allocs() - a0
    };
    run(SimTime::from_secs(30));
    run(SimTime::from_secs(60))
}

#[test]
fn a_generator_proc_allocates_nothing_per_file() {
    // Equal runs but for the size of the file set (the draws, hence the
    // RPC count, do not depend on it). A per-proc table of names made
    // these differ by 990.
    assert_eq!(lookup_proc_allocs(10), lookup_proc_allocs(1000));
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

#[test]
fn a_warm_name_cache_hits_misses_and_enters_without_allocating() {
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
    let allocs = allocs_in(|| pass(&mut nc));
    assert!(nc.stats().evictions > 0, "the loop must evict");
    assert_eq!(allocs, 0, "a warm name cache allocated");
}

#[test]
fn a_garbled_verifier_length_asks_the_allocator_for_nothing() {
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
    let allocs = allocs_in(|| {
        let got = CallHeader::decode(&mut XdrDecoder::new(&bad_call));
        assert_eq!(got.unwrap_err(), truncated);
        let got = ReplyHeader::decode(&mut XdrDecoder::new(&bad_reply));
        assert_eq!(got.unwrap_err(), truncated);
    });
    assert_eq!(allocs, 0, "a 4 GiB length word reached the allocator");
}

#[test]
fn a_warm_server_services_small_rpcs_and_reads_without_allocating() {
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
    let dir = server.fs_mut().mkdir(root, "dir", 0o755, t).unwrap();
    for i in 0..40 {
        let name = format!("entry{i:02}.c");
        server.fs_mut().create(dir, &name, 0o644, t).unwrap();
    }
    let fh = |server: &NfsServer, ino| server.handle_for(ino).unwrap();
    let (root, read, written) = (fh(&server, root), fh(&server, read), fh(&server, written));
    let dir = fh(&server, dir);
    let status = |reply: &MbufChain| {
        let mut dec = XdrDecoder::new(reply);
        ReplyHeader::decode(&mut dec).unwrap();
        results::get_stat(&mut dec).unwrap()
    };
    let mut serve = |what: &str, msg: &dyn Fn() -> MbufChain, want: NfsStatus, budget: u64| {
        assert_eq!(status(&server.service_from(t, &msg(), 0).0), want, "{what}");
        let requests: Vec<_> = (0..100).map(|_| msg()).collect();
        let mut hundred = || {
            for request in &requests {
                drop(server.service_from(t, request, 0));
            }
        };
        // A first hundred warms the pools, the scratch buffer and the
        // caches (up to 10 allocations, for READDIR's replies).
        hundred();
        let allocs = allocs_in(hundred);
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
    // One page of a 40-entry directory: each entry is encoded as `MemFs`
    // visits it (a page of owned names was two allocations an entry).
    let readdir = || {
        call(NfsProc::Readdir, |c, m| {
            build::readdir_args(c, m, &dir, 0, 8192)
        })
    };
    serve("READDIR of 40 entries", &readdir, NfsStatus::Ok, 0);
}

/// What a server's file system does with a directory of source files:
/// creates them, writes each in 8 KB requests (sizes across the fragment
/// classes and up to three blocks, so files move up a class as they
/// grow), lists the directory a page at a time, reads every file back and,
/// if `remove`, removes them.
fn source_files_round(fs: &mut MemFs, dir: InodeId, names: &[String], remove: bool) {
    let t = SimTime::from_secs(1);
    let data = [0x5a; 8192];
    for (i, name) in names.iter().enumerate() {
        let f = fs.create(dir, name, 0o644, t).unwrap();
        let size = 613 * (i as u32 + 1);
        for off in (0..size).step_by(data.len()) {
            let len = (size - off).min(data.len() as u32) as usize;
            fs.write(f, off, &data[..len], t).unwrap();
        }
    }
    let (mut cookie, mut listed) = (0, 0);
    loop {
        let eof = fs
            .readdir(dir, cookie, 8, |c, _, _| {
                cookie = c;
                listed += 1;
            })
            .unwrap();
        if eof {
            break;
        }
    }
    assert_eq!(listed, names.len());
    let mut read = 0;
    for name in names {
        let f = fs.lookup(dir, name).unwrap();
        read += fs.read_slice(f, 0, u32::MAX, t).unwrap().len();
    }
    assert_eq!(read, (1..=names.len()).map(|i| 613 * i).sum::<usize>());
    if remove {
        for name in names {
            fs.remove(dir, name, t).unwrap();
        }
    }
}

#[test]
fn a_warm_server_file_system_creates_writes_lists_and_removes_without_allocating() {
    let t = SimTime::ZERO;
    // Andrew-tree names: all inline.
    let names: Vec<String> = (0..40).map(|i| format!("file{i:03}.c")).collect();
    let fresh = || {
        let mut fs = MemFs::new(t);
        let dir = fs.mkdir(fs.root(), "src", 0o755, t).unwrap();
        (fs, dir)
    };
    // A first file system fills the thread's buffer list when it drops.
    let (mut first, dir) = fresh();
    source_files_round(&mut first, dir, &names, false);
    drop(first);
    // A second one, whose directory and inode table one round of empty
    // files has sized, does it all again: every file's bytes come off the
    // list and go back on it.
    let (mut fs, dir) = fresh();
    for name in &names {
        fs.create(dir, name, 0o644, t).unwrap();
    }
    for name in &names {
        fs.remove(dir, name, t).unwrap();
    }
    let allocs = allocs_in(|| source_files_round(&mut fs, dir, &names, true));
    assert_eq!(allocs, 0, "a warm file system allocated");
}

/// One `run_andrew` of the standard tree through a Reno mount on a
/// loopback server: (allocations during the run, RPCs it made). Building
/// the server, the tree and the mount is not counted.
fn andrew_loopback_allocs() -> (u64, u64) {
    let spec = AndrewSpec::standard();
    let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
    preload_andrew_source(server.fs_mut(), &spec);
    let root = server.root_handle();
    let mut fs = ClientFs::mount(Loopback::new(server), ClientConfig::reno(), root, "uvax1");
    let a0 = profile::thread_allocs();
    let report = run_andrew(&mut fs, &spec).expect("a loopback run");
    (profile::thread_allocs() - a0, report.counts.total())
}

#[test]
fn an_andrew_run_allocates_less_than_once_per_rpc() {
    // What is left is mostly each new directory's entry vector as it
    // grows, each listing's storage (a fresh client lists every directory
    // once, cold), name-cache and attribute entries, the path arena's
    // growth and the maps'. Names, file bytes, blocks, the data `read`
    // hands back, payload snapshots, READDIR's names and pages and the
    // paths files are opened under allocate nothing each now. The first
    // run warms the thread's mbuf and buffer lists.
    andrew_loopback_allocs();
    let (allocs, rpcs) = andrew_loopback_allocs();
    let per_rpc = allocs as f64 / rpcs as f64;
    eprintln!("allocs per RPC over an Andrew run: {per_rpc:.3} ({allocs} in {rpcs} RPCs)");
    // Measured 0.112: 0.258 while `MemFs` kept a `String` per name and
    // grew each file's own `Vec`, 0.742 while every READDIR entry's name
    // was two strings and every path opened one, 3.800 while every block,
    // every `read`'s buffer and every listing handed out was fresh too.
    // The bound is the reading and a third.
    assert!(
        per_rpc < 0.15,
        "an Andrew run allocates too much: {per_rpc:.3} per RPC"
    );
}

#[test]
fn a_warm_client_relists_a_changed_directory_without_allocating() {
    let t = SimTime::ZERO;
    let mut server = NfsServer::new(ServerConfig::reno(), t);
    let root = server.fs().root();
    let dir = server.fs_mut().mkdir(root, "d", 0o755, t).unwrap();
    for i in 0..40 {
        let name = format!("entry{i:02}.c");
        server.fs_mut().create(dir, &name, 0o644, t).unwrap();
    }
    let root = server.root_handle();
    let mut c = ClientFs::mount(Loopback::new(server), ClientConfig::reno(), root, "uvax1");
    // The loopback logs every RPC: room for the rounds' keeps its growth
    // out of them.
    c.sys().rpc_log.reserve(256);
    // The first listing takes its storage (and warms the client's pools).
    assert_eq!(c.readdir("/d").unwrap().len(), 40);
    // Each round a RENAME changes the directory, not its size (a file
    // more a round grows the attribute cache's table and the reply chain
    // now and then); once the attributes time out the changed mtime
    // drops the cached listing, and the listing that replaces it is
    // decoded into the dropped one's storage.
    let mut relist = |i: usize| {
        let names = ["/d/entry00.c", "/d/moved.c"];
        c.rename(names[i % 2], names[1 - i % 2]).unwrap();
        c.sys().advance(SimDuration::from_secs(6));
        let readdirs = c.counts().count(NfsProc::Readdir);
        let a0 = profile::thread_allocs();
        assert_eq!(c.readdir("/d").unwrap().len(), 40);
        let allocs = profile::thread_allocs() - a0;
        assert_eq!(c.counts().count(NfsProc::Readdir), readdirs + 1);
        allocs
    };
    // The first relisting warms what a relisting touches.
    relist(0);
    let rounds: Vec<u64> = (1..6).map(relist).collect();
    assert_eq!(rounds, [0; 5], "a relisting allocated");
}

#[test]
fn a_warm_buffer_cache_fills_evicts_and_purges_without_allocating() {
    let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 32);
    let mut dirty = Vec::new();
    let mut pass = |bc: &mut BufCache| {
        // Three files of 24 blocks through 32 buffers: past the first 32
        // fills every one evicts. A third of the blocks take a partial
        // write and are pushed (cleaned) once the file is done.
        for v in (1..=3).map(VnodeId) {
            for blk in 0..24 {
                let (fresh, ()) = Buf::fill_valid(|d| {
                    d.extend_from_slice(&[v.0 as u8; 4096]);
                    Ok::<_, ()>(())
                })
                .unwrap();
                assert!(bc.insert(v, blk, fresh).is_none(), "a clean victim");
                if blk % 3 == 0 {
                    bc.lookup(v, blk).0.unwrap().write(100, &[1; 50]).unwrap();
                }
            }
            dirty.clear();
            bc.dirty_blocks_into(v, &mut dirty);
            for &blk in &dirty {
                bc.lookup(v, blk).0.unwrap().clear_dirty();
            }
        }
        // Partial writes into fresh blocks, no pre-read.
        for blk in 0..8 {
            assert!(bc.insert(VnodeId(4), blk, Buf::new_empty()).is_none());
            bc.lookup(VnodeId(4), blk)
                .0
                .unwrap()
                .write(0, &[2; 10])
                .unwrap();
        }
        assert!(bc.has_dirty(VnodeId(4)));
        bc.purge_clean(VnodeId(3));
        bc.purge_vnode(VnodeId(4));
        bc.purge_vnode(VnodeId(2));
        drop(bc.remove(VnodeId(3), 23));
    };
    // The first pass fills the thread's block free list.
    pass(&mut bc);
    let allocs = allocs_in(|| pass(&mut bc));
    assert!(bc.stats().evictions > 0, "the loop must evict");
    assert_eq!(allocs, 0, "a warm buffer cache allocated");
}

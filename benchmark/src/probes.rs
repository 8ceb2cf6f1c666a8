//! One probe per layer: its public entry points timed from outside, on
//! fixed inputs or on inputs captured from the traced pass.
//!
//! Every probe repeats its body [`REPEATS`] times and keeps the fastest,
//! the same minimum-of-repeats rule the cells use. Each records a
//! `probe.<layer>` span with one child per measurement.

use std::hint::black_box;
use std::time::Instant;

use renofs::client::{ClientConfig, ClientFs};
use renofs::proto::{self, results, NfsArgs, NfsProc};
use renofs::syscalls::{Loopback, RpcResult, Syscalls, Ticket};
use renofs::{ExportMap, FileHandle, NfsServer, ServerConfig, TopologyKind, World, WorldConfig};
use renofs_mbuf::{pool, CopyMeter, MbufChain};
use renofs_netsim::topology::presets::{self, Background};
use renofs_netsim::{Datagram, NetEvent, NetOutput, Network, ProtoHeader};
use renofs_oracle::{Obs, ObsKind, OpOutcome, StreamConfig, StreamingOracle};
use renofs_sim::queue::QueueOp;
use renofs_sim::{AdaptiveQueue, EventQueue, Rng, SimDuration, SimTime};
use renofs_sunrpc::{
    frame_record, AcceptStat, AuthUnix, CallHeader, RecordReader, ReplyHeader, NFS_PROGRAM,
    NFS_VERSION,
};
use renofs_transport::{RpcClass, TcpConfig, TcpConn, TcpOut, UdpRpcClient, UdpRpcConfig};
use renofs_vfs::{AttrCache, MemFs, Vattr};
use renofs_workload::andrew::{preload_andrew_source, run_andrew, AndrewSpec};
use renofs_workload::nhfsstone::{file_name, generator_proc, LoadMix, NhfsstoneConfig};
use renofs_xdr::XdrDecoder;

use crate::cells::{nhfsstone_config, prepare, world_config, CellSpec};
use crate::host::{allowed_cpus, set_affinity, Pinning};
use crate::trace::Recorder;
use crate::wrapper::Request;

/// Repeats of every probe body; the fastest is kept.
const REPEATS: usize = 5;

fn time_ns(body: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    body();
    t0.elapsed().as_nanos() as f64
}

/// Runs `body` (which returns the nanoseconds it measured) `REPEATS`
/// times under a span and returns the fastest, per unit.
fn fastest(rec: &mut Recorder, name: &str, units: usize, mut body: impl FnMut() -> f64) -> f64 {
    let id = rec.enter(name);
    let best = (0..REPEATS).map(|_| body()).fold(f64::INFINITY, f64::min);
    rec.exit(id);
    best / units.max(1) as f64
}

const BLOCK: usize = 8192;

/// An encoded NFS call: RPC header, then whatever `args` appends.
pub(crate) fn call(
    xid: u32,
    proc: NfsProc,
    args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut msg = MbufChain::with_leading_space(64);
    CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: proc.to_wire(),
        auth: AuthUnix::root("probe"),
    }
    .encode(&mut msg, &mut meter);
    args(&mut msg, &mut meter);
    msg
}

/// `core.handoff`: what one syscall costs a proc in an otherwise idle
/// world — two channel operations and two thread switches.
pub struct Handoff {
    /// Pinned to the benchmark's one CPU.
    pub ns_per_syscall: f64,
    /// The same loop with every allowed CPU available, over pinned.
    pub unpinned_slowdown: f64,
}

fn handoff_ns(rec: &mut Recorder, name: &str, calls: usize) -> f64 {
    fastest(rec, name, calls, || {
        let mut world = World::new(WorldConfig::baseline());
        let (tx, rx) = std::sync::mpsc::channel();
        world.spawn(move |sys| {
            let ns = time_ns(|| {
                for _ in 0..calls {
                    black_box(sys.now());
                }
            });
            let _ = tx.send(ns);
        });
        world.run();
        rx.recv().expect("the proc reports")
    })
}

/// Runs the hand-off probe pinned, then with the whole allowed mask.
pub fn handoff(rec: &mut Recorder, pin: &Pinning) -> Handoff {
    let id = rec.enter("probe.core.handoff");
    let pinned = handoff_ns(rec, "probe.core.handoff.pinned", 20_000);
    // Threads inherit the spawner's mask, so widening the main thread's
    // unpins the probe world's proc too.
    set_affinity(&pin.allowed);
    // An order of magnitude slower per call, so fewer calls.
    let unpinned = handoff_ns(rec, "probe.core.handoff.unpinned", 2_000);
    set_affinity(&[pin.cpu]);
    debug_assert_eq!(allowed_cpus(), vec![pin.cpu]);
    rec.exit(id);
    Handoff {
        ns_per_syscall: pinned,
        unpinned_slowdown: unpinned / pinned,
    }
}

/// `core.world`: microseconds of `World::new` per client machine, for
/// the workload's own configuration.
pub fn world_build_us_per_client(rec: &mut Recorder, spec: CellSpec) -> f64 {
    let cfg = world_config(spec);
    let clients = cfg.clients;
    fastest(rec, "probe.core.world", clients, || {
        let cfg = cfg.clone();
        time_ns(|| {
            black_box(World::new(cfg));
        })
    }) / 1e3
}

/// `sim.queue`: the captured operation stream replayed through the queue
/// the world uses. Returns ns per operation (0 with no stream).
pub fn queue_ns_per_op(rec: &mut Recorder, ops: &[QueueOp]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    fastest(rec, "probe.sim.queue", ops.len(), || {
        time_ns(|| {
            black_box(AdaptiveQueue::<()>::replay(ops));
        })
    })
}

/// `mbuf` results.
pub struct Mbuf {
    /// Building an 8 KB chain from a slice.
    pub ns_per_8k_build: f64,
    /// Splitting an 8 KB chain in half and joining it again.
    pub ns_per_8k_split_cat: f64,
    /// Buffers (clusters and small mbufs) this thread took from its free
    /// lists, over all it took.
    pub pool_hit_ratio: f64,
}

/// Times the chain operations and reads the world thread's pool counters.
pub fn mbuf(rec: &mut Recorder) -> Mbuf {
    const N: usize = 2_000;
    let id = rec.enter("probe.mbuf");
    // Before the probe's own traffic: what the cells did on this thread.
    let (clusters, smalls) = (pool::stats(), pool::small_stats());
    let reused = clusters.reused + smalls.reused;
    let taken = reused + clusters.fresh + smalls.fresh;
    let data = vec![0x5Au8; BLOCK];
    let mut meter = CopyMeter::new();
    let ns_per_8k_build = fastest(rec, "probe.mbuf.build_8k", N, || {
        time_ns(|| {
            for _ in 0..N {
                black_box(MbufChain::from_slice(&data, &mut meter));
            }
        })
    });
    let ns_per_8k_split_cat = fastest(rec, "probe.mbuf.split_cat_8k", N, || {
        let mut chain = MbufChain::from_slice(&data, &mut meter);
        time_ns(|| {
            for _ in 0..N {
                let tail = chain.split_off(BLOCK / 2, &mut meter);
                chain.append_chain(tail);
            }
            black_box(&chain);
        })
    });
    rec.exit(id);
    Mbuf {
        ns_per_8k_build,
        ns_per_8k_split_cat,
        pool_hit_ratio: reused as f64 / taken.max(1) as f64,
    }
}

/// `xdr` / `sunrpc` results.
pub struct Codec {
    /// Encoding and decoding a LOOKUP call.
    pub ns_per_small_call: f64,
    /// Encoding and decoding an 8 KB READ reply.
    pub ns_per_8k_reply: f64,
    /// Record-marking an 8 KB message and reading it back.
    pub ns_per_8k_mark: f64,
}

/// Times the codecs.
pub fn codec(rec: &mut Recorder) -> Codec {
    const N: usize = 2_000;
    let id = rec.enter("probe.xdr");
    let dir = FileHandle {
        fsid: 1,
        ino: 2,
        gen: 1,
    };
    let name = file_name(7, true);
    let ns_per_small_call = fastest(rec, "probe.xdr.small_call", N, || {
        time_ns(|| {
            for i in 0..N {
                let msg = call(i as u32, NfsProc::Lookup, |c, m| {
                    proto::build::dirop_args(c, m, &dir, &name)
                });
                let mut dec = XdrDecoder::new(&msg);
                black_box(CallHeader::decode(&mut dec).expect("own encoding"));
                black_box(proto::decode_args(NfsProc::Lookup, &mut dec).expect("own encoding"));
            }
        })
    });
    let data = vec![0x5Au8; BLOCK];
    let attr = Vattr::empty_file(9, SimTime::ZERO);
    let mut meter = CopyMeter::new();
    let ns_per_8k_reply = fastest(rec, "probe.xdr.reply_8k", N, || {
        time_ns(|| {
            for i in 0..N {
                let mut reply = MbufChain::new();
                ReplyHeader {
                    xid: i as u32,
                    stat: AcceptStat::Success,
                }
                .encode(&mut reply, &mut meter);
                let payload = MbufChain::from_slice(&data, &mut meter);
                results::put_readres(&mut reply, &mut meter, Ok((attr, payload)));
                let mut dec = XdrDecoder::new(&reply);
                black_box(ReplyHeader::decode(&mut dec).expect("own encoding"));
                black_box(
                    results::get_readres(&mut dec)
                        .expect("own encoding")
                        .expect("an OK reply"),
                );
            }
        })
    });
    let ns_per_8k_mark = fastest(rec, "probe.sunrpc.record_8k", N, || {
        let mut reader = RecordReader::new();
        time_ns(|| {
            for _ in 0..N {
                let msg = MbufChain::from_slice(&data, &mut meter);
                reader.push(frame_record(msg, &mut meter));
                black_box(reader.next_record(&mut meter).expect("a whole record"));
            }
        })
    });
    rec.exit(id);
    Codec {
        ns_per_small_call,
        ns_per_8k_reply,
        ns_per_8k_mark,
    }
}

/// `netsim` results, measured on the workload's own topology (quiet, so
/// nothing is dropped and the counts are exact).
pub struct Netsim {
    /// Per fragment per link crossed, over the 8 KB datagrams.
    pub ns_per_frame: f64,
    /// Per 8 KB UDP datagram, client to server, fragmentation to
    /// reassembly.
    pub ns_per_8k_dgram: f64,
    /// Link crossings one small datagram makes.
    pub hops_small: f64,
    /// Link crossings the fragments of one 8 KB datagram make.
    pub hops_8k: f64,
}

/// Sends `count` datagrams of `len` payload bytes one after another, each
/// pumped to delivery. Returns `(nanoseconds, link crossings)`.
fn pump_datagrams(topology: TopologyKind, len: usize, count: usize) -> (f64, usize) {
    let quiet = Background::quiet();
    let (topo, src, dst) = match topology {
        TopologyKind::SameLan => presets::same_lan(&quiet),
        TopologyKind::TokenRing => presets::token_ring_path(&quiet),
        TopologyKind::SlowLink => presets::slow_link_path(&quiet),
    };
    let mut net = Network::new(topo, 1);
    let mut queue: EventQueue<NetEvent> = EventQueue::new();
    let mut out = NetOutput::default();
    let mut meter = CopyMeter::new();
    let data = vec![0x5Au8; len];
    let mut crossings = 0;
    let mut delivered = 0;
    let ns = time_ns(|| {
        for _ in 0..count {
            let dgram = Datagram {
                id: net.alloc_dgram_id(),
                src,
                dst,
                proto: ProtoHeader::Udp {
                    sport: 1023,
                    dport: 2049,
                },
                payload: MbufChain::from_slice(&data, &mut meter),
            };
            net.send_into(queue.now(), dgram, &mut out);
            loop {
                for (at, ev) in out.events.drain(..) {
                    queue.push(at, ev);
                }
                delivered += out.delivered.drain(..).count();
                let Some((at, ev)) = queue.pop() else { break };
                if matches!(ev, NetEvent::FragArrive { .. }) {
                    crossings += 1;
                }
                net.handle_into(at, ev, &mut out);
            }
        }
    });
    assert_eq!(delivered, count, "a quiet network delivers everything");
    (ns, crossings)
}

/// Times the network on `topology`.
pub fn netsim(rec: &mut Recorder, topology: TopologyKind) -> Netsim {
    const SMALL: usize = 2_000;
    const BIG: usize = 300;
    let id = rec.enter("probe.netsim");
    let mut hops_small = 0;
    fastest(rec, "probe.netsim.small_dgram", SMALL, || {
        let (ns, crossings) = pump_datagrams(topology, 120, SMALL);
        hops_small = crossings;
        ns
    });
    let mut hops_8k = 0;
    let ns_per_8k_dgram = fastest(rec, "probe.netsim.dgram_8k", BIG, || {
        let (ns, crossings) = pump_datagrams(topology, BLOCK + 100, BIG);
        hops_8k = crossings;
        ns
    });
    rec.exit(id);
    Netsim {
        ns_per_frame: ns_per_8k_dgram * BIG as f64 / hops_8k as f64,
        ns_per_8k_dgram,
        hops_small: hops_small as f64 / SMALL as f64,
        hops_8k: hops_8k as f64 / BIG as f64,
    }
}

/// `transport` results.
pub struct Transport {
    /// One UDP call: `call`, then `on_reply`.
    pub udp_ns_per_call: f64,
    /// One TCP segment, sent by one endpoint and taken in by the other.
    pub tcp_ns_per_segment: f64,
}

/// Hands every segment of `out` to `to`, and what that provokes back to
/// `from`, until both fall silent. Returns the segments exchanged.
fn tcp_exchange(from: &mut TcpConn, to: &mut TcpConn, out: TcpOut, now: SimTime) -> usize {
    let mut forward = out.segments;
    let mut segments = 0;
    let (mut a, mut b) = (from, to);
    while !forward.is_empty() {
        let mut back = Vec::new();
        for seg in forward {
            segments += 1;
            let reply = b.on_segment(seg.seq, seg.ack, seg.window, seg.flags, seg.payload, now);
            black_box(&reply.received);
            back.extend(reply.segments);
        }
        forward = back;
        std::mem::swap(&mut a, &mut b);
    }
    segments
}

/// Times the transports.
pub fn transport(rec: &mut Recorder) -> Transport {
    const CALLS: usize = 5_000;
    const RECORDS: usize = 200;
    let id = rec.enter("probe.transport");
    let request = call(1, NfsProc::Lookup, |_, _| {});
    let udp_ns_per_call = fastest(rec, "probe.transport.udp_call", CALLS, || {
        let mut client =
            UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 1);
        let mut actions = Vec::new();
        let mut now = SimTime::ZERO;
        time_ns(|| {
            for _ in 0..CALLS {
                let xid = client.alloc_xid();
                client.call(now, xid, RpcClass::Lookup, request.clone(), &mut actions);
                actions.clear();
                now += SimDuration::from_millis(5);
                black_box(client.on_reply(now, xid, request.clone(), &mut actions));
                actions.clear();
            }
        })
    });
    let data = vec![0x5Au8; BLOCK];
    let mut meter = CopyMeter::new();
    let mut segments = 0;
    let tcp_ns = fastest(rec, "probe.transport.tcp_segment", 1, || {
        let cfg = TcpConfig::for_mss(1460);
        let mut now = SimTime::ZERO;
        let (mut client, syn) = TcpConn::client(cfg, 11_000, now);
        let mut server = TcpConn::server(cfg, 88_000);
        tcp_exchange(&mut client, &mut server, syn, now);
        assert!(client.is_established() && server.is_established());
        segments = 0;
        time_ns(|| {
            for _ in 0..RECORDS {
                now += SimDuration::from_millis(5);
                let out = client.send(MbufChain::from_slice(&data, &mut meter), now);
                segments += tcp_exchange(&mut client, &mut server, out, now);
            }
        })
    });
    rec.exit(id);
    Transport {
        udp_ns_per_call,
        tcp_ns_per_segment: tcp_ns / segments.max(1) as f64,
    }
}

/// `vfs.memfs` results.
pub struct Memfs {
    /// One name looked up in a 100-entry directory.
    pub ns_per_lookup: f64,
    /// One 8 KB read.
    pub ns_per_8k_read: f64,
    /// One 8 KB overwrite.
    pub ns_per_8k_write: f64,
}

/// Times `MemFs` directly.
pub fn memfs(rec: &mut Recorder) -> Memfs {
    const N: usize = 5_000;
    let id = rec.enter("probe.vfs.memfs");
    let t0 = SimTime::ZERO;
    let mut fs = MemFs::new(t0);
    let dir = fs.mkdir(fs.root(), "d", 0o755, t0).expect("fresh tree");
    let names: Vec<String> = (0..100).map(|i| file_name(i, true)).collect();
    let data = vec![0x5Au8; 2 * BLOCK];
    let files: Vec<_> = names
        .iter()
        .map(|n| {
            let ino = fs.create(dir, n, 0o644, t0).expect("fresh name");
            fs.write(ino, 0, &data, t0).expect("fill");
            ino
        })
        .collect();
    let ns_per_lookup = fastest(rec, "probe.vfs.memfs.lookup", N, || {
        time_ns(|| {
            for i in 0..N {
                black_box(fs.lookup(dir, &names[i % names.len()]).expect("present"));
            }
        })
    });
    let mut buf = Vec::new();
    let ns_per_8k_read = fastest(rec, "probe.vfs.memfs.read_8k", N, || {
        time_ns(|| {
            for i in 0..N {
                let ino = files[i % files.len()];
                black_box(
                    fs.read_into(ino, 0, BLOCK as u32, t0, &mut buf)
                        .expect("read"),
                );
            }
        })
    });
    let ns_per_8k_write = fastest(rec, "probe.vfs.memfs.write_8k", N, || {
        time_ns(|| {
            for i in 0..N {
                let ino = files[i % files.len()];
                black_box(fs.write(ino, 0, &data[..BLOCK], t0).expect("write"));
            }
        })
    });
    rec.exit(id);
    Memfs {
        ns_per_lookup,
        ns_per_8k_read,
        ns_per_8k_write,
    }
}

/// `core.server` results.
pub struct Server {
    /// One LOOKUP through `NfsServer::service`.
    pub ns_per_small_rpc: f64,
    /// One 8 KB READ.
    pub ns_per_8k_read: f64,
    /// One 8 KB WRITE.
    pub ns_per_8k_write: f64,
    /// Mean over the captured requests of cell 0, replayed in order.
    pub replay_ns_per_request: f64,
    /// LOOKUPs of the replay the server's name cache answered.
    pub namecache_hit_ratio: f64,
    /// READs of the replay served without a disk read.
    pub bufcache_hit_ratio: f64,
}

/// Times the server on fixed requests, then replays the requests the
/// traced pass captured from cell 0 against a freshly preloaded copy of
/// that cell's servers.
pub fn server(rec: &mut Recorder, spec: CellSpec, requests: &[(usize, &Request)]) -> Server {
    const N: usize = 2_000;
    let id = rec.enter("probe.core.server");
    let now = SimTime::from_secs(1);
    let t0 = SimTime::ZERO;
    let mut srv = NfsServer::new(ServerConfig::reno(), t0);
    let root = srv.fs().root();
    let dir = srv
        .fs_mut()
        .mkdir(root, "d", 0o755, t0)
        .expect("fresh tree");
    let names: Vec<String> = (0..100).map(|i| file_name(i, true)).collect();
    let data = vec![0x5Au8; 2 * BLOCK];
    let handles: Vec<FileHandle> = names
        .iter()
        .map(|n| {
            let ino = srv.fs_mut().create(dir, n, 0o644, t0).expect("fresh name");
            srv.fs_mut().write(ino, 0, &data, t0).expect("fill");
            srv.handle_for(ino).expect("handle")
        })
        .collect();
    let dir_fh = srv.handle_for(dir).expect("handle");
    let lookups: Vec<MbufChain> = (0..N)
        .map(|i| {
            call(i as u32, NfsProc::Lookup, |c, m| {
                proto::build::dirop_args(c, m, &dir_fh, &names[i % names.len()])
            })
        })
        .collect();
    let reads: Vec<MbufChain> = (0..N)
        .map(|i| {
            call(i as u32, NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, &handles[i % handles.len()], 0, BLOCK as u32)
            })
        })
        .collect();
    let mut meter = CopyMeter::new();
    let writes: Vec<MbufChain> = (0..N)
        .map(|i| {
            let payload = MbufChain::from_slice(&data[..BLOCK], &mut meter);
            call(i as u32, NfsProc::Write, |c, m| {
                proto::build::write_args(c, m, &handles[i % handles.len()], 0, payload)
            })
        })
        .collect();
    let mut serve_all = |rec: &mut Recorder, name: &str, msgs: &[MbufChain]| {
        fastest(rec, name, msgs.len(), || {
            time_ns(|| {
                for msg in msgs {
                    black_box(srv.service(now, msg));
                }
            })
        })
    };
    let ns_per_small_rpc = serve_all(rec, "probe.core.server.small_rpc", &lookups);
    let ns_per_8k_read = serve_all(rec, "probe.core.server.read_8k", &reads);
    let ns_per_8k_write = serve_all(rec, "probe.core.server.write_8k", &writes);

    let (mut lookups_seen, mut lookup_hits, mut reads_seen, mut read_hits) =
        (0u64, 0u64, 0u64, 0u64);
    let replay_ns_per_request = fastest(rec, "probe.core.server.replay", requests.len(), || {
        let mut cell = prepare(spec);
        (lookups_seen, lookup_hits, reads_seen, read_hits) = (0, 0, 0, 0);
        time_ns(|| {
            for (client, r) in requests {
                let (reply, cost) =
                    cell.world
                        .server_of_mut(r.server)
                        .service_from(r.at, &r.msg, *client as u32);
                black_box(reply);
                match r.proc {
                    NfsProc::Lookup => {
                        lookups_seen += 1;
                        lookup_hits += u64::from(cost.dir_scan_entries == 0);
                    }
                    NfsProc::Read => {
                        reads_seen += 1;
                        read_hits += u64::from(cost.disk_reads.is_empty());
                    }
                    _ => {}
                }
            }
        })
    });
    rec.exit(id);
    Server {
        ns_per_small_rpc,
        ns_per_8k_read,
        ns_per_8k_write,
        replay_ns_per_request,
        namecache_hit_ratio: lookup_hits as f64 / lookups_seen.max(1) as f64,
        bufcache_hit_ratio: read_hits as f64 / reads_seen.max(1) as f64,
    }
}

/// `vfs.attrcache`: the hit ratio an attribute cache with the Reno
/// client's lifetime sees when fed, at their simulated issue times, the
/// file handles the captured requests name (each miss fills the entry).
pub fn attrcache_hit_ratio(rec: &mut Recorder, requests: &[(usize, &Request)]) -> f64 {
    let id = rec.enter("probe.vfs.attrcache");
    let mut cache = AttrCache::new(ClientConfig::reno().attr_timeout);
    let mut ordered: Vec<&Request> = requests.iter().map(|(_, r)| *r).collect();
    ordered.sort_by_key(|r| r.at);
    for r in ordered {
        let mut dec = XdrDecoder::new(&r.msg);
        if CallHeader::decode(&mut dec).is_err() {
            continue;
        }
        let fh = match proto::decode_args(r.proc, &mut dec) {
            Ok(NfsArgs::Handle(fh))
            | Ok(NfsArgs::Setattr(fh, _))
            | Ok(NfsArgs::DirOp(fh, _))
            | Ok(NfsArgs::Read(fh, _, _))
            | Ok(NfsArgs::Write(fh, _, _))
            | Ok(NfsArgs::Create(fh, _, _))
            | Ok(NfsArgs::Readdir(fh, _, _)) => fh,
            _ => continue,
        };
        let vnode = fh.vnode_token();
        if cache.get(vnode, r.at).is_none() {
            cache.put(vnode, Vattr::empty_file(fh.ino, r.at), r.at);
        }
    }
    rec.exit(id);
    let stats = cache.stats();
    stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
}

/// `core.client` results.
pub struct Client {
    /// Host ns per RPC of an Andrew run through `ClientFs` over the
    /// in-process loopback (client caches, codec and server; no network).
    pub ns_per_andrew_rpc_loopback: f64,
    /// RPCs that run issues.
    pub rpcs_per_run: f64,
}

/// Runs the standard Andrew tree through the Reno client over loopback.
pub fn client(rec: &mut Recorder) -> Client {
    let tree = AndrewSpec::standard();
    let mut rpcs = 0;
    let ns = fastest(rec, "probe.core.client", 1, || {
        let mut srv = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        preload_andrew_source(srv.fs_mut(), &tree);
        let root = srv.root_handle();
        let mut fs = ClientFs::mount(Loopback::new(srv), ClientConfig::reno(), root, "probe");
        let ns = time_ns(|| {
            black_box(run_andrew(&mut fs, &tree).expect("loopback run"));
        });
        rpcs = fs.counts().total();
        ns
    });
    Client {
        ns_per_andrew_rpc_loopback: ns / rpcs.max(1) as f64,
        rpcs_per_run: rpcs as f64,
    }
}

/// `core.router`: one path routed through a 4-shard export table.
pub fn router_ns_per_route(rec: &mut Recorder) -> f64 {
    const N: usize = 100_000;
    let map = ExportMap::fleet(4);
    let paths: Vec<String> = (0..64)
        .map(|i| match i % 4 {
            0 => format!("/usr/src/file{i}"),
            j => format!("/s{j}/dir/file{i}"),
        })
        .collect();
    fastest(rec, "probe.core.router", N, || {
        time_ns(|| {
            for i in 0..N {
                black_box(map.route(&paths[i % paths.len()]));
            }
        })
    })
}

/// A machine that answers every RPC at once with one canned reply, so
/// what is left of a generator run is the generator.
struct Canned {
    now: SimTime,
    reply: MbufChain,
}

impl Syscalls for Canned {
    fn now(&mut self) -> SimTime {
        self.now
    }
    fn charge_cpu(&mut self, d: SimDuration) {
        self.now += d;
    }
    fn sleep(&mut self, d: SimDuration) {
        self.now += d;
    }
    fn rpc(&mut self, _proc: NfsProc, _msg: MbufChain) -> RpcResult {
        Ok(self.reply.clone())
    }
    fn rpc_async(&mut self, _proc: NfsProc, _msg: MbufChain) -> Ticket {
        Ticket(0)
    }
    fn await_ticket(&mut self, _t: Ticket) -> RpcResult {
        Ok(self.reply.clone())
    }
    fn poll_ticket(&mut self, _t: Ticket) -> Option<RpcResult> {
        Some(Ok(self.reply.clone()))
    }
    fn forget_ticket(&mut self, _t: Ticket) {}
    fn wait_all_async(&mut self) {}
    fn local_disk(&mut self, _bytes: usize, _write: bool, _sequential: bool) {}
}

/// `workload`: host ns per operation of `generator_proc` with the
/// workload's own mix (pure LOOKUP for Andrew) over [`Canned`].
pub fn nhfsstone_ns_per_op(rec: &mut Recorder, spec: CellSpec) -> f64 {
    const OPS: f64 = 20_000.0;
    let mut cfg = nhfsstone_config(spec)
        .unwrap_or_else(|| NhfsstoneConfig::paper(80.0, LoadMix::pure_lookup()));
    cfg.procs = 1;
    let fh = |ino| FileHandle {
        fsid: 1,
        ino,
        gen: 1,
    };
    let files: Vec<FileHandle> = (0..cfg.nfiles as u32).map(|i| fh(10 + i)).collect();
    let mut meter = CopyMeter::new();
    let mut reply = MbufChain::new();
    ReplyHeader {
        xid: 0,
        stat: AcceptStat::Success,
    }
    .encode(&mut reply, &mut meter);
    let end = SimTime::ZERO + SimDuration::from_secs_f64(OPS / cfg.rate_per_sec);
    let mut ops = 0;
    let ns = fastest(rec, "probe.workload.nhfsstone", 1, || {
        let mut sys = Canned {
            now: SimTime::ZERO,
            reply: reply.clone(),
        };
        let mut samples = Vec::new();
        let ns = time_ns(|| {
            samples = generator_proc(
                &mut sys,
                0,
                &cfg,
                fh(2),
                &files,
                SimTime::ZERO,
                end,
                Some(fh(3)),
            );
        });
        ops = samples.len();
        ns
    });
    ns / ops.max(1) as f64
}

/// `oracle` results.
pub struct Oracle {
    /// Host ns per observation fed to the streaming checker.
    pub ns_per_obs: f64,
    /// The checker's high-water mark of retained state on that log.
    pub peak_retained: f64,
}

/// Feeds the streaming oracle a seeded log of creates, commits and reads
/// from four clients over 64 files (every read sees the latest commit).
pub fn oracle(rec: &mut Recorder, seed: u64) -> Oracle {
    const N: usize = 20_000;
    const CLIENTS: usize = 4;
    let mut rng = Rng::new(seed);
    // Per file: absent, created, or the latest committed (len, fnv).
    let mut latest: Vec<Option<Option<(usize, u64)>>> = vec![None; 64];
    let log: Vec<Obs> = (0..N)
        .map(|i| {
            let file = rng.index(latest.len());
            let path = format!("/soak/f{file:02}");
            let kind = match latest[file] {
                None => {
                    latest[file] = Some(None);
                    ObsKind::Created {
                        path,
                        outcome: OpOutcome::Ok,
                    }
                }
                Some(Some((len, fnv))) if rng.chance(0.5) => ObsKind::Observed { path, len, fnv },
                Some(_) => {
                    let len = 1 + rng.index(BLOCK);
                    let fnv = rng.next_u64();
                    latest[file] = Some(Some((len, fnv)));
                    ObsKind::Committed {
                        path,
                        len,
                        fnv,
                        certain: true,
                    }
                }
            };
            // 50 ms apart: the log outlasts the checker's retention
            // window several times, so retirement runs.
            let t = i as u64 * 50_000_000;
            Obs {
                client: i % CLIENTS,
                t_start: t,
                t_done: t + 1_000_000,
                kind,
            }
        })
        .collect();
    let mut peak_retained = 0;
    let ns_per_obs = fastest(rec, "probe.oracle", N, || {
        let mut oracle = StreamingOracle::new(CLIENTS, StreamConfig::for_soak(5_000_000_000));
        let feed = log.clone();
        let ns = time_ns(|| {
            for obs in feed {
                oracle.feed(obs);
            }
        });
        let outcome = oracle.finish();
        assert!(
            outcome.violations.is_empty(),
            "the probe's log is consistent"
        );
        peak_retained = outcome.stats.peak_retained;
        ns
    });
    Oracle {
        ns_per_obs,
        peak_retained: peak_retained as f64,
    }
}

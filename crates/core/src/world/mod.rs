//! The deterministic simulation world.
//!
//! One [`World`] owns a community of client machines and a server machine
//! joined by a simulated internetwork, per-client RPC transports
//! (UDP-fixed, UDP-dynamic or TCP), and the NFS server. Workload code
//! runs in natural blocking style against the
//! [`Syscalls`](crate::syscalls::Syscalls) trait, each proc a stackful
//! coroutine (`crate::coro`) on the thread that runs the
//! world's events: the event loop switches to a proc to resume
//! it and the proc switches back when a call must block, so exactly one
//! of them runs at any instant — strict hand-off, which is what keeps the
//! run deterministic — and no other thread is involved. Every call but
//! `now()` crosses to the loop once; `now()` reads the clock stamped on
//! the proc's last resume (DESIGN.md §8).
//!
//! Every CPU microsecond, disk seek, wire serialization, IP fragment and
//! retransmission flows through this loop, which is what lets the bench
//! harnesses reproduce the paper's graphs.
//!
//! # One event queue, two sides
//!
//! Every world, whatever its size, transport or fault plan, runs one
//! event queue and one proc scheduler (DESIGN.md §11 says why there is
//! no second loop). `ClientCtx` (`client.rs`) holds a client machine's
//! handlers (syscalls, RPC issue and completion, transport timers) and
//! `ServerCtx` (`server.rs`) a server machine's (the nfsd pool, crashes);
//! each touches only its own machine's state, and the two sides meet
//! through `Ev::Send` frames — a TCP mount included, each end of which
//! lives with the machine that runs it. Both are a `Machine`
//! (`machine.rs`): one driver sends and receives their UDP datagrams and
//! runs their TCP ends, and the world's network step hands each datagram
//! that completes to the machine it reached.
//!
//! # Clients
//!
//! [`WorldConfig::clients`] scales the world from the paper's measured
//! single client to a crowd: each client machine gets its own host model,
//! transport instance, UDP source port (`1023 + index`, the BSD reserved-
//! port convention) and RNG stream split stably from the world seed.
//! Client 0 of an N-client world is bit-identical to the only client of a
//! 1-client world, which keeps every pre-crowd experiment byte-stable.
//!
//! # The nfsd service pool
//!
//! A real 4.3BSD server runs a fixed set of `nfsd` daemons; requests
//! beyond that concurrency wait in the socket buffer. [`WorldConfig::
//! nfsds`] models the same bound: requests arriving while every daemon
//! context is busy queue FIFO, and per-request queueing delay and service
//! time are recorded in [`NfsdStats`]. `nfsds == 0` retains the pre-pool
//! model (a daemon per request, serialization only through the CPU and
//! disks), which the calibrated single-client experiments rely on.
//!
//! # Sharded fleets
//!
//! [`WorldConfig::servers`] scales the server side the same way:
//! `M > 1` builds M server machines, each with its own host model, NFS
//! server instance (hence its own dup cache and boot epoch), and nfsd
//! pool, hanging off the shared trunk of the chosen topology. Every
//! client keeps one transport *per server* — independent XID streams
//! and RTO state per (client, server) pair — and addresses RPCs with
//! [`Syscalls::rpc_to`](crate::syscalls::Syscalls::rpc_to). An M = 1 world is byte-identical to the
//! pre-shard single-server world.

mod client;
mod config;
mod machine;
mod proc;
mod server;

use renofs_mbuf::MbufChain;
use renofs_netsim::topology::presets;
use renofs_netsim::{Datagram, NetEvent, NetOutput, NetStats, Network, NodeId, ProtoHeader};
use renofs_sim::{profile, EventQueue, SimDuration, SimTime};
use renofs_transport::tcp::TcpStats;
use renofs_transport::{TcpConn, TcpOut, UdpRpcClient, UdpStats};

use crate::host::Host;
use crate::proto::FileHandle;
use crate::server::NfsServer;
use crate::syscalls::RpcResult;
use client::ClientRt;
use machine::{tcp_config, Addrs, Machine};
use proc::{Resp, Sched};
use server::ServerRt;

pub use config::{
    ClientEvent, ClientEventKind, MountOptions, TopologyKind, TransportKind, WorldConfig,
};
pub use proc::WorldSys;
pub use server::NfsdStats;

/// World events.
enum Ev {
    Net(NetEvent),
    Wake(usize, Resp),
    AsyncDone {
        client: usize,
        ticket: u64,
        result: RpcResult,
    },
    UdpTimer {
        client: usize,
        server: usize,
        xid: u32,
        gen: u64,
    },
    TcpTimer {
        client: usize,
        server: usize,
        server_side: bool,
        gen: u64,
    },
    /// A message finishes its send-side CPU and enters the network.
    Send {
        src: NodeId,
        dst: NodeId,
        proto: ProtoHeader,
        payload: MbufChain,
    },
    /// An nfsd daemon context handed its reply to the transport and
    /// returns to the pool.
    NfsdDone {
        server: usize,
    },
    /// Fault plan: a server dies, losing volatile state.
    ServerCrash {
        server: usize,
        downtime: SimDuration,
    },
    /// Fault plan: a server finishes rebooting.
    ServerReboot {
        server: usize,
    },
    /// A console note whose time is known at construction (crash/reboot
    /// observations), pre-scheduled for `client` so the hub's crash handler
    /// never has to reach into client state.
    Note {
        client: usize,
        kind: ClientEventKind,
    },
}

// Popped, dispatched and pushed by value once per frame per hop.
const _: () = assert!(size_of::<Ev>() <= 96);

impl Ev {
    /// Counts this popped event in the `--profile` census (nothing without
    /// the `profile` feature).
    #[inline]
    fn census(&self) {
        let kind = match self {
            Ev::Net(NetEvent::FragArrive { .. }) => "Net(FragArrive)",
            Ev::Net(NetEvent::ReasmExpire { .. }) => "Net(ReasmExpire)",
            Ev::Wake(..) => "Wake",
            Ev::AsyncDone { .. } => "AsyncDone",
            Ev::UdpTimer { .. } => "UdpTimer",
            Ev::TcpTimer { .. } => "TcpTimer",
            Ev::Send { .. } => "Send",
            Ev::NfsdDone { .. } => "NfsdDone",
            _ => "other",
        };
        profile::census(kind, false);
    }
}

/// The simulation world.
///
/// A world is `!Send`: a proc that has run is a suspended stack tied to
/// the thread that ran it (see [`WorldSys`]).
///
/// ```compile_fail,E0277
/// fn must_be_send<T: Send>() {}
/// must_be_send::<renofs::World>();
/// ```
pub struct World {
    cfg: WorldConfig,
    /// Every machine's pending events.
    queue: EventQueue<Ev>,
    net: Network,
    /// Reusable network-step output: drained after every step, so the
    /// per-hop path allocates nothing once the vectors reach working size.
    net_out: NetOutput,
    addrs: Addrs,
    clients: Vec<ClientRt>,
    servers: Vec<ServerRt>,
    /// Spare TCP step outputs for every machine's ends.
    spares: Vec<TcpOut>,
    sched: Sched,
    started: bool,
}

/// Capacity hints carried across the `World`s of a parameter sweep, so
/// repeated cells start with buffers already sized to the workload
/// instead of re-growing them from empty every time.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldScratch {
    /// Peak event-queue depth observed; the next world's queue is created
    /// with room for this many pending events.
    pub queue_cap: usize,
    /// Peak network-output event burst observed.
    pub net_events_cap: usize,
}

impl WorldScratch {
    /// Folds a finished world's high-water marks into the hints.
    pub fn observe(&mut self, world: &World) {
        self.queue_cap = self.queue_cap.max(world.queue.peak_depth());
        self.net_events_cap = self.net_events_cap.max(world.net_out.events.capacity());
    }
}

/// Stable per-client split of the world seed; client 0 keeps the
/// unsalted stream so single-client worlds stay byte-identical.
fn client_salt(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl World {
    /// Builds a world; for TCP every client's connection is established
    /// before returning.
    pub fn new(cfg: WorldConfig) -> Self {
        Self::with_scratch(cfg, &WorldScratch::default())
    }

    /// [`World::new`] with buffer capacity hints from earlier runs.
    pub fn with_scratch(cfg: WorldConfig, scratch: &WorldScratch) -> Self {
        let n = cfg.clients.max(1);
        let m = cfg.servers.max(1);
        let (mut topo, client_nodes, server_nodes) = match cfg.topology {
            TopologyKind::SameLan => presets::same_lan_nm(&cfg.background, n, m),
            TopologyKind::TokenRing => presets::token_ring_path_nm(&cfg.background, n, m),
            TopologyKind::SlowLink => presets::slow_link_path_nm(&cfg.background, n, m),
        };
        for &c in &client_nodes {
            for &s in &server_nodes {
                topo.apply_faults(&cfg.faults, c, s);
            }
        }
        let addrs = Addrs::new(&topo, &client_nodes, server_nodes);
        let clients = (0..n).map(|i| ClientRt::new(&cfg, i, &addrs.clients[i].mtus));
        let clients = clients.collect();
        let net = Network::new(topo, cfg.seed ^ 0x6e65_7473);
        let servers = (0..m).map(|j| ServerRt::new(&cfg, j, &addrs)).collect();
        let mut world = World {
            queue: EventQueue::with_capacity(scratch.queue_cap),
            net,
            net_out: NetOutput {
                events: Vec::with_capacity(scratch.net_events_cap),
                delivered: Vec::new(),
            },
            addrs,
            clients,
            servers,
            spares: Vec::new(),
            sched: Sched::default(),
            started: false,
            cfg,
        };
        // Fault-plan crashes hit server 0 (the paper's box; sharded
        // worlds crash their primary shard). What each client's console
        // prints about them has statically known times, so it is scheduled
        // here and the server's crash handler stays on its own machine.
        for (at, downtime) in world.cfg.faults.server_crashes() {
            world.queue.push(
                at,
                Ev::ServerCrash {
                    server: 0,
                    downtime,
                },
            );
            for client in 0..n {
                for (when, kind) in [
                    (at, ClientEventKind::ServerCrashed),
                    (at + downtime, ClientEventKind::ServerRebooted),
                ] {
                    world.queue.push(when, Ev::Note { client, kind });
                }
            }
        }
        if matches!(world.cfg.transport, TransportKind::Tcp) {
            for ci in 0..n {
                for sj in 0..m {
                    world.tcp_connect(ci, sj);
                }
            }
        }
        world
    }

    /// Opens client `ci`'s connection to server `sj`, pumping the queue
    /// until both ends are established.
    fn tcp_connect(&mut self, ci: usize, sj: usize) {
        let now = self.queue.now();
        let mtu = self.addrs.clients[ci].mtus[sj];
        let (conn, mut out) = TcpConn::client(tcp_config(mtu), 11_000, now);
        self.clients[ci].conns[sj].conn = conn;
        self.client_ctx(ci).tcp_out(sj, &mut out, now);
        for _ in 0..10_000 {
            let ends = [&self.clients[ci].conns[sj], &self.servers[sj].conns[ci]];
            if ends.iter().all(|end| end.conn.is_established()) {
                return;
            }
            if !self.step() {
                break;
            }
        }
        panic!("TCP connection failed to establish");
    }

    /// Server 0's root file handle (as the MOUNT protocol provides).
    pub fn root_handle(&self) -> FileHandle {
        self.server_of(0).root_handle()
    }

    /// Direct access to server 0 (test preloading, stats).
    pub fn server_mut(&mut self) -> &mut NfsServer {
        self.server_of_mut(0)
    }

    /// Direct access to a specific shard's server.
    pub fn server_of_mut(&mut self, sj: usize) -> &mut NfsServer {
        &mut self.servers[sj].server
    }

    /// Read access to a specific shard's server.
    pub fn server_of(&self, sj: usize) -> &NfsServer {
        &self.servers[sj].server
    }

    /// Number of server machines in the world.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Lifetime queue counters: `(events popped, peak pending depth)`.
    pub fn queue_stats(&self) -> (u64, usize) {
        (self.queue.pops(), self.queue.peak_depth())
    }

    /// Starts recording event-queue operations (for replay benchmarks).
    pub fn start_queue_trace(&mut self) {
        self.queue.start_trace();
    }

    /// Stops recording and returns the queue operation stream.
    pub fn take_queue_trace(&mut self) -> Vec<renofs_sim::queue::QueueOp> {
        self.queue.take_trace()
    }

    /// A specific shard's server machine (CPU/disk stats).
    pub fn server_host_of(&self, sj: usize) -> &Host {
        &self.servers[sj].host
    }

    /// Mutable access to a shard's server machine (accounting resets).
    pub fn server_host_mut(&mut self, sj: usize) -> &mut Host {
        &mut self.servers[sj].host
    }

    /// Number of client machines in the world.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// A specific client's machine.
    pub fn client_host_of(&self, ci: usize) -> &Host {
        &self.clients[ci].host
    }

    /// Network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// A (client, server) pair's UDP transport statistics, if the mount
    /// uses UDP.
    pub fn udp_stats_to(&self, ci: usize, sj: usize) -> Option<UdpStats> {
        self.clients[ci].udp.get(sj).map(UdpRpcClient::stats)
    }

    /// A (client, server) pair's TCP statistics, if the mount uses TCP.
    pub fn tcp_stats_to(&self, ci: usize, sj: usize) -> Option<TcpStats> {
        self.clients[ci].conns.get(sj).map(|end| end.conn.stats())
    }

    /// A specific shard's nfsd service-pool accounting.
    pub fn nfsd_stats_of(&self, sj: usize) -> &NfsdStats {
        &self.servers[sj].nfsd_stats
    }

    /// Current virtual time: after `run`, the event time of the last
    /// workload-proc finish.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// A specific client's timestamped console-event log (`server not
    /// responding`, `server ok`, soft timeouts, crashes, reboots), in
    /// emission order.
    pub fn client_events_of(&self, ci: usize) -> &[ClientEvent] {
        &self.clients[ci].events
    }

    /// Whether a specific shard's server is currently up (fault plans can
    /// crash server 0).
    pub fn server_is_up_of(&self, sj: usize) -> bool {
        self.servers[sj].up
    }

    /// Spawns a workload proc on client 0. It starts suspended;
    /// [`World::run`] schedules it.
    pub fn spawn(&mut self, f: impl FnOnce(&mut WorldSys) + 'static) -> usize {
        self.spawn_on(0, f)
    }

    /// Spawns a workload proc on the given client machine. It starts
    /// suspended; [`World::run`] schedules it. The proc never leaves the
    /// thread that runs the world, so `f` need not be `Send`.
    pub fn spawn_on(&mut self, client: usize, f: impl FnOnce(&mut WorldSys) + 'static) -> usize {
        assert!(client < self.clients.len(), "no such client machine");
        assert!(
            !self.started,
            "spawn every proc before the world first runs: procs are released once"
        );
        self.sched.spawn(client, f)
    }

    /// Runs the world until virtual time reaches `t` (or every proc
    /// finishes). Used by harnesses that reset CPU accounting after a
    /// warm-up interval. [`World::run`] must still be called afterwards.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_to(Some(t));
    }

    /// Runs the world until every workload proc has finished.
    pub fn run(&mut self) {
        self.run_to(None);
        // Re-raise a workload panic (the first in spawn order) so tests
        // fail loudly instead of reporting half a run.
        if let Some(payload) = self.sched.ports.iter_mut().find_map(|p| p.panic.take()) {
            std::panic::resume_unwind(payload);
        }
    }

    /// The event loop: strict hand-off between the loop and exactly one
    /// running workload proc, the ready FIFO draining before each pop,
    /// until every proc has finished or the next event lies past `until`.
    /// The run ends the moment the last proc finishes; whatever is still
    /// queued (stale timers, duplicates at a server) is never run.
    fn run_to(&mut self, until: Option<SimTime>) {
        if !self.started {
            self.started = true;
            self.sched.release();
        }
        loop {
            if let Some((tid, resp)) = self.sched.ready.pop_front() {
                let ci = self.sched.ports[tid].client;
                self.client_ctx(ci).resume(tid, resp);
                continue;
            }
            if self.sched.live == 0 {
                return;
            }
            if until.is_some_and(|t| self.queue.peek().is_none_or(|next| next > t)) {
                return;
            }
            assert!(
                self.step(),
                "deadlock: procs blocked with no pending events"
            );
        }
    }

    /// Pops the next event and hands it to the machine that owns it, or
    /// to the network; false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        ev.census();
        match ev {
            Ev::Wake(tid, resp) => self.sched.ready.push_back((tid, resp)),
            Ev::AsyncDone {
                client,
                ticket,
                result,
            } => self.client_ctx(client).async_done(ticket, result),
            Ev::UdpTimer {
                client,
                server,
                xid,
                gen,
            } => self
                .client_ctx(client)
                .udp_step(server, |u, out| u.on_timer(now, xid, gen, out)),
            Ev::TcpTimer {
                client,
                server,
                server_side,
                gen,
            } => {
                let step = |conn: &mut TcpConn, out: &mut TcpOut| conn.on_timer_into(gen, now, out);
                if server_side {
                    self.server_ctx(server).tcp_step(client, now, step);
                } else {
                    self.client_ctx(client).tcp_step(server, now, step);
                }
            }
            Ev::Note { client, kind } => self.client_ctx(client).note(now, kind),
            Ev::Send {
                src,
                dst,
                proto,
                payload,
            } => self.net_step(now, |net, out| {
                let id = net.alloc_dgram_id();
                let dgram = Datagram {
                    id,
                    src,
                    dst,
                    proto,
                    payload,
                };
                net.send_into(now, dgram, out);
            }),
            Ev::Net(nev) => self.net_step(now, |net, out| net.handle_into(now, nev, out)),
            Ev::NfsdDone { server } => self.server_ctx(server).nfsd_done(now),
            Ev::ServerCrash { server, downtime } => self.server_ctx(server).crash(now, downtime),
            Ev::ServerReboot { server } => self.server_ctx(server).reboot(now),
        }
        true
    }

    /// Runs `step` on the network into the reusable output, then applies
    /// it: the network's own events are queued, and a datagram that
    /// completed between a client and a server machine goes to the one it
    /// reached (any other is none of this world's exchanges).
    fn net_step(&mut self, now: SimTime, step: impl FnOnce(&mut Network, &mut NetOutput)) {
        let _sp = profile::span(profile::Subsystem::Links);
        let mut out = std::mem::take(&mut self.net_out);
        step(&mut self.net, &mut out);
        profile::count(profile::Subsystem::Links, out.events.len() as u64);
        for (t, ev) in out.events.drain(..) {
            self.queue.push(t, Ev::Net(ev));
        }
        // A network step completes at most one datagram.
        for d in out.delivered.drain(..) {
            let (to, from, a) = (d.host.0, d.dgram.src.0, &self.addrs);
            if let (Some(ci), Some(sj)) = (a.client_at[to], a.server_at[from]) {
                self.client_ctx(ci).receive(sj, now, d);
            } else if let (Some(sj), Some(ci)) = (a.server_at[to], a.client_at[from]) {
                // A crashed server receives nothing: requests (and TCP
                // segments) addressed to it die on arrival and the client
                // must retransmit.
                if self.servers[sj].up {
                    self.server_ctx(sj).receive(ci, now, d);
                }
            }
        }
        self.net_out = out;
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use renofs_mbuf::CopyMeter;
    use renofs_netsim::FaultPlan;
    use renofs_sim::cpu::CpuCategory;

    use super::*;
    use crate::client::{ClientConfig, ClientFs};
    use crate::proto::{NfsProc, NfsStatus};
    use crate::syscalls::Syscalls;
    use renofs_vfs::InodeId;
    use std::sync::mpsc::channel as result_channel;

    fn preload(world: &mut World, name: &str, bytes: &[u8]) {
        let root = world.server_of(0).fs().root();
        let ino = world
            .server_mut()
            .fs_mut()
            .create(root, name, 0o644, SimTime::ZERO)
            .unwrap();
        world
            .server_mut()
            .fs_mut()
            .write(ino, 0, bytes, SimTime::ZERO)
            .unwrap();
        let _ = InodeId(0);
    }

    fn full_stack_round_trip(transport: TransportKind) {
        let mut cfg = WorldConfig::baseline();
        cfg.transport = transport;
        let mut world = World::new(cfg);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 13 % 256) as u8).collect();
        preload(&mut world, "preloaded.bin", &payload);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        let expect = payload.clone();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            // Read the preloaded file through the full stack.
            let fh = fs.lookup_path("/preloaded.bin").unwrap();
            let got = fs.read(fh, 0, 30_000).unwrap();
            assert_eq!(got, expect);
            // Write a new file and read it back.
            let out = fs.open("/out.bin", true, false).unwrap();
            fs.write(out, 0, b"written through the simulated network")
                .unwrap();
            fs.close(out).unwrap();
            let back = fs.read(out, 0, 100).unwrap();
            tx.send(back).unwrap();
        });
        world.run();
        let back = rx.recv().unwrap();
        assert_eq!(back, b"written through the simulated network");
        assert!(world.now() > SimTime::ZERO);
        // The server actually served RPCs.
        assert!(world.server_of(0).stats().total() > 5);
    }

    #[test]
    fn udp_dynamic_full_stack() {
        full_stack_round_trip(TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn udp_fixed_full_stack() {
        full_stack_round_trip(TransportKind::UdpFixed {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn tcp_full_stack() {
        full_stack_round_trip(TransportKind::Tcp);
    }

    #[test]
    fn stat_over_the_wire() {
        let mut world = World::new(WorldConfig::baseline());
        preload(&mut world, "f.txt", b"12345");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            let attr = fs.stat("/f.txt").unwrap();
            tx.send(attr.size).unwrap();
            assert!(matches!(
                fs.stat("/missing"),
                Err(crate::client::ClientError::Nfs(NfsStatus::NoEnt))
            ));
        });
        world.run();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn deterministic_runs() {
        let run_once = || {
            let mut world = World::new(WorldConfig::baseline());
            preload(&mut world, "d.bin", &[7u8; 12_000]);
            let root = world.root_handle();
            world.spawn(move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/d.bin").unwrap();
                let _ = fs.read(fh, 0, 12_000).unwrap();
                let out = fs.open("/o.bin", true, false).unwrap();
                fs.write(out, 0, &[1u8; 9_000]).unwrap();
                fs.close(out).unwrap();
            });
            world.run();
            world.now()
        };
        assert_eq!(run_once(), run_once(), "identical seeds, identical clocks");
    }

    #[test]
    fn sleep_paces_threads() {
        let mut world = World::new(WorldConfig::baseline());
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let t0 = sys.now();
            sys.sleep(SimDuration::from_millis(250));
            let t1 = sys.now();
            tx.send(t1.since(t0)).unwrap();
        });
        world.run();
        assert_eq!(rx.recv().unwrap(), SimDuration::from_millis(250));
    }

    fn multi_client_round_trip(transport: TransportKind) {
        let mut cfg = WorldConfig::baseline();
        cfg.transport = transport;
        cfg.clients = 3;
        let mut world = World::new(cfg);
        assert_eq!(world.client_count(), 3);
        preload(&mut world, "shared.bin", &[5u8; 9_000]);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        for ci in 0..3 {
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/shared.bin").unwrap();
                let got = fs.read(fh, 0, 9_000).unwrap();
                assert_eq!(got.len(), 9_000);
                // Each client writes its own file too.
                let out = fs.open("/own.bin", true, false).unwrap();
                fs.write(out, 0, &[ci as u8; 2_000]).unwrap();
                fs.close(out).unwrap();
                tx.send(ci).unwrap();
            });
        }
        drop(tx);
        world.run();
        let mut done: Vec<usize> = rx.iter().collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2], "every client completed");
        assert!(world.server_of(0).stats().total() > 15);
    }

    #[test]
    fn three_clients_udp_share_one_server() {
        multi_client_round_trip(TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn three_clients_tcp_share_one_server() {
        multi_client_round_trip(TransportKind::Tcp);
    }

    #[test]
    fn multi_client_runs_are_deterministic() {
        let run_once = || {
            let mut cfg = WorldConfig::baseline();
            cfg.clients = 4;
            let mut world = World::new(cfg);
            preload(&mut world, "d.bin", &[7u8; 8_000]);
            let root = world.root_handle();
            for ci in 0..4 {
                world.spawn_on(ci, move |sys| {
                    let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                    let fh = fs.lookup_path("/d.bin").unwrap();
                    let _ = fs.read(fh, 0, 8_000).unwrap();
                });
            }
            world.run();
            world.now()
        };
        assert_eq!(run_once(), run_once(), "identical seeds, identical clocks");
    }

    #[test]
    fn nfsd_pool_queues_when_daemons_are_busy() {
        let mut cfg = WorldConfig::baseline();
        cfg.clients = 4;
        cfg.nfsds = 1;
        let mut world = World::new(cfg);
        preload(&mut world, "hot.bin", &[3u8; 8_000]);
        let root = world.root_handle();
        for ci in 0..4 {
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/hot.bin").unwrap();
                let _ = fs.read(fh, 0, 8_000).unwrap();
            });
        }
        world.run();
        let stats = world.nfsd_stats_of(0);
        assert!(stats.served > 0, "pool served requests");
        assert!(
            stats.queued > 0,
            "one daemon, four clients: someone waited ({stats:?})"
        );
        assert!(
            stats.queue_delays_ms.iter().any(|&d| d > 0.0),
            "queueing delay recorded"
        );
        assert!(stats.service_ms.count() > 0);
        assert_eq!(stats.served as usize, stats.queue_delays_ms.len());
    }

    #[test]
    fn nfsd_pool_with_headroom_matches_unbounded_world() {
        // A pool wider than the peak concurrency must not change any
        // timing: the daemons never saturate, so the request stream is
        // identical to the unbounded pre-pool model.
        let run = |nfsds: usize| {
            let mut cfg = WorldConfig::baseline();
            cfg.nfsds = nfsds;
            let mut world = World::new(cfg);
            preload(&mut world, "d.bin", &[7u8; 12_000]);
            let root = world.root_handle();
            world.spawn(move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/d.bin").unwrap();
                let _ = fs.read(fh, 0, 12_000).unwrap();
                let out = fs.open("/o.bin", true, false).unwrap();
                fs.write(out, 0, &[1u8; 9_000]).unwrap();
                fs.close(out).unwrap();
            });
            world.run();
            world.now()
        };
        assert_eq!(run(0), run(64), "headroom pool is timing-transparent");
    }

    #[test]
    fn soft_mount_times_out_during_partition() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults = FaultPlan::new().partition(SimTime::from_secs(2), SimDuration::from_secs(30));
        cfg.mount = MountOptions::soft(2);
        let mut world = World::new(cfg);
        preload(&mut world, "f.txt", b"hello");
        preload(&mut world, "g.txt", b"worldly");
        preload(&mut world, "h.txt", b"byebye");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            // Before the partition: works.
            let before = fs.stat("/f.txt").map(|a| a.size);
            // Step into the partition and stat a file the client has
            // never seen (no cache to hide behind): the soft mount must
            // give up within its retrans budget instead of hanging.
            fs.sys().sleep(SimDuration::from_secs(3));
            let t0 = fs.sys().now();
            let during = fs.stat("/g.txt").map(|a| a.size);
            let waited = fs.sys().now().since(t0);
            // After the heal: works again.
            fs.sys().sleep(SimDuration::from_secs(40));
            let after = fs.stat("/h.txt").map(|a| a.size);
            tx.send((before, during, waited, after)).unwrap();
        });
        world.run();
        let (before, during, waited, after) = rx.recv().unwrap();
        assert_eq!(before, Ok(5));
        assert_eq!(during, Err(crate::client::ClientError::TimedOut));
        assert!(
            waited < SimDuration::from_secs(30),
            "soft mount gave up within the retry budget, not at the heal"
        );
        assert_eq!(after, Ok(6));
        assert!(world
            .client_events_of(0)
            .iter()
            .any(|e| e.kind == ClientEventKind::SoftTimeout));
    }

    #[test]
    fn hard_mount_blocks_through_partition_and_logs_console_pair() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults = FaultPlan::new().partition(SimTime::from_secs(2), SimDuration::from_secs(10));
        // Hard mount with a low console threshold, like `-o retrans=2`.
        cfg.mount = MountOptions {
            soft: false,
            retrans: 2,
        };
        let mut world = World::new(cfg);
        preload(&mut world, "g.txt", b"worldly");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            fs.sys().sleep(SimDuration::from_secs(3));
            // Issued mid-partition against an uncached file: a hard mount
            // never errors; the call blocks until the network heals and
            // the retry gets through.
            let size = fs.stat("/g.txt").unwrap().size;
            let done = fs.sys().now();
            tx.send((size, done)).unwrap();
        });
        world.run();
        let (size, done) = rx.recv().unwrap();
        assert_eq!(size, 7);
        assert!(
            done >= SimTime::from_secs(12),
            "completed only after the heal at t=12s, got {done:?}"
        );
        let events = world.client_events_of(0);
        let nr = events
            .iter()
            .position(|e| e.kind == ClientEventKind::NotResponding)
            .expect("hard mount logged `server not responding`");
        let ok = events
            .iter()
            .position(|e| e.kind == ClientEventKind::ServerOk)
            .expect("hard mount logged `server ok`");
        assert!(nr < ok, "not-responding precedes server-ok");
    }

    #[test]
    fn server_crash_reboot_recovers_hard_mount() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults =
            FaultPlan::new().server_crash(SimTime::from_secs(2), SimDuration::from_secs(5));
        let mut world = World::new(cfg);
        preload(&mut world, "g.txt", b"worldly");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            fs.sys().sleep(SimDuration::from_millis(2500));
            // The server is down and its caches will be cold after
            // reboot; the hard mount just retries until it answers.
            let size = fs.stat("/g.txt").unwrap().size;
            tx.send((size, fs.sys().now())).unwrap();
        });
        world.run();
        let (size, done) = rx.recv().unwrap();
        assert_eq!(size, 7);
        assert!(done >= SimTime::from_secs(7), "answered only after reboot");
        assert!(world.server_is_up_of(0));
        let kinds: Vec<_> = world.client_events_of(0).iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ClientEventKind::ServerCrashed));
        assert!(kinds.contains(&ClientEventKind::ServerRebooted));
    }

    // ----- what crosses the proc↔world boundary ---------------------------

    fn null_call(xid: u32) -> MbufChain {
        use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};
        let mut msg = MbufChain::new();
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: NfsProc::Null.to_wire(),
            auth: AuthUnix::root("t"),
        }
        .encode(&mut msg, &mut CopyMeter::new());
        msg
    }

    /// Runs `f` as the only proc of a world; returns its result and the
    /// finished world.
    fn run_one<T: 'static>(
        cfg: WorldConfig,
        f: impl FnOnce(&mut WorldSys) -> T + 'static,
    ) -> (T, World) {
        let mut world = World::new(cfg);
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let out = f(sys);
            tx.send(out).unwrap();
        });
        world.run();
        (rx.recv().unwrap(), world)
    }

    #[test]
    fn generator_shape_costs_two_crossings_per_iteration() {
        let (crossings, _) = run_one(WorldConfig::baseline(), |sys| {
            for xid in 0..10 {
                sys.sleep(SimDuration::from_millis(3));
                let issued = sys.now();
                assert_eq!(sys.now(), issued);
                sys.rpc(NfsProc::Null, null_call(xid)).unwrap();
                assert!(sys.now() > issued);
            }
            sys.crossings
        });
        assert_eq!(crossings, 20, "sleep and rpc cross, now() does not");
    }

    #[test]
    fn charge_then_rpc_is_two_crossings() {
        let (crossings, _) = run_one(WorldConfig::baseline(), |sys| {
            for xid in 0..10 {
                sys.charge_cpu(SimDuration::from_micros(50));
                sys.rpc(NfsProc::Null, null_call(xid)).unwrap();
            }
            sys.crossings
        });
        assert_eq!(crossings, 20);
    }

    #[test]
    fn now_after_a_charge_reads_the_post_charge_time() {
        let d = SimDuration::from_micros(700);
        let ((t0, t1, crossings), _) = run_one(WorldConfig::baseline(), move |sys| {
            let t0 = sys.now();
            sys.charge_cpu(d);
            (t0, sys.now(), sys.crossings)
        });
        assert_eq!(t1, t0 + d, "idle CPU: the charge ends d later");
        assert_eq!(crossings, 1, "only the charge crossed");
    }

    #[test]
    fn a_trailing_charge_still_moves_the_finish_clock() {
        let d = SimDuration::from_millis(9);
        let (t0, world) = run_one(WorldConfig::baseline(), move |sys| {
            let t0 = sys.now();
            sys.charge_cpu(d);
            t0
        });
        assert_eq!(world.now(), t0 + d);
        assert_eq!(world.client_host_of(0).cpu.busy_time(), d);
    }

    #[test]
    #[should_panic(expected = "boom after a charge and a sleep")]
    fn a_panic_after_a_charge_and_a_sleep_is_reraised_by_run() {
        let mut world = World::new(WorldConfig::baseline());
        world.spawn(|sys| {
            sys.charge_cpu(SimDuration::from_millis(1));
            sys.sleep(SimDuration::from_millis(1));
            panic!("boom after a charge and a sleep");
        });
        world.run();
    }

    #[test]
    fn a_posted_charge_ahead_of_an_async_rpc_that_parks() {
        let mut cfg = WorldConfig::baseline();
        cfg.biods = 1;
        let d = SimDuration::from_micros(20);
        let (crossings, world) = run_one(cfg, move |sys| {
            let t0 = sys.now();
            let first = sys.rpc_async(NfsProc::Null, null_call(1));
            sys.charge_cpu(d);
            // The only biod is busy for a round trip, far longer than d:
            // this parks until `first` completes and frees the slot.
            let second = sys.rpc_async(NfsProc::Null, null_call(2));
            assert!(sys.now() > t0 + d);
            assert!(sys.poll_ticket(first).is_some(), "slot freed by completion");
            assert!(!sys.await_ticket(second).unwrap().is_empty());
            sys.crossings
        });
        assert_eq!(crossings, 5, "rpc_async, charge, rpc_async, poll, await");
        assert_eq!(world.client_host_of(0).cpu.busy_in(CpuCategory::User), d);
    }

    #[test]
    #[should_panic(expected = "before the world first runs")]
    fn spawning_into_a_started_world_is_rejected() {
        let mut world = World::new(WorldConfig::baseline());
        world.spawn(|sys| sys.sleep(SimDuration::from_millis(1)));
        world.run_until(SimTime::from_secs(1));
        world.spawn(|_| {});
    }

    #[test]
    fn dropping_a_started_world_unwinds_its_procs() {
        let held = Rc::new(());
        let mut world = World::new(WorldConfig::baseline());
        for _ in 0..3 {
            let mine = held.clone();
            world.spawn(move |sys| {
                sys.sleep(SimDuration::from_secs(60));
                sys.now();
                drop(mine);
            });
        }
        world.run_until(SimTime::from_secs(1));
        assert_eq!(Rc::strong_count(&held), 4, "three procs asleep");
        drop(world);
        assert_eq!(Rc::strong_count(&held), 1);
    }

    #[test]
    fn a_proc_can_run_a_world_of_its_own() {
        let d = SimDuration::from_millis(5);
        let (inner_elapsed, outer) = run_one(WorldConfig::baseline(), move |sys| {
            sys.sleep(d);
            let (elapsed, inner) = run_one(WorldConfig::baseline(), move |sys| {
                let t0 = sys.now();
                sys.rpc(NfsProc::Null, null_call(1)).unwrap();
                sys.sleep(d);
                sys.now().since(t0)
            });
            assert_eq!(inner.server_of(0).stats().total(), 1);
            // Back on the outer proc's own stack and clock.
            sys.sleep(d);
            elapsed
        });
        assert!(inner_elapsed > d);
        assert_eq!(outer.now(), SimTime::ZERO + d * 2);
        assert_eq!(outer.server_of(0).stats().total(), 0);
    }

    /// A call that was waiting for a daemon when the server crashed was
    /// already ACKed by the server's end of the TCP connection, so no
    /// retransmission will ever bring it back: the reboot must serve it.
    /// Dropping it with the queue left every proc blocked with no event
    /// pending.
    #[test]
    fn tcp_calls_queued_at_a_crash_are_served_after_the_reboot() {
        // All three READs leave at 500 ms; at 510 ms one is at the disk
        // and two wait behind it.
        let crash = SimTime::from_millis(510);
        let mut cfg = WorldConfig::baseline();
        cfg.transport = TransportKind::Tcp;
        cfg.clients = 3;
        cfg.nfsds = 1;
        cfg.faults = FaultPlan::new().server_crash(crash, SimDuration::from_secs(2));
        let mut world = World::new(cfg);
        preload(&mut world, "shared.bin", &[5u8; 8192]);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        for ci in 0..3 {
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/shared.bin").unwrap();
                let now = fs.sys().now();
                fs.sys().sleep(SimTime::from_millis(500).since(now));
                let res = fs.read(fh, 0, 8192).map(|bytes| bytes.len());
                tx.send((res, fs.sys().now())).unwrap();
            });
        }
        world.run_until(crash - SimDuration::from_nanos(1));
        let srv = &world.servers[0];
        assert_eq!((srv.nfsd_busy, srv.nfsd_queue.len()), (1, 2));
        world.run();
        // Every proc finishes, none before the reboot. The two queued
        // calls are answered first, by a server to which a handle from
        // before the crash is stale; the third had to re-send its own.
        let mut results: Vec<_> = rx.try_iter().collect();
        results.sort_by_key(|&(_, done)| done);
        assert_eq!(results.len(), 3);
        assert!(results[0].1 > crash + SimDuration::from_secs(2));
        let stale = Err(crate::client::ClientError::Stale);
        assert_eq!(results[0].0, stale);
        assert_eq!(results[1].0, stale);
        assert_eq!(results[2].0, Ok(8192));
    }

    /// One pinned world: `clients` procs on a token ring, client `ci`
    /// pinned to shard `ci % servers`, each reading a shared 24 KB file and
    /// writing one of its own per round around a crash of server 0 with
    /// one nfsd per server. Returns an FNV-1a hash of the finish clock,
    /// every console log and transport's counters, and every server's nfsd
    /// pool and statistics, with the text it hashed.
    fn pinned_world(
        transport: TransportKind,
        mount: MountOptions,
        servers: usize,
    ) -> (u64, String) {
        let mut cfg = WorldConfig::baseline();
        cfg.topology = TopologyKind::TokenRing;
        cfg.transport = transport;
        cfg.mount = mount;
        cfg.clients = 3;
        cfg.servers = servers;
        cfg.nfsds = 1;
        cfg.faults =
            FaultPlan::new().server_crash(SimTime::from_millis(1500), SimDuration::from_secs(2));
        let mut world = World::new(cfg);
        for sj in 0..servers {
            let root = world.server_of(sj).fs().root();
            let fs = world.server_of_mut(sj).fs_mut();
            let ino = fs.create(root, "shared.bin", 0o644, SimTime::ZERO).unwrap();
            fs.write(ino, 0, &[5u8; 24_000], SimTime::ZERO).unwrap();
        }
        let (tx, rx) = result_channel();
        for ci in 0..3 {
            let (tx, sj) = (tx.clone(), ci % servers);
            let root = world.server_of(sj).root_handle();
            world.spawn_on(ci, move |sys| {
                let sys = crate::syscalls::PinTo::new(sys, sj);
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                // A soft mount's calls may fail while the server is down.
                let mut failed = 0;
                for round in 0..4 {
                    match fs.lookup_path("/shared.bin") {
                        Ok(fh) => match fs.read(fh, 0, 24_000) {
                            Ok(got) => assert_eq!(got.len(), 24_000),
                            Err(_) => failed += 1,
                        },
                        Err(_) => failed += 1,
                    }
                    let written = fs
                        .open(&format!("/c{ci}_{round}.bin"), true, false)
                        .and_then(|out| {
                            fs.write(out, 0, &[ci as u8; 9_000])?;
                            fs.close(out)
                        });
                    failed += written.is_err() as usize;
                    fs.sys().sleep(SimDuration::from_millis(400));
                }
                tx.send(failed).unwrap();
            });
        }
        drop(tx);
        world.run();
        let failed: usize = rx.iter().sum();
        assert!(mount.soft || failed == 0, "a hard mount never fails a call");
        let mut seen = format!("now={:?}\n", world.now());
        for ci in 0..3 {
            seen.push_str(&format!("client{ci}: {:?}", world.client_events_of(ci)));
            for sj in 0..servers {
                match world.tcp_stats_to(ci, sj) {
                    Some(tcp) => seen.push_str(&format!(" {:?}", Some(tcp))),
                    None => seen.push_str(&format!(" {:?}", world.udp_stats_to(ci, sj))),
                }
            }
            seen.push('\n');
        }
        for sj in 0..servers {
            seen.push_str(&format!(
                "nfsd={:?} server={:?}\n",
                world.nfsd_stats_of(sj),
                world.server_of(sj).stats()
            ));
            assert!(
                world.nfsd_stats_of(sj).queued > 0,
                "requests queued on server {sj}"
            );
        }
        let hash = seen.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        (hash, seen)
    }

    /// Pins the TCP path of a multi-client world — the handshake, record
    /// marking at both ends, `QueuedRpc`s waiting behind the one daemon, a
    /// crash window and the retransmissions that ride it out — to what
    /// the commit before the connection state was split by endpoint
    /// computed (bcefaf8).
    #[test]
    fn tcp_ring_world_with_a_crash_window_is_pinned() {
        let (hash, seen) = pinned_world(TransportKind::Tcp, MountOptions::hard(), 1);
        assert_eq!(hash, 0x2393_0ed5_8b80_8fb6, "{seen}");
    }

    /// The same world over a soft dynamic-RTO UDP mount: UDP replies,
    /// fragments and retransmissions, and calls that give up while the
    /// server is down.
    #[test]
    fn udp_soft_mount_world_with_a_crash_window_is_pinned() {
        let timeo = SimDuration::from_secs(1);
        let (hash, seen) = pinned_world(
            TransportKind::UdpDynamic { timeo },
            MountOptions::soft(2),
            1,
        );
        assert!(seen.contains("SoftTimeout"), "{seen}");
        assert_eq!(hash, 0x36f7_14c3_d53f_d9d5, "{seen}");
    }

    /// The TCP world over two shards: client 1 mounts server 1, whose
    /// ends of the connections run on a second server machine.
    #[test]
    fn two_server_tcp_world_with_a_crash_window_is_pinned() {
        let (hash, seen) = pinned_world(TransportKind::Tcp, MountOptions::hard(), 2);
        assert_eq!(hash, 0xada3_a39c_1d37_c940, "{seen}");
    }
}

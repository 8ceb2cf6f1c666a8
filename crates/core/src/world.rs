//! The deterministic simulation world.
//!
//! One [`World`] owns a community of client machines and a server machine
//! joined by a simulated internetwork, per-client RPC transports
//! (UDP-fixed, UDP-dynamic or TCP), and the NFS server. Workload code
//! runs in natural blocking style against the [`Syscalls`] trait, each
//! proc a stackful coroutine (`crate::coro`) on the thread that runs the
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
//! no second loop). `ClientCtx` holds a client machine's handlers
//! (syscalls, RPC issue and completion, transport timers, arriving
//! datagrams) and `Hub` the network's and the server machines' (frames,
//! the nfsd pool, crashes); each touches only its own side's state, and
//! the two sides meet through `Ev::Send` frames — a TCP mount included,
//! each end of which lives with the machine that runs it. The hub's
//! network reaches the client machines too, so it hands back the
//! datagrams that complete at one.
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
//! [`Syscalls::rpc_to`]. An M = 1 world is byte-identical to the
//! pre-shard single-server world.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::topology::presets::{self, Background};
use renofs_netsim::{
    Datagram, Delivery, FaultPlan, NetEvent, NetOutput, NetStats, Network, NodeId, ProtoHeader,
    IP_HEADER, TCP_HEADER,
};
use renofs_sim::cpu::CpuCategory;
use renofs_sim::stats::Running;
use renofs_sim::{profile, EventQueue, IntMap, SimDuration, SimTime};
use renofs_sunrpc::{frame_record, peek_xid_kind, MsgKind, RecordReader, NFS_PORT};
use renofs_transport::{
    TcpConfig, TcpConn, TcpOut, TcpSegment, UdpAction, UdpRpcClient, UdpRpcConfig, UdpStats,
};

use crate::coro::{self, Coroutine, PanicPayload};
use crate::costs;
use crate::host::{udp_fragments, Host, HostProfile};
use crate::proto::NfsProc;
use crate::server::{NfsServer, ServerConfig};
use crate::syscalls::{RpcError, RpcResult, Syscalls, Ticket};

/// Which internetwork configuration to build (the paper's three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Configuration 1: one Ethernet.
    SameLan,
    /// Configuration 2: Ethernets + 80 Mbit token ring + 2 routers.
    TokenRing,
    /// Configuration 3: + 56 Kbps serial link + 3 routers.
    SlowLink,
}

/// Which RPC transport the mount uses.
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// Classic NFS/UDP: fixed mount-time RTO.
    UdpFixed {
        /// The mount `timeo`.
        timeo: SimDuration,
    },
    /// The paper's tuned NFS/UDP: per-class dynamic RTO + congestion
    /// window, no slow start.
    UdpDynamic {
        /// The mount `timeo` (fallback for unestimated classes).
        timeo: SimDuration,
    },
    /// A custom UDP configuration (for the ablation experiments).
    UdpCustom(UdpRpcConfig),
    /// NFS over TCP with record marking.
    Tcp,
}

/// Mount semantics: whether RPCs block forever or time out.
///
/// The BSD `mount_nfs` flags this models: a **hard** mount (the default)
/// retries forever, printing `server not responding` after `retrans`
/// attempts and `server ok` when the server answers again; a **soft**
/// mount abandons a call after `retrans` transmissions and fails the
/// syscall with `ETIMEDOUT` ([`RpcError::TimedOut`] here). Soft semantics
/// apply to the UDP transports; a TCP mount is inherently hard in this
/// simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MountOptions {
    /// Soft mount: give up after `retrans` transmissions.
    pub soft: bool,
    /// Transmission budget (soft) / console-report threshold (hard).
    pub retrans: u32,
}

impl MountOptions {
    /// Hard mount, BSD default `retrans`.
    pub fn hard() -> Self {
        MountOptions {
            soft: false,
            retrans: 4,
        }
    }

    /// Soft mount with the given transmission budget.
    pub fn soft(retrans: u32) -> Self {
        MountOptions {
            soft: true,
            retrans: retrans.max(1),
        }
    }
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions::hard()
    }
}

/// What a client console event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientEventKind {
    /// `nfs: server not responding` — a hard mount crossed its `retrans`
    /// threshold and is still retrying.
    NotResponding,
    /// `nfs: server ok` — a reply arrived after `NotResponding`.
    ServerOk,
    /// A soft-mount call exhausted its budget and failed with
    /// `ETIMEDOUT`.
    SoftTimeout,
    /// The fault plan crashed the server.
    ServerCrashed,
    /// The server rebooted (volatile state lost, disk intact).
    ServerRebooted,
}

/// A timestamped console event, in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: ClientEventKind,
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Internetwork layout.
    pub topology: TopologyKind,
    /// Cross-traffic and loss levels.
    pub background: Background,
    /// RPC transport.
    pub transport: TransportKind,
    /// Server software configuration.
    pub server: ServerConfig,
    /// Server machine.
    pub server_host: HostProfile,
    /// Client machine (every client in the community uses this profile).
    pub client_host: HostProfile,
    /// Number of client machines mounting the server.
    pub clients: usize,
    /// Number of server machines the export namespace is sharded over.
    /// 1 (the default) is the paper's single box; M > 1 builds a fleet
    /// with per-server nfsd pools, dup caches and boot epochs.
    pub servers: usize,
    /// nfsd daemon contexts on the server; requests beyond this
    /// concurrency queue FIFO. 0 = unbounded (the pre-pool model used by
    /// the calibrated single-client experiments).
    pub nfsds: usize,
    /// Number of biods (asynchronous I/O daemons) on each client; 0
    /// makes asynchronous requests run synchronously (write-through).
    pub biods: usize,
    /// Master random seed.
    pub seed: u64,
    /// Scheduled fault timeline. The empty default injects nothing and
    /// leaves runs byte-identical to a fault-free world.
    pub faults: FaultPlan,
    /// Hard/soft mount semantics for the UDP transports.
    pub mount: MountOptions,
}

impl WorldConfig {
    /// The paper's baseline: Reno client and server, MicroVAXIIs, one
    /// LAN, dynamic-RTO UDP.
    pub fn baseline() -> Self {
        WorldConfig {
            topology: TopologyKind::SameLan,
            background: Background::quiet(),
            transport: TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
            server: ServerConfig::reno(),
            server_host: HostProfile::microvax_tuned(),
            client_host: HostProfile::microvax_tuned(),
            clients: 1,
            servers: 1,
            nfsds: 0,
            biods: 4,
            seed: 42,
            faults: FaultPlan::new(),
            mount: MountOptions::hard(),
        }
    }
}

/// Requests from workload procs, one per crossing.
enum Req {
    Sleep(SimDuration),
    ChargeCpu(SimDuration),
    Rpc(usize, NfsProc, MbufChain),
    RpcAsync(usize, NfsProc, MbufChain),
    AwaitTicket(u64),
    PollTicket(u64),
    ForgetTicket(u64),
    WaitAllAsync,
    LocalDisk {
        bytes: usize,
        write: bool,
        seq: bool,
    },
    Finished,
}

/// Responses to workload procs.
enum Resp {
    Unit,
    Chain(RpcResult),
    MaybeChain(Option<RpcResult>),
    Ticket(u64),
}

// Every crossing moves one of each between a proc and the world.
const _: () = assert!(size_of::<Req>() <= 40 && size_of::<Resp>() <= 40);

/// Who is waiting for an RPC reply.
#[derive(Clone, Copy, Debug)]
enum Waker {
    Sync(usize),
    Async(u64),
}

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

// The UDP client is large but there are only a handful per world.
#[allow(clippy::large_enum_variant)]
enum Transport {
    Udp(UdpRpcClient),
    Tcp(Box<TcpEnd>),
}

fn tcp_config(mtu: usize) -> TcpConfig {
    TcpConfig::for_mss(mtu - IP_HEADER - TCP_HEADER)
}

/// One endpoint of a TCP mount, owned by the machine it runs on: the
/// connection and the record reader for the stream it receives. The two
/// ends of a mount meet only through the `Ev::Send` frames they exchange.
struct TcpEnd {
    conn: TcpConn,
    reader: RecordReader,
}

impl TcpEnd {
    /// A passive endpoint on a path of the given MTU.
    fn listening(mtu: usize, iss: u32) -> Self {
        TcpEnd {
            conn: TcpConn::server(tcp_config(mtu), iss),
            reader: RecordReader::new(),
        }
    }

    /// The next complete record of the received stream, if one is whole.
    fn next_record(&mut self) -> Option<MbufChain> {
        self.reader.next_record(&mut CopyMeter::new())
    }
}

/// Everything one client machine owns: its node, host model, transport
/// endpoint, source port, in-flight RPC table, console log, and biod
/// accounting. Index 0 is "the" client of the single-client experiments.
struct ClientRt {
    node: NodeId,
    host: Host,
    /// One transport per server: independent XID streams and RTO state
    /// per (client, server) pair, so two shards can never observe — or
    /// be confused by — each other's xids.
    transports: Vec<Transport>,
    sport: u16,
    /// Path MTU toward each server (fragmentation costing).
    mtus: Vec<usize>,
    /// In-flight RPCs by (server, xid). Per-client: independent machines
    /// draw xids from independent counters and routinely collide, and so
    /// do one machine's per-server streams.
    pending: IntMap<(usize, u32), Waker>,
    events: Vec<ClientEvent>,
    /// biods on this machine (0 = an asynchronous request runs
    /// synchronously in the proc that issues it).
    biods: usize,
    async_outstanding: usize,
    parked_async: VecDeque<(usize, usize, NfsProc, MbufChain)>,
    wait_all: Vec<usize>,
}

impl ClientRt {
    /// This machine's end of its TCP mount of server `sj` (`None` on a
    /// UDP mount).
    fn tcp(&mut self, sj: usize) -> Option<&mut TcpEnd> {
        match &mut self.transports[sj] {
            Transport::Tcp(end) => Some(end),
            Transport::Udp(_) => None,
        }
    }
}

/// A request waiting for a free nfsd daemon context.
struct QueuedRpc {
    request: MbufChain,
    client: usize,
    arrival: SimTime,
}

/// nfsd service-pool accounting: how long requests waited for a daemon
/// and how long daemons spent producing each reply.
#[derive(Clone, Debug, Default)]
pub struct NfsdStats {
    /// Requests fully served (handed a reply to the transport).
    pub served: u64,
    /// Requests that had to wait for a daemon.
    pub queued: u64,
    /// High-water mark of the wait queue.
    pub peak_queue: usize,
    /// Per-request queueing delay in ms (0.0 when a daemon was free);
    /// kept as raw samples so harnesses can report exact percentiles.
    pub queue_delays_ms: Vec<f64>,
    /// Daemon occupancy per request: service start to reply handoff.
    pub service_ms: Running,
}

impl NfsdStats {
    /// Exact queue-delay quantile (0.0 when nothing was served).
    pub fn queue_delay_quantile(&self, q: f64) -> f64 {
        if self.queue_delays_ms.is_empty() {
            return 0.0;
        }
        let mut v = self.queue_delays_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN delays"));
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }
}

/// What a proc and the world tell each other, one heap cell per proc. The
/// switch between them carries no values, and exactly one side runs at a
/// time: the proc sets `req` and takes `reply` only while it runs, the
/// world the reverse only while the proc is suspended.
struct ProcCell {
    /// The call the proc suspended with.
    req: Cell<Option<Req>>,
    /// What resumes the proc: the world clock and the reply to its call.
    reply: Cell<Option<(SimTime, Resp)>>,
}

/// The world's end of one proc's boundary.
struct ProcPort {
    /// The client machine the proc runs on.
    client: usize,
    /// World-wide spawn number.
    seq: usize,
    coro: Coroutine,
    cell: Rc<ProcCell>,
    /// What the proc's body panicked with, for `run` to re-raise.
    panic: Option<PanicPayload>,
}

impl ProcPort {
    /// Resumes a suspended proc with `resp`, stamped with the world
    /// `clock`, and returns the call it crosses with next — or `Finished`
    /// once its body ends, normally or by a panic kept for `run`.
    fn next_req(&mut self, clock: SimTime, resp: Resp) -> Req {
        self.cell.reply.set(Some((clock, resp)));
        let finished = self.coro.resume().unwrap_or_else(|payload| {
            self.panic = Some(payload);
            true
        });
        if finished {
            return Req::Finished;
        }
        self.cell.req.take().expect("suspended with a call")
    }
}

/// Which reply a proc parked on a ticket is owed when the RPC completes.
enum TicketHolder {
    /// Blocked in `await_ticket`: owed the RPC's result.
    Awaiting(usize),
    /// A 0-biod proc still inside `rpc_async`, performing the RPC itself:
    /// owed the `Ticket`. The result waits in `tickets_done` for the
    /// await that follows.
    Issuing(usize),
}

/// The proc scheduler: the ports of every proc in the world, the FIFO of
/// those ready to resume (procs of every client, in wake-up order), and
/// the ticket tables of their asynchronous RPCs. Proc ids and tickets are
/// world-wide; workloads treat both as opaque.
struct Sched {
    ports: Vec<ProcPort>,
    ready: VecDeque<(usize, Resp)>,
    /// Procs that have not finished.
    live: usize,
    tickets_done: HashMap<u64, RpcResult>,
    ticket_waiters: HashMap<u64, TicketHolder>,
    forgotten: HashSet<u64>,
    next_ticket: u64,
    /// Reusable UDP-transport action buffer, drained after every
    /// transport step.
    udp_actions: Vec<UdpAction>,
    /// Spare TCP step outputs for client ends, drained after every step.
    tcp_spare: Vec<TcpOut>,
}

impl Sched {
    fn new() -> Self {
        Sched {
            ports: Vec::new(),
            ready: VecDeque::new(),
            live: 0,
            tickets_done: HashMap::new(),
            ticket_waiters: HashMap::new(),
            forgotten: HashSet::new(),
            next_ticket: 1,
            udp_actions: Vec::new(),
            tcp_spare: Vec::new(),
        }
    }

    /// Readies every proc in spawn order (they start suspended): each runs
    /// to its first crossing before the first event is popped.
    fn release(&mut self) {
        for tid in 0..self.ports.len() {
            self.ready.push_back((tid, Resp::Unit));
        }
    }

    fn issue_ticket(&mut self) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        ticket
    }
}

/// The syscall endpoint handed to each workload proc.
///
/// A proc is a coroutine on the thread that runs the world's events, not
/// a thread of its own: a call that blocks suspends it there and the event
/// loop carries on. So a `WorldSys` is `!Send`, a proc sees that thread's
/// thread-locals (the mbuf free lists among them), and a lock held across
/// a syscall that another proc then wants deadlocks — as it always did
/// under strict hand-off.
///
/// [`now`](Syscalls::now) is answered from `clock`, the world clock
/// stamped on the reply that last resumed this proc. That value is exact,
/// not a cache that can go stale: virtual time advances only when the
/// event loop pops an event, and the loop is inside this proc's resume
/// for as long as the proc runs.
pub struct WorldSys {
    cell: Rc<ProcCell>,
    clock: SimTime,
    #[cfg(test)]
    crossings: u64,
}

impl WorldSys {
    /// Crosses to the world with `req` and suspends until its reply
    /// (unwinding instead if the world is dropped).
    fn ask(&mut self, req: Req) -> Resp {
        self.cell.req.set(Some(req));
        #[cfg(test)]
        {
            self.crossings += 1;
        }
        coro::suspend();
        let (clock, resp) = self.cell.reply.take().expect("resumed with a reply");
        self.clock = clock;
        resp
    }
}

impl Syscalls for WorldSys {
    fn now(&mut self) -> SimTime {
        self.clock
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        self.ask(Req::ChargeCpu(d));
    }

    fn sleep(&mut self, d: SimDuration) {
        self.ask(Req::Sleep(d));
    }

    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_to(0, proc, msg)
    }

    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        match self.ask(Req::Rpc(server, proc, msg)) {
            Resp::Chain(c) => c,
            _ => unreachable!(),
        }
    }

    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.rpc_async_to(0, proc, msg)
    }

    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        match self.ask(Req::RpcAsync(server, proc, msg)) {
            Resp::Ticket(t) => Ticket(t),
            _ => unreachable!(),
        }
    }

    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        match self.ask(Req::AwaitTicket(t.0)) {
            Resp::Chain(c) => c,
            _ => unreachable!(),
        }
    }

    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        match self.ask(Req::PollTicket(t.0)) {
            Resp::MaybeChain(c) => c,
            _ => unreachable!(),
        }
    }

    fn forget_ticket(&mut self, t: Ticket) {
        self.ask(Req::ForgetTicket(t.0));
    }

    fn wait_all_async(&mut self) {
        self.ask(Req::WaitAllAsync);
    }

    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        self.ask(Req::LocalDisk {
            bytes,
            write,
            seq: sequential,
        });
    }
}

/// Immutable per-client addressing facts the server side needs to build
/// replies (node, port, per-server path MTU) without touching
/// client-owned state.
#[derive(Clone)]
struct ClientMeta {
    node: NodeId,
    sport: u16,
    mtus: Vec<usize>,
}

/// Where the shards sit. Immutable after construction and read by every
/// machine: a client addresses its `Send`s by server index and resolves a
/// reply's source node back to the shard it came from.
struct ServerMap {
    /// Server index -> node.
    nodes: Vec<NodeId>,
    /// Node index -> server index.
    of_node: Vec<Option<usize>>,
}

/// One shard's server machine: node, host model, NFS server instance
/// (its own dup cache and boot epoch), crash state, nfsd service pool,
/// and its end of every client's TCP mount. Index 0 is "the" server of
/// the single-server experiments.
struct ServerRt {
    node: NodeId,
    host: Host,
    server: NfsServer,
    up: bool,
    nfsd_busy: usize,
    nfsd_queue: VecDeque<QueuedRpc>,
    nfsd_stats: NfsdStats,
    /// The server end of each client's TCP connection, by client index;
    /// empty when the mounts are UDP.
    conns: Vec<TcpEnd>,
}

/// The server side of the world: the internetwork and every server
/// machine of the fleet. The network reaches the client machines too, so
/// its final hops toward a client happen here and the completed datagrams
/// are handed back.
struct Hub {
    net: Network,
    servers: Vec<ServerRt>,
    smap: ServerMap,
    /// Node index -> client index, for demultiplexing deliveries.
    node_client: Vec<Option<usize>>,
    metas: Vec<ClientMeta>,
    /// nfsd daemon contexts per server (0 = unbounded).
    nfsds: usize,
    /// Datagrams that completed at a client machine, for the event loop to
    /// hand to that client: drained after each hub event, capacity kept.
    deliveries: Vec<(usize, Delivery)>,
    /// Reusable network-step output: drained after every absorb, so the
    /// per-hop path allocates nothing once the vectors reach working size.
    net_out: NetOutput,
    /// Spare TCP step outputs for server ends, drained after every step.
    /// A step's received records run the nfsd, whose reply is a nested
    /// step, so two are in use at once.
    tcp_spare: Vec<TcpOut>,
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
    hub: Hub,
    clients: Vec<ClientRt>,
    sched: Sched,
    /// Procs spawned so far.
    spawned: usize,
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
        self.net_events_cap = self.net_events_cap.max(world.hub.net_out.events.capacity());
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
        let mut node_client = vec![None; topo.node_count()];
        for (i, &c) in client_nodes.iter().enumerate() {
            node_client[c.0] = Some(i);
        }
        let mut node_server = vec![None; topo.node_count()];
        for (j, &s) in server_nodes.iter().enumerate() {
            node_server[s.0] = Some(j);
        }
        // Soft/hard mount flags configure the UDP transport's retry
        // budget; TCP mounts are hard by construction.
        let mounted = |mut c: UdpRpcConfig| {
            c.soft = cfg.mount.soft;
            c.retrans = cfg.mount.retrans.max(1);
            c
        };
        let mut clients = Vec::with_capacity(n);
        for (i, &node) in client_nodes.iter().enumerate() {
            let mut transports = Vec::with_capacity(m);
            let mut mtus = Vec::with_capacity(m);
            for (j, &snode) in server_nodes.iter().enumerate() {
                let mtu = topo.path_mtu(node, snode).unwrap_or(1500);
                // Per-(client, server) XID stream; server 0 keeps the
                // historical seed so M = 1 stays byte-identical.
                let xid_seed = (i + 1) as u32 ^ ((j as u32) << 20);
                let transport = match &cfg.transport {
                    TransportKind::UdpFixed { timeo } => Transport::Udp(UdpRpcClient::new(
                        mounted(UdpRpcConfig::fixed(*timeo)),
                        xid_seed,
                    )),
                    TransportKind::UdpDynamic { timeo } => Transport::Udp(UdpRpcClient::new(
                        mounted(UdpRpcConfig::dynamic_paper(*timeo)),
                        xid_seed,
                    )),
                    TransportKind::UdpCustom(c) => {
                        Transport::Udp(UdpRpcClient::new(mounted(c.clone()), xid_seed))
                    }
                    // A placeholder until `tcp_connect` replaces the
                    // connection with the active opener and pumps the
                    // handshake.
                    TransportKind::Tcp => Transport::Tcp(Box::new(TcpEnd::listening(mtu, 0))),
                };
                transports.push(transport);
                mtus.push(mtu);
            }
            clients.push(ClientRt {
                node,
                host: Host::new(cfg.client_host, cfg.seed ^ 0xc11e ^ client_salt(i)),
                transports,
                sport: 1023 + i as u16,
                mtus,
                pending: IntMap::default(),
                events: Vec::new(),
                biods: cfg.biods,
                async_outstanding: 0,
                parked_async: VecDeque::new(),
                wait_all: Vec::new(),
            });
        }
        let net = Network::new(topo, cfg.seed ^ 0x6e65_7473);
        let servers: Vec<ServerRt> = server_nodes
            .iter()
            .enumerate()
            .map(|(j, &snode)| {
                let mut server = NfsServer::new(cfg.server, SimTime::ZERO);
                server.set_client_count(n);
                ServerRt {
                    node: snode,
                    // Server 0 keeps the unsalted stream: M = 1 worlds
                    // stay byte-identical to the pre-shard single box.
                    host: Host::new(cfg.server_host, cfg.seed ^ 0x5e17 ^ client_salt(j)),
                    server,
                    up: true,
                    nfsd_busy: 0,
                    nfsd_queue: VecDeque::new(),
                    nfsd_stats: NfsdStats::default(),
                    conns: match cfg.transport {
                        TransportKind::Tcp => clients
                            .iter()
                            .map(|c| TcpEnd::listening(c.mtus[j], 88_000))
                            .collect(),
                        _ => Vec::new(),
                    },
                }
            })
            .collect();
        let metas = clients
            .iter()
            .map(|c| ClientMeta {
                node: c.node,
                sport: c.sport,
                mtus: c.mtus.clone(),
            })
            .collect();
        let mut world = World {
            queue: EventQueue::with_capacity(scratch.queue_cap),
            hub: Hub {
                net,
                servers,
                smap: ServerMap {
                    nodes: server_nodes,
                    of_node: node_server,
                },
                node_client,
                metas,
                nfsds: cfg.nfsds,
                deliveries: Vec::new(),
                net_out: NetOutput {
                    events: Vec::with_capacity(scratch.net_events_cap),
                    delivered: Vec::new(),
                },
                tcp_spare: Vec::new(),
            },
            cfg,
            clients,
            sched: Sched::new(),
            spawned: 0,
            started: false,
        };
        // Fault-plan crashes hit server 0 (the paper's box; sharded
        // worlds crash their primary shard). What each client's console
        // prints about them has statically known times, so it is scheduled
        // here and the hub's crash handler stays on the server side.
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

    /// The handlers of client `ci`.
    fn ctx(&mut self, ci: usize) -> ClientCtx<'_> {
        ClientCtx {
            ci,
            rt: &mut self.clients[ci],
            sched: &mut self.sched,
            queue: &mut self.queue,
            smap: &self.hub.smap,
        }
    }

    /// Opens client `ci`'s connection to server `sj`, pumping the queue
    /// until both ends are established.
    fn tcp_connect(&mut self, ci: usize, sj: usize) {
        let now = self.queue.now();
        let (conn, mut out) = TcpConn::client(tcp_config(self.clients[ci].mtus[sj]), 11_000, now);
        self.clients[ci].tcp(sj).expect("a TCP mount").conn = conn;
        self.ctx(ci).tcp_out(sj, &mut out, now);
        for _ in 0..10_000 {
            let ends = [
                self.clients[ci].tcp(sj).expect("a TCP mount"),
                &mut self.hub.servers[sj].conns[ci],
            ];
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
    pub fn root_handle(&self) -> crate::proto::FileHandle {
        self.root_handle_of(0)
    }

    /// A specific shard's root file handle.
    pub fn root_handle_of(&self, sj: usize) -> crate::proto::FileHandle {
        self.hub.servers[sj].server.root_handle()
    }

    /// Direct access to server 0 (test preloading, stats).
    pub fn server_mut(&mut self) -> &mut NfsServer {
        &mut self.hub.servers[0].server
    }

    /// Direct access to a specific shard's server.
    pub fn server_of_mut(&mut self, sj: usize) -> &mut NfsServer {
        &mut self.hub.servers[sj].server
    }

    /// Number of server machines in the world.
    pub fn server_count(&self) -> usize {
        self.hub.servers.len()
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

    /// Read access to server 0.
    pub fn server(&self) -> &NfsServer {
        &self.hub.servers[0].server
    }

    /// Read access to a specific shard's server.
    pub fn server_of(&self, sj: usize) -> &NfsServer {
        &self.hub.servers[sj].server
    }

    /// Server 0's machine (CPU/disk stats).
    pub fn server_host(&self) -> &Host {
        &self.hub.servers[0].host
    }

    /// A specific shard's server machine.
    pub fn server_host_of(&self, sj: usize) -> &Host {
        &self.hub.servers[sj].host
    }

    /// Mutable server-0 machine access (accounting resets).
    pub fn server_host_mut(&mut self) -> &mut Host {
        &mut self.hub.servers[0].host
    }

    /// Number of client machines in the world.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Client 0's machine (the single-client experiments' client).
    pub fn client_host(&self) -> &Host {
        &self.clients[0].host
    }

    /// Mutable access to client 0's machine.
    pub fn client_host_mut(&mut self) -> &mut Host {
        &mut self.clients[0].host
    }

    /// A specific client's machine.
    pub fn client_host_of(&self, ci: usize) -> &Host {
        &self.clients[ci].host
    }

    /// Network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.hub.net.stats()
    }

    /// Client 0's UDP transport statistics, if the mount uses UDP.
    pub fn udp_stats(&self) -> Option<UdpStats> {
        self.udp_stats_of(0)
    }

    /// A specific client's UDP transport statistics toward server 0.
    pub fn udp_stats_of(&self, ci: usize) -> Option<UdpStats> {
        self.udp_stats_to(ci, 0)
    }

    /// A specific (client, server) pair's UDP transport statistics.
    pub fn udp_stats_to(&self, ci: usize, sj: usize) -> Option<UdpStats> {
        match &self.clients[ci].transports[sj] {
            Transport::Udp(u) => Some(u.stats()),
            _ => None,
        }
    }

    /// Current RTO for a class (Graph 7 traces), if client 0 uses UDP.
    pub fn current_rto(&self, class: renofs_transport::RpcClass) -> Option<SimDuration> {
        match &self.clients[0].transports[0] {
            Transport::Udp(u) => Some(u.current_rto(class)),
            _ => None,
        }
    }

    /// Client 0's TCP statistics, if the mount uses TCP.
    pub fn tcp_stats(&self) -> Option<renofs_transport::tcp::TcpStats> {
        self.tcp_stats_of(0)
    }

    /// A specific client's TCP statistics toward server 0.
    pub fn tcp_stats_of(&self, ci: usize) -> Option<renofs_transport::tcp::TcpStats> {
        self.tcp_stats_to(ci, 0)
    }

    /// A specific (client, server) pair's TCP transport statistics.
    pub fn tcp_stats_to(&self, ci: usize, sj: usize) -> Option<renofs_transport::tcp::TcpStats> {
        match &self.clients[ci].transports[sj] {
            Transport::Tcp(end) => Some(end.conn.stats()),
            _ => None,
        }
    }

    /// Server 0's nfsd service-pool accounting.
    pub fn nfsd_stats(&self) -> &NfsdStats {
        &self.hub.servers[0].nfsd_stats
    }

    /// A specific shard's nfsd service-pool accounting.
    pub fn nfsd_stats_of(&self, sj: usize) -> &NfsdStats {
        &self.hub.servers[sj].nfsd_stats
    }

    /// Clears nfsd pool accounting (warm-up windows), like the host
    /// models' accounting resets.
    pub fn reset_nfsd_accounting(&mut self) {
        for s in &mut self.hub.servers {
            s.nfsd_stats = NfsdStats::default();
        }
    }

    /// Current virtual time: after `run`, the event time of the last
    /// workload-proc finish.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Client 0's timestamped console-event log (`server not
    /// responding`, `server ok`, soft timeouts, crashes, reboots), in
    /// emission order.
    pub fn client_events(&self) -> &[ClientEvent] {
        &self.clients[0].events
    }

    /// A specific client's console-event log.
    pub fn client_events_of(&self, ci: usize) -> &[ClientEvent] {
        &self.clients[ci].events
    }

    /// Whether server 0 is currently up (fault plans can crash it).
    pub fn server_is_up(&self) -> bool {
        self.hub.servers[0].up
    }

    /// Whether a specific shard's server is currently up.
    pub fn server_is_up_of(&self, sj: usize) -> bool {
        self.hub.servers[sj].up
    }

    /// Spawns a workload proc on client 0. It starts suspended;
    /// [`World::run`] schedules it.
    pub fn spawn<F>(&mut self, f: F) -> usize
    where
        F: FnOnce(&mut WorldSys) + 'static,
    {
        self.spawn_on(0, f)
    }

    /// Spawns a workload proc on the given client machine. It starts
    /// suspended; [`World::run`] schedules it. The proc never leaves the
    /// thread that runs the world, so `f` need not be `Send`.
    pub fn spawn_on<F>(&mut self, client: usize, f: F) -> usize
    where
        F: FnOnce(&mut WorldSys) + 'static,
    {
        assert!(client < self.clients.len(), "no such client machine");
        assert!(
            !self.started,
            "spawn every proc before the world first runs: procs are released once"
        );
        let sched = &mut self.sched;
        let id = sched.ports.len();
        let cell = Rc::new(ProcCell {
            req: Cell::new(None),
            reply: Cell::new(None),
        });
        let theirs = cell.clone();
        let coro = Coroutine::new(move || {
            let (clock, _) = theirs.reply.take().expect("released with the clock");
            f(&mut WorldSys {
                cell: theirs,
                clock,
                #[cfg(test)]
                crossings: 0,
            });
        });
        sched.ports.push(ProcPort {
            client,
            seq: self.spawned,
            coro,
            cell,
            panic: None,
        });
        sched.live += 1;
        self.spawned += 1;
        id
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
        let ports = self.sched.ports.iter_mut();
        let first = ports.filter(|p| p.panic.is_some()).min_by_key(|p| p.seq);
        if let Some(payload) = first.and_then(|p| p.panic.take()) {
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
                self.ctx(ci).resume(tid, resp);
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

    /// Pops the next event and hands it to the machine that owns it; false
    /// when the queue is empty. The hub's network reaches the client
    /// machines too, so it hands back the datagrams that completed at one.
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        ev.census();
        let ci = match &ev {
            Ev::Wake(tid, _) => self.sched.ports[*tid].client,
            Ev::AsyncDone { client, .. }
            | Ev::UdpTimer { client, .. }
            | Ev::TcpTimer {
                client,
                server_side: false,
                ..
            }
            | Ev::Note { client, .. } => *client,
            _ => {
                self.hub.handle_event(&mut self.queue, now, ev);
                let mut handed = std::mem::take(&mut self.hub.deliveries);
                for (ci, d) in handed.drain(..) {
                    self.ctx(ci).deliver(now, d);
                }
                self.hub.deliveries = handed;
                return true;
            }
        };
        self.ctx(ci).handle_event(now, ev);
        true
    }
}

/// The Ethernet frame of one TCP segment leaving `src` for `dst`.
fn tcp_frame(src: (NodeId, u16), dst: (NodeId, u16), seg: TcpSegment) -> Ev {
    Ev::Send {
        src: src.0,
        dst: dst.0,
        proto: ProtoHeader::Tcp {
            sport: src.1,
            dport: dst.1,
            seq: seg.seq,
            ack: seg.ack,
            window: seg.window,
            flags: seg.flags,
        },
        payload: seg.payload,
    }
}

/// One client machine's handlers — syscalls, RPC issue and completion,
/// transport timers, arriving datagrams — over the state the world lends
/// them for one event: the machine, the proc scheduler and the event
/// queue. Nothing here touches a server machine: what goes to one leaves
/// as an `Ev::Send` frame.
struct ClientCtx<'a> {
    ci: usize,
    rt: &'a mut ClientRt,
    sched: &'a mut Sched,
    queue: &'a mut EventQueue<Ev>,
    smap: &'a ServerMap,
}

impl ClientCtx<'_> {
    /// Resumes a suspended proc with `resp` and services its calls, each
    /// answered in place by resuming it again, until one blocks it in
    /// virtual time (or it finishes).
    fn resume(&mut self, tid: usize, mut resp: Resp) {
        let _sp = profile::span(profile::Subsystem::Client);
        loop {
            let req = self.sched.ports[tid].next_req(self.queue.now(), resp);
            resp = match req {
                Req::PollTicket(t) => Resp::MaybeChain(self.sched.tickets_done.remove(&t)),
                Req::ForgetTicket(t) => {
                    if self.sched.tickets_done.remove(&t).is_none() {
                        self.sched.forgotten.insert(t);
                    }
                    Resp::Unit
                }
                Req::Sleep(d) => {
                    let at = self.queue.now() + d;
                    self.queue.push(at, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::ChargeCpu(d) => {
                    let done = self
                        .rt
                        .host
                        .cpu
                        .charge(self.queue.now(), d, CpuCategory::User);
                    self.queue.push(done, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::LocalDisk { bytes, write, seq } => {
                    let done = self.rt.host.disk_io(self.queue.now(), bytes, write, seq);
                    self.queue.push(done, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::Rpc(sj, proc, msg) => {
                    self.start_rpc(sj, Waker::Sync(tid), proc, msg);
                    return;
                }
                Req::RpcAsync(sj, proc, msg) => {
                    let slots = self.rt.biods;
                    if slots > 0 && self.rt.async_outstanding >= slots {
                        self.rt.parked_async.push_back((tid, sj, proc, msg));
                        return;
                    }
                    let ticket = self.sched.issue_ticket();
                    self.rt.async_outstanding += 1;
                    self.start_rpc(sj, Waker::Async(ticket), proc, msg);
                    if slots == 0 {
                        // No biods: the process itself performs the RPC,
                        // blocking until completion (write-through
                        // behaviour of "async,0biod"). It receives
                        // Ticket(t) then, and immediately awaits the
                        // ticket, which is already done.
                        self.sched
                            .ticket_waiters
                            .insert(ticket, TicketHolder::Issuing(tid));
                        return;
                    }
                    Resp::Ticket(ticket)
                }
                Req::AwaitTicket(t) => {
                    let Some(reply) = self.sched.tickets_done.remove(&t) else {
                        self.sched
                            .ticket_waiters
                            .insert(t, TicketHolder::Awaiting(tid));
                        return;
                    };
                    Resp::Chain(reply)
                }
                Req::WaitAllAsync => {
                    if self.rt.async_outstanding > 0 {
                        self.rt.wait_all.push(tid);
                        return;
                    }
                    Resp::Unit
                }
                Req::Finished => {
                    self.sched.live -= 1;
                    return;
                }
            };
        }
    }

    // ----- RPC initiation and completion ---------------------------------

    fn start_rpc(&mut self, sj: usize, waker: Waker, proc: NfsProc, msg: MbufChain) {
        let Ok((xid, MsgKind::Call)) = peek_xid_kind(&msg) else {
            panic!("workload issued a malformed RPC message");
        };
        debug_assert!(
            !self.rt.pending.contains_key(&(sj, xid)),
            "duplicate xid {xid} in flight on client {} toward server {sj}",
            self.ci
        );
        self.rt.pending.insert((sj, xid), waker);
        let now = self.queue.now();
        match &mut self.rt.transports[sj] {
            Transport::Udp(u) => {
                let mut actions = std::mem::take(&mut self.sched.udp_actions);
                u.call(now, xid, proc.rto_class(), msg, &mut actions);
                self.apply_udp_actions(sj, &mut actions);
                self.sched.udp_actions = actions;
            }
            Transport::Tcp(_) => {
                // Once-per-record socket/codec work.
                let t = self.rt.host.charge_record(now);
                let framed = frame_record(msg, &mut CopyMeter::new());
                self.tcp_step(sj, t, |conn, out| conn.send_into(framed, t, out));
            }
        }
    }

    fn apply_udp_actions(&mut self, sj: usize, actions: &mut Vec<UdpAction>) {
        let now = self.queue.now();
        for action in actions.drain(..) {
            match action {
                UdpAction::Send { payload, .. } => {
                    let frags = udp_fragments(payload.len(), self.rt.mtus[sj]);
                    let done = self.rt.host.charge_tx(now, &payload, frags, false);
                    self.queue.push(
                        done,
                        Ev::Send {
                            src: self.rt.node,
                            dst: self.smap.nodes[sj],
                            proto: ProtoHeader::Udp {
                                sport: self.rt.sport,
                                dport: NFS_PORT,
                            },
                            payload,
                        },
                    );
                }
                UdpAction::ArmTimer { xid, gen, deadline } => {
                    self.queue.push(
                        deadline,
                        Ev::UdpTimer {
                            client: self.ci,
                            server: sj,
                            xid,
                            gen,
                        },
                    );
                }
                UdpAction::GiveUp { xid } => {
                    self.note(now, ClientEventKind::SoftTimeout);
                    self.finish_rpc(sj, xid, Err(RpcError::TimedOut), now);
                }
                UdpAction::NotResponding { .. } => self.note(now, ClientEventKind::NotResponding),
                UdpAction::ServerOk { .. } => self.note(now, ClientEventKind::ServerOk),
            }
        }
    }

    /// Runs `step` on this machine's end of its connection to server `sj`
    /// (none: nothing happens) into a spare output, then applies it.
    fn tcp_step(&mut self, sj: usize, at: SimTime, step: impl FnOnce(&mut TcpConn, &mut TcpOut)) {
        let Some(end) = self.rt.tcp(sj) else { return };
        let mut out = self.sched.tcp_spare.pop().unwrap_or_default();
        step(&mut end.conn, &mut out);
        self.tcp_out(sj, &mut out, at);
        self.sched.tcp_spare.push(out);
    }

    /// Applies (and drains) one step of this machine's end of its
    /// connection to server `sj`: received stream data goes through the
    /// record reader to the RPCs it answers, then the timer is armed and
    /// the segments leave.
    fn tcp_out(&mut self, sj: usize, out: &mut TcpOut, at: SimTime) {
        for chunk in out.received.drain(..) {
            let Some(end) = self.rt.tcp(sj) else { break };
            end.reader.push(chunk);
            while let Some(rec) = self.rt.tcp(sj).and_then(TcpEnd::next_record) {
                // Once-per-record socket/codec work on the receiving side.
                let t = self.rt.host.charge_record(at);
                self.client_rpc_reply(sj, rec, t);
            }
        }
        if let Some((deadline, gen)) = out.arm_timer.take() {
            self.queue.push(
                deadline,
                Ev::TcpTimer {
                    client: self.ci,
                    server: sj,
                    server_side: false,
                    gen,
                },
            );
        }
        for seg in out.segments.drain(..) {
            let done = self.rt.host.charge_tcp_tx(at, &seg.payload);
            let src = (self.rt.node, self.rt.sport);
            self.queue
                .push(done, tcp_frame(src, (self.smap.nodes[sj], NFS_PORT), seg));
        }
    }

    fn client_rpc_reply(&mut self, sj: usize, reply: MbufChain, at: SimTime) {
        let _sp = profile::span(profile::Subsystem::Client);
        profile::count(profile::Subsystem::Client, 1);
        let Ok((xid, MsgKind::Reply)) = peek_xid_kind(&reply) else {
            return;
        };
        // For UDP the transport tracks RTTs itself; over TCP there is no
        // RPC-level bookkeeping to update.
        if let Transport::Udp(u) = &mut self.rt.transports[sj] {
            let mut actions = std::mem::take(&mut self.sched.udp_actions);
            let completed = u.on_reply(at, xid, reply, &mut actions);
            self.apply_udp_actions(sj, &mut actions);
            self.sched.udp_actions = actions;
            let Some(call) = completed else {
                return;
            };
            self.finish_rpc(sj, xid, Ok(call.reply), at);
        } else {
            self.finish_rpc(sj, xid, Ok(reply), at);
        }
    }

    fn finish_rpc(&mut self, sj: usize, xid: u32, result: RpcResult, at: SimTime) {
        let Some(waker) = self.rt.pending.remove(&(sj, xid)) else {
            return;
        };
        match waker {
            Waker::Sync(tid) => {
                self.queue.push(at, Ev::Wake(tid, Resp::Chain(result)));
            }
            Waker::Async(ticket) => {
                self.queue.push(
                    at,
                    Ev::AsyncDone {
                        client: self.ci,
                        ticket,
                        result,
                    },
                );
            }
        }
    }

    fn async_done(&mut self, ticket: u64, result: RpcResult) {
        self.rt.async_outstanding = self.rt.async_outstanding.saturating_sub(1);
        if self.sched.forgotten.remove(&ticket) {
            // Dropped interest; discard the reply.
        } else {
            match self.sched.ticket_waiters.remove(&ticket) {
                Some(TicketHolder::Awaiting(tid)) => {
                    self.sched.ready.push_back((tid, Resp::Chain(result)));
                }
                Some(TicketHolder::Issuing(tid)) => {
                    self.sched.tickets_done.insert(ticket, result);
                    self.sched.ready.push_back((tid, Resp::Ticket(ticket)));
                }
                None => {
                    self.sched.tickets_done.insert(ticket, result);
                }
            }
        }
        // A slot freed: admit a parked async request from this client.
        if let Some((tid, sj, proc, msg)) = self.rt.parked_async.pop_front() {
            let t = self.sched.issue_ticket();
            self.rt.async_outstanding += 1;
            self.start_rpc(sj, Waker::Async(t), proc, msg);
            self.sched.ready.push_back((tid, Resp::Ticket(t)));
        }
        if self.rt.async_outstanding == 0 {
            for tid in self.rt.wait_all.drain(..) {
                self.sched.ready.push_back((tid, Resp::Unit));
            }
        }
    }

    /// Appends a line to this machine's console log.
    fn note(&mut self, at: SimTime, kind: ClientEventKind) {
        self.rt.events.push(ClientEvent { at, kind });
    }

    // ----- event handling -------------------------------------------------

    /// Every event a client machine owns. Frames (`Send`, `Net`) belong to
    /// the network, which hands completed datagrams to
    /// [`deliver`](Self::deliver).
    fn handle_event(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Wake(tid, resp) => self.sched.ready.push_back((tid, resp)),
            Ev::AsyncDone { ticket, result, .. } => self.async_done(ticket, result),
            Ev::UdpTimer {
                server, xid, gen, ..
            } => {
                if let Transport::Udp(u) = &mut self.rt.transports[server] {
                    let mut actions = std::mem::take(&mut self.sched.udp_actions);
                    u.on_timer(now, xid, gen, &mut actions);
                    self.apply_udp_actions(server, &mut actions);
                    self.sched.udp_actions = actions;
                }
            }
            Ev::TcpTimer { server, gen, .. } => {
                self.tcp_step(server, now, |conn, out| conn.on_timer_into(gen, now, out));
            }
            Ev::Note { kind, .. } => self.note(now, kind),
            Ev::Send { .. }
            | Ev::Net(_)
            | Ev::NfsdDone { .. }
            | Ev::ServerCrash { .. }
            | Ev::ServerReboot { .. } => unreachable!("not a client machine's event"),
        }
    }

    /// A datagram completed at this machine: charges its reception, then
    /// it is an RPC reply (UDP) or a segment for the connection to the
    /// server it came from (TCP). One from a node that is no server is
    /// none of this world's exchanges and is ignored.
    fn deliver(&mut self, now: SimTime, d: Delivery) {
        debug_assert_eq!(d.host, self.rt.node, "delivered to another machine");
        let Some(sj) = self.smap.of_node[d.dgram.src.0] else {
            return;
        };
        let len = d.dgram.payload.len();
        match d.dgram.proto {
            ProtoHeader::Udp { .. } => {
                let t = self.rt.host.charge_rx(now, len, d.frags.max(1), false);
                self.client_rpc_reply(sj, d.dgram.payload, t);
            }
            ProtoHeader::Tcp {
                seq,
                ack,
                window,
                flags,
                ..
            } => {
                let t = self.rt.host.charge_tcp_rx(now, len);
                let payload = d.dgram.payload;
                self.tcp_step(sj, t, |conn, out| {
                    conn.on_segment_into(seq, ack, window, flags, payload, now, out);
                });
            }
        }
    }
}

impl Hub {
    /// Every event the network and the server machines own. What reaches a
    /// client machine leaves through `deliveries`.
    fn handle_event(&mut self, queue: &mut EventQueue<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Send {
                src,
                dst,
                proto,
                payload,
            } => {
                let _sp = profile::span(profile::Subsystem::Links);
                let id = self.net.alloc_dgram_id();
                let mut out = std::mem::take(&mut self.net_out);
                self.net.send_into(
                    now,
                    Datagram {
                        id,
                        src,
                        dst,
                        proto,
                        payload,
                    },
                    &mut out,
                );
                self.absorb_net(queue, now, &mut out);
                self.net_out = out;
            }
            Ev::Net(nev) => {
                let _sp = profile::span(profile::Subsystem::Links);
                let mut out = std::mem::take(&mut self.net_out);
                self.net.handle_into(now, nev, &mut out);
                self.absorb_net(queue, now, &mut out);
                self.net_out = out;
            }
            Ev::NfsdDone { server } => {
                let srv = &mut self.servers[server];
                srv.nfsd_busy = srv.nfsd_busy.saturating_sub(1);
                if srv.up {
                    self.start_queued(queue, server, now);
                }
            }
            Ev::TcpTimer {
                client,
                server,
                server_side: true,
                gen,
            } => {
                self.tcp_step(queue, client, server, now, |conn, out| {
                    conn.on_timer_into(gen, now, out);
                });
            }
            Ev::ServerCrash { server, downtime } => {
                let srv = &mut self.servers[server];
                srv.up = false;
                // Requests waiting for a daemon die with the machine, and a
                // UDP client retransmits them after the reboot. A TCP
                // client never will: their bytes were ACKed by a connection
                // this model keeps across the crash as if re-established,
                // and Reno's `nfs_reconnect` re-sends every outstanding
                // call, so those stay queued for the reboot to serve.
                // Client console notes were pre-scheduled with the crash.
                if srv.conns.is_empty() {
                    srv.nfsd_queue.clear();
                }
                queue.push(now + downtime, Ev::ServerReboot { server });
            }
            Ev::ServerReboot { server } => {
                // Volatile state (name cache, buffer cache, dup cache)
                // is lost; the on-disk file system survives.
                let srv = &mut self.servers[server];
                srv.server.reboot();
                srv.up = true;
                // Calls a TCP mount left queued across the crash: with
                // every client blocked on one, nothing else kicks the queue.
                self.start_queued(queue, server, now);
            }
            Ev::Wake(..)
            | Ev::AsyncDone { .. }
            | Ev::UdpTimer { .. }
            | Ev::TcpTimer { .. }
            | Ev::Note { .. } => unreachable!("a client machine's event"),
        }
    }

    fn absorb_net(&mut self, queue: &mut EventQueue<Ev>, now: SimTime, out: &mut NetOutput) {
        profile::count(profile::Subsystem::Links, out.events.len() as u64);
        for (t, ev) in out.events.drain(..) {
            queue.push(t, Ev::Net(ev));
        }
        // A network step completes at most one datagram.
        for d in out.delivered.drain(..) {
            self.on_delivery(queue, now, d);
        }
    }

    fn on_delivery(&mut self, queue: &mut EventQueue<Ev>, now: SimTime, d: Delivery) {
        let Some(sj) = self.smap.of_node[d.host.0] else {
            if let Some(ci) = self.node_client[d.host.0] {
                self.deliveries.push((ci, d));
            }
            return;
        };
        // A crashed server receives nothing: requests (and TCP segments)
        // addressed to it die on arrival and the client must retransmit.
        if !self.servers[sj].up {
            return;
        }
        let Some(ci) = self.node_client[d.dgram.src.0] else {
            return; // not from any client machine
        };
        let len = d.dgram.payload.len();
        let srv = &mut self.servers[sj];
        match d.dgram.proto {
            ProtoHeader::Udp { .. } => {
                let t = srv.host.charge_rx(now, len, d.frags.max(1), false);
                self.serve_request(queue, d.dgram.payload, ci, sj, t);
            }
            ProtoHeader::Tcp {
                seq,
                ack,
                window,
                flags,
                ..
            } => {
                let t = srv.host.charge_tcp_rx(now, len);
                let payload = d.dgram.payload;
                self.tcp_step(queue, ci, sj, t, |conn, out| {
                    conn.on_segment_into(seq, ack, window, flags, payload, now, out);
                });
            }
        }
    }

    /// Runs `step` on server `sj`'s end of its connection to client `ci`
    /// (none: nothing happens) into a spare output, then applies it.
    fn tcp_step(
        &mut self,
        queue: &mut EventQueue<Ev>,
        ci: usize,
        sj: usize,
        at: SimTime,
        step: impl FnOnce(&mut TcpConn, &mut TcpOut),
    ) {
        let Some(end) = self.servers[sj].conns.get_mut(ci) else {
            return;
        };
        let mut out = self.tcp_spare.pop().unwrap_or_default();
        step(&mut end.conn, &mut out);
        self.tcp_out(queue, ci, sj, &mut out, at);
        self.tcp_spare.push(out);
    }

    /// Applies (and drains) one step of server `sj`'s end of its
    /// connection to client `ci`: received stream data goes through the
    /// record reader into the nfsd pool, then the timer is armed and the
    /// segments leave.
    fn tcp_out(
        &mut self,
        queue: &mut EventQueue<Ev>,
        ci: usize,
        sj: usize,
        out: &mut TcpOut,
        at: SimTime,
    ) {
        for chunk in out.received.drain(..) {
            self.servers[sj].conns[ci].reader.push(chunk);
            while let Some(rec) = self.servers[sj].conns[ci].next_record() {
                // Once-per-record socket/codec work on the receiving side.
                let t = self.servers[sj].host.charge_record(at);
                self.serve_request(queue, rec, ci, sj, t);
            }
        }
        if let Some((deadline, gen)) = out.arm_timer.take() {
            queue.push(
                deadline,
                Ev::TcpTimer {
                    client: ci,
                    server: sj,
                    server_side: true,
                    gen,
                },
            );
        }
        let (m, srv) = (&self.metas[ci], &mut self.servers[sj]);
        for seg in out.segments.drain(..) {
            let done = srv.host.charge_tcp_tx(at, &seg.payload);
            queue.push(
                done,
                tcp_frame((srv.node, NFS_PORT), (m.node, m.sport), seg),
            );
        }
    }

    /// Starts queued requests, FIFO, on whatever daemon contexts are free.
    fn start_queued(&mut self, queue: &mut EventQueue<Ev>, sj: usize, now: SimTime) {
        while self.servers[sj].nfsd_busy < self.nfsds {
            let srv = &mut self.servers[sj];
            let Some(q) = srv.nfsd_queue.pop_front() else {
                break;
            };
            srv.nfsd_busy += 1;
            self.nfsd_serve(queue, q.request, q.client, sj, q.arrival, now);
        }
    }

    /// Admits an RPC request to the nfsd pool: service starts now if a
    /// daemon context is free, otherwise the request queues FIFO.
    fn serve_request(
        &mut self,
        queue: &mut EventQueue<Ev>,
        request: MbufChain,
        client: usize,
        sj: usize,
        at: SimTime,
    ) {
        if self.nfsds > 0 {
            let srv = &mut self.servers[sj];
            if srv.nfsd_busy >= self.nfsds {
                srv.nfsd_queue.push_back(QueuedRpc {
                    request,
                    client,
                    arrival: at,
                });
                srv.nfsd_stats.queued += 1;
                srv.nfsd_stats.peak_queue = srv.nfsd_stats.peak_queue.max(srv.nfsd_queue.len());
                return;
            }
            srv.nfsd_busy += 1;
        }
        self.nfsd_serve(queue, request, client, sj, at, at);
    }

    /// One nfsd daemon services a request: runs the server code, charges
    /// CPU and disk, and schedules the reply transmission.
    fn nfsd_serve(
        &mut self,
        queue: &mut EventQueue<Ev>,
        request: MbufChain,
        client: usize,
        sj: usize,
        arrival: SimTime,
        start: SimTime,
    ) {
        let _sp = profile::span(profile::Subsystem::Server);
        profile::count(profile::Subsystem::Server, 1);
        let srv = &mut self.servers[sj];
        srv.nfsd_stats
            .queue_delays_ms
            .push(start.since(arrival).as_millis_f64());
        let (reply, cost) = srv.server.service_from(start, &request, client as u32);
        if reply.is_empty() {
            // Unparseable request: the daemon is immediately free again.
            if self.nfsds > 0 {
                queue.push(start, Ev::NfsdDone { server: sj });
            }
            return;
        }
        let host = &mut srv.host;
        let mut t = host.cpu.charge(
            start,
            costs::NFS_SERVICE_FIXED
                + costs::CACHE_SEARCH_STEP * cost.cache_steps
                + costs::DIR_SCAN_ENTRY * cost.dir_scan_entries,
            CpuCategory::Nfs,
        );
        if cost.bytes_copied > 0 {
            t = host.cpu.charge(
                t,
                costs::COPY_PER_BYTE * cost.bytes_copied,
                CpuCategory::BufCopy,
            );
        }
        for bytes in &cost.disk_reads {
            t = host.disk_io(t, bytes, false, false);
        }
        let mut seq = false;
        for bytes in &cost.disk_writes {
            // Data blocks stream sequentially; metadata seeks.
            t = host.disk_io(t, bytes, true, seq && bytes > 512);
            seq = true;
        }
        // A TCP mount has a connection to answer on; UDP replies are
        // addressed from the client's metadata.
        let done = if client < srv.conns.len() {
            let t = srv.host.charge_record(t);
            let framed = frame_record(reply, &mut CopyMeter::new());
            self.tcp_step(queue, client, sj, t, |conn, out| {
                conn.send_into(framed, t, out);
            });
            t
        } else {
            let m = &self.metas[client];
            let frags = udp_fragments(reply.len(), m.mtus[sj]);
            let done = srv.host.charge_tx(t, &reply, frags, false);
            queue.push(
                done,
                Ev::Send {
                    src: srv.node,
                    dst: m.node,
                    proto: ProtoHeader::Udp {
                        sport: NFS_PORT,
                        dport: m.sport,
                    },
                    payload: reply,
                },
            );
            done
        };
        let stats = &mut self.servers[sj].nfsd_stats;
        stats.served += 1;
        stats.service_ms.add(done.since(start).as_millis_f64());
        if self.nfsds > 0 {
            queue.push(done, Ev::NfsdDone { server: sj });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ClientFs};
    use crate::proto::NfsStatus;
    use renofs_vfs::InodeId;
    use std::sync::mpsc::channel as result_channel;

    fn preload(world: &mut World, name: &str, bytes: &[u8]) {
        let root = world.server().fs().root();
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
        assert!(world.server().stats().total() > 5);
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
        assert!(world.server().stats().total() > 15);
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
        let stats = world.nfsd_stats();
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
            .client_events()
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
        let events = world.client_events();
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
        assert!(world.server_is_up());
        let kinds: Vec<_> = world.client_events().iter().map(|e| e.kind).collect();
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
        assert_eq!(world.client_host().cpu.busy_time(), d);
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
        assert_eq!(world.client_host().cpu.busy_in(CpuCategory::User), d);
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
            assert_eq!(inner.server().stats().total(), 1);
            // Back on the outer proc's own stack and clock.
            sys.sleep(d);
            elapsed
        });
        assert!(inner_elapsed > d);
        assert_eq!(outer.now(), SimTime::ZERO + d * 2);
        assert_eq!(outer.server().stats().total(), 0);
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
        let srv = &world.hub.servers[0];
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

    /// Pins the TCP path of a multi-client world — the handshake, record
    /// marking at both ends, `QueuedRpc`s waiting behind the one daemon, a
    /// crash window and the retransmissions that ride it out — to what
    /// the commit before the connection state was split by endpoint
    /// computed (bcefaf8).
    #[test]
    fn tcp_ring_world_with_a_crash_window_is_pinned() {
        let mut cfg = WorldConfig::baseline();
        cfg.topology = TopologyKind::TokenRing;
        cfg.transport = TransportKind::Tcp;
        cfg.clients = 3;
        cfg.nfsds = 1;
        cfg.faults =
            FaultPlan::new().server_crash(SimTime::from_millis(1500), SimDuration::from_secs(2));
        let mut world = World::new(cfg);
        preload(&mut world, "shared.bin", &[5u8; 24_000]);
        let root = world.root_handle();
        for ci in 0..3 {
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                for round in 0..4 {
                    let fh = fs.lookup_path("/shared.bin").unwrap();
                    assert_eq!(fs.read(fh, 0, 24_000).unwrap().len(), 24_000);
                    let out = fs
                        .open(&format!("/c{ci}_{round}.bin"), true, false)
                        .unwrap();
                    fs.write(out, 0, &[ci as u8; 9_000]).unwrap();
                    fs.close(out).unwrap();
                    fs.sys().sleep(SimDuration::from_millis(400));
                }
            });
        }
        world.run();
        let mut seen = format!("now={:?}\n", world.now());
        for ci in 0..3 {
            seen.push_str(&format!(
                "client{ci}: {:?} {:?}\n",
                world.client_events_of(ci),
                world.tcp_stats_of(ci)
            ));
        }
        seen.push_str(&format!(
            "nfsd={:?} server={:?}\n",
            world.nfsd_stats(),
            world.server().stats()
        ));
        // FNV-1a.
        let hash = seen.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        assert!(world.nfsd_stats().queued > 0, "requests queued behind TCP");
        assert_eq!(hash, 0x2393_0ed5_8b80_8fb6, "{seen}");
    }
}

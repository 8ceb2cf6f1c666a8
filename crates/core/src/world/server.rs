//! A server machine: one shard's host, NFS server, crash state, nfsd
//! service pool and its ends of the clients' TCP mounts, and the handlers
//! that run them.

use std::collections::VecDeque;

use renofs_mbuf::MbufChain;
use renofs_sim::cpu::CpuCategory;
use renofs_sim::stats::Running;
use renofs_sim::{profile, EventQueue, SimDuration, SimTime};
use renofs_transport::TcpOut;

use super::machine::{Addrs, Io, Machine, TcpEnd};
use super::{client_salt, Ev, TransportKind, World, WorldConfig};
use crate::costs;
use crate::host::Host;
use crate::server::NfsServer;

/// A request waiting for a free nfsd daemon context.
pub(super) struct QueuedRpc {
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
    /// kept as raw samples so harnesses can report exact percentiles
    /// (`renofs_sim::stats::quantile`).
    pub queue_delays_ms: Vec<f64>,
    /// Daemon occupancy per request: service start to reply handoff.
    pub service_ms: Running,
}

/// One shard's server machine: host model, NFS server instance (its own
/// dup cache and boot epoch), crash state, nfsd service pool, and its end
/// of every client's TCP mount. Index 0 is "the" server of the
/// single-server experiments.
pub(super) struct ServerRt {
    pub(super) host: Host,
    pub(super) server: NfsServer,
    pub(super) up: bool,
    pub(super) nfsd_busy: usize,
    pub(super) nfsd_queue: VecDeque<QueuedRpc>,
    pub(super) nfsd_stats: NfsdStats,
    /// The server end of each client's TCP connection, by client index;
    /// empty when the mounts are UDP.
    pub(super) conns: Vec<TcpEnd>,
}

impl ServerRt {
    /// Server `j`'s machine, with a listening end for every client's TCP
    /// mount.
    pub(super) fn new(cfg: &WorldConfig, j: usize, addrs: &Addrs) -> Self {
        let mut server = NfsServer::new(cfg.server, SimTime::ZERO);
        server.set_client_count(addrs.clients.len());
        ServerRt {
            // Server 0 keeps the unsalted stream: M = 1 worlds stay
            // byte-identical to the pre-shard single box.
            host: Host::new(cfg.server_host, cfg.seed ^ 0x5e17 ^ client_salt(j)),
            server,
            up: true,
            nfsd_busy: 0,
            nfsd_queue: VecDeque::new(),
            nfsd_stats: NfsdStats::default(),
            conns: match cfg.transport {
                TransportKind::Tcp => {
                    let ends = addrs.clients.iter();
                    ends.map(|c| TcpEnd::listening(c.mtus[j], 88_000)).collect()
                }
                _ => Vec::new(),
            },
        }
    }
}

impl World {
    /// The handlers of server `sj`.
    pub(super) fn server_ctx(&mut self, sj: usize) -> ServerCtx<'_> {
        ServerCtx {
            sj,
            rt: &mut self.servers[sj],
            addrs: &self.addrs,
            nfsds: self.cfg.nfsds,
            spares: &mut self.spares,
            queue: &mut self.queue,
        }
    }
}

/// One server machine's handlers — the nfsd pool and its ends of the
/// clients' mounts — over the state the world lends them for one event.
/// Nothing here touches a client machine: what goes to one leaves as an
/// `Ev::Send` frame.
pub(super) struct ServerCtx<'a> {
    sj: usize,
    rt: &'a mut ServerRt,
    addrs: &'a Addrs,
    /// nfsd daemon contexts (0 = unbounded).
    nfsds: usize,
    spares: &'a mut Vec<TcpOut>,
    queue: &'a mut EventQueue<Ev>,
}

impl ServerCtx<'_> {
    /// An nfsd daemon context handed its reply to the transport and
    /// returns to the pool.
    pub(super) fn nfsd_done(&mut self, now: SimTime) {
        self.rt.nfsd_busy = self.rt.nfsd_busy.saturating_sub(1);
        if self.rt.up {
            self.start_queued(now);
        }
    }

    /// The fault plan crashes this machine for `downtime`.
    pub(super) fn crash(&mut self, now: SimTime, downtime: SimDuration) {
        self.rt.up = false;
        // Requests waiting for a daemon die with the machine, and a UDP
        // client retransmits them after the reboot. A TCP client never
        // will: their bytes were ACKed by a connection this model keeps
        // across the crash as if re-established, and Reno's
        // `nfs_reconnect` re-sends every outstanding call, so those stay
        // queued for the reboot to serve. Client console notes were
        // pre-scheduled with the crash.
        if self.rt.conns.is_empty() {
            self.rt.nfsd_queue.clear();
        }
        let server = self.sj;
        self.queue.push(now + downtime, Ev::ServerReboot { server });
    }

    /// This machine finishes rebooting: volatile state (name cache, buffer
    /// cache, dup cache) is lost; the on-disk file system survives.
    pub(super) fn reboot(&mut self, now: SimTime) {
        self.rt.server.reboot();
        self.rt.up = true;
        // Calls a TCP mount left queued across the crash: with every
        // client blocked on one, nothing else kicks the queue.
        self.start_queued(now);
    }

    /// Starts queued requests, FIFO, on whatever daemon contexts are free.
    fn start_queued(&mut self, now: SimTime) {
        while self.rt.nfsd_busy < self.nfsds {
            let Some(q) = self.rt.nfsd_queue.pop_front() else {
                break;
            };
            self.rt.nfsd_busy += 1;
            self.nfsd_serve(q.request, q.client, q.arrival, now);
        }
    }

    /// One nfsd daemon services a request: runs the server code, charges
    /// CPU and disk, and schedules the reply transmission.
    fn nfsd_serve(&mut self, request: MbufChain, client: usize, arrival: SimTime, start: SimTime) {
        let _sp = profile::span(profile::Subsystem::Server);
        profile::count(profile::Subsystem::Server, 1);
        let (sj, srv) = (self.sj, &mut *self.rt);
        srv.nfsd_stats
            .queue_delays_ms
            .push(start.since(arrival).as_millis_f64());
        let (reply, cost) = srv.server.service_from(start, &request, client as u32);
        if reply.is_empty() {
            // Unparseable request: the daemon is immediately free again.
            if self.nfsds > 0 {
                self.queue.push(start, Ev::NfsdDone { server: sj });
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
        // A TCP mount has a connection to answer on.
        let done = if client < srv.conns.len() {
            self.send_record(client, t, reply)
        } else {
            self.io(client).send_udp(t, reply)
        };
        let stats = &mut self.rt.nfsd_stats;
        stats.served += 1;
        stats.service_ms.add(done.since(start).as_millis_f64());
        if self.nfsds > 0 {
            self.queue.push(done, Ev::NfsdDone { server: sj });
        }
    }
}

impl Machine for ServerCtx<'_> {
    #[inline]
    fn io(&mut self, ci: usize) -> Io<'_> {
        Io {
            host: &mut self.rt.host,
            queue: self.queue,
            tcp: self.rt.conns.get_mut(ci),
            spares: self.spares,
            addrs: self.addrs,
            link: (ci, self.sj),
            server_side: true,
        }
    }

    /// Admits an RPC request from client `ci` to the nfsd pool: service
    /// starts now if a daemon context is free, otherwise it queues FIFO.
    fn take(&mut self, ci: usize, request: MbufChain, at: SimTime) {
        if self.nfsds > 0 {
            let srv = &mut *self.rt;
            if srv.nfsd_busy >= self.nfsds {
                srv.nfsd_queue.push_back(QueuedRpc {
                    request,
                    client: ci,
                    arrival: at,
                });
                srv.nfsd_stats.queued += 1;
                srv.nfsd_stats.peak_queue = srv.nfsd_stats.peak_queue.max(srv.nfsd_queue.len());
                return;
            }
            srv.nfsd_busy += 1;
        }
        self.nfsd_serve(request, ci, at, at);
    }
}

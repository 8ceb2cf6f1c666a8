//! A client machine: its transports, in-flight RPC table, console log and
//! biods, and the handlers that run them — syscalls, RPC issue and
//! completion, transport timers and arriving messages.

use std::collections::VecDeque;

use renofs_mbuf::MbufChain;
use renofs_sim::cpu::CpuCategory;
use renofs_sim::{profile, EventQueue, IntMap, SimTime};
use renofs_sunrpc::{peek_xid_kind, MsgKind};
use renofs_transport::{TcpOut, UdpAction, UdpRpcClient, UdpRpcConfig};

use super::machine::{Addrs, Io, Machine, TcpEnd};
use super::proc::{Req, Resp, Sched, TicketHolder};
use super::{client_salt, ClientEvent, ClientEventKind, Ev, TransportKind, World, WorldConfig};
use crate::host::Host;
use crate::proto::NfsProc;
use crate::syscalls::{RpcError, RpcResult};

/// Who is waiting for an RPC reply.
#[derive(Clone, Copy, Debug)]
enum Waker {
    Sync(usize),
    Async(u64),
}

/// Everything one client machine owns: its host model, transport
/// endpoints, in-flight RPC table, console log, and biod accounting. Its
/// address is the world's (`Addrs`). Index 0 is "the" client of the
/// single-client experiments.
pub(super) struct ClientRt {
    pub(super) host: Host,
    /// One UDP transport per server (none on a TCP mount): independent
    /// XID streams and RTO state per (client, server) pair, so two shards
    /// can never observe — or be confused by — each other's xids.
    pub(super) udp: Vec<UdpRpcClient>,
    /// This machine's end of its TCP connection to each server, by server
    /// index; empty when the mounts are UDP.
    pub(super) conns: Vec<TcpEnd>,
    /// In-flight RPCs by (server, xid). Per-client: independent machines
    /// draw xids from independent counters and routinely collide, and so
    /// do one machine's per-server streams.
    pending: IntMap<(usize, u32), Waker>,
    pub(super) events: Vec<ClientEvent>,
    /// biods on this machine (0 = an asynchronous request runs
    /// synchronously in the proc that issues it).
    biods: usize,
    async_outstanding: usize,
    parked_async: VecDeque<(usize, usize, NfsProc, MbufChain)>,
    wait_all: Vec<usize>,
}

impl ClientRt {
    /// Client `i`'s machine, with one transport per server over paths of
    /// the given MTUs.
    pub(super) fn new(cfg: &WorldConfig, i: usize, mtus: &[usize]) -> Self {
        let udp_cfg = match &cfg.transport {
            TransportKind::UdpFixed { timeo } => Some(UdpRpcConfig::fixed(*timeo)),
            TransportKind::UdpDynamic { timeo } => Some(UdpRpcConfig::dynamic_paper(*timeo)),
            TransportKind::UdpCustom(c) => Some(c.clone()),
            TransportKind::Tcp => None,
        };
        let (mut udp, mut conns) = (Vec::new(), Vec::new());
        for (j, &mtu) in mtus.iter().enumerate() {
            match udp_cfg.clone() {
                // Soft/hard mount flags configure the UDP transport's
                // retry budget; TCP mounts are hard by construction.
                Some(mut c) => {
                    c.soft = cfg.mount.soft;
                    c.retrans = cfg.mount.retrans.max(1);
                    // Per-(client, server) XID stream; server 0 keeps the
                    // historical seed so M = 1 stays byte-identical.
                    udp.push(UdpRpcClient::new(c, (i + 1) as u32 ^ ((j as u32) << 20)));
                }
                // A placeholder until `tcp_connect` replaces the
                // connection with the active opener and pumps the
                // handshake.
                None => conns.push(TcpEnd::listening(mtu, 0)),
            }
        }
        ClientRt {
            host: Host::new(cfg.client_host, cfg.seed ^ 0xc11e ^ client_salt(i)),
            udp,
            conns,
            pending: IntMap::default(),
            events: Vec::new(),
            biods: cfg.biods,
            async_outstanding: 0,
            parked_async: VecDeque::new(),
            wait_all: Vec::new(),
        }
    }
}

impl World {
    /// The handlers of client `ci`.
    pub(super) fn client_ctx(&mut self, ci: usize) -> ClientCtx<'_> {
        ClientCtx {
            ci,
            rt: &mut self.clients[ci],
            sched: &mut self.sched,
            queue: &mut self.queue,
            addrs: &self.addrs,
            spares: &mut self.spares,
        }
    }
}

/// One client machine's handlers — syscalls, RPC issue and completion,
/// transport timers, arriving messages — over the state the world lends
/// them for one event: the machine, the proc scheduler and the event
/// queue. Nothing here touches a server machine: what goes to one leaves
/// as an `Ev::Send` frame.
pub(super) struct ClientCtx<'a> {
    ci: usize,
    rt: &'a mut ClientRt,
    sched: &'a mut Sched,
    queue: &'a mut EventQueue<Ev>,
    addrs: &'a Addrs,
    spares: &'a mut Vec<TcpOut>,
}

impl ClientCtx<'_> {
    /// Resumes a suspended proc with `resp` and services its calls, each
    /// answered in place by resuming it again, until one blocks it in
    /// virtual time (or it finishes).
    pub(super) fn resume(&mut self, tid: usize, mut resp: Resp) {
        let _sp = profile::span(profile::Subsystem::Client);
        loop {
            let now = self.queue.now();
            let req = self.sched.ports[tid].next_req(now, resp);
            resp = match req {
                Req::PollTicket(t) => Resp::MaybeChain(self.sched.tickets_done.remove(&t)),
                Req::ForgetTicket(t) => {
                    if self.sched.tickets_done.remove(&t).is_none() {
                        self.sched.forgotten.insert(t);
                    }
                    Resp::Unit
                }
                Req::Sleep(d) => return self.wake(tid, now + d),
                Req::ChargeCpu(d) => {
                    let done = self.rt.host.cpu.charge(now, d, CpuCategory::User);
                    return self.wake(tid, done);
                }
                Req::LocalDisk { bytes, write, seq } => {
                    let done = self.rt.host.disk_io(now, bytes, write, seq);
                    return self.wake(tid, done);
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

    /// Resumes proc `tid` at `at`, its call done.
    fn wake(&mut self, tid: usize, at: SimTime) {
        self.queue.push(at, Ev::Wake(tid, Resp::Unit));
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
        if self.rt.conns.is_empty() {
            self.udp_step(sj, |u, out| u.call(now, xid, proc.rto_class(), msg, out));
        } else {
            self.send_record(sj, now, msg);
        }
    }

    /// Runs `step` on this machine's UDP transport to server `sj` with the
    /// reusable action buffer, then applies the actions it queued.
    pub(super) fn udp_step<R>(
        &mut self,
        sj: usize,
        step: impl FnOnce(&mut UdpRpcClient, &mut Vec<UdpAction>) -> R,
    ) -> R {
        let mut actions = std::mem::take(&mut self.sched.udp_actions);
        let r = step(&mut self.rt.udp[sj], &mut actions);
        let now = self.queue.now();
        for action in actions.drain(..) {
            match action {
                UdpAction::Send { payload, .. } => {
                    self.io(sj).send_udp(now, payload);
                }
                UdpAction::ArmTimer { xid, gen, deadline } => {
                    let timer = Ev::UdpTimer {
                        client: self.ci,
                        server: sj,
                        xid,
                        gen,
                    };
                    self.queue.push(deadline, timer);
                }
                UdpAction::GiveUp { xid } => {
                    self.note(now, ClientEventKind::SoftTimeout);
                    self.finish_rpc(sj, xid, Err(RpcError::TimedOut), now);
                }
                UdpAction::NotResponding { .. } => self.note(now, ClientEventKind::NotResponding),
                UdpAction::ServerOk { .. } => self.note(now, ClientEventKind::ServerOk),
            }
        }
        self.sched.udp_actions = actions;
        r
    }

    fn finish_rpc(&mut self, sj: usize, xid: u32, result: RpcResult, at: SimTime) {
        let Some(waker) = self.rt.pending.remove(&(sj, xid)) else {
            return;
        };
        let done = match waker {
            Waker::Sync(tid) => Ev::Wake(tid, Resp::Chain(result)),
            Waker::Async(ticket) => Ev::AsyncDone {
                client: self.ci,
                ticket,
                result,
            },
        };
        self.queue.push(at, done);
    }

    pub(super) fn async_done(&mut self, ticket: u64, result: RpcResult) {
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
    pub(super) fn note(&mut self, at: SimTime, kind: ClientEventKind) {
        self.rt.events.push(ClientEvent { at, kind });
    }
}

impl Machine for ClientCtx<'_> {
    #[inline]
    fn io(&mut self, sj: usize) -> Io<'_> {
        Io {
            host: &mut self.rt.host,
            queue: self.queue,
            tcp: self.rt.conns.get_mut(sj),
            spares: self.spares,
            addrs: self.addrs,
            link: (self.ci, sj),
            server_side: false,
        }
    }

    /// An RPC reply from server `sj` completes the call it answers.
    fn take(&mut self, sj: usize, reply: MbufChain, at: SimTime) {
        let _sp = profile::span(profile::Subsystem::Client);
        profile::count(profile::Subsystem::Client, 1);
        let Ok((xid, MsgKind::Reply)) = peek_xid_kind(&reply) else {
            return;
        };
        // For UDP the transport tracks RTTs itself; over TCP there is no
        // RPC-level bookkeeping to update.
        let reply = if self.rt.conns.is_empty() {
            match self.udp_step(sj, |u, out| u.on_reply(at, xid, reply, out)) {
                Some(call) => call.reply,
                None => return,
            }
        } else {
            reply
        };
        self.finish_rpc(sj, xid, Ok(reply), at);
    }
}

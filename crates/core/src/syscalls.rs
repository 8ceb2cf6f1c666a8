//! The boundary between the NFS client and the simulated machine.
//!
//! [`ClientFs`](crate::client::ClientFs) is written in natural blocking
//! style against this trait. In the full simulation
//! ([`crate::world::World`]) a call that blocks suspends the workload proc
//! — a coroutine on the event loop's own thread — while the loop advances
//! virtual time; in unit tests the
//! [`Loopback`] implementation services RPCs synchronously against an
//! in-process [`NfsServer`], which makes client caching behaviour — the
//! RPC counts of Table 3 — testable without a network.

use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};

use crate::proto::NfsProc;
use crate::server::NfsServer;

/// A handle to an asynchronous RPC in flight (a biod's work).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// Why an RPC failed at the transport layer.
///
/// On a hard mount the transport retries forever, so syscalls never see
/// this; a soft mount surfaces `TimedOut` once the `retrans` budget is
/// exhausted (the `ETIMEDOUT` a BSD soft mount returns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The soft mount's retransmission budget ran out with no reply.
    TimedOut,
}

/// Result of a (possibly soft-mounted) RPC.
pub type RpcResult = Result<MbufChain, RpcError>;

/// Primitives the simulated machine provides to the client.
///
/// Under [`World`](crate::world::World) the caller is a *proc*, not a
/// thread: it runs on the thread that runs the world's events, sees that
/// thread's thread-locals, and while it is suspended in a call other procs
/// run there. Holding a lock across a call that another proc will want
/// deadlocks, as it always did under strict hand-off.
pub trait Syscalls {
    /// Current virtual time.
    fn now(&mut self) -> SimTime;

    /// Consumes CPU on the client machine (blocks the caller while other
    /// simulated activity proceeds).
    fn charge_cpu(&mut self, d: SimDuration);

    /// Sleeps for `d` of virtual time without consuming CPU (load
    /// generator pacing).
    fn sleep(&mut self, d: SimDuration);

    /// Issues an RPC and blocks until the reply arrives (retransmission
    /// handled by the transport underneath). The message already carries
    /// its RPC header; `proc` classifies it for RTO estimation. On a
    /// soft mount the call can fail with [`RpcError::TimedOut`].
    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult;

    /// [`rpc`](Self::rpc) addressed to one server of a sharded fleet.
    /// Single-server implementations only know server 0; the full
    /// simulation routes each index to its own machine, transport and
    /// XID stream.
    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        assert_eq!(server, 0, "this Syscalls implementation is single-server");
        self.rpc(proc, msg)
    }

    /// Starts an RPC on a biod slot, blocking only if every slot is
    /// busy. The reply is retrievable via the ticket.
    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket;

    /// [`rpc_async`](Self::rpc_async) addressed to one server of a
    /// sharded fleet.
    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        assert_eq!(server, 0, "this Syscalls implementation is single-server");
        self.rpc_async(proc, msg)
    }

    /// Blocks until the ticketed RPC completes and returns its reply
    /// (or the soft-mount timeout it died with).
    fn await_ticket(&mut self, t: Ticket) -> RpcResult;

    /// Returns the reply if the ticketed RPC already completed.
    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult>;

    /// Discards interest in a ticket (reply dropped on completion).
    fn forget_ticket(&mut self, t: Ticket);

    /// Blocks until every outstanding asynchronous RPC completes.
    fn wait_all_async(&mut self);

    /// Performs local-disk I/O (the Create-Delete "Local" baseline).
    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool);
}

impl<T: Syscalls + ?Sized> Syscalls for &mut T {
    fn now(&mut self) -> SimTime {
        (**self).now()
    }
    fn charge_cpu(&mut self, d: SimDuration) {
        (**self).charge_cpu(d)
    }
    fn sleep(&mut self, d: SimDuration) {
        (**self).sleep(d)
    }
    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        (**self).rpc(proc, msg)
    }
    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        (**self).rpc_to(server, proc, msg)
    }
    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        (**self).rpc_async(proc, msg)
    }
    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        (**self).rpc_async_to(server, proc, msg)
    }
    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        (**self).await_ticket(t)
    }
    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        (**self).poll_ticket(t)
    }
    fn forget_ticket(&mut self, t: Ticket) {
        (**self).forget_ticket(t)
    }
    fn wait_all_async(&mut self) {
        (**self).wait_all_async()
    }
    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        (**self).local_disk(bytes, write, sequential)
    }
}

/// Pins a borrowed system to one server of a sharded fleet: plain
/// [`Syscalls::rpc`]/[`Syscalls::rpc_async`] calls are rewritten to the
/// pinned index, while explicit `*_to` calls pass through untouched.
///
/// This is the borrow-based sibling of [`crate::router::ServerPort`]:
/// workload procs that receive the world's system by `&mut` (and so
/// cannot share it through an `Rc`) wrap it in a `PinTo` to aim a
/// single-server load generator at one shard.
pub struct PinTo<'a, S: Syscalls> {
    sys: &'a mut S,
    server: usize,
}

impl<'a, S: Syscalls> PinTo<'a, S> {
    /// Wraps `sys`, routing implicit RPCs to `server`.
    pub fn new(sys: &'a mut S, server: usize) -> Self {
        PinTo { sys, server }
    }
}

impl<S: Syscalls> Syscalls for PinTo<'_, S> {
    fn now(&mut self) -> SimTime {
        self.sys.now()
    }
    fn charge_cpu(&mut self, d: SimDuration) {
        self.sys.charge_cpu(d)
    }
    fn sleep(&mut self, d: SimDuration) {
        self.sys.sleep(d)
    }
    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sys.rpc_to(self.server, proc, msg)
    }
    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sys.rpc_to(server, proc, msg)
    }
    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.sys.rpc_async_to(self.server, proc, msg)
    }
    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.sys.rpc_async_to(server, proc, msg)
    }
    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        self.sys.await_ticket(t)
    }
    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        self.sys.poll_ticket(t)
    }
    fn forget_ticket(&mut self, t: Ticket) {
        self.sys.forget_ticket(t)
    }
    fn wait_all_async(&mut self) {
        self.sys.wait_all_async()
    }
    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        self.sys.local_disk(bytes, write, sequential)
    }
}

/// Synchronous in-process implementation for unit tests: RPCs are served
/// immediately by an embedded server, and time advances by simple fixed
/// charges.
pub struct Loopback {
    /// The embedded server.
    pub server: NfsServer,
    now: SimTime,
    rpc_delay: SimDuration,
    tickets: std::collections::HashMap<u64, RpcResult>,
    next_ticket: u64,
    /// RPCs issued, by procedure wire number (independent check against
    /// the client's own counters).
    pub rpc_log: Vec<NfsProc>,
}

impl Loopback {
    /// Wraps a server with a fixed per-RPC round-trip delay.
    pub fn new(server: NfsServer) -> Self {
        Loopback {
            server,
            now: SimTime::from_secs(1),
            rpc_delay: SimDuration::from_millis(20),
            tickets: std::collections::HashMap::new(),
            next_ticket: 1,
            rpc_log: Vec::new(),
        }
    }

    /// Advances the loopback clock (e.g. to expire attribute caches).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Count of logged RPCs of one procedure.
    pub fn count(&self, proc: NfsProc) -> usize {
        self.rpc_log.iter().filter(|p| **p == proc).count()
    }
}

impl Syscalls for Loopback {
    fn now(&mut self) -> SimTime {
        self.now
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        self.now += d;
    }

    fn sleep(&mut self, d: SimDuration) {
        self.now += d;
    }

    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_log.push(proc);
        self.now += self.rpc_delay;
        let (reply, _cost) = self.server.service(self.now, &msg);
        Ok(reply)
    }

    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        let reply = self.rpc(proc, msg);
        let id = self.next_ticket;
        self.next_ticket += 1;
        self.tickets.insert(id, reply);
        Ticket(id)
    }

    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        self.tickets.remove(&t.0).expect("ticket exists")
    }

    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        self.tickets.remove(&t.0)
    }

    fn forget_ticket(&mut self, t: Ticket) {
        self.tickets.remove(&t.0);
    }

    fn wait_all_async(&mut self) {}

    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        let _ = (write, sequential);
        self.now += SimDuration::from_micros(20) * bytes as u64 / 1000;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    #[test]
    fn loopback_services_rpcs() {
        use renofs_mbuf::CopyMeter;
        use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};

        let server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let mut lb = Loopback::new(server);
        let t0 = lb.now();
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::new();
        CallHeader {
            xid: 1,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: NfsProc::Null.to_wire(),
            auth: AuthUnix::root("t"),
        }
        .encode(&mut msg, &mut meter);
        let reply = lb.rpc(NfsProc::Null, msg).unwrap();
        assert!(!reply.is_empty());
        assert!(lb.now() > t0, "rpc advances time");
        assert_eq!(lb.count(NfsProc::Null), 1);
    }

    #[test]
    fn tickets_round_trip() {
        use renofs_mbuf::CopyMeter;
        use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};

        let server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let mut lb = Loopback::new(server);
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::new();
        CallHeader {
            xid: 2,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: NfsProc::Null.to_wire(),
            auth: AuthUnix::root("t"),
        }
        .encode(&mut msg, &mut meter);
        let t = lb.rpc_async(NfsProc::Null, msg);
        let reply = lb.await_ticket(t).unwrap();
        assert!(!reply.is_empty());
        assert!(lb.poll_ticket(t).is_none(), "consumed");
    }
}

//! The boundary between workload procs and the world: the calls a proc
//! crosses with and their replies, the proc scheduler, and [`WorldSys`],
//! the syscall endpoint each proc runs against.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};
use renofs_transport::UdpAction;

use crate::coro::{self, Coroutine, PanicPayload};
use crate::proto::NfsProc;
use crate::syscalls::{RpcResult, Syscalls, Ticket};

/// Requests from workload procs, one per crossing.
pub(super) enum Req {
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
pub(super) enum Resp {
    Unit,
    Chain(RpcResult),
    MaybeChain(Option<RpcResult>),
    Ticket(u64),
}

// Every crossing moves one of each between a proc and the world.
const _: () = assert!(size_of::<Req>() <= 40 && size_of::<Resp>() <= 40);

/// What a proc and the world tell each other, one heap cell per proc. The
/// switch between them carries no values, and exactly one side runs at a
/// time: the proc sets `req` and takes `reply` only while it runs, the
/// world the reverse only while the proc is suspended.
#[derive(Default)]
struct ProcCell {
    /// The call the proc suspended with.
    req: Cell<Option<Req>>,
    /// What resumes the proc: the world clock and the reply to its call.
    reply: Cell<Option<(SimTime, Resp)>>,
}

/// The world's end of one proc's boundary.
pub(super) struct ProcPort {
    /// The client machine the proc runs on.
    pub(super) client: usize,
    coro: Coroutine,
    cell: Rc<ProcCell>,
    /// What the proc's body panicked with, for `run` to re-raise.
    pub(super) panic: Option<PanicPayload>,
}

impl ProcPort {
    /// Resumes a suspended proc with `resp`, stamped with the world
    /// `clock`, and returns the call it crosses with next — or `Finished`
    /// once its body ends, normally or by a panic kept for `run`.
    pub(super) fn next_req(&mut self, clock: SimTime, resp: Resp) -> Req {
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
pub(super) enum TicketHolder {
    /// Blocked in `await_ticket`: owed the RPC's result.
    Awaiting(usize),
    /// A 0-biod proc still inside `rpc_async`, performing the RPC itself:
    /// owed the `Ticket`. The result waits in `tickets_done` for the
    /// await that follows.
    Issuing(usize),
}

/// The proc scheduler: the ports of every proc in the world, in spawn
/// order, the FIFO of those ready to resume (procs of every client, in
/// wake-up order), and the ticket tables of their asynchronous RPCs. Proc
/// ids (indices into `ports`) and tickets are world-wide; workloads treat
/// both as opaque.
#[derive(Default)]
pub(super) struct Sched {
    pub(super) ports: Vec<ProcPort>,
    pub(super) ready: VecDeque<(usize, Resp)>,
    /// Procs that have not finished.
    pub(super) live: usize,
    pub(super) tickets_done: HashMap<u64, RpcResult>,
    pub(super) ticket_waiters: HashMap<u64, TicketHolder>,
    pub(super) forgotten: HashSet<u64>,
    last_ticket: u64,
    /// Reusable UDP-transport action buffer, drained after every
    /// transport step.
    pub(super) udp_actions: Vec<UdpAction>,
}

impl Sched {
    /// Adds a proc that runs `f` on client machine `client`, suspended
    /// until [`release`](Self::release), and returns its id.
    pub(super) fn spawn(
        &mut self,
        client: usize,
        f: impl FnOnce(&mut WorldSys) + 'static,
    ) -> usize {
        let cell = Rc::new(ProcCell::default());
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
        self.ports.push(ProcPort {
            client,
            coro,
            cell,
            panic: None,
        });
        self.live += 1;
        self.ports.len() - 1
    }

    /// Readies every proc in spawn order (they start suspended): each runs
    /// to its first crossing before the first event is popped.
    pub(super) fn release(&mut self) {
        for tid in 0..self.ports.len() {
            self.ready.push_back((tid, Resp::Unit));
        }
    }

    /// The next asynchronous RPC's ticket (the first is 1).
    pub(super) fn issue_ticket(&mut self) -> u64 {
        self.last_ticket += 1;
        self.last_ticket
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
    pub(super) crossings: u64,
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

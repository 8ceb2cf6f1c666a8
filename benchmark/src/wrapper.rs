//! The benchmark's pass-through [`Syscalls`] wrapper.
//!
//! Every workload proc talks to the world through one of these, so the
//! benchmark — not the generators, which throw `rpc` results away —
//! counts what was attempted, what was delivered and what failed, at the
//! boundary where a user of the simulated machine would see it. In a
//! timed pass it does only that (a status peek and a few counters per
//! RPC). The reference pass also times every synchronous RPC in
//! simulated time and checks READ payloads; the traced pass records a
//! span per syscall and keeps a clone of every request for the probes.

use renofs::proto::{self, results, NfsArgs, NfsProc, NfsStatus};
use renofs::syscalls::{RpcResult, Syscalls, Ticket};
use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};
use renofs_sunrpc::{AcceptStat, CallHeader, ReplyHeader};
use renofs_xdr::XdrDecoder;

use crate::host::now_ns;

/// The syscall kinds, in the order of the [`Syscalls`] trait.
pub const SYSCALL_NAMES: [&str; 10] = [
    "now",
    "charge_cpu",
    "sleep",
    "rpc",
    "rpc_async",
    "await_ticket",
    "poll_ticket",
    "forget_ticket",
    "wait_all_async",
    "local_disk",
];

const NOW: usize = 0;
const CHARGE_CPU: usize = 1;
const SLEEP: usize = 2;
const RPC: usize = 3;
const RPC_ASYNC: usize = 4;
const AWAIT_TICKET: usize = 5;
const POLL_TICKET: usize = 6;
const FORGET_TICKET: usize = 7;
const WAIT_ALL_ASYNC: usize = 8;
const LOCAL_DISK: usize = 9;

/// What the wrapper does beyond counting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// The (untimed) reference pass: bracket each synchronous RPC with
    /// `now()` to sample its simulated latency — two extra syscalls that
    /// cost host time, never simulated time — and check READ payloads.
    pub reference: bool,
    /// Record one span per syscall and keep a clone of every request.
    pub trace: bool,
}

/// Byte `i` of every file READ replies are served from, when the
/// workload preloaded a known pattern.
pub type ReadPattern = fn(u32) -> u8;

/// One syscall as the proc saw it: blocked from `start` to `end`.
#[derive(Clone, Copy, Debug)]
pub struct SyscallSpan {
    /// Index into [`SYSCALL_NAMES`].
    pub kind: u8,
    /// Host nanoseconds ([`now_ns`]).
    pub start: u64,
    /// Host nanoseconds.
    pub end: u64,
}

/// Everything one proc's wrapper saw.
#[derive(Debug, Default)]
pub struct ProcLog {
    /// Calls per syscall kind ([`SYSCALL_NAMES`] order).
    pub syscalls: [u64; 10],
    /// RPCs issued (`rpc`, `rpc_to`, `rpc_async`, `rpc_async_to`).
    pub attempted: u64,
    /// RPC replies delivered to the proc.
    pub delivered: u64,
    /// Transport errors plus replies that were not a success.
    pub failed: u64,
    /// READ replies whose bytes did not match the preload pattern.
    pub bad_payloads: u64,
    /// Simulated latency of each synchronous RPC, ns (`reference` only).
    pub rtt_ns: Vec<u64>,
    /// Per-syscall spans (`trace` only).
    pub spans: Vec<SyscallSpan>,
    /// Every request (`trace` only).
    pub requests: Vec<Request>,
}

/// One RPC request as the proc issued it.
#[derive(Debug)]
pub struct Request {
    /// The last simulated time the proc read before issuing it (procs
    /// read the clock often; asking again would add a syscall).
    pub at: SimTime,
    /// The server it was addressed to.
    pub server: usize,
    /// The procedure.
    pub proc: NfsProc,
    /// The encoded call; clusters are shared with the original.
    pub msg: MbufChain,
}

/// The wrapper itself; `S` is usually `&mut WorldSys`.
pub struct Counted<S: Syscalls> {
    inner: S,
    mode: Mode,
    read_pattern: Option<ReadPattern>,
    last_now: SimTime,
    log: ProcLog,
}

/// Whether a delivered reply counts as a success. A LOOKUP answered
/// NOENT is a correct negative answer (`open(O_CREAT)` asks before it
/// creates), not a failure; every other non-OK status is one.
fn reply_ok(proc: Option<NfsProc>, reply: &MbufChain) -> bool {
    let mut dec = XdrDecoder::new(reply);
    match ReplyHeader::decode(&mut dec) {
        Ok(h) if h.stat == AcceptStat::Success => {}
        _ => return false,
    }
    if proc == Some(NfsProc::Null) {
        return true;
    }
    match results::get_stat(&mut dec) {
        Ok(NfsStatus::Ok) => true,
        Ok(NfsStatus::NoEnt) => proc == Some(NfsProc::Lookup),
        _ => false,
    }
}

/// Offset of a READ request, read back out of the encoded call.
fn read_offset(msg: &MbufChain) -> Option<u32> {
    let mut dec = XdrDecoder::new(msg);
    CallHeader::decode(&mut dec).ok()?;
    match proto::decode_args(NfsProc::Read, &mut dec).ok()? {
        NfsArgs::Read(_, off, _) => Some(off),
        _ => None,
    }
}

fn payload_matches(reply: &MbufChain, off: u32, pattern: ReadPattern) -> bool {
    let mut dec = XdrDecoder::new(reply);
    if ReplyHeader::decode(&mut dec).is_err() {
        return false;
    }
    match results::get_readres(&mut dec) {
        Ok(Ok((_, data))) => {
            !data.is_empty()
                && data
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == pattern(off + i as u32))
        }
        _ => false,
    }
}

impl<S: Syscalls> Counted<S> {
    /// Wraps `inner`. In the reference pass READ replies are checked
    /// against `read_pattern`, if the workload has one.
    pub fn new(inner: S, mode: Mode, read_pattern: Option<ReadPattern>) -> Self {
        Counted {
            inner,
            mode,
            read_pattern: read_pattern.filter(|_| mode.reference),
            last_now: SimTime::ZERO,
            log: ProcLog::default(),
        }
    }

    /// The proc is done: hands back what was seen.
    pub fn finish(self) -> ProcLog {
        self.log
    }

    /// Runs one syscall, counted and (when tracing) spanned.
    fn call<T>(&mut self, kind: usize, f: impl FnOnce(&mut S) -> T) -> T {
        self.log.syscalls[kind] += 1;
        if !self.mode.trace {
            return f(&mut self.inner);
        }
        let start = now_ns();
        let out = f(&mut self.inner);
        self.log.spans.push(SyscallSpan {
            kind: kind as u8,
            start,
            end: now_ns(),
        });
        out
    }

    fn issued(&mut self, server: usize, proc: NfsProc, msg: &MbufChain) {
        self.log.attempted += 1;
        if self.mode.trace {
            self.log.requests.push(Request {
                at: self.last_now,
                server,
                proc,
                msg: msg.clone(),
            });
        }
    }

    fn delivered(&mut self, proc: Option<NfsProc>, result: &RpcResult) {
        match result {
            Ok(reply) => {
                self.log.delivered += 1;
                if !reply_ok(proc, reply) {
                    self.log.failed += 1;
                }
            }
            Err(_) => self.log.failed += 1,
        }
    }

    fn sync_rpc(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.issued(server, proc, &msg);
        let check = match (self.read_pattern, proc) {
            (Some(pattern), NfsProc::Read) => read_offset(&msg).map(|off| (off, pattern)),
            _ => None,
        };
        let t0 = self.mode.reference.then(|| self.inner.now());
        let result = self.call(RPC, |s| s.rpc_to(server, proc, msg));
        if let Some(t0) = t0 {
            self.log.rtt_ns.push(self.inner.now().since(t0).as_nanos());
        }
        self.delivered(Some(proc), &result);
        if let (Some((off, pattern)), Ok(reply)) = (check, &result) {
            if !payload_matches(reply, off, pattern) {
                self.log.bad_payloads += 1;
            }
        }
        result
    }

    fn async_rpc(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.issued(server, proc, &msg);
        self.call(RPC_ASYNC, |s| s.rpc_async_to(server, proc, msg))
    }
}

impl<S: Syscalls> Syscalls for Counted<S> {
    fn now(&mut self) -> SimTime {
        self.last_now = self.call(NOW, |s| s.now());
        self.last_now
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        self.call(CHARGE_CPU, |s| s.charge_cpu(d))
    }

    fn sleep(&mut self, d: SimDuration) {
        self.call(SLEEP, |s| s.sleep(d))
    }

    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sync_rpc(0, proc, msg)
    }

    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sync_rpc(server, proc, msg)
    }

    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.async_rpc(0, proc, msg)
    }

    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.async_rpc(server, proc, msg)
    }

    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        let result = self.call(AWAIT_TICKET, |s| s.await_ticket(t));
        self.delivered(None, &result);
        result
    }

    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        let result = self.call(POLL_TICKET, |s| s.poll_ticket(t));
        if let Some(r) = &result {
            self.delivered(None, r);
        }
        result
    }

    fn forget_ticket(&mut self, t: Ticket) {
        self.call(FORGET_TICKET, |s| s.forget_ticket(t))
    }

    fn wait_all_async(&mut self) {
        self.call(WAIT_ALL_ASYNC, |s| s.wait_all_async())
    }

    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        self.call(LOCAL_DISK, |s| s.local_disk(bytes, write, sequential))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renofs::syscalls::Loopback;
    use renofs::{FileHandle, NfsServer, ServerConfig};
    use renofs_mbuf::CopyMeter;

    fn call(proc: NfsProc, args: impl FnOnce(&mut MbufChain, &mut CopyMeter)) -> MbufChain {
        crate::probes::call(1, proc, args)
    }

    /// A loopback machine whose server holds `/f`, 16 KB of `i % 251`.
    fn machine() -> (Loopback, FileHandle, FileHandle) {
        let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let root = server.fs().root();
        let ino = server
            .fs_mut()
            .create(root, "f", 0o644, SimTime::ZERO)
            .unwrap();
        let data: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        server.fs_mut().write(ino, 0, &data, SimTime::ZERO).unwrap();
        let (root_fh, file_fh) = (server.root_handle(), server.handle_for(ino).unwrap());
        (Loopback::new(server), root_fh, file_fh)
    }

    const REFERENCE: Mode = Mode {
        reference: true,
        trace: false,
    };

    #[test]
    fn counts_come_from_replies_not_from_the_caller() {
        let (lb, root, file) = machine();
        let mut sys = Counted::new(lb, Mode::default(), None);
        let lookup = |name: &str| {
            call(NfsProc::Lookup, |c, m| {
                proto::build::dirop_args(c, m, &root, name)
            })
        };
        sys.rpc(NfsProc::Lookup, lookup("f")).unwrap();
        // A negative LOOKUP is an answer, not a failure.
        sys.rpc(NfsProc::Lookup, lookup("missing")).unwrap();
        // A stale handle is a failure, though the transport delivered it.
        let stale = FileHandle {
            gen: file.gen + 1,
            ..file
        };
        let getattr = call(NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &stale)
        });
        sys.rpc(NfsProc::Getattr, getattr).unwrap();
        // So is a reply that is not an accepted success.
        sys.rpc(NfsProc::Getattr, MbufChain::new()).unwrap();
        sys.now();
        let log = sys.finish();
        assert_eq!((log.attempted, log.delivered, log.failed), (4, 4, 2));
        assert_eq!(log.syscalls[RPC], 4);
        assert_eq!(log.syscalls[NOW], 1);
        assert!(log.rtt_ns.is_empty() && log.spans.is_empty() && log.requests.is_empty());
    }

    #[test]
    fn reference_pass_checks_read_payloads_and_samples_latency() {
        let read = |file: &FileHandle, off| {
            call(NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, file, off, 8192)
            })
        };
        let run = |pattern: ReadPattern, mode: Mode| {
            let (lb, _, file) = machine();
            let mut sys = Counted::new(lb, mode, Some(pattern));
            sys.rpc(NfsProc::Read, read(&file, 0)).unwrap();
            sys.rpc(NfsProc::Read, read(&file, 8192)).unwrap();
            sys.finish()
        };
        let good = run(|i| (i % 251) as u8, REFERENCE);
        assert_eq!((good.failed, good.bad_payloads), (0, 0));
        assert_eq!(good.rtt_ns.len(), 2);
        assert!(good.rtt_ns.iter().all(|ns| *ns > 0));
        // The reference pass's own clock reads are not the workload's.
        assert_eq!(good.syscalls[NOW], 0);
        let bad = run(|i| (i % 250) as u8, REFERENCE);
        assert_eq!(bad.bad_payloads, 2);
        // Timed passes skip the payload check.
        let timed = run(|i| (i % 250) as u8, Mode::default());
        assert_eq!(timed.bad_payloads, 0);
        assert!(timed.rtt_ns.is_empty());
    }

    #[test]
    fn traced_pass_keeps_spans_and_requests() {
        let (lb, root, _) = machine();
        let mut sys = Counted::new(
            lb,
            Mode {
                reference: false,
                trace: true,
            },
            None,
        );
        let t = sys.now();
        let msg = call(NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &root, "f")
        });
        let len = msg.len();
        sys.rpc_to(0, NfsProc::Lookup, msg).unwrap();
        let log = sys.finish();
        let kinds: Vec<u8> = log.spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [NOW as u8, RPC as u8]);
        assert!(log.spans.iter().all(|s| s.end >= s.start));
        assert_eq!(log.requests.len(), 1);
        let r = &log.requests[0];
        assert_eq!(
            (r.at, r.server, r.proc, r.msg.len()),
            (t, 0, NfsProc::Lookup, len)
        );
    }
}

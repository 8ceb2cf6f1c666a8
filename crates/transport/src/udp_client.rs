//! The client side of NFS RPC over UDP.
//!
//! For datagram sockets, the Reno client provides round-trip timeout
//! estimation and retransmission. This module implements both transports
//! the paper compares:
//!
//! - **fixed RTO**: the mount-time constant, exponentially backed off —
//!   the classic transport whose erratic behaviour shows in Graphs 3–5;
//! - **dynamic RTO + congestion window**: per-class `A+4D`/`A+2D`
//!   estimation and a window on outstanding requests (slow start
//!   removed), which improved the config-2 read rate by ~30 % and more
//!   than tripled the 56 Kbps read rate.
//!
//! Retransmissions reuse the original XID (so a server duplicate-request
//! cache can suppress re-execution) and Karn's rule excludes
//! retransmitted calls from RTT sampling.
//!
//! A transport keeps only per-mount state. What a call in flight needs for
//! its retransmission lives in a [`UdpCalls`] table keyed by the mount and
//! the xid, so that many mounts can share one — as the Reno kernel keeps its
//! outstanding requests on one `nfsreqh` list, not one per mount.

use std::collections::VecDeque;

use renofs_mbuf::MbufChain;
use renofs_sim::{profile, IntMap, SimDuration, SimTime};

use crate::cwnd::CongWindow;
use crate::rto::{DynRto, RpcClass, RtoPolicy};

/// Client transport configuration.
#[derive(Clone, Debug)]
pub struct UdpRpcConfig {
    /// Timeout policy.
    pub policy: RtoPolicy,
    /// Mount-time base RTO (the `timeo` option).
    pub base_rto: SimDuration,
    /// Whether a congestion window bounds outstanding requests.
    pub use_cwnd: bool,
    /// Window cap in requests.
    pub cwnd_cap: usize,
    /// Enable slow start (the paper removed it; kept for the ablation).
    pub slow_start: bool,
    /// Soft mount: give up after `retrans` transmissions and report the
    /// call as timed out. Hard mounts (the default) retry forever.
    pub soft: bool,
    /// Transmission budget for a soft mount, and the threshold after
    /// which a hard mount reports `server not responding`.
    pub retrans: u32,
}

impl UdpRpcConfig {
    /// Classic NFS/UDP: fixed 1-second RTO, no window.
    pub fn fixed(base_rto: SimDuration) -> Self {
        UdpRpcConfig {
            policy: RtoPolicy::Fixed,
            base_rto,
            use_cwnd: false,
            cwnd_cap: 64,
            slow_start: false,
            soft: false,
            retrans: 4,
        }
    }

    /// The paper's tuned NFS/UDP: dynamic per-class RTO, congestion
    /// window, no slow start.
    pub fn dynamic_paper(base_rto: SimDuration) -> Self {
        UdpRpcConfig {
            policy: RtoPolicy::dynamic_paper(),
            base_rto,
            use_cwnd: true,
            cwnd_cap: 16,
            slow_start: false,
            soft: false,
            retrans: 4,
        }
    }

    /// Converts the mount to soft semantics with the given transmission
    /// budget (the `soft,retrans=` mount options).
    pub fn soft(mut self, retrans: u32) -> Self {
        self.soft = true;
        self.retrans = retrans.max(1);
        self
    }
}

/// Actions the caller must perform after a transport step.
#[derive(Debug)]
pub enum UdpAction {
    /// Transmit this RPC message as a UDP datagram.
    Send {
        /// XID, for tracing.
        xid: u32,
        /// The message (record-unframed; UDP carries whole RPCs).
        payload: MbufChain,
    },
    /// Arm a retransmit timer and feed it back via
    /// [`UdpRpcClient::on_timer`] (or [`UdpRpcClient::on_timer_in`], over
    /// the table the call is in) when it fires.
    ArmTimer {
        /// The request's XID.
        xid: u32,
        /// Timer generation (stale generations are ignored).
        gen: u64,
        /// Absolute deadline.
        deadline: SimTime,
    },
    /// A soft mount exhausted its `retrans` budget: the call is dead and
    /// its waiter must be failed with a timeout error.
    GiveUp {
        /// The abandoned request's XID.
        xid: u32,
    },
    /// A hard mount crossed its `retrans` threshold: print the console
    /// line `nfs: server not responding` (the transport keeps retrying).
    NotResponding {
        /// The request that crossed the threshold.
        xid: u32,
    },
    /// A reply arrived after `NotResponding` was reported: print
    /// `nfs: server ok`.
    ServerOk {
        /// The reply that ended the outage.
        xid: u32,
    },
}

/// A finished call.
#[derive(Debug)]
pub struct CompletedCall {
    /// The XID.
    pub xid: u32,
    /// RPC class.
    pub class: RpcClass,
    /// Reply payload (RPC header + results).
    pub reply: MbufChain,
    /// User-visible latency: first transmission to reply.
    pub rtt: SimDuration,
    /// Whether any retransmission happened.
    pub retransmitted: bool,
}

/// Cumulative transport statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Calls issued.
    pub calls: u64,
    /// Calls completed.
    pub completed: u64,
    /// Datagrams retransmitted.
    pub retransmits: u64,
    /// Replies that matched no pending call (duplicates/late).
    pub stray_replies: u64,
    /// Calls that were ever deferred by the congestion window.
    pub window_deferrals: u64,
    /// Soft-mount calls abandoned after exhausting `retrans`.
    pub soft_timeouts: u64,
    /// Largest backoff interval ever armed (must respect the 60 s cap).
    pub max_backoff: SimDuration,
}

/// Which (client, server) pair a mount serves. A call's key in a
/// [`UdpCalls`] table is one `u64`: the mount in the high 32 bits (client
/// above server), the xid in the low 32.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MountKey(u32);

impl MountKey {
    const SERVER_BITS: u32 = 12;
    /// Clients a key can tell apart.
    pub const MAX_CLIENTS: usize = 1 << (32 - Self::SERVER_BITS);
    /// Servers a key can tell apart.
    pub const MAX_SERVERS: usize = 1 << Self::SERVER_BITS;

    /// Client `client`'s mount of server `server`.
    pub fn new(client: usize, server: usize) -> Self {
        assert!(
            client < Self::MAX_CLIENTS && server < Self::MAX_SERVERS,
            "mount of server {server} by client {client} does not fit an in-flight key"
        );
        MountKey(((client as u32) << Self::SERVER_BITS) | server as u32)
    }

    /// The client index.
    pub fn client(self) -> usize {
        (self.0 >> Self::SERVER_BITS) as usize
    }

    /// The server index.
    pub fn server(self) -> usize {
        (self.0 & ((1 << Self::SERVER_BITS) - 1)) as usize
    }

    /// The in-flight key of call `xid` on this mount.
    #[inline]
    pub fn call(self, xid: u32) -> u64 {
        (u64::from(self.0) << 32) | u64::from(xid)
    }
}

/// Calls in flight, by [`MountKey::call`] key: what each needs to be
/// retransmitted. One table serves every mount that shares it; nothing
/// iterates it, so how many mounts share one cannot change what they do.
#[derive(Default)]
pub struct UdpCalls(IntMap<u64, Pending>);

impl UdpCalls {
    /// A table with room for `calls` calls before it grows.
    pub fn with_capacity(calls: usize) -> Self {
        UdpCalls(IntMap::with_capacity_and_hasher(calls, Default::default()))
    }

    /// Calls in flight over every mount in the table.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no call is in flight.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

struct Pending {
    class: RpcClass,
    msg: MbufChain,
    first_sent: SimTime,
    sends: u32,
    timer_gen: u64,
    retransmitted: bool,
    /// RTO snapshotted at transmission time, used when the policy does
    /// not recalculate on every tick.
    rto_at_send: SimDuration,
}

/// The per-mount UDP RPC client transport. Its calls in flight live in a
/// [`UdpCalls`] table: `call_in`, `on_reply_in` and `on_timer_in` take a
/// shared one, and `call`, `on_reply` and `on_timer` use one the transport
/// owns. A mount uses one of the two for its whole life.
pub struct UdpRpcClient {
    cfg: UdpRpcConfig,
    rto: DynRto,
    cwnd: Option<CongWindow>,
    next_xid: u32,
    mount: MountKey,
    /// This mount's calls in flight, in whichever table holds them.
    in_flight: usize,
    /// The table of `call`, `on_reply` and `on_timer`.
    own: UdpCalls,
    /// Calls admitted but deferred by the congestion window.
    queue: VecDeque<(u32, RpcClass, MbufChain)>,
    stats: UdpStats,
    /// Whether `NotResponding` has been reported and not yet cleared by
    /// a reply (one console line per outage, as in the BSD client).
    down_reported: bool,
}

impl UdpRpcClient {
    /// Creates a transport; `xid_seed` keeps streams from colliding when
    /// several mounts share a simulation.
    pub fn new(cfg: UdpRpcConfig, xid_seed: u32) -> Self {
        Self::for_mount(MountKey::default(), cfg, xid_seed)
    }

    /// [`UdpRpcClient::new`] for `mount`, whose key tells its calls from
    /// other mounts' in a shared [`UdpCalls`] table.
    pub fn for_mount(mount: MountKey, cfg: UdpRpcConfig, xid_seed: u32) -> Self {
        let rto = DynRto::new(cfg.policy, cfg.base_rto);
        let cwnd = if cfg.use_cwnd {
            Some(if cfg.slow_start {
                CongWindow::with_slow_start(cfg.cwnd_cap)
            } else {
                CongWindow::paper(cfg.cwnd_cap)
            })
        } else {
            None
        };
        UdpRpcClient {
            cfg,
            rto,
            cwnd,
            next_xid: xid_seed,
            mount,
            in_flight: 0,
            own: UdpCalls::default(),
            queue: VecDeque::new(),
            stats: UdpStats::default(),
            down_reported: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &UdpRpcConfig {
        &self.cfg
    }

    /// Allocates the next XID (callers build the RPC header with it).
    pub fn alloc_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        xid
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.in_flight
    }

    /// Requests waiting on the congestion window.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }

    /// Current RTO that would be applied to a class (for Graph 7 traces).
    pub fn current_rto(&self, class: RpcClass) -> SimDuration {
        self.rto.rto(class)
    }

    /// Current congestion window, if one is configured.
    pub fn window(&self) -> Option<usize> {
        self.cwnd.as_ref().map(|w| w.window())
    }

    /// Issues a call whose message (RPC header + args, XID already
    /// embedded) is `msg`, kept in the transport's own table. Appends the
    /// actions to perform to `actions`, which the caller owns and recycles
    /// — an RPC happens every few simulated milliseconds, so the transport
    /// never allocates a fresh action vector.
    pub fn call(
        &mut self,
        now: SimTime,
        xid: u32,
        class: RpcClass,
        msg: MbufChain,
        actions: &mut Vec<UdpAction>,
    ) {
        self.with_own(|c, calls| c.call_in(calls, now, xid, class, msg, actions));
    }

    /// [`UdpRpcClient::on_reply_in`] over the transport's own table.
    pub fn on_reply(
        &mut self,
        now: SimTime,
        xid: u32,
        reply: MbufChain,
        actions: &mut Vec<UdpAction>,
    ) -> Option<CompletedCall> {
        self.with_own(|c, calls| c.on_reply_in(calls, now, xid, reply, actions))
    }

    /// [`UdpRpcClient::on_timer_in`] over the transport's own table.
    pub fn on_timer(&mut self, now: SimTime, xid: u32, gen: u64, actions: &mut Vec<UdpAction>) {
        self.with_own(|c, calls| c.on_timer_in(calls, now, xid, gen, actions));
    }

    fn with_own<R>(&mut self, step: impl FnOnce(&mut Self, &mut UdpCalls) -> R) -> R {
        let mut own = std::mem::take(&mut self.own);
        let r = step(self, &mut own);
        self.own = own;
        r
    }

    /// [`UdpRpcClient::call`] with the call kept in `calls`.
    pub fn call_in(
        &mut self,
        calls: &mut UdpCalls,
        now: SimTime,
        xid: u32,
        class: RpcClass,
        msg: MbufChain,
        actions: &mut Vec<UdpAction>,
    ) {
        self.stats.calls += 1;
        if let Some(w) = &self.cwnd {
            if !w.allows(self.in_flight) {
                self.stats.window_deferrals += 1;
                self.queue.push_back((xid, class, msg));
                return;
            }
        }
        self.transmit(calls, now, xid, class, msg, actions);
    }

    fn transmit(
        &mut self,
        calls: &mut UdpCalls,
        now: SimTime,
        xid: u32,
        class: RpcClass,
        msg: MbufChain,
        actions: &mut Vec<UdpAction>,
    ) {
        let rto = self.rto.rto(class);
        let pending = Pending {
            class,
            msg: msg.clone(),
            first_sent: now,
            sends: 1,
            timer_gen: 1,
            retransmitted: false,
            rto_at_send: rto,
        };
        actions.push(UdpAction::Send { xid, payload: msg });
        actions.push(UdpAction::ArmTimer {
            xid,
            gen: 1,
            deadline: now + rto,
        });
        // A reused xid would lose the first call's retransmission state
        // and count one call in flight for two.
        if calls.0.insert(self.mount.call(xid), pending).is_some() {
            panic!(
                "duplicate xid {xid} in flight on client {} toward server {}",
                self.mount.client(),
                self.mount.server()
            );
        }
        self.in_flight += 1;
    }

    /// Processes an incoming reply whose XID has been peeked by the
    /// socket layer, for a call kept in `calls`. Returns the completion
    /// (if it matches); any queued calls the window now admits are
    /// appended to `actions`.
    pub fn on_reply_in(
        &mut self,
        calls: &mut UdpCalls,
        now: SimTime,
        xid: u32,
        reply: MbufChain,
        actions: &mut Vec<UdpAction>,
    ) -> Option<CompletedCall> {
        let Some(p) = calls.0.remove(&self.mount.call(xid)) else {
            self.stats.stray_replies += 1;
            return None;
        };
        self.in_flight -= 1;
        self.stats.completed += 1;
        let rtt = now.since(p.first_sent);
        // Karn's rule: skip samples for retransmitted calls.
        if !p.retransmitted {
            self.rto.on_sample(p.class, rtt);
        }
        if let Some(w) = &mut self.cwnd {
            w.on_reply();
        }
        if self.down_reported {
            self.down_reported = false;
            actions.push(UdpAction::ServerOk { xid });
        }
        self.drain_queue(calls, now, actions);
        Some(CompletedCall {
            xid,
            class: p.class,
            reply,
            rtt,
            retransmitted: p.retransmitted,
        })
    }

    fn drain_queue(&mut self, calls: &mut UdpCalls, now: SimTime, actions: &mut Vec<UdpAction>) {
        while !self.queue.is_empty() {
            if let Some(w) = &self.cwnd {
                if !w.allows(self.in_flight) {
                    break;
                }
            }
            let (xid, class, msg) = self.queue.pop_front().expect("checked non-empty");
            self.transmit(calls, now, xid, class, msg, actions);
        }
    }

    /// Handles a retransmit timer for a call kept in `calls`, appending
    /// the resulting actions. Stale (xid, gen) pairs are no-ops.
    pub fn on_timer_in(
        &mut self,
        calls: &mut UdpCalls,
        now: SimTime,
        xid: u32,
        gen: u64,
        actions: &mut Vec<UdpAction>,
    ) {
        let key = self.mount.call(xid);
        let Some(p) = calls.0.get_mut(&key).filter(|p| p.timer_gen == gen) else {
            profile::census("UdpTimer", true);
            return;
        };
        // A soft mount stops here once `retrans` transmissions have all
        // timed out; the syscall comes back with `ETIMEDOUT`.
        if self.cfg.soft && p.sends >= self.cfg.retrans {
            let class = p.class;
            calls.0.remove(&key);
            self.in_flight -= 1;
            self.stats.soft_timeouts += 1;
            if let Some(w) = &mut self.cwnd {
                w.on_timeout();
            }
            self.rto.on_timeout(class);
            actions.push(UdpAction::GiveUp { xid });
            self.drain_queue(calls, now, actions);
            return;
        }
        // Timeout: retransmit with exponential backoff; the class-level
        // backoff persists for subsequent requests until a clean sample.
        self.stats.retransmits += 1;
        let class = p.class;
        p.retransmitted = true;
        p.sends += 1;
        p.timer_gen += 1;
        let base = if self.rto.recalc_each_tick() {
            self.rto.rto(p.class)
        } else {
            p.rto_at_send
        };
        let backoff = base * (1u64 << (p.sends - 1).min(6));
        let backoff = backoff.min(SimDuration::from_secs(60));
        if backoff > self.stats.max_backoff {
            self.stats.max_backoff = backoff;
        }
        actions.push(UdpAction::Send {
            xid,
            payload: p.msg.clone(),
        });
        actions.push(UdpAction::ArmTimer {
            xid,
            gen: p.timer_gen,
            deadline: now + backoff,
        });
        // A hard mount that has retransmitted past the `retrans`
        // threshold reports the outage to the console, once, and keeps
        // trying forever.
        if !self.cfg.soft && !self.down_reported && p.sends > self.cfg.retrans {
            self.down_reported = true;
            actions.push(UdpAction::NotResponding { xid });
        }
        if let Some(w) = &mut self.cwnd {
            w.on_timeout();
        }
        self.rto.on_timeout(class);
    }
}

#[cfg(test)]
mod shared_differential;

#[cfg(test)]
mod tests {
    use super::*;
    use renofs_mbuf::CopyMeter;

    fn msg(tag: u8) -> MbufChain {
        let mut m = CopyMeter::new();
        MbufChain::from_slice(&[tag; 64], &mut m)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn call(
        c: &mut UdpRpcClient,
        now: SimTime,
        xid: u32,
        class: RpcClass,
        m: MbufChain,
    ) -> Vec<UdpAction> {
        let mut actions = Vec::new();
        c.call(now, xid, class, m, &mut actions);
        actions
    }

    fn reply(
        c: &mut UdpRpcClient,
        now: SimTime,
        xid: u32,
        m: MbufChain,
    ) -> (Option<CompletedCall>, Vec<UdpAction>) {
        let mut actions = Vec::new();
        let done = c.on_reply(now, xid, m, &mut actions);
        (done, actions)
    }

    fn timer(c: &mut UdpRpcClient, now: SimTime, xid: u32, gen: u64) -> Vec<UdpAction> {
        let mut actions = Vec::new();
        c.on_timer(now, xid, gen, &mut actions);
        actions
    }

    fn first_send_xid(actions: &[UdpAction]) -> Option<u32> {
        actions.iter().find_map(|a| match a {
            UdpAction::Send { xid, .. } => Some(*xid),
            _ => None,
        })
    }

    #[test]
    fn call_sends_and_arms_timer() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(1)), 100);
        let xid = c.alloc_xid();
        let actions = call(&mut c, ms(0), xid, RpcClass::Lookup, msg(1));
        assert_eq!(actions.len(), 2);
        assert_eq!(first_send_xid(&actions), Some(100));
        match &actions[1] {
            UdpAction::ArmTimer { deadline, .. } => {
                assert_eq!(*deadline, SimTime::from_secs(1));
            }
            other => panic!("expected timer, got {other:?}"),
        }
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate xid 7 in flight on client 3 toward server 2")]
    fn a_duplicate_xid_in_flight_panics() {
        let cfg = UdpRpcConfig::fixed(SimDuration::from_secs(1));
        let mut c = UdpRpcClient::for_mount(MountKey::new(3, 2), cfg, 7);
        call(&mut c, ms(0), 7, RpcClass::Lookup, msg(0));
        call(&mut c, ms(1), 7, RpcClass::Lookup, msg(1));
    }

    #[test]
    fn mount_keys_keep_client_server_and_xid_apart() {
        let (c, s) = (MountKey::MAX_CLIENTS - 1, MountKey::MAX_SERVERS - 1);
        let far = MountKey::new(c, s);
        assert_eq!((far.client(), far.server()), (c, s));
        assert_eq!(far.call(u32::MAX), u64::MAX);
        let keys = [
            MountKey::new(0, 0).call(5),
            MountKey::new(1, 0).call(5),
            MountKey::new(0, 1).call(5),
            MountKey::new(0, 0).call(6),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert!(!keys[i + 1..].contains(k), "{keys:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit an in-flight key")]
    fn a_mount_past_the_key_width_is_refused() {
        MountKey::new(MountKey::MAX_CLIENTS, 0);
    }

    #[test]
    fn reply_completes_and_samples_rtt() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 0);
        for i in 0..30u64 {
            let xid = c.alloc_xid();
            call(&mut c, ms(i * 100), xid, RpcClass::Lookup, msg(0));
            let (done, _) = reply(&mut c, ms(i * 100 + 12), xid, msg(9));
            let done = done.unwrap();
            assert_eq!(done.rtt, SimDuration::from_millis(12));
            assert!(!done.retransmitted);
        }
        // RTO should now reflect the 12ms RTT, not the 1s base (but it is
        // clamped at the 200ms floor).
        assert!(c.current_rto(RpcClass::Lookup) <= SimDuration::from_millis(200));
    }

    #[test]
    fn timer_retransmits_with_backoff() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(1)), 0);
        let xid = c.alloc_xid();
        let a1 = call(&mut c, ms(0), xid, RpcClass::Read, msg(0));
        let gen1 = match &a1[1] {
            UdpAction::ArmTimer { gen, .. } => *gen,
            _ => panic!(),
        };
        let a2 = timer(&mut c, SimTime::from_secs(1), xid, gen1);
        assert_eq!(a2.len(), 2, "resend + rearm");
        match &a2[1] {
            UdpAction::ArmTimer { gen, deadline, .. } => {
                assert_eq!(*gen, 2);
                // Second attempt: 2x backoff => deadline at 1s + 2s.
                assert_eq!(*deadline, SimTime::from_secs(3));
            }
            _ => panic!(),
        }
        assert_eq!(c.stats().retransmits, 1);
        // Stale generation is ignored.
        assert!(timer(&mut c, SimTime::from_secs(2), xid, gen1).is_empty());
    }

    #[test]
    fn retransmitted_call_skips_rtt_sample() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 0);
        let xid = c.alloc_xid();
        call(&mut c, ms(0), xid, RpcClass::Read, msg(0));
        timer(&mut c, SimTime::from_secs(1), xid, 1);
        let (done, _) = reply(&mut c, SimTime::from_secs(2), xid, msg(1));
        assert!(done.unwrap().retransmitted);
        // No sample taken (Karn): the estimator is still empty, so the
        // RTO is the base value scaled by the persistent timeout backoff.
        assert_eq!(c.current_rto(RpcClass::Read), SimDuration::from_secs(2));
        // A clean call clears the backoff and finally feeds a sample.
        let xid2 = c.alloc_xid();
        call(&mut c, SimTime::from_secs(3), xid2, RpcClass::Read, msg(0));
        let (done, _) = reply(
            &mut c,
            SimTime::from_secs(3) + SimDuration::from_millis(40),
            xid2,
            msg(1),
        );
        assert!(!done.unwrap().retransmitted);
        assert!(c.current_rto(RpcClass::Read) < SimDuration::from_secs(1));
    }

    #[test]
    fn congestion_window_defers_excess_calls() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 0);
        let window = c.window().unwrap();
        let mut xids = Vec::new();
        for _ in 0..window + 5 {
            let xid = c.alloc_xid();
            xids.push(xid);
            call(&mut c, ms(0), xid, RpcClass::Lookup, msg(0));
        }
        assert_eq!(c.outstanding(), window);
        assert_eq!(c.queued(), 5);
        assert!(c.stats().window_deferrals >= 5);
        // A reply admits a queued call.
        let (_, actions) = reply(&mut c, ms(10), xids[0], msg(1));
        assert!(first_send_xid(&actions).is_some(), "queued call released");
    }

    #[test]
    fn window_halves_on_timeout() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 0);
        let before = c.window().unwrap();
        let xid = c.alloc_xid();
        call(&mut c, ms(0), xid, RpcClass::Read, msg(0));
        timer(&mut c, SimTime::from_secs(1), xid, 1);
        assert!(c.window().unwrap() <= before / 2 + 1);
    }

    #[test]
    fn stray_reply_counted_not_crashing() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(1)), 0);
        let (done, actions) = reply(&mut c, ms(5), 999, msg(0));
        assert!(done.is_none());
        assert!(actions.is_empty());
        assert_eq!(c.stats().stray_replies, 1);
    }

    #[test]
    fn duplicate_reply_is_stray() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(1)), 0);
        let xid = c.alloc_xid();
        call(&mut c, ms(0), xid, RpcClass::Getattr, msg(0));
        let (d1, _) = reply(&mut c, ms(3), xid, msg(1));
        assert!(d1.is_some());
        let (d2, _) = reply(&mut c, ms(4), xid, msg(1));
        assert!(d2.is_none(), "second reply to same xid is stray");
    }

    fn timer_args(actions: &[UdpAction]) -> Option<(u64, SimTime)> {
        actions.iter().find_map(|a| match a {
            UdpAction::ArmTimer { gen, deadline, .. } => Some((*gen, *deadline)),
            _ => None,
        })
    }

    #[test]
    fn soft_mount_gives_up_after_retrans_budget() {
        let cfg = UdpRpcConfig::fixed(SimDuration::from_secs(1)).soft(3);
        let mut c = UdpRpcClient::new(cfg, 0);
        let xid = c.alloc_xid();
        let mut actions = call(&mut c, ms(0), xid, RpcClass::Lookup, msg(0));
        let mut gave_up = false;
        for _ in 0..10 {
            let Some((gen, deadline)) = timer_args(&actions) else {
                break;
            };
            actions = timer(&mut c, deadline, xid, gen);
            if actions
                .iter()
                .any(|a| matches!(a, UdpAction::GiveUp { xid: x } if *x == xid))
            {
                gave_up = true;
                break;
            }
        }
        assert!(gave_up, "soft mount must abandon the call");
        // 3 transmissions then the fourth timer gives up: 2 retransmits.
        assert_eq!(c.stats().retransmits, 2);
        assert_eq!(c.stats().soft_timeouts, 1);
        assert_eq!(c.outstanding(), 0);
        // A late reply for the abandoned xid is stray, not a completion.
        let (done, _) = reply(&mut c, SimTime::from_secs(30), xid, msg(1));
        assert!(done.is_none());
    }

    #[test]
    fn hard_mount_reports_not_responding_then_ok() {
        let mut cfg = UdpRpcConfig::fixed(SimDuration::from_secs(1));
        cfg.retrans = 2;
        let mut c = UdpRpcClient::new(cfg, 0);
        let xid = c.alloc_xid();
        let mut actions = call(&mut c, ms(0), xid, RpcClass::Read, msg(0));
        let mut reported = 0;
        for _ in 0..6 {
            let (gen, deadline) = timer_args(&actions).expect("hard mount always rearms");
            actions = timer(&mut c, deadline, xid, gen);
            reported += actions
                .iter()
                .filter(|a| matches!(a, UdpAction::NotResponding { .. }))
                .count();
        }
        assert_eq!(reported, 1, "one console line per outage");
        assert!(c.outstanding() == 1, "hard mount never gives up");
        let (done, reply_actions) = reply(&mut c, SimTime::from_secs(500), xid, msg(1));
        assert!(done.is_some());
        assert!(
            reply_actions
                .iter()
                .any(|a| matches!(a, UdpAction::ServerOk { .. })),
            "recovery prints server ok"
        );
    }

    #[test]
    fn backoff_respects_sixty_second_cap() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(5)), 0);
        let xid = c.alloc_xid();
        let mut actions = call(&mut c, ms(0), xid, RpcClass::Read, msg(0));
        for _ in 0..12 {
            let (gen, deadline) = timer_args(&actions).unwrap();
            actions = timer(&mut c, deadline, xid, gen);
        }
        assert_eq!(c.stats().max_backoff, SimDuration::from_secs(60));
    }

    #[test]
    fn fixed_policy_never_shrinks_rto() {
        let mut c = UdpRpcClient::new(UdpRpcConfig::fixed(SimDuration::from_secs(1)), 0);
        for i in 0..20u64 {
            let xid = c.alloc_xid();
            call(&mut c, ms(i * 10), xid, RpcClass::Lookup, msg(0));
            reply(&mut c, ms(i * 10 + 1), xid, msg(1));
        }
        assert_eq!(c.current_rto(RpcClass::Lookup), SimDuration::from_secs(1));
    }
}

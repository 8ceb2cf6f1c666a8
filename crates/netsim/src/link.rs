//! Directed links: serialization, queueing, background load and loss.

use renofs_sim::{Rng, SimDuration, SimTime};

use crate::faults::FaultWindows;
use crate::topology::NodeId;

/// Static parameters of one link direction.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Raw bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Maximum transmission unit (IP bytes per frame).
    pub mtu: usize,
    /// Per-frame overhead bytes (preamble, MAC header, CRC, gap).
    pub frame_overhead: usize,
    /// Transmit queue capacity in bytes; frames arriving when the backlog
    /// exceeds this are dropped (drop-tail).
    pub queue_capacity_bytes: usize,
    /// Independent per-frame corruption/loss probability.
    pub loss_prob: f64,
    /// Fraction of the link consumed by background cross-traffic. Modeled
    /// as M/M/1-style random extra queueing per frame, matching the
    /// paper's uncontrolled production-network loads.
    pub bg_util: f64,
}

impl LinkParams {
    /// Time to serialize `wire_bytes` onto this link.
    pub fn tx_time(&self, wire_bytes: usize) -> SimDuration {
        let bits = (wire_bytes + self.frame_overhead) as u64 * 8;
        SimDuration::from_secs_f64(bits as f64 / self.bandwidth_bps as f64)
    }
}

/// Cumulative per-direction link statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Payload (IP) bytes accepted.
    pub bytes: u64,
    /// Frames dropped by queue overflow.
    pub queue_drops: u64,
    /// Frames dropped by random loss.
    pub random_drops: u64,
    /// Frames dropped because the link was down (injected flap).
    pub flap_drops: u64,
    /// Frames duplicated by an injected duplication window.
    pub dup_frames: u64,
    /// Frames given extra delay by an injected reorder window.
    pub reordered_frames: u64,
    /// Frames whose bytes were corrupted by an injected corruption window.
    pub corrupted_frames: u64,
    /// Total scheduled downtime from the fault plan's finite windows.
    pub downtime: SimDuration,
}

/// Outcome of offering a frame to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxResult {
    /// Frame will arrive at the far end at this time.
    Arrives(SimTime),
    /// Frame was duplicated by an injected fault: two copies arrive,
    /// at these times.
    Duplicated(SimTime, SimTime),
    /// Frame arrives at this time with its bytes damaged in flight; the
    /// receiver's checksum handling decides whether the damage is caught.
    ArrivesCorrupted(SimTime),
    /// Frame was dropped (queue overflow, random loss, or a down link).
    Dropped,
}

/// What a link works out per frame size: the serialization time and the
/// mean background wait ahead of it (unread on a link without background).
#[derive(Clone, Copy)]
struct FrameTime {
    ip_bytes: usize,
    service: SimDuration,
    bg_mean: f64,
}

impl FrameTime {
    fn of(params: &LinkParams, ip_bytes: usize) -> Self {
        let service = params.tx_time(ip_bytes);
        // The M/M/1 mean wait: rho/(1-rho) service times.
        let bg_mean = service.as_secs_f64() * params.bg_util / (1.0 - params.bg_util);
        FrameTime {
            ip_bytes,
            service,
            bg_mean,
        }
    }
}

/// Frame sizes a link direction remembers. A direction sees a handful: the
/// MTU-sized fragment, a datagram's tail, a small call or acknowledgement.
/// Three 24-byte entries keep the crowd cell's ~4,100 directions under
/// 0.3 MB; a size that falls out is recomputed, never wrong.
const FRAME_MEMO: usize = 3;

/// One direction of a link.
pub(crate) struct Link {
    from: NodeId,
    to: NodeId,
    params: LinkParams,
    busy_until: SimTime,
    stats: LinkStats,
    faults: FaultWindows,
    /// [`FrameTime`]s of the last few distinct frame sizes, replaced round
    /// robin: the float divisions behind them are paid per size, not per
    /// frame. Every entry is always a true value for its `ip_bytes`.
    memo: [FrameTime; FRAME_MEMO],
    memo_next: u8,
}

impl Link {
    pub(crate) fn new(from: NodeId, to: NodeId, params: LinkParams) -> Self {
        let memo = [FrameTime::of(&params, 0); FRAME_MEMO];
        Link {
            from,
            to,
            params,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
            faults: FaultWindows::default(),
            memo,
            memo_next: 0,
        }
    }

    /// Installs compiled fault windows on this link direction.
    pub(crate) fn set_faults(&mut self, faults: FaultWindows) {
        self.faults = faults;
    }

    pub(crate) fn from(&self) -> NodeId {
        self.from
    }

    pub(crate) fn to(&self) -> NodeId {
        self.to
    }

    pub(crate) fn params(&self) -> &LinkParams {
        &self.params
    }

    pub(crate) fn stats(&self) -> LinkStats {
        let mut s = self.stats;
        s.downtime = self.faults.total_downtime();
        s
    }

    /// Test-only: injects random loss on this link direction after topology
    /// construction. (Bandwidth, overhead and `bg_util` are fixed at
    /// construction: the frame-time memo is computed from them.)
    #[cfg(test)]
    pub(crate) fn set_loss_prob_for_test(&mut self, loss_prob: f64) {
        self.params.loss_prob = loss_prob;
    }

    /// Offers a frame of `ip_bytes` to the link at `now`.
    ///
    /// With no fault windows active the code path (and in particular the
    /// RNG draw sequence) is identical to a fault-free link, so an empty
    /// [`FaultWindows`] leaves every run byte-reproducible against
    /// pre-fault-injection builds.
    pub(crate) fn transmit(&mut self, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> TxResult {
        if !self.faults.is_empty() && self.faults.is_down(now) {
            self.stats.flap_drops += 1;
            return TxResult::Dropped;
        }
        // Backlog currently waiting (bytes implied by the busy horizon);
        // an idle wire has none, and needs no float arithmetic to say so.
        let backlog_bytes = if self.busy_until <= now {
            0
        } else {
            let backlog = self.busy_until.since(now);
            (backlog.as_secs_f64() * self.params.bandwidth_bps as f64 / 8.0) as usize
        };
        if backlog_bytes + ip_bytes > self.params.queue_capacity_bytes {
            self.stats.queue_drops += 1;
            return TxResult::Dropped;
        }
        let loss = (self.params.loss_prob + self.faults.extra_loss(now)).min(1.0);
        if rng.chance(loss) {
            // The frame still occupies the wire; it is lost, not unsent.
            self.occupy(now, ip_bytes, rng);
            self.stats.random_drops += 1;
            return TxResult::Dropped;
        }
        let done = self.occupy(now, ip_bytes, rng);
        self.stats.frames += 1;
        self.stats.bytes += ip_bytes as u64;
        let mut arrival = done + self.params.prop_delay + self.faults.extra_delay(now);
        if let Some((prob, max_extra)) = self.faults.reorder_at(now) {
            if rng.chance(prob) {
                let span = max_extra.as_nanos().max(1);
                arrival += SimDuration::from_nanos(rng.gen_range(0, span) + 1);
                self.stats.reordered_frames += 1;
            }
        }
        if let Some(prob) = self.faults.corrupt_prob(now) {
            if rng.chance(prob) {
                self.stats.corrupted_frames += 1;
                // A damaged frame is never also duplicated: the bridge
                // replay model applies to intact frames only.
                return TxResult::ArrivesCorrupted(arrival);
            }
        }
        if let Some(prob) = self.faults.dup_prob(now) {
            if rng.chance(prob) {
                self.stats.dup_frames += 1;
                // The duplicate trails the original by one serialization
                // time, as if a bridge replayed it back to back.
                return TxResult::Duplicated(arrival, arrival + self.frame_time(ip_bytes).service);
            }
        }
        TxResult::Arrives(arrival)
    }

    /// Serializes the frame (plus any sampled background traffic ahead of
    /// it) and returns the time serialization completes.
    fn occupy(&mut self, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> SimTime {
        let frame = self.frame_time(ip_bytes);
        // Extra wait caused by background cross-traffic: an exponential
        // about the M/M/1 mean. A link without background draws nothing.
        let bg = if self.params.bg_util <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(rng.exp(frame.bg_mean))
        };
        self.busy_until = now.max(self.busy_until) + bg + frame.service;
        self.busy_until
    }

    /// The [`FrameTime`] of `ip_bytes`, remembered or worked out afresh.
    fn frame_time(&mut self, ip_bytes: usize) -> FrameTime {
        if let Some(hit) = self.memo.iter().find(|m| m.ip_bytes == ip_bytes) {
            return *hit;
        }
        let fresh = FrameTime::of(&self.params, ip_bytes);
        self.memo[usize::from(self.memo_next)] = fresh;
        self.memo_next = (self.memo_next + 1) % FRAME_MEMO as u8;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::topology::presets::{self, Background};
    use proptest::prelude::*;

    /// The reference the memo is held to: `transmit` as it stood before a
    /// link remembered anything, every quantity worked out afresh per frame
    /// from [`LinkParams`] — `tx_time`, the background mean, the backlog in
    /// bytes whether or not there is one.
    fn reference_transmit(l: &mut Link, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> TxResult {
        fn occupy(l: &mut Link, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> SimTime {
            let service = l.params.tx_time(ip_bytes);
            let rho = l.params.bg_util;
            let bg = if rho <= 0.0 {
                SimDuration::ZERO
            } else {
                let mean = service.as_secs_f64() * rho / (1.0 - rho);
                SimDuration::from_secs_f64(rng.exp(mean))
            };
            let done = now.max(l.busy_until) + bg + service;
            l.busy_until = done;
            done
        }
        if !l.faults.is_empty() && l.faults.is_down(now) {
            l.stats.flap_drops += 1;
            return TxResult::Dropped;
        }
        let backlog = l.busy_until.since(now);
        let backlog_bytes = (backlog.as_secs_f64() * l.params.bandwidth_bps as f64 / 8.0) as usize;
        if backlog_bytes + ip_bytes > l.params.queue_capacity_bytes {
            l.stats.queue_drops += 1;
            return TxResult::Dropped;
        }
        let loss = (l.params.loss_prob + l.faults.extra_loss(now)).min(1.0);
        if rng.chance(loss) {
            occupy(l, now, ip_bytes, rng);
            l.stats.random_drops += 1;
            return TxResult::Dropped;
        }
        let done = occupy(l, now, ip_bytes, rng);
        l.stats.frames += 1;
        l.stats.bytes += ip_bytes as u64;
        let mut arrival = done + l.params.prop_delay + l.faults.extra_delay(now);
        if let Some((prob, max_extra)) = l.faults.reorder_at(now) {
            if rng.chance(prob) {
                let span = max_extra.as_nanos().max(1);
                arrival += SimDuration::from_nanos(rng.gen_range(0, span) + 1);
                l.stats.reordered_frames += 1;
            }
        }
        if let Some(prob) = l.faults.corrupt_prob(now) {
            if rng.chance(prob) {
                l.stats.corrupted_frames += 1;
                return TxResult::ArrivesCorrupted(arrival);
            }
        }
        if let Some(prob) = l.faults.dup_prob(now) {
            if rng.chance(prob) {
                l.stats.dup_frames += 1;
                return TxResult::Duplicated(arrival, arrival + l.params.tx_time(ip_bytes));
            }
        }
        TxResult::Arrives(arrival)
    }

    /// One direction of each link kind of the paper's third configuration:
    /// Ethernet, token ring, 56 Kbps serial line.
    fn preset_params(bg: &Background, kind: usize) -> LinkParams {
        let (topo, _, _) = presets::slow_link_path(bg);
        topo.links[2 * kind].params().clone()
    }

    proptest! {
        /// A link answering from its memo and the reference, one RNG seed
        /// each, offered the same frames — more sizes than the memo holds,
        /// into a backlog, at the instant the wire falls idle, and after a
        /// long silence, with and without fault windows — agree on every
        /// result, on `busy_until`, on the counters and on the RNG state,
        /// after every frame.
        #[test]
        fn memo_matches_per_frame_arithmetic(
            bg in 0usize..3,
            kind in 0usize..3,
            faulty in any::<bool>(),
            seed in any::<u64>(),
            frames in proptest::collection::vec((0usize..FRAME_MEMO + 4, 0u8..5, any::<u32>()), 1..400),
        ) {
            let bg = [Background::quiet(), Background::off_peak(), Background::production()][bg];
            let params = preset_params(&bg, kind);
            // More sizes than the memo holds, the MTU and the empty frame among them.
            let size = |i: usize| [params.mtu, 0, 40, 132, 396, 572, 1, 1480][i].min(params.mtu);
            let mut links = [(); 2].map(|()| Link::new(NodeId(0), NodeId(1), params.clone()));
            let mut rngs = [Rng::new(seed), Rng::new(seed)];
            if faulty {
                let (t, d) = (SimTime::from_millis(5), SimDuration::from_secs(2));
                let plan = FaultPlan::new()
                    .duplicate(t, 0.4, d)
                    .loss_burst(t, 0.2, d)
                    .delay_spike(SimTime::from_secs(1), SimDuration::from_millis(3), d)
                    .reorder(t, 0.3, SimDuration::from_millis(2), d)
                    .corrupt(SimTime::from_secs(1), 0.2, d)
                    .flap(SimTime::from_secs(3), SimDuration::from_millis(200));
                links.iter_mut().for_each(|l| l.set_faults(plan.compile()));
            }
            let mut now = SimTime::ZERO;
            for (i, &(size_idx, gap, raw)) in frames.iter().enumerate() {
                let service = params.tx_time(params.mtu).as_nanos();
                now = match gap {
                    // Into the backlog, or (once it drains) the same instant.
                    0 | 1 => now,
                    // The instant the wire falls idle.
                    2 => now.max(links[0].busy_until),
                    // Around one frame time later; a long silence.
                    3 => now + SimDuration::from_nanos(u64::from(raw) % (2 * service)),
                    _ => now + SimDuration::from_nanos(u64::from(raw) * 4),
                };
                let ip_bytes = size(size_idx);
                let got = links[0].transmit(now, ip_bytes, &mut rngs[0]);
                let want = reference_transmit(&mut links[1], now, ip_bytes, &mut rngs[1]);
                prop_assert_eq!(got, want, "frame {} of {} bytes at {:?}", i, ip_bytes, now);
                prop_assert_eq!(links[0].busy_until, links[1].busy_until);
                prop_assert_eq!(links[0].stats(), links[1].stats());
                prop_assert_eq!(format!("{:?}", rngs[0]), format!("{:?}", rngs[1]));
            }
        }
    }

    /// Drop-tail lands on the same frame whether the capacity check met an
    /// idle wire (the shortcut: no backlog, no float arithmetic) or a
    /// backlog (bytes implied by the busy horizon).
    #[test]
    fn queue_capacity_drops_with_and_without_backlog() {
        let mut p = quiet_params();
        p.queue_capacity_bytes = 4_000;
        let mut rng = Rng::new(9);
        // Idle wire: the frame's own size against the capacity.
        let mut idle = Link::new(NodeId(0), NodeId(1), p.clone());
        assert_eq!(
            idle.transmit(SimTime::ZERO, 4_001, &mut rng),
            TxResult::Dropped
        );
        assert_ne!(
            idle.transmit(SimTime::from_secs(1), 4_000, &mut rng),
            TxResult::Dropped
        );
        assert_eq!(idle.stats().queue_drops, 1);
        // Backlogged: 1,000-byte frames at one instant until the queue is
        // full, then again from the instant the wire falls idle.
        let mut link = Link::new(NodeId(0), NodeId(1), p.clone());
        let mut reference = Link::new(NodeId(0), NodeId(1), p);
        for start in [SimTime::ZERO, SimTime::from_secs(1)] {
            let now = start.max(link.busy_until);
            let results: Vec<TxResult> = (0..8)
                .map(|_| {
                    let got = link.transmit(now, 1_000, &mut rng);
                    assert_eq!(
                        got,
                        reference_transmit(&mut reference, now, 1_000, &mut rng)
                    );
                    got
                })
                .collect();
            // Three frames queue 3 x 1,026 wire bytes; a fourth would pass
            // 4,000. The second burst starts on an idle wire and fares the same.
            let dropped: Vec<usize> = (0..8)
                .filter(|&i| results[i] == TxResult::Dropped)
                .collect();
            assert_eq!(dropped, [3, 4, 5, 6, 7], "{results:?}");
        }
        assert_eq!(link.stats(), reference.stats());
    }

    fn quiet_params() -> LinkParams {
        LinkParams {
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(50),
            mtu: 1500,
            frame_overhead: 26,
            queue_capacity_bytes: 60_000,
            loss_prob: 0.0,
            bg_util: 0.0,
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let p = quiet_params();
        // (1500 + 26) * 8 bits at 10 Mbit/s = 1220.8 us.
        let t = p.tx_time(1500);
        assert!((t.as_micros() as i64 - 1220).abs() <= 1, "{t:?}");
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let mut rng = Rng::new(1);
        let mut link = Link::new(NodeId(0), NodeId(1), quiet_params());
        let t0 = SimTime::ZERO;
        let a1 = match link.transmit(t0, 1500, &mut rng) {
            TxResult::Arrives(t) => t,
            _ => panic!("dropped"),
        };
        let a2 = match link.transmit(t0, 1500, &mut rng) {
            TxResult::Arrives(t) => t,
            _ => panic!("dropped"),
        };
        let gap = a2 - a1;
        let service = quiet_params().tx_time(1500);
        assert_eq!(gap.as_nanos(), service.as_nanos(), "second frame queues");
    }

    #[test]
    fn queue_overflow_drops() {
        let mut rng = Rng::new(2);
        let mut p = quiet_params();
        p.queue_capacity_bytes = 4000;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let t0 = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..6 {
            if link.transmit(t0, 1500, &mut rng) == TxResult::Dropped {
                drops += 1;
            }
        }
        assert!(
            drops >= 3,
            "only ~2 frames fit in 4000 bytes, got {drops} drops"
        );
        assert_eq!(link.stats().queue_drops, drops);
    }

    #[test]
    fn random_loss_rate_is_plausible() {
        let mut rng = Rng::new(3);
        let mut p = quiet_params();
        p.loss_prob = 0.1;
        p.queue_capacity_bytes = usize::MAX;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let mut lost = 0;
        for i in 0..5000 {
            let t = SimTime::from_millis(i * 2);
            if link.transmit(t, 100, &mut rng) == TxResult::Dropped {
                lost += 1;
            }
        }
        assert!((400..600).contains(&lost), "lost {lost} of 5000 at p=0.1");
    }

    #[test]
    fn background_load_adds_delay() {
        let mut rng = Rng::new(4);
        let mut busy = quiet_params();
        busy.bg_util = 0.4;
        let mut quiet_link = Link::new(NodeId(0), NodeId(1), quiet_params());
        let mut busy_link = Link::new(NodeId(0), NodeId(1), busy);
        let mut quiet_total = 0u64;
        let mut busy_total = 0u64;
        for i in 0..500 {
            let t = SimTime::from_millis(i * 10);
            if let TxResult::Arrives(a) = quiet_link.transmit(t, 1500, &mut rng) {
                quiet_total += (a - t).as_nanos();
            }
            if let TxResult::Arrives(a) = busy_link.transmit(t, 1500, &mut rng) {
                busy_total += (a - t).as_nanos();
            }
        }
        assert!(
            busy_total > quiet_total * 5 / 4,
            "40% background should add >25% delay ({busy_total} vs {quiet_total})"
        );
    }

    #[test]
    fn lost_frames_still_occupy_the_wire() {
        let mut rng = Rng::new(5);
        let mut p = quiet_params();
        p.loss_prob = 1.0;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let t0 = SimTime::ZERO;
        assert_eq!(link.transmit(t0, 1500, &mut rng), TxResult::Dropped);
        // The wire was busy even though the frame was lost.
        assert!(link.busy_until > t0);
    }
}

//! A simulated TCP with Jacobson congestion avoidance (`[Jacobson88a]`).
//!
//! The paper's provocative result is that a reliable virtual circuit with
//! dynamic RTO estimation and congestion control performs *well* as an
//! NFS transport, despite `[Chesson87]`-era expectations of excessive CPU
//! overhead. This module implements the sender/receiver state machine
//! the 4.3BSD Reno kernel would have provided: sequence space, cumulative
//! ACKs, slow start, congestion avoidance, fast retransmit, exponential
//! backoff with Karn's rule, and in-order delivery to the socket layer.
//!
//! Segments are exchanged as metadata + mbuf payload; the caller wraps
//! them in [`renofs_netsim::Datagram`]s. One retransmit timer per
//! connection is managed through `(deadline, generation)` pairs so stale
//! timer events can be recognized and ignored.
//!
//! A protocol step appends what it produces to a caller-owned
//! [`TcpOut`] (`send_into`, `on_segment_into`, `on_timer_into`), so a
//! caller that drains and reuses one allocates nothing per segment. The
//! by-value `send`, `on_segment` and `on_timer` wrap them with a fresh
//! one.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::TcpFlags;
use renofs_sim::{SimDuration, SimTime};

use crate::rto::SrttEstimator;

/// Wrapping sequence-number comparison: `a < b`.
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Wrapping sequence-number comparison: `a <= b`.
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Static TCP parameters.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (path MTU minus 40 bytes of headers).
    pub mss: usize,
    /// Receive window advertised to the peer, in bytes.
    pub recv_window: u32,
    /// RTO before the first RTT sample.
    pub initial_rto: SimDuration,
    /// RTO floor.
    pub min_rto: SimDuration,
    /// RTO ceiling.
    pub max_rto: SimDuration,
}

impl TcpConfig {
    /// Sensible defaults for a given MSS.
    pub fn for_mss(mss: usize) -> Self {
        TcpConfig {
            mss,
            recv_window: 24 * 1024,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(300),
            max_rto: SimDuration::from_secs(64),
        }
    }
}

/// A segment to transmit (the caller adds addressing).
#[derive(Debug)]
pub struct TcpSegment {
    /// Sequence number of the first payload byte (or of the SYN).
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Advertised window.
    pub window: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Payload bytes.
    pub payload: MbufChain,
}

/// Output of protocol steps: each appends its segments and data, and a
/// timer it arms replaces any armed before.
#[derive(Debug, Default)]
pub struct TcpOut {
    /// Segments to transmit, in order.
    pub segments: Vec<TcpSegment>,
    /// Re-arm the retransmit timer: absolute deadline + generation. The
    /// caller schedules it and feeds it back via [`TcpConn::on_timer`].
    pub arm_timer: Option<(SimTime, u64)>,
    /// In-order application data.
    pub received: Vec<MbufChain>,
}

impl TcpOut {
    /// Empties the output, keeping its capacity.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.arm_timer = None;
        self.received.clear();
    }
}

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Listen,
    SynSent,
    SynRcvd,
    Established,
}

/// Cumulative per-connection statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments sent (excluding pure ACKs).
    pub data_segments_sent: u64,
    /// Pure ACK segments sent.
    pub acks_sent: u64,
    /// Segments received.
    pub segments_received: u64,
    /// Retransmitted segments (timeout or fast retransmit).
    pub retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Payload bytes sent (first transmission only).
    pub bytes_sent: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
}

/// One TCP connection endpoint.
pub struct TcpConn {
    cfg: TcpConfig,
    state: State,
    // Send side.
    snd_una: u32,
    snd_nxt: u32,
    snd_max: u32,
    snd_buf: MbufChain,
    cwnd: f64,
    ssthresh: f64,
    peer_wnd: u32,
    dup_acks: u32,
    est: SrttEstimator,
    timing: Option<(u32, SimTime)>,
    backoff: u32,
    timer_gen: u64,
    timer_armed: bool,
    // Receive side.
    rcv_nxt: u32,
    ooo: Vec<(u32, MbufChain)>,
    meter: CopyMeter,
    stats: TcpStats,
}

impl TcpConn {
    fn new(cfg: TcpConfig, state: State, iss: u32) -> Self {
        TcpConn {
            cfg,
            state,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_buf: MbufChain::new(),
            cwnd: cfg.mss as f64,
            ssthresh: 64.0 * 1024.0,
            peer_wnd: cfg.mss as u32,
            dup_acks: 0,
            est: SrttEstimator::new(),
            timing: None,
            backoff: 0,
            timer_gen: 0,
            timer_armed: false,
            rcv_nxt: 0,
            ooo: Vec::new(),
            meter: CopyMeter::new(),
            stats: TcpStats::default(),
        }
    }

    /// Creates an active opener and emits its SYN.
    pub fn client(cfg: TcpConfig, iss: u32, now: SimTime) -> (Self, TcpOut) {
        let mut conn = TcpConn::new(cfg, State::SynSent, iss);
        let mut out = TcpOut::default();
        out.segments.push(TcpSegment {
            seq: conn.snd_nxt,
            ack: 0,
            window: cfg.recv_window,
            flags: TcpFlags {
                syn: true,
                ack: false,
                fin: false,
            },
            payload: MbufChain::new(),
        });
        conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
        conn.snd_max = conn.snd_nxt;
        out.arm_timer = Some(conn.arm_timer(now));
        (conn, out)
    }

    /// Creates a passive listener.
    pub fn server(cfg: TcpConfig, iss: u32) -> Self {
        TcpConn::new(cfg, State::Listen, iss)
    }

    /// Whether the connection is established.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Statistics so far.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Bytes copied inside the connection since last drained (small-mbuf
    /// copies when slicing the send buffer); the host charges these.
    pub fn take_copy_bytes(&mut self) -> u64 {
        self.meter.take().0
    }

    /// Unsent + unacknowledged bytes buffered.
    pub fn backlog(&self) -> usize {
        self.snd_buf.len()
    }

    /// Current effective RTO with backoff.
    fn rto(&self) -> SimDuration {
        let base = self
            .est
            .rto(4.0)
            .unwrap_or(self.cfg.initial_rto)
            .max(self.cfg.min_rto);
        let backed = base * (1u64 << self.backoff.min(6));
        backed.min(self.cfg.max_rto)
    }

    fn arm_timer(&mut self, now: SimTime) -> (SimTime, u64) {
        self.timer_gen += 1;
        self.timer_armed = true;
        (now + self.rto(), self.timer_gen)
    }

    fn ack_flags() -> TcpFlags {
        TcpFlags {
            syn: false,
            ack: true,
            fin: false,
        }
    }

    /// Queues application data and transmits whatever the windows allow.
    pub fn send(&mut self, data: MbufChain, now: SimTime) -> TcpOut {
        let mut out = TcpOut::default();
        self.send_into(data, now, &mut out);
        out
    }

    /// [`send`](Self::send), appending to `out`.
    pub fn send_into(&mut self, data: MbufChain, now: SimTime, out: &mut TcpOut) {
        self.snd_buf.append_chain(data);
        if self.state == State::Established {
            self.try_send(now, out);
        }
    }

    /// Transmits new data within `min(cwnd, peer_wnd)`.
    fn try_send(&mut self, now: SimTime, out: &mut TcpOut) {
        loop {
            let in_flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            let eff_wnd = (self.cwnd as usize).min(self.peer_wnd as usize);
            if eff_wnd <= in_flight {
                break;
            }
            let sendable = self.snd_buf.len().saturating_sub(in_flight);
            if sendable == 0 {
                break;
            }
            let n = sendable.min(self.cfg.mss).min(eff_wnd - in_flight);
            if n == 0 {
                break;
            }
            let payload = self.snd_buf.share_range(in_flight, n, &mut self.meter);
            out.segments.push(TcpSegment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                window: self.cfg.recv_window,
                flags: Self::ack_flags(),
                payload,
            });
            if self.timing.is_none() {
                self.timing = Some((self.snd_nxt, now));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
            if seq_lt(self.snd_max, self.snd_nxt) {
                self.snd_max = self.snd_nxt;
            }
            self.stats.data_segments_sent += 1;
            self.stats.bytes_sent += n as u64;
            if !self.timer_armed {
                out.arm_timer = Some(self.arm_timer(now));
            }
        }
    }

    /// Processes an incoming segment.
    pub fn on_segment(
        &mut self,
        seq: u32,
        ack: u32,
        window: u32,
        flags: TcpFlags,
        payload: MbufChain,
        now: SimTime,
    ) -> TcpOut {
        let mut out = TcpOut::default();
        self.on_segment_into(seq, ack, window, flags, payload, now, &mut out);
        out
    }

    /// [`on_segment`](Self::on_segment), appending to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_segment_into(
        &mut self,
        seq: u32,
        ack: u32,
        window: u32,
        flags: TcpFlags,
        payload: MbufChain,
        now: SimTime,
        out: &mut TcpOut,
    ) {
        self.stats.segments_received += 1;
        match self.state {
            State::Listen => {
                if flags.syn {
                    self.rcv_nxt = seq.wrapping_add(1);
                    out.segments.push(TcpSegment {
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        window: self.cfg.recv_window,
                        flags: TcpFlags {
                            syn: true,
                            ack: true,
                            fin: false,
                        },
                        payload: MbufChain::new(),
                    });
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.snd_max = self.snd_nxt;
                    self.state = State::SynRcvd;
                    out.arm_timer = Some(self.arm_timer(now));
                }
            }
            State::SynSent => {
                if flags.syn && flags.ack && ack == self.snd_nxt {
                    self.snd_una = ack;
                    self.rcv_nxt = seq.wrapping_add(1);
                    self.peer_wnd = window;
                    self.state = State::Established;
                    self.timer_armed = false;
                    self.backoff = 0;
                    // ACK the SYN-ACK; piggyback nothing.
                    out.segments.push(TcpSegment {
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        window: self.cfg.recv_window,
                        flags: Self::ack_flags(),
                        payload: MbufChain::new(),
                    });
                    self.stats.acks_sent += 1;
                    self.try_send(now, out);
                }
            }
            State::SynRcvd => {
                if flags.ack && ack == self.snd_nxt {
                    self.snd_una = ack;
                    self.peer_wnd = window;
                    self.state = State::Established;
                    self.timer_armed = false;
                    self.backoff = 0;
                    // The ACK may carry data already.
                    if !payload.is_empty() {
                        self.on_segment_into(seq, ack, window, flags, payload, now, out);
                    }
                    self.try_send(now, out);
                }
            }
            State::Established => {
                self.established_segment(seq, ack, window, flags, payload, now, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn established_segment(
        &mut self,
        seq: u32,
        ack: u32,
        window: u32,
        flags: TcpFlags,
        payload: MbufChain,
        now: SimTime,
        out: &mut TcpOut,
    ) {
        if flags.syn {
            // A retransmitted SYN-ACK: our final handshake ACK was lost.
            // Re-ACK so the peer can leave SYN-RCVD.
            out.segments.push(TcpSegment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                window: self.cfg.recv_window,
                flags: Self::ack_flags(),
                payload: MbufChain::new(),
            });
            self.stats.acks_sent += 1;
            let _ = now;
            return;
        }
        if flags.ack {
            self.peer_wnd = window;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_max) {
                // New data acknowledged.
                let acked = ack.wrapping_sub(self.snd_una) as usize;
                self.snd_buf.trim_front(acked);
                self.snd_una = ack;
                if seq_lt(self.snd_nxt, self.snd_una) {
                    self.snd_nxt = self.snd_una;
                }
                self.dup_acks = 0;
                self.backoff = 0;
                // RTT sample (Karn: only if the timed byte was not
                // retransmitted; retransmission clears `timing`).
                if let Some((tseq, t0)) = self.timing {
                    if seq_lt(tseq, ack) {
                        self.est.on_sample(now.since(t0));
                        self.timing = None;
                    }
                }
                // Congestion window growth.
                let mss = self.cfg.mss as f64;
                if self.cwnd < self.ssthresh {
                    self.cwnd += mss;
                } else {
                    self.cwnd += mss * mss / self.cwnd;
                }
                // Timer: re-arm if data remains outstanding, else stop.
                if self.snd_una == self.snd_max {
                    self.timer_armed = false;
                } else {
                    out.arm_timer = Some(self.arm_timer(now));
                }
                self.try_send(now, out);
            } else if ack == self.snd_una && payload.is_empty() && self.snd_una != self.snd_max {
                // Duplicate ACK while data is outstanding.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    self.fast_retransmit(now, out);
                }
            }
        }
        if !payload.is_empty() {
            self.ingest_payload(seq, payload, out);
            // ACK everything we have (immediate ACK policy).
            out.segments.push(TcpSegment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                window: self.cfg.recv_window,
                flags: Self::ack_flags(),
                payload: MbufChain::new(),
            });
            self.stats.acks_sent += 1;
        }
    }

    fn ingest_payload(&mut self, seq: u32, mut payload: MbufChain, out: &mut TcpOut) {
        // Trim any already-received prefix.
        if seq_lt(seq, self.rcv_nxt) {
            let overlap = self.rcv_nxt.wrapping_sub(seq) as usize;
            if overlap >= payload.len() {
                return; // Entirely old.
            }
            payload.trim_front(overlap);
        } else if seq != self.rcv_nxt {
            // Out of order: stash unless duplicate.
            if !self.ooo.iter().any(|&(s, _)| s == seq) {
                self.ooo.push((seq, payload));
                self.ooo.sort_by(|a, b| {
                    if seq_lt(a.0, b.0) {
                        std::cmp::Ordering::Less
                    } else if a.0 == b.0 {
                        std::cmp::Ordering::Equal
                    } else {
                        std::cmp::Ordering::Greater
                    }
                });
            }
            return;
        }
        self.stats.bytes_delivered += payload.len() as u64;
        self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
        out.received.push(payload);
        // Drain contiguous out-of-order segments.
        while let Some(idx) = self.ooo.iter().position(|&(s, _)| seq_le(s, self.rcv_nxt)) {
            let (s, mut data) = self.ooo.remove(idx);
            if seq_lt(s, self.rcv_nxt) {
                let overlap = self.rcv_nxt.wrapping_sub(s) as usize;
                if overlap >= data.len() {
                    continue;
                }
                data.trim_front(overlap);
            }
            self.stats.bytes_delivered += data.len() as u64;
            self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
            out.received.push(data);
        }
    }

    fn fast_retransmit(&mut self, now: SimTime, out: &mut TcpOut) {
        self.stats.fast_retransmits += 1;
        let flight = self.snd_max.wrapping_sub(self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.ssthresh;
        self.timing = None;
        self.retransmit_first(now, out);
    }

    /// Retransmits the segment at `snd_una`.
    fn retransmit_first(&mut self, now: SimTime, out: &mut TcpOut) {
        let outstanding = self.snd_max.wrapping_sub(self.snd_una) as usize;
        if outstanding == 0 {
            return;
        }
        let n = outstanding.min(self.cfg.mss).min(self.snd_buf.len());
        if n == 0 {
            return;
        }
        let payload = self.snd_buf.share_range(0, n, &mut self.meter);
        out.segments.push(TcpSegment {
            seq: self.snd_una,
            ack: self.rcv_nxt,
            window: self.cfg.recv_window,
            flags: Self::ack_flags(),
            payload,
        });
        self.stats.retransmits += 1;
        out.arm_timer = Some(self.arm_timer(now));
    }

    /// Handles a retransmit-timer event. Stale generations are ignored.
    pub fn on_timer(&mut self, gen: u64, now: SimTime) -> TcpOut {
        let mut out = TcpOut::default();
        self.on_timer_into(gen, now, &mut out);
        out
    }

    /// [`on_timer`](Self::on_timer), appending to `out`.
    pub fn on_timer_into(&mut self, gen: u64, now: SimTime, out: &mut TcpOut) {
        if !self.timer_armed || gen != self.timer_gen {
            renofs_sim::profile::census("TcpTimer", true);
            return;
        }
        match self.state {
            State::SynSent | State::SynRcvd => {
                // Re-send the SYN (or SYN-ACK).
                self.stats.timeouts += 1;
                self.backoff += 1;
                out.segments.push(TcpSegment {
                    seq: self.snd_una,
                    ack: if self.state == State::SynRcvd {
                        self.rcv_nxt
                    } else {
                        0
                    },
                    window: self.cfg.recv_window,
                    flags: TcpFlags {
                        syn: true,
                        ack: self.state == State::SynRcvd,
                        fin: false,
                    },
                    payload: MbufChain::new(),
                });
                out.arm_timer = Some(self.arm_timer(now));
            }
            State::Established => {
                if self.snd_una == self.snd_max {
                    self.timer_armed = false;
                    return;
                }
                self.stats.timeouts += 1;
                self.backoff += 1;
                let flight = self.snd_max.wrapping_sub(self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0 * self.cfg.mss as f64);
                self.cwnd = self.cfg.mss as f64;
                // Go-back-N from snd_una; Karn's rule voids the sample.
                self.snd_nxt = self.snd_una;
                self.timing = None;
                self.dup_acks = 0;
                self.retransmit_first(now, out);
            }
            State::Listen => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::for_mss(1460)
    }

    /// In-memory harness: exchanges segments between two endpoints with a
    /// fixed per-hop delay and an optional per-segment drop function.
    struct Wire {
        now: SimTime,
        a: TcpConn,
        b: TcpConn,
        a_rx: Vec<MbufChain>,
        b_rx: Vec<MbufChain>,
        timers: Vec<(bool, SimTime, u64)>,
        drop: Box<dyn FnMut(usize) -> bool>,
        count: usize,
    }

    impl Wire {
        fn new(drop: Box<dyn FnMut(usize) -> bool>) -> Self {
            let now = SimTime::from_millis(1);
            let (a, out) = TcpConn::client(cfg(), 1000, now);
            let b = TcpConn::server(cfg(), 9000);
            let mut w = Wire {
                now,
                a,
                b,
                a_rx: Vec::new(),
                b_rx: Vec::new(),
                timers: Vec::new(),
                drop,
                count: 0,
            };
            w.pump(out, true);
            w
        }

        /// Absorbs a protocol-step output produced by side `from_a`:
        /// received data goes to that side's rx buffer immediately (it is
        /// in order at creation time), timers are remembered, and
        /// segments are queued FIFO for the peer.
        fn absorb(
            &mut self,
            mut out: TcpOut,
            from_a: bool,
            q: &mut std::collections::VecDeque<(TcpSegment, bool)>,
        ) {
            let rx = if from_a {
                &mut self.a_rx
            } else {
                &mut self.b_rx
            };
            rx.append(&mut out.received);
            if let Some((deadline, gen)) = out.arm_timer {
                self.timers.push((from_a, deadline, gen));
            }
            for seg in out.segments {
                q.push_back((seg, from_a));
            }
        }

        /// Feeds `out` from side `from_a` into the peer and runs until
        /// both sides are quiescent (no segments, nothing outstanding).
        fn pump(&mut self, out: TcpOut, from_a: bool) {
            let mut q = std::collections::VecDeque::new();
            self.absorb(out, from_a, &mut q);
            for _ in 0..1_000_000 {
                if let Some((seg, seg_from_a)) = q.pop_front() {
                    self.count += 1;
                    let n = self.count;
                    if (self.drop)(n) {
                        continue;
                    }
                    self.now += SimDuration::from_millis(1);
                    let peer_is_a = !seg_from_a;
                    let sub = {
                        let peer = if peer_is_a { &mut self.a } else { &mut self.b };
                        peer.on_segment(
                            seg.seq,
                            seg.ack,
                            seg.window,
                            seg.flags,
                            seg.payload,
                            self.now,
                        )
                    };
                    self.absorb(sub, peer_is_a, &mut q);
                    continue;
                }
                // Queue drained: anything still outstanding?
                let a_stuck = self.a.snd_una != self.a.snd_max
                    || (self.a.state != State::Established && self.a.state != State::Listen);
                let b_stuck = self.b.snd_una != self.b.snd_max
                    || (self.b.state != State::Established && self.b.state != State::Listen);
                if !a_stuck && !b_stuck {
                    break;
                }
                // Fire the earliest pending timer.
                self.timers.sort_by_key(|&(_, d, _)| d);
                if self.timers.is_empty() {
                    break;
                }
                let (ta, deadline, gen) = self.timers.remove(0);
                self.now = self.now.max(deadline);
                let conn = if ta { &mut self.a } else { &mut self.b };
                let sub = conn.on_timer(gen, self.now);
                self.absorb(sub, ta, &mut q);
            }
        }

        fn send_a(&mut self, data: &[u8]) {
            let mut m = CopyMeter::new();
            self.now += SimDuration::from_millis(1);
            let out = self.a.send(MbufChain::from_slice(data, &mut m), self.now);
            self.pump(out, true);
        }

        fn b_received(&self) -> Vec<u8> {
            let mut v = Vec::new();
            for c in &self.b_rx {
                v.extend_from_slice(&c.to_vec_for_test());
            }
            v
        }
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let w = Wire::new(Box::new(|_| false));
        assert!(w.a.is_established());
        assert!(w.b.is_established());
    }

    #[test]
    fn in_order_bulk_transfer() {
        let mut w = Wire::new(Box::new(|_| false));
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        w.send_a(&data);
        assert_eq!(w.b_received(), data);
        assert_eq!(w.a.stats().retransmits, 0);
    }

    #[test]
    fn data_survives_segment_loss() {
        // Drop every 7th segment.
        let mut w = Wire::new(Box::new(|n| n % 7 == 0));
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 13 % 256) as u8).collect();
        w.send_a(&data);
        assert_eq!(
            w.b_received(),
            data,
            "stream delivered exactly despite loss"
        );
        let st = w.a.stats();
        assert!(st.retransmits > 0, "loss must have caused retransmits");
    }

    #[test]
    fn slow_start_opens_window() {
        let mut w = Wire::new(Box::new(|_| false));
        assert!((w.a.cwnd - 1460.0).abs() < 1.0, "starts at one MSS");
        w.send_a(&vec![0u8; 30_000]);
        assert!(w.a.cwnd > 4.0 * 1460.0, "cwnd grew: {}", w.a.cwnd);
    }

    #[test]
    fn timeout_collapses_cwnd() {
        let mut w = Wire::new(Box::new(|_| false));
        w.send_a(&vec![1u8; 20_000]);
        let grown = w.a.cwnd;
        // Now drop everything for a while to force a timeout.
        w.drop = Box::new(|_| true);
        let mut m = CopyMeter::new();
        let now2 = w.now + SimDuration::from_millis(1);
        let out = w.a.send(MbufChain::from_slice(&[7u8; 1000], &mut m), now2);
        // Emulate the timer firing directly.
        let (deadline, gen) = out.arm_timer.expect("timer armed for new data");
        let to_out = w.a.on_timer(gen, deadline);
        assert_eq!(to_out.segments.len(), 1, "retransmits first segment");
        assert!(w.a.cwnd < grown, "cwnd collapsed after timeout");
        assert!((w.a.cwnd - 1460.0).abs() < 1.0);
        assert_eq!(w.a.stats().timeouts, 1);
    }

    #[test]
    fn stale_timer_generation_ignored() {
        let mut w = Wire::new(Box::new(|_| false));
        w.send_a(b"hello");
        // All data acked; any old generation must be a no-op.
        let out = w.a.on_timer(0, w.now + SimDuration::from_secs(10));
        assert!(out.segments.is_empty());
        assert_eq!(w.a.stats().timeouts, 0);
    }

    #[test]
    fn rtt_estimator_gets_samples() {
        let mut w = Wire::new(Box::new(|_| false));
        w.send_a(&vec![0u8; 10_000]);
        assert!(w.a.est.has_sample(), "bulk transfer must time an RTT");
    }

    #[test]
    fn bidirectional_transfer() {
        let mut w = Wire::new(Box::new(|_| false));
        let mut m = CopyMeter::new();
        w.send_a(b"ping");
        let now = w.now + SimDuration::from_millis(1);
        let out = w.b.send(MbufChain::from_slice(b"pong!", &mut m), now);
        w.pump(out, false);
        assert_eq!(w.b_received(), b"ping");
        let a_got: Vec<u8> = w.a_rx.iter().flat_map(|c| c.to_vec_for_test()).collect();
        assert_eq!(a_got, b"pong!");
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        // Deliver segments to a receiver manually, out of order.
        let mut b = TcpConn::server(cfg(), 500);
        let now = SimTime::from_millis(5);
        // Handshake by hand.
        let syn = b.on_segment(
            100,
            0,
            24 * 1024,
            TcpFlags {
                syn: true,
                ack: false,
                fin: false,
            },
            MbufChain::new(),
            now,
        );
        assert_eq!(syn.segments.len(), 1);
        let _ = b.on_segment(
            101,
            501,
            24 * 1024,
            TcpConn::ack_flags(),
            MbufChain::new(),
            now,
        );
        assert!(b.is_established());
        let mut m = CopyMeter::new();
        // Segment 2 arrives before segment 1.
        let out2 = b.on_segment(
            101 + 4,
            501,
            24 * 1024,
            TcpConn::ack_flags(),
            MbufChain::from_slice(b"5678", &mut m),
            now,
        );
        assert!(out2.received.is_empty(), "held out of order");
        let out1 = b.on_segment(
            101,
            501,
            24 * 1024,
            TcpConn::ack_flags(),
            MbufChain::from_slice(b"1234", &mut m),
            now,
        );
        let got: Vec<u8> = out1
            .received
            .iter()
            .flat_map(|c| c.to_vec_for_test())
            .collect();
        assert_eq!(got, b"12345678");
    }

    #[test]
    fn duplicate_data_not_redelivered() {
        let mut w = Wire::new(Box::new(|_| false));
        w.send_a(b"abcdef");
        let before = w.b_received();
        // Replay the same bytes (e.g. a spurious retransmission).
        let mut m = CopyMeter::new();
        let now = w.now + SimDuration::from_millis(1);
        let out = w.b.on_segment(
            1001,        // original first data seq (iss=1000, +1 for SYN)
            w.b.rcv_nxt, // arbitrary valid-ish ack
            24 * 1024,
            TcpConn::ack_flags(),
            MbufChain::from_slice(b"abcdef", &mut m),
            now,
        );
        assert!(out.received.is_empty(), "old bytes discarded");
        assert_eq!(w.b_received(), before);
    }
}

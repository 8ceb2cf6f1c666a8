//! Property tests: TCP delivers the exact byte stream under arbitrary
//! loss patterns, stepping it into reused outputs changes nothing it
//! emits, and the congestion window obeys AIMD bounds.

use std::collections::VecDeque;

use proptest::prelude::*;
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::TcpFlags;
use renofs_sim::{SimDuration, SimTime};
use renofs_transport::{CongWindow, TcpConfig, TcpConn, TcpOut, TcpSegment};

/// One thing an endpoint's step produced.
#[derive(Debug, PartialEq)]
enum Emitted {
    Segment {
        seq: u32,
        ack: u32,
        window: u32,
        flags: TcpFlags,
        payload: Vec<u8>,
    },
    Timer(SimTime, u64),
    Delivered(Vec<u8>),
}

/// One protocol step's input.
enum Step {
    Send(MbufChain),
    Segment(TcpSegment),
    Timer(u64),
}

struct Harness {
    now: SimTime,
    a: TcpConn,
    b: TcpConn,
    received: Vec<u8>,
    timers: Vec<(bool, SimTime, u64)>,
    count: usize,
    losses: Vec<bool>,
    drops_in_row: [usize; 2],
    /// Step through the `_into` forms with one reused output per
    /// endpoint (`outs[1]` is `a`'s), rather than the by-value forms.
    reuse: bool,
    outs: [TcpOut; 2],
    /// Everything either endpoint produced, in order, with `true` for `a`.
    log: Vec<(bool, Emitted)>,
}

impl Harness {
    fn new(losses: Vec<bool>, reuse: bool) -> Self {
        let cfg = TcpConfig::for_mss(1460);
        let now = SimTime::from_millis(1);
        let (a, mut out) = TcpConn::client(cfg, 1, now);
        let b = TcpConn::server(cfg, 70_000);
        let mut h = Harness {
            now,
            a,
            b,
            received: Vec::new(),
            timers: Vec::new(),
            count: 0,
            losses,
            drops_in_row: [0; 2],
            reuse,
            outs: Default::default(),
            log: Vec::new(),
        };
        let mut q = VecDeque::new();
        h.absorb(&mut out, true, &mut q);
        h.pump(q);
        h
    }

    fn drop_next(&mut self, from_a: bool) -> bool {
        let i = self.count;
        self.count += 1;
        // The handshake must survive; start dropping after it. Bound
        // consecutive drops *per direction* so the pattern cannot
        // degenerate into an adversary that eats every retransmission
        // (or every returning ACK) forever — something no physical
        // network does.
        let dir = usize::from(from_a);
        let want_drop = i >= 3
            && self
                .losses
                .get(i % self.losses.len().max(1))
                .copied()
                .unwrap_or(false);
        if want_drop && self.drops_in_row[dir] < 4 {
            self.drops_in_row[dir] += 1;
            true
        } else {
            self.drops_in_row[dir] = 0;
            false
        }
    }

    /// Logs `out` and drains it: `b`'s deliveries join the received
    /// stream, timers are remembered and segments queue for the peer.
    fn absorb(&mut self, out: &mut TcpOut, from_a: bool, q: &mut VecDeque<(TcpSegment, bool)>) {
        for chunk in out.received.drain(..) {
            let bytes = chunk.to_vec_for_test();
            if !from_a {
                self.received.extend_from_slice(&bytes);
            }
            self.log.push((from_a, Emitted::Delivered(bytes)));
        }
        if let Some((deadline, gen)) = out.arm_timer.take() {
            self.timers.push((from_a, deadline, gen));
            self.log.push((from_a, Emitted::Timer(deadline, gen)));
        }
        for seg in out.segments.drain(..) {
            self.log.push((
                from_a,
                Emitted::Segment {
                    seq: seg.seq,
                    ack: seg.ack,
                    window: seg.window,
                    flags: seg.flags,
                    payload: seg.payload.to_vec_for_test(),
                },
            ));
            q.push_back((seg, from_a));
        }
    }

    /// Runs `step` on endpoint `a` (or `b`) and absorbs what it produced.
    fn step(&mut self, on_a: bool, step: Step, q: &mut VecDeque<(TcpSegment, bool)>) {
        let now = self.now;
        let conn = if on_a { &mut self.a } else { &mut self.b };
        let mut out = std::mem::take(&mut self.outs[usize::from(on_a)]);
        if self.reuse {
            out.clear();
            match step {
                Step::Send(data) => conn.send_into(data, now, &mut out),
                Step::Segment(s) => {
                    conn.on_segment_into(s.seq, s.ack, s.window, s.flags, s.payload, now, &mut out)
                }
                Step::Timer(gen) => conn.on_timer_into(gen, now, &mut out),
            }
        } else {
            out = match step {
                Step::Send(data) => conn.send(data, now),
                Step::Segment(s) => {
                    conn.on_segment(s.seq, s.ack, s.window, s.flags, s.payload, now)
                }
                Step::Timer(gen) => conn.on_timer(gen, now),
            };
        }
        self.absorb(&mut out, on_a, q);
        self.outs[usize::from(on_a)] = out;
    }

    fn pump(&mut self, mut q: VecDeque<(TcpSegment, bool)>) {
        for _ in 0..200_000 {
            if let Some((seg, seg_from_a)) = q.pop_front() {
                if self.drop_next(seg_from_a) {
                    continue;
                }
                self.now += SimDuration::from_millis(1);
                self.step(!seg_from_a, Step::Segment(seg), &mut q);
                continue;
            }
            let a_done = self.a.backlog() == 0 && self.a.is_established();
            if a_done {
                break;
            }
            self.timers.sort_by_key(|&(_, d, _)| d);
            if self.timers.is_empty() {
                break;
            }
            let (ta, deadline, gen) = self.timers.remove(0);
            self.now = self.now.max(deadline);
            self.step(ta, Step::Timer(gen), &mut q);
        }
    }

    fn send(&mut self, data: &[u8]) {
        let mut m = CopyMeter::new();
        self.now += SimDuration::from_millis(1);
        let mut q = VecDeque::new();
        self.step(
            true,
            Step::Send(MbufChain::from_slice(data, &mut m)),
            &mut q,
        );
        self.pump(q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever pattern of segment loss, the receiver sees exactly the
    /// sent byte stream, in order.
    #[test]
    fn stream_exact_under_loss(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6000), 1..5),
        losses in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut h = Harness::new(losses, false);
        let mut expected = Vec::new();
        for c in &chunks {
            h.send(c);
            expected.extend_from_slice(c);
        }
        prop_assert_eq!(&h.received, &expected);
    }

    /// The `_into` forms with one reused output per endpoint produce what
    /// the by-value forms do: every segment (sequence, ack, window, flags
    /// and payload bytes), timer and delivery, and both endpoints' stats.
    #[test]
    fn into_forms_match_by_value_under_loss(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6000), 1..5),
        losses in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let run = |reuse| {
            let mut h = Harness::new(losses.clone(), reuse);
            for c in &chunks {
                h.send(c);
            }
            (h.log, h.a.stats(), h.b.stats())
        };
        let (by_value, into) = (run(false), run(true));
        prop_assert!(!by_value.0.is_empty());
        prop_assert_eq!(by_value, into);
    }

    /// AIMD: the window never exceeds its cap, never drops below one,
    /// and halving after growth lands within the expected bounds.
    #[test]
    fn congestion_window_bounds(ops in proptest::collection::vec(any::<bool>(), 1..500)) {
        let cap = 16;
        let mut w = CongWindow::paper(cap);
        for &reply in &ops {
            if reply {
                w.on_reply();
            } else {
                let before = w.window();
                w.on_timeout();
                prop_assert!(w.window() <= before / 2 + 1);
            }
            prop_assert!(w.window() >= 1);
            prop_assert!(w.window() <= cap);
        }
    }
}

//! Property test: [`EventQueue`] against the model its contract
//! describes — a list kept sorted by `(time, seq)`, equal times in arrival
//! order, popped from the front.
//!
//! Random interleavings of pushes and pops, with simultaneous events,
//! past-time pushes (which clamp to `now`), bursts that take the pending
//! set from empty to a few thousand deep, and drains back to empty.
//!
//! The queue keeps its earliest entry in a front slot beside the heap, so
//! everything a caller can observe — the head, the depth, the clock, the
//! high-water mark — is compared with the model after *every* operation,
//! and two schedule shapes live in the slot: the hop chain (each pop
//! schedules the next-earliest event) and the displacement (a push earlier
//! than the slot's occupant).

use std::collections::VecDeque;

use proptest::prelude::*;
use renofs_sim::{EventQueue, SimTime};

/// The reference: `(time, id)` sorted by time, ties in arrival order.
#[derive(Default)]
struct Model {
    now: SimTime,
    pending: VecDeque<(SimTime, u32)>,
}

impl Model {
    fn push(&mut self, at: SimTime, id: u32) {
        let time = at.max(self.now);
        let after = self.pending.partition_point(|&(t, _)| t <= time);
        self.pending.insert(after, (time, id));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let head = self.pending.pop_front()?;
        self.now = head.0;
        Some(head)
    }
}

/// Queue and model fed the same schedule.
#[derive(Default)]
struct Pair {
    q: EventQueue<u32>,
    model: Model,
    pushed: u32,
    /// The model's running maximum depth.
    peak: usize,
}

impl Pair {
    fn push(&mut self, at: SimTime) -> Result<(), TestCaseError> {
        let id = self.pushed;
        self.pushed += 1;
        self.q.push(at, id);
        self.model.push(at, id);
        self.check()
    }

    fn pop(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.q.pop(), self.model.pop());
        self.check()
    }

    /// Everything observable, after every operation.
    fn check(&mut self) -> Result<(), TestCaseError> {
        let head = self.model.pending.front().map(|&(t, _)| t);
        prop_assert_eq!(self.q.peek(), head);
        prop_assert_eq!(self.q.len(), self.model.pending.len());
        prop_assert_eq!(self.q.is_empty(), self.model.pending.is_empty());
        prop_assert_eq!(self.q.now(), self.model.now);
        self.peak = self.peak.max(self.model.pending.len());
        prop_assert_eq!(self.q.peak_depth(), self.peak);
        Ok(())
    }

    /// Drains to empty, pops once beyond it, and checks the pop count.
    fn finish(mut self) -> Result<(), TestCaseError> {
        while !self.q.is_empty() {
            self.pop()?;
        }
        prop_assert_eq!(self.q.pops(), u64::from(self.pushed));
        self.pop()
    }
}

fn run_schedule(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut p = Pair::default();
    let mut last_push = SimTime::ZERO;
    for &(kind, raw) in ops {
        match kind % 16 {
            // Ahead of the clock: microseconds to tens of seconds.
            0..=2 => {
                last_push = SimTime::from_nanos(p.q.now().as_nanos() + raw % 66_000);
                p.push(last_push)?;
            }
            3 | 4 => {
                last_push = SimTime::from_nanos(p.q.now().as_nanos() + raw % 30_000_000_000);
                p.push(last_push)?;
            }
            // A tie with the previous push.
            5 | 6 => p.push(last_push)?,
            // An absolute time, often in the past.
            7 | 8 => {
                last_push = SimTime::from_nanos(raw % 2_000_000_000);
                p.push(last_push)?;
            }
            // A burst, a few of them at one instant.
            9 => {
                for i in 0..raw % 600 {
                    let at = p.q.now().as_nanos() + (raw >> 16).wrapping_mul(i / 3) % 268_000_000;
                    p.push(SimTime::from_nanos(at))?;
                }
            }
            // A drain to empty, and one pop beyond it.
            10 if raw % 4 == 0 => {
                while !p.q.is_empty() {
                    p.pop()?;
                }
                p.pop()?;
            }
            _ => p.pop()?,
        }
    }
    p.finish()
}

/// The frame path's shape: over a backlog of far-off timers, each pop
/// schedules one event a little after `now` and before everything pending —
/// it belongs in the front slot — and now and then one that does not.
fn run_hop_chain(backlog: usize, hops: &[(u16, u8)]) -> Result<(), TestCaseError> {
    let mut p = Pair::default();
    for i in 0..backlog as u64 {
        p.push(SimTime::from_nanos(20_000_000_000 + i * 7))?;
    }
    p.push(SimTime::from_nanos(1))?;
    for &(gap, kind) in hops {
        p.pop()?;
        let next = SimTime::from_nanos(p.q.now().as_nanos() + u64::from(gap));
        p.push(next)?;
        match kind % 8 {
            // A second event behind the first: the slot is taken.
            0 => p.push(next)?,
            // One ahead of it: the occupant is displaced into the heap.
            1 => p.push(p.q.now())?,
            // A timer, far behind everything.
            2 => p.push(SimTime::from_nanos(next.as_nanos() + 40_000_000_000))?,
            _ => {}
        }
    }
    p.finish()
}

/// Pushes around the slot's occupant: earlier (displaces it), at its own
/// time (queues behind it: an equal time never displaces) and just after.
fn run_displacement(steps: &[(u8, u16)]) -> Result<(), TestCaseError> {
    let mut p = Pair::default();
    let mut head = SimTime::from_nanos(1_000_000);
    p.push(head)?;
    for &(kind, delta) in steps {
        match kind % 6 {
            0 => {
                head = SimTime::from_nanos(head.as_nanos().saturating_sub(u64::from(delta)));
                p.push(head)?;
            }
            1 | 2 => p.push(head)?,
            3 => p.push(SimTime::from_nanos(head.as_nanos() + 1))?,
            _ => {
                p.pop()?;
                if let Some(&(t, _)) = p.model.pending.front() {
                    head = t;
                } else {
                    head = SimTime::from_nanos(p.q.now().as_nanos() + 1_000_000);
                    p.push(head)?;
                }
            }
        }
    }
    p.finish()
}

proptest! {
    /// The queue pops the model's stream under arbitrary interleavings.
    #[test]
    fn queue_matches_sorted_list_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..500),
    ) {
        run_schedule(&ops)?;
    }

    /// Hop chains: most pushes land in the front slot.
    #[test]
    fn hop_chain_matches_model(
        backlog in 0usize..150,
        hops in proptest::collection::vec((1u16..2_000, any::<u8>()), 100..600),
    ) {
        run_hop_chain(backlog, &hops)?;
    }

    /// Displacements: pushes that beat the slot's occupant, or tie with it.
    #[test]
    fn displacement_matches_model(
        steps in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..300),
    ) {
        run_displacement(&steps)?;
    }

    /// A recorded trace holds every logical push and pop, slot or heap:
    /// replaying it pops as many events as the live queue did.
    #[test]
    fn replay_pops_what_the_live_queue_popped(
        ops in proptest::collection::vec((any::<u8>(), 0u64..5_000_000), 1..600),
    ) {
        let mut q: EventQueue<()> = EventQueue::new();
        q.start_trace();
        let mut pushes = 0;
        for &(kind, at) in &ops {
            if kind % 3 == 0 {
                q.pop();
            } else {
                // Hops (just after `now`) and absolute times, some past.
                let at = if kind % 3 == 1 { q.now().as_nanos() + at % 500 } else { at };
                q.push(SimTime::from_nanos(at), ());
                pushes += 1;
            }
        }
        let trace = q.take_trace();
        prop_assert_eq!(trace.len() as u64, pushes + q.pops());
        prop_assert_eq!(EventQueue::replay(&trace), q.pops());
    }

    /// Pure-burst schedules: many pushes at one instant pop FIFO.
    #[test]
    fn simultaneous_bursts_are_fifo(
        n in 1usize..200,
        at in 0u64..3_000_000_000,
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let t = SimTime::from_nanos(at);
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some((t, i)));
        }
    }
}

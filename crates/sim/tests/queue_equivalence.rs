//! Property test: [`EventQueue`] against the model its contract
//! describes — a list kept sorted by `(time, seq)`, equal times in arrival
//! order, popped from the front.
//!
//! Random interleavings of pushes, pops, cancels and events run in place,
//! with simultaneous
//! events, past-time pushes (which clamp to `now`), bursts that take the
//! pending set from empty to a few thousand deep, and drains back to
//! empty. A cancel names a random pending event — the front slot's
//! occupant, the heap's top or a key deep in it — or one already popped
//! or cancelled, which must do nothing; a storm of them leaves the heap
//! more dead than live, so it is rebuilt. An event run in place is, in the
//! model, a push followed at once by a pop when that pop would return it,
//! and nothing at all otherwise.
//!
//! The queue keeps its earliest entry in a front slot beside the heap, so
//! everything a caller can observe — the head, the depth, the clock, the
//! high-water mark — is compared with the model after *every* operation,
//! and two schedule shapes live in the slot: the hop chain (each pop
//! schedules the next-earliest event) and the displacement (a push earlier
//! than the slot's occupant).

use std::collections::VecDeque;

use proptest::prelude::*;
use renofs_sim::{EventQueue, SimTime, Token};

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

    /// Removes `id` if it is pending, and says whether it was.
    fn cancel(&mut self, id: u32) -> bool {
        let at = self.pending.iter().position(|&(_, i)| i == id);
        at.map(|at| self.pending.remove(at)).is_some()
    }
}

/// Queue and model fed the same schedule.
#[derive(Default)]
struct Pair {
    q: EventQueue<u32>,
    model: Model,
    pushed: u32,
    /// Every push's token, by id.
    tokens: Vec<Token>,
    cancelled: u64,
    /// Events run in place.
    inlined: u64,
    /// The model's running maximum depth.
    peak: usize,
}

impl Pair {
    fn push(&mut self, at: SimTime) -> Result<(), TestCaseError> {
        let id = self.pushed;
        self.pushed += 1;
        self.tokens.push(self.q.push(at, id));
        self.model.push(at, id);
        self.check()
    }

    /// Cancels push `id`, pending or not: queue and model must agree.
    fn cancel(&mut self, id: u32) -> Result<(), TestCaseError> {
        let removed = self.q.cancel(self.tokens[id as usize]);
        prop_assert_eq!(removed, self.model.cancel(id));
        self.cancelled += u64::from(removed);
        self.check()
    }

    /// Cancels the pending event at `pick` (mod the depth) in pop order.
    fn cancel_pending(&mut self, pick: u64) -> Result<(), TestCaseError> {
        let n = self.model.pending.len() as u64;
        match self.model.pending.get((pick % n.max(1)) as usize) {
            Some(&(_, id)) => self.cancel(id),
            None => Ok(()),
        }
    }

    /// Offers an event due at `at` to run in place: the model pushes it,
    /// pops it if it is now the head and takes it back otherwise.
    fn run_inline(&mut self, at: SimTime) -> Result<bool, TestCaseError> {
        const ID: u32 = u32::MAX;
        self.model.push(at, ID);
        let next = self.model.pending.front().is_some_and(|&(_, id)| id == ID);
        if next {
            self.peak = self.peak.max(self.model.pending.len());
            self.model.pop();
            self.inlined += 1;
        } else {
            self.model.cancel(ID);
        }
        prop_assert_eq!(self.q.run_inline(at), next);
        self.check()?;
        Ok(next)
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
        prop_assert_eq!(
            self.q.pops() + self.cancelled,
            u64::from(self.pushed) + self.inlined
        );
        self.pop()
    }
}

fn run_schedule(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut p = Pair::default();
    let mut last_push = SimTime::ZERO;
    for &(kind, raw) in ops {
        match kind % 18 {
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
            // A pending event, anywhere in pop order, or the head.
            11 | 12 => p.cancel_pending(raw)?,
            13 => p.cancel_pending(0)?,
            // Any earlier push: pending, popped or cancelled already.
            14 if p.pushed > 0 => p.cancel((raw % u64::from(p.pushed)) as u32)?,
            // A storm: a quarter to three quarters of the pending events,
            // enough to leave the heap more dead than live.
            15 => {
                let n = p.model.pending.len() as u64 * (raw % 3 + 1) / 4;
                for i in 0..n {
                    p.cancel_pending((raw >> 8).wrapping_add(i.wrapping_mul(0x9E37_79B9)))?;
                }
            }
            // In place: just ahead of the clock, or tied with the last push.
            16 => {
                p.run_inline(SimTime::from_nanos(p.q.now().as_nanos() + raw % 66_000))?;
            }
            17 => {
                p.run_inline(last_push)?;
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
        let mut next = SimTime::from_nanos(p.q.now().as_nanos() + u64::from(gap));
        // The world's shape: the hop runs in place when it is next in line,
        // and the hop it schedules is pushed.
        if kind % 8 == 5 && p.run_inline(next)? {
            next = SimTime::from_nanos(next.as_nanos() + u64::from(gap));
        }
        p.push(next)?;
        match kind % 8 {
            // A second event behind the first: the slot is taken.
            0 => p.push(next)?,
            // One ahead of it: the occupant is displaced into the heap.
            1 => p.push(p.q.now())?,
            // A timer, far behind everything.
            2 => p.push(SimTime::from_nanos(next.as_nanos() + 40_000_000_000))?,
            // The hop just scheduled (the slot's occupant when it beats
            // everything pending), then the same hop again.
            3 => {
                p.cancel(p.pushed - 1)?;
                p.push(next)?;
            }
            // A far-off timer from the backlog, re-armed.
            4 if !p.model.pending.is_empty() => {
                p.cancel_pending(u64::MAX)?;
                p.push(SimTime::from_nanos(next.as_nanos() + 40_000_000_000))?;
            }
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
        match kind % 9 {
            0 => {
                head = SimTime::from_nanos(head.as_nanos().saturating_sub(u64::from(delta)));
                p.push(head)?;
            }
            1 | 2 => p.push(head)?,
            3 => p.push(SimTime::from_nanos(head.as_nanos() + 1))?,
            // The head: the slot's occupant, or the heap's top.
            4 => {
                p.cancel_pending(0)?;
                if let Some(&(t, _)) = p.model.pending.front() {
                    head = t;
                } else {
                    p.push(head)?;
                }
            }
            // In place: at the head's own time (refused), or before it.
            7 => {
                p.run_inline(head)?;
            }
            8 => {
                p.run_inline(SimTime::from_nanos(
                    head.as_nanos().saturating_sub(u64::from(delta)),
                ))?;
            }
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
    // Debug keeps the tier-1 run quick; `scripts/check.sh` runs the full
    // count in release.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

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

    /// A recorded trace holds every logical push, pop and cancel, slot or
    /// heap, and nothing of an event run in place: replaying it pops as
    /// many events as the live queue popped.
    #[test]
    fn replay_pops_what_the_live_queue_popped(
        ops in proptest::collection::vec((any::<u8>(), 0u64..5_000_000), 1..600),
    ) {
        let mut q: EventQueue<()> = EventQueue::new();
        q.start_trace();
        let mut tokens = Vec::new();
        let mut cancels = 0;
        let mut inlined = 0;
        for &(kind, at) in &ops {
            match kind % 5 {
                0 => {
                    q.pop();
                }
                // Any earlier push: only a pending one is recorded.
                3 if !tokens.is_empty() => {
                    cancels += u64::from(q.cancel(tokens[at as usize % tokens.len()]));
                }
                4 => inlined += u64::from(q.run_inline(SimTime::from_nanos(q.now().as_nanos() + at % 500))),
                // Hops (just after `now`) and absolute times, some past.
                k => {
                    let at = if k == 1 { q.now().as_nanos() + at % 500 } else { at };
                    tokens.push(q.push(SimTime::from_nanos(at), ()));
                }
            }
        }
        let trace = q.take_trace();
        let popped = q.pops() - inlined;
        prop_assert_eq!(trace.len() as u64, tokens.len() as u64 + popped + cancels);
        prop_assert_eq!(EventQueue::replay(&trace), popped);
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

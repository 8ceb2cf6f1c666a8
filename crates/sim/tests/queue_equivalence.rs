//! Property test: [`EventQueue`] against the model its contract
//! describes — a list kept sorted by `(time, seq)`, equal keys in arrival
//! order, popped from the front.
//!
//! Random interleavings of pushes and pops, with simultaneous events,
//! past-time pushes (which clamp to `now`), bursts that take the pending
//! set from empty to a few thousand deep, and drains back to empty. A case
//! feeds the queue either `push` or `push_keyed` throughout: the contract
//! forbids mixing them.

use std::collections::VecDeque;

use proptest::prelude::*;
use renofs_sim::{EventQueue, SimTime};

/// The reference: `(time, seq, id)` sorted by `(time, seq)`.
#[derive(Default)]
struct Model {
    now: SimTime,
    pending: VecDeque<(SimTime, u64, u32)>,
}

impl Model {
    fn push(&mut self, at: SimTime, seq: u64, id: u32) {
        let time = at.max(self.now);
        let after = self
            .pending
            .partition_point(|&(t, s, _)| (t, s) <= (time, seq));
        self.pending.insert(after, (time, seq, id));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        let head = self.pending.pop_front()?;
        self.now = head.0;
        Some(head)
    }
}

/// Queue and model fed the same schedule.
struct Pair {
    keyed: bool,
    q: EventQueue<u32>,
    model: Model,
    pushed: u32,
}

impl Pair {
    fn push(&mut self, at: SimTime, raw: u64) {
        let id = self.pushed;
        self.pushed += 1;
        if self.keyed {
            // Caller keys are unique but unrelated to arrival order, like
            // the PDES `(creator domain, creator seq)` keys.
            let key = ((raw % 8) << 40) | u64::from(id);
            self.q.push_keyed(at, key, id);
            self.model.push(at, key, id);
        } else {
            self.q.push(at, id);
            self.model.push(at, u64::from(id), id);
        }
    }

    fn pop(&mut self) -> Result<(), TestCaseError> {
        let expect = self.model.pop();
        prop_assert_eq!(self.q.peek_keyed(), expect.map(|(t, s, _)| (t, s)));
        prop_assert_eq!(self.q.peek_time(), expect.map(|(t, _, _)| t));
        if self.keyed {
            prop_assert_eq!(self.q.pop_keyed(), expect);
        } else {
            prop_assert_eq!(self.q.pop(), expect.map(|(t, _, id)| (t, id)));
        }
        prop_assert_eq!(self.q.now(), self.model.now);
        Ok(())
    }
}

fn run_schedule(keyed: bool, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut p = Pair {
        keyed,
        q: EventQueue::new(),
        model: Model::default(),
        pushed: 0,
    };
    let mut last_push = SimTime::ZERO;
    let mut peak = 0;
    for &(kind, raw) in ops {
        match kind % 16 {
            // Ahead of the clock: microseconds to tens of seconds.
            0..=2 => {
                last_push = SimTime::from_nanos(p.q.now().as_nanos() + raw % 66_000);
                p.push(last_push, raw);
            }
            3 | 4 => {
                last_push = SimTime::from_nanos(p.q.now().as_nanos() + raw % 30_000_000_000);
                p.push(last_push, raw);
            }
            // A tie with the previous push.
            5 | 6 => p.push(last_push, raw),
            // An absolute time, often in the past.
            7 | 8 => {
                last_push = SimTime::from_nanos(raw % 2_000_000_000);
                p.push(last_push, raw);
            }
            // A burst, a few of them at one instant.
            9 => {
                for i in 0..raw % 600 {
                    let at = p.q.now().as_nanos() + (raw >> 16).wrapping_mul(i / 3) % 268_000_000;
                    p.push(SimTime::from_nanos(at), raw.wrapping_add(i));
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
        prop_assert_eq!(p.q.len(), p.model.pending.len());
        prop_assert_eq!(p.q.is_empty(), p.model.pending.is_empty());
        peak = peak.max(p.q.len());
    }
    prop_assert_eq!(p.q.peak_depth(), peak);
    while !p.q.is_empty() {
        p.pop()?;
    }
    prop_assert_eq!(p.q.pops(), u64::from(p.pushed));
    p.pop()
}

proptest! {
    /// The queue pops the model's stream under arbitrary interleavings.
    #[test]
    fn queue_matches_sorted_list_model(
        keyed in any::<bool>(),
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..500),
    ) {
        run_schedule(keyed, &ops)?;
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

//! The pending-event set.
//!
//! The queue is keyed by `(time, sequence)`. The sequence number makes the
//! ordering of simultaneous events stable (FIFO in scheduling order), which
//! is what makes whole-simulation runs bit-for-bit reproducible.
//!
//! # Implementation
//!
//! [`EventQueue`] is a *front slot* beside a binary heap of 24-byte keys
//! `(time, seq, slot)` over a slab of events.
//!
//! **The front slot.** A handler mostly schedules the very next thing to
//! happen — a frame leaves one link and is due on the next before anything
//! else in the world is (61 % of the pops of an 8 KB READ over the 56 Kbps
//! path, 53 % of a LAN LOOKUP's, 46 % of a 1,024-client crowd's). So at
//! most one pending key, no later than everything in the heap, is held
//! aside: a push strictly earlier than the slot's occupant (or, the slot
//! empty, than the heap's head) takes the slot with no sift, displacing the
//! occupant into the heap, and a pop takes the slot first. The slot is never
//! refilled from the heap, so pop order is the heap's order by construction;
//! its occupant counts as pending everywhere a caller can look.
//!
//! **The heap and the slab.** An event is written once, into its slab slot,
//! on push and read once on pop; only keys are sifted or held aside. Freed
//! slots form an intrusive LIFO list (each holds the index of the next free
//! one), so the slab never grows past the peak pending depth and a pop's
//! slot — still warm in cache — is the next push's. The split dates from a
//! 296-byte event; it is 88 bytes now. A plain heap of whole entries (the
//! ROADMAP's queue-replay question) would have to beat a queue in which most
//! pops never reach the heap and the slot moves 24 bytes, not 104.
//!
//! Events pop in `(time, seq)` order and pushes in the past clamp to `now`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// What the heap sifts: the ordering key plus the event's slab slot.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(time, seq)` as one integer: one wide compare, no branch on `time`.
    fn rank(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        other.rank().cmp(&self.rank())
    }
}

/// One slab slot: a pending event, or a link in the free list.
enum Slot<E> {
    Full(E),
    /// Index of the next free slot, [`NO_SLOT`] at the end of the list.
    Free(u32),
}

/// End-of-list marker for the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// One recorded queue operation, for offline replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// A push at the given (pre-clamp) schedule time.
    Push(SimTime),
    /// A pop.
    Pop,
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use renofs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "b");
/// q.push(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    pops: u64,
    peak: usize,
    /// The front slot: a pending key no later than every key in `heap`.
    front: Option<Key>,
    heap: BinaryHeap<Key>,
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    trace: Option<Vec<QueueOp>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue that holds `cap` pending events before it
    /// allocates again.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            pops: 0,
            peak: 0,
            front: None,
            heap: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: NO_SLOT,
            trace: None,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at time `at`.
    ///
    /// Events scheduled in the past are clamped to the current time, so a
    /// zero-delay "immediate" event is always safe to post.
    pub fn push(&mut self, at: SimTime, event: E) {
        if let Some(t) = self.trace.as_mut() {
            t.push(QueueOp::Push(at));
        }
        let slot = match self.free {
            NO_SLOT => {
                assert!(self.slab.len() < NO_SLOT as usize, "event slab is full");
                self.slab.push(Slot::Full(event));
                (self.slab.len() - 1) as u32
            }
            slot => {
                let Slot::Free(next) = self.slab[slot as usize] else {
                    unreachable!("free list points at a pending event");
                };
                self.free = next;
                self.slab[slot as usize] = Slot::Full(event);
                slot
            }
        };
        let key = Key {
            time: at.max(self.now),
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        // Strictly earlier than everything pending takes the front slot;
        // the displaced occupant is no later than the heap, so it may join it.
        if self.head().is_none_or(|head| key.rank() < head.rank()) {
            if let Some(displaced) = self.front.replace(key) {
                self.heap.push(displaced);
            }
        } else {
            self.heap.push(key);
        }
        self.peak = self.peak.max(self.len());
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Key { time, slot, .. } = self.front.take().or_else(|| self.heap.pop())?;
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.pops += 1;
        if let Some(t) = self.trace.as_mut() {
            t.push(QueueOp::Pop);
        }
        crate::profile::count_event();
        let next_free = std::mem::replace(&mut self.free, slot);
        match std::mem::replace(&mut self.slab[slot as usize], Slot::Free(next_free)) {
            Slot::Full(event) => Some((time, event)),
            Slot::Free(_) => unreachable!("heap key points at a free slot"),
        }
    }

    /// The time of the earliest pending event, if any, without removing it.
    pub fn peek(&self) -> Option<SimTime> {
        self.head().map(|k| k.time)
    }

    /// The earliest pending key: the front slot's, else the heap's.
    fn head(&self) -> Option<&Key> {
        self.front.as_ref().or_else(|| self.heap.peek())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.head().is_none()
    }

    /// Total events popped over the queue's lifetime.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// High-water mark of pending events.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Starts recording `(push, pop)` operations for later replay.
    pub fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the operation stream.
    pub fn take_trace(&mut self) -> Vec<QueueOp> {
        self.trace.take().unwrap_or_default()
    }
}

impl EventQueue<()> {
    /// Replays a recorded operation stream, returning how many events
    /// were popped.
    pub fn replay(ops: &[QueueOp]) -> u64 {
        let mut q: EventQueue<()> = EventQueue::new();
        for op in ops {
            match *op {
                QueueOp::Push(at) => q.push(at, ()),
                QueueOp::Pop => {
                    q.pop();
                }
            }
        }
        q.pops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.now(), SimTime::from_millis(10));
        q.push(SimTime::from_millis(2), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, SimTime::from_millis(10), "clamped to now");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            if q.len() < 10 && t < SimTime::from_millis(5) {
                q.push(t + SimDuration::from_micros(100), ());
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn heap_key_is_24_bytes() {
        // The point of the key/slab split: a sift moves this, not the event.
        assert!(std::mem::size_of::<Key>() <= 24);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Rng::new(3);
        for i in 0..100_000u64 {
            let at = q.now() + SimDuration::from_nanos(rng.gen_range(0, 1_000_000));
            q.push(at, i);
            if q.len() == 8 || rng.gen_range(0, 2) == 0 {
                q.pop();
            }
        }
        assert!(q.peak_depth() <= 8);
        assert!(q.slab.capacity() <= 8, "slab grew to {}", q.slab.capacity());
        // Every slot is either pending or on the free list.
        let mut free = 0;
        let mut at = q.free;
        while at != NO_SLOT {
            let Slot::Free(next) = q.slab[at as usize] else {
                panic!("free list reaches a pending slot");
            };
            free += 1;
            at = next;
        }
        assert_eq!(free + q.len(), q.slab.len());
    }

    #[test]
    fn counters_trace_and_replay() {
        let mut q = EventQueue::new();
        q.start_trace();
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        q.pop();
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.pops(), 1);
        assert_eq!(
            q.take_trace(),
            vec![
                QueueOp::Push(SimTime::from_millis(1)),
                QueueOp::Push(SimTime::from_millis(2)),
                QueueOp::Pop,
            ]
        );
        assert!(q.take_trace().is_empty(), "tracing stopped");
    }

    #[test]
    fn replay_reproduces_the_traced_pop_count() {
        let mut q = EventQueue::new();
        q.start_trace();
        let mut rng = crate::rng::Rng::new(11);
        for _ in 0..2_000 {
            // Absolute times, so many land in the past and clamp.
            q.push(SimTime::from_nanos(rng.gen_range(0, 5_000_000)), ());
            if rng.gen_range(0, 3) == 0 {
                q.pop();
            }
        }
        let ops = q.take_trace();
        assert_eq!(ops.len() as u64, 2_000 + q.pops());
        assert_eq!(EventQueue::replay(&ops), q.pops());
    }
}

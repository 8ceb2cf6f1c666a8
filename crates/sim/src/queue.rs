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
//! one), so the slab never grows past the peak pending depth (and the dead
//! keys cancellation leaves, below) and a pop's slot — still warm in cache
//! — is the next push's. The split dates from a
//! 296-byte event; it is 88 bytes now. A plain heap of whole entries (the
//! ROADMAP's queue-replay question) would have to beat a queue in which most
//! pops never reach the heap and the slot moves 24 bytes, not 104.
//!
//! **Cancellation.** [`push`](EventQueue::push) returns a [`Token`], and
//! [`cancel`](EventQueue::cancel) removes the event it names while it is
//! pending: a re-armed retransmit timer takes back the one it replaces
//! instead of leaving it to pop stale. A cancelled front-slot occupant is
//! dropped outright. A cancelled heap key stays in the heap, its slot
//! marked dead, until it reaches the top — dead keys there are dropped at
//! once, so the head is always live — or until dead keys are more than 16
//! and outnumber the live ones, when the heap is rebuilt without them.
//! `len`, `peek`, `pops` and `peak_depth` see live events only.
//!
//! **Running in place.** [`run_inline`](EventQueue::run_inline) lets a
//! caller run an event it was about to push when nothing pending could pop
//! before it: the queue moves its clock and counts the pop, and the event
//! never touches the slot, the heap or the slab.
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

/// One slab slot: a pending event, a cancelled one whose key is still in
/// the heap, or a link in the free list.
enum Slot<E> {
    /// The event and its push's `seq`, which its [`Token`] names.
    Full(u64, E),
    Dead,
    /// Index of the next free slot, [`NO_SLOT`] at the end of the list.
    Free(u32),
}

/// End-of-list marker for the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// Dead heap keys tolerated before they may trigger a rebuild.
const DEAD_SLACK: usize = 16;

/// Names one pushed event, for [`EventQueue::cancel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    slot: u32,
    seq: u64,
}

/// One recorded queue operation, for offline replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// A push at the given (pre-clamp) schedule time.
    Push(SimTime),
    /// A pop.
    Pop,
    /// A cancel of the trace's n-th push (counting from 0).
    Cancel(u64),
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
/// let c = q.push(SimTime::from_millis(3), "c");
/// assert!(q.cancel(c));
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
    /// Live keys and cancelled ones; the top, if any, is live.
    heap: BinaryHeap<Key>,
    /// Keys in `heap` whose slot is [`Slot::Dead`].
    dead: usize,
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// The recorded operations, and the `seq` of the first push they hold.
    trace: Option<(u64, Vec<QueueOp>)>,
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
            dead: 0,
            slab: Vec::with_capacity(cap),
            free: NO_SLOT,
            trace: None,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at time `at`, and returns the token that cancels it.
    ///
    /// Events scheduled in the past are clamped to the current time, so a
    /// zero-delay "immediate" event is always safe to post.
    pub fn push(&mut self, at: SimTime, event: E) -> Token {
        if let Some((_, t)) = self.trace.as_mut() {
            t.push(QueueOp::Push(at));
        }
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free {
            NO_SLOT => {
                assert!(self.slab.len() < NO_SLOT as usize, "event slab is full");
                self.slab.push(Slot::Full(seq, event));
                (self.slab.len() - 1) as u32
            }
            slot => {
                let Slot::Free(next) = self.slab[slot as usize] else {
                    unreachable!("free list points at a pending event");
                };
                self.free = next;
                self.slab[slot as usize] = Slot::Full(seq, event);
                slot
            }
        };
        let key = Key {
            time: at.max(self.now),
            seq,
            slot,
        };
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
        Token { slot, seq }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Key { time, slot, .. } = match self.front.take() {
            Some(key) => key,
            None => {
                let key = self.heap.pop()?;
                self.drop_dead_top();
                key
            }
        };
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.pops += 1;
        if let Some((_, t)) = self.trace.as_mut() {
            t.push(QueueOp::Pop);
        }
        crate::profile::count_event();
        match self.release(slot) {
            Slot::Full(_, event) => Some((time, event)),
            _ => unreachable!("a live key points at a slot with no event"),
        }
    }

    /// Runs an event due at `at` without queueing it, if nothing pending
    /// would pop first: `at` (clamped to `now`) must be strictly earlier
    /// than every pending key, since on a tie the pending key's smaller
    /// `seq` wins. Then the clock moves to it and it counts as a pop (and
    /// towards the peak depth, as its push would have), but nothing is
    /// stored, no `seq` is taken and no operation is traced: the caller
    /// runs the event itself. Otherwise returns false and changes nothing.
    pub fn run_inline(&mut self, at: SimTime) -> bool {
        let time = at.max(self.now);
        if self.head().is_some_and(|head| head.time <= time) {
            return false;
        }
        self.peak = self.peak.max(self.len() + 1);
        self.now = time;
        self.pops += 1;
        crate::profile::count_event();
        true
    }

    /// Removes the event `token` names if it is still pending, and says
    /// whether it was; a popped or cancelled event's token does nothing.
    pub fn cancel(&mut self, token: Token) -> bool {
        let slot = token.slot as usize;
        if !matches!(self.slab.get(slot), Some(&Slot::Full(seq, _)) if seq == token.seq) {
            return false;
        }
        if let Some((base, t)) = self.trace.as_mut() {
            // A push from before the trace began is not in it.
            if let Some(n) = token.seq.checked_sub(*base) {
                t.push(QueueOp::Cancel(n));
            }
        }
        if self.front.is_some_and(|k| k.seq == token.seq) {
            self.front = None;
            self.release(token.slot);
        } else {
            self.slab[slot] = Slot::Dead;
            self.dead += 1;
            self.drop_dead_top();
            if self.dead > DEAD_SLACK && self.dead > self.heap.len() - self.dead {
                self.purge();
            }
        }
        true
    }

    /// Frees `slot` onto the free list, returning what it held.
    fn release(&mut self, slot: u32) -> Slot<E> {
        let next_free = std::mem::replace(&mut self.free, slot);
        std::mem::replace(&mut self.slab[slot as usize], Slot::Free(next_free))
    }

    /// Pops dead keys off the heap's top until a live one is there.
    fn drop_dead_top(&mut self) {
        // A queue that never cancels a heap key never looks.
        while self.dead > 0 {
            let Some(&Key { slot, .. }) = self.heap.peek() else {
                return;
            };
            if !matches!(self.slab[slot as usize], Slot::Dead) {
                return;
            }
            self.heap.pop();
            self.dead -= 1;
            self.release(slot);
        }
    }

    /// Rebuilds the heap without its dead keys, freeing their slots.
    fn purge(&mut self) {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.retain(|k| {
            let dead = matches!(self.slab[k.slot as usize], Slot::Dead);
            if dead {
                self.release(k.slot);
            }
            !dead
        });
        self.heap = BinaryHeap::from(keys);
        self.dead = 0;
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
        self.heap.len() - self.dead + usize::from(self.front.is_some())
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

    /// Starts recording push, pop and cancel operations for later replay.
    pub fn start_trace(&mut self) {
        self.trace = Some((self.seq, Vec::new()));
    }

    /// Stops recording and returns the operation stream.
    pub fn take_trace(&mut self) -> Vec<QueueOp> {
        self.trace.take().map(|(_, ops)| ops).unwrap_or_default()
    }
}

impl EventQueue<()> {
    /// Replays a recorded operation stream, returning how many events
    /// were popped.
    pub fn replay(ops: &[QueueOp]) -> u64 {
        let mut q: EventQueue<()> = EventQueue::new();
        // The n-th push's token, for the cancels that name it.
        let mut pushed = Vec::new();
        for op in ops {
            match *op {
                QueueOp::Push(at) => pushed.push(q.push(at, ())),
                QueueOp::Pop => {
                    q.pop();
                }
                QueueOp::Cancel(n) => {
                    q.cancel(pushed[n as usize]);
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
        let (full, free) = slots_pending_and_free(&q);
        assert_eq!((full, full + free), (q.len(), q.slab.len()));
    }

    /// Slots holding an event, and slots the free list reaches.
    fn slots_pending_and_free<E>(q: &EventQueue<E>) -> (usize, usize) {
        let mut free = 0;
        let mut at = q.free;
        while at != NO_SLOT {
            let Slot::Free(next) = q.slab[at as usize] else {
                panic!("free list reaches a pending slot");
            };
            free += 1;
            at = next;
        }
        let full = q
            .slab
            .iter()
            .filter(|s| matches!(s, Slot::Full(..)))
            .count();
        (full, free)
    }

    #[test]
    fn cancelling_the_front_occupant_drops_it() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "later");
        let front = q.push(SimTime::from_millis(1), "first");
        assert!(
            q.front.is_some_and(|k| k.seq == 1),
            "the earlier push took the slot"
        );
        assert!(q.cancel(front));
        assert!(q.front.is_none());
        assert_eq!((q.len(), q.peek()), (1, Some(SimTime::from_millis(5))));
        assert_eq!(slots_pending_and_free(&q), (1, 1));
        assert!(!q.cancel(front), "a cancelled token does nothing");
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "later")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pops(), 1);
    }

    #[test]
    fn a_dead_heap_top_is_dropped_at_once() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 1);
        let second = q.push(SimTime::from_millis(2), 2);
        let third = q.push(SimTime::from_millis(3), 3);
        q.push(SimTime::from_millis(4), 4);
        // Below the top: marked dead, left in the heap.
        assert!(q.cancel(third));
        assert_eq!((q.heap.len(), q.dead, q.len()), (3, 1, 3));
        // The top: dropped, and the dead key it uncovers with it.
        assert!(q.cancel(second));
        assert_eq!((q.heap.len(), q.dead, q.len()), (1, 0, 2));
        assert_eq!(slots_pending_and_free(&q), (2, 2));
        assert!(!q.cancel(third), "a dropped key's token does nothing");
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 4]);
    }

    #[test]
    fn dead_keys_past_half_rebuild_the_heap() {
        let mut q = EventQueue::new();
        let tokens: Vec<Token> = (0..64u64)
            .map(|i| q.push(SimTime::from_millis(1 + i), i))
            .collect();
        // Event 0 holds the front slot and event 1 the heap's top; cancel
        // the last 40, none of which is ever the top.
        for (k, &t) in tokens[24..].iter().enumerate() {
            assert!(q.cancel(t));
            let dead = k + 1;
            if dead < 32 {
                assert_eq!((q.dead, q.heap.len()), (dead, 63));
            } else if dead == 32 {
                // 32 dead against 31 live: rebuilt without them.
                assert_eq!((q.dead, q.heap.len()), (0, 31));
                assert_eq!(slots_pending_and_free(&q), (32, 32));
            }
        }
        assert_eq!((q.dead, q.heap.len(), q.len()), (8, 31, 24));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..24).collect::<Vec<_>>());
        assert_eq!(
            (q.dead, q.heap.len()),
            (0, 0),
            "dead keys left with the last live one"
        );
    }

    #[test]
    fn cancels_keep_the_slab_bounded_by_the_peak() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Rng::new(5);
        let mut pending: Vec<Token> = Vec::new();
        for i in 0..100_000u64 {
            let at = q.now() + SimDuration::from_nanos(rng.gen_range(0, 1_000_000));
            pending.push(q.push(at, i));
            if pending.len() >= 24 || rng.gen_range(0, 3) == 0 {
                let t = pending.swap_remove(rng.index(pending.len()));
                q.cancel(t);
            }
            if rng.gen_range(0, 4) == 0 {
                q.pop();
            }
        }
        assert!(q.peak_depth() <= 24);
        // Live keys, dead keys (at most the live ones or the slack) and
        // free slots: the slab never outgrows twice the peak and the slack.
        assert!(q.slab.len() <= 2 * q.peak_depth() + DEAD_SLACK);
        let (full, free) = slots_pending_and_free(&q);
        assert_eq!((full, full + free + q.dead), (q.len(), q.slab.len()));
    }

    #[test]
    fn run_inline_refuses_a_tie_with_the_front_slot() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(9), "heap");
        q.push(SimTime::from_millis(4), "front");
        assert!(q.front.is_some());
        assert!(!q.run_inline(SimTime::from_millis(4)));
        assert_eq!((q.now(), q.pops(), q.len()), (SimTime::ZERO, 0, 2));
        assert!(q.run_inline(SimTime::from_millis(3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), "front")));
    }

    #[test]
    fn run_inline_refuses_a_tie_with_the_heap_top() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2), 1);
        q.push(SimTime::from_millis(5), 2);
        q.pop();
        assert!(q.front.is_none());
        assert!(!q.run_inline(SimTime::from_millis(5)));
        assert_eq!((q.now(), q.pops()), (SimTime::from_millis(2), 1));
        // A time in the past clamps to `now`, which is earlier.
        assert!(q.run_inline(SimTime::from_millis(1)));
        assert_eq!((q.now(), q.pops()), (SimTime::from_millis(2), 2));
    }

    #[test]
    fn run_inline_on_an_empty_queue_accepts() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.run_inline(SimTime::from_millis(7)));
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!((q.pops(), q.peak_depth(), q.len()), (1, 1, 0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn run_inline_leaves_the_slab_untouched() {
        let mut q = EventQueue::new();
        q.start_trace();
        q.push(SimTime::from_millis(8), 8);
        q.push(SimTime::from_millis(9), 9);
        q.pop();
        let (slots, free, seq) = (q.slab.len(), q.free, q.seq);
        assert!(q.run_inline(SimTime::from_millis(8)));
        assert_eq!((q.slab.len(), q.free, q.seq), (slots, free, seq));
        assert_eq!(slots_pending_and_free(&q), (1, 1));
        assert_eq!(q.take_trace().len(), 3, "nothing traced");
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 9)));
    }

    #[test]
    fn counters_trace_and_replay() {
        let mut q = EventQueue::new();
        let before = q.push(SimTime::from_millis(9), ());
        q.start_trace();
        let first = q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        q.pop();
        assert!(!q.cancel(first), "already popped");
        let third = q.push(SimTime::from_millis(3), ());
        assert!(q.cancel(third));
        assert!(q.cancel(before), "pushed before the trace: not recorded");
        assert_eq!(q.peak_depth(), 3);
        assert_eq!(q.pops(), 1);
        assert_eq!(
            q.take_trace(),
            vec![
                QueueOp::Push(SimTime::from_millis(1)),
                QueueOp::Push(SimTime::from_millis(2)),
                QueueOp::Pop,
                QueueOp::Push(SimTime::from_millis(3)),
                QueueOp::Cancel(2),
            ]
        );
        assert!(q.take_trace().is_empty(), "tracing stopped");
    }

    #[test]
    fn replay_reproduces_the_traced_pop_count() {
        let mut q = EventQueue::new();
        q.start_trace();
        let mut rng = crate::rng::Rng::new(11);
        let mut tokens = Vec::new();
        let mut cancels = 0;
        for _ in 0..2_000 {
            // Absolute times, so many land in the past and clamp.
            tokens.push(q.push(SimTime::from_nanos(rng.gen_range(0, 5_000_000)), ()));
            if rng.gen_range(0, 3) == 0 {
                q.pop();
            }
            // Any earlier push: pending, popped or cancelled already.
            if rng.gen_range(0, 2) == 0 && q.cancel(tokens[rng.index(tokens.len())]) {
                cancels += 1;
            }
        }
        assert!(cancels > 300);
        let ops = q.take_trace();
        assert_eq!(ops.len() as u64, 2_000 + q.pops() + cancels);
        assert_eq!(EventQueue::replay(&ops), q.pops());
    }
}

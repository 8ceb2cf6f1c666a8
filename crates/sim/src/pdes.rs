//! Per-machine event domains and the order that merges them.
//!
//! A carved world splits its pending-event set into per-machine
//! *domains*: every client machine is one and the network with the server
//! machines (the hub) is another. Each domain owns a [`DomainQ`] — an
//! [`EventQueue`], a logical clock and a sequence counter — and stamps
//! every event it creates with a globally unique *canonical key*
//!
//! ```text
//! key = (creator domain id << SEQ_BITS) | creator sequence number
//! ```
//!
//! so every event in the world has a total order by `(time, key)` that
//! depends only on which domain created it and in what order. An event
//! that lands in another domain travels under its creator's key
//! ([`DomainQ::alloc_key`], [`DomainQ::push_incoming`]); the engine runs
//! the globally earliest event, found through a [`Heads`] tree over the
//! domain queues' heads, one at a time.
//!
//! That order equals each domain's own `(time, key)` order, however ties
//! between domains fall, because an event crossing a boundary arrives
//! strictly later than the one that emitted it: it rides a link, and link
//! carving floors that delay at [`MIN_LOOKAHEAD`] (1 ns). When a domain
//! runs its event at `t`, every event anywhere before `t` has run and
//! everything bound for the domain at or before `t` is already queued; two
//! events of different domains at one instant cannot see each other.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Bits of the canonical key reserved for the creator's sequence number.
/// 2^40 events per domain comfortably exceeds any run this repo performs
/// (a 30-minute 1,024-client crowd world pops ~10^8 events *total*).
pub const SEQ_BITS: u32 = 40;

/// Smallest delay any inter-domain link may publish. A zero-delay link
/// would let an event act on another domain at its own instant, where the
/// order between the two domains' events is not defined; flooring at 1 ns
/// keeps every crossing strictly in the receiver's future.
pub const MIN_LOOKAHEAD: SimDuration = SimDuration::from_nanos(1);

/// Packs a creator `(domain, seq)` pair into a canonical event key.
#[inline]
pub fn event_key(dom: u32, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS, "domain sequence overflow");
    debug_assert!((dom as u64) < 1 << (64 - SEQ_BITS), "domain id overflow");
    ((dom as u64) << SEQ_BITS) | seq
}

/// The creator domain id of a canonical key.
#[inline]
pub fn key_domain(key: u64) -> u32 {
    (key >> SEQ_BITS) as u32
}

/// The creator sequence number of a canonical key.
#[inline]
pub fn key_seq(key: u64) -> u64 {
    key & ((1 << SEQ_BITS) - 1)
}

/// One simulation domain's pending-event set: an event queue ordered
/// by `(time, canonical key)`, a logical clock, and the sequence counter
/// that mints this domain's keys.
///
/// Locally scheduled events get this domain's next key via
/// [`push`](Self::push); messages from other domains arrive through
/// [`push_incoming`](Self::push_incoming) carrying the key their creator
/// minted. Pops advance the domain clock; pushes in the domain's past
/// clamp to the clock, matching the monolithic queue's contract.
pub struct DomainQ<E> {
    q: EventQueue<E>,
    seq: u64,
    clock: SimTime,
    dom: u32,
}

impl<E> DomainQ<E> {
    /// Creates an empty domain queue at t = 0.
    pub fn new(dom: u32) -> Self {
        Self::with_capacity(dom, 0)
    }

    /// Creates an empty domain queue with a backing-capacity hint.
    pub fn with_capacity(dom: u32, cap: usize) -> Self {
        DomainQ {
            q: EventQueue::with_capacity(cap),
            seq: 0,
            clock: SimTime::ZERO,
            dom,
        }
    }

    /// The domain's logical clock: the time of its most recently executed
    /// event, or a later time set by [`bump_clock`](Self::bump_clock).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock to `t` if `t` is later.
    pub fn bump_clock(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Mints the next canonical key for an event created by this domain.
    /// Used for cross-domain emissions, where the event is keyed here but
    /// queued at the destination.
    pub fn alloc_key(&mut self) -> u64 {
        let key = event_key(self.dom, self.seq);
        self.seq += 1;
        key
    }

    /// Schedules a locally created event at `at` under this domain's next
    /// canonical key, returning the key.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let key = self.alloc_key();
        self.q.push_keyed(at.max(self.clock), key, event);
        key
    }

    /// Delivers a cross-domain message timestamped `at` and keyed by its
    /// creator.
    ///
    /// The causality auditor (debug builds and the `profile` feature)
    /// panics if the message is stamped before this domain's clock: the
    /// engine ran this domain ahead of an earlier event elsewhere. Release
    /// builds clamp to the clock like any other push.
    pub fn push_incoming(&mut self, at: SimTime, key: u64, event: E) {
        #[cfg(any(debug_assertions, feature = "profile"))]
        assert!(
            at >= self.clock,
            "causality violation: domain {} at {} received a message from \
             domain {} timestamped {}",
            self.dom,
            self.clock,
            key_domain(key),
            at,
        );
        self.q.push_keyed(at.max(self.clock), key, event);
    }

    /// The `(time, key)` of this domain's earliest pending event.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.q.peek_keyed()
    }

    /// Removes and returns the earliest event, advancing the domain
    /// clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let (t, _) = self.q.peek_keyed()?;
        debug_assert!(t >= self.clock, "domain clock ran backwards");
        self.clock = self.clock.max(t);
        // Returned as popped: taking the tuple apart to rebuild it would
        // copy the event once more.
        self.q.pop_keyed()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Lifetime pop count (delegates to the backing queue).
    pub fn pops(&self) -> u64 {
        self.q.pops()
    }

    /// High-water mark of pending depth.
    pub fn peak_depth(&self) -> usize {
        self.q.peak_depth()
    }

    /// Starts recording queue operations (replay benchmarks).
    pub fn start_trace(&mut self) {
        self.q.start_trace();
    }

    /// Stops recording and returns the operation stream.
    pub fn take_trace(&mut self) -> Vec<crate::queue::QueueOp> {
        self.q.take_trace()
    }

    /// Whether the domain has no pending events.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

/// A winner tree over the heads of a world's domain queues: which domain
/// holds the globally earliest `(time, key)`.
///
/// The caller [`set`](Self::set)s a domain's leaf after anything that may
/// have moved that queue's head; [`min`](Self::min) reads the root. A `set`
/// replays the matches on the leaf's path to the root and stops at the
/// first one whose outcome it did not change.
pub struct Heads {
    /// Each domain's head packed as `time << 64 | key`; [`Self::DRAINED`]
    /// for an empty queue and for the leaves that pad the tree. (Beside the
    /// tree, not in its nodes: 32-byte nodes measured 7 % slower.)
    keys: Vec<u128>,
    /// The implicit tree, root at 1: `win[i]` is the domain that wins
    /// subtree `i`, and `win[leaves + d]` is domain `d` itself.
    win: Vec<u32>,
}

impl Heads {
    const DRAINED: u128 = u128::MAX;

    /// A tree over `domains` queues, all drained.
    pub fn new(domains: usize) -> Self {
        let leaves = domains.next_power_of_two();
        let mut win = vec![0; 2 * leaves];
        for i in (1..2 * leaves).rev() {
            // Every key is equal, so the left child wins every match.
            win[i] = if i >= leaves {
                (i - leaves) as u32
            } else {
                win[2 * i]
            };
        }
        Heads {
            keys: vec![Self::DRAINED; leaves],
            win,
        }
    }

    /// Records domain `d`'s current head (`None` = drained).
    pub fn set(&mut self, d: usize, head: Option<(SimTime, u64)>) {
        let pack = |(t, k): (SimTime, u64)| (t.as_nanos() as u128) << 64 | k as u128;
        let key = head.map_or(Self::DRAINED, pack);
        debug_assert!(head.is_none() || key != Self::DRAINED);
        if self.keys[d] == key {
            return;
        }
        self.keys[d] = key;
        let mut i = (self.keys.len() + d) / 2;
        while i >= 1 {
            let (l, r) = (self.win[2 * i], self.win[2 * i + 1]);
            let left_wins = self.keys[l as usize] <= self.keys[r as usize];
            let w = if left_wins { l } else { r };
            // The same winner as before, and not the leaf that moved: no
            // match further up sees a difference.
            if w == self.win[i] && w as usize != d {
                return;
            }
            self.win[i] = w;
            i /= 2;
        }
    }

    /// The domain whose head is earliest, or `None` when all are drained.
    pub fn min(&self) -> Option<usize> {
        let w = self.win[1] as usize;
        (self.keys[w] != Self::DRAINED).then_some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        let k = event_key(7, 123_456);
        assert_eq!(key_domain(k), 7);
        assert_eq!(key_seq(k), 123_456);
        assert_eq!(key_domain(event_key(0, 0)), 0);
        assert_eq!(key_seq(event_key(0, 0)), 0);
    }

    #[test]
    fn domain_zero_keys_match_flat_counter() {
        // A single-domain world must reproduce the monolithic queue's
        // `(time, push counter)` order exactly: domain 0 keys *are* the
        // counter values.
        let mut dq: DomainQ<&str> = DomainQ::new(0);
        assert_eq!(dq.push(SimTime::from_millis(1), "a"), 0);
        assert_eq!(dq.push(SimTime::from_millis(1), "b"), 1);
        assert_eq!(dq.push(SimTime::from_millis(1), "c"), 2);
        let order: Vec<&str> = std::iter::from_fn(|| dq.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn cross_domain_ties_order_by_key() {
        // Two creators, same timestamp: the lower (domain, seq) key wins
        // regardless of arrival order at the destination.
        let mut dst: DomainQ<u32> = DomainQ::new(2);
        let t = SimTime::from_millis(3);
        dst.push_incoming(t, event_key(5, 0), 50);
        dst.push_incoming(t, event_key(1, 9), 19);
        dst.push(t, 20); // key (2, 0): between domains 1 and 5
        assert_eq!(dst.pop().unwrap().2, 19);
        assert_eq!(dst.pop().unwrap().2, 20);
        assert_eq!(dst.pop().unwrap().2, 50);
    }

    #[test]
    fn pop_advances_clock_and_clamps_pushes() {
        let mut dq: DomainQ<&str> = DomainQ::new(1);
        dq.push(SimTime::from_millis(10), "x");
        let (t, _, _) = dq.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(dq.clock(), SimTime::from_millis(10));
        // A push in the domain's past clamps to the clock.
        dq.push(SimTime::from_millis(4), "late");
        let (t, _, e) = dq.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_millis(10), "late"));
    }

    #[test]
    fn bump_clock_clamps_incoming() {
        let mut dq: DomainQ<&str> = DomainQ::new(1);
        dq.bump_clock(SimTime::from_millis(5));
        assert_eq!(dq.clock(), SimTime::from_millis(5));
        // Equal-to-clock messages are legal (the auditor allows >=).
        dq.push_incoming(SimTime::from_millis(5), event_key(0, 0), "m");
        let (t, _, _) = dq.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "causality violation")]
    fn auditor_rejects_messages_from_the_past() {
        let mut dq: DomainQ<&str> = DomainQ::new(1);
        dq.bump_clock(SimTime::from_millis(5));
        dq.push_incoming(SimTime::from_millis(4), event_key(0, 0), "late");
    }

    #[test]
    fn keyed_order_runs_against_insertion_order() {
        // Keyed pushes at one instant whose keys descend as they are
        // inserted: the pop order must follow (time, key), not arrival.
        let mut dq: DomainQ<u64> = DomainQ::new(0);
        let t = SimTime::from_millis(1);
        let n = 192;
        for i in 0..n {
            // From a fictitious remote domain so we control the key
            // directly.
            dq.push_incoming(t, event_key(1, n - 1 - i), n - 1 - i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| dq.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }
}

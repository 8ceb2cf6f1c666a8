//! Conservative parallel discrete-event simulation (PDES) substrate.
//!
//! A partitioned world splits its pending-event set into per-machine
//! *domains*: every client machine is one domain and the server plus its
//! nfsd pool is another. Each domain owns an [`EventQueue`], a logical
//! clock, and a sequence counter; cross-domain traffic travels as
//! timestamped messages stamped with a globally unique *canonical key*
//!
//! ```text
//! key = (creator domain id << SEQ_BITS) | creator sequence number
//! ```
//!
//! so every event in the world has a total order by `(time, key)` that
//! depends only on which domain created it and in what order — never on
//! which OS thread happened to run the domain. The sequential engine pops
//! domains through a [`Merge`] in exactly that order; the parallel engine
//! executes each domain's events in the same per-domain order under
//! conservative bounds, so both produce identical per-domain event
//! sequences by construction.
//!
//! The conservative synchronization horizon (*lookahead*) is the minimum
//! propagation delay of the link a message must cross: a domain may safely
//! execute every event strictly before `min(neighbor clock + link delay)`
//! because no neighbor can emit a message that arrives earlier. Zero-delay
//! links would collapse that horizon to nothing, so link carving floors
//! the lookahead at [`MIN_LOOKAHEAD`] (1 ns).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Bits of the canonical key reserved for the creator's sequence number.
/// 2^40 events per domain comfortably exceeds any run this repo performs
/// (a 30-minute 1,024-client crowd world pops ~10^8 events *total*).
pub const SEQ_BITS: u32 = 40;

/// Smallest lookahead any inter-domain link may publish. A zero-delay
/// link would force domains into lockstep with no safe horizon at all;
/// flooring at 1 ns keeps the conservative bound strictly ahead of the
/// neighbor's clock so every round is guaranteed to make progress.
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

    /// This domain's id (the high bits of every key it mints).
    pub fn dom(&self) -> u32 {
        self.dom
    }

    /// The domain's logical clock: the time of its most recently executed
    /// event, or a later time set by [`bump_clock`](Self::bump_clock).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock to `t` if `t` is later. Used at run start to
    /// align every domain with the world clock, so a domain idle through
    /// an earlier run does not schedule "new" work in the global past.
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
    /// panics if the message is stamped before this domain's clock — a
    /// conservative-synchronization bug: some bound let a neighbor run too
    /// far ahead. Release builds clamp to the clock like any other push.
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

/// Lazy k-way merge over a set of [`DomainQ`]s, yielding events in global
/// `(time, key)` order — the canonical order both engines preserve.
///
/// The heap holds `(time, key, domain)` candidates, possibly stale: the
/// caller must [`touch`](Self::touch) a domain after every mutation
/// (local push, incoming message, or pop) so its current head is always
/// represented; superseded candidates are discarded on pop when they no
/// longer match the domain's head. This makes each pop O(log D) in
/// practice instead of a full O(D) scan across domains.
pub struct Merge {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

impl Default for Merge {
    fn default() -> Self {
        Self::new()
    }
}

impl Merge {
    /// Creates an empty merge.
    pub fn new() -> Self {
        Merge {
            heap: BinaryHeap::new(),
        }
    }

    /// Registers `dq`'s current head as a candidate. Call after any
    /// mutation of the domain; duplicates are fine and are skipped later.
    pub fn touch<E>(&mut self, dq: &mut DomainQ<E>) {
        if let Some((t, k)) = dq.peek() {
            self.heap.push(Reverse((t, k, dq.dom())));
        }
    }

    /// Discards all candidates and re-registers every domain's head.
    pub fn rebuild<E>(&mut self, doms: &mut [DomainQ<E>]) {
        self.heap.clear();
        for dq in doms {
            self.touch(dq);
        }
    }

    /// Pops the globally earliest event across `doms` (indexed by domain
    /// id), or `None` when every domain is drained of *registered* work.
    pub fn pop<E>(&mut self, doms: &mut [DomainQ<E>]) -> Option<(u32, SimTime, u64, E)> {
        while let Some(Reverse((t, k, dom))) = self.heap.pop() {
            let dq = &mut doms[dom as usize];
            if dq.peek() == Some((t, k)) {
                let (t, k, e) = dq.pop().expect("peeked head vanished");
                return Some((dom, t, k, e));
            }
            // Stale candidate: the head it described was already popped
            // or displaced by an earlier arrival (which `touch` has
            // since registered). Drop it and keep scanning.
        }
        None
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
    fn merge_matches_flat_queue_order() {
        // Reference: one flat keyed queue holding everything. Subject:
        // three domains merged. Both must yield the same (time, key)
        // sequence.
        let mut flat: EventQueue<u64> = EventQueue::new();
        let mut doms: Vec<DomainQ<u64>> = (0..3).map(DomainQ::new).collect();
        let mut merge = Merge::new();

        // A deterministic but scrambled schedule: event i goes to domain
        // i % 3 at a time that collides frequently.
        for i in 0..200u64 {
            let dom = (i % 3) as u32;
            let t = SimTime::from_micros((i * 7) % 40);
            let key = event_key(dom, i / 3);
            flat.push_keyed(t, key, key);
            doms[dom as usize].push_incoming(t, key, key);
            merge.touch(&mut doms[dom as usize]);
        }

        let mut flat_order = Vec::new();
        while let Some((t, k, e)) = flat.pop_keyed() {
            flat_order.push((t, k, e));
        }
        let mut merged = Vec::new();
        while let Some((dom, t, k, e)) = merge.pop(&mut doms) {
            assert_eq!(dom, key_domain(k));
            merge.touch(&mut doms[dom as usize]);
            merged.push((t, k, e));
        }
        assert_eq!(flat_order, merged);
    }

    #[test]
    fn merge_handles_interleaved_pushes() {
        // Pushing earlier work into a domain after its head is registered
        // must still pop in order: touch() registers the new head and the
        // stale candidate is discarded.
        let mut doms: Vec<DomainQ<&str>> = (0..2).map(DomainQ::new).collect();
        let mut merge = Merge::new();
        doms[0].push(SimTime::from_millis(9), "late0");
        merge.touch(&mut doms[0]);
        doms[1].push(SimTime::from_millis(5), "mid1");
        merge.touch(&mut doms[1]);
        // Now displace domain 0's head with something earlier.
        doms[0].push(SimTime::from_millis(1), "early0");
        merge.touch(&mut doms[0]);

        let mut order = Vec::new();
        while let Some((dom, _, _, e)) = merge.pop(&mut doms) {
            merge.touch(&mut doms[dom as usize]);
            order.push(e);
        }
        assert_eq!(order, vec!["early0", "mid1", "late0"]);
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

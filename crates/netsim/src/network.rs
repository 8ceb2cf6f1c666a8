//! The network core: fragmentation, forwarding and reassembly.

use std::collections::hash_map::Entry;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{IntMap, Rng, SimDuration, SimTime};

use crate::link::TxResult;
use crate::packet::{Datagram, Fragment, ProtoHeader, IP_HEADER};
use crate::topology::{LinkId, NodeId, NodeKind, Topology};

/// Events the network schedules for itself via the caller's event queue.
#[derive(Debug)]
pub enum NetEvent {
    /// A fragment finishes traversing `link` and arrives at its far end.
    FragArrive {
        /// The link traversed.
        link: LinkId,
        /// The fragment.
        frag: Fragment,
    },
    /// Reassembly timer for `(host, src, dgram_id)` fires; incomplete
    /// datagrams are discarded (the whole-datagram cost of one lost
    /// fragment).
    ReasmExpire {
        /// Destination host doing the reassembly.
        host: NodeId,
        /// Source of the datagram.
        src: NodeId,
        /// Datagram id.
        dgram_id: u64,
    },
}

const _: () = assert!(size_of::<NetEvent>() <= 88); // moved through the caller's queue per hop

/// A datagram delivered to a host.
#[derive(Debug)]
pub struct Delivery {
    /// The receiving host.
    pub host: NodeId,
    /// The reassembled datagram.
    pub dgram: Datagram,
    /// How many fragments arrived to complete it (receive-interrupt
    /// pricing).
    pub frags: usize,
}

/// Output of a network step: follow-on events plus completed deliveries.
///
/// The driver loop owns one of these and passes it to
/// [`Network::send_into`] / [`Network::handle_into`] each step, draining
/// it between steps, so the per-hop path performs no allocation once the
/// vectors have grown to their working size.
#[derive(Debug, Default)]
pub struct NetOutput {
    /// Events to schedule.
    pub events: Vec<(SimTime, NetEvent)>,
    /// Datagrams that completed reassembly.
    pub delivered: Vec<Delivery>,
}

impl NetOutput {
    /// Empties both lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.delivered.clear();
    }

    /// Whether there is nothing to process.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.delivered.is_empty()
    }
}

/// Cumulative network statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Datagrams offered by hosts.
    pub datagrams_sent: u64,
    /// Datagrams fully delivered.
    pub datagrams_delivered: u64,
    /// Fragments created.
    pub frags_sent: u64,
    /// Fragments dropped anywhere (queue or loss).
    pub frags_dropped: u64,
    /// Reassembly timeouts (datagram lost to a missing fragment).
    pub reasm_failures: u64,
    /// Fragments built by fragmentation and router re-fragmentation;
    /// `frags_built - datagrams_sent` is the fragmentation amplification.
    pub frags_built: u64,
    /// Fragments duplicated by injected fault windows.
    pub dup_frames: u64,
    /// Fragments delayed by injected reorder windows.
    pub reordered_frames: u64,
    /// Fragments dropped because a link was down (injected flap).
    pub flap_drops: u64,
    /// Fragments whose bytes were damaged by an injected corruption
    /// window (summed from per-link counters).
    pub corrupted_frames: u64,
    /// Datagrams discarded at the receiving host because a checksum
    /// caught in-flight corruption (TCP always; UDP when the sender
    /// computed a checksum).
    pub checksum_drops: u64,
}

struct ReasmState {
    parts: Vec<(usize, MbufChain)>,
    total_len: usize,
    received: usize,
    corrupted: bool,
}

/// The per-host IP reassembly machinery: in-progress datagrams keyed by
/// `(host, src, dgram id)`, the part-list recycling pool, and the
/// reassembly timeout.
struct Reassembler {
    reasm: IntMap<(NodeId, NodeId, u64), ReasmState>,
    timeout: SimDuration,
    /// Cleared part-lists recycled between reassembly states.
    parts_pool: Vec<Vec<(usize, MbufChain)>>,
}

impl Reassembler {
    fn new() -> Self {
        Reassembler {
            reasm: IntMap::default(),
            timeout: SimDuration::from_secs(20),
            parts_pool: Vec::new(),
        }
    }

    /// Whether no datagrams are mid-reassembly.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.reasm.is_empty()
    }

    /// Offers one arrived fragment at `host`.
    ///
    /// Clean completed datagrams are appended to `out.delivered`;
    /// datagrams assembled from damaged fragments are returned instead so
    /// the caller can apply its checksum policy (which may draw from an
    /// RNG this struct deliberately does not own).
    fn offer(
        &mut self,
        now: SimTime,
        host: NodeId,
        frag: Fragment,
        stats: &mut NetStats,
        out: &mut NetOutput,
    ) -> Option<(Datagram, usize)> {
        if frag.is_whole() {
            let dgram = Datagram {
                id: frag.dgram_id,
                src: frag.src,
                dst: frag.dst,
                proto: frag.proto,
                payload: frag.payload,
            };
            if frag.corrupted {
                return Some((dgram, 1));
            }
            stats.datagrams_delivered += 1;
            out.delivered.push(Delivery {
                host,
                dgram,
                frags: 1,
            });
            return None;
        }
        let key = (host, frag.src, frag.dgram_id);
        // One hash per fragment: the entry serves the first fragment's
        // insert, every later lookup and the last one's removal.
        let mut entry = match self.reasm.entry(key) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(slot) => {
                out.events.push((
                    now + self.timeout,
                    NetEvent::ReasmExpire {
                        host,
                        src: frag.src,
                        dgram_id: frag.dgram_id,
                    },
                ));
                slot.insert_entry(ReasmState {
                    parts: self.parts_pool.pop().unwrap_or_default(),
                    total_len: frag.total_len,
                    received: 0,
                    corrupted: false,
                })
            }
        };
        let state = entry.get_mut();
        state.corrupted |= frag.corrupted;
        // Ignore duplicate offsets (a retransmitted fragment).
        if state.parts.iter().any(|&(off, _)| off == frag.offset) {
            return None;
        }
        state.received += frag.payload.len();
        let (src, proto, dgram_id) = (frag.src, frag.proto, frag.dgram_id);
        state.parts.push((frag.offset, frag.payload));
        if state.received < state.total_len {
            return None;
        }
        // Complete: stitch parts in offset order.
        let mut state = entry.remove();
        state.parts.sort_by_key(|&(off, _)| off);
        let frags = state.parts.len();
        let mut payload = MbufChain::new();
        for (_, part) in state.parts.drain(..) {
            payload.append_chain(part);
        }
        self.recycle_parts(state.parts);
        let dgram = Datagram {
            id: dgram_id,
            src,
            dst: host,
            proto,
            payload,
        };
        if state.corrupted {
            return Some((dgram, frags));
        }
        stats.datagrams_delivered += 1;
        out.delivered.push(Delivery { host, dgram, frags });
        None
    }

    /// Fires the reassembly timer for `(host, src, dgram_id)`, discarding
    /// any incomplete datagram.
    fn expire(&mut self, host: NodeId, src: NodeId, dgram_id: u64, stats: &mut NetStats) {
        if let Some(state) = self.reasm.remove(&(host, src, dgram_id)) {
            stats.reasm_failures += 1;
            self.recycle_parts(state.parts);
        } else {
            renofs_sim::profile::census("Net(ReasmExpire)", true);
        }
    }

    /// Parks a drained part-list for reuse by a future reassembly.
    fn recycle_parts(&mut self, mut parts: Vec<(usize, MbufChain)>) {
        parts.clear();
        if self.parts_pool.len() < 64 {
            self.parts_pool.push(parts);
        }
    }
}

/// Splits a datagram into MTU-sized fragments appended to `frags`.
/// Fragment payload chains share the original's clusters, so this copies
/// (almost) nothing — exactly like the BSD `ip_output` fragmentation
/// path.
fn fragment_into(dgram: Datagram, mtu: usize, frags: &mut Vec<Fragment>, stats: &mut NetStats) {
    let total_len = dgram.payload.len();
    let hdr_len = dgram.proto.header_len();
    // First fragment carries the transport header.
    let first_cap = round8(mtu - IP_HEADER - hdr_len);
    let rest_cap = round8(mtu - IP_HEADER);
    if hdr_len + total_len + IP_HEADER <= mtu {
        stats.frags_built += 1;
        frags.push(Fragment {
            dgram_id: dgram.id,
            src: dgram.src,
            dst: dgram.dst,
            proto: dgram.proto,
            offset: 0,
            total_len,
            more: false,
            corrupted: false,
            payload: dgram.payload,
        });
        return;
    }
    let mut off = 0;
    while off < total_len || (off == 0 && total_len == 0) {
        let cap = if off == 0 { first_cap } else { rest_cap };
        let take = cap.min(total_len - off);
        let payload = dgram.payload.share_range(off, take, &mut CopyMeter::new());
        let more = off + take < total_len;
        stats.frags_built += 1;
        frags.push(Fragment {
            dgram_id: dgram.id,
            src: dgram.src,
            dst: dgram.dst,
            proto: dgram.proto,
            offset: off,
            total_len,
            more,
            corrupted: false,
            payload,
        });
        off += take;
        if take == 0 {
            break;
        }
    }
}

/// The simulated internetwork.
pub struct Network {
    topo: Topology,
    rng: Rng,
    next_id: u64,
    reasm: Reassembler,
    stats: NetStats,
    /// Scratch for fragment lists; drained after every use, so
    /// fragmentation reuses one grown buffer instead of allocating a
    /// `Vec<Fragment>` per datagram.
    frag_scratch: Vec<Fragment>,
}

impl Network {
    /// Wraps a routed topology.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Network {
            topo,
            rng: Rng::new(seed),
            next_id: 1,
            reasm: Reassembler::new(),
            stats: NetStats::default(),
            frag_scratch: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cumulative statistics. Injected-fault counters are summed from the
    /// per-link counters so experiments can assert a plan actually fired.
    pub fn stats(&self) -> NetStats {
        let mut s = self.stats;
        for link in &self.topo.links {
            let ls = link.stats();
            s.dup_frames += ls.dup_frames;
            s.reordered_frames += ls.reordered_frames;
            s.flap_drops += ls.flap_drops;
            s.corrupted_frames += ls.corrupted_frames;
        }
        s
    }

    /// Allocates a fresh datagram id (the IP identification field).
    pub fn alloc_dgram_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Offers a datagram to the network from `dgram.src`. Fragments it to
    /// the first-hop MTU and queues the fragments back to back.
    ///
    /// Allocation-free convenience wrapper callers with their own
    /// `NetOutput` scratch should skip in favor of [`Network::send_into`].
    pub fn send(&mut self, now: SimTime, dgram: Datagram) -> NetOutput {
        let mut out = NetOutput::default();
        self.send_into(now, dgram, &mut out);
        out
    }

    /// [`Network::send`] appending into a caller-owned `NetOutput`.
    pub fn send_into(&mut self, now: SimTime, dgram: Datagram, out: &mut NetOutput) {
        self.stats.datagrams_sent += 1;
        let Some(first_link) = self.topo.route(dgram.src, dgram.dst) else {
            return;
        };
        let mtu = self.topo.link(first_link).params().mtu;
        let mut frags = std::mem::take(&mut self.frag_scratch);
        debug_assert!(frags.is_empty());
        fragment_into(dgram, mtu, &mut frags, &mut self.stats);
        for frag in frags.drain(..) {
            self.stats.frags_sent += 1;
            self.offer_to_link(now, first_link, frag, out);
        }
        self.frag_scratch = frags;
    }

    fn offer_to_link(
        &mut self,
        now: SimTime,
        link_id: LinkId,
        frag: Fragment,
        out: &mut NetOutput,
    ) {
        let ip_len = frag.ip_len();
        let link = self.topo.link_mut(link_id);
        match link.transmit(now, ip_len, &mut self.rng) {
            TxResult::ArrivesCorrupted(at) => {
                let mut frag = frag;
                frag.corrupted = true;
                out.events.push((
                    at,
                    NetEvent::FragArrive {
                        link: link_id,
                        frag,
                    },
                ));
            }
            TxResult::Arrives(at) => {
                out.events.push((
                    at,
                    NetEvent::FragArrive {
                        link: link_id,
                        frag,
                    },
                ));
            }
            TxResult::Duplicated(first, second) => {
                out.events.push((
                    first,
                    NetEvent::FragArrive {
                        link: link_id,
                        frag: frag.clone(),
                    },
                ));
                out.events.push((
                    second,
                    NetEvent::FragArrive {
                        link: link_id,
                        frag,
                    },
                ));
            }
            TxResult::Dropped => {
                self.stats.frags_dropped += 1;
            }
        }
    }

    /// Processes a network event.
    ///
    /// Allocation-free convenience wrapper callers with their own
    /// `NetOutput` scratch should skip in favor of [`Network::handle_into`].
    pub fn handle(&mut self, now: SimTime, ev: NetEvent) -> NetOutput {
        let mut out = NetOutput::default();
        self.handle_into(now, ev, &mut out);
        out
    }

    /// [`Network::handle`] appending into a caller-owned `NetOutput`.
    pub fn handle_into(&mut self, now: SimTime, ev: NetEvent, out: &mut NetOutput) {
        match ev {
            NetEvent::FragArrive { link, frag } => {
                let node = self.topo.link(link).to();
                self.frag_at_node(now, node, frag, out);
            }
            NetEvent::ReasmExpire {
                host,
                src,
                dgram_id,
            } => {
                self.reasm.expire(host, src, dgram_id, &mut self.stats);
            }
        }
    }

    fn frag_at_node(&mut self, now: SimTime, node: NodeId, frag: Fragment, out: &mut NetOutput) {
        match self.topo.node_kind(node) {
            NodeKind::Router { forward_delay } => {
                let Some(next) = self.topo.route(node, frag.dst) else {
                    self.stats.frags_dropped += 1;
                    return;
                };
                // Re-fragment if the next hop's MTU is smaller.
                let mtu = self.topo.link(next).params().mtu;
                if frag.ip_len() > mtu {
                    let mut subs = std::mem::take(&mut self.frag_scratch);
                    debug_assert!(subs.is_empty());
                    self.refragment_into(frag, mtu, &mut subs);
                    for sub in subs.drain(..) {
                        self.stats.frags_sent += 1;
                        self.offer_to_link(now + forward_delay, next, sub, out);
                    }
                    self.frag_scratch = subs;
                } else {
                    self.offer_to_link(now + forward_delay, next, frag, out);
                }
            }
            NodeKind::Host => {
                if node != frag.dst {
                    self.stats.frags_dropped += 1;
                    return;
                }
                self.reassemble(now, node, frag, out);
            }
        }
    }

    /// Splits an already-fragmented piece further for a smaller MTU,
    /// appending the pieces to `frags`.
    fn refragment_into(&mut self, frag: Fragment, mtu: usize, frags: &mut Vec<Fragment>) {
        let hdr_len = if frag.offset == 0 {
            frag.proto.header_len()
        } else {
            0
        };
        let len = frag.payload.len();
        let mut rel = 0;
        while rel < len {
            let cap = if rel == 0 {
                round8(mtu - IP_HEADER - hdr_len)
            } else {
                round8(mtu - IP_HEADER)
            };
            let take = cap.min(len - rel);
            let payload = frag.payload.share_range(rel, take, &mut CopyMeter::new());
            let abs_off = frag.offset + rel;
            let more = frag.more || abs_off + take < frag.offset + len;
            self.stats.frags_built += 1;
            frags.push(Fragment {
                dgram_id: frag.dgram_id,
                src: frag.src,
                dst: frag.dst,
                proto: frag.proto,
                offset: abs_off,
                total_len: frag.total_len,
                more,
                corrupted: frag.corrupted,
                payload,
            });
            rel += take;
        }
    }

    fn reassemble(&mut self, now: SimTime, host: NodeId, frag: Fragment, out: &mut NetOutput) {
        if let Some((dgram, frags)) = self.reasm.offer(now, host, frag, &mut self.stats, out) {
            self.deliver_corrupted(host, dgram, frags, out);
        }
    }

    /// Fraction of corrupted UDP datagrams that slip past the receiver's
    /// checksum. 4.3BSD shipped with UDP checksums disabled by default
    /// (`udpcksum = 0`), so some damaged datagrams reach the socket layer
    /// and the RPC decoder must cope with arbitrary bytes. TCP checksums
    /// are mandatory, so damaged segments are always discarded and the
    /// sender retransmits cleanly.
    const UDP_CHECKSUM_MISS: f64 = 0.25;

    /// Disposes of a datagram assembled from damaged fragments. TCP and
    /// checksummed UDP drop it (`checksum_drops`); the rest are delivered
    /// with their payload scrambled to deterministic garbage, modeling
    /// what the wire damage did to the bytes.
    fn deliver_corrupted(
        &mut self,
        host: NodeId,
        mut dgram: Datagram,
        frags: usize,
        out: &mut NetOutput,
    ) {
        let survives = match dgram.proto {
            ProtoHeader::Tcp { .. } => false,
            ProtoHeader::Udp { .. } => self.rng.chance(Self::UDP_CHECKSUM_MISS),
        };
        if !survives {
            self.stats.checksum_drops += 1;
            return;
        }
        let len = dgram.payload.len();
        let mut garbage = Vec::with_capacity(len);
        while garbage.len() < len {
            let word = self.rng.next_u64().to_le_bytes();
            let take = word.len().min(len - garbage.len());
            garbage.extend_from_slice(&word[..take]);
        }
        let mut scramble_meter = CopyMeter::new();
        dgram.payload = MbufChain::from_slice(&garbage, &mut scramble_meter);
        self.stats.datagrams_delivered += 1;
        out.delivered.push(Delivery { host, dgram, frags });
    }
}

fn round8(n: usize) -> usize {
    n & !7
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ProtoHeader;
    use crate::topology::presets::{self, Background};
    use renofs_sim::EventQueue;

    fn udp(sport: u16, dport: u16) -> ProtoHeader {
        ProtoHeader::Udp { sport, dport }
    }

    /// Runs the network until quiescent, returning all deliveries.
    fn run(net: &mut Network, mut out: NetOutput) -> Vec<(SimTime, Delivery)> {
        let mut q: EventQueue<NetEvent> = EventQueue::new();
        let mut delivered = Vec::new();
        loop {
            for (t, e) in out.events.drain(..) {
                q.push(t, e);
            }
            for d in out.delivered.drain(..) {
                delivered.push((q.now(), d));
            }
            match q.pop() {
                Some((t, ev)) => out = net.handle(t, ev),
                None => break,
            }
        }
        delivered
    }

    fn make_dgram(net: &mut Network, src: NodeId, dst: NodeId, len: usize) -> Datagram {
        let mut meter = CopyMeter::new();
        let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        Datagram {
            id: net.alloc_dgram_id(),
            src,
            dst,
            proto: udp(1023, 2049),
            payload: MbufChain::from_slice(&data, &mut meter),
        }
    }

    #[test]
    fn small_datagram_single_fragment() {
        let (topo, c, s) = presets::same_lan(&Background::quiet());
        let mut net = Network::new(topo, 7);
        let d = make_dgram(&mut net, c, s, 120);
        let out = net.send(SimTime::ZERO, d);
        let delivered = run(&mut net, out);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1.host, s);
        assert_eq!(delivered[0].1.dgram.payload.len(), 120);
        assert_eq!(net.stats().frags_sent, 1);
    }

    #[test]
    fn eight_k_fragments_to_six_on_ethernet() {
        let (topo, c, s) = presets::same_lan(&Background::quiet());
        let mut net = Network::new(topo, 8);
        let d = make_dgram(&mut net, c, s, 8192 + 120);
        let out = net.send(SimTime::ZERO, d);
        let delivered = run(&mut net, out);
        assert_eq!(delivered.len(), 1);
        // 8312 bytes at ~1472/frag = 6 fragments — the paper's "6 IP
        // fragments for an Ethernet".
        assert_eq!(net.stats().frags_sent, 6);
        let got = delivered[0].1.dgram.payload.to_vec_for_test();
        let want: Vec<u8> = (0..8312).map(|i| (i % 256) as u8).collect();
        assert_eq!(got, want, "reassembly restores the exact bytes");
    }

    #[test]
    fn delivery_through_routers() {
        let (topo, c, s) = presets::token_ring_path(&Background::quiet());
        let mut net = Network::new(topo, 9);
        let d = make_dgram(&mut net, c, s, 8192);
        let out = net.send(SimTime::ZERO, d);
        let delivered = run(&mut net, out);
        assert_eq!(delivered.len(), 1);
        let t = delivered[0].0;
        // Must include at least 2 router forward delays + serializations.
        assert!(t > SimTime::from_millis(2), "arrived at {t}");
    }

    #[test]
    fn refragmentation_for_small_mtu_hop() {
        let (topo, c, s) = presets::slow_link_path(&Background::quiet());
        let mut net = Network::new(topo, 10);
        let d = make_dgram(&mut net, c, s, 2048);
        let out = net.send(SimTime::ZERO, d);
        let delivered = run(&mut net, out);
        assert_eq!(delivered.len(), 1, "datagram survives re-fragmentation");
        assert_eq!(delivered[0].1.dgram.payload.len(), 2048);
        // 2 fragments on Ethernet, re-split to 576-byte MTU at the serial
        // hop: strictly more fragments total.
        assert!(net.stats().frags_sent > 2);
    }

    #[test]
    fn lost_fragment_loses_whole_datagram() {
        let (mut topo, c, s) = presets::same_lan(&Background::quiet());
        // Force loss on the first link direction.
        topo.links[0].set_loss_prob_for_test(0.35);
        let mut net = Network::new(topo, 11);
        let mut complete = 0;
        let mut sent = 0;
        for i in 0..60 {
            let d = make_dgram(&mut net, c, s, 8192);
            sent += 1;
            let out = net.send(SimTime::from_millis(i * 200), d);
            complete += run(&mut net, out).len();
        }
        // P(all 6 fragments survive) = 0.65^6 ~ 7.5%; allow slack.
        assert!(complete < sent / 3, "only {complete}/{sent} should survive");
        assert!(net.stats().frags_dropped > 0);
    }

    #[test]
    fn reassembly_timeout_cleans_up() {
        let (mut topo, c, s) = presets::same_lan(&Background::quiet());
        topo.links[0].set_loss_prob_for_test(0.5);
        let mut net = Network::new(topo, 12);
        let mut failures_possible = false;
        for i in 0..40 {
            let d = make_dgram(&mut net, c, s, 8192);
            let out = net.send(SimTime::from_secs(i * 60), d);
            let delivered = run(&mut net, out);
            if delivered.is_empty() {
                failures_possible = true;
            }
        }
        assert!(failures_possible);
        assert!(net.stats().reasm_failures > 0, "timeouts must have fired");
        assert!(net.reasm.is_empty(), "no leaked reassembly state");
    }

    #[test]
    fn corrupted_udp_is_dropped_or_scrambled_never_intact() {
        use crate::faults::FaultPlan;
        let (mut topo, c, s) = presets::same_lan(&Background::quiet());
        let plan = FaultPlan::new().corrupt(SimTime::ZERO, 1.0, SimDuration::from_secs(3600));
        topo.apply_faults(&plan, c, s);
        let mut net = Network::new(topo, 21);
        let want: Vec<u8> = (0..512usize).map(|i| (i % 256) as u8).collect();
        let mut delivered_scrambled = 0;
        let mut sent = 0;
        for i in 0..80 {
            let d = make_dgram(&mut net, c, s, 512);
            sent += 1;
            let out = net.send(SimTime::from_millis(i * 50), d);
            for (_, dv) in run(&mut net, out) {
                let got = dv.dgram.payload.to_vec_for_test();
                assert_eq!(got.len(), want.len(), "length preserved");
                assert_ne!(got, want, "corrupted payload must not match original");
                delivered_scrambled += 1;
            }
        }
        let stats = net.stats();
        assert_eq!(stats.corrupted_frames, sent, "every frame corrupted at p=1");
        assert!(stats.checksum_drops > 0, "some datagrams checksum-dropped");
        assert!(
            delivered_scrambled > 0,
            "some slip past disabled UDP checksums"
        );
        assert_eq!(
            stats.checksum_drops + delivered_scrambled,
            sent,
            "every corrupted datagram is either dropped or scrambled"
        );
    }

    #[test]
    fn corrupted_tcp_is_always_checksum_dropped() {
        use crate::faults::FaultPlan;
        use crate::packet::TcpFlags;
        let (mut topo, c, s) = presets::same_lan(&Background::quiet());
        let plan = FaultPlan::new().corrupt(SimTime::ZERO, 1.0, SimDuration::from_secs(3600));
        topo.apply_faults(&plan, c, s);
        let mut net = Network::new(topo, 22);
        let mut meter = CopyMeter::new();
        for i in 0..40u64 {
            let d = Datagram {
                id: net.alloc_dgram_id(),
                src: c,
                dst: s,
                proto: ProtoHeader::Tcp {
                    sport: 1023,
                    dport: 2049,
                    seq: i as u32,
                    ack: 0,
                    window: 4096,
                    flags: TcpFlags::default(),
                },
                payload: MbufChain::from_slice(&[0xA5u8; 256], &mut meter),
            };
            let out = net.send(SimTime::from_millis(i * 50), d);
            let delivered = run(&mut net, out);
            assert!(delivered.is_empty(), "TCP checksums catch all corruption");
        }
        let stats = net.stats();
        assert_eq!(stats.checksum_drops, 40);
        assert_eq!(stats.datagrams_delivered, 0);
    }

    #[test]
    fn corruption_of_one_fragment_taints_the_reassembled_datagram() {
        use crate::faults::FaultPlan;
        // Corrupt with moderate probability so multi-fragment datagrams
        // usually have a mix of clean and damaged fragments.
        let (mut topo, c, s) = presets::same_lan(&Background::quiet());
        let plan = FaultPlan::new().corrupt(SimTime::ZERO, 0.3, SimDuration::from_secs(3600));
        topo.apply_faults(&plan, c, s);
        let mut net = Network::new(topo, 23);
        let want: Vec<u8> = (0..8312usize).map(|i| (i % 256) as u8).collect();
        let mut intact = 0;
        let mut scrambled = 0;
        for i in 0..60 {
            let d = make_dgram(&mut net, c, s, 8312);
            let out = net.send(SimTime::from_millis(i * 200), d);
            for (_, dv) in run(&mut net, out) {
                if dv.dgram.payload.to_vec_for_test() == want {
                    intact += 1;
                } else {
                    scrambled += 1;
                }
            }
        }
        let stats = net.stats();
        assert!(stats.corrupted_frames > 0);
        assert!(intact > 0, "clean datagrams still get through at p=0.3");
        assert!(
            scrambled + stats.checksum_drops as usize > 0,
            "tainted datagrams are dropped or scrambled"
        );
    }

    #[test]
    fn serial_link_is_slow_for_big_datagrams() {
        let (topo, c, s) = presets::slow_link_path(&Background::quiet());
        let mut net = Network::new(topo, 13);
        let d = make_dgram(&mut net, c, s, 8192);
        let out = net.send(SimTime::ZERO, d);
        let delivered = run(&mut net, out);
        assert_eq!(delivered.len(), 1);
        let t = delivered[0].0;
        // 8K over 56 Kbit/s is over a second of serialization alone —
        // the paper's "upper bound < 1/sec" footnote.
        assert!(
            t > SimTime::from_millis(1100),
            "8K datagram arrived too fast: {t}"
        );
    }
}

//! The client-domain slice of a partitioned network.
//!
//! A carved world gives each client machine its own simulation
//! domain. The network state that domain needs to own is exactly the
//! client's *access network*: the uplink wire it serializes requests onto
//! and the reassembly state for replies arriving at its host. Everything
//! past the first hop — routers, the trunk, the server's reassembly —
//! stays in the hub domain with the shared [`Network`].
//!
//! The carve is only legal when the client's slice is **draw-free**: the
//! uplink has no loss, no background traffic and no fault windows (so
//! transmits consume no RNG), and no link on the server→client path can
//! corrupt a frame (so reply reassembly never reaches the checksum-miss
//! draw). [`Network::carve_access`] checks both conditions and refuses
//! the carve otherwise; non-carvable worlds simply stay monolithic. This
//! keeps the hub's single RNG stream byte-for-byte identical to the
//! unpartitioned execution.

use renofs_mbuf::CopyMeter;
use renofs_sim::pdes::MIN_LOOKAHEAD;
use renofs_sim::{Rng, SimDuration, SimTime};

use crate::link::Link;
use crate::network::{fragment_into, NetEvent, NetOutput, NetStats, Network, Reassembler};
use crate::packet::{Datagram, Fragment};
use crate::topology::{LinkId, NodeId, NodeKind};

/// A successfully carved client access network plus the least delay a
/// frame takes to cross the boundary in each direction. The world's loop
/// needs only that both are positive (`renofs_sim::pdes`); the values are
/// what this module's tests hold emissions to.
pub struct AccessCarve {
    /// The client domain's private network slice.
    pub access: AccessNet,
    /// Client→hub lookahead: the uplink's propagation delay. A frame the
    /// client offers at `t` cannot arrive at the far end before
    /// `t + lookahead_up`.
    pub lookahead_up: SimDuration,
    /// Hub→client lookahead: the final (router→client) link's propagation
    /// delay, bounding how early any hub action can be seen by the client.
    pub lookahead_down: SimDuration,
}

/// One client machine's private network state: its uplink and its reply
/// reassembly. See the module docs for when this carve is legal.
pub struct AccessNet {
    uplink: Link,
    uplink_id: LinkId,
    client: NodeId,
    next_id: u64,
    reasm: Reassembler,
    stats: NetStats,
    frag_scratch: Vec<Fragment>,
    meter: CopyMeter,
    /// Never drawn from — the carve predicate guarantees every code path
    /// this struct runs is draw-free; the generator only satisfies the
    /// shared transmit signature.
    rng: Rng,
}

impl AccessNet {
    /// The node this access network belongs to.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Allocates a datagram id from this client's private counter.
    /// Reassembly keys include the source node, so per-domain counters
    /// cannot collide with the hub's or each other's.
    pub fn alloc_dgram_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Offers a datagram from the client onto its uplink: fragments to
    /// the uplink MTU and serializes the fragments back to back.
    ///
    /// Every event appended to `out.events` is a [`NetEvent::FragArrive`]
    /// at the uplink's far end — a **cross-domain message** the caller
    /// must deliver to the hub domain, stamped at least `lookahead_up`
    /// after `now`.
    pub fn send_into(&mut self, now: SimTime, dgram: Datagram, out: &mut NetOutput) {
        debug_assert_eq!(dgram.src, self.client);
        self.stats.datagrams_sent += 1;
        let mtu = self.uplink.params().mtu;
        let mut frags = std::mem::take(&mut self.frag_scratch);
        debug_assert!(frags.is_empty());
        fragment_into(dgram, mtu, &mut frags, &mut self.meter, &mut self.stats);
        for frag in frags.drain(..) {
            self.stats.frags_sent += 1;
            let ip_len = frag.ip_len();
            match self.uplink.transmit(now, ip_len, &mut self.rng) {
                crate::link::TxResult::Arrives(at) => {
                    out.events.push((
                        at,
                        NetEvent::FragArrive {
                            link: self.uplink_id,
                            frag,
                        },
                    ));
                }
                crate::link::TxResult::Dropped => {
                    // Drop-tail queue overflow; a draw-free link cannot
                    // drop any other way.
                    self.stats.frags_dropped += 1;
                }
                other => unreachable!("draw-free uplink produced {other:?}"),
            }
        }
        self.frag_scratch = frags;
    }

    /// Processes a client-domain network event: a reply fragment arriving
    /// at the client host, or a local reassembly timer.
    ///
    /// Unlike [`send_into`](Self::send_into), everything appended to
    /// `out` here is domain-local: `ReasmExpire` follow-ons go back into
    /// this domain's queue and deliveries are consumed by this client.
    pub fn handle_into(&mut self, now: SimTime, ev: NetEvent, out: &mut NetOutput) {
        match ev {
            NetEvent::FragArrive { frag, .. } => {
                debug_assert_eq!(frag.dst, self.client);
                debug_assert!(
                    !frag.corrupted,
                    "carve predicate forbids corruption on the client-bound path"
                );
                let corrupted = self
                    .reasm
                    .offer(now, self.client, frag, &mut self.stats, out);
                debug_assert!(corrupted.is_none(), "corrupted datagram in a carved domain");
            }
            NetEvent::ReasmExpire {
                host,
                src,
                dgram_id,
            } => {
                debug_assert_eq!(host, self.client);
                self.reasm.expire(host, src, dgram_id, &mut self.stats);
            }
        }
    }

    /// This domain's network statistics shard; the world folds shards
    /// into the hub's totals so reported stats match the monolithic run.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

impl NetStats {
    /// Adds another shard's counters into this one (partitioned worlds
    /// keep per-domain shards and fold them for reporting).
    pub fn absorb(&mut self, other: &NetStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_delivered += other.datagrams_delivered;
        self.frags_sent += other.frags_sent;
        self.frags_dropped += other.frags_dropped;
        self.reasm_failures += other.reasm_failures;
        self.frags_built += other.frags_built;
        self.dup_frames += other.dup_frames;
        self.reordered_frames += other.reordered_frames;
        self.flap_drops += other.flap_drops;
        self.corrupted_frames += other.corrupted_frames;
        self.checksum_drops += other.checksum_drops;
    }
}

impl Network {
    /// The node at which a network event executes: where an arriving
    /// fragment lands, or the host whose reassembly timer fires. This is
    /// the partitioned world's routing function for follow-on events.
    pub fn event_node(&self, ev: &NetEvent) -> NodeId {
        match ev {
            NetEvent::FragArrive { link, .. } => self.topology().link(*link).to(),
            NetEvent::ReasmExpire { host, .. } => *host,
        }
    }

    /// Attempts to carve `client`'s access network out of this topology
    /// for a private client domain.
    ///
    /// Returns `None` — leave the world monolithic — unless the carve is
    /// provably draw-free:
    ///
    /// - the client→server route exists and its first hop leaves the
    ///   client host with no loss probability, no background utilization
    ///   and no fault windows (uplink transmits consume no RNG);
    /// - the server→client route exists and **no** link on it has fault
    ///   windows (no frame can arrive corrupted, so client-side
    ///   reassembly never reaches the checksum-miss draw).
    ///
    /// The published lookaheads are the boundary links' propagation
    /// delays, floored at [`MIN_LOOKAHEAD`] so that even across a
    /// hypothetical zero-delay link a frame lands strictly in the other
    /// domain's future.
    pub fn carve_access(&self, client: NodeId, server: NodeId) -> Option<AccessCarve> {
        let topo = self.topology();
        if !matches!(topo.node_kind(client), NodeKind::Host) {
            return None;
        }
        let up_id = topo.route(client, server)?;
        let uplink = topo.link(up_id);
        if uplink.from() != client || !uplink.is_draw_free() {
            return None;
        }
        let down_path = topo.path_links(server, client);
        let &dn_id = down_path.last()?;
        let downlink = topo.link(dn_id);
        if downlink.to() != client {
            return None;
        }
        if down_path.iter().any(|&l| !topo.link(l).faults_empty()) {
            return None;
        }
        let access = AccessNet {
            uplink: uplink.fresh_copy(),
            uplink_id: up_id,
            client,
            next_id: 1,
            reasm: Reassembler::new(),
            stats: NetStats::default(),
            frag_scratch: Vec::new(),
            meter: CopyMeter::new(),
            rng: Rng::new(0),
        };
        Some(AccessCarve {
            access,
            lookahead_up: uplink.params().prop_delay.max(MIN_LOOKAHEAD),
            lookahead_down: downlink.params().prop_delay.max(MIN_LOOKAHEAD),
        })
    }

    /// [`carve_access`](Self::carve_access) generalized to a sharded
    /// fleet: the carve is legal only when it is legal toward **every**
    /// server *and* the client's first hop is the same physical uplink
    /// for all of them (the carved [`AccessNet`] owns exactly one
    /// uplink; the presets guarantee one access drop per client). The
    /// published lookaheads are the minima over servers: a bound for
    /// whichever shard answers first.
    pub fn carve_access_multi(&self, client: NodeId, servers: &[NodeId]) -> Option<AccessCarve> {
        let (&first, rest) = servers.split_first()?;
        let mut carve = self.carve_access(client, first)?;
        let up_id = self.topology().route(client, first)?;
        for &s in rest {
            if self.topology().route(client, s)? != up_id {
                return None; // per-server uplinks cannot share one carve
            }
            let other = self.carve_access(client, s)?;
            carve.lookahead_up = carve.lookahead_up.min(other.lookahead_up);
            carve.lookahead_down = carve.lookahead_down.min(other.lookahead_down);
        }
        Some(carve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::packet::ProtoHeader;
    use crate::topology::presets::{self, Background};
    use renofs_mbuf::MbufChain;

    fn udp_dgram(net: &mut AccessNet, src: NodeId, dst: NodeId, len: usize) -> Datagram {
        let mut meter = CopyMeter::new();
        let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        Datagram {
            id: net.alloc_dgram_id(),
            src,
            dst,
            proto: ProtoHeader::Udp {
                sport: 1023,
                dport: 2049,
            },
            payload: MbufChain::from_slice(&data, &mut meter),
        }
    }

    #[test]
    fn quiet_lan_is_carvable_with_prop_delay_lookahead() {
        let (topo, clients, s) = presets::same_lan_n(&Background::quiet(), 3);
        let net = Network::new(topo, 1);
        for &c in &clients {
            let carve = net.carve_access(c, s).expect("quiet LAN must carve");
            // Ethernet preset: 50 us propagation each way.
            assert_eq!(carve.lookahead_up, SimDuration::from_micros(50));
            assert_eq!(carve.lookahead_down, SimDuration::from_micros(50));
            assert_eq!(carve.access.client(), c);
        }
    }

    #[test]
    fn multi_server_carve_requires_every_shard_path() {
        let (topo, clients, servers) = presets::same_lan_nm(&Background::quiet(), 2, 3);
        let net = Network::new(topo, 7);
        for &c in &clients {
            let carve = net
                .carve_access_multi(c, &servers)
                .expect("quiet sharded LAN must carve");
            assert_eq!(carve.lookahead_up, SimDuration::from_micros(50));
            assert_eq!(carve.lookahead_down, SimDuration::from_micros(50));
        }
        // A fault window on one shard's drop poisons the whole carve.
        let (mut topo, clients, servers) = presets::same_lan_nm(&Background::quiet(), 2, 3);
        let plan = FaultPlan::new().corrupt(SimTime::from_secs(1), 0.5, SimDuration::from_secs(1));
        topo.apply_faults(&plan, clients[0], servers[2]);
        let net = Network::new(topo, 8);
        assert!(net.carve_access_multi(clients[0], &servers).is_none());
    }

    #[test]
    fn background_or_faulted_links_refuse_the_carve() {
        let (topo, clients, s) = presets::same_lan_n(&Background::off_peak(), 2);
        let net = Network::new(topo, 2);
        assert!(
            net.carve_access(clients[0], s).is_none(),
            "background utilization draws from the RNG"
        );

        let (mut topo, clients, s) = presets::same_lan_n(&Background::quiet(), 2);
        let plan = FaultPlan::new().corrupt(SimTime::from_secs(1), 0.5, SimDuration::from_secs(1));
        topo.apply_faults(&plan, clients[0], s);
        let net = Network::new(topo, 3);
        assert!(
            net.carve_access(clients[0], s).is_none(),
            "fault windows on the path forbid the carve"
        );
        assert!(
            net.carve_access(clients[1], s).is_none(),
            "the shared trunk carries the windows, so no client is separable"
        );
    }

    #[test]
    fn carved_uplink_matches_hub_timing_and_emits_at_lookahead() {
        // The same request offered through the carved uplink and through
        // the monolithic network must produce identical first-hop arrival
        // times, and every emission must respect the lookahead bound.
        let (topo, clients, s) = presets::same_lan_n(&Background::quiet(), 2);
        let mut hub = Network::new(topo, 4);
        let carve = hub.carve_access(clients[0], s).unwrap();
        let mut access = carve.access;

        let now = SimTime::from_millis(5);
        let d_access = udp_dgram(&mut access, clients[0], s, 8192 + 120);
        let mut out_access = NetOutput::default();
        access.send_into(now, d_access, &mut out_access);

        let d_hub = Datagram {
            id: hub.alloc_dgram_id(),
            ..udp_dgram(&mut access, clients[0], s, 8192 + 120)
        };
        let mut out_hub = NetOutput::default();
        hub.send_into(now, d_hub, &mut out_hub);

        assert_eq!(out_access.events.len(), out_hub.events.len());
        assert_eq!(out_access.events.len(), 6, "8 KB + RPC header = 6 frags");
        let bridge = hub
            .topology()
            .link(hub.topology().route(clients[0], s).unwrap())
            .to();
        for ((ta, ea), (th, _)) in out_access.events.iter().zip(&out_hub.events) {
            assert_eq!(ta, th, "carved and hub uplinks serialize identically");
            assert!(*ta >= now + carve.lookahead_up, "emission inside lookahead");
            assert_eq!(hub.event_node(ea), bridge);
        }
        assert_eq!(access.stats().frags_sent, 6);
    }

    #[test]
    fn client_side_reassembly_delivers_replies() {
        // Fragments of a server reply delivered into the access domain
        // reassemble exactly as the hub would.
        let (topo, clients, s) = presets::same_lan_n(&Background::quiet(), 2);
        let hub = Network::new(topo, 5);
        let carve = hub.carve_access(clients[0], s).unwrap();
        let mut access = carve.access;

        // Build reply fragments via the hub's own fragmentation.
        let mut meter = CopyMeter::new();
        let want: Vec<u8> = (0..8192usize).map(|i| (i * 7 % 256) as u8).collect();
        let reply = Datagram {
            id: 99,
            src: s,
            dst: clients[0],
            proto: ProtoHeader::Udp {
                sport: 2049,
                dport: 1023,
            },
            payload: MbufChain::from_slice(&want, &mut meter),
        };
        let mut frags = Vec::new();
        let mut stats = NetStats::default();
        fragment_into(reply, 1500, &mut frags, &mut meter, &mut stats);
        assert!(frags.len() > 1);

        let mut out = NetOutput::default();
        let dn = hub.topology().route(s, clients[0]).unwrap();
        for frag in frags {
            access.handle_into(
                SimTime::from_millis(1),
                NetEvent::FragArrive { link: dn, frag },
                &mut out,
            );
        }
        assert_eq!(out.delivered.len(), 1);
        let got = out.delivered[0].dgram.payload.to_vec_for_test();
        assert_eq!(got, want);
        assert_eq!(access.stats().datagrams_delivered, 1);
        // A reassembly timer was armed for the multi-fragment datagram.
        assert!(out
            .events
            .iter()
            .any(|(_, e)| matches!(e, NetEvent::ReasmExpire { .. })));
    }
}

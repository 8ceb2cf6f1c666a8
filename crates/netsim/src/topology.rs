//! Nodes, directed links and static routing.

use std::fmt;

use renofs_sim::SimDuration;

use crate::link::{Link, LinkParams};

/// Identifies a node (host or router).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one *direction* of a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (runs sockets, terminates datagrams).
    Host,
    /// A store-and-forward IP router with the given per-fragment
    /// forwarding delay (route lookup + buffer management on 1991-era
    /// router hardware).
    Router {
        /// Per-fragment forwarding processing time.
        forward_delay: SimDuration,
    },
}

pub(crate) struct Node {
    pub kind: NodeKind,
    routes: Routes,
}

/// How a node picks the outgoing link toward a destination.
enum Routes {
    /// `table[d]` = first link of a shortest path to node `d` (`None` for
    /// the node itself and for nodes it cannot reach).
    Table(Vec<Option<LinkId>>),
    /// The only outgoing link of a node whose neighbour keeps a table
    /// (a host on its drop): it leads wherever the neighbour can reach,
    /// so a thousand such hosts carry no thousand-entry tables.
    Leaf(LinkId),
}

/// A static network topology: nodes plus directed links, with shortest-
/// path routes computed at build time.
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            kind,
            routes: Routes::Table(Vec::new()),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a full-duplex link: two independent directed links with the
    /// same parameters. Returns `(a_to_b, b_to_a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, LinkId) {
        let ab = LinkId(self.links.len());
        self.links.push(Link::new(a, b, params.clone()));
        let ba = LinkId(self.links.len());
        self.links.push(Link::new(b, a, params));
        (ab, ba)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of a node.
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0].kind
    }

    /// Computes shortest-path (hop count) routes between all node pairs.
    /// Must be called after all nodes and links are added. A node with a
    /// single outgoing link gets no table when its neighbour has one.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        // adj[u] = (link, v) pairs.
        let mut adj: Vec<Vec<(LinkId, usize)>> = vec![Vec::new(); n];
        for (i, link) in self.links.iter().enumerate() {
            adj[link.from().0].push((LinkId(i), link.to().0));
        }
        for src in 0..n {
            if let [(link, v)] = adj[src][..] {
                if adj[v].len() != 1 {
                    self.nodes[src].routes = Routes::Leaf(link);
                    continue;
                }
            }
            // BFS from src, recording the first hop toward each dest.
            let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            visited[src] = true;
            for &(l, v) in &adj[src] {
                if !visited[v] {
                    visited[v] = true;
                    first_hop[v] = Some(l);
                    queue.push_back(v);
                }
            }
            while let Some(u) = queue.pop_front() {
                for &(_, v) in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        first_hop[v] = first_hop[u];
                        queue.push_back(v);
                    }
                }
            }
            self.nodes[src].routes = Routes::Table(first_hop);
        }
    }

    /// The outgoing link from `at` toward `dst`, if a route exists.
    pub fn route(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        match &self.nodes[at.0].routes {
            Routes::Table(table) => table.get(dst.0).copied().flatten(),
            Routes::Leaf(link) => {
                let next = self.links[link.0].to();
                (dst != at && (dst == next || self.route(next, dst).is_some())).then_some(*link)
            }
        }
    }

    /// MTU of the smallest-MTU link on the path from `src` to `dst`
    /// (useful for choosing a TCP MSS).
    pub fn path_mtu(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let mut mtu = usize::MAX;
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let link_id = self.route(at, dst)?;
            let link = &self.links[link_id.0];
            mtu = mtu.min(link.params().mtu);
            at = link.to();
            hops += 1;
            if hops > self.nodes.len() {
                return None;
            }
        }
        if mtu == usize::MAX {
            None
        } else {
            Some(mtu)
        }
    }

    /// Every directed link on the routed path from `src` to `dst`.
    pub fn path_links(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let Some(link_id) = self.route(at, dst) else {
                break;
            };
            links.push(link_id);
            at = self.links[link_id.0].to();
            hops += 1;
            if hops > self.nodes.len() {
                break;
            }
        }
        links
    }

    /// Compiles a fault plan and installs its link-level windows on every
    /// link of the `a`–`b` path, in both directions. Server-crash events
    /// are ignored here (the `World` interprets them). An empty plan
    /// installs nothing and leaves link behavior bit-identical.
    pub fn apply_faults(&mut self, plan: &crate::faults::FaultPlan, a: NodeId, b: NodeId) {
        if plan.is_empty() {
            return;
        }
        let windows = plan.compile();
        if windows.is_empty() {
            return;
        }
        let mut ids = self.path_links(a, b);
        ids.extend(self.path_links(b, a));
        for id in ids {
            self.links[id.0].set_faults(windows.clone());
        }
    }

    pub(crate) fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    pub(crate) fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

/// Ready-made builders for the paper's three test configurations.
pub mod presets {
    use renofs_sim::SimDuration;

    use super::{NodeId, NodeKind, Topology};
    use crate::link::LinkParams;

    /// Background utilization applied to the production networks the
    /// paper measured across ("realistic but not controlled" loads during
    /// off-peak hours).
    #[derive(Clone, Copy, Debug)]
    pub struct Background {
        /// Fraction of Ethernet bandwidth consumed by other hosts.
        pub ethernet: f64,
        /// Fraction of the token ring consumed by other traffic.
        pub ring: f64,
        /// Random per-fragment loss probability on LAN segments.
        pub lan_loss: f64,
        /// Random per-fragment loss probability on the serial link.
        pub serial_loss: f64,
    }

    impl Background {
        /// Quiet off-peak conditions, per the paper's appendix.
        pub fn off_peak() -> Self {
            Background {
                ethernet: 0.08,
                ring: 0.05,
                lan_loss: 0.0005,
                serial_loss: 0.001,
            }
        }

        /// Daytime production-network conditions: the Ethernets and the
        /// token ring carry substantial cross-traffic, which is what
        /// makes round-trip times spiky enough for the fixed 1-second
        /// RTO to misfire (the Graphs 3-4 regime).
        pub fn production() -> Self {
            Background {
                ethernet: 0.40,
                ring: 0.45,
                lan_loss: 0.004,
                serial_loss: 0.001,
            }
        }

        /// A perfectly quiet network (unit tests, calibration).
        pub fn quiet() -> Self {
            Background {
                ethernet: 0.0,
                ring: 0.0,
                lan_loss: 0.0,
                serial_loss: 0.0,
            }
        }
    }

    fn ethernet(bg: &Background) -> LinkParams {
        LinkParams {
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(50),
            mtu: 1500,
            frame_overhead: 26,
            queue_capacity_bytes: 60_000,
            loss_prob: bg.lan_loss,
            bg_util: bg.ethernet,
        }
    }

    /// The 80 Mbit/s token ring joining configuration 2's routers.
    pub fn token_ring(bg: &Background) -> LinkParams {
        LinkParams {
            bandwidth_bps: 80_000_000,
            prop_delay: SimDuration::from_micros(200),
            mtu: 4464,
            frame_overhead: 32,
            queue_capacity_bytes: 120_000,
            loss_prob: bg.lan_loss,
            bg_util: bg.ring,
        }
    }

    /// The 56 Kbit/s point-to-point line configuration 3 adds.
    pub fn serial_56k(bg: &Background) -> LinkParams {
        LinkParams {
            bandwidth_bps: 56_000,
            prop_delay: SimDuration::from_millis(4),
            mtu: 576,
            frame_overhead: 8,
            queue_capacity_bytes: 48_000,
            loss_prob: bg.serial_loss,
            bg_util: 0.0,
        }
    }

    /// `n` client hosts and `m` server hosts on either side of `trunk`.
    ///
    /// Each host has its own full-duplex 10 Mbit/s Ethernet drop. An
    /// empty trunk is configuration 1: the drops meet at a multiport
    /// bridge (10 µs store-and-forward, 1991-era learning-bridge
    /// latency), or a lone client and server share one wire. Otherwise
    /// `trunk.len() + 1` IP routers (800 µs each) are joined by the
    /// trunk's links in order, the clients' drops on the first and the
    /// servers' on the last: `[token_ring]` is configuration 2 and
    /// `[token_ring, serial_56k]` configuration 3. Only a server's drop
    /// and the trunk carry more than one host's traffic; no segment is
    /// shared the way a 1991 thickwire Ethernet was (EXPERIMENTS.md,
    /// deviations).
    ///
    /// Nodes are numbered clients, bridge or routers, servers; links are
    /// added client drops, trunk, server drops.
    ///
    /// Returns `(topology, clients, servers)`.
    pub fn fleet(
        bg: &Background,
        trunk: &[LinkParams],
        n: usize,
        m: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        assert!(n >= 1 && m >= 1, "at least one client and one server");
        let (hops, delay_us) = match trunk.len() {
            0 if n * m == 1 => (0, 0),
            0 => (1, 10),
            k => (k + 1, 800),
        };
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n).map(|_| t.add_node(NodeKind::Host)).collect();
        for _ in 0..hops {
            t.add_node(NodeKind::Router {
                forward_delay: SimDuration::from_micros(delay_us),
            });
        }
        let servers: Vec<NodeId> = (0..m).map(|_| t.add_node(NodeKind::Host)).collect();
        let hop = |k: usize| NodeId(n + k);
        let entry = if hops == 0 { servers[0] } else { hop(0) };
        for &c in &clients {
            t.add_duplex_link(c, entry, ethernet(bg));
        }
        for (k, params) in trunk.iter().enumerate() {
            t.add_duplex_link(hop(k), hop(k + 1), params.clone());
        }
        if hops > 0 {
            for &s in &servers {
                t.add_duplex_link(hop(hops - 1), s, ethernet(bg));
            }
        }
        t.compute_routes();
        (t, clients, servers)
    }

    fn single(
        (t, clients, servers): (Topology, Vec<NodeId>, Vec<NodeId>),
    ) -> (Topology, NodeId, NodeId) {
        (t, clients[0], servers[0])
    }

    /// Configuration 1: client and server on one uncongested Ethernet.
    ///
    /// Returns `(topology, client, server)`.
    pub fn same_lan(bg: &Background) -> (Topology, NodeId, NodeId) {
        single(fleet(bg, &[], 1, 1))
    }

    /// Configuration 2: two Ethernets joined by an 80 Mbit/s token ring
    /// and two IP routers.
    pub fn token_ring_path(bg: &Background) -> (Topology, NodeId, NodeId) {
        single(fleet(bg, &[token_ring(bg)], 1, 1))
    }

    /// Configuration 3: the token ring path plus a 56 Kbit/s point-to-
    /// point link and a third router.
    pub fn slow_link_path(bg: &Background) -> (Topology, NodeId, NodeId) {
        single(fleet(bg, &[token_ring(bg), serial_56k(bg)], 1, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::presets::{self, Background};
    use super::*;
    use proptest::prelude::*;

    /// The reference leaf routing is held to: `compute_routes` as it
    /// stood while every node kept a table — one BFS per source, first
    /// hop recorded per destination, in link order.
    fn reference_tables(t: &Topology) -> Vec<Vec<Option<LinkId>>> {
        let n = t.nodes.len();
        // adj[u] = (link, v) pairs.
        let mut adj: Vec<Vec<(LinkId, usize)>> = vec![Vec::new(); n];
        for (i, link) in t.links.iter().enumerate() {
            adj[link.from().0].push((LinkId(i), link.to().0));
        }
        let mut tables = Vec::new();
        for src in 0..n {
            // BFS from src, recording the first hop toward each dest.
            let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            visited[src] = true;
            for &(l, v) in &adj[src] {
                if !visited[v] {
                    visited[v] = true;
                    first_hop[v] = Some(l);
                    queue.push_back(v);
                }
            }
            while let Some(u) = queue.pop_front() {
                for &(_, v) in &adj[u] {
                    if !visited[v] {
                        visited[v] = true;
                        first_hop[v] = first_hop[u];
                        queue.push_back(v);
                    }
                }
            }
            tables.push(first_hop);
        }
        tables
    }

    /// `path_mtu` as it stood, reading the reference tables.
    fn reference_path_mtu(
        t: &Topology,
        tables: &[Vec<Option<LinkId>>],
        src: NodeId,
        dst: NodeId,
    ) -> Option<usize> {
        let mut mtu = usize::MAX;
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let link_id = tables[at.0].get(dst.0).copied().flatten()?;
            let link = &t.links[link_id.0];
            mtu = mtu.min(link.params().mtu);
            at = link.to();
            hops += 1;
            if hops > t.nodes.len() {
                return None;
            }
        }
        if mtu == usize::MAX {
            None
        } else {
            Some(mtu)
        }
    }

    /// Every pair, and one destination past the last node, answered as
    /// the all-pairs tables answer it.
    fn assert_routes_as_reference(t: &Topology) -> Result<(), TestCaseError> {
        let tables = reference_tables(t);
        for at in (0..t.node_count()).map(NodeId) {
            for dst in (0..=t.node_count()).map(NodeId) {
                let want = tables[at.0].get(dst.0).copied().flatten();
                prop_assert_eq!(t.route(at, dst), want, "route {} -> {}", at, dst);
                if dst.0 < t.node_count() {
                    let want = reference_path_mtu(t, &tables, at, dst);
                    prop_assert_eq!(t.path_mtu(at, dst), want, "mtu {} -> {}", at, dst);
                }
            }
        }
        Ok(())
    }

    /// The paper's three trunks under `bg`: configurations 1, 2 and 3.
    fn trunks(bg: &Background) -> [Vec<LinkParams>; 3] {
        [
            vec![],
            vec![presets::token_ring(bg)],
            vec![presets::token_ring(bg), presets::serial_56k(bg)],
        ]
    }

    fn leaves(t: &Topology) -> usize {
        let leaf = |n: &&Node| matches!(n.routes, Routes::Leaf(_));
        t.nodes.iter().filter(leaf).count()
    }

    #[test]
    fn every_preset_routes_as_the_all_pairs_tables_did() {
        let bg = Background::quiet();
        let mut topologies = vec![
            presets::same_lan(&bg).0,
            presets::token_ring_path(&bg).0,
            presets::slow_link_path(&bg).0,
        ];
        for (n, m) in [(2, 1), (5, 1), (3, 2), (9, 4)] {
            for trunk in trunks(&bg) {
                topologies.push(presets::fleet(&bg, &trunk, n, m).0);
            }
        }
        for t in &topologies {
            assert_routes_as_reference(t).unwrap();
        }
        // Two hosts on one wire each have a single link, so neither is a
        // leaf of the other; behind a bridge or a router every host is.
        assert_eq!(leaves(&topologies[0]), 0);
        assert_eq!(leaves(&topologies[1]), 2);
        assert_eq!(leaves(topologies.last().unwrap()), 9 + 4);
    }

    proptest! {
        /// Random directed graphs — isolated nodes, one-way links, parallel
        /// links and self-loops, chains of single-link nodes hung off the
        /// rest, two halves that never meet — route as the all-pairs
        /// tables did, ties included.
        #[test]
        fn random_graphs_route_as_the_all_pairs_tables_did(
            nodes in 1usize..12,
            halves in any::<bool>(),
            links in proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<bool>(), 0usize..3), 0..24),
            chains in proptest::collection::vec((any::<prop::sample::Index>(), 1usize..4, any::<bool>()), 0..4),
        ) {
            // Ethernet or token ring, so the MTU along a path varies.
            let ring = presets::token_ring_path(&Background::quiet()).0;
            let params = |kind: usize| ring.links[2 * kind.min(1)].params().clone();
            let mut t = Topology::new();
            for _ in 0..nodes {
                t.add_node(NodeKind::Host);
            }
            // With `halves`, a link stays inside its end's half.
            let half = |i: usize| if halves { i * 2 / nodes } else { 0 };
            for (a, b, duplex, kind) in links {
                let (a, b) = (a.index(nodes), b.index(nodes));
                if half(a) != half(b) {
                    continue;
                }
                if duplex {
                    t.add_duplex_link(NodeId(a), NodeId(b), params(kind));
                } else {
                    t.links.push(Link::new(NodeId(a), NodeId(b), params(kind)));
                }
            }
            // Chains of nodes with one outgoing link each, toward the
            // graph; the return links are there or not.
            for (root, len, back) in chains {
                let mut next = NodeId(root.index(nodes));
                for _ in 0..len {
                    let n = t.add_node(NodeKind::Host);
                    t.links.push(Link::new(n, next, params(0)));
                    if back {
                        t.links.push(Link::new(next, n, params(1)));
                    }
                    next = n;
                }
            }
            t.compute_routes();
            assert_routes_as_reference(&t)?;
        }
    }

    #[test]
    fn routes_on_chain_topology() {
        let (t, client, server) = presets::slow_link_path(&Background::quiet());
        // The route from client toward server must exist at every hop.
        let mut at = client;
        let mut hops = 0;
        while at != server {
            let l = t.route(at, server).expect("route exists");
            at = t.link(l).to();
            hops += 1;
        }
        assert_eq!(hops, 4, "client, 3 routers, server = 4 links");
        // And back.
        assert!(t.route(server, client).is_some());
    }

    #[test]
    fn path_mtu_finds_bottleneck() {
        let bg = Background::quiet();
        let (t, c, s) = presets::same_lan(&bg);
        assert_eq!(t.path_mtu(c, s), Some(1500));
        let (t, c, s) = presets::token_ring_path(&bg);
        assert_eq!(
            t.path_mtu(c, s),
            Some(1500),
            "ring MTU larger than ethernet"
        );
        let (t, c, s) = presets::slow_link_path(&bg);
        assert_eq!(t.path_mtu(c, s), Some(576), "serial link is the bottleneck");
    }

    #[test]
    fn node_metadata() {
        let (t, c, s) = presets::token_ring_path(&Background::quiet());
        assert_eq!(t.node_kind(c), NodeKind::Host);
        assert_eq!(t.node_kind(s), NodeKind::Host);
        assert!(matches!(t.node_kind(NodeId(1)), NodeKind::Router { .. }));
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn route_to_self_is_none() {
        let (t, c, _) = presets::same_lan(&Background::quiet());
        assert_eq!(t.route(c, c), None);
    }

    /// `t` in one line: each node's kind in order (`H` a host, `R` and
    /// the forwarding delay in µs a router or bridge), then each duplex
    /// link as `a-b` and its parameters (`e` Ethernet, `r` token ring,
    /// `s` serial) under `Background::off_peak()`.
    fn layout(t: &Topology) -> String {
        let params = |p: &LinkParams| {
            let key = (
                p.bandwidth_bps,
                p.prop_delay.as_nanos(),
                p.mtu,
                p.frame_overhead,
                p.queue_capacity_bytes,
                p.loss_prob,
                p.bg_util,
            );
            match key {
                (10_000_000, 50_000, 1500, 26, 60_000, 0.0005, 0.08) => 'e',
                (80_000_000, 200_000, 4464, 32, 120_000, 0.0005, 0.05) => 'r',
                (56_000, 4_000_000, 576, 8, 48_000, 0.001, 0.0) => 's',
                _ => panic!("unpinned link parameters {p:?}"),
            }
        };
        let mut out: Vec<String> = (0..t.node_count())
            .map(|i| match t.node_kind(NodeId(i)) {
                NodeKind::Host => "H".to_string(),
                NodeKind::Router { forward_delay } => {
                    format!("R{}", forward_delay.as_nanos() / 1000)
                }
            })
            .collect();
        out.push("|".to_string());
        for pair in t.links.chunks(2) {
            let [ab, ba] = pair else {
                panic!("a link without its reverse")
            };
            assert_eq!((ab.from(), ab.to()), (ba.to(), ba.from()));
            assert_eq!(params(ab.params()), params(ba.params()));
            let (a, b) = (ab.from().0, ab.to().0);
            out.push(format!("{a}-{b}{}", params(ab.params())));
        }
        out.join(" ")
    }

    /// Every trunk at four fleet shapes builds the nodes and links the
    /// six hand-written builders it replaced built, in their order
    /// (recorded from them), and each one-client wrapper is its
    /// `fleet(.., 1, 1)`.
    #[test]
    fn fleet_builds_the_pinned_nodes_and_links_in_order() {
        const PINNED: [[&str; 3]; 4] = [
            [
                "H H | 0-1e",
                "H R800 R800 H | 0-1e 1-2r 2-3e",
                "H R800 R800 R800 H | 0-1e 1-2r 2-3s 3-4e",
            ],
            [
                "H R10 H H H | 0-1e 1-2e 1-3e 1-4e",
                "H R800 R800 H H H | 0-1e 1-2r 2-3e 2-4e 2-5e",
                "H R800 R800 R800 H H H | 0-1e 1-2r 2-3s 3-4e 3-5e 3-6e",
            ],
            [
                "H H H H R10 H | 0-4e 1-4e 2-4e 3-4e 4-5e",
                "H H H H R800 R800 H | 0-4e 1-4e 2-4e 3-4e 4-5r 5-6e",
                "H H H H R800 R800 R800 H | 0-4e 1-4e 2-4e 3-4e 4-5r 5-6s 6-7e",
            ],
            [
                "H H H R10 H H | 0-3e 1-3e 2-3e 3-4e 3-5e",
                "H H H R800 R800 H H | 0-3e 1-3e 2-3e 3-4r 4-5e 4-6e",
                "H H H R800 R800 R800 H H | 0-3e 1-3e 2-3e 3-4r 4-5s 5-6e 5-7e",
            ],
        ];
        let bg = Background::off_peak();
        for ((n, m), pinned) in [(1, 1), (1, 3), (4, 1), (3, 2)].into_iter().zip(PINNED) {
            for (trunk, want) in trunks(&bg).iter().zip(pinned) {
                let (t, clients, servers) = presets::fleet(&bg, trunk, n, m);
                assert_eq!(layout(&t), want, "{n} clients, {m} servers");
                assert_eq!(clients, (0..n).map(NodeId).collect::<Vec<_>>());
                let first = t.node_count() - m;
                assert_eq!(servers, (first..first + m).map(NodeId).collect::<Vec<_>>());
            }
        }
        let wrappers = [
            presets::same_lan(&bg),
            presets::token_ring_path(&bg),
            presets::slow_link_path(&bg),
        ];
        for ((t, c, s), trunk) in wrappers.into_iter().zip(trunks(&bg)) {
            let (tf, clients, servers) = presets::fleet(&bg, &trunk, 1, 1);
            assert_eq!(layout(&t), layout(&tf));
            assert_eq!((c, s), (clients[0], servers[0]));
        }
    }

    #[test]
    fn n_client_lan_routes_through_shared_segment() {
        let bg = Background::quiet();
        let (t, clients, servers) = presets::fleet(&bg, &[], 4, 1);
        let server = servers[0];
        assert_eq!(clients.len(), 4);
        assert_eq!(t.node_count(), 6, "4 clients + hub + server");
        // Every client reaches the server in 2 hops via the bridge, and
        // the final hop is the same shared link for all of them.
        let mut shared = None;
        for &c in &clients {
            let path = t.path_links(c, server);
            assert_eq!(path.len(), 2, "client -> hub -> server");
            let last = *path.last().unwrap();
            if let Some(prev) = shared {
                assert_eq!(prev, last, "aggregate rides one segment");
            }
            shared = Some(last);
        }
        assert_eq!(t.path_mtu(clients[0], server), Some(1500));
    }

    #[test]
    fn nm_presets_with_one_server_collapse_to_n_presets() {
        // Several clients and one server: the path between them is the
        // preset's hosts and routers in order.
        let bg = Background::quiet();
        let router = |delay_us| NodeKind::Router {
            forward_delay: SimDuration::from_micros(delay_us),
        };
        let [lan, ring, slow] = trunks(&bg);
        for ((t, clients, servers), hops, delay) in [
            (presets::fleet(&bg, &lan, 4, 1), 1, 10),
            (presets::fleet(&bg, &ring, 3, 1), 2, 800),
            (presets::fleet(&bg, &slow, 2, 1), 3, 800),
        ] {
            assert_eq!(servers.len(), 1);
            assert_eq!(t.node_count(), clients.len() + hops + 1);
            for &c in &clients {
                assert_eq!(t.node_kind(c), NodeKind::Host);
            }
            for k in 0..hops {
                let hop = NodeId(clients.len() + k);
                assert_eq!(t.node_kind(hop), router(delay));
            }
            assert_eq!(t.node_kind(servers[0]), NodeKind::Host);
        }
    }

    #[test]
    fn nm_lan_servers_share_the_bridge_segmentwise() {
        let bg = Background::quiet();
        let (t, clients, servers) = presets::fleet(&bg, &[], 4, 3);
        assert_eq!(t.node_count(), 4 + 1 + 3, "clients + bridge + servers");
        for &c in &clients {
            for &s in &servers {
                let path = t.path_links(c, s);
                assert_eq!(path.len(), 2, "client -> bridge -> server");
                // Every client's first hop toward every server is its own
                // access drop.
                assert_eq!(t.route(c, s), t.route(c, servers[0]));
            }
        }
        // Distinct server drops: the last hop differs per server.
        let a = *t.path_links(clients[0], servers[0]).last().unwrap();
        let b = *t.path_links(clients[0], servers[1]).last().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn nm_slow_link_shares_serial_hop_across_servers() {
        let bg = Background::quiet();
        let [_, _, slow] = trunks(&bg);
        let (t, clients, servers) = presets::fleet(&bg, &slow, 2, 2);
        for &c in &clients {
            for &s in &servers {
                assert_eq!(t.path_mtu(c, s), Some(576), "serial is the bottleneck");
                assert_eq!(t.path_links(c, s).len(), 4);
                assert_eq!(t.route(c, s), t.route(c, servers[0]));
            }
        }
        let a = t.path_links(clients[0], servers[0]);
        let b = t.path_links(clients[0], servers[1]);
        assert_eq!(a[2], b[2], "serial hop shared by both shards");
        assert_ne!(a[3], b[3], "per-server drops behind the last router");
    }

    #[test]
    fn n_client_slow_link_keeps_serial_bottleneck() {
        let bg = Background::quiet();
        let [_, _, slow] = trunks(&bg);
        let (t, clients, servers) = presets::fleet(&bg, &slow, 8, 1);
        let server = servers[0];
        for &c in &clients {
            assert_eq!(t.path_mtu(c, server), Some(576));
            assert_eq!(t.path_links(c, server).len(), 4);
        }
        // Distinct access links, shared serial hop.
        let a = t.path_links(clients[0], server);
        let b = t.path_links(clients[7], server);
        assert_ne!(a[0], b[0]);
        assert_eq!(a[2], b[2], "serial hop is shared");
    }
}

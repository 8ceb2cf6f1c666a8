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
    pub name: &'static str,
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
    pub fn add_node(&mut self, name: &'static str, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            kind,
            name,
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

    /// The node's name.
    pub fn node_name(&self, n: NodeId) -> &'static str {
        self.nodes[n.0].name
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

    /// Read-only statistics for every directed link, with endpoint names.
    pub fn link_stats(&self) -> Vec<(String, crate::link::LinkStats)> {
        self.links
            .iter()
            .map(|l| {
                let label = format!(
                    "{}->{}",
                    self.nodes[l.from().0].name,
                    self.nodes[l.to().0].name
                );
                (label, l.stats())
            })
            .collect()
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

    fn token_ring(bg: &Background) -> LinkParams {
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

    fn serial_56k(bg: &Background) -> LinkParams {
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

    /// Configuration 1: client and server on one uncongested Ethernet.
    ///
    /// Returns `(topology, client, server)`.
    pub fn same_lan(bg: &Background) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let client = t.add_node("client", NodeKind::Host);
        let server = t.add_node("server", NodeKind::Host);
        t.add_duplex_link(client, server, ethernet(bg));
        t.compute_routes();
        (t, client, server)
    }

    fn router() -> NodeKind {
        NodeKind::Router {
            forward_delay: SimDuration::from_micros(800),
        }
    }

    /// Configuration 2: two Ethernets joined by an 80 Mbit/s token ring
    /// and two IP routers.
    pub fn token_ring_path(bg: &Background) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let client = t.add_node("client", NodeKind::Host);
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let server = t.add_node("server", NodeKind::Host);
        t.add_duplex_link(client, r1, ethernet(bg));
        t.add_duplex_link(r1, r2, token_ring(bg));
        t.add_duplex_link(r2, server, ethernet(bg));
        t.compute_routes();
        (t, client, server)
    }

    /// Configuration 3: the token ring path plus a 56 Kbit/s point-to-
    /// point link and a third router.
    pub fn slow_link_path(bg: &Background) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let client = t.add_node("client", NodeKind::Host);
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let r3 = t.add_node("router3", router());
        let server = t.add_node("server", NodeKind::Host);
        t.add_duplex_link(client, r1, ethernet(bg));
        t.add_duplex_link(r1, r2, token_ring(bg));
        t.add_duplex_link(r2, r3, serial_56k(bg));
        t.add_duplex_link(r3, server, ethernet(bg));
        t.compute_routes();
        (t, client, server)
    }

    /// Stable display names for the crowd's client machines (node names
    /// are `&'static str`; 64 covers the largest sweep point).
    const CLIENT_NAMES: [&str; 64] = [
        "client1", "client2", "client3", "client4", "client5", "client6", "client7", "client8",
        "client9", "client10", "client11", "client12", "client13", "client14", "client15",
        "client16", "client17", "client18", "client19", "client20", "client21", "client22",
        "client23", "client24", "client25", "client26", "client27", "client28", "client29",
        "client30", "client31", "client32", "client33", "client34", "client35", "client36",
        "client37", "client38", "client39", "client40", "client41", "client42", "client43",
        "client44", "client45", "client46", "client47", "client48", "client49", "client50",
        "client51", "client52", "client53", "client54", "client55", "client56", "client57",
        "client58", "client59", "client60", "client61", "client62", "client63", "client64",
    ];

    fn client_name(i: usize) -> &'static str {
        CLIENT_NAMES.get(i).copied().unwrap_or("client")
    }

    /// Stable display names for a sharded fleet's server machines (8
    /// covers the largest `repro shard` sweep point).
    const SERVER_NAMES: [&str; 8] = [
        "server1", "server2", "server3", "server4", "server5", "server6", "server7", "server8",
    ];

    fn server_name(j: usize) -> &'static str {
        SERVER_NAMES.get(j).copied().unwrap_or("server")
    }

    /// A multiport bridge joining hosts on one LAN segment: store-and-
    /// forward like a router, but with 1991-era learning-bridge latency
    /// rather than an IP forwarding path.
    fn bridge() -> NodeKind {
        NodeKind::Router {
            forward_delay: SimDuration::from_micros(10),
        }
    }

    /// Configuration 1 scaled to `n` clients. `n == 1` is exactly
    /// [`same_lan`]; for larger communities each client gets its own
    /// drop onto a bridge, and the bridge–server Ethernet carries the
    /// aggregate — the shared segment every client's traffic contends
    /// for, just as on a real thickwire LAN.
    ///
    /// Returns `(topology, clients, server)`.
    pub fn same_lan_n(bg: &Background, n: usize) -> (Topology, Vec<NodeId>, NodeId) {
        assert!(n >= 1, "at least one client");
        if n == 1 {
            let (t, c, s) = same_lan(bg);
            return (t, vec![c], s);
        }
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let hub = t.add_node("hub", bridge());
        let server = t.add_node("server", NodeKind::Host);
        for &c in &clients {
            t.add_duplex_link(c, hub, ethernet(bg));
        }
        t.add_duplex_link(hub, server, ethernet(bg));
        t.compute_routes();
        (t, clients, server)
    }

    /// Configuration 2 scaled to `n` clients: every client enters the
    /// first router on its own Ethernet drop, then shares the token ring
    /// and the server-side Ethernet. `n == 1` is exactly
    /// [`token_ring_path`].
    pub fn token_ring_path_n(bg: &Background, n: usize) -> (Topology, Vec<NodeId>, NodeId) {
        assert!(n >= 1, "at least one client");
        if n == 1 {
            let (t, c, s) = token_ring_path(bg);
            return (t, vec![c], s);
        }
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let server = t.add_node("server", NodeKind::Host);
        for &c in &clients {
            t.add_duplex_link(c, r1, ethernet(bg));
        }
        t.add_duplex_link(r1, r2, token_ring(bg));
        t.add_duplex_link(r2, server, ethernet(bg));
        t.compute_routes();
        (t, clients, server)
    }

    /// Configuration 3 scaled to `n` clients: the shared 56 Kbit/s serial
    /// hop throttles the whole community. `n == 1` is exactly
    /// [`slow_link_path`].
    pub fn slow_link_path_n(bg: &Background, n: usize) -> (Topology, Vec<NodeId>, NodeId) {
        assert!(n >= 1, "at least one client");
        if n == 1 {
            let (t, c, s) = slow_link_path(bg);
            return (t, vec![c], s);
        }
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let r3 = t.add_node("router3", router());
        let server = t.add_node("server", NodeKind::Host);
        for &c in &clients {
            t.add_duplex_link(c, r1, ethernet(bg));
        }
        t.add_duplex_link(r1, r2, token_ring(bg));
        t.add_duplex_link(r2, r3, serial_56k(bg));
        t.add_duplex_link(r3, server, ethernet(bg));
        t.compute_routes();
        (t, clients, server)
    }

    /// Configuration 1 sharded to `m` servers: every client and every
    /// server gets its own drop onto the bridge, so the shared segment
    /// carries the whole fleet's aggregate. `m == 1` is exactly
    /// [`same_lan_n`] (and therefore byte-identical to the pre-shard
    /// worlds).
    ///
    /// Returns `(topology, clients, servers)`.
    pub fn same_lan_nm(
        bg: &Background,
        n: usize,
        m: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        assert!(m >= 1, "at least one server");
        if m == 1 {
            let (t, c, s) = same_lan_n(bg, n);
            return (t, c, vec![s]);
        }
        assert!(n >= 1, "at least one client");
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let hub = t.add_node("hub", bridge());
        let servers: Vec<NodeId> = (0..m)
            .map(|j| t.add_node(server_name(j), NodeKind::Host))
            .collect();
        for &c in &clients {
            t.add_duplex_link(c, hub, ethernet(bg));
        }
        for &s in &servers {
            t.add_duplex_link(hub, s, ethernet(bg));
        }
        t.compute_routes();
        (t, clients, servers)
    }

    /// Configuration 2 sharded to `m` servers: the clients share the
    /// token ring as before, then each server hangs off the far router
    /// on its own Ethernet drop — the ring stays the common bottleneck.
    /// `m == 1` is exactly [`token_ring_path_n`].
    pub fn token_ring_path_nm(
        bg: &Background,
        n: usize,
        m: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        assert!(m >= 1, "at least one server");
        if m == 1 {
            let (t, c, s) = token_ring_path_n(bg, n);
            return (t, c, vec![s]);
        }
        assert!(n >= 1, "at least one client");
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let servers: Vec<NodeId> = (0..m)
            .map(|j| t.add_node(server_name(j), NodeKind::Host))
            .collect();
        for &c in &clients {
            t.add_duplex_link(c, r1, ethernet(bg));
        }
        t.add_duplex_link(r1, r2, token_ring(bg));
        for &s in &servers {
            t.add_duplex_link(r2, s, ethernet(bg));
        }
        t.compute_routes();
        (t, clients, servers)
    }

    /// Configuration 3 sharded to `m` servers: the whole fleet still
    /// funnels through the 56 Kbit/s serial hop before fanning out to
    /// per-server Ethernet drops. `m == 1` is exactly
    /// [`slow_link_path_n`].
    pub fn slow_link_path_nm(
        bg: &Background,
        n: usize,
        m: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        assert!(m >= 1, "at least one server");
        if m == 1 {
            let (t, c, s) = slow_link_path_n(bg, n);
            return (t, c, vec![s]);
        }
        assert!(n >= 1, "at least one client");
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(client_name(i), NodeKind::Host))
            .collect();
        let r1 = t.add_node("router1", router());
        let r2 = t.add_node("router2", router());
        let r3 = t.add_node("router3", router());
        let servers: Vec<NodeId> = (0..m)
            .map(|j| t.add_node(server_name(j), NodeKind::Host))
            .collect();
        for &c in &clients {
            t.add_duplex_link(c, r1, ethernet(bg));
        }
        t.add_duplex_link(r1, r2, token_ring(bg));
        t.add_duplex_link(r2, r3, serial_56k(bg));
        for &s in &servers {
            t.add_duplex_link(r3, s, ethernet(bg));
        }
        t.compute_routes();
        (t, clients, servers)
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
            topologies.push(presets::same_lan_nm(&bg, n, m).0);
            topologies.push(presets::token_ring_path_nm(&bg, n, m).0);
            topologies.push(presets::slow_link_path_nm(&bg, n, m).0);
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
                t.add_node("n", NodeKind::Host);
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
                    let n = t.add_node("chain", NodeKind::Host);
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
        assert_eq!(t.node_name(s), "server");
        assert!(matches!(t.node_kind(NodeId(1)), NodeKind::Router { .. }));
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn route_to_self_is_none() {
        let (t, c, _) = presets::same_lan(&Background::quiet());
        assert_eq!(t.route(c, c), None);
    }

    #[test]
    fn n_client_presets_collapse_to_singles() {
        let bg = Background::quiet();
        // n == 1 must build the identical topology (node and link order)
        // as the original single-client presets.
        let (t1, c1, s1) = presets::same_lan(&bg);
        let (tn, cn, sn) = presets::same_lan_n(&bg, 1);
        assert_eq!(cn, vec![c1]);
        assert_eq!(sn, s1);
        assert_eq!(tn.node_count(), t1.node_count());
        let (t1, _, _) = presets::token_ring_path(&bg);
        let (tn, cn, _) = presets::token_ring_path_n(&bg, 1);
        assert_eq!(tn.node_count(), t1.node_count());
        assert_eq!(cn.len(), 1);
        let (t1, _, _) = presets::slow_link_path(&bg);
        let (tn, cn, _) = presets::slow_link_path_n(&bg, 1);
        assert_eq!(tn.node_count(), t1.node_count());
        assert_eq!(cn.len(), 1);
    }

    #[test]
    fn n_client_lan_routes_through_shared_segment() {
        let bg = Background::quiet();
        let (t, clients, server) = presets::same_lan_n(&bg, 4);
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
        let bg = Background::quiet();
        let (tn, cn, sn) = presets::same_lan_n(&bg, 4);
        let (tm, cm, sm) = presets::same_lan_nm(&bg, 4, 1);
        assert_eq!(cm, cn);
        assert_eq!(sm, vec![sn]);
        assert_eq!(tm.node_count(), tn.node_count());
        let (tn, _, sn) = presets::token_ring_path_n(&bg, 3);
        let (tm, _, sm) = presets::token_ring_path_nm(&bg, 3, 1);
        assert_eq!(sm, vec![sn]);
        assert_eq!(tm.node_count(), tn.node_count());
        let (tn, _, sn) = presets::slow_link_path_n(&bg, 2);
        let (tm, _, sm) = presets::slow_link_path_nm(&bg, 2, 1);
        assert_eq!(sm, vec![sn]);
        assert_eq!(tm.node_count(), tn.node_count());
    }

    #[test]
    fn nm_lan_servers_share_the_bridge_segmentwise() {
        let bg = Background::quiet();
        let (t, clients, servers) = presets::same_lan_nm(&bg, 4, 3);
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
        let (t, clients, servers) = presets::slow_link_path_nm(&bg, 2, 2);
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
        let (t, clients, server) = presets::slow_link_path_n(&bg, 8);
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

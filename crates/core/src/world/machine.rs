//! What a client machine and a server machine share: where every machine
//! sits, the TCP end each side of a mount runs, the frames they exchange,
//! and [`Machine`], the one driver of the RPC traffic between a machine
//! and one peer over UDP or TCP.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::{Delivery, NodeId, ProtoHeader, Topology, IP_HEADER, TCP_HEADER};
use renofs_sim::{EventQueue, SimTime};
use renofs_sunrpc::{frame_record, RecordReader, NFS_PORT};
use renofs_transport::{TcpConfig, TcpConn, TcpOut, TcpSegment};

use super::Ev;
use crate::host::{udp_fragments, Host};

/// A client machine's network address and its path MTU to each server.
pub(super) struct ClientMeta {
    node: NodeId,
    sport: u16,
    pub(super) mtus: Vec<usize>,
}

/// Where every machine sits, stored once and read by all of them: each
/// addresses its frames from it, and the network hands deliveries over by
/// it. Nothing changes it after construction.
pub(super) struct Addrs {
    /// Server index -> node.
    pub(super) servers: Vec<NodeId>,
    /// Client index -> address and path MTUs.
    pub(super) clients: Vec<ClientMeta>,
    /// Node index -> the index of the client machine there.
    pub(super) client_at: Vec<Option<usize>>,
    /// Node index -> the index of the server machine there.
    pub(super) server_at: Vec<Option<usize>>,
}

impl Addrs {
    pub(super) fn new(topo: &Topology, client_nodes: &[NodeId], servers: Vec<NodeId>) -> Self {
        let mut client_at = vec![None; topo.node_count()];
        let mut server_at = client_at.clone();
        for (i, c) in client_nodes.iter().enumerate() {
            client_at[c.0] = Some(i);
        }
        for (j, s) in servers.iter().enumerate() {
            server_at[s.0] = Some(j);
        }
        let clients = client_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| ClientMeta {
                node,
                // The BSD reserved-port convention.
                sport: 1023 + i as u16,
                mtus: servers
                    .iter()
                    .map(|&s| topo.path_mtu(node, s).unwrap_or(1500))
                    .collect(),
            });
        let clients = clients.collect();
        Addrs {
            servers,
            clients,
            client_at,
            server_at,
        }
    }
}

pub(super) fn tcp_config(mtu: usize) -> TcpConfig {
    TcpConfig::for_mss(mtu - IP_HEADER - TCP_HEADER)
}

/// One endpoint of a TCP mount, owned by the machine it runs on: the
/// connection and the record reader for the stream it receives. The two
/// ends of a mount meet only through the `Ev::Send` frames they exchange.
pub(super) struct TcpEnd {
    pub(super) conn: TcpConn,
    reader: RecordReader,
}

impl TcpEnd {
    /// A passive endpoint on a path of the given MTU.
    pub(super) fn listening(mtu: usize, iss: u32) -> Self {
        TcpEnd {
            conn: TcpConn::server(tcp_config(mtu), iss),
            reader: RecordReader::new(),
        }
    }

    /// The next complete record of the received stream, if one is whole.
    fn next_record(&mut self) -> Option<MbufChain> {
        self.reader.next_record(&mut CopyMeter::new())
    }
}

/// The Ethernet frame of one TCP segment leaving `src` for `dst`.
fn tcp_frame(src: (NodeId, u16), dst: (NodeId, u16), seg: TcpSegment) -> Ev {
    Ev::Send {
        src: src.0,
        dst: dst.0,
        proto: ProtoHeader::Tcp {
            sport: src.1,
            dport: dst.1,
            seq: seg.seq,
            ack: seg.ack,
            window: seg.window,
            flags: seg.flags,
        },
        payload: seg.payload,
    }
}

/// The Ethernet frame of one UDP datagram leaving `src` for `dst`.
fn udp_frame(src: (NodeId, u16), dst: (NodeId, u16), payload: MbufChain) -> Ev {
    Ev::Send {
        src: src.0,
        dst: dst.0,
        proto: ProtoHeader::Udp {
            sport: src.1,
            dport: dst.1,
        },
        payload,
    }
}

/// What a machine lends the driver for its traffic with one peer, for as
/// long as one step of it takes.
pub(super) struct Io<'a> {
    /// This machine's host model, which pays for what is sent and received.
    pub(super) host: &'a mut Host,
    pub(super) queue: &'a mut EventQueue<Ev>,
    /// This machine's end of its TCP connection to the peer (`None` on a
    /// UDP mount).
    pub(super) tcp: Option<&'a mut TcpEnd>,
    /// Spare TCP step outputs. A server's records run the nfsd, whose
    /// reply is a nested step on the same end, so two are in use at once.
    pub(super) spares: &'a mut Vec<TcpOut>,
    pub(super) addrs: &'a Addrs,
    /// The mount: (client, server).
    pub(super) link: (usize, usize),
    /// Whether this machine is the server.
    pub(super) server_side: bool,
}

impl Io<'_> {
    /// This machine's address and the peer's, as (node, port).
    #[inline]
    fn ends(&self) -> ((NodeId, u16), (NodeId, u16)) {
        let (c, sj) = (&self.addrs.clients[self.link.0], self.link.1);
        let (client, server) = ((c.node, c.sport), (self.addrs.servers[sj], NFS_PORT));
        if self.server_side {
            (server, client)
        } else {
            (client, server)
        }
    }

    /// Sends `payload` to the peer as one UDP datagram, its transmit-side
    /// work starting at `at`; returns when the datagram leaves.
    pub(super) fn send_udp(&mut self, at: SimTime, payload: MbufChain) -> SimTime {
        let mtu = self.addrs.clients[self.link.0].mtus[self.link.1];
        let done = self
            .host
            .charge_tx(at, &payload, udp_fragments(payload.len(), mtu), false);
        let (src, dst) = self.ends();
        self.queue.push(done, udp_frame(src, dst, payload));
        done
    }
}

/// A client or a server machine's side of its traffic with one peer — a
/// client's with a server, a server's with a client. Both ends of every
/// mount run this one driver; a machine says only what it lends for the
/// exchange and who takes an RPC message that arrives.
pub(super) trait Machine {
    /// What this machine lends for its traffic with `peer`.
    fn io(&mut self, peer: usize) -> Io<'_>;

    /// Takes one RPC message from `peer` (a UDP datagram or a whole TCP
    /// record) whose receive-side work ends at `at`.
    fn take(&mut self, peer: usize, msg: MbufChain, at: SimTime);

    /// A datagram from `peer` completed at this machine: charges its
    /// reception, then it is an RPC message (UDP) or a segment for the
    /// connection to `peer` (TCP).
    fn receive(&mut self, peer: usize, now: SimTime, d: Delivery) {
        let len = d.dgram.payload.len();
        match d.dgram.proto {
            ProtoHeader::Udp { .. } => {
                let t = self
                    .io(peer)
                    .host
                    .charge_rx(now, len, d.frags.max(1), false);
                self.take(peer, d.dgram.payload, t);
            }
            ProtoHeader::Tcp {
                seq,
                ack,
                window,
                flags,
                ..
            } => {
                let t = self.io(peer).host.charge_tcp_rx(now, len);
                let payload = d.dgram.payload;
                self.tcp_step(peer, t, |conn, out| {
                    conn.on_segment_into(seq, ack, window, flags, payload, now, out);
                });
            }
        }
    }

    /// Sends one RPC message to `peer` as a TCP record after the
    /// once-per-record socket/codec work, which starts at `at`; returns
    /// when that work ends.
    fn send_record(&mut self, peer: usize, at: SimTime, msg: MbufChain) -> SimTime {
        let t = self.io(peer).host.charge_record(at);
        let framed = frame_record(msg, &mut CopyMeter::new());
        self.tcp_step(peer, t, |conn, out| conn.send_into(framed, t, out));
        t
    }

    /// Runs `step` on this machine's end of its connection to `peer`
    /// (none: nothing happens) into a spare output, then applies it.
    fn tcp_step(&mut self, peer: usize, at: SimTime, step: impl FnOnce(&mut TcpConn, &mut TcpOut)) {
        let io = self.io(peer);
        let Some(end) = io.tcp else { return };
        let mut out = io.spares.pop().unwrap_or_default();
        step(&mut end.conn, &mut out);
        self.tcp_out(peer, &mut out, at);
        self.io(peer).spares.push(out);
    }

    /// Applies (and drains) one step of this machine's end of its
    /// connection to `peer`: received stream data goes through the record
    /// reader to [`take`](Self::take), then the timer is armed and the
    /// segments leave. A record taken may step the same end again, so the
    /// end is looked up afresh for each.
    fn tcp_out(&mut self, peer: usize, out: &mut TcpOut, at: SimTime) {
        for chunk in out.received.drain(..) {
            let Some(end) = self.io(peer).tcp else { break };
            end.reader.push(chunk);
            while let Some(rec) = self.io(peer).tcp.and_then(TcpEnd::next_record) {
                // Once-per-record socket/codec work on the receiving side.
                let t = self.io(peer).host.charge_record(at);
                self.take(peer, rec, t);
            }
        }
        let io = self.io(peer);
        if let Some((deadline, gen)) = out.arm_timer.take() {
            let ((client, server), server_side) = (io.link, io.server_side);
            let timer = Ev::TcpTimer {
                client,
                server,
                server_side,
                gen,
            };
            io.queue.push(deadline, timer);
        }
        let (src, dst) = io.ends();
        for seg in out.segments.drain(..) {
            let done = io.host.charge_tcp_tx(at, &seg.payload);
            io.queue.push(done, tcp_frame(src, dst, seg));
        }
    }
}

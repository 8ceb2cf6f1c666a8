//! Datagrams and fragments.
//!
//! Payload bytes travel as real [`MbufChain`]s; protocol headers are
//! carried as typed metadata but *accounted* at their wire sizes, so link
//! serialization and fragmentation arithmetic match the real stacks.

use renofs_mbuf::MbufChain;

use crate::topology::NodeId;

/// IPv4 header size (no options).
pub const IP_HEADER: usize = 20;

/// UDP header size.
pub const UDP_HEADER: usize = 8;

/// TCP header size (no options).
pub const TCP_HEADER: usize = 20;

/// TCP flag bits carried in segment metadata.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Connection-open.
    pub syn: bool,
    /// Acknowledgment field valid.
    pub ack: bool,
    /// Connection-close.
    pub fin: bool,
}

/// Transport-layer header metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoHeader {
    /// A UDP datagram.
    Udp {
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
    },
    /// A TCP segment.
    Tcp {
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
        /// First sequence number of the payload.
        seq: u32,
        /// Acknowledgment number (valid when `flags.ack`).
        ack: u32,
        /// Advertised receive window in bytes.
        window: u32,
        /// SYN/ACK/FIN flags.
        flags: TcpFlags,
    },
}

impl ProtoHeader {
    /// Wire size of this transport header.
    pub fn header_len(&self) -> usize {
        match self {
            ProtoHeader::Udp { .. } => UDP_HEADER,
            ProtoHeader::Tcp { .. } => TCP_HEADER,
        }
    }

    /// Destination port.
    pub fn dport(&self) -> u16 {
        match self {
            ProtoHeader::Udp { dport, .. } | ProtoHeader::Tcp { dport, .. } => *dport,
        }
    }

    /// Source port.
    pub fn sport(&self) -> u16 {
        match self {
            ProtoHeader::Udp { sport, .. } | ProtoHeader::Tcp { sport, .. } => *sport,
        }
    }
}

/// One IP datagram: transport header metadata plus a payload chain.
#[derive(Debug)]
pub struct Datagram {
    /// Unique id (the IP identification field, widened).
    pub id: u64,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Transport header.
    pub proto: ProtoHeader,
    /// Transport payload.
    pub payload: MbufChain,
}

impl Datagram {
    /// Total IP-layer length: IP header + transport header + payload.
    pub fn ip_len(&self) -> usize {
        IP_HEADER + self.proto.header_len() + self.payload.len()
    }
}

/// One IP fragment in flight.
///
/// The first fragment (offset 0) carries the transport header; the
/// payload chain is a cluster-sharing window onto the original datagram's
/// payload, so fragmentation copies no data.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Id of the datagram this fragment belongs to.
    pub dgram_id: u64,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Transport header (metadata rides on every fragment; only the
    /// offset-0 fragment accounts for its wire bytes).
    pub proto: ProtoHeader,
    /// Byte offset of this fragment's payload within the transport
    /// payload.
    pub offset: usize,
    /// Total transport payload length of the original datagram.
    pub total_len: usize,
    /// Whether more fragments follow.
    pub more: bool,
    /// Whether an injected fault damaged this fragment's bytes in flight.
    /// Checked by the receiving host's checksum handling at reassembly.
    pub corrupted: bool,
    /// This fragment's slice of the payload.
    pub payload: MbufChain,
}

const _: () = assert!(size_of::<Fragment>() <= 80); // passed by value at every hop

impl Fragment {
    /// Bytes this fragment occupies at the IP layer.
    pub fn ip_len(&self) -> usize {
        let transport_hdr = if self.offset == 0 {
            self.proto.header_len()
        } else {
            0
        };
        IP_HEADER + transport_hdr + self.payload.len()
    }

    /// Whether this fragment is the only one of its datagram.
    pub fn is_whole(&self) -> bool {
        self.offset == 0 && !self.more
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renofs_mbuf::CopyMeter;

    fn node(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn datagram_ip_len_includes_headers() {
        let mut m = CopyMeter::new();
        let d = Datagram {
            id: 1,
            src: node(0),
            dst: node(1),
            proto: ProtoHeader::Udp {
                sport: 1023,
                dport: 2049,
            },
            payload: MbufChain::from_slice(&[0u8; 100], &mut m),
        };
        assert_eq!(d.ip_len(), 20 + 8 + 100);
    }

    #[test]
    fn tcp_header_is_larger() {
        let udp = ProtoHeader::Udp { sport: 1, dport: 2 };
        let tcp = ProtoHeader::Tcp {
            sport: 1,
            dport: 2,
            seq: 0,
            ack: 0,
            window: 4096,
            flags: TcpFlags::default(),
        };
        assert_eq!(udp.header_len(), 8);
        assert_eq!(tcp.header_len(), 20);
        assert_eq!(tcp.dport(), 2);
        assert_eq!(udp.sport(), 1);
    }

    #[test]
    fn only_first_fragment_counts_transport_header() {
        let mut m = CopyMeter::new();
        let mut mk = |offset: usize, more: bool| Fragment {
            dgram_id: 9,
            src: node(0),
            dst: node(1),
            proto: ProtoHeader::Udp {
                sport: 1,
                dport: 2049,
            },
            offset,
            total_len: 3000,
            more,
            corrupted: false,
            payload: MbufChain::from_slice(&[0u8; 1472], &mut m),
        };
        let first = mk(0, true);
        let rest = mk(1472, false);
        assert_eq!(first.ip_len(), 20 + 8 + 1472);
        assert_eq!(rest.ip_len(), 20 + 1472);
        assert!(!first.is_whole());
    }
}

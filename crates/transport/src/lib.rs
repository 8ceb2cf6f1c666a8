//! RPC transport mechanisms (the paper's Section 4).
//!
//! The 4.3BSD Reno NFS is transport-independent, which let the paper
//! benchmark three mechanisms:
//!
//! - **UDP with a fixed RTO** ([`udp_client::UdpRpcClient`] configured
//!   with [`rto::RtoPolicy::Fixed`]): the classic Sun transport — a
//!   mount-time constant timeout, backed off exponentially.
//! - **UDP with dynamic RTO estimation and a congestion window**
//!   ([`rto::RtoPolicy::Dynamic`] + [`cwnd::CongWindow`]): per-class
//!   SRTT/deviation tracking for the four most frequent RPCs, `A+4D`
//!   for the big ones, a TCP-style window on outstanding requests with
//!   **slow start removed** — the paper's contribution, which keeps the
//!   existing NFS/UDP wire protocol.
//! - **TCP** ([`tcp::TcpConn`]): a reliable virtual circuit with Jacobson
//!   congestion avoidance and record-marked RPC framing — the mechanism
//!   the paper shows is *not* too slow for NFS.

pub mod cwnd;
pub mod rto;
pub mod tcp;
pub mod udp_client;

pub use cwnd::CongWindow;
pub use rto::{DynRto, RpcClass, RtoPolicy, SrttEstimator};
pub use tcp::{TcpConfig, TcpConn, TcpOut, TcpSegment};
pub use udp_client::{MountKey, UdpAction, UdpCalls, UdpRpcClient, UdpRpcConfig, UdpStats};

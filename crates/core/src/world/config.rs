//! The world's public configuration: which internetwork, which RPC
//! transport and mount semantics, what a client's console logs, and
//! [`WorldConfig`], which gathers them.

use renofs_netsim::topology::presets::Background;
use renofs_netsim::FaultPlan;
use renofs_sim::{SimDuration, SimTime};
use renofs_transport::UdpRpcConfig;

use crate::host::HostProfile;
use crate::server::ServerConfig;

/// Which internetwork configuration to build (the paper's three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Configuration 1: one Ethernet.
    SameLan,
    /// Configuration 2: Ethernets + 80 Mbit token ring + 2 routers.
    TokenRing,
    /// Configuration 3: + 56 Kbps serial link + 3 routers.
    SlowLink,
}

/// Which RPC transport the mount uses.
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// Classic NFS/UDP: fixed mount-time RTO.
    UdpFixed {
        /// The mount `timeo`.
        timeo: SimDuration,
    },
    /// The paper's tuned NFS/UDP: per-class dynamic RTO + congestion
    /// window, no slow start.
    UdpDynamic {
        /// The mount `timeo` (fallback for unestimated classes).
        timeo: SimDuration,
    },
    /// A custom UDP configuration (for the ablation experiments).
    UdpCustom(UdpRpcConfig),
    /// NFS over TCP with record marking.
    Tcp,
}

/// Mount semantics: whether RPCs block forever or time out.
///
/// The BSD `mount_nfs` flags this models: a **hard** mount (the default)
/// retries forever, printing `server not responding` after `retrans`
/// attempts and `server ok` when the server answers again; a **soft**
/// mount abandons a call after `retrans` transmissions and fails the
/// syscall with `ETIMEDOUT`
/// ([`RpcError::TimedOut`](crate::syscalls::RpcError::TimedOut) here).
/// Soft semantics apply to the UDP transports; a TCP mount is inherently
/// hard in this simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MountOptions {
    /// Soft mount: give up after `retrans` transmissions.
    pub soft: bool,
    /// Transmission budget (soft) / console-report threshold (hard).
    pub retrans: u32,
}

impl MountOptions {
    /// Hard mount, BSD default `retrans`.
    pub fn hard() -> Self {
        MountOptions {
            soft: false,
            retrans: 4,
        }
    }

    /// Soft mount with the given transmission budget.
    pub fn soft(retrans: u32) -> Self {
        MountOptions {
            soft: true,
            retrans: retrans.max(1),
        }
    }
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions::hard()
    }
}

/// What a client console event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientEventKind {
    /// `nfs: server not responding` — a hard mount crossed its `retrans`
    /// threshold and is still retrying.
    NotResponding,
    /// `nfs: server ok` — a reply arrived after `NotResponding`.
    ServerOk,
    /// A soft-mount call exhausted its budget and failed with
    /// `ETIMEDOUT`.
    SoftTimeout,
    /// The fault plan crashed the server.
    ServerCrashed,
    /// The server rebooted (volatile state lost, disk intact).
    ServerRebooted,
}

/// A timestamped console event, in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: ClientEventKind,
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Internetwork layout.
    pub topology: TopologyKind,
    /// Cross-traffic and loss levels.
    pub background: Background,
    /// RPC transport.
    pub transport: TransportKind,
    /// Server software configuration.
    pub server: ServerConfig,
    /// Server machine.
    pub server_host: HostProfile,
    /// Client machine (every client in the community uses this profile).
    pub client_host: HostProfile,
    /// Number of client machines mounting the server.
    pub clients: usize,
    /// Number of server machines the export namespace is sharded over.
    /// 1 (the default) is the paper's single box; M > 1 builds a fleet
    /// with per-server nfsd pools, dup caches and boot epochs.
    pub servers: usize,
    /// nfsd daemon contexts on the server; requests beyond this
    /// concurrency queue FIFO. 0 = unbounded (the pre-pool model used by
    /// the calibrated single-client experiments).
    pub nfsds: usize,
    /// Number of biods (asynchronous I/O daemons) on each client; 0
    /// makes asynchronous requests run synchronously (write-through).
    pub biods: usize,
    /// Master random seed.
    pub seed: u64,
    /// Scheduled fault timeline. The empty default injects nothing and
    /// leaves runs byte-identical to a fault-free world.
    pub faults: FaultPlan,
    /// Hard/soft mount semantics for the UDP transports.
    pub mount: MountOptions,
}

impl WorldConfig {
    /// The paper's baseline: Reno client and server, MicroVAXIIs, one
    /// LAN, dynamic-RTO UDP.
    pub fn baseline() -> Self {
        WorldConfig {
            topology: TopologyKind::SameLan,
            background: Background::quiet(),
            transport: TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
            server: ServerConfig::reno(),
            server_host: HostProfile::microvax_tuned(),
            client_host: HostProfile::microvax_tuned(),
            clients: 1,
            servers: 1,
            nfsds: 0,
            biods: 4,
            seed: 42,
            faults: FaultPlan::new(),
            mount: MountOptions::hard(),
        }
    }
}

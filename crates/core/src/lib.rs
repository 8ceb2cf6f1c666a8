//! RenoFS: the 4.3BSD Reno NFS implementation, reproduced.
//!
//! This crate is the paper's primary contribution: an NFS v2 protocol
//! implementation (RFC 1094) with the Reno kernel's caching mechanisms,
//! transport independence, and copy-avoidance — layered over the
//! simulated hosts, disks, and internetworks of the substrate crates.
//!
//! The main entry points:
//!
//! - [`proto`]: the NFS v2 wire protocol, encoded directly in mbuf chains.
//! - [`server::NfsServer`]: the stateless server over a [`renofs_vfs::MemFs`]
//!   export, with the per-request cost breakdown the host model prices.
//! - [`client::ClientFs`]: the client — name/attribute/block caching,
//!   write policies, push-on-close, the `noconsist` experimental mount
//!   flag, and per-procedure RPC counters (Table 3's instrument).
//! - [`router::RouterFs`]: the automount-style client router stitching
//!   an M-server sharded fleet ("/" on server 0, "/s{j}" on server j)
//!   into one namespace.
//! - [`world::World`]: the deterministic event loop tying client hosts,
//!   transports, network and servers together, with blocking-style
//!   workload procs.
//! - [`presets`]: ready-made "4.3BSD Reno" and "Ultrix 2.2" machine and
//!   mount configurations, plus the MicroVAXII and DS3100 hardware
//!   profiles.

pub mod client;
mod coro;
pub mod costs;
pub mod host;
mod lease;
pub mod presets;
pub mod proto;
pub mod router;
pub mod server;
pub mod syscalls;
pub mod world;

pub use client::{ClientConfig, ClientError, ClientFs, WritePolicy};
pub use host::{Host, HostProfile};
pub use presets::{ClientPreset, ServerPreset};
pub use proto::{FileHandle, NfsProc, NfsStatus, RpcCounts};
pub use router::{ExportMap, RouterFs, RouterHandle, ServerPort};
pub use server::{NfsServer, ServerConfig};
pub use syscalls::{PinTo, Syscalls};
pub use world::{
    ClientEvent, ClientEventKind, MountOptions, NfsdStats, TopologyKind, TransportKind, World,
    WorldConfig, WorldSys,
};

//! The experiment implementations, one module per paper artifact group.

pub mod ablations;
pub mod cd;
pub mod cpu;
pub mod crowd;
pub mod faults;
pub mod mab;
pub mod scale;
pub mod servercmp;
pub mod shard;
pub mod soak;
pub mod trace;
pub mod transport;

use renofs::{TopologyKind, TransportKind, World, WorldConfig, WorldScratch};
use renofs_netsim::topology::presets::Background;
use renofs_sim::SimDuration;

/// The three topologies the paper measures, with their table labels.
pub fn paper_topologies() -> [(&'static str, TopologyKind); 3] {
    [
        ("same LAN", TopologyKind::SameLan),
        ("token ring", TopologyKind::TokenRing),
        ("56Kbps", TopologyKind::SlowLink),
    ]
}

/// The three transports the paper compares, with their plot labels.
pub fn paper_transports() -> [(&'static str, TransportKind); 3] {
    [
        (
            "UDP rto=1s",
            TransportKind::UdpFixed {
                timeo: SimDuration::from_secs(1),
            },
        ),
        (
            "UDP rto=A+4D",
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
        ),
        ("TCP", TransportKind::Tcp),
    ]
}

/// Builds a world for one experimental cell.
pub fn world_for(
    topology: TopologyKind,
    transport: TransportKind,
    background: Background,
    seed: u64,
) -> World {
    world_for_scratch(
        topology,
        transport,
        background,
        seed,
        &WorldScratch::default(),
    )
}

/// Like [`world_for`], but pre-sizes the world's internal buffers from
/// capacity hints observed on earlier cells of the same sweep
/// ([`WorldScratch::observe`]), so per-worker steady state allocates
/// nothing as the sweep progresses. Hints never change results — only
/// initial `Vec` capacities.
pub fn world_for_scratch(
    topology: TopologyKind,
    transport: TransportKind,
    background: Background,
    seed: u64,
    scratch: &WorldScratch,
) -> World {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = topology;
    cfg.background = background;
    cfg.transport = transport;
    cfg.seed = seed;
    World::with_scratch(cfg, scratch)
}

//! The paper's headline experiment in miniature: the same NFS read load
//! over the 56 Kbps internetwork with the three transports.
//!
//! Fixed-RTO UDP retransmits spuriously (its 1 s timeout is shorter than
//! the real round trip), flooding the slow link with duplicate 8 KB
//! replies; dynamic-RTO UDP with a congestion window, and TCP, stay
//! stable — the result that made "NFS over TCP" respectable.
//!
//! ```sh
//! cargo run --release --example transport_shootout
//! ```

use renofs_repro::netsim::topology::presets::Background;
use renofs_repro::renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_repro::sim::SimDuration;
use renofs_repro::workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

fn main() {
    println!("NFS read load over 2 Ethernets + 80Mb token ring + 56Kbps line + 3 routers");
    println!("(offered: 1.2 reads/sec against a link that fits ~0.7)\n");
    println!(
        "{:<16} {:>9} {:>10} {:>12} {:>12}",
        "transport", "reads/s", "rtt (ms)", "retransmits", "lost dgrams"
    );

    for (label, transport) in [
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
    ] {
        let mut cfg = WorldConfig::baseline();
        cfg.topology = TopologyKind::SlowLink;
        cfg.background = Background::off_peak();
        cfg.transport = transport;
        cfg.seed = 56_000;
        let mut world = World::new(cfg);

        let mut ncfg = NhfsstoneConfig::paper(
            1.2,
            LoadMix {
                lookup: 0,
                read: 100,
                getattr: 0,
                setattr: 0,
                write: 0,
            },
        );
        ncfg.duration = SimDuration::from_secs(300);
        ncfg.warmup = SimDuration::from_secs(10);
        ncfg.nfiles = 40;

        let report = nhfsstone::run(&mut world, &ncfg);
        let retrans = world
            .udp_stats_to(0, 0)
            .map(|s| s.retransmits)
            .or_else(|| world.tcp_stats_to(0, 0).map(|s| s.retransmits))
            .unwrap_or(0);
        let lost = world.net_stats().reasm_failures;
        println!(
            "{:<16} {:>9.2} {:>10.0} {:>12} {:>12}",
            label,
            report.achieved_rate,
            report.rtt_ms.mean(),
            retrans,
            lost
        );
    }

    println!();
    println!("The paper's Table 1: TCP and dynamic-RTO UDP read rates on this path");
    println!("were 'over three times that of UDP with fixed RTO'.");
}

//! Cross-crate integration: full client↔server stacks over every
//! transport and topology.

use renofs_repro::netsim::topology::presets::Background;
use renofs_repro::renofs::client::{ClientConfig, ClientFs};
use renofs_repro::renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_repro::sim::{SimDuration, SimTime};
use renofs_repro::workload::andrew::{preload_andrew_source, run_andrew, AndrewSpec};

fn world(topology: TopologyKind, transport: TransportKind, bg: Background, seed: u64) -> World {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = topology;
    cfg.transport = transport;
    cfg.background = bg;
    cfg.seed = seed;
    World::new(cfg)
}

fn exercise(mut w: World) -> World {
    let root = w.root_handle();
    let (tx, rx) = std::sync::mpsc::channel();
    w.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "client");
        fs.mkdir("/dir").unwrap();
        let fh = fs.open("/dir/file.bin", true, false).unwrap();
        let data: Vec<u8> = (0..30_000u32).map(|i| (i * 7 % 256) as u8).collect();
        fs.write(fh, 0, &data).unwrap();
        fs.close(fh).unwrap();
        let back = fs.read(fh, 0, 30_000).unwrap();
        assert_eq!(back, data, "data integrity through the full stack");
        // Metadata operations.
        fs.rename("/dir/file.bin", "/dir/renamed.bin").unwrap();
        let attr = fs.stat("/dir/renamed.bin").unwrap();
        assert_eq!(attr.size, 30_000);
        let entries = fs.readdir("/dir").unwrap();
        assert_eq!(entries.len(), 1);
        fs.remove("/dir/renamed.bin").unwrap();
        fs.rmdir("/dir").unwrap();
        tx.send(fs.counts().total()).unwrap();
    });
    w.run();
    assert!(rx.recv().unwrap() > 10);
    w
}

#[test]
fn udp_dynamic_same_lan() {
    let w = exercise(world(
        TopologyKind::SameLan,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        Background::quiet(),
        1,
    ));
    assert_eq!(w.net_stats().frags_dropped, 0, "quiet LAN loses nothing");
}

#[test]
fn udp_fixed_token_ring() {
    exercise(world(
        TopologyKind::TokenRing,
        TransportKind::UdpFixed {
            timeo: SimDuration::from_secs(1),
        },
        Background::off_peak(),
        2,
    ));
}

#[test]
fn tcp_slow_link() {
    let w = exercise(world(
        TopologyKind::SlowLink,
        TransportKind::Tcp,
        Background::off_peak(),
        3,
    ));
    // TCP segments to the 576-byte serial MTU: no IP fragmentation, so
    // no reassembly failures ever.
    assert_eq!(w.net_stats().reasm_failures, 0);
}

#[test]
fn udp_survives_heavy_loss() {
    // 5% per-fragment loss on every LAN link: hard mounts retry until
    // data gets through, and the bytes must still be exact.
    let bg = Background {
        ethernet: 0.2,
        ring: 0.1,
        lan_loss: 0.05,
        serial_loss: 0.0,
    };
    let w = exercise(world(
        TopologyKind::TokenRing,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        bg,
        4,
    ));
    let stats = w.udp_stats_to(0, 0).unwrap();
    assert!(stats.retransmits > 0, "loss must have forced retransmits");
    assert!(w.net_stats().frags_dropped > 0);
}

#[test]
fn tcp_survives_heavy_loss() {
    let bg = Background {
        ethernet: 0.2,
        ring: 0.1,
        lan_loss: 0.05,
        serial_loss: 0.0,
    };
    let w = exercise(world(TopologyKind::TokenRing, TransportKind::Tcp, bg, 5));
    assert!(w.tcp_stats_to(0, 0).unwrap().retransmits > 0);
}

/// A small Andrew run over TCP across the token ring pops every event that
/// does anything and no retransmit timer a later arm replaced: each TCP
/// end keeps one queued timer. With a fresh timer queued per arm, this
/// run popped 9,569 events, 888 of them timers its connection found stale.
#[test]
fn tcp_andrew_pops_no_stale_timer() {
    let mut w = tcp_andrew_world();
    w.run();
    assert_eq!(w.queue_stats().0, 9_569 - 888);
}

/// A small Andrew run over TCP across the token ring, ready to run.
fn tcp_andrew_world() -> World {
    let mut w = world(
        TopologyKind::TokenRing,
        TransportKind::Tcp,
        Background::off_peak(),
        1,
    );
    let spec = AndrewSpec::small();
    preload_andrew_source(w.server_mut().fs_mut(), &spec);
    let root = w.root_handle();
    w.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "client");
        run_andrew(&mut fs, &spec).unwrap();
    });
    w
}

/// A frame hop that nothing pending precedes runs in place, so it still
/// counts as a popped event but leaves no push or pop in the queue's trace.
/// With every hop queued, the UDP world's trace held 1,764 operations and the
/// TCP world's 19,156, for the same pops.
#[test]
fn lone_frame_hops_skip_the_queue() {
    let mut udp = world(
        TopologyKind::SlowLink,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        Background::off_peak(),
        6,
    );
    udp.start_queue_trace();
    let mut udp = exercise(udp);
    let mut tcp = tcp_andrew_world();
    tcp.start_queue_trace();
    tcp.run();
    let ops = |w: &mut World| (w.queue_stats().0, w.take_queue_trace().len());
    assert_eq!(
        (ops(&mut udp), ops(&mut tcp)),
        ((871, 868), (8_681, 13_694))
    );
}

#[test]
fn identical_seeds_identical_worlds() {
    let run = |seed| {
        let w = exercise(world(
            TopologyKind::TokenRing,
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
            Background::off_peak(),
            seed,
        ));
        (
            w.now(),
            w.net_stats().frags_sent,
            w.server_of(0).stats().total(),
        )
    };
    assert_eq!(run(77), run(77), "bit-identical replay");
    assert_ne!(run(77).0, run(78).0, "different seeds diverge");
}

#[test]
fn server_utilization_reported() {
    let mut w = world(
        TopologyKind::SameLan,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        Background::quiet(),
        6,
    );
    let root = w.root_handle();
    w.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "client");
        let fh = fs.open("/burn.bin", true, false).unwrap();
        fs.write(fh, 0, &vec![0u8; 200_000]).unwrap();
        fs.close(fh).unwrap();
    });
    w.run();
    let now = w.now();
    assert!(now > SimTime::ZERO);
    let util = w.server_host_of(0).cpu.utilization(now);
    assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    assert!(
        w.server_host_of(0).disk.stats().writes > 0,
        "write-through reached the simulated disk"
    );
}

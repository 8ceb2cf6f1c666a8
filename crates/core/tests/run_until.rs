//! `run_until` is a pause, not a different run: a world stopped at an
//! instant and then run to the end must finish exactly where one `run`
//! does — on a multi-client UDP crowd as on a TCP world, since every world
//! runs the same loop.

use renofs::client::{ClientConfig, ClientFs};
use renofs::syscalls::Syscalls;
use renofs::{TransportKind, World, WorldConfig};
use renofs_sim::{SimDuration, SimTime};

/// `clients` machines, each reading a shared 8 KB file, writing its own
/// and sleeping a client-specific interval, five rounds over two nfsds.
fn build(clients: usize, transport: TransportKind) -> World {
    let mut cfg = WorldConfig::baseline();
    cfg.clients = clients;
    cfg.nfsds = 2;
    cfg.transport = transport;
    let mut world = World::new(cfg);
    let server = world.server_mut();
    let root = server.fs().root();
    let ino = server
        .fs_mut()
        .create(root, "shared.bin", 0o644, SimTime::ZERO)
        .unwrap();
    server
        .fs_mut()
        .write(ino, 0, &[9; 8192], SimTime::ZERO)
        .unwrap();
    let root = world.root_handle();
    for ci in 0..clients {
        world.spawn_on(ci, move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax");
            for round in 0..5 {
                let fh = fs.lookup_path("/shared.bin").unwrap();
                assert_eq!(fs.read(fh, 0, 8192).unwrap().len(), 8192);
                let out = fs.open(&format!("/c{ci}_{round}"), true, false).unwrap();
                fs.write(out, 0, &[ci as u8; 3000]).unwrap();
                fs.close(out).unwrap();
                fs.sys()
                    .sleep(SimDuration::from_millis(300 + 7 * ci as u64));
            }
        });
    }
    world
}

/// The final clock, server and nfsd counters, and every client's
/// transport counters and console log.
fn digest(world: &World) -> String {
    let mut out = format!(
        "now={:?}\nserver={:?}\nnfsd={:?}\n",
        world.now(),
        world.server_of(0).stats(),
        world.nfsd_stats_of(0)
    );
    for ci in 0..world.client_count() {
        out.push_str(&format!(
            "client{ci}: udp={:?} tcp={:?} events={:?}\n",
            world.udp_stats_to(ci, 0),
            world.tcp_stats_to(ci, 0),
            world.client_events_of(ci)
        ));
    }
    out
}

/// Runs the world once straight through, then again paused at each of
/// several instants, and requires the same end every time.
fn paused_runs_end_where_one_run_does(clients: usize, transport: TransportKind) {
    let mut whole = build(clients, transport.clone());
    whole.run();
    let want = digest(&whole);
    let end = whole.now();
    for early in [true, false] {
        let mut world = build(clients, transport.clone());
        // A TCP world's clock starts past its handshakes.
        let pause = if early {
            world.now() + SimDuration::from_millis(1)
        } else {
            end - SimDuration::from_millis(700)
        };
        world.run_until(pause);
        assert!(world.now() <= pause, "ran past the pause");
        world.run();
        assert_eq!(digest(&world), want, "paused at {pause:?}");
    }
}

#[test]
fn a_paused_quiet_lan_crowd_ends_where_one_run_does() {
    paused_runs_end_where_one_run_does(
        4,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
    );
}

#[test]
fn a_paused_tcp_world_ends_where_one_run_does() {
    paused_runs_end_where_one_run_does(2, TransportKind::Tcp);
}

//! The `--profile` census counts every event a world runs, popped from the
//! queue or run in place: a frame hop that nothing pending precedes skips
//! the queue but still counts as a `Net(FragArrive)` pop.
//!
//! The census is process-wide, so this file holds one test and no other
//! test in its binary runs a world beside it. Needs `--features profile`:
//! `cargo test -p renofs-bench --features profile --test census`.
#![cfg(feature = "profile")]

use renofs::client::{ClientConfig, ClientFs};
use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_sim::{profile, SimDuration};

#[test]
fn census_total_equals_the_worlds_pops() {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SlowLink;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.background = Background::off_peak();
    cfg.seed = 6;
    profile::reset();
    profile::set_enabled(true);
    let mut w = World::new(cfg);
    w.start_queue_trace();
    let root = w.root_handle();
    w.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "client");
        let fh = fs.open("/f", true, false).unwrap();
        fs.write(fh, 0, &[7; 30_000]).unwrap();
        fs.close(fh).unwrap();
        assert_eq!(fs.read(fh, 0, 30_000).unwrap(), [7; 30_000]);
    });
    w.run();
    profile::set_enabled(false);
    let pops = w.queue_stats().0;
    let queued = w.take_queue_trace();
    let queued_pops = queued
        .iter()
        .filter(|op| matches!(op, renofs_sim::queue::QueueOp::Pop))
        .count();
    assert!(
        (queued_pops as u64) < pops / 2,
        "most hops ran in place ({queued_pops} of {pops} popped from the queue)"
    );
    assert_eq!(profile::census_pops(), pops);
    assert_eq!(profile::events(), pops);
}

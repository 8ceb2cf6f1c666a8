//! Fault-injection recovery properties over the full simulation stack.
//!
//! Two guarantees from the paper's hard-mount semantics are checked
//! end-to-end here:
//!
//! 1. **Convergence** (property test): under *any* bounded fault plan —
//!    partitions, loss bursts, delay spikes, duplication, reordering,
//!    server crashes — a hard-mount UDP client completes every
//!    operation, the resulting server filesystem is identical to a
//!    fault-free run, and the transport's exponential backoff never
//!    exceeds the 60-second cap.
//! 2. **Durability across a crash** (integration test): a server crash
//!    in the middle of a client flush loses nothing the client was told
//!    was written — `close` returns only after every WRITE RPC is
//!    acknowledged, and acknowledged writes live on the simulated disk,
//!    which survives the reboot (see DESIGN.md, "Synchronous-write
//!    durability").

use proptest::prelude::*;
use renofs::client::{ClientConfig, ClientFs};
use renofs::{ClientEventKind, Syscalls, TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::FaultPlan;
use renofs_sim::{SimDuration, SimTime};
use std::sync::mpsc::channel;

/// Digest of the server filesystem: every root entry's name, type
/// marker, size and full content, in readdir order.
fn server_fs_digest(world: &mut World) -> Vec<(String, Vec<u8>)> {
    let root = world.server_of(0).fs().root();
    let mut entries = Vec::new();
    let eof = world
        .server_of(0)
        .fs()
        .readdir(root, 0, 1024, |_, name, ino| {
            entries.push((name.to_string(), ino))
        })
        .unwrap();
    assert!(eof, "digest walks the whole directory");
    let mut out = Vec::new();
    for (name, ino) in entries {
        let attr = world.server_of(0).fs().getattr(ino).unwrap();
        let data = world
            .server_mut()
            .fs_mut()
            .read(ino, 0, attr.size, SimTime::ZERO)
            .unwrap_or_default();
        out.push((name, data));
    }
    out
}

/// The fixed hard-mount workload: creates, writes, renames and removes
/// under whatever the network does. Every call unwraps — a hard mount
/// has no failure path.
fn run_workload(faults: FaultPlan) -> (Vec<(String, Vec<u8>)>, Option<SimDuration>) {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SameLan;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.faults = faults;
    let mut world = World::new(cfg);
    let root = world.root_handle();
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
        for i in 0..6u32 {
            let name = format!("/f{i}.dat");
            let fh = fs.open(&name, true, false).unwrap();
            let body: Vec<u8> = (0..(400 + i * 37)).map(|b| (b * 7 + i) as u8).collect();
            fs.write(fh, 0, &body).unwrap();
            fs.close(fh).unwrap();
            fs.sys().sleep(SimDuration::from_millis(700));
        }
        fs.remove("/f1.dat").unwrap();
        fs.remove("/f3.dat").unwrap();
        fs.rename("/f5.dat", "/renamed.dat").unwrap();
        tx.send(()).unwrap();
    });
    world.run();
    rx.recv().expect("hard-mount workload completed every op");
    let backoff = world.udp_stats_to(0, 0).map(|s| s.max_backoff);
    (server_fs_digest(&mut world), backoff)
}

/// One arbitrary fault event within bounded windows (all inside the
/// workload's active period, so the faults actually bite).
fn fault_strategy() -> impl Strategy<Value = u8> {
    any::<u8>()
}

/// Decodes `(kind, at, magnitude, duration)` draws into a plan. Plain
/// integer draws keep the strategy trivial for the in-workspace
/// proptest shim while still covering every fault kind.
fn build_plan(events: &[(u8, u16, u8, u16)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at_ms, magnitude, dur_ms) in events {
        let at = SimTime::from_millis(500 + (at_ms % 8000) as u64);
        let dur = SimDuration::from_millis(200 + (dur_ms % 5000) as u64);
        let prob = 0.05 + (magnitude % 50) as f64 / 100.0;
        plan = match kind % 6 {
            0 => plan.partition(at, dur),
            1 => plan.loss_burst(at, prob, dur),
            2 => plan.delay_spike(
                at,
                SimDuration::from_millis(10 + (magnitude as u64) * 2),
                dur,
            ),
            3 => plan.duplicate(at, prob, dur),
            4 => plan.reorder(
                at,
                prob,
                SimDuration::from_millis(1 + (magnitude % 40) as u64),
                dur,
            ),
            _ => plan.server_crash(at, SimDuration::from_millis(500 + (dur_ms % 4000) as u64)),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hard_mount_converges_under_arbitrary_faults(
        events in proptest::collection::vec(
            (fault_strategy(), any::<u16>(), any::<u8>(), any::<u16>()),
            0..4,
        ),
    ) {
        let plan = build_plan(&events);
        let (faulted, backoff) = run_workload(plan);
        let (clean, _) = run_workload(FaultPlan::new());
        prop_assert_eq!(
            faulted,
            clean,
            "final server filesystem must converge to the fault-free state"
        );
        if let Some(b) = backoff {
            prop_assert!(
                b <= SimDuration::from_secs(60),
                "retransmit backoff exceeded the 60s cap: {:?}",
                b
            );
        }
    }
}

/// The crash-durability contract: the server dies mid-flush; after
/// reboot, everything the client's `close` acknowledged is on disk.
#[test]
fn server_crash_mid_flush_preserves_acknowledged_writes() {
    let mut cfg = WorldConfig::baseline();
    // The 56Kbps path stretches a 64KB flush over several virtual
    // seconds, so the crash below lands with WRITE RPCs still in
    // flight.
    cfg.topology = TopologyKind::SlowLink;
    cfg.faults = FaultPlan::new().server_crash(SimTime::from_secs(3), SimDuration::from_secs(3));
    let mut world = World::new(cfg);
    let root = world.root_handle();
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
    let expect = payload.clone();
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
        fs.sys().sleep(SimDuration::from_secs(1));
        let fh = fs.open("/big.bin", true, false).unwrap();
        fs.write(fh, 0, &payload).unwrap();
        // close() drives push_dirty: it returns only once every WRITE
        // has been acknowledged by the (rebooted) server.
        fs.close(fh).unwrap();
        tx.send(fs.sys().now()).unwrap();
    });
    world.run();
    let closed_at = rx.recv().expect("close eventually succeeded");
    assert!(
        closed_at >= SimTime::from_secs(6),
        "the flush must have straddled the 3s..6s outage, finished {closed_at:?}"
    );
    let kinds: Vec<_> = world.client_events_of(0).iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ClientEventKind::ServerCrashed));
    assert!(kinds.contains(&ClientEventKind::ServerRebooted));
    // The acknowledged bytes are all on the post-reboot disk.
    let root_ino = world.server_of(0).fs().root();
    let ino = world.server_of(0).fs().lookup(root_ino, "big.bin").unwrap();
    let got = world
        .server_mut()
        .fs_mut()
        .read(ino, 0, expect.len() as u32, SimTime::ZERO)
        .unwrap();
    assert_eq!(got, expect, "no acknowledged write was lost to the crash");
}

/// The ESTALE contract: a reboot bumps the server's boot epoch, so every
/// handle a client obtained beforehand is answered with `NFSERR_STALE`;
/// the client recovers transparently by re-walking the recorded path
/// from the (epoch-exempt) mount root, and the caller sees ordinary
/// successful reads with the right bytes.
#[test]
fn stale_handles_after_reboot_recover_by_relookup() {
    let mut cfg = WorldConfig::baseline();
    cfg.faults =
        FaultPlan::new().server_crash(SimTime::from_secs(4), SimDuration::from_millis(500));
    let mut world = World::new(cfg);
    let root = world.root_handle();
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
        // Pre-crash: create a file and learn its handle.
        let fh = fs.open("/notes.txt", true, false).unwrap();
        fs.write(fh, 0, b"survives the reboot").unwrap();
        fs.close(fh).unwrap();
        // Sleep across the crash window; the attribute cache expires,
        // so the next access revalidates against the rebooted server.
        fs.sys().sleep(SimDuration::from_secs(30));
        let fh = fs.open("/notes.txt", false, false).unwrap();
        let back = fs.read(fh, 0, 64).unwrap();
        fs.close(fh).unwrap();
        tx.send(back).unwrap();
    });
    world.run();
    let back = rx.recv().expect("client finished");
    assert_eq!(back, b"survives the reboot", "recovered read sees the file");
    let kinds: Vec<_> = world.client_events_of(0).iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ClientEventKind::ServerRebooted));
}

//! Partitioned ⇔ monolithic equivalence under randomized fault plans.
//!
//! The conservative-PDES engine (DESIGN.md §11) promises byte-identical
//! results to the historical single-queue loop, whatever the thread
//! count and whatever the world throws at it. This property test builds
//! a two-client world, draws its shape — one or two server shards, biods
//! or none, an nfsd pool or none, so the asynchronous-RPC ticket paths
//! and shard addressing run under both schedulers — and a random fault
//! plan — server crash windows (which partitioned worlds absorb: the
//! crash is a hub event and the client console notes are pre-scheduled)
//! plus occasional link faults (which must refuse the carve and fall
//! back to the single queue) — and requires the full observable state to
//! match between a forced-monolithic run and a 2-thread partitioned run.

use proptest::prelude::*;
use renofs::client::ClientConfig;
use renofs::router::{ExportMap, RouterFs};
use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::FaultPlan;
use renofs_sim::{SimDuration, SimTime};
use std::sync::mpsc::channel;

/// Decodes `(kind, at, dur)` draws into a plan. Three in four events are
/// server crashes so most cases exercise the partitioned engine; the
/// fourth kind is a partition, which makes the world refuse to carve.
/// Returns the plan and whether it contains any link fault.
fn build_plan(events: &[(u8, u16, u16)]) -> (FaultPlan, bool) {
    let mut plan = FaultPlan::new();
    let mut link_fault = false;
    for &(kind, at_ms, dur_ms) in events {
        let at = SimTime::from_millis(500 + (at_ms % 5000) as u64);
        if kind % 4 == 3 {
            link_fault = true;
            plan = plan.partition(at, SimDuration::from_millis(300 + (dur_ms % 1500) as u64));
        } else {
            plan = plan.server_crash(at, SimDuration::from_millis(300 + (dur_ms % 2500) as u64));
        }
    }
    (plan, link_fault)
}

/// What the world is built from besides the fault plan: the number of
/// server shards, biods per client and nfsd contexts per server.
#[derive(Clone, Copy, Debug)]
struct Shape {
    servers: usize,
    biods: usize,
    nfsds: usize,
}

/// Every observable the simulation exposes, Debug-formatted: final
/// clock, per-client console events and transport counters, and per
/// shard the server op counters, nfsd pool stats and the filesystem's
/// full contents.
fn digest(world: &mut World) -> String {
    let mut out = format!("now={:?}\n", world.now());
    for ci in 0..world.client_count() {
        out.push_str(&format!(
            "client{ci}: events={:?}\n",
            world.client_events_of(ci)
        ));
        for sj in 0..world.server_count() {
            out.push_str(&format!(" udp{sj}={:?}\n", world.udp_stats_to(ci, sj)));
        }
    }
    for sj in 0..world.server_count() {
        out.push_str(&format!(
            "server{sj}={:?} nfsd={:?}\n",
            world.server_of(sj).stats(),
            world.nfsd_stats_of(sj)
        ));
        let root = world.server_of(sj).fs().root();
        let (entries, eof) = world.server_of(sj).fs().readdir(root, 0, 1024).unwrap();
        assert!(eof, "digest walks the whole directory");
        for (_cookie, name, ino) in entries {
            let attr = world.server_of(sj).fs().getattr(ino).unwrap();
            let data = world
                .server_of_mut(sj)
                .fs_mut()
                .read(ino, 0, attr.size, SimTime::ZERO)
                .unwrap_or_default();
            out.push_str(&format!("file {name}: {data:?}\n"));
        }
    }
    out
}

/// Two hard-mount clients create, overwrite, rename and remove files —
/// spread over the shards, every other one three blocks long so its
/// writes go out through the biods (or, without biods, through the
/// issuing proc) faster than two slots drain — under the fault plan;
/// returns the world digest and whether the run actually used the
/// partitioned engine.
fn run_world(
    shape: Shape,
    plan: &FaultPlan,
    sim_threads: usize,
    force_monolithic: bool,
) -> (String, bool) {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SameLan;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.clients = 2;
    cfg.servers = shape.servers;
    cfg.biods = shape.biods;
    cfg.nfsds = shape.nfsds;
    cfg.sim_threads = sim_threads;
    cfg.force_monolithic = force_monolithic;
    cfg.faults = plan.clone();
    let mut world = World::new(cfg);
    let roots: Vec<_> = (0..shape.servers)
        .map(|sj| world.root_handle_of(sj))
        .collect();
    let (tx, rx) = channel();
    for ci in 0..2usize {
        let tx = tx.clone();
        let roots = roots.clone();
        world.spawn_on(ci, move |sys| {
            let host = if ci == 0 { "uvax1" } else { "uvax2" };
            let map = ExportMap::fleet(roots.len());
            let mut fs = RouterFs::mount(sys, ClientConfig::reno(), map, &roots, host);
            // File i lives on shard i mod M ("/" is shard 0, "/s1" shard 1).
            let dir = |i: u32| match i as usize % roots.len() {
                0 => String::new(),
                sj => format!("/s{sj}"),
            };
            for i in 0..4u32 {
                let name = format!("{}/c{ci}_{i}.dat", dir(i));
                let fh = fs.open(&name, true, false).unwrap();
                let len = if i % 2 == 1 { 3 * 8192 + 100 } else { 300 } + i * 41;
                let body: Vec<u8> = (0..len)
                    .map(|b| (b * 11 + i + ci as u32 * 7) as u8)
                    .collect();
                fs.write(fh, 0, &body).unwrap();
                fs.close(fh).unwrap();
                fs.sleep(SimDuration::from_millis(600));
            }
            // Not idempotent: retransmitted across a reboot (the dup cache
            // is volatile) either may find its own first execution's
            // result, so what they return is an observable, not a given.
            let renamed = fs.rename(&format!("/c{ci}_0.dat"), &format!("/r{ci}.dat"));
            let removed = fs.remove(&format!("{}/c{ci}_2.dat", dir(2)));
            tx.send(format!(
                "client{ci}: rename={renamed:?} remove={removed:?}\n"
            ))
            .unwrap();
        });
    }
    world.run();
    let mut results: Vec<String> = rx.try_iter().collect();
    assert_eq!(results.len(), 2, "hard-mount workload ran to its end");
    results.sort();
    let partitioned = world.is_partitioned();
    (results.concat() + &digest(&mut world), partitioned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 64 }))]

    #[test]
    fn partitioned_runs_match_monolithic_under_random_faults(
        events in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>()),
            0..3,
        ),
        (two_servers, biods, nfsds) in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let shape = Shape {
            servers: if two_servers { 2 } else { 1 },
            biods: if biods { 2 } else { 0 },
            nfsds: if nfsds { 2 } else { 0 },
        };
        let (plan, link_fault) = build_plan(&events);
        let (mono, mono_part) = run_world(shape, &plan, 1, true);
        let (pdes, pdes_part) = run_world(shape, &plan, 2, false);
        prop_assert!(!mono_part, "force_monolithic must defeat the carve");
        if link_fault {
            prop_assert!(
                !pdes_part,
                "a link fault must make the world refuse to carve"
            );
        } else {
            prop_assert!(
                pdes_part,
                "a quiet UDP LAN (even with server crashes) must carve"
            );
        }
        prop_assert_eq!(
            mono,
            pdes,
            "partitioned execution diverged from the monolithic engine"
        );
    }
}

//! Carved ⇔ monolithic equivalence under randomized fault plans.
//!
//! A carved world (DESIGN.md §11) promises byte-identical results to the
//! single-queue loop, whatever the world throws at it. This property test
//! builds a two-client world, draws its shape — one or two server shards,
//! biods or none, an nfsd pool or none, so the asynchronous-RPC ticket
//! paths and shard addressing run under both loops — and a random fault
//! plan — server crash windows (which carved worlds absorb: the crash is
//! a hub event and the client console notes are pre-scheduled) plus
//! occasional link faults (which must refuse the carve and fall back to
//! the single queue) — and requires the full observable state to match
//! between a forced-monolithic run and a carved one. A second, fixed case
//! ends a crowd in overload, with work still queued at the server: the
//! two loops must stop at the same event.

use proptest::prelude::*;
use renofs::client::ClientConfig;
use renofs::proto::{build, NfsProc, Sattr};
use renofs::router::{ExportMap, RouterFs};
use renofs::syscalls::Syscalls;
use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::FaultPlan;
use renofs_sim::{Rng, SimDuration, SimTime};
use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};
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
/// returns the world digest and whether the world was carved.
fn run_world(shape: Shape, plan: &FaultPlan, force_monolithic: bool) -> (String, bool) {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SameLan;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.clients = 2;
    cfg.servers = shape.servers;
    cfg.biods = shape.biods;
    cfg.nfsds = shape.nfsds;
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
        let (mono, mono_part) = run_world(shape, &plan, true);
        let (pdes, pdes_part) = run_world(shape, &plan, false);
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
            "the carved world diverged from the single queue"
        );
    }
}

/// 128 clients, one paced proc each (the crowd mix at 12 op/s for 6 s),
/// against one nfsd with a fixed 1 s RTO and the dup cache on: every
/// client retransmits, and copies of calls already answered are still
/// queued at the server when the last proc finishes. Returns the final
/// clock, server counters and nfsd accounting, the retransmit count, and
/// how many requests the run left in the nfsd queue (at least).
fn run_overloaded_crowd(force_monolithic: bool) -> (String, u64, u64) {
    const CLIENTS: usize = 128;
    let mut cfg = WorldConfig::baseline();
    cfg.transport = TransportKind::UdpFixed {
        timeo: SimDuration::from_secs(1),
    };
    cfg.clients = CLIENTS;
    cfg.nfsds = 1;
    cfg.server.dup_cache = true;
    cfg.force_monolithic = force_monolithic;
    let mut world = World::new(cfg);
    assert_eq!(world.is_partitioned(), !force_monolithic);
    let root = world.root_handle();
    let files: Vec<_> = (0..20)
        .map(|i| {
            let server = world.server_mut();
            let dir = server.fs().root();
            let ino = server
                .fs_mut()
                .create(dir, &format!("f{i:02}"), 0o644, SimTime::ZERO)
                .unwrap();
            server
                .fs_mut()
                .write(ino, 0, &[7; 8192], SimTime::ZERO)
                .unwrap();
            server.handle_for(ino).unwrap()
        })
        .collect();
    let end = SimTime::from_secs(6);
    for ci in 0..CLIENTS {
        let files = files.clone();
        world.spawn_on(ci, move |sys| {
            let mut rng = Rng::new(0x5eed ^ (ci as u64).wrapping_mul(0x9E37_79B9));
            let mut xid = 0x0100_0000u32;
            // A proc ends on the reply that takes it past `end`, not a
            // sleep later: the copies it retransmitted while that call
            // waited are still in the server's queue.
            while sys.now() < end {
                sys.sleep(SimDuration::from_secs_f64(rng.exp(1.0 / 12.0)));
                let (pick, i) = (rng.gen_range(0, 100), rng.index(files.len()));
                let proc = match pick {
                    0..40 => NfsProc::Lookup,
                    40..65 => NfsProc::Read,
                    65..90 => NfsProc::Getattr,
                    _ => NfsProc::Setattr,
                };
                xid += 1;
                let (mut msg, mut m) = (MbufChain::with_leading_space(64), CopyMeter::new());
                CallHeader {
                    xid,
                    prog: NFS_PROGRAM,
                    vers: NFS_VERSION,
                    proc: proc.to_wire(),
                    auth: AuthUnix::root("crowd"),
                }
                .encode(&mut msg, &mut m);
                match proc {
                    NfsProc::Lookup => {
                        build::dirop_args(&mut msg, &mut m, &root, &format!("f{i:02}"))
                    }
                    NfsProc::Read => build::read_args(&mut msg, &mut m, &files[i], 0, 8192),
                    NfsProc::Getattr => build::handle_args(&mut msg, &mut m, &files[i]),
                    _ => {
                        let chmod = Sattr {
                            mode: Some(0o644),
                            ..Sattr::default()
                        };
                        build::setattr_args(&mut msg, &mut m, &files[i], &chmod)
                    }
                }
                sys.rpc(proc, msg).unwrap();
            }
        });
    }
    world.run();
    let retransmits = (0..CLIENTS)
        .map(|ci| world.udp_stats_of(ci).unwrap().retransmits)
        .sum();
    let state = format!(
        "now={:?}\nserver={:?}\nnfsd={:?}",
        world.now(),
        world.server().stats(),
        world.nfsd_stats()
    );
    let nfsd = world.nfsd_stats();
    (state, retransmits, nfsd.queued.saturating_sub(nfsd.served))
}

#[test]
fn carved_crowd_stops_where_the_single_queue_does() {
    let (mono, mono_rexmit, mono_left) = run_overloaded_crowd(true);
    let (carved, carved_rexmit, _) = run_overloaded_crowd(false);
    assert!(
        mono_rexmit > 100 && mono_left > 0,
        "the case must end in overload: {mono_rexmit} retransmissions, {mono_left} left queued"
    );
    assert_eq!(mono_rexmit, carved_rexmit);
    assert_eq!(mono, carved, "the two loops ended at different events");
}

//! The faults recovery experiment: how each transport and mount flavor
//! rides out scheduled network and server failures.
//!
//! The paper's tuning work — dynamic RTOs, congestion windows, the
//! duplicate-request cache, hard-mount retry semantics — exists to
//! survive exactly the conditions this experiment injects: partitions,
//! loss bursts, duplicated and reordered frames, delay spikes, and
//! server crashes. Each cell runs the Create-Delete-style paced workload
//! (open, write, close, remove — every iteration forces non-idempotent
//! RPCs, so retransmissions are dangerous without the dup cache) over a
//! [`FaultPlan`] and reports:
//!
//! * **ops** — iterations that completed;
//! * **recov ms** — time from the heal to the first completed operation
//!   after it (how fast the mount recovers);
//! * **rex/op** — transport retransmissions per completed op (retry
//!   amplification);
//! * **dup hits** — server duplicate-cache hits (each one is a
//!   retransmitted non-idempotent RPC answered without re-execution);
//! * **anom** — client-visible non-idempotent replay anomalies (a
//!   remove answered `NOENT`, a create answered `EXIST`);
//! * **console** — `not responding`/`server ok`/`ETIMEDOUT` events,
//!   formatted `nr/ok/to`.
//!
//! Every fault is scheduled in virtual time from the compiled
//! [`FaultPlan`], so output is byte-identical at any `--jobs` level.

use std::fmt;
use std::sync::mpsc::channel;

use renofs::Syscalls;
use renofs::{
    ClientConfig, ClientError, ClientEventKind, ClientFs, MountOptions, TopologyKind,
    TransportKind, World, WorldConfig,
};
use renofs_netsim::topology::presets::Background;
use renofs_netsim::FaultPlan;
use renofs_sim::{SimDuration, SimTime};

use super::paper_transports;
use crate::fmt::table;
use crate::runner::{point_seed, run_jobs};
use crate::Scale;

/// When the fault begins, leaving a clean warm-up phase first.
const FAULT_AT: SimTime = SimTime::from_secs(5);

/// Virtual pacing between workload iterations.
const PACING: SimDuration = SimDuration::from_millis(500);

/// A named fault scenario.
#[derive(Clone, Copy)]
struct Scenario {
    label: &'static str,
    /// Builds the plan; `None` duration entries are encoded per-kind.
    kind: ScenarioKind,
    /// When the network/server is healthy again.
    heal: SimTime,
    /// Soft mounts only make sense over UDP; TCP is inherently hard.
    udp_only: bool,
    /// Mount semantics for the cell.
    mount: MountOptions,
}

#[derive(Clone, Copy)]
enum ScenarioKind {
    Partition(SimDuration),
    LossBurst(f64, SimDuration),
    DupReorder(SimDuration),
    DelaySpike(SimDuration, SimDuration),
    Crash(SimDuration),
    Corrupt(f64, SimDuration),
}

impl Scenario {
    fn plan(&self) -> FaultPlan {
        match self.kind {
            ScenarioKind::Partition(d) => FaultPlan::new().partition(FAULT_AT, d),
            ScenarioKind::LossBurst(p, d) => FaultPlan::new().loss_burst(FAULT_AT, p, d),
            ScenarioKind::DupReorder(d) => FaultPlan::new().duplicate(FAULT_AT, 0.15, d).reorder(
                FAULT_AT,
                0.15,
                SimDuration::from_millis(30),
                d,
            ),
            ScenarioKind::DelaySpike(extra, d) => FaultPlan::new().delay_spike(FAULT_AT, extra, d),
            ScenarioKind::Crash(downtime) => FaultPlan::new().server_crash(FAULT_AT, downtime),
            ScenarioKind::Corrupt(p, d) => FaultPlan::new().corrupt(FAULT_AT, p, d),
        }
    }
}

/// The scenario roster. Core scenarios run on every topology; the
/// LAN-only extras keep the matrix (and the smoke-test wall clock)
/// bounded while still exercising every fault kind.
fn scenarios(core_only: bool) -> Vec<Scenario> {
    let hard = MountOptions::hard();
    let mut v = vec![
        Scenario {
            label: "partition 10s",
            kind: ScenarioKind::Partition(SimDuration::from_secs(10)),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: false,
            mount: hard,
        },
        Scenario {
            label: "loss burst 35%",
            kind: ScenarioKind::LossBurst(0.35, SimDuration::from_secs(10)),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: false,
            mount: hard,
        },
        Scenario {
            label: "server crash 8s",
            kind: ScenarioKind::Crash(SimDuration::from_secs(8)),
            heal: FAULT_AT + SimDuration::from_secs(8),
            udp_only: false,
            mount: hard,
        },
        // Byte corruption runs on every topology: the decode-path
        // hardening (checksum drops, GARBAGE_ARGS, retransmits — never a
        // panic or a wrong answer) must hold regardless of the path.
        Scenario {
            label: "corrupt 20%",
            kind: ScenarioKind::Corrupt(0.20, SimDuration::from_secs(10)),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: false,
            mount: hard,
        },
    ];
    if !core_only {
        v.push(Scenario {
            label: "dup+reorder 15%",
            kind: ScenarioKind::DupReorder(SimDuration::from_secs(10)),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: false,
            mount: hard,
        });
        v.push(Scenario {
            label: "delay spike +150ms",
            kind: ScenarioKind::DelaySpike(
                SimDuration::from_millis(150),
                SimDuration::from_secs(10),
            ),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: false,
            mount: hard,
        });
        v.push(Scenario {
            label: "soft partition 10s",
            kind: ScenarioKind::Partition(SimDuration::from_secs(10)),
            heal: FAULT_AT + SimDuration::from_secs(10),
            udp_only: true,
            mount: MountOptions::soft(3),
        });
    }
    v
}

/// One cell of the matrix, as pure data for the parallel runner.
struct Cell {
    topo_label: &'static str,
    topo: TopologyKind,
    scenario: Scenario,
    transport_label: &'static str,
    transport: TransportKind,
    idx: usize,
}

/// One measured row.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Topology label.
    pub topo: String,
    /// Scenario label.
    pub scenario: String,
    /// Transport label.
    pub transport: String,
    /// Completed workload iterations.
    pub ops: u64,
    /// Milliseconds from the heal to the first completion after it
    /// (`None` if every op finished before the heal).
    pub recovery_ms: Option<f64>,
    /// Transport retransmissions per completed op.
    pub retrans_per_op: f64,
    /// Server duplicate-cache hits.
    pub dup_hits: u64,
    /// Non-idempotent replay anomalies visible to the client.
    pub anomalies: u64,
    /// `server not responding` console events.
    pub not_responding: u64,
    /// `server ok` console events.
    pub server_ok: u64,
    /// Soft-mount `ETIMEDOUT` failures.
    pub soft_timeouts: u64,
    /// Frames dropped because a path link was down.
    pub flap_drops: u64,
    /// Frames duplicated / reordered by the fault plan.
    pub injected: u64,
    /// Frames damaged in flight by the fault plan.
    pub corrupted_frames: u64,
    /// Damaged datagrams a receiver checksum caught and discarded.
    pub checksum_drops: u64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// All rows, in matrix order.
    pub rows: Vec<FaultRow>,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Faults: recovery behaviour under injected failures (hard mounts unless noted)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.topo.clone(),
                    r.scenario.clone(),
                    r.transport.clone(),
                    format!("{}", r.ops),
                    r.recovery_ms
                        .map(|m| format!("{m:.0}"))
                        .unwrap_or_else(|| "-".to_string()),
                    format!("{:.2}", r.retrans_per_op),
                    format!("{}", r.dup_hits),
                    format!("{}", r.anomalies),
                    format!("{}/{}/{}", r.not_responding, r.server_ok, r.soft_timeouts),
                    format!("{}", r.flap_drops),
                    format!("{}", r.injected),
                    format!("{}", r.corrupted_frames),
                    format!("{}", r.checksum_drops),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "config",
                    "scenario",
                    "transport",
                    "ops",
                    "recov ms",
                    "rex/op",
                    "dup hits",
                    "anom",
                    "nr/ok/to",
                    "flapdrop",
                    "dup+reord",
                    "corrupt",
                    "ckdrop"
                ],
                &rows
            )
        )
    }
}

/// Runs one cell: a paced open/write/close/remove loop across the fault.
fn run_cell(cell: &Cell, iters: usize) -> FaultRow {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = cell.topo;
    cfg.transport = cell.transport.clone();
    // Quiet background: the injected faults are the only disturbance,
    // so the recovery numbers are attributable.
    cfg.background = Background::quiet();
    // The tuned server: its dup cache is the defense this experiment
    // measures (`dup hits` counts retransmitted non-idempotent RPCs
    // answered without re-execution).
    cfg.server.dup_cache = true;
    cfg.faults = cell.scenario.plan();
    cfg.mount = cell.scenario.mount;
    cfg.seed = point_seed(0xFA175, cell.idx, 0);
    let mut world = World::new(cfg);
    let root = world.root_handle();
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
        let mut completions: Vec<SimTime> = Vec::new();
        let mut anomalies = 0u64;
        let mut soft_failures = 0u64;
        let payload = [0x5Au8; 2048];
        for i in 0..iters {
            let name = format!("/wrk{i}.tmp");
            let result = (|| -> Result<(), ClientError> {
                let fh = fs.open(&name, true, false)?;
                fs.write(fh, 0, &payload)?;
                fs.close(fh)?;
                fs.remove(&name)?;
                Ok(())
            })();
            match result {
                Ok(()) => completions.push(fs.sys().now()),
                Err(ClientError::TimedOut) => soft_failures += 1,
                Err(_) => anomalies += 1,
            }
            fs.sys().sleep(PACING);
        }
        tx.send((completions, anomalies, soft_failures)).unwrap();
    });
    world.run();
    let (completions, anomalies, _soft_failures) = rx.recv().unwrap();
    let heal = cell.scenario.heal;
    let recovery_ms = completions
        .iter()
        .find(|&&t| t >= heal)
        .map(|&t| t.since(heal).as_secs_f64() * 1e3);
    let retrans = world
        .udp_stats_to(0, 0)
        .map(|s| s.retransmits)
        .or_else(|| world.tcp_stats_to(0, 0).map(|s| s.retransmits))
        .unwrap_or(0);
    let ops = completions.len() as u64;
    let events = world.client_events_of(0);
    let count = |k: ClientEventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    let net = world.net_stats();
    FaultRow {
        topo: cell.topo_label.to_string(),
        scenario: cell.scenario.label.to_string(),
        transport: cell.transport_label.to_string(),
        ops,
        recovery_ms,
        retrans_per_op: retrans as f64 / ops.max(1) as f64,
        dup_hits: world.server_of(0).stats().dup_hits,
        anomalies,
        not_responding: count(ClientEventKind::NotResponding),
        server_ok: count(ClientEventKind::ServerOk),
        soft_timeouts: count(ClientEventKind::SoftTimeout),
        flap_drops: net.flap_drops,
        injected: net.dup_frames + net.reordered_frames,
        corrupted_frames: net.corrupted_frames,
        checksum_drops: net.checksum_drops,
    }
}

/// The `repro faults` entry point.
pub fn faults(scale: &Scale) -> FaultReport {
    // Enough paced iterations to span warm-up, fault, heal and a
    // post-recovery tail; scaled off the configured duration so `--quick`
    // stays fast. Hard-mount stalls stretch the run past the heal
    // regardless.
    let iters = (scale.duration.as_secs_f64() / 2.0).clamp(30.0, 120.0) as usize;
    let topologies = [
        ("same LAN", TopologyKind::SameLan),
        ("token ring", TopologyKind::TokenRing),
        ("56Kbps", TopologyKind::SlowLink),
    ];
    let mut cells = Vec::new();
    let mut idx = 0usize;
    for (topo_label, topo) in topologies {
        // The full scenario roster on the LAN; the cross-router core
        // set elsewhere.
        let core_only = topo != TopologyKind::SameLan;
        for scenario in scenarios(core_only) {
            for (transport_label, transport) in paper_transports() {
                if scenario.udp_only && matches!(transport, TransportKind::Tcp) {
                    continue;
                }
                cells.push(Cell {
                    topo_label,
                    topo,
                    scenario,
                    transport_label,
                    transport,
                    idx,
                });
                idx += 1;
            }
        }
    }
    let rows = run_jobs(&cells, scale.jobs, |cell| run_cell(cell, iters));
    FaultReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> FaultReport {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        faults(&scale)
    }

    #[test]
    fn matrix_covers_every_cell_and_recovers() {
        let r = quick_report();
        // 3 topologies × 4 core scenarios × 3 transports, plus the
        // LAN-only extras (2×3 hard + 1×2 soft).
        assert_eq!(r.rows.len(), 36 + 6 + 2);
        for row in &r.rows {
            let is_soft = row.scenario.starts_with("soft");
            if is_soft {
                // The soft mount trades availability for boundedness:
                // some ops fail instead of blocking.
                assert!(row.soft_timeouts > 0, "{row:?}");
            } else {
                // Hard mounts eventually complete every iteration.
                assert!(row.ops > 0, "{row:?}");
                assert_eq!(row.soft_timeouts, 0, "{row:?}");
            }
            // The tuned server re-executes nothing: no replay anomalies
            // anywhere in the matrix.
            assert_eq!(row.anomalies, 0, "{row:?}");
        }
    }

    #[test]
    fn partitions_force_retransmission_and_flap_drops() {
        let r = quick_report();
        let part = r
            .rows
            .iter()
            .find(|row| row.scenario == "partition 10s" && row.transport.contains("A+4D"))
            .unwrap();
        assert!(part.flap_drops > 0, "frames died against the down link");
        assert!(part.retrans_per_op > 0.0);
        assert!(part.recovery_ms.is_some(), "ops completed after the heal");
    }

    /// Decode-path hardening, end to end: on every paper topology and
    /// transport, in-flight byte corruption produces only checksum
    /// drops, server-side garbage rejections, or clean retransmits —
    /// never a client-visible anomaly, and the hard mounts still finish
    /// their work.
    #[test]
    fn corruption_is_survived_on_every_topology() {
        let r = quick_report();
        for topo in ["same LAN", "token ring", "56Kbps"] {
            let rows: Vec<_> = r
                .rows
                .iter()
                .filter(|row| row.topo == topo && row.scenario == "corrupt 20%")
                .collect();
            assert_eq!(rows.len(), 3, "all transports ran on {topo}");
            assert!(
                rows.iter().any(|row| row.corrupted_frames > 0),
                "the plan damaged frames on {topo}"
            );
            for row in rows {
                assert_eq!(row.anomalies, 0, "{row:?}");
                assert!(row.ops > 0, "{row:?}");
            }
        }
    }

    #[test]
    fn dup_reorder_scenario_hits_the_dup_cache_path() {
        let r = quick_report();
        let dup = r
            .rows
            .iter()
            .filter(|row| row.scenario == "dup+reorder 15%")
            .collect::<Vec<_>>();
        assert!(!dup.is_empty());
        assert!(
            dup.iter().any(|row| row.injected > 0),
            "the plan duplicated/reordered frames"
        );
    }
}

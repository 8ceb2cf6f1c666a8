//! Graph 6 (server CPU overhead: UDP vs TCP) and the Section 3
//! interface-tuning ablation.

use std::fmt;

use renofs::{HostProfile, TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_netsim::{NicConfig, NicProfile, TxCopyMode};
use renofs_sim::cpu::CpuCategory;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One Graph 6 point: server CPU under a read mix.
#[derive(Clone, Copy, Debug)]
pub struct CpuPoint {
    /// Offered rate.
    pub offered: f64,
    /// Achieved rate.
    pub achieved: f64,
    /// Server CPU utilization in the measured window, 0..1.
    pub utilization: f64,
    /// Server CPU milliseconds per RPC.
    pub cpu_ms_per_rpc: f64,
}

/// Graph 6 data: UDP and TCP sweeps.
#[derive(Clone, Debug)]
pub struct Graph6 {
    /// Per-transport series.
    pub lines: Vec<(String, Vec<CpuPoint>)>,
}

impl fmt::Display for Graph6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph 6: server CPU overhead, UDP vs TCP, read mix")?;
        let mut rows = Vec::new();
        for (label, points) in &self.lines {
            for p in points {
                rows.push(vec![
                    label.clone(),
                    format!("{:.1}", p.offered),
                    format!("{:.1}", p.achieved),
                    format!("{:.1}%", p.utilization * 100.0),
                    format!("{:.2}", p.cpu_ms_per_rpc),
                ]);
            }
        }
        write!(
            f,
            "{}",
            table(
                &[
                    "transport",
                    "offered/s",
                    "achieved/s",
                    "server CPU",
                    "CPU ms/rpc"
                ],
                &rows
            )
        )
    }
}

fn measure_cpu(world: &mut World, cfg: &NhfsstoneConfig) -> CpuPoint {
    let (dir, files) = nhfsstone::preload_subtree(world, cfg);
    let measure_from = world.now() + cfg.warmup;
    let end = measure_from + cfg.duration;
    let (tx, rx) = std::sync::mpsc::channel();
    for p in 0..cfg.procs {
        let cfg = cfg.clone();
        let files = files.clone();
        let tx = tx.clone();
        world.spawn(move |sys| {
            let samples =
                nhfsstone::generator_proc(sys, p, &cfg, dir, &files, measure_from, end, None);
            let _ = tx.send(samples);
        });
    }
    drop(tx);
    // Reset CPU accounting once the warm-up has elapsed.
    world.run_until(measure_from);
    let t0 = world.now();
    world.server_host_mut(0).cpu.reset_accounting(t0);
    world.run();
    let busy = world.server_host_of(0).cpu.busy_time();
    let util = world
        .server_host_of(0)
        .cpu
        .utilization(world.now().min(end).max(t0));
    let mut all = Vec::new();
    while let Ok(mut s) = rx.recv() {
        all.append(&mut s);
    }
    let report = nhfsstone::summarize(all, cfg.duration);
    CpuPoint {
        offered: cfg.rate_per_sec,
        achieved: report.achieved_rate,
        utilization: util,
        cpu_ms_per_rpc: if report.ops > 0 {
            busy.as_millis_f64() / report.ops as f64
        } else {
            0.0
        },
    }
}

/// Runs Graph 6: the read mix at increasing rates over UDP and TCP.
/// Each (transport, rate) point runs as one independent job.
pub fn graph6(scale: &Scale) -> Graph6 {
    let transports = [
        (
            "UDP",
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
        ),
        ("TCP", TransportKind::Tcp),
    ];
    let mut jobs = Vec::new();
    for (_, transport) in &transports {
        for &rate in &scale.lan_rates {
            jobs.push((transport.clone(), rate));
        }
    }
    let points = run_jobs(&jobs, scale.jobs, |(transport, rate)| {
        let mut cfg = WorldConfig::baseline();
        cfg.transport = transport.clone();
        cfg.seed = 600 + *rate as u64;
        let mut world = World::new(cfg);
        let mut ncfg = NhfsstoneConfig::paper(*rate, LoadMix::read_heavy());
        ncfg.duration = scale.duration;
        ncfg.warmup = scale.warmup;
        ncfg.nfiles = scale.nfiles;
        measure_cpu(&mut world, &ncfg)
    });
    let lines = transports
        .iter()
        .zip(points.chunks_exact(scale.lan_rates.len()))
        .map(|((label, _), chunk)| (label.to_string(), chunk.to_vec()))
        .collect();
    Graph6 { lines }
}

/// The Section 3 ablation result.
#[derive(Clone, Debug)]
pub struct Section3 {
    /// `(config label, CPU ms/rpc, netif share of busy CPU)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

impl Section3 {
    /// CPU reduction of the fully tuned configuration vs stock.
    pub fn reduction(&self) -> f64 {
        let stock = self.rows.first().map(|r| r.1).unwrap_or(0.0);
        let tuned = self.rows.last().map(|r| r.1).unwrap_or(0.0);
        if stock > 0.0 {
            1.0 - tuned / stock
        } else {
            0.0
        }
    }
}

impl fmt::Display for Section3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 3: server interface tuning (read-heavy Nhfsstone mix)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, cpu, share)| {
                vec![
                    l.clone(),
                    format!("{cpu:.2}"),
                    format!("{:.1}%", share * 100.0),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            table(&["interface config", "CPU ms/rpc", "netif share"], &rows)
        )?;
        writeln!(
            f,
            "total CPU reduction, tuned vs stock: {:.1}% (paper: ~12%)",
            self.reduction() * 100.0
        )
    }
}

/// Runs the Section 3 ablation: stock driver, each change alone, both.
pub fn section3(scale: &Scale) -> Section3 {
    let configs = [
        ("copy + tx-interrupts (stock)", TxCopyMode::Copy, true),
        ("copy, no tx-interrupts", TxCopyMode::Copy, false),
        ("PTE-map + tx-interrupts", TxCopyMode::PageMap, true),
        (
            "PTE-map, no tx-interrupts (tuned)",
            TxCopyMode::PageMap,
            false,
        ),
    ];
    let rows = run_jobs(&configs, scale.jobs, |(label, copy_mode, tx_interrupts)| {
        let nic = NicConfig {
            profile: NicProfile::DEQNA,
            copy_mode: *copy_mode,
            tx_interrupts: *tx_interrupts,
        };
        let mut cfg = WorldConfig::baseline();
        cfg.topology = TopologyKind::SameLan;
        cfg.background = Background::quiet();
        cfg.server_host = HostProfile {
            nic,
            ..HostProfile::microvax_stock()
        };
        cfg.seed = 300;
        let mut world = World::new(cfg);
        // A moderate read-heavy load, below saturation so per-RPC CPU is
        // clean.
        let mut ncfg = NhfsstoneConfig::paper(12.0, LoadMix::read_heavy());
        ncfg.duration = scale.duration;
        ncfg.warmup = scale.warmup;
        ncfg.nfiles = scale.nfiles;
        let point = measure_cpu(&mut world, &ncfg);
        let netif = world.server_host_of(0).cpu.busy_in(CpuCategory::NetIf);
        let busy = world.server_host_of(0).cpu.busy_time();
        let share = if !busy.is_zero() {
            netif.as_secs_f64() / busy.as_secs_f64()
        } else {
            0.0
        };
        (label.to_string(), point.cpu_ms_per_rpc, share)
    });
    Section3 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph6_tcp_costs_more_cpu() {
        let mut scale = Scale::quick();
        scale.lan_rates = vec![10.0];
        let g = graph6(&scale);
        let udp = g.lines[0].1[0];
        let tcp = g.lines[1].1[0];
        assert!(udp.cpu_ms_per_rpc > 1.0, "udp {:.2}", udp.cpu_ms_per_rpc);
        assert!(
            tcp.cpu_ms_per_rpc > udp.cpu_ms_per_rpc * 1.05,
            "TCP ({:.2}) must exceed UDP ({:.2})",
            tcp.cpu_ms_per_rpc,
            udp.cpu_ms_per_rpc
        );
        // The paper: ~7 ms/RPC more for the read mix on a MicroVAXII.
        let delta = tcp.cpu_ms_per_rpc - udp.cpu_ms_per_rpc;
        assert!(
            (2.0..14.0).contains(&delta),
            "TCP extra CPU should be paper-scale (~7ms/rpc), got {delta:.2}ms"
        );
    }

    #[test]
    fn section3_reduces_cpu_double_digit() {
        let scale = Scale::quick();
        let s = section3(&scale);
        assert_eq!(s.rows.len(), 4);
        // Stock interface handling is a large share of server CPU under
        // a read mix — the paper's ">1/3 of cycles" observation.
        assert!(
            s.rows[0].2 > 0.25,
            "stock netif share {:.2} should be >1/4",
            s.rows[0].2
        );
        let red = s.reduction();
        assert!(
            (0.05..0.45).contains(&red),
            "tuning should recover ~12% of CPU, got {:.1}%",
            red * 100.0
        );
        // Each individual change helps.
        assert!(s.rows[1].1 < s.rows[0].1, "dropping tx interrupts helps");
        assert!(s.rows[2].1 < s.rows[0].1, "PTE mapping helps");
    }
}

//! Graphs 1–5 and Table 1: RPC response time versus offered load for
//! the three transports across the three internetwork configurations.

use std::fmt;

use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

use super::{paper_transports, retransmits};
use crate::fmt::table;
use crate::runner::{point_seed, run_jobs, workload_seed};
use crate::Scale;

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct GraphPoint {
    /// Offered load (RPC/sec).
    pub offered: f64,
    /// Achieved rate (RPC/sec).
    pub achieved: f64,
    /// Mean response time, ms.
    pub rtt_ms: f64,
    /// Response-time standard deviation, ms.
    pub rtt_sd_ms: f64,
    /// Transport-level retransmissions during the run.
    pub retransmits: u64,
    /// Achieved read rate (reads/sec), for Table 1.
    pub read_rate: f64,
}

/// One line on a graph: a transport label and its sweep.
#[derive(Clone, Debug)]
pub struct GraphLine {
    /// Plot label.
    pub label: String,
    /// Points by offered load.
    pub points: Vec<GraphPoint>,
}

/// A full graph: several transport lines.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Title matching the paper's graph number.
    pub title: String,
    /// Lines.
    pub lines: Vec<GraphLine>,
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut rows = Vec::new();
        for line in &self.lines {
            for p in &line.points {
                rows.push(vec![
                    line.label.clone(),
                    format!("{:.1}", p.offered),
                    format!("{:.1}", p.achieved),
                    format!("{:.1}", p.rtt_ms),
                    format!("{:.1}", p.rtt_sd_ms),
                    format!("{}", p.retransmits),
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
                    "rtt ms",
                    "sd ms",
                    "retrans"
                ],
                &rows
            )
        )
    }
}

/// One measured point expressed as pure data: the job list the parallel
/// runner fans out.
struct PointJob {
    transport: TransportKind,
    run: usize,
    rate_idx: usize,
    rate: f64,
}

/// The background a topology carries in the paper's sweeps. The paper
/// measured across production networks; only the 56 Kbps line was quiet
/// after hours.
fn background_for(topology: TopologyKind) -> Background {
    match topology {
        TopologyKind::TokenRing => Background::production(),
        TopologyKind::SameLan | TopologyKind::SlowLink => Background::off_peak(),
    }
}

/// Runs one Nhfsstone cell on `topology` under its background. The
/// `World` is built here, inside the worker thread, so it never crosses
/// a thread boundary.
fn measure(
    topology: TopologyKind,
    transport: &TransportKind,
    seed: u64,
    cfg: &NhfsstoneConfig,
) -> GraphPoint {
    let wcfg = WorldConfig {
        topology,
        background: background_for(topology),
        transport: transport.clone(),
        seed,
        ..WorldConfig::baseline()
    };
    let mut world = World::new(wcfg);
    let report = nhfsstone::run(&mut world, cfg);
    GraphPoint {
        offered: cfg.rate_per_sec,
        achieved: report.achieved_rate,
        rtt_ms: report.rtt_ms.mean(),
        rtt_sd_ms: report.rtt_ms.stddev(),
        retransmits: retransmits(&world, 0, 0),
        read_rate: report.read_ms.count() as f64 / cfg.duration.as_secs_f64(),
    }
}

/// Pointwise mean ± stddev across runs, matching the paper's averaged
/// graphs: `rtt_ms` is the across-run mean, `rtt_sd_ms` pools the
/// within-run variance with the across-run spread (law of total
/// variance), and counters are averaged.
fn aggregate_runs(label: &str, per_run: &[Vec<GraphPoint>]) -> GraphLine {
    let runs = per_run.len();
    let npoints = per_run[0].len();
    let mut points = Vec::with_capacity(npoints);
    for pi in 0..npoints {
        let samples: Vec<&GraphPoint> = per_run.iter().map(|r| &r[pi]).collect();
        let mean = |f: &dyn Fn(&GraphPoint) -> f64| {
            samples.iter().map(|p| f(p)).sum::<f64>() / runs as f64
        };
        let rtt_mean = mean(&|p| p.rtt_ms);
        let within_var = mean(&|p| p.rtt_sd_ms * p.rtt_sd_ms);
        let across_var = mean(&|p| (p.rtt_ms - rtt_mean) * (p.rtt_ms - rtt_mean));
        points.push(GraphPoint {
            offered: samples[0].offered,
            achieved: mean(&|p| p.achieved),
            rtt_ms: rtt_mean,
            rtt_sd_ms: (within_var + across_var).sqrt(),
            retransmits: (samples.iter().map(|p| p.retransmits).sum::<u64>() as f64 / runs as f64)
                .round() as u64,
            read_rate: mean(&|p| p.read_rate),
        });
    }
    GraphLine {
        label: format!("{label} (mean of {runs} runs)"),
        points,
    }
}

/// Runs one (topology, mix) sweep over all three transports.
///
/// Every `(transport, run, rate)` point is an independent simulation;
/// the sweep is flattened into a job list and fanned out over
/// `scale.jobs` workers. Output is byte-identical for any worker count.
pub fn rtt_vs_load(
    title: &str,
    topology: TopologyKind,
    mix: LoadMix,
    rates: &[f64],
    scale: &Scale,
    seed: u64,
) -> Graph {
    let transports = paper_transports();
    let mut jobs = Vec::new();
    for (_, transport) in &transports {
        for run in 0..scale.runs {
            for (ri, &rate) in rates.iter().enumerate() {
                jobs.push(PointJob {
                    transport: transport.clone(),
                    run,
                    rate_idx: ri,
                    rate,
                });
            }
        }
    }
    let points = run_jobs(&jobs, scale.jobs, |job| {
        let cfg = NhfsstoneConfig {
            seed: workload_seed(seed, job.run),
            ..scale.nhfsstone(job.rate, mix)
        };
        let world_seed = point_seed(seed, job.run, job.rate_idx);
        measure(topology, &job.transport, world_seed, &cfg)
    });
    // Results arrive in job order: transport-major, then run, then rate.
    let mut lines = Vec::new();
    let mut chunks = points.chunks_exact(rates.len());
    for (label, _) in &transports {
        let per_run: Vec<Vec<GraphPoint>> = (0..scale.runs)
            .map(|_| chunks.next().expect("a chunk per run").to_vec())
            .collect();
        if scale.runs > 1 {
            lines.push(aggregate_runs(label, &per_run));
        } else {
            lines.push(GraphLine {
                label: label.to_string(),
                points: per_run.into_iter().next().unwrap(),
            });
        }
    }
    Graph {
        title: title.to_string(),
        lines,
    }
}

/// Graph 1: 100 % lookup mix, same LAN.
pub fn graph1(scale: &Scale) -> Graph {
    rtt_vs_load(
        "Graph 1: avg RTT vs load, 100% lookup, same LAN",
        TopologyKind::SameLan,
        LoadMix::pure_lookup(),
        &scale.lan_rates,
        scale,
        101,
    )
}

/// Graph 2: 50/50 lookup/read mix, same LAN.
pub fn graph2(scale: &Scale) -> Graph {
    rtt_vs_load(
        "Graph 2: avg RTT vs load, 50/50 lookup/read, same LAN",
        TopologyKind::SameLan,
        LoadMix::lookup_read(),
        &scale.lan_rates,
        scale,
        102,
    )
}

/// Graph 3: 100 % lookup, token-ring path.
pub fn graph3(scale: &Scale) -> Graph {
    rtt_vs_load(
        "Graph 3: avg RTT vs load, 100% lookup, Ethernets + 80Mb ring + 2 routers",
        TopologyKind::TokenRing,
        LoadMix::pure_lookup(),
        &scale.lan_rates,
        scale,
        103,
    )
}

/// Graph 4: 50/50 mix, token-ring path.
pub fn graph4(scale: &Scale) -> Graph {
    rtt_vs_load(
        "Graph 4: avg RTT vs load, 50/50 lookup/read, Ethernets + 80Mb ring + 2 routers",
        TopologyKind::TokenRing,
        LoadMix::lookup_read(),
        &scale.lan_rates,
        scale,
        104,
    )
}

/// Graph 5: 100 % lookup over the 56 Kbps path (the paper could only
/// run the lookup mix here; 8 KB reads barely fit the link).
pub fn graph5(scale: &Scale) -> Graph {
    rtt_vs_load(
        "Graph 5: avg RTT vs load, 100% lookup, + 56Kbps link + 3 routers",
        TopologyKind::SlowLink,
        LoadMix::pure_lookup(),
        &scale.slow_rates,
        scale,
        105,
    )
}

/// Table 1: achieved read rates per transport and configuration.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// `(config label, transport label, read rate/s)` rows.
    pub rows: Vec<(String, String, f64)>,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: achieved read rates (reads/sec)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(c, t, r)| vec![c.clone(), t.clone(), format!("{r:.2}")])
            .collect();
        write!(f, "{}", table(&["config", "transport", "reads/s"], &rows))
    }
}

/// Measures read rates: 50/50 mix on configurations 1–2; a read-heavy
/// trickle on the 56 Kbps path, where congestion control shows its
/// three-fold advantage.
pub fn table1(scale: &Scale) -> Table1 {
    let lan_rate = *scale.lan_rates.last().unwrap_or(&30.0);
    let lookup_read = LoadMix::lookup_read();
    // On the 56 Kbps path, a read probe offered above the link's ~0.6
    // reads/s capacity: congestion control decides who collapses.
    let read_only = LoadMix {
        lookup: 0,
        read: 100,
        ..lookup_read
    };
    let configs = [
        ("same LAN", TopologyKind::SameLan, lookup_read, lan_rate),
        (
            "token ring (production load)",
            TopologyKind::TokenRing,
            lookup_read,
            lan_rate.min(30.0),
        ),
        ("56Kbps", TopologyKind::SlowLink, read_only, 1.2),
    ];
    let jobs: Vec<_> = configs
        .iter()
        .flat_map(|config| paper_transports().map(|transport| (config, transport)))
        .collect();
    let rows = run_jobs(&jobs, scale.jobs, |(config, transport)| {
        let (conf_label, topo, mix, rate) = **config;
        let (label, transport) = transport;
        let cfg = scale.nhfsstone(rate, mix);
        let point = measure(topo, transport, 0x7AB1E1, &cfg);
        (conf_label.to_string(), label.to_string(), point.read_rate)
    });
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph1_shapes() {
        let mut scale = Scale::quick();
        scale.lan_rates = vec![10.0, 30.0];
        let g = graph1(&scale);
        assert_eq!(g.lines.len(), 3, "three transports");
        for line in &g.lines {
            assert_eq!(line.points.len(), 2);
            for p in &line.points {
                assert!(
                    p.rtt_ms > 0.5 && p.rtt_ms < 200.0,
                    "{}: {}ms",
                    line.label,
                    p.rtt_ms
                );
                assert!(p.achieved > p.offered * 0.5);
            }
        }
        // The paper: on an uncongested LAN, TCP lookups cost a fixed
        // extra ~few ms over UDP.
        let udp_dyn = &g.lines[1].points[0];
        let tcp = &g.lines[2].points[0];
        assert!(
            tcp.rtt_ms > udp_dyn.rtt_ms,
            "TCP ({:.2}ms) should exceed UDP ({:.2}ms) on the LAN",
            tcp.rtt_ms,
            udp_dyn.rtt_ms
        );
    }

    #[test]
    fn graph5_morphology() {
        // The paper's description of the 56K lookup graphs: fixed-RTO
        // erratic, dynamic equal-or-better on average, TCP consistent.
        let mut scale = Scale::quick();
        scale.duration = renofs_sim::SimDuration::from_secs(300);
        scale.slow_rates = vec![4.0];
        let g = graph5(&scale);
        let line = |label: &str| {
            g.lines
                .iter()
                .find(|l| l.label.contains(label))
                .map(|l| l.points[0])
                .unwrap()
        };
        let fixed = line("rto=1s");
        let dynamic = line("A+4D");
        let tcp = line("TCP");
        assert!(
            fixed.rtt_sd_ms > dynamic.rtt_sd_ms * 2.0,
            "fixed RTO must be erratic: sd {:.0} vs dyn {:.0}",
            fixed.rtt_sd_ms,
            dynamic.rtt_sd_ms
        );
        assert!(
            dynamic.rtt_ms <= fixed.rtt_ms * 1.05,
            "dynamic avg ({:.0}ms) equal or better than fixed ({:.0}ms)",
            dynamic.rtt_ms,
            fixed.rtt_ms
        );
        assert!(
            tcp.rtt_sd_ms < fixed.rtt_sd_ms,
            "TCP more consistent than fixed: {:.0} vs {:.0}",
            tcp.rtt_sd_ms,
            fixed.rtt_sd_ms
        );
    }

    #[test]
    fn ring_production_load_favors_dynamic_rto() {
        // The paper's config-2 result: simple congestion control added
        // to UDP improved the read rate by ~30% over both the fixed-RTO
        // transport and TCP.
        let mut scale = Scale::quick();
        scale.duration = renofs_sim::SimDuration::from_secs(300);
        scale.lan_rates = vec![30.0];
        let t = table1(&scale);
        let rate_of = |transport: &str| {
            t.rows
                .iter()
                .find(|(c, tl, _)| c.contains("token ring") && tl.contains(transport))
                .map(|(_, _, r)| *r)
                .unwrap()
        };
        let fixed = rate_of("rto=1s");
        let dynamic = rate_of("A+4D");
        assert!(
            dynamic > fixed * 1.15,
            "dynamic ({dynamic:.2}/s) should clearly beat fixed ({fixed:.2}/s) under production load"
        );
    }

    #[test]
    fn table1_slow_link_favors_congestion_control() {
        let mut scale = Scale::quick();
        scale.duration = renofs_sim::SimDuration::from_secs(400);
        let t = table1(&scale);
        let rate_of = |conf: &str, transport: &str| {
            t.rows
                .iter()
                .find(|(c, tl, _)| c == conf && tl.contains(transport))
                .map(|(_, _, r)| *r)
                .unwrap()
        };
        let fixed = rate_of("56Kbps", "rto=1s");
        let dynamic = rate_of("56Kbps", "A+4D");
        let tcp = rate_of("56Kbps", "TCP");
        assert!(
            dynamic > fixed * 2.0,
            "dynamic ({dynamic:.2}/s) must trounce fixed ({fixed:.2}/s) on 56K"
        );
        assert!(
            tcp > fixed * 2.0,
            "TCP ({tcp:.2}/s) must trounce fixed ({fixed:.2}/s) on 56K"
        );
    }
}

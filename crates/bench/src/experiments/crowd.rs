//! The crowd saturation experiment: many client machines against one
//! server, per topology and transport.
//!
//! The paper measured one client at a time, but its tuning targets — the
//! dynamic RTO estimator, the congestion window, the duplicate-request
//! cache, the fixed nfsd daemon pool — exist because production servers
//! face a *crowd*. This experiment sweeps the client count over the
//! three paper topologies and the three transports, with every client
//! running the Nhfsstone crowd mix (lookup/read/getattr plus a slice of
//! non-idempotent SETATTRs) at a fixed per-client offered rate, and
//! reports per cell:
//!
//! * **agg op/s** — aggregate achieved throughput across clients;
//! * **p50 / p95 ms** — response-time percentiles over all clients' ops;
//! * **rex/op** — transport retransmissions per completed op (the
//!   fixed-RTO UDP mount melts down here as the server saturates and
//!   RTTs blow past the mount `timeo`; the A+4D estimator and TCP adapt);
//! * **dup%** — server duplicate-cache hits per 100 served RPCs
//!   (retransmitted SETATTRs answered without re-execution);
//! * **fair** — Jain's fairness index over per-client achieved rates
//!   (`(Σx)² / (n·Σx²)`: 1.0 = perfectly fair);
//! * **qp95 ms / queued** — p95 nfsd queueing delay and how many
//!   requests had to wait for a daemon ([`renofs::NfsdStats`]).
//!
//! Sweep cells run a pool of [`SWEEP_NFSDS`] daemons; two extra LAN
//! cells at the largest common client count compare a starved pool
//! against a wide one (the 4.3BSD "how many nfsds do I run?" question),
//! holding everything else fixed.
//!
//! Every cell's seeds derive from its position in the matrix
//! ([`crate::runner::point_seed`]/[`crate::runner::workload_seed`]), so
//! output is byte-identical at any `--jobs` level.

use std::fmt;

use renofs::TopologyKind;
use renofs_sim::stats::quantile;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{LoadMix, Spread};

use super::fleet::{self, Cell};
use super::{jain, paper_topologies, paper_transports, UDP_A4D};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// Daemon-pool width for the sweep cells (the 4.3BSD default was a
/// handful of nfsds; 4 keeps saturation an emergent mid-sweep property).
pub const SWEEP_NFSDS: usize = 4;

/// The two pool widths of the A/B comparison cells.
pub const AB_NFSDS: [usize; 2] = [2, 8];

/// One measured row.
#[derive(Clone, Debug)]
pub struct CrowdRow {
    /// Topology label.
    pub topo: String,
    /// Transport label.
    pub transport: String,
    /// Client machines in the world.
    pub clients: usize,
    /// nfsd daemon contexts on the server.
    pub nfsds: usize,
    /// Aggregate achieved throughput (ops/sec, all clients).
    pub agg_ops_per_sec: f64,
    /// Median response time over all clients' measured ops (ms).
    pub p50_ms: f64,
    /// 95th-percentile response time (ms).
    pub p95_ms: f64,
    /// Transport retransmissions per completed op, summed over clients.
    pub retrans_per_op: f64,
    /// Server duplicate-cache hits per 100 served RPCs.
    pub dup_hit_pct: f64,
    /// Jain's fairness index over per-client achieved rates.
    pub fairness: f64,
    /// p95 nfsd queueing delay (ms).
    pub queue_p95_ms: f64,
    /// Requests that waited for a daemon.
    pub queued: u64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct CrowdReport {
    /// All rows, in matrix order (sweep first, then the nfsd A/B pair).
    pub rows: Vec<CrowdRow>,
}

impl fmt::Display for CrowdReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Crowd: N-client saturation per topology and transport \
             (crowd mix, {SWEEP_NFSDS} nfsds; final rows A/B the pool width)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.topo.clone(),
                    r.transport.clone(),
                    format!("{}", r.clients),
                    format!("{}", r.nfsds),
                    format!("{:.1}", r.agg_ops_per_sec),
                    format!("{:.1}", r.p50_ms),
                    format!("{:.1}", r.p95_ms),
                    format!("{:.2}", r.retrans_per_op),
                    format!("{:.1}", r.dup_hit_pct),
                    format!("{:.3}", r.fairness),
                    format!("{:.1}", r.queue_p95_ms),
                    format!("{}", r.queued),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "config",
                    "transport",
                    "N",
                    "nfsd",
                    "agg op/s",
                    "p50 ms",
                    "p95 ms",
                    "rex/op",
                    "dup%",
                    "fair",
                    "qp95 ms",
                    "queued"
                ],
                &rows
            )
        )
    }
}

/// The client-count sweep: at least five points; the paper scale pushes
/// to the 64-client crowd.
fn client_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4, 8, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    }
}

/// Measurement window per cell, decoupled from `scale.duration` (which
/// the single-client sweeps calibrate to paper run lengths) so the
/// matrix stays affordable: the `min` keeps deliberately tiny test
/// scales honored.
fn durations(scale: &Scale) -> (SimDuration, SimDuration) {
    if scale.is_quick() {
        (
            scale.duration.min(SimDuration::from_secs(20)),
            scale.warmup.min(SimDuration::from_secs(4)),
        )
    } else {
        (SimDuration::from_secs(120), SimDuration::from_secs(10))
    }
}

/// Per-client offered rate for a topology: LAN-class links take the
/// paper's mid-sweep per-client load; the 56 Kbps serial path gets a
/// fraction of it, like the paper's own slow-link rate scaling.
fn rate_for(topo: TopologyKind) -> f64 {
    match topo {
        TopologyKind::SameLan | TopologyKind::TokenRing => 4.0,
        TopologyKind::SlowLink => 0.4,
    }
}

/// Runs one cell: an N-client world, the crowd mix from every client.
fn run_cell(cell: &Cell, window: (SimDuration, SimDuration), nfiles: usize) -> CrowdRow {
    let spread = Spread::EveryClient;
    let run = fleet::run(cell, 0xC40D, LoadMix::crowd(), spread, window, nfiles);
    let mut rtts: Vec<f64> = run
        .reports
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.rtt.as_millis_f64()))
        .collect();
    CrowdRow {
        topo: cell.topo.0.to_string(),
        transport: cell.transport.0.to_string(),
        clients: cell.clients,
        nfsds: cell.nfsds,
        agg_ops_per_sec: run.rates.iter().sum(),
        p50_ms: quantile(&mut rtts, 0.50),
        p95_ms: quantile(&mut rtts, 0.95),
        retrans_per_op: run.retrans_per_op,
        dup_hit_pct: run.dup_hit_pct,
        fairness: jain(&run.rates),
        queue_p95_ms: run.queue_p95_ms[0],
        queued: run.queued,
    }
}

/// Builds the cell matrix: the full sweep, then the nfsd A/B pair on the
/// LAN with dynamic-RTO UDP at the largest sweep client count.
fn cells(counts: &[usize]) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut idx = 0usize;
    for topo in paper_topologies() {
        for transport in paper_transports() {
            for &n in counts {
                cells.push(Cell {
                    topo,
                    transport: transport.clone(),
                    clients: n,
                    servers: 1,
                    nfsds: SWEEP_NFSDS,
                    rate_per_client: rate_for(topo.1),
                    idx,
                });
                idx += 1;
            }
        }
    }
    // The pool-width A/B: 32 clients hammering a LAN server through 2
    // vs 8 daemons. Pinned at 32 regardless of sweep scale so the two
    // rows always describe the same saturated operating point.
    for nfsds in AB_NFSDS {
        cells.push(Cell {
            topo: ("same LAN", TopologyKind::SameLan),
            transport: ("UDP rto=A+4D", UDP_A4D),
            clients: 32,
            servers: 1,
            nfsds,
            rate_per_client: rate_for(TopologyKind::SameLan),
            idx,
        });
        idx += 1;
    }
    cells
}

/// [`crowd`] over an explicit client-count sweep (tests use a subset).
pub fn crowd_with_counts(scale: &Scale, counts: &[usize]) -> CrowdReport {
    let window = durations(scale);
    let rows = run_jobs(&cells(counts), scale.jobs, |cell| {
        run_cell(cell, window, scale.nfiles)
    });
    CrowdReport { rows }
}

/// The `repro crowd` entry point.
pub fn crowd(scale: &Scale) -> CrowdReport {
    crowd_with_counts(scale, &client_counts(scale.is_quick()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_behaves() {
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One client hogging everything: index collapses toward 1/n.
        let skew = jain(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[0.0, 0.0]), 0.0);
    }

    /// The crowd's p50/p95 cells come from the shared exact quantile.
    #[test]
    fn quantiles_are_exact_on_small_samples() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    /// A reduced matrix that still spans the claims: growing crowds load
    /// the server, the pool starves at scale, every client gets a share.
    #[test]
    fn crowds_saturate_and_stay_fair() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_secs(12);
        scale.warmup = SimDuration::from_secs(2);
        scale.nfiles = 20;
        scale.jobs = 2;
        let r = crowd_with_counts(&scale, &[1, 8]);
        // 3 topologies × 3 transports × 2 counts + 2 A/B rows.
        assert_eq!(r.rows.len(), 20);
        for row in &r.rows {
            assert!(row.agg_ops_per_sec > 0.0, "{row:?}");
            assert!(
                row.fairness > 0.5 && row.fairness <= 1.0 + 1e-9,
                "fairness out of range: {row:?}"
            );
            assert!(row.p95_ms >= row.p50_ms, "{row:?}");
        }
        // More clients means more aggregate throughput on the LAN (the
        // 8-client world offers 8x the load and the server keeps up at
        // this rate).
        let lan = |n: usize, t: &str| {
            r.rows
                .iter()
                .find(|row| {
                    row.topo == "same LAN"
                        && row.clients == n
                        && row.transport.contains(t)
                        && row.nfsds == SWEEP_NFSDS
                })
                .unwrap()
        };
        assert!(
            lan(8, "A+4D").agg_ops_per_sec > 3.0 * lan(1, "A+4D").agg_ops_per_sec,
            "aggregate throughput must scale with the crowd"
        );
        // The A/B rows exist and ran at the pinned 32-client point.
        let ab: Vec<_> = r.rows.iter().filter(|row| row.clients == 32).collect();
        assert_eq!(ab.len(), 2);
        assert!(ab.iter().any(|row| row.nfsds == 2));
        assert!(ab.iter().any(|row| row.nfsds == 8));
        // The starved pool queues (much) more than the wide one.
        let starved = ab.iter().find(|row| row.nfsds == 2).unwrap();
        let wide = ab.iter().find(|row| row.nfsds == 8).unwrap();
        assert!(
            starved.queued > wide.queued,
            "2 daemons must queue more than 8: {starved:?} vs {wide:?}"
        );
        assert!(
            starved.queue_p95_ms >= wide.queue_p95_ms,
            "starved pool queueing delay must not be lower: {starved:?} vs {wide:?}"
        );
    }

    /// The paper's core claim at crowd scale: the fixed-RTO UDP mount
    /// retransmits into a saturated server, the adaptive estimator backs
    /// off. (The full sweep shows the same on every topology.)
    #[test]
    fn fixed_rto_udp_degrades_against_adaptive_at_scale() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_secs(12);
        scale.warmup = SimDuration::from_secs(2);
        scale.nfiles = 20;
        scale.jobs = 2;
        let r = crowd_with_counts(&scale, &[16]);
        let slow = |t: &str| {
            r.rows
                .iter()
                .find(|row| {
                    row.topo == "56Kbps" && row.transport.contains(t) && row.nfsds == SWEEP_NFSDS
                })
                .unwrap()
        };
        let fixed = slow("rto=1s");
        let dynamic = slow("A+4D");
        assert!(
            fixed.retrans_per_op > 1.3 * dynamic.retrans_per_op.max(0.01),
            "fixed 1s RTO must retransmit more than A+4D on the slow \
             path: {fixed:?} vs {dynamic:?}"
        );
        // Those retransmitted SETATTRs land in the dup cache instead of
        // re-executing — and the adaptive mount, which spaces its
        // retries, barely touches it.
        assert!(
            fixed.dup_hit_pct > 0.0,
            "saturation retransmits must produce dup-cache hits: {fixed:?}"
        );
        assert!(
            fixed.dup_hit_pct > dynamic.dup_hit_pct,
            "the fixed-RTO mount replays more non-idempotent RPCs: \
             {fixed:?} vs {dynamic:?}"
        );
    }
}

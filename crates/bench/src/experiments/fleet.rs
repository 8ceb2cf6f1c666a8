//! The cell the crowd and shard sweeps share: one N-client × M-server
//! world with every client running an Nhfsstone mix, and the
//! fleet-wide totals both tables are read from.

use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_sim::stats::quantile;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig, NhfsstoneReport, Spread};

use super::retransmits;
use crate::runner::{point_seed, workload_seed};

/// One cell of a fleet sweep, as pure data for the parallel runner.
#[derive(Clone)]
pub(crate) struct Cell {
    pub topo: (&'static str, TopologyKind),
    pub transport: (&'static str, TransportKind),
    pub clients: usize,
    pub servers: usize,
    /// nfsd daemon contexts per server.
    pub nfsds: usize,
    pub rate_per_client: f64,
    /// Position in the sweep, from which the cell's seeds derive.
    pub idx: usize,
}

/// A finished cell: the world, the workload's reports (one per client
/// or per shard) and their achieved rates, and fleet-wide totals.
pub(crate) struct Fleet {
    pub world: World,
    pub reports: Vec<NhfsstoneReport>,
    pub rates: Vec<f64>,
    /// Transport retransmissions per completed op, every (client,
    /// server) pair summed.
    pub retrans_per_op: f64,
    /// Fleet-wide duplicate-cache hits per 100 served RPCs.
    pub dup_hit_pct: f64,
    /// p95 nfsd queueing delay per server (ms), in server order.
    pub queue_p95_ms: Vec<f64>,
    /// Requests across the fleet that waited for a daemon.
    pub queued: u64,
}

/// Runs `cell` with seeds derived from `base`: `mix` from every client,
/// reported as `spread` says, measured for `duration` after `warmup`.
pub(crate) fn run(
    cell: &Cell,
    base: u64,
    mix: LoadMix,
    spread: Spread,
    (duration, warmup): (SimDuration, SimDuration),
    nfiles: usize,
) -> Fleet {
    let mut cfg = WorldConfig {
        topology: cell.topo.1,
        transport: cell.transport.1.clone(),
        clients: cell.clients,
        servers: cell.servers,
        nfsds: cell.nfsds,
        seed: point_seed(base, cell.idx, 0),
        ..WorldConfig::baseline()
    };
    // The tuned server: the dup cache is what makes retransmitted
    // SETATTRs safe, and both sweeps measure how often it fires.
    cfg.server.dup_cache = true;
    let mut world = World::new(cfg);
    let mut ncfg = NhfsstoneConfig {
        procs: 2,
        duration,
        warmup,
        nfiles,
        seed: workload_seed(base, cell.idx),
        ..NhfsstoneConfig::paper(cell.rate_per_client, mix)
    };
    if mix.read == 0 {
        // Nothing reads file data: skip filling the files.
        ncfg.preload_bytes = 0;
    }
    let reports = nhfsstone::run_spread(&mut world, &ncfg, spread, |_| {});
    let total_ops: u64 = reports.iter().map(|r| r.ops).sum();
    let rates = reports.iter().map(|r| r.achieved_rate).collect();
    let (clients, servers) = (world.client_count(), world.server_count());
    let retrans: u64 = (0..clients)
        .flat_map(|ci| (0..servers).map(move |sj| (ci, sj)))
        .map(|(ci, sj)| retransmits(&world, ci, sj))
        .sum();
    let (mut served, mut dup_hits, mut queued) = (0u64, 0u64, 0u64);
    let mut queue_p95_ms = Vec::with_capacity(servers);
    for sj in 0..servers {
        let stats = world.server_of(sj).stats();
        served += stats.total();
        dup_hits += stats.dup_hits;
        let nfsd = world.nfsd_stats_of(sj);
        queued += nfsd.queued;
        queue_p95_ms.push(quantile(&mut nfsd.queue_delays_ms.clone(), 0.95));
    }
    Fleet {
        world,
        reports,
        rates,
        retrans_per_op: retrans as f64 / total_ops.max(1) as f64,
        dup_hit_pct: 100.0 * dup_hits as f64 / served.max(1) as f64,
        queue_p95_ms,
        queued,
    }
}

//! The `repro shard` sweep: N-client × M-server sharded fleets.
//!
//! The crowd sweep gives one server many clients; this one gives the
//! crowd a *fleet*, through the same cell (`fleet.rs`). Each server
//! machine exports its own subtree behind its own nfsd pool,
//! duplicate-request cache and boot epoch, and every client
//! pins each of its generator processes to a home shard (`(client +
//! proc) % servers`), talking to it over the per-(client, server)
//! transport and XID stream the multi-server world provides. The sweep
//! varies the client count, the fleet width and the transport over the
//! paper topologies and reports per cell:
//!
//! * **agg op/s** — aggregate achieved throughput over all shards (the
//!   number the M=4 ≥ 2× M=1 LAN gate holds: once one server's nfsd
//!   pool saturates, the only way up is more servers);
//! * **rex/op** — transport retransmissions per completed op, summed
//!   over every (client, server) pair;
//! * **dup%** — fleet-wide duplicate-cache hits per 100 served RPCs;
//! * **fair** — Jain's fairness index over per-shard achieved rates
//!   (`(Σx)²/(n·Σx²)`: 1.0 = the namespace sharded evenly);
//! * **qp95 ms / queued** — the *worst* shard's p95 nfsd queueing delay
//!   and how many requests across the fleet waited for a daemon;
//! * **hash** — an FNV-1a digest of everything the cell computed (every
//!   RTT sample, per-pair retransmits, dup-cache and nfsd counters, the
//!   final clock), which must be byte-identical at any `--jobs` level.
//!
//! The mix is metadata-only (lookup/getattr plus non-idempotent
//! SETATTRs) so the servers' Ethernet drops stay below saturation and the
//! per-server nfsd pools — [`SHARD_NFSDS`] daemons each, deliberately
//! starved — are the bottleneck sharding relieves. The 56 Kbps rows are
//! the control: there the *trunk* is the bottleneck and a wider fleet
//! buys nothing, exactly as the paper's slow-link sections predict.
//!
//! `repro shard` prints the table. The gates are held on fresh numbers:
//! [`ShardReport::check`] on the quick sweep in this module's tests,
//! byte-identity at `--jobs` 1, 2 and 4 in `tests/determinism.rs`, and
//! the whole quick table, hashes included, by md5 in
//! `scripts/digests.expected`.

use std::fmt;

use renofs::World;
use renofs_oracle::fnv1a;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{LoadMix, NhfsstoneReport, Spread};

use super::fleet::{self, Cell};
use super::{jain, paper_topologies, paper_transports, retransmits};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// Daemon-pool width *per server*. Two daemons saturate early, so the
/// single-server baseline hits its ceiling well below the offered load
/// and fleet scaling is measurable instead of hidden behind idle pools.
pub const SHARD_NFSDS: usize = 2;

/// Per-client offered rate on LAN-class topologies (ops/sec). With the
/// gate's client count this offers several times one server's capacity
/// while keeping the metadata-sized packets below Ethernet saturation.
pub const SHARD_RATE_LAN: f64 = 12.0;

/// Per-client offered rate on the 56 Kbps serial path: enough that the
/// shared trunk itself saturates, so the control rows show fleet width
/// buying nothing when the wire, not the nfsd pool, is the bottleneck.
pub const SHARD_RATE_SLOW: f64 = 1.5;

/// Client count of the two LAN cells the scaling gate compares.
pub const GATE_CLIENTS: usize = 256;

/// Required aggregate-op/s ratio of the M=4 LAN cell over M=1.
pub const SHARD_SCALING_FLOOR: f64 = 2.0;

/// Transport label of the gate cells: dynamic-RTO UDP.
const GATE_TRANSPORT: &str = "UDP rto=A+4D";

/// Seed base of the shard sweep (worlds and workloads derive from it
/// via the canonical helpers, so cells are position-seeded).
const SHARD_BASE: u64 = 0x54A8D;

/// The metadata-only crowd mix: no bulk reads, so the servers' drops
/// carry small packets and the nfsd pools are the contended resource.
/// The SETATTR slice keeps the per-server dup caches honest under
/// saturation retransmits.
fn shard_mix() -> LoadMix {
    LoadMix {
        lookup: 45,
        read: 0,
        getattr: 40,
        setattr: 15,
        write: 0,
    }
}

/// One measured row.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Topology label.
    pub topo: String,
    /// Transport label.
    pub transport: String,
    /// Client machines in the world.
    pub clients: usize,
    /// Server machines in the fleet.
    pub servers: usize,
    /// Aggregate achieved throughput over all shards (ops/sec).
    pub agg_ops_per_sec: f64,
    /// Per-shard achieved rates, in server order.
    pub shard_rates: Vec<f64>,
    /// Jain's fairness index over the per-shard rates.
    pub fairness: f64,
    /// Transport retransmissions per completed op, all (client, server)
    /// pairs summed.
    pub retrans_per_op: f64,
    /// Fleet-wide duplicate-cache hits per 100 served RPCs.
    pub dup_hit_pct: f64,
    /// p95 nfsd queueing delay per server (ms), in server order.
    pub queue_p95_ms: Vec<f64>,
    /// Requests across the fleet that waited for a daemon.
    pub queued: u64,
    /// FNV-1a digest of the cell's complete result (samples,
    /// counters, final clock): the `--jobs` determinism witness.
    pub state_hash: u64,
}

impl ShardRow {
    /// The worst shard's p95 queueing delay.
    pub fn queue_p95_worst_ms(&self) -> f64 {
        self.queue_p95_ms.iter().cloned().fold(0.0, f64::max)
    }
}

/// The LAN gate cell with `servers` servers among `rows`: the gate's
/// client count and transport.
fn gate_row(rows: &[ShardRow], servers: usize) -> Result<&ShardRow, String> {
    rows.iter()
        .find(|r| {
            r.topo == "same LAN"
                && r.transport == GATE_TRANSPORT
                && r.clients == GATE_CLIENTS
                && r.servers == servers
        })
        .ok_or_else(|| format!("no LAN M={servers} gate cell in the shard report"))
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// All rows, in matrix order.
    pub rows: Vec<ShardRow>,
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Shard: N-client × M-server fleets ({SHARD_NFSDS} nfsds per server, \
             metadata crowd mix; qp95 is the worst shard's)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.topo.clone(),
                    r.transport.clone(),
                    format!("{}", r.clients),
                    format!("{}", r.servers),
                    format!("{:.1}", r.agg_ops_per_sec),
                    format!("{:.2}", r.retrans_per_op),
                    format!("{:.1}", r.dup_hit_pct),
                    format!("{:.3}", r.fairness),
                    format!("{:.1}", r.queue_p95_worst_ms()),
                    format!("{}", r.queued),
                    format!("{:016x}", r.state_hash),
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
                    "M",
                    "agg op/s",
                    "rex/op",
                    "dup%",
                    "fair",
                    "qp95 ms",
                    "queued",
                    "hash"
                ],
                &rows
            )
        )
    }
}

/// Measurement window per cell: bigger worlds get shorter windows for a
/// comparable wall-clock budget.
fn shard_durations(scale: &Scale, clients: usize) -> (SimDuration, SimDuration) {
    let secs = match (scale.is_quick(), clients >= 512) {
        (true, true) => 1,
        (true, false) => 2,
        (false, true) => 4,
        (false, false) => 8,
    };
    (SimDuration::from_secs(secs), SimDuration::from_secs(1))
}

/// Digest of everything one cell computed: per-shard sample streams,
/// every (client, server) transport's retransmit counter, per-server
/// op and dup-cache counters, fleet nfsd accounting and the final
/// virtual clock. Two runs that agree here did the same simulation.
fn state_hash(world: &World, reports: &[NhfsstoneReport]) -> u64 {
    let mut bytes = Vec::with_capacity(64 + reports.len() * 32);
    let push = |v: u64, bytes: &mut Vec<u8>| bytes.extend_from_slice(&v.to_le_bytes());
    push(world.now().as_nanos(), &mut bytes);
    for r in reports {
        push(r.ops, &mut bytes);
        push(r.achieved_rate.to_bits(), &mut bytes);
        push(r.samples.len() as u64, &mut bytes);
        for s in &r.samples {
            push(s.rtt.as_nanos(), &mut bytes);
        }
    }
    for ci in 0..world.client_count() {
        for sj in 0..world.server_count() {
            push(retransmits(world, ci, sj), &mut bytes);
        }
    }
    for sj in 0..world.server_count() {
        let stats = world.server_of(sj).stats();
        push(stats.total(), &mut bytes);
        push(stats.dup_hits, &mut bytes);
        push(world.nfsd_stats_of(sj).queued, &mut bytes);
    }
    fnv1a(&bytes)
}

/// Runs one cell: an N-client × M-server world, every client's
/// generator processes pinned round-robin over the shards.
fn run_cell(cell: &Cell, window: (SimDuration, SimDuration), nfiles: usize) -> ShardRow {
    let spread = Spread::EveryShard;
    let run = fleet::run(cell, SHARD_BASE, shard_mix(), spread, window, nfiles);
    ShardRow {
        topo: cell.topo.0.to_string(),
        transport: cell.transport.0.to_string(),
        clients: cell.clients,
        servers: cell.servers,
        agg_ops_per_sec: run.rates.iter().sum(),
        fairness: jain(&run.rates),
        state_hash: state_hash(&run.world, &run.reports),
        shard_rates: run.rates,
        retrans_per_op: run.retrans_per_op,
        dup_hit_pct: run.dup_hit_pct,
        queue_p95_ms: run.queue_p95_ms,
        queued: run.queued,
    }
}

/// Builds the cell matrix. The LAN fleet sweep carries the scaling
/// story; a transport pair at the gate point compares fixed-RTO UDP and
/// TCP against the same fleet; the token-ring and 56 Kbps rows put the
/// shared-trunk control on record (where the wire, not the nfsd pool,
/// is the bottleneck, more servers buy nothing).
fn cells(quick: bool) -> Vec<Cell> {
    let [lan, ring, slow] = paper_topologies();
    let [fixed, dynamic, tcp] = paper_transports();
    let (lan_counts, lan_servers): (&[usize], &[usize]) = if quick {
        (&[GATE_CLIENTS, 512], &[1, 2, 4])
    } else {
        (&[GATE_CLIENTS, 512, 1024], &[1, 2, 4, 8])
    };
    let widest = *lan_servers.last().unwrap();
    // (topology, transport, N, M, per-client rate), in seed order.
    let mut rows = Vec::new();
    for &n in lan_counts {
        for &m in lan_servers {
            // The full fleet sweep runs at the gate client count; bigger
            // crowds keep the endpoints to bound the matrix cost.
            if n <= GATE_CLIENTS || m == 1 || m == widest {
                rows.push((lan, &dynamic, n, m, SHARD_RATE_LAN));
            }
        }
    }
    rows.push((lan, &fixed, GATE_CLIENTS, widest, SHARD_RATE_LAN));
    rows.push((lan, &tcp, GATE_CLIENTS, widest, SHARD_RATE_LAN));
    for m in [1, 4] {
        rows.push((ring, &dynamic, GATE_CLIENTS, m, SHARD_RATE_LAN));
    }
    for m in [1, 2] {
        rows.push((slow, &dynamic, 64, m, SHARD_RATE_SLOW));
    }
    rows.into_iter()
        .enumerate()
        .map(|(idx, (topo, transport, clients, servers, rate))| Cell {
            topo,
            transport: transport.clone(),
            clients,
            servers,
            nfsds: SHARD_NFSDS,
            rate_per_client: rate,
            idx,
        })
        .collect()
}

/// Runs the full N×M sweep under the parallel job runner: `repro
/// shard`.
pub fn shard(scale: &Scale) -> ShardReport {
    let rows = run_jobs(&cells(scale.is_quick()), scale.jobs, |cell| {
        run_cell(cell, shard_durations(scale, cell.clients), scale.nfiles)
    });
    ShardReport { rows }
}

impl ShardReport {
    /// Applies the shard gates to this (freshly measured) report:
    ///
    /// 1. every row routed work to *every* shard (a misrouting bug
    ///    degenerates the fleet to fewer servers silently);
    /// 2. the M=4 LAN fleet clears [`SHARD_SCALING_FLOOR`]× the M=1
    ///    aggregate throughput at the gate client count;
    /// 3. the gate fleet shards fairly (Jain ≥ 0.8 at M=4).
    pub fn check(&self) -> Result<String, String> {
        for r in &self.rows {
            if let Some(sj) = r.shard_rates.iter().position(|&x| x <= 0.0) {
                return Err(format!(
                    "{} {} N={} M={}: shard {sj} measured no ops — the \
                     fleet routing degenerated",
                    r.topo, r.transport, r.clients, r.servers
                ));
            }
        }
        let (m1, m4) = (gate_row(&self.rows, 1)?, gate_row(&self.rows, 4)?);
        let ratio = m4.agg_ops_per_sec / m1.agg_ops_per_sec.max(1e-9);
        if ratio < SHARD_SCALING_FLOOR {
            return Err(format!(
                "LAN fleet scaling at N={GATE_CLIENTS}: M=4 reached {:.1} op/s vs \
                 M=1 {:.1} ({ratio:.2}x < {SHARD_SCALING_FLOOR:.1}x floor)",
                m4.agg_ops_per_sec, m1.agg_ops_per_sec
            ));
        }
        if m4.fairness < 0.8 {
            return Err(format!(
                "gate fleet unfair: Jain {:.3} < 0.8 across {} shards",
                m4.fairness, m4.servers
            ));
        }
        Ok(format!(
            "LAN fleet scaling {ratio:.2}x at N={GATE_CLIENTS} (M=4 {:.1} vs M=1 \
             {:.1} op/s, fairness {:.3})",
            m4.agg_ops_per_sec, m1.agg_ops_per_sec, m4.fairness
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(topo: &str, transport: &str, n: usize, m: usize, agg: f64) -> ShardRow {
        let per = agg / m as f64;
        ShardRow {
            topo: topo.to_string(),
            transport: transport.to_string(),
            clients: n,
            servers: m,
            agg_ops_per_sec: agg,
            shard_rates: vec![per; m],
            fairness: 1.0,
            retrans_per_op: 0.1,
            dup_hit_pct: 1.0,
            queue_p95_ms: vec![5.0; m],
            queued: 10,
            state_hash: 0xABCD,
        }
    }

    fn fake_report() -> ShardReport {
        ShardReport {
            rows: vec![
                row("same LAN", GATE_TRANSPORT, GATE_CLIENTS, 1, 400.0),
                row("same LAN", GATE_TRANSPORT, GATE_CLIENTS, 4, 1200.0),
                row("56Kbps", GATE_TRANSPORT, 64, 2, 9.0),
            ],
        }
    }

    #[test]
    fn gate_and_check_hold_on_a_clean_report() {
        let msg = fake_report().check().expect("clean report passes");
        assert!(msg.contains("3.00x"), "got: {msg}");
    }

    #[test]
    fn check_fails_on_flat_scaling_and_idle_shards() {
        let mut r = fake_report();
        r.rows[1].agg_ops_per_sec = 500.0;
        let err = r.check().expect_err("1.25x must fail the 2x floor");
        assert!(err.contains("scaling"), "got: {err}");
        let mut r = fake_report();
        r.rows[1].shard_rates[2] = 0.0;
        let err = r.check().expect_err("an idle shard must fail");
        assert!(err.contains("shard 2"), "got: {err}");
    }

    /// The gates on the real quick sweep, every row of it: each fleet
    /// routes work to every shard, the LAN fleet at N=256 scales M=4 to
    /// at least twice M=1, and its four shards stay fair.
    #[test]
    fn the_quick_sweep_holds_the_shard_gates() {
        let report = shard(&Scale::quick());
        match report.check() {
            Ok(msg) => eprintln!("{msg}"),
            Err(e) => panic!("{e}\n{report}"),
        }
    }

    /// A same-LAN cell on the gate's transport.
    fn lan_cell(clients: usize, servers: usize, rate_per_client: f64, idx: usize) -> Cell {
        let [lan, ..] = paper_topologies();
        let [_, dynamic, _] = paper_transports();
        Cell {
            topo: lan,
            transport: dynamic,
            clients,
            servers,
            nfsds: SHARD_NFSDS,
            rate_per_client,
            idx,
        }
    }

    /// A miniature fleet cell: work reaches every shard, shards stay
    /// balanced, and a second run of the cell hashes the same.
    #[test]
    fn small_fleet_cell_routes_shards_deterministically() {
        let cell = lan_cell(8, 2, 8.0, 7_700);
        let window = (SimDuration::from_secs(8), SimDuration::from_secs(2));
        let one = run_cell(&cell, window, 20);
        assert_eq!(one.shard_rates.len(), 2);
        assert!(
            one.shard_rates.iter().all(|&r| r > 0.0),
            "both shards must serve: {one:?}"
        );
        assert!(one.fairness > 0.7, "balanced pinning: {one:?}");
        assert!(one.agg_ops_per_sec > 8.0, "{one:?}");
        let two = run_cell(&cell, window, 20);
        assert_eq!(
            one.state_hash, two.state_hash,
            "a fleet cell must be a pure function of its seeds"
        );
    }

    /// The tentpole claim in miniature: with per-server pools starved,
    /// a wider fleet multiplies aggregate throughput on the LAN.
    #[test]
    fn fleet_width_scales_lan_aggregate_throughput() {
        let mk = |servers: usize, idx: usize| lan_cell(48, servers, SHARD_RATE_LAN, idx);
        let window = (SimDuration::from_secs(8), SimDuration::from_secs(2));
        let m1 = run_cell(&mk(1, 7_800), window, 20);
        let m4 = run_cell(&mk(4, 7_801), window, 20);
        assert!(
            m4.agg_ops_per_sec > 1.5 * m1.agg_ops_per_sec,
            "4 servers must outrun 1 saturated pool: {:.1} vs {:.1}",
            m4.agg_ops_per_sec,
            m1.agg_ops_per_sec
        );
        // The starved single pool queues far more than the fleet.
        assert!(
            m1.queue_p95_worst_ms() > m4.queue_p95_worst_ms(),
            "M=1 must queue longer: {m1:?} vs {m4:?}"
        );
    }
}

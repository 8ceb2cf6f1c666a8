//! The traced run: spans, per-layer metrics and the attribution of host
//! time to layers.
//!
//! End-to-end metrics are measured with tracing off (`bench`). Here a few
//! untraced passes first give the Σ-min floor of this invocation; one
//! more pass runs with a span per syscall and every request captured;
//! then each layer's probe runs. A layer's share is its probe's time per
//! unit times the exact unit count of the real run; what the shares do
//! not cover is `trace.unattributed_share`. Spans stay in memory and are
//! written to `benchmark/out/trace_<workload>.json` at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use renofs::NfsProc;

use crate::cells::{cells, run_cell, world_config, CellOutcome, Workload};
use crate::cli::{budget, finish, Args};
use crate::host::{self, loadavg, now_ns};
use crate::json::Json;
use crate::measure::{measure, Env};
use crate::names::{unit_of, PER_LAYER};
use crate::probes;
use crate::stats::{quantile, sigma_min};
use crate::wrapper::{Mode, Request, SYSCALL_NAMES};

/// One span: `[start, end)` in host nanoseconds, the span that caused
/// it, and the cell it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: usize,
    /// Host nanoseconds ([`now_ns`]).
    pub start: u64,
    /// Host nanoseconds.
    pub end: u64,
    /// Id (index) of the parent span.
    pub parent: Option<usize>,
    /// The cell, for spans of the traced pass.
    pub cell: Option<usize>,
}

/// Collects spans in memory; ids are indices in recording order.
#[derive(Default)]
pub struct Recorder {
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn name_id(&mut self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_string());
                self.names.len() - 1
            })
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            cell: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = now_ns();
    }

    /// Records a span whose times were taken elsewhere.
    pub fn add(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        cell: usize,
    ) -> usize {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            cell: Some(cell),
        });
        self.spans.len() - 1
    }

    /// Self time per span name: duration minus the part of the interval
    /// the span's children cover (children may overlap one another — the
    /// procs of a cell block in syscalls at the same time).
    pub fn self_ns_by_name(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *by_name.entry(self.names[s.name].clone()).or_insert(0.0) +=
                (s.end - s.start - covered) as f64;
        }
        by_name
    }

    /// The trace file. Syscall spans are written for cell 0 only (the
    /// other cells repeat its shape); their totals cover every cell.
    fn to_json(&self, workload: Workload, seed: u64) -> Json {
        let is_syscall: Vec<bool> = self
            .names
            .iter()
            .map(|n| n.starts_with("syscall."))
            .collect();
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| is_syscall[s.name]) {
            let t = totals.entry(&self.names[s.name]).or_default();
            t.0 += 1;
            t.1 += s.end - s.start;
        }
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| !is_syscall[s.name] || s.cell == Some(0))
            .map(|(id, s)| {
                Json::Arr(vec![
                    Json::Num(id as f64),
                    Json::Num(s.name as f64),
                    Json::Num(s.start as f64),
                    Json::Num(s.end as f64),
                    opt(s.parent),
                    opt(s.cell),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::Num(seed as f64)),
            (
                "names",
                Json::Arr(self.names.iter().map(Json::str).collect()),
            ),
            (
                "span_columns",
                Json::Arr(
                    ["id", "name", "start_ns", "end_ns", "parent", "cell"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(spans)),
            (
                "syscall_totals",
                Json::obj(totals.into_iter().map(|(name, (count, ns))| {
                    (
                        name,
                        Json::obj([
                            ("count", Json::Num(count as f64)),
                            ("total_ns", Json::Num(ns as f64)),
                        ]),
                    )
                })),
            ),
            (
                "self_ns",
                Json::obj(
                    self.self_ns_by_name()
                        .into_iter()
                        .map(|(name, ns)| (name, Json::Num(ns))),
                ),
            ),
        ])
    }
}

/// One row of the attribution: a layer, its unit count in the real run,
/// and its probe's time per unit.
struct Share {
    layer: &'static str,
    unit: &'static str,
    count: f64,
    ns_per_unit: f64,
}

/// Whether one of the RPC's two datagrams carries an 8 KB payload.
fn big_rpc(proc: NfsProc) -> bool {
    matches!(proc, NfsProc::Read | NfsProc::Write)
}

/// The traced run of one workload; returns the exit code.
pub fn run(args: &Args, workload: Workload) -> i32 {
    if !args.smoke {
        host::settle_after_build();
    }
    let started = Instant::now();
    let pin = host::init();
    let load_before = loadavg();
    let specs = cells(workload, args.seed, args.smoke);
    // Untraced passes get 45 % of the budget; the traced pass and the
    // probes take the rest.
    let (deadline, _, max_passes) = budget(args, started, 0.45);
    let set = measure(&specs, deadline, 2, max_passes);
    let floor_ns = set.run_floor_ns();
    let rpcs = set.rpcs();

    // The traced pass.
    let mut rec = Recorder::default();
    let syscall_names = SYSCALL_NAMES.map(|n| format!("syscall.{n}"));
    let traced_mode = Mode {
        reference: false,
        trace: true,
    };
    let mut traced_run_ns = 0.0;
    let mut errors = set.errors.clone();
    let mut cell0 = None;
    for (i, spec) in specs.iter().enumerate() {
        let mut t = run_cell(*spec, traced_mode);
        traced_run_ns += t.run_ns();
        if t.outcome.digest != set.reference[i].digest {
            errors.push(format!("cell {i}: the traced pass computed another digest"));
        }
        let cell = rec.add("cell", t.build_start_ns, now_ns(), None, i);
        rec.add("build", t.build_start_ns, t.run_start_ns, Some(cell), i);
        let run = rec.add("run", t.run_start_ns, t.run_end_ns, Some(cell), i);
        for log in &t.outcome.logs {
            for s in &log.spans {
                rec.add(
                    &syscall_names[s.kind as usize],
                    s.start,
                    s.end,
                    Some(run),
                    i,
                );
            }
        }
        if i == 0 {
            cell0 = Some((std::mem::take(&mut t.outcome.logs), t.queue_ops));
        }
    }
    let (cell0_logs, queue_ops) = cell0.expect("at least one cell");
    let procs_per_client = cell0_logs.len() / world_config(specs[0]).clients;
    let requests: Vec<(usize, &Request)> = cell0_logs
        .iter()
        .enumerate()
        .flat_map(|(p, log)| log.requests.iter().map(move |r| (p / procs_per_client, r)))
        .collect();
    let cell0_rpcs = set.reference[0].delivered as f64;

    // The probes.
    let topology = world_config(specs[0]).topology;
    let tcp = workload == Workload::AndrewTcpRing;
    let handoff = probes::handoff(&mut rec, &pin);
    let build_us_per_client = probes::world_build_us_per_client(&mut rec, specs[0]);
    let queue_ns_per_op = probes::queue_ns_per_op(&mut rec, &queue_ops);
    let mbuf = probes::mbuf(&mut rec);
    let codec = probes::codec(&mut rec);
    let netsim = probes::netsim(&mut rec, topology);
    let transport = probes::transport(&mut rec);
    let memfs = probes::memfs(&mut rec);
    let server = probes::server(&mut rec, specs[0], &requests);
    let attrcache_hit_ratio = probes::attrcache_hit_ratio(&mut rec, &requests);
    let client = probes::client(&mut rec);
    let router_ns = probes::router_ns_per_route(&mut rec);
    let nhfsstone_ns = probes::nhfsstone_ns_per_op(&mut rec, specs[0]);
    let oracle = probes::oracle(&mut rec, args.seed);

    // Unit counts of the real run (one pass).
    let sum =
        |f: fn(&CellOutcome) -> u64| -> f64 { set.reference.iter().map(f).sum::<u64>() as f64 };
    let syscalls: f64 = set.syscalls.iter().sum::<u64>() as f64;
    let events = sum(|c| c.events);
    let attempted = sum(|c| c.attempted);
    let retransmits = sum(|c| c.retransmits);
    let served = sum(|c| c.served);
    let datagrams = sum(|c| c.net.datagrams_sent);
    let queue_ops_per_rpc = queue_ops.len() as f64 / cell0_rpcs;
    let big_share = requests.iter().filter(|(_, r)| big_rpc(r.proc)).count() as f64
        / requests.len().max(1) as f64;
    // Every RPC transmission is two datagrams; a READ or WRITE makes one
    // of them an 8 KB one. TCP segments never exceed the path MSS.
    let big_dgrams = if tcp {
        0.0
    } else {
        (attempted + retransmits) * big_share
    };
    let frame_hops =
        big_dgrams * netsim.hops_8k + (datagrams - big_dgrams).max(0.0) * netsim.hops_small;
    let mut shares = vec![
        Share {
            layer: "core.handoff",
            unit: "syscalls",
            count: syscalls,
            ns_per_unit: handoff.ns_per_syscall,
        },
        Share {
            layer: "sim.queue",
            unit: "queue ops",
            count: queue_ops_per_rpc * rpcs,
            ns_per_unit: queue_ns_per_op,
        },
        Share {
            layer: "netsim",
            unit: "frame hops",
            count: frame_hops,
            ns_per_unit: netsim.ns_per_frame,
        },
    ];
    if tcp {
        shares.push(Share {
            layer: "transport.tcp",
            unit: "segments",
            count: sum(|c| c.tcp_segments),
            ns_per_unit: transport.tcp_ns_per_segment,
        });
        // The loopback run is client, codec and server together.
        shares.push(Share {
            layer: "core.client+server",
            unit: "RPCs",
            count: attempted,
            ns_per_unit: client.ns_per_andrew_rpc_loopback,
        });
    } else {
        shares.push(Share {
            layer: "transport.udp",
            unit: "calls",
            count: attempted + retransmits,
            ns_per_unit: transport.udp_ns_per_call,
        });
        shares.push(Share {
            layer: "core.server",
            unit: "requests",
            count: served,
            ns_per_unit: server.replay_ns_per_request,
        });
        shares.push(Share {
            layer: "workload",
            unit: "ops",
            count: attempted,
            ns_per_unit: nhfsstone_ns,
        });
    }
    let attributed: f64 = shares.iter().map(|s| s.count * s.ns_per_unit).sum();
    let unattributed_share = 1.0 - attributed / floor_ns;

    let mut delays = Vec::new();
    for c in &set.reference {
        delays.extend_from_slice(&c.nfsd_delays_ms);
    }
    delays.sort_by(f64::total_cmp);
    let cpu_s = set.usage.user_s + set.usage.sys_s;
    let values: [f64; PER_LAYER.len()] = [
        handoff.ns_per_syscall,
        syscalls / rpcs,
        set.usage.ctx_switches as f64 / (rpcs * set.passes as f64),
        set.usage.sys_s / cpu_s,
        handoff.unpinned_slowdown,
        floor_ns / events,
        events / rpcs,
        build_us_per_client,
        queue_ns_per_op,
        queue_ops_per_rpc,
        set.reference
            .iter()
            .map(|c| c.peak_depth)
            .max()
            .unwrap_or(0) as f64,
        mbuf.ns_per_8k_build,
        mbuf.ns_per_8k_split_cat,
        mbuf.pool_hit_ratio,
        codec.ns_per_small_call,
        codec.ns_per_8k_reply,
        codec.ns_per_8k_mark,
        netsim.ns_per_frame,
        netsim.ns_per_8k_dgram,
        sum(|c| c.net.frags_sent) / rpcs,
        sum(|c| c.net.frags_dropped) / sum(|c| c.net.frags_sent),
        sum(|c| c.net.reasm_failures) / datagrams,
        transport.udp_ns_per_call,
        transport.tcp_ns_per_segment,
        retransmits / rpcs,
        memfs.ns_per_lookup,
        memfs.ns_per_8k_read,
        memfs.ns_per_8k_write,
        server.namecache_hit_ratio,
        server.bufcache_hit_ratio,
        attrcache_hit_ratio,
        server.ns_per_small_rpc,
        server.ns_per_8k_read,
        server.ns_per_8k_write,
        sum(|c| c.dup_hits) / served,
        if delays.is_empty() {
            0.0
        } else {
            quantile(&delays, 0.95)
        },
        sum(|c| c.nfsd_queued) / served,
        client.ns_per_andrew_rpc_loopback,
        client.rpcs_per_run,
        router_ns,
        nhfsstone_ns,
        oracle.ns_per_obs,
        oracle.peak_retained,
        sigma_min(&set.alloc_bytes) / rpcs,
        unattributed_share,
        traced_run_ns / floor_ns,
    ];
    let metrics: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| m.name).zip(values).collect();

    // The report.
    println!(
        "trace: workload={} seed={} cells={} untraced_passes={} wall={:.1}s",
        workload.name(),
        args.seed,
        specs.len(),
        set.passes,
        started.elapsed().as_secs_f64()
    );
    Env {
        pin,
        refs: set.refs,
        loadavg: (load_before, loadavg()),
    }
    .print();
    println!(
        "attribution of the run phase: {:.1} ms (untraced, sum of minima) for {rpcs} RPCs",
        floor_ns / 1e6
    );
    for s in &shares {
        println!(
            "  {:<20} {:>12.0} {:<10} x {:>9.1} ns = {:>8.1} ms = {:>5.1} %",
            s.layer,
            s.count,
            s.unit,
            s.ns_per_unit,
            s.count * s.ns_per_unit / 1e6,
            100.0 * s.count * s.ns_per_unit / floor_ns
        );
    }
    println!(
        "  {:<20} {:>48.1} ms = {:>5.1} %   (world dispatch, host models, the rest)",
        "unattributed",
        (floor_ns - attributed) / 1e6,
        100.0 * unattributed_share
    );
    #[cfg(feature = "sim-profile")]
    sim_profile_cross_check(&specs);
    for (name, value) in &metrics {
        println!("  {name:<40} {value:>16.4} {}", unit_of(name));
    }
    let path = format!("benchmark/out/trace_{}.json", workload.name());
    match write_trace(&path, &rec.to_json(workload, args.seed)) {
        Ok(()) => println!("trace: {} spans -> {path}", rec.spans.len()),
        Err(e) => errors.push(format!("{path}: {e}")),
    }
    finish(
        &errors,
        sum(|c| c.attempted) as u64,
        sum(|c| c.failed) as u64,
        &metrics,
    )
}

fn write_trace(path: &str, trace: &Json) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.to_line())
}

/// Optional cross-check (`--features sim-profile`, `trace` only): one
/// more pass with the simulator's own five-subsystem profiler on, its
/// times printed beside the outside probes' attribution.
#[cfg(feature = "sim-profile")]
fn sim_profile_cross_check(specs: &[crate::cells::CellSpec]) {
    use renofs_sim::profile;
    profile::reset();
    profile::set_enabled(true);
    for spec in specs {
        run_cell(*spec, Mode::default());
    }
    profile::set_enabled(false);
    print!("{}", profile::report());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut rec = Recorder::default();
        let run = rec.add("run", 0, 100, None, 0);
        // Two procs blocked at once, then one alone: 10..60 covered once.
        rec.add("syscall.sleep", 10, 50, Some(run), 0);
        rec.add("syscall.rpc", 30, 60, Some(run), 0);
        rec.add("syscall.now", 80, 90, Some(run), 0);
        let by_name = rec.self_ns_by_name();
        assert_eq!(by_name["run"], 100.0 - 50.0 - 10.0);
        assert_eq!(by_name["syscall.sleep"], 40.0);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut rec = Recorder::default();
        let outer = rec.enter("probe.x");
        let inner = rec.enter("probe.x.y");
        assert_eq!(rec.spans[inner].parent, Some(outer));
        rec.exit(inner);
        rec.exit(outer);
        assert!(rec.spans[outer].end >= rec.spans[inner].end);
        assert_eq!(rec.spans[outer].parent, None);
    }

    #[test]
    fn trace_file_keeps_syscall_spans_of_cell_zero_only() {
        let mut rec = Recorder::default();
        for cell in 0..2 {
            let run = rec.add("run", 0, 10, None, cell);
            rec.add("syscall.rpc", 1, 4, Some(run), cell);
        }
        let trace = rec.to_json(Workload::LookupLan, 7);
        assert_eq!(Json::parse(&trace.to_line()).unwrap(), trace);
        assert_eq!(trace.get("spans").unwrap().as_arr().unwrap().len(), 3);
        let totals = trace.get("syscall_totals").unwrap();
        let rpc = totals.get("syscall.rpc").unwrap();
        assert_eq!(rpc.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(rpc.get("total_ns").unwrap().as_f64(), Some(6.0));
    }
}

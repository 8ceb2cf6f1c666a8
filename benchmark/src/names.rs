//! The names the benchmark reports under: workloads, end-to-end metrics
//! and per-layer metrics, each with unit and direction. `BENCHMARK.json`
//! is printed from these tables (`bench --print-benchmark-json`) and a
//! unit test holds the committed file to them, so a name exists in one
//! place only.

use crate::cells::Workload;
use crate::json::Json;

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// Why each workload is there, one line each.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::LookupLan => {
            "smallest packets on one Ethernet: per-RPC fixed cost and the proc hand-off dominate, the data paths idle"
        }
        Workload::Read56k => {
            "8 KB READ replies over 56 Kbps with loss: fragments, reassembly, mbuf chains and the RTO/cwnd machinery do the work"
        }
        Workload::Write56k => {
            "the same path with the payload in the request and a synchronous server write: a gain for reads that costs writes shows"
        }
        Workload::Crowd1024x4 => {
            "1,024 clients over 4 servers in deep overload on the partitioned engine: retransmission waste, nfsd queues, set-up and memory at scale"
        }
        Workload::AndrewTcpRing => {
            "the paper's own mixed workload through ClientFs caches, TCP and record marking on the engine path that is never carved"
        }
    }
}

/// An end-to-end metric.
pub struct EndToEnd {
    /// Reported name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. `host_*`, `setup_s` and
/// `peak_rss_mb` are host quantities (what the simulator costs us, noisy);
/// `sim_*` are simulated quantities (what the modelled 1991 hardware would
/// do, exact for a seed).
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "host_us_per_rpc",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "host_allocs_per_rpc",
        unit: "count",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "sim_rpc_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.06,
    },
    EndToEnd {
        name: "sim_rtt_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "sim_rtt_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.12,
    },
    EndToEnd {
        name: "sim_xmit_per_rpc",
        unit: "count",
        better: "lower",
        bound: 0.04,
    },
    EndToEnd {
        name: "sim_elapsed_s",
        unit: "s",
        better: "lower",
        bound: 0.03,
    },
];

/// A per-layer metric.
pub struct PerLayer {
    /// Reported name; the part before the metric is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, in report order (`README.md` says which
/// end-to-end metric on which workload each should move).
pub const PER_LAYER: [PerLayer; 46] = [
    layer("core.handoff.ns_per_syscall", "ns", "lower"),
    layer("core.handoff.syscalls_per_rpc", "count", "lower"),
    layer("core.handoff.ctx_switches_per_rpc", "count", "lower"),
    layer("core.handoff.sys_share", "ratio", "lower"),
    layer("core.handoff.unpinned_slowdown", "ratio", "lower"),
    layer("core.world.ns_per_event", "ns", "lower"),
    layer("core.world.events_per_rpc", "count", "lower"),
    layer("core.world.build_us_per_client", "us", "lower"),
    layer("sim.queue.ns_per_op", "ns", "lower"),
    layer("sim.queue.ops_per_rpc", "count", "lower"),
    layer("sim.queue.peak_depth", "count", "lower"),
    layer("mbuf.chain.ns_per_8k_build", "ns", "lower"),
    layer("mbuf.chain.ns_per_8k_split_cat", "ns", "lower"),
    layer("mbuf.pool.hit_ratio", "ratio", "higher"),
    layer("xdr.ns_per_small_call", "ns", "lower"),
    layer("xdr.ns_per_8k_reply", "ns", "lower"),
    layer("sunrpc.record.ns_per_8k_mark", "ns", "lower"),
    layer("netsim.ns_per_frame", "ns", "lower"),
    layer("netsim.ns_per_8k_dgram", "ns", "lower"),
    layer("netsim.frags_per_rpc", "count", "lower"),
    layer("netsim.frag_drop_ratio", "ratio", "lower"),
    layer("netsim.reasm_fail_ratio", "ratio", "lower"),
    layer("transport.udp.ns_per_call", "ns", "lower"),
    layer("transport.tcp.ns_per_segment", "ns", "lower"),
    layer("transport.rexmit_per_rpc", "count", "lower"),
    layer("vfs.memfs.ns_per_lookup", "ns", "lower"),
    layer("vfs.memfs.ns_per_8k_read", "ns", "lower"),
    layer("vfs.memfs.ns_per_8k_write", "ns", "lower"),
    layer("vfs.namecache.hit_ratio", "ratio", "higher"),
    layer("vfs.bufcache.hit_ratio", "ratio", "higher"),
    layer("vfs.attrcache.hit_ratio", "ratio", "higher"),
    layer("core.server.ns_per_small_rpc", "ns", "lower"),
    layer("core.server.ns_per_8k_read", "ns", "lower"),
    layer("core.server.ns_per_8k_write", "ns", "lower"),
    layer("core.server.dup_hit_ratio", "ratio", "lower"),
    layer("core.nfsd.queue_p95_ms", "ms", "lower"),
    layer("core.nfsd.queued_ratio", "ratio", "lower"),
    layer("core.client.ns_per_andrew_rpc_loopback", "ns", "lower"),
    layer("core.client.rpcs_per_run", "count", "lower"),
    layer("core.router.ns_per_route", "ns", "lower"),
    layer("workload.nhfsstone.ns_per_op_loopback", "ns", "lower"),
    layer("oracle.stream.ns_per_obs", "ns", "lower"),
    layer("oracle.peak_retained", "count", "lower"),
    layer("alloc.bytes_per_rpc", "B", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is in neither metric table"))
}

/// The contract's name rule: starts with a letter or digit, at most 64
/// of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, as the tables define it.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "bench",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(why(*w)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in [
            "a",
            "9lives",
            "core.handoff.ns_per_syscall",
            "crowd_1024x4",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn limits_of_the_contract_hold() {
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= END_TO_END[1].bound,
                "setup_s has the largest bound"
            );
        }
        assert_eq!(END_TO_END[1].name, "setup_s");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    }

    /// Both result lines are keyed by these tables (a value array of
    /// another length than its table does not compile), so the names
    /// `bench` and `trace` print are the names of `BENCHMARK.json`.
    #[test]
    fn result_lines_print_exactly_the_names_of_benchmark_json() {
        let file = benchmark_json();
        for (key, table) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            ("per_layer", PER_LAYER.iter().map(|m| m.name).collect()),
        ] {
            let metrics: Vec<(&'static str, f64)> = table.iter().map(|n| (*n, 1.5)).collect();
            let line = Json::parse(&crate::cli::result_line(true, 1, 0, &metrics)).unwrap();
            let Some(Json::Obj(printed)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = file
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap())
                .collect();
            assert_eq!(printed, listed, "{key}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_what_the_tables_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }
}

//! Ablation studies of the design choices the paper calls out.

use std::fmt;

use renofs::client::{ClientConfig, ClientFs};
use renofs::Syscalls;
use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_sim::SimDuration;
use renofs_transport::{RtoPolicy, UdpRpcConfig};
use renofs_workload::createdelete::create_delete_nfs;
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

use super::{labelled, paper_topologies, run_proc};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// Generic ablation output: labeled rows of named measurements.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Title.
    pub title: String,
    /// Column headers after the row label.
    pub columns: Vec<String>,
    /// `(row label, values)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Ablation {
    /// Value for `(row, column)`.
    pub fn value(&self, row: &str, col: &str) -> f64 {
        let ci = self
            .columns
            .iter()
            .position(|c| c == col)
            .unwrap_or_else(|| panic!("no column {col:?}"));
        labelled(&self.rows, row, |(l, _)| l.as_str())[0].1[ci]
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut headers = vec!["config".to_string()];
        headers.extend(self.columns.clone());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, vs)| {
                std::iter::once(l.clone())
                    .chain(vs.iter().map(|v| format!("{v:.2}")))
                    .collect()
            })
            .collect();
        write!(f, "{}", table(&header_refs, &rows))
    }
}

/// One Nhfsstone run over a custom UDP transport on `topology`, off-peak:
/// `(rtt ms, achieved/s, retransmits, calls)`.
fn udp_run(
    topology: TopologyKind,
    udp: UdpRpcConfig,
    cfg: &NhfsstoneConfig,
    seed: u64,
) -> (f64, f64, u64, u64) {
    let mut world = World::new(WorldConfig {
        topology,
        background: Background::off_peak(),
        transport: TransportKind::UdpCustom(udp),
        seed,
        ..WorldConfig::baseline()
    });
    let report = nhfsstone::run(&mut world, cfg);
    let stats = world.udp_stats_to(0, 0).expect("udp transport");
    (
        report.rtt_ms.mean(),
        report.achieved_rate,
        stats.retransmits,
        stats.calls,
    )
}

/// The RTO ablation: A+2D vs A+4D, recalculated each tick vs frozen at
/// send time. The paper's fixes came from read retry rates 2–4x too
/// high with A+2D.
pub fn ablation_rto(scale: &Scale) -> Ablation {
    let configs = [
        ("A+2D, at send", 2.0, false),
        ("A+2D, each tick", 2.0, true),
        ("A+4D, at send", 4.0, false),
        ("A+4D, each tick (paper)", 4.0, true),
    ];
    let rows = run_jobs(&configs, scale.jobs, |&(label, big_mult, recalc)| {
        let udp = UdpRpcConfig {
            policy: RtoPolicy::Dynamic {
                big_mult,
                small_mult: 2.0,
                recalc_each_tick: recalc,
            },
            ..UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1))
        };
        let cfg = scale.nhfsstone(15.0, LoadMix::lookup_read());
        let (rtt, rate, retrans, calls) = udp_run(TopologyKind::TokenRing, udp, &cfg, 0xAB10);
        let retry_rate = retrans as f64 / calls.max(1) as f64;
        (label.to_string(), vec![rtt, rate, retry_rate * 100.0])
    });
    Ablation {
        title: "Ablation: RTO multiplier and recalculation (token-ring path, 50/50 mix)".into(),
        columns: vec!["rtt ms".into(), "achieved/s".into(), "retry %".into()],
        rows,
    }
}

/// The slow-start ablation: the paper removed slow start from the UDP
/// congestion window because it hurt performance.
pub fn ablation_slowstart(scale: &Scale) -> Ablation {
    let configs = [("no slow start (paper)", false), ("with slow start", true)];
    let rows = run_jobs(&configs, scale.jobs, |&(label, slow_start)| {
        let udp = UdpRpcConfig {
            slow_start,
            ..UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1))
        };
        let cfg = scale.nhfsstone(4.0, LoadMix::pure_lookup());
        let (rtt, rate, retrans, _) = udp_run(TopologyKind::SlowLink, udp, &cfg, 0xAB20);
        (label.to_string(), vec![rtt, rate, retrans as f64])
    });
    Ablation {
        title: "Ablation: slow start on the UDP congestion window (56Kbps path)".into(),
        columns: vec!["rtt ms".into(), "achieved/s".into(), "retransmits".into()],
        rows,
    }
}

/// Appendix caveat 1: long Nhfsstone names defeat a 31-character name
/// cache, biasing against servers that have one.
pub fn ablation_namelen(scale: &Scale) -> Ablation {
    let configs = [("short names (<=31)", false), ("long names (>31)", true)];
    let rows = run_jobs(&configs, scale.jobs, |&(label, long)| {
        let mut world = World::new(WorldConfig {
            seed: 0xAB30,
            ..WorldConfig::baseline()
        });
        let cfg = NhfsstoneConfig {
            long_names: long,
            ..scale.nhfsstone(25.0, LoadMix::pure_lookup())
        };
        let report = nhfsstone::run(&mut world, &cfg);
        let cpu_ms =
            world.server_host_of(0).cpu.busy_time().as_millis_f64() / report.ops.max(1) as f64;
        (label.to_string(), vec![report.rtt_ms.mean(), cpu_ms])
    });
    Ablation {
        title: "Ablation: Nhfsstone name length vs the server name cache".into(),
        columns: vec!["lookup rtt ms".into(), "server CPU ms/rpc".into()],
        rows,
    }
}

/// Appendix caveat 2: reads of empty (unpreloaded) files bias the
/// benchmark toward unrealistically fast reads.
pub fn ablation_preload(scale: &Scale) -> Ablation {
    let configs = [("empty files", 0u32), ("preloaded 16K", 16 * 1024)];
    let rows = run_jobs(&configs, scale.jobs, |&(label, preload)| {
        let mut world = World::new(WorldConfig {
            seed: 0xAB40,
            ..WorldConfig::baseline()
        });
        let cfg = NhfsstoneConfig {
            preload_bytes: preload,
            ..scale.nhfsstone(15.0, LoadMix::read_heavy())
        };
        let report = nhfsstone::run(&mut world, &cfg);
        (label.to_string(), vec![report.read_ms.mean()])
    });
    Ablation {
        title: "Ablation: subtree preloading (reads of empty vs full files)".into(),
        columns: vec!["read rtt ms".into()],
        rows,
    }
}

/// The read-size knob: smaller transfers as the "last ditch" remedy for
/// fragment loss on poor links.
pub fn ablation_rsize(scale: &Scale) -> Ablation {
    let sizes = [1024u32, 2048, 4096, 8192];
    let rows = run_jobs(&sizes, scale.jobs, |&rsize| {
        let mut world = World::new(WorldConfig {
            topology: TopologyKind::SlowLink,
            background: Background::off_peak(),
            seed: 0xAB50 + rsize as u64,
            ..WorldConfig::baseline()
        });
        let cfg = NhfsstoneConfig {
            read_size: rsize,
            ..scale.nhfsstone(1.0, LoadMix::read_heavy())
        };
        let report = nhfsstone::run(&mut world, &cfg);
        let net = world.net_stats();
        let loss = net.reasm_failures as f64 / net.datagrams_sent.max(1) as f64;
        let bytes_per_sec =
            report.read_ms.count() as f64 * rsize as f64 / cfg.duration.as_secs_f64();
        (
            format!("rsize={rsize}"),
            vec![report.read_ms.mean(), bytes_per_sec / 1024.0, loss * 100.0],
        )
    });
    Ablation {
        title: "Ablation: read transfer size on the 56Kbps path".into(),
        columns: vec![
            "read rtt ms".into(),
            "KB/s".into(),
            "datagram loss %".into(),
        ],
        rows,
    }
}

/// The future-work read-ahead knob: deeper read-ahead on sequential
/// reads (decoupling I/O, per the paper's Future Directions).
pub fn ablation_readahead(scale: &Scale) -> Ablation {
    let depths = [0usize, 1, 2, 4];
    let rows = run_jobs(&depths, scale.jobs, |&depth| {
        let mut world = World::new(WorldConfig {
            topology: TopologyKind::TokenRing,
            biods: 8,
            seed: 0xAB60 + depth as u64,
            ..WorldConfig::baseline()
        });
        // A 400K file to stream.
        let root_ino = world.server_of(0).fs().root();
        let data: Vec<u8> = (0..400 * 1024).map(|i| (i % 251) as u8).collect();
        let ino = world
            .server_mut()
            .fs_mut()
            .create(root_ino, "big.bin", 0o644, renofs_sim::SimTime::ZERO)
            .unwrap();
        world
            .server_mut()
            .fs_mut()
            .write(ino, 0, &data, renofs_sim::SimTime::ZERO)
            .unwrap();
        let root = world.root_handle();
        let elapsed = run_proc(&mut world, move |sys| {
            let cfg = ClientConfig {
                read_ahead: depth,
                bufcache_blocks: 16,
                ..ClientConfig::reno()
            };
            let mut fs = ClientFs::mount(sys, cfg, root, "client");
            let t0 = fs.sys().now();
            let fh = fs.lookup_path("/big.bin").unwrap();
            let mut off = 0u32;
            while off < 400 * 1024 {
                let chunk = fs.read(fh, off, 8192).unwrap();
                if chunk.is_empty() {
                    break;
                }
                off += chunk.len() as u32;
                // Simulated per-block processing lets read-ahead overlap.
                fs.sys().charge_cpu(SimDuration::from_millis(5));
            }
            fs.sys().now().since(t0)
        });
        (
            format!("read-ahead {depth}"),
            vec![elapsed.as_millis_f64() / 1000.0],
        )
    });
    Ablation {
        title: "Ablation: read-ahead depth streaming 400K over the token-ring path".into(),
        columns: vec!["elapsed s".into()],
        rows,
    }
}

/// The Future Directions "readdir_and_lookup_files" RPC: an ls -l style
/// scan of a directory tree with and without the extension.
pub fn ablation_readdirplus(scale: &Scale) -> Ablation {
    let configs = [("plain READDIR + LOOKUPs", false), ("READDIRLOOKUP", true)];
    let rows = run_jobs(&configs, scale.jobs, |&(label, enabled)| {
        let mut wcfg = WorldConfig::baseline();
        wcfg.server.readdir_lookup = enabled;
        wcfg.seed = 0xAB70 + enabled as u64;
        let mut world = World::new(wcfg);
        // A directory of 80 files to scan.
        let root_ino = world.server_of(0).fs().root();
        let dir = world
            .server_mut()
            .fs_mut()
            .mkdir(root_ino, "pub", 0o755, renofs_sim::SimTime::ZERO)
            .unwrap();
        for i in 0..80 {
            world
                .server_mut()
                .fs_mut()
                .create(
                    dir,
                    &format!("entry{i:03}"),
                    0o644,
                    renofs_sim::SimTime::ZERO,
                )
                .unwrap();
        }
        let root = world.root_handle();
        let (elapsed, counts) = run_proc(&mut world, move |sys| {
            let cfg = ClientConfig {
                use_readdir_lookup: enabled,
                ..ClientConfig::reno()
            };
            let mut fs = ClientFs::mount(sys, cfg, root, "client");
            let t0 = fs.sys().now();
            // ls -l: list, then stat every entry.
            let entries = fs.readdir("/pub").unwrap().to_vec();
            for e in &entries {
                let _ = fs.stat(&format!("/pub/{}", e.name)).unwrap();
            }
            (fs.sys().now().since(t0), fs.counts())
        });
        (
            label.to_string(),
            vec![
                elapsed.as_millis_f64(),
                counts.total() as f64,
                counts.count(renofs::NfsProc::Lookup) as f64,
            ],
        )
    });
    Ablation {
        title: "Ablation: the readdir_and_lookup_files extension (ls -l of 80 files)".into(),
        columns: vec!["elapsed ms".into(), "total RPCs".into(), "lookups".into()],
        rows,
    }
}

/// PR 8's headline table: the lease mount mode against the default and
/// noconsist mounts on the Create-Delete benchmark (100Kbyte files)
/// across all three topologies. The honest chase of the noconsist upper
/// bound — leases keep cache consistency, yet a created-then-deleted
/// file's data never crosses the wire, so the WRITE column collapses to
/// the noconsist floor while the default mount pays full freight.
pub fn ablation_lease(scale: &Scale) -> Ablation {
    let modes = [
        ("default", ClientConfig::reno()),
        ("lease", ClientConfig::reno_lease()),
        ("no consist", ClientConfig::reno_noconsist()),
    ];
    let topos = paper_topologies();
    let mut jobs = Vec::new();
    for (mi, mode) in modes.iter().enumerate() {
        for (ti, topo) in topos.iter().enumerate() {
            jobs.push((mi, ti, *mode, *topo));
        }
    }
    let iters = scale.cd_iters;
    let rows = run_jobs(
        &jobs,
        scale.jobs,
        move |&(mi, ti, (mode, cfg), (topo, kind))| {
            let mut wcfg = WorldConfig {
                topology: kind,
                seed: 0xAB80 + (mi * 3 + ti) as u64,
                ..WorldConfig::baseline()
            };
            wcfg.server.leases = cfg.lease;
            let mut world = World::new(wcfg);
            let root = world.root_handle();
            let (r, counts) = run_proc(&mut world, move |sys| {
                let mut fs = ClientFs::mount(sys, cfg, root, "client");
                let r = create_delete_nfs(&mut fs, 100 * 1024, iters).expect("cd runs");
                (r, fs.counts())
            });
            (
                format!("{mode}, {topo}"),
                vec![
                    r.per_iter.as_millis_f64(),
                    counts.count(renofs::NfsProc::Write) as f64,
                    counts.total() as f64,
                ],
            )
        },
    );
    Ablation {
        title: "Ablation: lease mount vs default and noconsist (Create-Delete, 100Kbytes)".into(),
        columns: vec![
            "cd ms/iter".into(),
            "WRITE rpcs".into(),
            "total rpcs".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no row labelled \"rsize=512\"")]
    fn value_names_a_missing_row() {
        let a = Ablation {
            title: String::new(),
            columns: vec!["KB/s".into()],
            rows: vec![("rsize=1024".into(), vec![1.0])],
        };
        a.value("rsize=512", "KB/s");
    }

    fn quick() -> Scale {
        let mut s = Scale::quick();
        s.duration = SimDuration::from_secs(90);
        s
    }

    #[test]
    fn rto_multiplier_reduces_retries() {
        let a = ablation_rto(&quick());
        let two = a.value("A+2D, each tick", "retry %");
        let four = a.value("A+4D, each tick (paper)", "retry %");
        assert!(
            four <= two,
            "A+4D retries ({four:.2}%) must not exceed A+2D ({two:.2}%)"
        );
    }

    #[test]
    fn preload_slows_reads() {
        let a = ablation_preload(&quick());
        let empty = a.value("empty files", "read rtt ms");
        let full = a.value("preloaded 16K", "read rtt ms");
        assert!(
            full > empty * 1.5,
            "preloaded reads ({full:.1}ms) must be much slower than empty ({empty:.1}ms)"
        );
    }

    #[test]
    fn readahead_speeds_streaming() {
        let a = ablation_readahead(&quick());
        let none = a.value("read-ahead 0", "elapsed s");
        let some = a.value("read-ahead 2", "elapsed s");
        assert!(
            some < none,
            "read-ahead ({some:.2}s) must beat none ({none:.2}s)"
        );
    }

    #[test]
    fn readdirplus_slashes_rpc_count() {
        let a = ablation_readdirplus(&quick());
        let plain = a.value("plain READDIR + LOOKUPs", "total RPCs");
        let plus = a.value("READDIRLOOKUP", "total RPCs");
        assert!(
            plus * 3.0 < plain,
            "one combined RPC should replace dozens: {plus} vs {plain}"
        );
        let t_plain = a.value("plain READDIR + LOOKUPs", "elapsed ms");
        let t_plus = a.value("READDIRLOOKUP", "elapsed ms");
        assert!(t_plus < t_plain, "and be faster: {t_plus} vs {t_plain}");
    }

    #[test]
    fn lease_mode_recovers_the_noconsist_write_savings() {
        let mut s = Scale::quick();
        s.cd_iters = 3;
        let a = ablation_lease(&s);
        assert_eq!(a.rows.len(), 9, "3 modes x 3 topologies");
        for topo in ["same LAN", "token ring", "56Kbps"] {
            let wd = a.value(&format!("default, {topo}"), "WRITE rpcs");
            let wl = a.value(&format!("lease, {topo}"), "WRITE rpcs");
            let wn = a.value(&format!("no consist, {topo}"), "WRITE rpcs");
            assert!(wd > 0.0, "{topo}: the default mount must issue WRITEs");
            assert!(
                wn < wd,
                "{topo}: noconsist ({wn}) must save WRITEs vs default ({wd})"
            );
            let recovery = (wd - wl) / (wd - wn);
            assert!(
                recovery >= 0.60,
                "{topo}: lease mode recovers {recovery:.2} of the noconsist \
                 write-RPC reduction (default {wd}, lease {wl}, noconsist {wn})"
            );
            let md = a.value(&format!("default, {topo}"), "cd ms/iter");
            let ml = a.value(&format!("lease, {topo}"), "cd ms/iter");
            assert!(
                ml < md,
                "{topo}: lease CD ({ml:.0}ms) must beat default ({md:.0}ms)"
            );
        }
    }

    #[test]
    fn smaller_rsize_lowers_loss() {
        let mut s = quick();
        s.duration = SimDuration::from_secs(300);
        let a = ablation_rsize(&s);
        let small = a.value("rsize=1024", "datagram loss %");
        let big = a.value("rsize=8192", "datagram loss %");
        assert!(
            small <= big,
            "1K reads ({small:.2}%) should lose fewer datagrams than 8K ({big:.2}%)"
        );
    }
}

//! An Nhfsstone-like NFS load generator (`[Legato89]`).
//!
//! Nhfsstone drives an NFS server with a synthetic RPC mix at a target
//! operation rate and reports per-operation response times. The paper
//! used two mixes — 100 % lookup and 50/50 lookup/read — chosen so the
//! test subtree stays immutable across runs (no reload between tests).
//!
//! Both appendix caveats are first-class options here:
//!
//! 1. `long_names` generates file names longer than 31 characters, which
//!    defeats the server's name cache exactly as the real benchmark did;
//! 2. `preload_bytes` fills the test files before measuring, so reads
//!    are not biased toward empty files.

use std::fmt::{self, Write};

use renofs::proto::{self, NfsProc};
use renofs::syscalls::Syscalls;
use renofs::{FileHandle, World};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::stats::Running;
use renofs_sim::{Rng, SimDuration, SimTime};
use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};

/// RPC mix weights.
#[derive(Clone, Copy, Debug)]
pub struct LoadMix {
    /// LOOKUP weight.
    pub lookup: u32,
    /// READ weight (8 KB reads).
    pub read: u32,
    /// GETATTR weight.
    pub getattr: u32,
    /// SETATTR weight (mode-only chmod: non-idempotent, so retransmitted
    /// instances exercise the server's duplicate-request cache, but the
    /// subtree's sizes and contents stay untouched).
    pub setattr: u32,
    /// WRITE weight (8 KB writes; avoid for immutable-subtree runs).
    pub write: u32,
}

impl LoadMix {
    /// The paper's 100 % lookup mix.
    pub fn pure_lookup() -> Self {
        LoadMix {
            lookup: 100,
            read: 0,
            getattr: 0,
            setattr: 0,
            write: 0,
        }
    }

    /// The paper's 50/50 lookup/read mix.
    pub fn lookup_read() -> Self {
        LoadMix {
            lookup: 50,
            read: 50,
            getattr: 0,
            setattr: 0,
            write: 0,
        }
    }

    /// A read-dominated mix (Graph 6's server-CPU measurement).
    pub fn read_heavy() -> Self {
        LoadMix {
            lookup: 10,
            read: 90,
            getattr: 0,
            setattr: 0,
            write: 0,
        }
    }

    /// The crowd mix: mostly metadata with some reads, plus a slice of
    /// non-idempotent SETATTRs so saturation-driven retransmission puts
    /// real pressure on the duplicate-request cache.
    pub fn crowd() -> Self {
        LoadMix {
            lookup: 40,
            read: 25,
            getattr: 25,
            setattr: 10,
            write: 0,
        }
    }

    fn total(&self) -> u32 {
        self.lookup + self.read + self.getattr + self.setattr + self.write
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct NhfsstoneConfig {
    /// Target aggregate operation rate (ops/second).
    pub rate_per_sec: f64,
    /// Concurrent generator processes.
    pub procs: usize,
    /// The RPC mix.
    pub mix: LoadMix,
    /// Measured interval (after warm-up).
    pub duration: SimDuration,
    /// Warm-up interval (ops issued but not recorded).
    pub warmup: SimDuration,
    /// Number of files in the test subtree.
    pub nfiles: usize,
    /// Bytes preloaded into each file (appendix caveat 2).
    pub preload_bytes: u32,
    /// Generate >31-character names (appendix caveat 1).
    pub long_names: bool,
    /// Bytes per READ rpc (the paper's read/write size knob; 8192
    /// default, smaller as the "last ditch" fragmentation remedy).
    pub read_size: u32,
    /// Random seed.
    pub seed: u64,
}

impl NhfsstoneConfig {
    /// A paper-style run: given rate and mix, 4 processes, preloaded
    /// 16 KB files, long names (as the real Nhfsstone used).
    pub fn paper(rate_per_sec: f64, mix: LoadMix) -> Self {
        NhfsstoneConfig {
            rate_per_sec,
            procs: 4,
            mix,
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(10),
            nfiles: 100,
            preload_bytes: 16 * 1024,
            long_names: true,
            read_size: 8192,
            seed: 7,
        }
    }
}

/// One measured operation.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Procedure issued.
    pub proc: NfsProc,
    /// Completion time.
    pub at: SimTime,
    /// Response time.
    pub rtt: SimDuration,
}

/// Aggregate results.
#[derive(Clone, Debug, Default)]
pub struct NhfsstoneReport {
    /// Operations measured (after warm-up).
    pub ops: u64,
    /// Achieved rate over the measured window (ops/sec).
    pub achieved_rate: f64,
    /// Response time over all ops, milliseconds.
    pub rtt_ms: Running,
    /// Response time of lookups, milliseconds.
    pub lookup_ms: Running,
    /// Response time of reads, milliseconds.
    pub read_ms: Running,
    /// Raw samples (for traces like Graph 7).
    pub samples: Vec<OpSample>,
}

/// The file name for index `i` (the long variant defeats 31-char name
/// caches, like the real benchmark's generated names).
pub fn file_name(i: usize, long: bool) -> String {
    NameBuf::file(i, long).as_str().to_owned()
}

/// A file name on the stack: what a generator proc looks up, once per
/// LOOKUP, without a table of names per proc or a `String` per call.
struct NameBuf {
    /// Room for the long prefix (42 bytes) and every digit of a `usize`.
    bytes: [u8; 64],
    len: usize,
}

impl NameBuf {
    /// Renders [`file_name`]`(i, long)`.
    fn file(i: usize, long: bool) -> Self {
        let mut name = NameBuf {
            bytes: [0; 64],
            len: 0,
        };
        let fits = if long {
            write!(name, "nhfsstone_test_file_with_a_very_long_name_{i:06}")
        } else {
            write!(name, "nf{i:04}")
        };
        fits.expect("a file name fits its buffer");
        name
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("written from `&str`s")
    }
}

impl Write for NameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let room = self.bytes[self.len..]
            .get_mut(..s.len())
            .ok_or(fmt::Error)?;
        room.copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }
}

/// Creates the test subtree directly in the server filesystem (out of
/// band, as test setup) and returns `(dir_handle, file_handles)`.
pub fn preload_subtree(world: &mut World, cfg: &NhfsstoneConfig) -> (FileHandle, Vec<FileHandle>) {
    preload_subtree_on(world, 0, cfg)
}

/// [`preload_subtree`] on one shard of a multi-server world.
pub fn preload_subtree_on(
    world: &mut World,
    sj: usize,
    cfg: &NhfsstoneConfig,
) -> (FileHandle, Vec<FileHandle>) {
    let root = world.server_of(sj).fs().root();
    let t0 = SimTime::ZERO;
    let dir = world
        .server_of_mut(sj)
        .fs_mut()
        .mkdir(root, "nhfsstone", 0o755, t0)
        .expect("fresh tree");
    let mut handles = Vec::with_capacity(cfg.nfiles);
    let data: Vec<u8> = (0..cfg.preload_bytes).map(|i| (i % 251) as u8).collect();
    for i in 0..cfg.nfiles {
        let name = file_name(i, cfg.long_names);
        let ino = world
            .server_of_mut(sj)
            .fs_mut()
            .create(dir, &name, 0o644, t0)
            .expect("create test file");
        if cfg.preload_bytes > 0 {
            world
                .server_of_mut(sj)
                .fs_mut()
                .write(ino, 0, &data, t0)
                .expect("preload");
        }
        handles.push(world.server_of_mut(sj).handle_for(ino).expect("handle"));
    }
    let dir_fh = world.server_of_mut(sj).handle_for(dir).expect("dir handle");
    (dir_fh, handles)
}

fn build_call(
    xid: u32,
    proc: NfsProc,
    args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut msg = MbufChain::with_leading_space(64);
    CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: proc.to_wire(),
        auth: AuthUnix::root("loadgen"),
    }
    .encode(&mut msg, &mut meter);
    args(&mut msg, &mut meter);
    msg
}

/// One generator process: issues paced RPCs until `end`, recording
/// samples taken after `measure_from`. Returns the samples.
#[allow(clippy::too_many_arguments)]
pub fn generator_proc<S: Syscalls>(
    sys: &mut S,
    proc_index: usize,
    cfg: &NhfsstoneConfig,
    dir: FileHandle,
    files: &[FileHandle],
    measure_from: SimTime,
    end: SimTime,
    write_scratch: Option<FileHandle>,
) -> Vec<OpSample> {
    let mut rng = Rng::new(cfg.seed ^ (proc_index as u64).wrapping_mul(0x9E37_79B9));
    let mut xid = 0x0100_0000u32 * (proc_index as u32 + 1);
    let mut samples = Vec::new();
    let per_proc_interval = cfg.procs as f64 / cfg.rate_per_sec;
    let total_weight = cfg.mix.total().max(1);
    // Only a mix that writes pays for the WRITE payload.
    let payload: Vec<u8> = if cfg.mix.write > 0 {
        vec![0xA5; 8192]
    } else {
        Vec::new()
    };
    loop {
        let gap = rng.exp(per_proc_interval);
        sys.sleep(SimDuration::from_secs_f64(gap));
        if sys.now() >= end {
            break;
        }
        let pick = rng.gen_range(0, total_weight as u64) as u32;
        let file_idx = rng.index(files.len());
        xid = xid.wrapping_add(1);
        let start = sys.now();
        let (proc, msg) = if pick < cfg.mix.lookup {
            let name = NameBuf::file(file_idx, cfg.long_names);
            (
                NfsProc::Lookup,
                build_call(xid, NfsProc::Lookup, |c, m| {
                    proto::build::dirop_args(c, m, &dir, name.as_str())
                }),
            )
        } else if pick < cfg.mix.lookup + cfg.mix.read {
            let fh = files[file_idx];
            let rsize = cfg.read_size.max(512);
            let max_blk = (cfg.preload_bytes / rsize).max(1) as u64;
            let off = rng.gen_range(0, max_blk) as u32 * rsize;
            (
                NfsProc::Read,
                build_call(xid, NfsProc::Read, |c, m| {
                    proto::build::read_args(c, m, &fh, off, rsize)
                }),
            )
        } else if pick < cfg.mix.lookup + cfg.mix.read + cfg.mix.getattr {
            let fh = files[file_idx];
            (
                NfsProc::Getattr,
                build_call(xid, NfsProc::Getattr, |c, m| {
                    proto::build::handle_args(c, m, &fh)
                }),
            )
        } else if pick < cfg.mix.lookup + cfg.mix.read + cfg.mix.getattr + cfg.mix.setattr {
            // Mode-only chmod: a non-idempotent RPC that leaves sizes
            // and data alone, so the measured subtree stays reusable.
            let fh = files[file_idx];
            let sattr = proto::Sattr {
                mode: Some(0o644),
                ..proto::Sattr::default()
            };
            (
                NfsProc::Setattr,
                build_call(xid, NfsProc::Setattr, |c, m| {
                    proto::build::setattr_args(c, m, &fh, &sattr)
                }),
            )
        } else {
            // Writes go to a scratch file so the measured subtree stays
            // immutable.
            let fh = write_scratch.unwrap_or(files[file_idx]);
            let mut meter = CopyMeter::new();
            let data = MbufChain::from_slice(&payload, &mut meter);
            (
                NfsProc::Write,
                build_call(xid, NfsProc::Write, |c, m| {
                    proto::build::write_args(c, m, &fh, 0, data)
                }),
            )
        };
        let _ = sys.rpc(proc, msg);
        let done = sys.now();
        if done >= measure_from && done < end {
            samples.push(OpSample {
                proc,
                at: done,
                rtt: done.since(start),
            });
        }
    }
    samples
}

/// Merges per-process samples into a report.
pub fn summarize(mut samples: Vec<OpSample>, measured: SimDuration) -> NhfsstoneReport {
    samples.sort_by_key(|s| s.at);
    let mut report = NhfsstoneReport {
        ops: samples.len() as u64,
        achieved_rate: samples.len() as f64 / measured.as_secs_f64().max(1e-9),
        ..Default::default()
    };
    for s in &samples {
        report.rtt_ms.add(s.rtt.as_millis_f64());
        match s.proc {
            NfsProc::Lookup => report.lookup_ms.add(s.rtt.as_millis_f64()),
            NfsProc::Read => report.read_ms.add(s.rtt.as_millis_f64()),
            _ => {}
        }
    }
    report.samples = samples;
    report
}

/// Runs a complete Nhfsstone measurement against a freshly preloaded
/// world, returning the report.
pub fn run(world: &mut World, cfg: &NhfsstoneConfig) -> NhfsstoneReport {
    let (dir, files) = preload_subtree(world, cfg);
    let measure_from = world.now() + cfg.warmup;
    let end = measure_from + cfg.duration;
    let (tx, rx) = std::sync::mpsc::channel();
    for p in 0..cfg.procs {
        let cfg = cfg.clone();
        let files = files.clone();
        let tx = tx.clone();
        world.spawn(move |sys| {
            let samples = generator_proc(sys, p, &cfg, dir, &files, measure_from, end, None);
            let _ = tx.send(samples);
        });
    }
    drop(tx);
    world.run();
    let mut all = Vec::new();
    while let Ok(mut s) = rx.recv() {
        all.append(&mut s);
    }
    summarize(all, cfg.duration)
}

/// Stable per-client tweak for the generator RNG streams: clients run
/// decorrelated op sequences, while client 0 keeps the unsalted stream.
fn crowd_salt(client: usize) -> u64 {
    (client as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Runs the load generator from **every client machine of the world** at
/// once — `cfg.procs` generator processes per client, each offering
/// `cfg.rate_per_sec / procs` ops/sec, so `rate_per_sec` is the offered
/// load *per client* and the aggregate offered load is `clients × rate`.
///
/// Returns one report per client, in client order. Generator RNG streams
/// are salted per client (so clients interleave realistically), but xid
/// bases are deliberately **shared** across clients — exactly as real
/// machines draw xids from their own counters — which makes cross-client
/// xid collisions routine and keeps the server's per-client duplicate
/// cache keying honest under load.
pub fn run_crowd(world: &mut World, cfg: &NhfsstoneConfig) -> Vec<NhfsstoneReport> {
    let (dir, files) = preload_subtree(world, cfg);
    let clients = world.client_count();
    let measure_from = world.now() + cfg.warmup;
    let end = measure_from + cfg.duration;
    let (tx, rx) = std::sync::mpsc::channel();
    for ci in 0..clients {
        for p in 0..cfg.procs {
            let mut cfg = cfg.clone();
            cfg.seed ^= crowd_salt(ci);
            let files = files.clone();
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let samples = generator_proc(sys, p, &cfg, dir, &files, measure_from, end, None);
                let _ = tx.send((ci, samples));
            });
        }
    }
    drop(tx);
    world.run();
    let mut per_client: Vec<Vec<OpSample>> = vec![Vec::new(); clients];
    while let Ok((ci, mut s)) = rx.recv() {
        per_client[ci].append(&mut s);
    }
    per_client
        .into_iter()
        .map(|samples| summarize(samples, cfg.duration))
        .collect()
}

/// [`run_crowd`] against a sharded fleet: every server exports its own
/// preloaded subtree, and generator process `p` of client `ci` pins
/// itself to shard `(ci + p) % servers` (via
/// [`renofs::PinTo`]), so load spreads evenly over the fleet and a
/// client with several processes talks to several servers at once over
/// its per-server transports and XID streams.
///
/// Returns one report per **shard**, in server order, aggregating the
/// samples of every process homed on it — the per-shard achieved rates
/// an N×M sweep compares for fairness and aggregate scaling.
pub fn run_crowd_sharded(world: &mut World, cfg: &NhfsstoneConfig) -> Vec<NhfsstoneReport> {
    let servers = world.server_count();
    let trees: Vec<(FileHandle, Vec<FileHandle>)> = (0..servers)
        .map(|sj| preload_subtree_on(world, sj, cfg))
        .collect();
    let clients = world.client_count();
    let measure_from = world.now() + cfg.warmup;
    let end = measure_from + cfg.duration;
    let (tx, rx) = std::sync::mpsc::channel();
    for ci in 0..clients {
        for p in 0..cfg.procs {
            let sj = (ci + p) % servers;
            let (dir, files) = trees[sj].clone();
            let mut cfg = cfg.clone();
            cfg.seed ^= crowd_salt(ci);
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let mut pinned = renofs::PinTo::new(sys, sj);
                let samples =
                    generator_proc(&mut pinned, p, &cfg, dir, &files, measure_from, end, None);
                let _ = tx.send((sj, samples));
            });
        }
    }
    drop(tx);
    world.run();
    let mut per_shard: Vec<Vec<OpSample>> = vec![Vec::new(); servers];
    while let Ok((sj, mut s)) = rx.recv() {
        per_shard[sj].append(&mut s);
    }
    per_shard
        .into_iter()
        .map(|samples| summarize(samples, cfg.duration))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use renofs::WorldConfig;

    fn quick_cfg(mix: LoadMix, rate: f64) -> NhfsstoneConfig {
        NhfsstoneConfig {
            rate_per_sec: rate,
            procs: 2,
            mix,
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(2),
            nfiles: 20,
            preload_bytes: 16 * 1024,
            long_names: true,
            read_size: 8192,
            seed: 11,
        }
    }

    #[test]
    fn stack_names_are_the_preload_names() {
        for i in [0, 7, 99, 100_000, 1_234_567, usize::MAX] {
            let long = format!("nhfsstone_test_file_with_a_very_long_name_{i:06}");
            let short = format!("nf{i:04}");
            for (long_names, expect) in [(true, long), (false, short)] {
                assert_eq!(file_name(i, long_names), expect);
                assert_eq!(NameBuf::file(i, long_names).as_str(), expect);
            }
        }
    }

    #[test]
    fn lookup_load_generates_and_measures() {
        let mut world = World::new(WorldConfig::baseline());
        let report = run(&mut world, &quick_cfg(LoadMix::pure_lookup(), 20.0));
        assert!(
            report.ops > 200,
            "expected ~400 measured ops, got {}",
            report.ops
        );
        assert!(
            (report.achieved_rate - 20.0).abs() < 5.0,
            "rate {}",
            report.achieved_rate
        );
        assert!(report.rtt_ms.mean() > 0.5, "lookups take a few ms");
        assert!(report.rtt_ms.mean() < 100.0, "LAN lookups are fast");
        assert_eq!(report.read_ms.count(), 0);
        // Every measured op was a lookup served by the server.
        assert!(world.server().stats().count(NfsProc::Lookup) >= report.ops);
    }

    #[test]
    fn mixed_load_has_slower_reads_than_lookups() {
        let mut world = World::new(WorldConfig::baseline());
        let report = run(&mut world, &quick_cfg(LoadMix::lookup_read(), 16.0));
        assert!(report.lookup_ms.count() > 20);
        assert!(report.read_ms.count() > 20);
        assert!(
            report.read_ms.mean() > report.lookup_ms.mean(),
            "8K reads ({:.2}ms) must exceed lookups ({:.2}ms)",
            report.read_ms.mean(),
            report.lookup_ms.mean()
        );
    }

    #[test]
    fn long_names_defeat_server_name_cache() {
        let run_with = |long: bool| {
            let mut world = World::new(WorldConfig::baseline());
            let mut cfg = quick_cfg(LoadMix::pure_lookup(), 20.0);
            cfg.long_names = long;
            let _ = run(&mut world, &cfg);
            let stats = world.server().stats().clone();
            let nc = world.server().config().name_cache;
            let _ = nc;
            stats
        };
        // With long names the server name cache cannot help, so the
        // lookup path must do directory scans every time — visible as
        // higher CPU; here we simply check both runs completed.
        let long = run_with(true);
        let short = run_with(false);
        assert!(long.count(NfsProc::Lookup) > 100);
        assert!(short.count(NfsProc::Lookup) > 100);
    }

    #[test]
    fn crowd_run_measures_every_client() {
        let mut wcfg = WorldConfig::baseline();
        wcfg.clients = 4;
        wcfg.server.dup_cache = true;
        let mut world = World::new(wcfg);
        let cfg = quick_cfg(LoadMix::crowd(), 8.0);
        let reports = run_crowd(&mut world, &cfg);
        assert_eq!(reports.len(), 4);
        for (ci, r) in reports.iter().enumerate() {
            assert!(r.ops > 40, "client {ci} measured only {} ops", r.ops);
            assert!(
                (r.achieved_rate - 8.0).abs() < 4.0,
                "client {ci} rate {}",
                r.achieved_rate
            );
        }
        // The mix's SETATTRs hit the server as non-idempotent ops.
        assert!(world.server().stats().count(NfsProc::Setattr) > 20);
        // Clients are decorrelated: their op counts are not all equal.
        let rates: Vec<u64> = reports.iter().map(|r| r.ops).collect();
        assert!(
            rates.iter().any(|&r| r != rates[0]),
            "salted RNG streams should desynchronize clients: {rates:?}"
        );
    }

    #[test]
    fn sharded_crowd_run_spreads_over_every_server() {
        let mut wcfg = WorldConfig::baseline();
        wcfg.clients = 4;
        wcfg.servers = 2;
        wcfg.server.dup_cache = true;
        let mut world = World::new(wcfg);
        let cfg = quick_cfg(LoadMix::crowd(), 8.0);
        let reports = run_crowd_sharded(&mut world, &cfg);
        assert_eq!(reports.len(), 2, "one report per shard");
        for (sj, r) in reports.iter().enumerate() {
            assert!(r.ops > 40, "shard {sj} measured only {} ops", r.ops);
            assert!(
                world.server_of(sj).stats().total() >= r.ops,
                "shard {sj} must have served its own measured ops"
            );
        }
        // With 4 clients x 2 procs pinned to (ci + p) % 2, the shards
        // split the offered load roughly in half.
        let (a, b) = (reports[0].ops as f64, reports[1].ops as f64);
        assert!(
            (a - b).abs() / (a + b) < 0.25,
            "shards out of balance: {a} vs {b}"
        );
    }

    #[test]
    fn preloaded_files_yield_full_reads() {
        let mut world = World::new(WorldConfig::baseline());
        let cfg = quick_cfg(
            LoadMix {
                lookup: 10,
                read: 90,
                getattr: 0,
                setattr: 0,
                write: 0,
            },
            10.0,
        );
        let report = run(&mut world, &cfg);
        // 8K reads of preloaded data move real bytes; RTT reflects 6
        // fragments of transfer, so well above lookup-scale latencies.
        assert!(
            report.read_ms.mean() > 5.0,
            "read mean {}",
            report.read_ms.mean()
        );
    }
}

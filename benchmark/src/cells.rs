//! The five workloads, each a list of independent *cells* (one world
//! each) generated from the seed.
//!
//! A cell has two timed phases — `build` (`World::new`, preload, spawn
//! and mount: everything up to the first simulated instant) and `run`
//! (`World::run`) — and an untimed `finish` that reads the world's
//! counters, checks the outputs and folds everything the simulation
//! computed into a digest. The program under test sees only the
//! generated configurations; the seed never reaches it.

use std::sync::mpsc::{channel, Receiver};

use renofs::client::ClientFs;
use renofs::{
    ClientPreset, FileHandle, NfsProc, PinTo, TopologyKind, TransportKind, World, WorldConfig,
    WorldSys,
};
use renofs_netsim::topology::presets::Background;
use renofs_netsim::NetStats;
use renofs_oracle::fnv1a;
use renofs_sim::queue::QueueOp;
use renofs_sim::{Rng, SimDuration, SimTime};
use renofs_vfs::{InodeId, MemFs};
use renofs_workload::andrew::{preload_andrew_source, run_andrew, AndrewReport, AndrewSpec};
use renofs_workload::nhfsstone::{generator_proc, preload_subtree_on, LoadMix, NhfsstoneConfig};
use renofs_workload::OpSample;

use crate::host::{alloc_counts, now_ns, Rusage};
use crate::wrapper::{Counted, Mode, ProcLog, ReadPattern};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100 % LOOKUP on one Ethernet: per-RPC fixed cost dominates.
    LookupLan,
    /// 8 KB READs across the 56 Kbps path: fragments, loss, RTO/cwnd.
    Read56k,
    /// 8 KB WRITEs across the same path: the payload rides the request.
    Write56k,
    /// 1,024 clients over 4 servers in deep overload, partitioned engine.
    Crowd1024x4,
    /// The Modified Andrew Benchmark over TCP across the token ring.
    AndrewTcpRing,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::LookupLan,
        Workload::Read56k,
        Workload::Write56k,
        Workload::Crowd1024x4,
        Workload::AndrewTcpRing,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupLan => "lookup_lan",
            Workload::Read56k => "read_56k",
            Workload::Write56k => "write_56k",
            Workload::Crowd1024x4 => "crowd_1024x4",
            Workload::AndrewTcpRing => "andrew_tcp_ring",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cells per pass: enough short cells that a pass costs about 1.8 s
    /// of host time at the floor, so ten repeats fit in a 20 s run.
    fn cell_count(self) -> usize {
        match self {
            Workload::LookupLan => 16,
            Workload::Read56k | Workload::Write56k => 24,
            Workload::Crowd1024x4 => 4,
            Workload::AndrewTcpRing => 24,
        }
    }
}

/// One cell: which workload, which position in the pass, and the seed
/// everything random in it derives from.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// The workload.
    pub workload: Workload,
    /// Position in the pass.
    pub index: usize,
    /// Derived from `(--seed, workload, index)`.
    pub seed: u64,
}

/// Mixes `(seed, workload, cell)` into one well-spread word (the
/// splitmix64 finaliser).
fn derive_seed(seed: u64, workload: u64, cell: u64) -> u64 {
    let mut z = seed
        ^ (workload + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (cell + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cells of one pass. `smoke` keeps only the first two (one 56k
/// cell alone has fewer than the 1,000 latency samples a p99 needs).
pub fn cells(workload: Workload, seed: u64, smoke: bool) -> Vec<CellSpec> {
    let n = if smoke { 2 } else { workload.cell_count() };
    (0..n)
        .map(|index| CellSpec {
            workload,
            index,
            seed: derive_seed(seed, workload as u64, index as u64),
        })
        .collect()
}

/// Byte `i` of every file `preload_subtree_on` fills.
fn nhfsstone_pattern(i: u32) -> u8 {
    (i % 251) as u8
}

/// Byte `i` of every file `preload_andrew_source` fills.
fn andrew_pattern(i: usize) -> u8 {
    (i * 31 % 251) as u8
}

/// The standard Andrew tree with every file moved to a directory drawn
/// from the cell's seed and the file order shuffled. Names, sizes and
/// the 17 C sources stay, so the bytes copied and the compile CPU — which
/// dominate the simulated time — are the same for every seed, and what
/// varies is what the file system sees: which directory each lookup,
/// create and readdir lands in, and in what order.
fn andrew_spec(seed: u64) -> AndrewSpec {
    let mut spec = AndrewSpec::standard();
    let mut rng = Rng::new(seed);
    for (path, _, _) in &mut spec.files {
        let name = path.rsplit('/').next().expect("a file name");
        *path = format!("{}/{name}", spec.dirs[rng.index(spec.dirs.len())]);
    }
    rng.shuffle(&mut spec.files);
    spec
}

/// What one proc sends back when it finishes.
struct ProcResult {
    index: usize,
    samples: Vec<OpSample>,
    andrew: Option<Result<AndrewReport, String>>,
    log: ProcLog,
}

/// What the procs of a cell will do, fixed when the world is preloaded.
enum Plan {
    Nhfsstone {
        cfg: NhfsstoneConfig,
        /// Per server: the test directory and its files.
        trees: Vec<(FileHandle, Vec<FileHandle>)>,
        /// Per proc: the WRITE target (empty unless the mix writes).
        scratch: Vec<FileHandle>,
    },
    Andrew {
        tree: AndrewSpec,
    },
}

/// A world built and preloaded, with no proc spawned yet.
pub struct Prepared {
    /// The cell this is.
    pub spec: CellSpec,
    /// The world; its servers hold exactly what a run starts from.
    pub world: World,
    plan: Plan,
}

/// A built cell, ready to run.
pub struct Built {
    prepared: Prepared,
    results: Receiver<ProcResult>,
    procs: usize,
    /// Simulated time when the procs start (after any TCP handshake).
    start: SimTime,
}

/// The generator configuration of a cell, if it is an Nhfsstone cell.
pub fn nhfsstone_config(spec: CellSpec) -> Option<NhfsstoneConfig> {
    // Offered op/s per client, mix, and simulated seconds each proc
    // keeps issuing.
    let (rate, mix, secs) = match spec.workload {
        Workload::LookupLan => (80.0, LoadMix::pure_lookup(), 60),
        Workload::Read56k => (1.0, LoadMix::read_heavy(), 1200),
        Workload::Write56k => (
            1.0,
            LoadMix {
                lookup: 10,
                read: 0,
                getattr: 0,
                setattr: 0,
                write: 90,
            },
            1200,
        ),
        // The metadata mix of the repo's shard experiment.
        Workload::Crowd1024x4 => (
            12.0,
            LoadMix {
                lookup: 45,
                read: 0,
                getattr: 40,
                setattr: 15,
                write: 0,
            },
            12,
        ),
        Workload::AndrewTcpRing => return None,
    };
    let mut n = NhfsstoneConfig::paper(rate, mix);
    n.seed = spec.seed ^ 0x6e68_6673;
    n.warmup = SimDuration::ZERO;
    n.duration = SimDuration::from_secs(secs);
    if mix.read == 0 {
        // Nothing reads file data: skip filling the files.
        n.preload_bytes = 0;
    }
    if spec.workload == Workload::Crowd1024x4 {
        n.procs = 1;
    }
    Some(n)
}

/// The world a cell runs in.
pub fn world_config(spec: CellSpec) -> WorldConfig {
    let mut w = WorldConfig::baseline();
    w.seed = spec.seed;
    // Everything but the crowd runs under the paper's own off-peak
    // conditions (cross traffic, ~0.1 % loss), so retransmission is
    // loss-driven and no latency is the same constant for every seed.
    // The crowd stays quiet: only a draw-free network can be carved into
    // per-client domains, and it is there to run the partitioned engine.
    w.background = Background::off_peak();
    match spec.workload {
        Workload::LookupLan => {}
        Workload::Read56k | Workload::Write56k => w.topology = TopologyKind::SlowLink,
        Workload::Crowd1024x4 => {
            w.background = Background::quiet();
            w.clients = 1024;
            w.servers = 4;
            w.nfsds = 2;
            w.server.dup_cache = true;
        }
        Workload::AndrewTcpRing => {
            w.topology = TopologyKind::TokenRing;
            w.transport = TransportKind::Tcp;
        }
    }
    w
}

/// Name of proc `p`'s scratch file (the WRITE target).
fn scratch_name(p: usize) -> String {
    format!("scratch_p{p}")
}

/// Builds and preloads a cell's world.
pub fn prepare(spec: CellSpec) -> Prepared {
    let mut world = World::new(world_config(spec));
    let plan = match nhfsstone_config(spec) {
        Some(cfg) => {
            let trees: Vec<_> = (0..world.server_count())
                .map(|sj| preload_subtree_on(&mut world, sj, &cfg))
                .collect();
            let scratch = (0..cfg.procs)
                .filter(|_| cfg.mix.write > 0)
                .map(|p| {
                    let server = world.server_mut();
                    let dir = resolve(server.fs(), "/nhfsstone").expect("preloaded");
                    let ino = server
                        .fs_mut()
                        .create(dir, &scratch_name(p), 0o644, SimTime::ZERO)
                        .expect("fresh scratch file");
                    server.handle_for(ino).expect("handle")
                })
                .collect();
            Plan::Nhfsstone {
                cfg,
                trees,
                scratch,
            }
        }
        None => {
            let tree = andrew_spec(spec.seed);
            preload_andrew_source(world.server_mut().fs_mut(), &tree);
            Plan::Andrew { tree }
        }
    };
    Prepared { spec, world, plan }
}

/// Stable per-client tweak of the generator seed, as the crowd runners
/// of `renofs-workload` apply it.
fn crowd_salt(client: usize) -> u64 {
    (client as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builds a cell: world, preload, procs spawned and parked at the start
/// line. This is the phase `setup_s` times.
pub fn build(spec: CellSpec, mode: Mode) -> Built {
    let mut prepared = prepare(spec);
    let world = &mut prepared.world;
    let start = world.now();
    let (tx, results) = channel();
    let procs = match &prepared.plan {
        Plan::Nhfsstone {
            cfg,
            trees,
            scratch,
        } => {
            let end = start + cfg.duration;
            let pattern = (cfg.mix.read > 0).then_some(nhfsstone_pattern as ReadPattern);
            // Proc `p` of client `ci` is pinned to shard `(ci + p) % servers`,
            // as `run_crowd_sharded` pins them.
            for ci in 0..world.client_count() {
                for p in 0..cfg.procs {
                    let sj = (ci + p) % trees.len();
                    let (dir, files) = trees[sj].clone();
                    let mut cfg = cfg.clone();
                    cfg.seed ^= crowd_salt(ci);
                    let scratch = scratch.get(p).copied();
                    let tx = tx.clone();
                    let index = ci * cfg.procs + p;
                    world.spawn_on(ci, move |sys: &mut WorldSys| {
                        let mut counted = Counted::new(sys, mode, pattern);
                        let samples = generator_proc(
                            &mut PinTo::new(&mut counted, sj),
                            p,
                            &cfg,
                            dir,
                            &files,
                            SimTime::ZERO,
                            end,
                            scratch,
                        );
                        let _ = tx.send(ProcResult {
                            index,
                            samples,
                            andrew: None,
                            log: counted.finish(),
                        });
                    });
                }
            }
            world.client_count() * cfg.procs
        }
        Plan::Andrew { tree } => {
            let tree = tree.clone();
            let root = world.root_handle();
            let client_cfg = ClientPreset::RenoTcp.client_config();
            world.spawn(move |sys: &mut WorldSys| {
                let mut counted = Counted::new(sys, mode, None);
                let report = {
                    let mut fs = ClientFs::mount(&mut counted, client_cfg, root, "client");
                    run_andrew(&mut fs, &tree).map_err(|e| format!("{e:?}"))
                };
                let _ = tx.send(ProcResult {
                    index: 0,
                    samples: Vec::new(),
                    andrew: Some(report),
                    log: counted.finish(),
                });
            });
            1
        }
    };
    Built {
        prepared,
        results,
        procs,
        start,
    }
}

/// Everything a finished cell reports.
#[derive(Debug, Default)]
pub struct CellOutcome {
    /// Fingerprint of everything the simulation computed.
    pub digest: u64,
    /// RPCs issued by the procs.
    pub attempted: u64,
    /// RPC replies delivered to the procs (the "RPC" of every per-RPC
    /// metric).
    pub delivered: u64,
    /// Transport errors and non-success replies.
    pub failed: u64,
    /// Syscalls by kind, summed over procs.
    pub syscalls: [u64; 10],
    /// Simulated nanoseconds from the procs' start to the last finish.
    pub sim_elapsed_ns: u64,
    /// Transport retransmissions, all client x server pairs.
    pub retransmits: u64,
    /// TCP segments the clients sent or received (0 over UDP).
    pub tcp_segments: u64,
    /// Events popped from the world's queues.
    pub events: u64,
    /// Deepest any event queue got.
    pub peak_depth: usize,
    /// Network counters.
    pub net: NetStats,
    /// Requests the servers served, and how many were duplicate-cache hits.
    pub served: u64,
    /// Duplicate-cache hits.
    pub dup_hits: u64,
    /// Requests that waited for an nfsd.
    pub nfsd_queued: u64,
    /// Per-request nfsd queueing delay, ms, all servers.
    pub nfsd_delays_ms: Vec<f64>,
    /// Simulated latency of each synchronous RPC (reference pass only).
    pub rtt_ns: Vec<u64>,
    /// Per-proc logs, in proc order (spans and requests when traced).
    pub logs: Vec<ProcLog>,
    /// Output checks that failed; empty when the cell is correct.
    pub errors: Vec<String>,
}

fn resolve(fs: &MemFs, path: &str) -> Option<InodeId> {
    path.split('/')
        .filter(|c| !c.is_empty())
        .try_fold(fs.root(), |dir, name| fs.lookup(dir, name).ok())
}

fn file_bytes(fs: &mut MemFs, path: &str) -> Option<Vec<u8>> {
    let ino = resolve(fs, path)?;
    let size = fs.getattr(ino).ok()?.size;
    fs.read(ino, 0, size, SimTime::ZERO).ok()
}

/// Checks the tree the Andrew run left on the server: every copied file
/// byte for byte, every object file, and the linked image.
fn check_andrew_tree(fs: &mut MemFs, tree: &AndrewSpec, errors: &mut Vec<String>) {
    let mut expect = |path: String, want: Vec<u8>| match file_bytes(fs, &path) {
        Some(got) if got == want => {}
        Some(got) => errors.push(format!(
            "{path}: {} bytes differ from the {} expected",
            got.len(),
            want.len()
        )),
        None => errors.push(format!("{path}: missing")),
    };
    let mut image = 0;
    for (path, size, is_c) in &tree.files {
        expect(
            format!("/andrew/{path}"),
            (0..*size).map(andrew_pattern).collect(),
        );
        if *is_c {
            let mut object = vec![0x7F; *size];
            object[..32].fill(0x7E);
            expect(format!("/andrew/{}", path.replace(".c", ".o")), object);
            image += size;
        }
    }
    expect("/andrew/a.out".to_string(), vec![0x42; image]);
}

/// Checks that each proc's scratch file holds exactly the block the
/// generator writes (8 KB of 0xA5 at offset 0).
fn check_scratch_files(fs: &mut MemFs, procs: usize, errors: &mut Vec<String>) {
    for p in 0..procs {
        let path = format!("/nhfsstone/{}", scratch_name(p));
        match file_bytes(fs, &path) {
            Some(got) if got.len() == 8192 && got.iter().all(|&b| b == 0xA5) => {}
            Some(got) => errors.push(format!(
                "{path}: {} bytes, not the block written",
                got.len()
            )),
            None => errors.push(format!("{path}: missing")),
        }
    }
}

/// Reads a finished cell out of its world (untimed).
pub fn finish(built: Built) -> CellOutcome {
    let Built {
        prepared: Prepared {
            mut world, plan, ..
        },
        results,
        procs,
        start,
    } = built;
    let mut procs_done: Vec<ProcResult> = results.try_iter().collect();
    procs_done.sort_by_key(|r| r.index);
    let mut out = CellOutcome::default();
    if procs_done.len() != procs {
        out.errors
            .push(format!("{} of {procs} procs reported", procs_done.len()));
    }

    let mut bytes = Vec::new();
    let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    push(world.now().as_nanos());
    for r in &procs_done {
        push(r.log.attempted);
        push(r.log.delivered);
        push(r.log.failed);
        push(r.samples.len() as u64);
        for s in &r.samples {
            push(s.at.as_nanos());
            push(s.rtt.as_nanos());
        }
        match &r.andrew {
            Some(Ok(report)) => {
                report.phases.iter().for_each(|p| push(p.as_nanos()));
                NfsProc::ALL
                    .iter()
                    .for_each(|p| push(report.counts.count(*p)));
            }
            Some(Err(e)) => out.errors.push(format!("andrew run failed: {e}")),
            None => {}
        }
    }
    for ci in 0..world.client_count() {
        for sj in 0..world.server_count() {
            let tcp = world.tcp_stats_to(ci, sj);
            if let Some(t) = &tcp {
                out.tcp_segments += t.data_segments_sent + t.acks_sent + t.segments_received;
            }
            let rex = world
                .udp_stats_to(ci, sj)
                .map(|s| s.retransmits)
                .or(tcp.map(|s| s.retransmits))
                .unwrap_or(0);
            out.retransmits += rex;
            push(rex);
        }
    }
    for sj in 0..world.server_count() {
        let stats = world.server_of(sj).stats();
        let nfsd = world.nfsd_stats_of(sj);
        push(stats.total());
        push(stats.dup_hits);
        push(nfsd.queued);
        out.served += stats.total();
        out.dup_hits += stats.dup_hits;
        out.nfsd_queued += nfsd.queued;
        out.nfsd_delays_ms.extend_from_slice(&nfsd.queue_delays_ms);
    }
    out.digest = fnv1a(&bytes);

    out.sim_elapsed_ns = world.now().since(start).as_nanos();
    (out.events, out.peak_depth) = world.queue_stats();
    out.net = world.net_stats();

    let mut bad_payloads = 0;
    for r in procs_done {
        out.attempted += r.log.attempted;
        out.delivered += r.log.delivered;
        out.failed += r.log.failed;
        bad_payloads += r.log.bad_payloads;
        for (total, n) in out.syscalls.iter_mut().zip(r.log.syscalls) {
            *total += n;
        }
        out.rtt_ns.extend_from_slice(&r.log.rtt_ns);
        out.logs.push(r.log);
    }
    if bad_payloads > 0 {
        out.errors.push(format!(
            "{bad_payloads} READ replies differ from the preload"
        ));
    }
    let fs = world.server_mut().fs_mut();
    match &plan {
        Plan::Nhfsstone { scratch, .. } => check_scratch_files(fs, scratch.len(), &mut out.errors),
        Plan::Andrew { tree } => check_andrew_tree(fs, tree, &mut out.errors),
    }
    out
}

/// One execution of a cell with its two phases timed.
pub struct Timed {
    /// Host time ([`now_ns`]) when the build phase began.
    pub build_start_ns: u64,
    /// When the build phase ended and the run phase began.
    pub run_start_ns: u64,
    /// When the run phase ended.
    pub run_end_ns: u64,
    /// Heap allocations during the run phase (all threads).
    pub run_allocs: u64,
    /// Bytes requested by those allocations.
    pub run_alloc_bytes: u64,
    /// CPU time and context switches of the run phase (all threads).
    pub run_usage: Rusage,
    /// The hub queue's operation stream (traced runs of cell 0 only).
    pub queue_ops: Vec<QueueOp>,
    /// What the cell computed.
    pub outcome: CellOutcome,
}

impl Timed {
    /// Host nanoseconds of the build phase.
    pub fn build_ns(&self) -> f64 {
        (self.run_start_ns - self.build_start_ns) as f64
    }

    /// Host nanoseconds of the run phase.
    pub fn run_ns(&self) -> f64 {
        (self.run_end_ns - self.run_start_ns) as f64
    }
}

/// Builds, runs and reads out one cell.
pub fn run_cell(spec: CellSpec, mode: Mode) -> Timed {
    let build_start_ns = now_ns();
    let mut built = build(spec, mode);
    let world = &mut built.prepared.world;
    let record_queue = mode.trace && spec.index == 0;
    if record_queue {
        world.start_queue_trace();
    }
    let (a0, b0) = alloc_counts();
    let usage0 = Rusage::now();
    let run_start_ns = now_ns();
    world.run();
    let run_end_ns = now_ns();
    let run_usage = Rusage::now().since(&usage0);
    let (a1, b1) = alloc_counts();
    let queue_ops = if record_queue {
        world.take_queue_trace()
    } else {
        Vec::new()
    };
    Timed {
        build_start_ns,
        run_start_ns,
        run_end_ns,
        run_allocs: a1 - a0,
        run_alloc_bytes: b1 - b0,
        run_usage,
        queue_ops,
        outcome: finish(built),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_a_function_of_seed_workload_and_position() {
        let seeds =
            |w, seed| -> Vec<u64> { cells(w, seed, false).iter().map(|c| c.seed).collect() };
        assert_eq!(seeds(Workload::Read56k, 7), seeds(Workload::Read56k, 7));
        let mut all: Vec<u64> = Workload::ALL
            .iter()
            .flat_map(|w| [seeds(*w, 7), seeds(*w, 8)].concat())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no two cells share a seed");
        assert_eq!(cells(Workload::Crowd1024x4, 7, true).len(), 2);
    }

    #[test]
    fn andrew_tree_moves_files_but_keeps_their_sizes() {
        let standard = AndrewSpec::standard();
        let (a, b) = (andrew_spec(1), andrew_spec(2));
        assert_ne!(a.files, b.files);
        assert_eq!(a.files, andrew_spec(1).files);
        let sizes = |s: &AndrewSpec| {
            let mut v: Vec<(String, usize, bool)> = s
                .files
                .iter()
                .map(|(p, size, c)| (p.rsplit('/').next().unwrap().to_string(), *size, *c))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&a), sizes(&standard));
        for (path, _, _) in &a.files {
            let dir = path.rsplit_once('/').unwrap().0;
            assert!(a.dirs.iter().any(|d| d == dir), "{path}");
        }
    }

    /// The invariant the whole design rests on: the reference pass's
    /// extra clock reads and the traced pass's spans change host time
    /// only, so every mode computes the same simulation.
    #[test]
    fn every_wrapper_mode_computes_the_same_digest() {
        for workload in [Workload::Write56k, Workload::AndrewTcpRing] {
            let spec = cells(workload, 3, true)[0];
            let modes = [(false, false), (true, false), (false, true)];
            let outcomes: Vec<CellOutcome> = modes
                .iter()
                .map(|&(reference, trace)| run_cell(spec, Mode { reference, trace }).outcome)
                .collect();
            for o in &outcomes {
                assert_eq!(o.errors, Vec::<String>::new());
                assert_eq!(o.failed, 0);
                assert_eq!(o.digest, outcomes[0].digest);
                assert_eq!(o.delivered, outcomes[0].delivered);
            }
            assert!(outcomes[0].delivered > 100);
            assert!(outcomes[0].rtt_ns.is_empty() && !outcomes[1].rtt_ns.is_empty());
            assert!(outcomes[2]
                .logs
                .iter()
                .all(|l| l.spans.len() as u64 == l.syscalls.iter().sum::<u64>()));
            assert_ne!(
                outcomes[0].digest,
                run_cell(cells(workload, 4, true)[0], Mode::default())
                    .outcome
                    .digest
            );
        }
    }
}

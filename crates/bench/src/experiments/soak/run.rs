//! Running one soak world: the workload every client runs, the sink
//! that records what each client sees, and the shrinker.

use std::cell::RefCell;
use std::rc::Rc;

use renofs::server::LeaseCounts;
use renofs::{
    ClientConfig, ClientError, ExportMap, MountOptions, RouterFs, RouterHandle, Syscalls, World,
    WorldConfig,
};
use renofs_netsim::topology::presets::Background;
use renofs_netsim::FaultPlan;
use renofs_oracle::{fnv1a, Obs, ObsKind, OpOutcome, StreamConfig, StreamingOracle, Violation};
use renofs_sim::rng::splitmix64;
use renofs_sim::{Rng, SimDuration, SimTime};

use super::world::{derive_world_for, filter_crash_replays, home_dir, kept_windows, SoakProfile};
use super::{Mutation, SoakCase, ATTR_TIMEOUT, GRACE_NS, READ_SLOT, ROUND, SETUP};
use crate::runner::point_seed;

/// The outcome of one soak world.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Violations the oracle confirmed (crash-window replays filtered).
    pub violations: Vec<Violation>,
    /// Observations checked.
    pub observations: usize,
    /// Successful client operations.
    pub ok_ops: u64,
    /// Indeterminate (soft-timeout) outcomes.
    pub taints: u64,
    /// Frames damaged in flight by corruption windows.
    pub corrupted_frames: u64,
    /// Damaged frames caught by receiver checksums.
    pub checksum_drops: u64,
    /// Garbled RPC calls the server discarded.
    pub garbage: u64,
    /// Server duplicate-cache hits.
    pub dup_hits: u64,
    /// The servers' lease counters, summed (lease worlds; else 0).
    pub leases: LeaseCounts,
    /// High-water mark of the streaming checker's retained versions:
    /// the memory bound, O(open window) not O(ops).
    pub peak_retained: usize,
    /// Versions the streaming checker retired during the run.
    pub retired: u64,
    /// The full client-major observation log, only when
    /// [`RunOpts::capture`] was set (differential tests).
    pub full_log: Option<Vec<Obs>>,
}

/// Knobs for [`run_case_opts`].
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Also capture the full observation log (defeats the memory
    /// bound; differential tests only).
    pub capture: bool,
    /// Streaming-checker windows. Lease-profile cases ignore this and
    /// always run under [`StreamConfig::for_lease_soak`].
    pub stream: StreamConfig,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            capture: false,
            stream: StreamConfig::for_soak(GRACE_NS),
        }
    }
}

/// What every client of a world feeds: the streaming checker, plus the
/// world's workload counters, classified as each observation arrives.
struct Checker {
    oracle: StreamingOracle,
    ok: u64,
    taints: u64,
}

/// The workload of one world, which every client runs on its own
/// directory.
#[derive(Clone, Copy)]
struct Workload {
    seed: u64,
    clients: usize,
    servers: usize,
    rounds: usize,
    files: usize,
    temps: usize,
    lease: bool,
}

/// One client running the workload. Each workload operation is one
/// method: it makes the calls and records what the client saw, timed
/// from its first call to its last. [`Client::sleep_until`] heartbeats
/// the checker, so a sleeping client never stalls its merge.
struct Client<S: Syscalls> {
    fs: RouterFs<S>,
    checker: Rc<RefCell<Checker>>,
    w: Workload,
    ci: usize,
    /// Lease worlds' write-behind closes: each `Committed` (and when its
    /// close started) waits here for the next [`Client::flush`].
    behind: Vec<(u64, ObsKind)>,
}

/// A failed call as the log records it: the status the server answered,
/// or indeterminate for a timeout or a reply that never parsed (the
/// server may or may not have executed the call).
fn outcome_of(e: &ClientError) -> OpOutcome {
    match e {
        ClientError::TimedOut | ClientError::Protocol => OpOutcome::Indeterminate,
        ClientError::Nfs(s) => OpOutcome::Status(format!("{s:?}")),
        ClientError::Stale => OpOutcome::Status(format!("{e:?}")),
    }
}

fn outcome<T>(r: &Result<T, ClientError>) -> OpOutcome {
    r.as_ref().map_or_else(outcome_of, |_| OpOutcome::Ok)
}

/// A read that failed, naming the error even when it is indeterminate.
fn read_failed(path: String, e: &ClientError) -> ObsKind {
    let status = match outcome_of(e) {
        OpOutcome::Status(s) => s,
        _ => format!("{e:?}"),
    };
    ObsKind::ReadFailed { path, status }
}

/// Deterministic per-(seed, client, file, round) content, distinct for
/// every key: a 16-byte header (magic `soak`, then client u16, file u16,
/// round u32 and length u32, little-endian) and a splitmix64 body seeded
/// from all four. The oracle tells versions apart by their bytes alone.
fn content(seed: u64, ci: usize, file: usize, round: usize, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len + 8);
    v.extend_from_slice(b"soak");
    v.extend_from_slice(&(ci as u16).to_le_bytes());
    v.extend_from_slice(&(file as u16).to_le_bytes());
    v.extend_from_slice(&(round as u32).to_le_bytes());
    v.extend_from_slice(&(len as u32).to_le_bytes());
    let key = u64::from_le_bytes(v[4..12].try_into().expect("8 header bytes"));
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key;
    while v.len() < len {
        v.extend_from_slice(&splitmix64(&mut x).to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Fixed per-(seed, client, file) length, ≤ half a block so every file
/// is rewritten by a single atomic WRITE RPC.
fn file_len(seed: u64, ci: usize, file: usize) -> usize {
    512 + ((seed as usize).wrapping_mul(31) ^ ci.wrapping_mul(131) ^ file.wrapping_mul(977)) % 1536
}

impl<S: Syscalls> Client<S> {
    fn now(&mut self) -> u64 {
        self.fs.now().as_nanos()
    }

    /// Feeds one observation, done now, that started at `t_start`.
    fn record(&mut self, t_start: u64, kind: ObsKind) {
        let t_done = self.now();
        let mut c = self.checker.borrow_mut();
        match &kind {
            ObsKind::Created { outcome, .. } | ObsKind::Removed { outcome, .. } => match outcome {
                OpOutcome::Ok => c.ok += 1,
                OpOutcome::Indeterminate => c.taints += 1,
                OpOutcome::Status(_) => {}
            },
            ObsKind::Committed { certain: true, .. } => c.ok += 1,
            ObsKind::Committed { .. } => c.taints += 1,
            ObsKind::Observed { .. } | ObsKind::Listed { .. } => c.ok += 1,
            ObsKind::Writing { .. } | ObsKind::ReadFailed { .. } => {}
        }
        let client = self.ci;
        c.oracle.feed(Obs {
            client,
            t_start,
            t_done,
            kind,
        });
    }

    /// Records that `path` was created (or, if not `created`, removed).
    fn named(&mut self, t: u64, path: &str, created: bool, outcome: OpOutcome) {
        let path = path.to_string();
        let kind = if created {
            ObsKind::Created { path, outcome }
        } else {
            ObsKind::Removed { path, outcome }
        };
        self.record(t, kind);
    }

    /// Sleeps until `at` unless it has passed, then heartbeats.
    fn sleep_until(&mut self, at: SimTime) {
        let now = self.fs.now();
        if at > now {
            self.fs.sleep(at.since(now));
            let t = self.now();
            self.checker.borrow_mut().oracle.heartbeat(self.ci, t);
        }
    }

    fn mkdir(&mut self, path: &str) {
        let t = self.now();
        let r = self.fs.mkdir(path);
        self.named(t, path, true, outcome(&r));
    }

    /// Opens `path`, creating it if need be (a non-idempotent CREATE).
    fn create(&mut self, path: &str) -> Option<RouterHandle> {
        let t = self.now();
        let r = self.fs.open(path, true, false);
        self.named(t, path, true, outcome(&r));
        r.ok()
    }

    /// Announces a whole-file rewrite, writes it from offset 0 and
    /// closes it: the close-to-open commit point, unless closes are
    /// write-behind.
    fn write_close(&mut self, fh: RouterHandle, path: &str, data: &[u8]) {
        let t_start = self.now();
        let (len, fnv) = (data.len(), fnv1a(data));
        let path = path.to_string();
        self.record(
            t_start,
            ObsKind::Writing {
                path: path.clone(),
                len,
                fnv,
            },
        );
        let wrote = self.fs.write(fh, 0, data);
        let closed = self.fs.close(fh);
        let commit = ObsKind::Committed {
            path: path.clone(),
            len,
            fnv,
            certain: wrote.is_ok() && closed.is_ok(),
        };
        if self.w.lease {
            self.behind.push((t_start, commit));
            return;
        }
        self.record(t_start, commit);
        // A close failing with a *status* (not a timeout) means the
        // flush hit an error even recovery could not absorb; record it
        // so durable loss is flagged.
        if let Err(e @ (ClientError::Stale | ClientError::Nfs(_))) = &closed {
            self.record(t_start, read_failed(path, e));
        }
    }

    /// Pushes the write-behind data, then makes the durability claims
    /// that waited for it.
    fn flush(&mut self) {
        let flushed = self.fs.flush_idle().is_ok();
        for (t_start, mut commit) in std::mem::take(&mut self.behind) {
            if let ObsKind::Committed { certain, .. } = &mut commit {
                *certain &= flushed;
            }
            self.record(t_start, commit);
        }
    }

    /// Reads a file end to end: open, one read, close.
    fn read(&mut self, path: String) {
        let t = self.now();
        match self.fs.open(&path, false, false) {
            Ok(fh) => {
                let kind = match self.fs.read(fh, 0, 8192) {
                    Ok(bytes) => ObsKind::Observed {
                        path,
                        len: bytes.len(),
                        fnv: fnv1a(&bytes),
                    },
                    Err(e) => read_failed(path, &e),
                };
                self.record(t, kind);
                let _ = self.fs.close(fh);
            }
            Err(e) => self.record(t, read_failed(path, &e)),
        }
    }

    fn remove(&mut self, path: &str) {
        let t = self.now();
        let r = self.fs.remove(path);
        self.named(t, path, false, outcome(&r));
    }

    /// Renames `from` to `to`, which the oracle sees as a Removed /
    /// Created pair; returns whether it succeeded.
    fn rename(&mut self, from: &str, to: &str) -> bool {
        let t = self.now();
        let ok = self.fs.rename(from, to).is_ok();
        // A failed cross-shard rename is a multi-RPC sequence: the copy
        // may have landed and the source may or may not be gone. Both
        // sides are indeterminate.
        let outcome = if ok {
            OpOutcome::Ok
        } else {
            OpOutcome::Indeterminate
        };
        self.named(t, from, false, outcome.clone());
        self.named(t, to, true, outcome);
        ok
    }

    /// Lists a directory: its durable files must appear.
    fn list(&mut self, dir: &str) {
        let t = self.now();
        if let Ok(entries) = self.fs.readdir(dir) {
            let names = entries.into_iter().map(|e| e.name).collect();
            let dir = dir.to_string();
            self.record(t, ObsKind::Listed { dir, names });
        }
    }

    /// Runs the workload: its own directory, then every round.
    fn run(&mut self) {
        let (w, ci) = (self.w, self.ci);
        let dir = home_dir(ci, w.servers);
        self.mkdir(&dir);
        for r in 0..w.rounds {
            let base = SimTime::from_secs(SETUP + r as u64 * ROUND);
            self.sleep_until(base);
            let mut rng = Rng::new(
                point_seed(0x50AC, w.seed as usize, 2).wrapping_add((ci as u64) << 8 | r as u64),
            );
            // Non-idempotent create/remove pairs are spread across the
            // whole round, so a fault window anywhere in the timeline
            // lands on some client's dup-cache-critical RPC. Their
            // offsets are drawn first; the cross-read phase (`None`)
            // runs at its fixed slot among them.
            let mut slots: Vec<(u64, Option<usize>)> = (0..w.temps)
                .map(|t| (500 + rng.gen_range(0, ROUND * 1000 - 1500), Some(t)))
                .collect();
            slots.push((READ_SLOT * 1000, None));
            slots.sort_unstable();

            // Write phase: rewrite every owned file in place. Lease
            // worlds push their write-behind data before any sleep: the
            // tightened grace does not excuse data that never left.
            for f in 0..w.files {
                let path = format!("{dir}/f{f}");
                let data = content(w.seed, ci, f, r, file_len(w.seed, ci, f));
                if let Some(fh) = self.create(&path) {
                    self.write_close(fh, &path, &data);
                }
            }
            if w.lease {
                self.flush();
            }

            for (off, temp) in slots {
                let at = base + SimDuration::from_millis(off);
                let Some(t) = temp else {
                    self.cross_reads(&mut rng, at, w.files);
                    continue;
                };
                self.sleep_until(at);
                let path = format!("{dir}/t{r}x{t}");
                if let Some(fh) = self.create(&path) {
                    let _ = self.fs.close(fh);
                }
                self.remove(&path);
            }

            if w.lease {
                // Late rewrite of f0 while readers hold read leases from
                // the +4s slot: the write lease goes through recall and
                // vacate-wait, and across a crash only the reboot grace
                // keeps it from conflicting with pre-crash leases.
                self.sleep_until(base + SimDuration::from_millis(5_000));
                let path = format!("{dir}/f0");
                // Round keys ≥ 0x40 never collide with the write
                // phase's (rounds cap well below 64).
                let data = content(w.seed, ci, 0, r + 0x40, file_len(w.seed, ci, 0));
                if let Some(fh) = self.create(&path) {
                    self.write_close(fh, &path, &data);
                    self.flush();
                }
                // Re-read neighbours' f0 under whatever read lease
                // survives from the first pass.
                self.cross_reads(&mut rng, base + SimDuration::from_millis(6_500), 1);
            }

            // Cross-shard churn: create a file at home, rename it into
            // the next client's directory (the router's copy-and-remove
            // when the homes live on different servers), remove it
            // there, so exactly-once and namespace checks span exports.
            if w.servers > 1 && w.clients > 1 {
                let from = format!("{dir}/x{r}");
                let peer = home_dir((ci + 1) % w.clients, w.servers);
                let to = format!("{peer}/x{ci}r{r}");
                if let Some(fh) = self.create(&from) {
                    let _ = self.fs.close(fh);
                    if self.rename(&from, &to) {
                        self.remove(&to);
                    }
                }
            }

            self.list(&dir);
        }
    }

    /// The cross-read phase: sleep to `at` (if it has not already
    /// passed), then read two neighbours' files (a lone client reads
    /// its own back).
    fn cross_reads(&mut self, rng: &mut Rng, at: SimTime, files: usize) {
        self.sleep_until(at);
        let n = self.w.clients;
        for k in 0..2.min(n - 1).max(1) {
            let target = (self.ci + 1 + k) % n;
            let f = rng.index(files);
            self.read(format!("{}/f{f}", home_dir(target, self.w.servers)));
        }
    }
}

/// Runs one soak world and checks it against the oracle.
pub fn run_case(case: &SoakCase, mutation: Mutation) -> CaseOutcome {
    run_case_opts(case, mutation, &RunOpts::default())
}

/// [`run_case`] with full knobs. The consistency check is *streaming*:
/// clients feed a shared [`StreamingOracle`] as each operation
/// completes, so checker memory is bounded by the staleness window, not
/// the world length.
pub fn run_case_opts(case: &SoakCase, mutation: Mutation, opts: &RunOpts) -> CaseOutcome {
    let derived = derive_world_for(case.seed, case.profile);
    let kept = kept_windows(case);
    let lease = case.profile == SoakProfile::Lease;

    let mut cfg = WorldConfig::baseline();
    cfg.topology = derived.topo.1;
    cfg.transport = derived.transport.1.clone();
    cfg.background = Background::quiet();
    cfg.clients = case.clients;
    cfg.nfsds = derived.nfsds;
    cfg.servers = derived.servers;
    cfg.server.dup_cache = mutation != Mutation::NoDupCache;
    cfg.server.leases = lease;
    cfg.server.lease_no_reboot_grace = mutation == Mutation::NoRebootGrace;
    cfg.faults = kept.iter().fold(FaultPlan::new(), |plan, w| w.add_to(plan));
    cfg.mount = if derived.soft {
        MountOptions::soft(3)
    } else {
        MountOptions::hard()
    };
    // A zero salt leaves the seed untouched, so full cases are
    // byte-identical to the pre-salt harness.
    cfg.seed = point_seed(0x50AC, case.seed as usize, 1)
        .wrapping_add(case.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    let mut ccfg = if lease {
        ClientConfig::reno_lease()
    } else {
        ClientConfig::reno()
    };
    ccfg.attr_timeout = ATTR_TIMEOUT;
    match mutation {
        Mutation::StickyAttrs => ccfg.attr_timeout = SimDuration::from_secs(600),
        Mutation::NoClosePush => ccfg.push_on_close = false,
        Mutation::ServeStaleLease => ccfg.lease_ignore_expiry = true,
        _ => {}
    }

    let mut world = World::new(cfg);
    let roots: Vec<_> = (0..derived.servers)
        .map(|sj| world.server_of(sj).root_handle())
        .collect();
    let map = ExportMap::fleet(derived.servers);
    let mut oracle = StreamingOracle::new(case.clients, case.profile.stream(opts.stream));
    if opts.capture {
        oracle = oracle.with_capture();
    }
    let (ok, taints) = (0, 0);
    let checker = Rc::new(RefCell::new(Checker { oracle, ok, taints }));
    let workload = Workload {
        seed: case.seed,
        clients: case.clients,
        servers: derived.servers,
        rounds: case.rounds,
        files: derived.files,
        temps: derived.temps,
        lease,
    };
    for ci in 0..case.clients {
        let checker = Rc::clone(&checker);
        let roots = roots.clone();
        let map = map.clone();
        world.spawn_on(ci, move |sys| {
            let mut fs = RouterFs::mount(sys, ccfg, map, &roots, "soak");
            if mutation == Mutation::WrongShardRoute && ci == 0 {
                // Only one machine runs the stale automount map: a
                // fleet-wide misroute would be a *consistent* (if
                // wrong) namespace the oracle could never fault.
                fs.set_misroute(true);
            }
            let mut c = Client {
                fs,
                checker,
                w: workload,
                ci,
                behind: Vec::new(),
            };
            c.run();
            c.checker.borrow_mut().oracle.finish_client(ci);
        });
    }
    world.run();

    let checker = Rc::into_inner(checker)
        .expect("every client feed finished")
        .into_inner();
    let stream_out = checker.oracle.finish();
    let mut violations = stream_out.violations;
    filter_crash_replays(&kept, &mut violations);

    let net = world.net_stats();
    // Fleet-wide server counters: every shard contributes.
    let stats: Vec<_> = (0..world.server_count())
        .map(|sj| world.server_of(sj).stats())
        .collect();
    let mut leases = LeaseCounts::default();
    for s in &stats {
        leases += s.leases;
    }
    CaseOutcome {
        violations,
        observations: stream_out.stats.processed as usize,
        ok_ops: checker.ok,
        taints: checker.taints,
        corrupted_frames: net.corrupted_frames,
        checksum_drops: net.checksum_drops,
        garbage: stats.iter().map(|s| s.garbage).sum(),
        dup_hits: stats.iter().map(|s| s.dup_hits).sum(),
        leases,
        peak_retained: stream_out.stats.peak_retained,
        retired: stream_out.stats.retired,
        full_log: stream_out.log,
    }
}

/// Salts the shrinker may try per reduced candidate. Dropping a client
/// reshuffles every frame-level coin flip; re-rolling the packet RNG
/// recovers a violation that needed a rare coincidence often enough to
/// keep shrinking.
const SHRINK_SALTS: u64 = 48;

/// Shrinks a violating case to a local minimum: fewer clients (searching
/// a bounded salt range per candidate count), then a greedy pass
/// dropping fault windows, then fewer rounds — keeping each reduction
/// only if *a* violation still reproduces, and iterating the passes to a
/// fixpoint. The result is deterministic: the search order is fixed, so
/// the same violating case always shrinks to the same minimal repro.
pub fn shrink(case: &SoakCase, mutation: Mutation) -> SoakCase {
    let violates = |c: &SoakCase| !run_case(c, mutation).violations.is_empty();
    // A candidate's inherited salt first (the most faithful reduction),
    // then the rest of the range.
    let search = |cand: &SoakCase| {
        let rest = (0..SHRINK_SALTS).filter(|&s| s != cand.salt);
        let salts = std::iter::once(cand.salt).chain(rest);
        salts
            .map(|salt| SoakCase {
                salt,
                ..cand.clone()
            })
            .find(violates)
    };
    let mut best = case.clone();
    loop {
        let before = best.clone();
        // Fewer clients, smallest count first.
        let fewer = (1..best.clients).find_map(|clients| {
            search(&SoakCase {
                clients,
                ..best.clone()
            })
        });
        best = fewer.unwrap_or(best);
        // Greedy fault-window drop.
        let mut i = 0;
        while i < best.windows.len() {
            let mut cand = best.clone();
            cand.windows.remove(i);
            if let Some(c) = search(&cand) {
                best = c;
            } else {
                i += 1;
            }
        }
        // Fewer rounds, smallest first.
        let fewer = (1..best.rounds).find_map(|rounds| {
            search(&SoakCase {
                rounds,
                ..best.clone()
            })
        });
        best = fewer.unwrap_or(best);
        if best == before {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// Every (seed, client, file, round) a recipe writes, late rewrites
    /// included, has bytes of its own — across worlds too, not only
    /// within one file's history.
    #[test]
    fn content_differs_across_every_key_the_recipes_derive() {
        let mut keys = HashSet::new();
        for profile in [SoakProfile::Quick, SoakProfile::Long, SoakProfile::Lease] {
            for seed in 0..1024u64 {
                let d = derive_world_for(seed, profile);
                let late = match profile {
                    SoakProfile::Lease => 0x40..0x40 + d.rounds,
                    _ => 0..0,
                };
                for ci in 0..d.clients {
                    for r in 0..d.rounds {
                        keys.extend((0..d.files).map(|f| (seed, ci, f, r)));
                    }
                    keys.extend(late.clone().map(|r| (seed, ci, 0, r)));
                }
            }
        }
        let mut versions = HashSet::new();
        for &(seed, ci, f, r) in &keys {
            let data = content(seed, ci, f, r, file_len(seed, ci, f));
            assert!(
                versions.insert((data.len(), fnv1a(&data))),
                "seed {seed} client {ci} file {f} round {r:#x} repeats a version"
            );
        }
        assert!(keys.len() > 100_000, "{} keys", keys.len());
    }

    /// The generator before version headers: its `| 1` put two rounds
    /// of one file on one xorshift state (1 and 2, 3 and 4, … when the
    /// seed is odd).
    fn twin_content(seed: u64, ci: usize, file: usize, round: usize, len: usize) -> Vec<u8> {
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((ci as u64) << 32)
            .wrapping_add(((file as u64) << 16) | round as u64)
            | 1;
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            v.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        v.truncate(len);
        v
    }

    #[test]
    #[should_panic(expected = "two versions of /c0/f0 carry the same")]
    fn the_old_generators_twins_trip_the_oracle_guard() {
        let len = file_len(51, 0, 0);
        let twins = [1, 2].map(|r| (r, twin_content(51, 0, 0, r, len)));
        assert_eq!(
            twins[0].1, twins[1].1,
            "rounds 1 and 2 wrote one version twice"
        );
        let mut oracle = StreamingOracle::new(1, StreamConfig::for_lease_soak());
        for (r, data) in &twins {
            let (path, len, fnv) = ("/c0/f0".to_string(), data.len(), fnv1a(data));
            let t = (SETUP + *r as u64 * ROUND) * 1_000_000_000;
            for (t_done, kind) in [
                (
                    t,
                    ObsKind::Writing {
                        path: path.clone(),
                        len,
                        fnv,
                    },
                ),
                (
                    t + 1,
                    ObsKind::Committed {
                        path,
                        len,
                        fnv,
                        certain: true,
                    },
                ),
            ] {
                oracle.feed(Obs {
                    client: 0,
                    t_start: t,
                    t_done,
                    kind,
                });
            }
        }
    }
}

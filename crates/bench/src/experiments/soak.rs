//! The chaos soak harness: randomized worlds, a randomized multi-client
//! workload, and a differential consistency oracle.
//!
//! Every seed deterministically generates a whole world — client count,
//! topology, transport, nfsd pool width, mount semantics, and a fault
//! timeline mixing partitions, loss bursts, duplication, reordering,
//! delay spikes, server crashes, and **byte corruption** — then runs a
//! phased workload from every client: each round, every client rewrites
//! its own files (single-writer discipline), exercises non-idempotent
//! CREATE/REMOVE pairs, and reads its neighbours' files. Every
//! client-visible outcome is recorded as a [`renofs_oracle::Obs`] and
//! fed, as the world runs, to a [`StreamingOracle`], which checks it
//! against the sequential model filesystem in bounded memory: close-to-
//! open consistency, content integrity, synchronous-write durability,
//! and exactly-once semantics for non-idempotent RPCs (DESIGN.md §10,
//! §12). The buffered [`renofs_oracle::Oracle`] only serves as the
//! reference in `tests/soak_differential.rs`.
//!
//! A violating seed **auto-shrinks**: the harness re-runs the case with
//! fewer clients, then greedily drops fault windows, then trims rounds,
//! keeping every reduction that still violates — and prints a minimal
//! deterministic `repro soak --case ...` command.
//!
//! Replay (duplicate-cache) checks are suppressed for operations that
//! overlap a server-crash window: the duplicate-request cache is
//! in-memory and legitimately dies with the server, so a retransmission
//! re-executed across a reboot is 4.3BSD behaviour, not a bug.
//!
//! Every case's seeds derive from its position, so output is
//! byte-identical at any `--jobs` level.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use renofs::server::LeaseCounts;
use renofs::{
    ClientConfig, ClientError, ExportMap, MountOptions, RouterFs, Syscalls, TopologyKind,
    TransportKind, World, WorldConfig,
};
use renofs_netsim::topology::presets::Background;
use renofs_netsim::FaultPlan;
use renofs_oracle::{fnv1a, Obs, ObsKind, OpOutcome, StreamConfig, StreamingOracle, Violation};
use renofs_sim::{Rng, SimDuration, SimTime};

use crate::fmt::table;
use crate::runner::{point_seed, run_jobs};
use crate::Scale;

/// Virtual length of one workload round.
const ROUND: u64 = 8; // seconds
/// Offset of the cross-read phase within a round.
const READ_SLOT: u64 = 4; // seconds
/// Setup slack before round 0 (mounts, mkdir, file creation).
const SETUP: u64 = 3; // seconds
/// Client attribute-cache lifetime in soak worlds.
const ATTR_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Close-to-open staleness the oracle tolerates: the attribute-cache
/// lifetime plus transfer/scheduling slack.
pub const GRACE_NS: u64 = 2_000_000_000;
/// Default seed count per scale.
const QUICK_SEEDS: usize = 12;
const PAPER_SEEDS: usize = 64;
/// Default seed count for the `--long` certification profile when no
/// other stop condition is given.
pub const LONG_SEEDS: usize = 256;

/// A deliberately planted consistency bug, for mutation-testing the
/// oracle (the soak must *catch* these; they are never enabled by
/// `repro soak`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No bug: the tuned system.
    None,
    /// Disable the server duplicate-request cache: retransmitted
    /// non-idempotent RPCs re-execute.
    NoDupCache,
    /// Never expire the client attribute cache: close-to-open breaks.
    StickyAttrs,
    /// Do not flush dirty data on close: other clients read old bytes.
    NoClosePush,
    /// Lease client serves cached data past its lease expiry (lease
    /// worlds only): the cache outlives the term the server promised.
    ServeStaleLease,
    /// Server reboots without waiting out the maximum lease term (lease
    /// worlds only): conflicting leases are granted while pre-crash
    /// holders still trust theirs.
    NoRebootGrace,
    /// Client 0's automount map aliases every non-root export onto
    /// server 0 (sharded worlds only): that one client resolves its
    /// peers' shard subtrees against the wrong server's namespace, so
    /// durable files its neighbours wrote simply are not there.
    WrongShardRoute,
}

/// One scheduled fault window of a generated world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSpec {
    /// What the window injects.
    pub kind: WindowKind,
    /// Window start (virtual ms).
    pub at_ms: u64,
    /// Window length (virtual ms).
    pub dur_ms: u64,
    /// Probability parameter (loss/dup/reorder/corrupt).
    pub prob: f64,
    /// Delay parameter (reorder hold-back / spike extra), ms.
    pub delay_ms: u64,
}

/// The fault classes a soak world can schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Both routes dark.
    Partition,
    /// Random frame loss.
    Loss,
    /// Frame duplication.
    Dup,
    /// Frame reordering.
    Reorder,
    /// Added one-way delay.
    DelaySpike,
    /// Server crash + reboot (the duration is the downtime).
    Crash,
    /// Bit corruption: damaged frames hit checksum handling.
    Corrupt,
}

impl WindowSpec {
    fn label(&self) -> &'static str {
        match self.kind {
            WindowKind::Partition => "part",
            WindowKind::Loss => "loss",
            WindowKind::Dup => "dup",
            WindowKind::Reorder => "reord",
            WindowKind::DelaySpike => "delay",
            WindowKind::Crash => "crash",
            WindowKind::Corrupt => "corrupt",
        }
    }

    fn add_to(&self, plan: FaultPlan) -> FaultPlan {
        let at = SimTime::from_millis(self.at_ms);
        let dur = SimDuration::from_millis(self.dur_ms);
        match self.kind {
            WindowKind::Partition => plan.partition(at, dur),
            WindowKind::Loss => plan.loss_burst(at, self.prob, dur),
            WindowKind::Dup => plan.duplicate(at, self.prob, dur),
            WindowKind::Reorder => {
                plan.reorder(at, self.prob, SimDuration::from_millis(self.delay_ms), dur)
            }
            WindowKind::DelaySpike => {
                plan.delay_spike(at, SimDuration::from_millis(self.delay_ms), dur)
            }
            WindowKind::Crash => plan.server_crash(at, dur),
            WindowKind::Corrupt => plan.corrupt(at, self.prob, dur),
        }
    }
}

/// The seed-derived shape of one soak world (before shrinking).
#[derive(Clone, Debug)]
pub struct DerivedWorld {
    /// Client machines.
    pub clients: usize,
    /// Workload rounds.
    pub rounds: usize,
    /// Files per client.
    pub files: usize,
    /// Non-idempotent create/remove pairs per round.
    pub temps: usize,
    /// Topology label + kind.
    pub topo: (&'static str, TopologyKind),
    /// Transport label + kind.
    pub transport: (&'static str, TransportKind),
    /// nfsd pool width (0 = unbounded).
    pub nfsds: usize,
    /// Servers in the fleet (each client's home directory shards onto
    /// server `ci % servers`; clients mount through [`RouterFs`]).
    pub servers: usize,
    /// Mount semantics.
    pub soft: bool,
    /// The full fault-window roster.
    pub windows: Vec<WindowSpec>,
}

/// Which world-generation recipe a soak case uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SoakProfile {
    /// The PR 5 recipe: small worlds, minutes of virtual time. The
    /// golden-pinned default.
    #[default]
    Quick,
    /// The certification recipe: up to 16 clients, 8–16 rounds, wider
    /// nfsd pools, denser fault timelines including repeated
    /// crash/reboot cycles. Meant for `--long` overnight runs.
    Long,
    /// NQNFS lease worlds: the server issues leases and clients mount
    /// in lease mode (write-behind under a write lease). Hard mounts
    /// only, crash windows timed to straddle lease terms, and a
    /// **tighter** oracle grace (see [`StreamConfig::for_lease_soak`])
    /// so stale cache served past a lease term is a violation, not
    /// tolerated slack.
    Lease,
}

impl SoakProfile {
    fn tag(&self) -> &'static str {
        match self {
            SoakProfile::Quick => "quick",
            SoakProfile::Long => "long",
            SoakProfile::Lease => "lease",
        }
    }
}

/// Derives the world shape for a seed under a profile. Pure function of
/// `(seed, profile)`: the same pair always yields the same world.
pub fn derive_world_for(seed: u64, profile: SoakProfile) -> DerivedWorld {
    match profile {
        SoakProfile::Quick => derive_world(seed),
        SoakProfile::Long => derive_long_world(seed),
        SoakProfile::Lease => derive_lease_world(seed),
    }
}

/// Fleet width for a soak seed, drawn from a seed stream independent of
/// the shape RNG so every other derived field keeps the value it had in
/// the single-server harness. `domain` separates the quick (0) and long
/// (1) recipes.
fn derive_servers(seed: u64, domain: usize) -> usize {
    1 + Rng::new(point_seed(0xF1EE7, seed as usize, domain)).index(2)
}

/// A client's home directory in the stitched fleet namespace
/// ([`ExportMap::fleet`]): shard-0 homes live at the root (server 0
/// exports "/"); a client on shard j > 0 homes under that server's
/// "/s{j}" export. Two homes on one shard keep distinct server-side
/// paths, and with one server every home is the legacy "/c{ci}".
fn home_dir(ci: usize, servers: usize) -> String {
    let shard = ci % servers;
    if shard == 0 {
        format!("/c{ci}")
    } else {
        format!("/s{shard}/c{ci}")
    }
}

/// The lease-world recipe: its own seed domain, hard mounts only (a
/// soft timeout mid write-behind would conflate mount semantics with
/// lease semantics), and fault windows biased toward the spans where
/// lease state is most exposed — crashes land between the cross-read
/// slot (readers acquire read leases at +4s) and the late rewrite
/// (+5s), so the reboot grace is what stands between a pre-crash read
/// lease and a conflicting post-crash write grant.
fn derive_lease_world(seed: u64) -> DerivedWorld {
    let mut rng = Rng::new(point_seed(0x1EA5E, seed as usize, 0));
    let clients = 2 + rng.gen_range(0, 3) as usize; // 2..=4
    let rounds = 3 + rng.gen_range(0, 3) as usize; // 3..=5
    let topo = match rng.index(3) {
        0 => ("same LAN", TopologyKind::SameLan),
        1 => ("token ring", TopologyKind::TokenRing),
        _ => ("56Kbps", TopologyKind::SlowLink),
    };
    let slow = topo.1 == TopologyKind::SlowLink;
    let files = if slow { 1 } else { 1 + rng.index(2) };
    let temps = if slow { 1 } else { 2 };
    let transport = match rng.index(3) {
        0 => (
            "UDP rto=1s",
            TransportKind::UdpFixed {
                timeo: SimDuration::from_secs(1),
            },
        ),
        1 => (
            "UDP rto=A+4D",
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
        ),
        _ => ("TCP", TransportKind::Tcp),
    };
    let nfsds = [0usize, 2, 4, 8][rng.index(4)];
    let span_ms = (SETUP + rounds as u64 * ROUND) * 1000;
    let nwindows = 1 + rng.index(4);
    let mut windows = Vec::with_capacity(nwindows);
    for _ in 0..nwindows {
        let kind = match rng.index(6) {
            0 => WindowKind::Partition,
            1 => WindowKind::Loss,
            2 => WindowKind::Dup,
            3 => WindowKind::Reorder,
            4 => WindowKind::Crash,
            _ => WindowKind::Corrupt,
        };
        if kind == WindowKind::Crash {
            // Aim the crash inside one round's read-lease window: down
            // shortly after the +4s read slot, back up before (or just
            // after) the +5s late rewrite, so the rewrite's write-lease
            // acquisition crosses the reboot.
            let round = rng.index(rounds.max(1)) as u64;
            let at_ms = SETUP * 1000 + round * ROUND * 1000 + rng.gen_range(4100, 4900);
            let dur_ms = rng.gen_range(400, 1400);
            windows.push(WindowSpec {
                kind,
                at_ms,
                dur_ms,
                prob: 0.0,
                delay_ms: 0,
            });
            continue;
        }
        let at_ms = rng.gen_range(
            SETUP * 1000,
            span_ms.saturating_sub(4000).max(SETUP * 1000 + 1),
        );
        let (dur_ms, prob, delay_ms) = match kind {
            // Partitions stay below the lease term so a holder's renew
            // can always get through before its term lapses.
            WindowKind::Partition => (rng.gen_range(800, 2500), 0.0, 0),
            WindowKind::Loss => (rng.gen_range(3000, 9000), rng.gen_range_f64(0.25, 0.5), 0),
            WindowKind::Dup => (rng.gen_range(2000, 7000), rng.gen_range_f64(0.1, 0.3), 0),
            WindowKind::Reorder => (
                rng.gen_range(2000, 7000),
                rng.gen_range_f64(0.1, 0.3),
                rng.gen_range(10, 40),
            ),
            WindowKind::Corrupt => (rng.gen_range(3000, 9000), rng.gen_range_f64(0.05, 0.3), 0),
            WindowKind::DelaySpike | WindowKind::Crash => unreachable!(),
        };
        windows.push(WindowSpec {
            kind,
            at_ms,
            dur_ms,
            prob,
            delay_ms,
        });
    }
    DerivedWorld {
        clients,
        rounds,
        files,
        temps,
        topo,
        transport,
        nfsds,
        // Lease worlds stay single-server: the lease table, reboot
        // grace, and recall timing are per-server state and the lease
        // recipe's crash windows are tuned against exactly one of them.
        servers: 1,
        soft: false,
        windows,
    }
}

/// The `--long` world recipe: a distinct seed domain so long worlds are
/// uncorrelated with the quick sweep's.
fn derive_long_world(seed: u64) -> DerivedWorld {
    let mut rng = Rng::new(point_seed(0x10A6, seed as usize, 0));
    let clients = 2 + rng.gen_range(0, 15) as usize; // 2..=16
    let rounds = 8 + rng.gen_range(0, 9) as usize; // 8..=16
    let topo = match rng.index(3) {
        0 => ("same LAN", TopologyKind::SameLan),
        1 => ("token ring", TopologyKind::TokenRing),
        _ => ("56Kbps", TopologyKind::SlowLink),
    };
    let slow = topo.1 == TopologyKind::SlowLink;
    let files = if slow { 1 } else { 1 + rng.index(3) }; // 1..=3
    let temps = 2;
    let transport = match rng.index(3) {
        0 => (
            "UDP rto=1s",
            TransportKind::UdpFixed {
                timeo: SimDuration::from_secs(1),
            },
        ),
        1 => (
            "UDP rto=A+4D",
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
        ),
        _ => ("TCP", TransportKind::Tcp),
    };
    let nfsds = [0usize, 2, 4, 8, 16][rng.index(5)];
    let soft = !matches!(transport.1, TransportKind::Tcp) && rng.chance(0.25);
    let span_ms = (SETUP + rounds as u64 * ROUND) * 1000;
    let nwindows = 2 + rng.index(5); // 2..=6 draws (crash cycles add more)
    let mut windows = Vec::with_capacity(nwindows);
    for _ in 0..nwindows {
        let kind = match rng.index(7) {
            0 => WindowKind::Partition,
            1 => WindowKind::Loss,
            2 => WindowKind::Dup,
            3 => WindowKind::Reorder,
            4 => WindowKind::DelaySpike,
            5 => WindowKind::Crash,
            _ => WindowKind::Corrupt,
        };
        // A crash draw may expand into a repeated crash/reboot cycle:
        // the server flaps several times in a row, the regime where an
        // in-memory duplicate cache and boot-epoch handles are weakest.
        if kind == WindowKind::Crash && rng.chance(0.5) {
            let cycles = 2 + rng.index(3); // 2..=4
            let mut at = rng.gen_range(
                SETUP * 1000,
                span_ms.saturating_sub(30_000).max(SETUP * 1000 + 1),
            );
            for _ in 0..cycles {
                let dur = rng.gen_range(1500, 4000);
                windows.push(WindowSpec {
                    kind: WindowKind::Crash,
                    at_ms: at,
                    dur_ms: dur,
                    prob: 0.0,
                    delay_ms: 0,
                });
                at += dur + rng.gen_range(3000, 8000);
            }
            continue;
        }
        let at_ms = rng.gen_range(
            SETUP * 1000,
            span_ms.saturating_sub(4000).max(SETUP * 1000 + 1),
        );
        let (dur_ms, prob, delay_ms) = match kind {
            WindowKind::Partition => (rng.gen_range(1000, 5000), 0.0, 0),
            WindowKind::Loss => (rng.gen_range(3000, 12000), rng.gen_range_f64(0.25, 0.5), 0),
            WindowKind::Dup => (rng.gen_range(2000, 9000), rng.gen_range_f64(0.1, 0.3), 0),
            WindowKind::Reorder => (
                rng.gen_range(2000, 9000),
                rng.gen_range_f64(0.1, 0.3),
                rng.gen_range(10, 40),
            ),
            WindowKind::DelaySpike => (rng.gen_range(2000, 6000), 0.0, rng.gen_range(50, 200)),
            WindowKind::Crash => (rng.gen_range(2000, 5000), 0.0, 0),
            WindowKind::Corrupt => (rng.gen_range(3000, 12000), rng.gen_range_f64(0.05, 0.3), 0),
        };
        windows.push(WindowSpec {
            kind,
            at_ms,
            dur_ms,
            prob,
            delay_ms,
        });
    }
    DerivedWorld {
        clients,
        rounds,
        files,
        temps,
        topo,
        transport,
        nfsds,
        servers: derive_servers(seed, 1),
        soft,
        windows,
    }
}

/// Derives the world shape for a seed. Pure function of the seed: the
/// same seed always yields the same world.
pub fn derive_world(seed: u64) -> DerivedWorld {
    let mut rng = Rng::new(point_seed(0x50AC, seed as usize, 0));
    let clients = 2 + rng.gen_range(0, 4) as usize; // 2..=5
    let rounds = 3 + rng.gen_range(0, 3) as usize; // 3..=5
    let topo = match rng.index(3) {
        0 => ("same LAN", TopologyKind::SameLan),
        1 => ("token ring", TopologyKind::TokenRing),
        _ => ("56Kbps", TopologyKind::SlowLink),
    };
    let slow = topo.1 == TopologyKind::SlowLink;
    let files = if slow { 1 } else { 1 + rng.index(2) };
    let temps = if slow { 1 } else { 2 };
    let transport = match rng.index(3) {
        0 => (
            "UDP rto=1s",
            TransportKind::UdpFixed {
                timeo: SimDuration::from_secs(1),
            },
        ),
        1 => (
            "UDP rto=A+4D",
            TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
        ),
        _ => ("TCP", TransportKind::Tcp),
    };
    let nfsds = [0usize, 2, 4, 8][rng.index(4)];
    let soft = !matches!(transport.1, TransportKind::Tcp) && rng.chance(0.25);
    let span_ms = (SETUP + rounds as u64 * ROUND) * 1000;
    let nwindows = 1 + rng.index(4);
    let mut windows = Vec::with_capacity(nwindows);
    for _ in 0..nwindows {
        let kind = match rng.index(7) {
            0 => WindowKind::Partition,
            1 => WindowKind::Loss,
            2 => WindowKind::Dup,
            3 => WindowKind::Reorder,
            4 => WindowKind::DelaySpike,
            5 => WindowKind::Crash,
            _ => WindowKind::Corrupt,
        };
        let at_ms = rng.gen_range(
            SETUP * 1000,
            span_ms.saturating_sub(4000).max(SETUP * 1000 + 1),
        );
        let (dur_ms, prob, delay_ms) = match kind {
            WindowKind::Partition => (rng.gen_range(1000, 4000), 0.0, 0),
            WindowKind::Loss => (rng.gen_range(3000, 9000), rng.gen_range_f64(0.25, 0.5), 0),
            WindowKind::Dup => (rng.gen_range(2000, 7000), rng.gen_range_f64(0.1, 0.3), 0),
            WindowKind::Reorder => (
                rng.gen_range(2000, 7000),
                rng.gen_range_f64(0.1, 0.3),
                rng.gen_range(10, 40),
            ),
            WindowKind::DelaySpike => (rng.gen_range(2000, 5000), 0.0, rng.gen_range(50, 200)),
            WindowKind::Crash => (rng.gen_range(2000, 5000), 0.0, 0),
            WindowKind::Corrupt => (rng.gen_range(3000, 9000), rng.gen_range_f64(0.05, 0.3), 0),
        };
        windows.push(WindowSpec {
            kind,
            at_ms,
            dur_ms,
            prob,
            delay_ms,
        });
    }
    DerivedWorld {
        clients,
        rounds,
        files,
        temps,
        topo,
        transport,
        nfsds,
        servers: derive_servers(seed, 0),
        soft,
        windows,
    }
}

/// One runnable (and shrinkable) soak case: a seed plus overrides. The
/// seed fixes the world shape; `clients`, `rounds`, and the kept
/// `windows` subset can be reduced below the derived values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakCase {
    /// World-generation seed.
    pub seed: u64,
    /// Client machines (≤ derived).
    pub clients: usize,
    /// Workload rounds (≤ derived).
    pub rounds: usize,
    /// Indices into the derived fault-window roster that stay active.
    pub windows: Vec<usize>,
    /// Perturbs the world's packet-level RNG without changing the world
    /// shape (topology, transport, fault windows). Always 0 for a full
    /// case; the shrinker searches a small salt range so a bug that
    /// needs a rare frame-level coincidence can still reproduce after
    /// the client count drops changed every coin flip.
    pub salt: u64,
    /// Which world-generation recipe the seed runs through.
    pub profile: SoakProfile,
}

impl SoakCase {
    /// The full (unshrunk) quick-profile case for a seed.
    pub fn from_seed(seed: u64) -> Self {
        SoakCase::from_seed_profile(seed, SoakProfile::Quick)
    }

    /// The full (unshrunk) case for a seed under a profile.
    pub fn from_seed_profile(seed: u64, profile: SoakProfile) -> Self {
        let d = derive_world_for(seed, profile);
        SoakCase {
            seed,
            clients: d.clients,
            rounds: d.rounds,
            windows: (0..d.windows.len()).collect(),
            salt: 0,
            profile,
        }
    }

    /// Parses the `--case` encoding produced by [`fmt::Display`]:
    /// `seed=S,clients=C,rounds=R,windows=0;2;3[,profile=long][,salt=K]`
    /// (windows may be empty: `windows=`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut seed = None;
        let mut clients = None;
        let mut rounds = None;
        let mut windows = None;
        let mut salt = 0;
        let mut profile = SoakProfile::Quick;
        for part in s.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad case field {part:?}"))?;
            match k.trim() {
                "seed" => seed = Some(v.parse::<u64>().map_err(|e| e.to_string())?),
                "clients" => clients = Some(v.parse::<usize>().map_err(|e| e.to_string())?),
                "rounds" => rounds = Some(v.parse::<usize>().map_err(|e| e.to_string())?),
                "windows" => {
                    let mut idx = Vec::new();
                    for w in v.split(';').filter(|w| !w.is_empty()) {
                        idx.push(w.parse::<usize>().map_err(|e| e.to_string())?);
                    }
                    windows = Some(idx);
                }
                "salt" => salt = v.parse::<u64>().map_err(|e| e.to_string())?,
                "profile" => {
                    profile = match v.trim() {
                        "quick" => SoakProfile::Quick,
                        "long" => SoakProfile::Long,
                        "lease" => SoakProfile::Lease,
                        other => return Err(format!("unknown profile {other:?}")),
                    }
                }
                other => return Err(format!("unknown case field {other:?}")),
            }
        }
        let seed = seed.ok_or("case needs seed=")?;
        let full = SoakCase::from_seed_profile(seed, profile);
        Ok(SoakCase {
            seed,
            clients: clients.unwrap_or(full.clients),
            rounds: rounds.unwrap_or(full.rounds),
            windows: windows.unwrap_or(full.windows),
            salt,
            profile,
        })
    }
}

impl fmt::Display for SoakCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w: Vec<String> = self.windows.iter().map(|i| i.to_string()).collect();
        write!(
            f,
            "seed={},clients={},rounds={},windows={}",
            self.seed,
            self.clients,
            self.rounds,
            w.join(";")
        )?;
        if self.profile != SoakProfile::Quick {
            write!(f, ",profile={}", self.profile.tag())?;
        }
        if self.salt != 0 {
            write!(f, ",salt={}", self.salt)?;
        }
        Ok(())
    }
}

/// The fault windows a case keeps active (indices resolved against its
/// derived roster).
pub fn kept_windows(case: &SoakCase) -> Vec<WindowSpec> {
    let d = derive_world_for(case.seed, case.profile);
    case.windows
        .iter()
        .filter_map(|&i| d.windows.get(i).copied())
        .collect()
}

/// Drops replay anomalies that land near a server-crash window. The
/// duplicate-request cache is in-memory state: a crash legitimately
/// forgets it, so a retransmission re-executed across a reboot is
/// 4.3BSD behaviour, not a bug.
pub fn filter_crash_replays(kept: &[WindowSpec], violations: &mut Vec<Violation>) {
    let crash_spans: Vec<(u64, u64)> = kept
        .iter()
        .filter(|w| w.kind == WindowKind::Crash)
        .map(|w| {
            (
                (w.at_ms.saturating_sub(2_000)) * 1_000_000,
                (w.at_ms + w.dur_ms + 30_000) * 1_000_000,
            )
        })
        .collect();
    violations.retain(|v| match v {
        Violation::Replay { t, .. } => !crash_spans.iter().any(|&(s, e)| s <= *t && *t <= e),
        _ => true,
    });
}

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
    /// High-water mark of streaming-checker retained state (versions +
    /// pending reads): the memory bound, O(open window) not O(ops).
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
    /// always run under [`StreamConfig::for_lease_soak`], whose tighter
    /// grace is part of the lease contract being checked.
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

/// Per-client workload counters, classified at emission.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    ok: u64,
    taints: u64,
}

/// A client's handle on the shared streaming checker: classifies and
/// feeds each observation the moment it happens, and forwards watermark
/// heartbeats so idle clients never stall the merge.
struct ObsSink {
    oracle: Rc<RefCell<StreamingOracle>>,
    ci: usize,
    tally: Tally,
}

impl ObsSink {
    fn emit(&mut self, obs: Obs) {
        match &obs.kind {
            ObsKind::Created { outcome, .. } | ObsKind::Removed { outcome, .. } => match outcome {
                OpOutcome::Ok => self.tally.ok += 1,
                OpOutcome::Indeterminate => self.tally.taints += 1,
                OpOutcome::Status(_) => {}
            },
            ObsKind::Committed { certain, .. } => {
                if *certain {
                    self.tally.ok += 1;
                } else {
                    self.tally.taints += 1;
                }
            }
            ObsKind::Observed { .. } | ObsKind::Listed { .. } => self.tally.ok += 1,
            ObsKind::ReadFailed { .. } => {}
        }
        self.oracle.borrow_mut().feed(obs);
    }

    fn heartbeat(&self, t_ns: u64) {
        self.oracle.borrow_mut().heartbeat(self.ci, t_ns);
    }

    fn finish(self) -> Tally {
        self.oracle.borrow_mut().finish_client(self.ci);
        self.tally
    }
}

/// Deterministic per-(seed, client, file, round) content.
fn content(seed: u64, ci: usize, file: usize, round: usize, len: usize) -> Vec<u8> {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((ci as u64) << 32)
        .wrapping_add(((file as u64) << 16) | round as u64)
        | 1;
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        // xorshift64*
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let w = x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        let take = w.len().min(len - v.len());
        v.extend_from_slice(&w[..take]);
    }
    v
}

/// Fixed per-(seed, client, file) length, ≤ half a block so every file
/// is rewritten by a single atomic WRITE RPC.
fn file_len(seed: u64, ci: usize, file: usize) -> usize {
    512 + ((seed as usize).wrapping_mul(31) ^ ci.wrapping_mul(131) ^ file.wrapping_mul(977)) % 1536
}

fn outcome_of(e: &ClientError) -> OpOutcome {
    match e {
        ClientError::TimedOut => OpOutcome::Indeterminate,
        // A protocol-level failure means the reply never parsed; like a
        // timeout, the server may or may not have executed the call.
        ClientError::Protocol => OpOutcome::Indeterminate,
        ClientError::Stale => OpOutcome::Status("Stale".to_string()),
        ClientError::Nfs(s) => OpOutcome::Status(format!("{s:?}")),
    }
}

fn status_of(e: &ClientError) -> String {
    match e {
        ClientError::TimedOut => "TimedOut".to_string(),
        ClientError::Protocol => "Protocol".to_string(),
        ClientError::Stale => "Stale".to_string(),
        ClientError::Nfs(s) => format!("{s:?}"),
    }
}

/// The cross-read phase of one workload round: sleep to the given
/// slot (if it has not already passed), then read neighbours'
/// files end to end, logging observed contents or failures.
#[allow(clippy::too_many_arguments)]
fn cross_reads<S: Syscalls>(
    fs: &mut RouterFs<S>,
    log: &mut ObsSink,
    rng: &mut Rng,
    read_at: SimTime,
    ci: usize,
    nclients: usize,
    servers: usize,
    files: usize,
) {
    let now = fs.now();
    if read_at > now {
        fs.sleep(read_at.since(now));
        log.heartbeat(fs.now().as_nanos());
    }
    let neighbours = 2.min(nclients.saturating_sub(1)).max(
        // A lone client reads its own files back.
        usize::from(nclients == 1),
    );
    for k in 0..neighbours {
        let target = if nclients == 1 {
            ci
        } else {
            (ci + 1 + k) % nclients
        };
        let f = rng.index(files);
        let path = format!("{}/f{f}", home_dir(target, servers));
        let t_open = fs.now().as_nanos();
        match fs.open(&path, false, false) {
            Ok(fh) => {
                match fs.read(fh, 0, 8192) {
                    Ok(bytes) => log.emit(Obs {
                        client: ci,
                        t_start: t_open,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Observed {
                            path: path.clone(),
                            len: bytes.len(),
                            fnv: fnv1a(&bytes),
                        },
                    }),
                    Err(e) => log.emit(Obs {
                        client: ci,
                        t_start: t_open,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::ReadFailed {
                            path: path.clone(),
                            status: status_of(&e),
                        },
                    }),
                }
                let _ = fs.close(fh);
            }
            Err(e) => log.emit(Obs {
                client: ci,
                t_start: t_open,
                t_done: fs.now().as_nanos(),
                kind: ObsKind::ReadFailed {
                    path: path.clone(),
                    status: status_of(&e),
                },
            }),
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
    let kept: Vec<WindowSpec> = case
        .windows
        .iter()
        .filter_map(|&i| derived.windows.get(i).copied())
        .collect();
    let mut plan = FaultPlan::new();
    for w in &kept {
        plan = w.add_to(plan);
    }

    let mut cfg = WorldConfig::baseline();
    cfg.topology = derived.topo.1;
    cfg.transport = derived.transport.1.clone();
    cfg.background = Background::quiet();
    cfg.clients = case.clients;
    cfg.nfsds = derived.nfsds;
    cfg.servers = derived.servers;
    let lease = case.profile == SoakProfile::Lease;
    cfg.server.dup_cache = mutation != Mutation::NoDupCache;
    cfg.server.leases = lease;
    cfg.server.lease_no_reboot_grace = mutation == Mutation::NoRebootGrace;
    cfg.faults = plan;
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
        .map(|sj| world.root_handle_of(sj))
        .collect();
    let map = ExportMap::fleet(derived.servers);
    let (tx, rx) = channel();
    let nclients = case.clients;
    let servers = derived.servers;
    let rounds = case.rounds;
    let files = derived.files;
    let temps = derived.temps;
    let seed = case.seed;
    let stream = if lease {
        StreamConfig::for_lease_soak()
    } else {
        opts.stream
    };
    let mut checker = StreamingOracle::new(nclients, stream);
    if opts.capture {
        checker = checker.with_capture();
    }
    let oracle = Rc::new(RefCell::new(checker));
    for ci in 0..nclients {
        let tx = tx.clone();
        let oracle = Rc::clone(&oracle);
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
            let mut log = ObsSink {
                oracle,
                ci,
                tally: Tally::default(),
            };
            let dir = home_dir(ci, servers);

            // Setup: the client's own directory and data files.
            let t0 = fs.now().as_nanos();
            let mk = fs.mkdir(&dir);
            log.emit(Obs {
                client: ci,
                t_start: t0,
                t_done: fs.now().as_nanos(),
                kind: ObsKind::Created {
                    path: dir.clone(),
                    outcome: mk.map(|_| OpOutcome::Ok).unwrap_or_else(|e| outcome_of(&e)),
                },
            });

            for r in 0..rounds {
                let base = SimTime::from_secs(SETUP + r as u64 * ROUND);
                let now = fs.now();
                if base > now {
                    fs.sleep(base.since(now));
                    log.heartbeat(fs.now().as_nanos());
                }
                let mut rng = Rng::new(
                    point_seed(0x50AC, seed as usize, 2).wrapping_add((ci as u64) << 8 | r as u64),
                );
                // Non-idempotent create/remove pairs are spread across
                // the whole round (offsets drawn first, executed in
                // order), so a fault window anywhere in the timeline
                // lands on some client's dup-cache-critical RPC.
                let mut temp_offs: Vec<(u64, usize)> = (0..temps)
                    .map(|t| (500 + rng.gen_range(0, ROUND * 1000 - 1500), t))
                    .collect();
                temp_offs.sort_unstable();

                // Write phase: rewrite every owned file in place. In
                // lease worlds the close is write-behind — data stays
                // dirty in the client cache — so the durability claim
                // (Committed) is deferred until the explicit flush
                // below, with t_start preserved at close time.
                let mut behind: Vec<(String, usize, u64, u64, bool)> = Vec::new();
                for f in 0..files {
                    let path = format!("{dir}/f{f}");
                    let len = file_len(seed, ci, f);
                    let data = content(seed, ci, f, r, len);
                    let t_open = fs.now().as_nanos();
                    let opened = fs.open(&path, true, false);
                    log.emit(Obs {
                        client: ci,
                        t_start: t_open,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Created {
                            path: path.clone(),
                            outcome: opened
                                .as_ref()
                                .map(|_| OpOutcome::Ok)
                                .unwrap_or_else(outcome_of),
                        },
                    });
                    let Ok(fh) = opened else { continue };
                    let t_close = fs.now().as_nanos();
                    let wrote = fs.write(fh, 0, &data);
                    let closed = fs.close(fh);
                    if lease {
                        behind.push((
                            path.clone(),
                            len,
                            fnv1a(&data),
                            t_close,
                            wrote.is_ok() && closed.is_ok(),
                        ));
                        continue;
                    }
                    let t_done = fs.now().as_nanos();
                    let certain = wrote.is_ok() && closed.is_ok();
                    log.emit(Obs {
                        client: ci,
                        t_start: t_close,
                        t_done,
                        kind: ObsKind::Committed {
                            path: path.clone(),
                            len,
                            fnv: fnv1a(&data),
                            certain,
                        },
                    });
                    // A close failing with a *status* (not a timeout)
                    // means the flush hit an error even recovery could
                    // not absorb; record it so durable loss is flagged.
                    if let Err(e @ (ClientError::Stale | ClientError::Nfs(_))) = &closed {
                        log.emit(Obs {
                            client: ci,
                            t_start: t_close,
                            t_done,
                            kind: ObsKind::ReadFailed {
                                path: path.clone(),
                                status: status_of(e),
                            },
                        });
                    }
                }
                if lease {
                    // Push the round's write-behind data before any
                    // sleep: neighbours read at the +4s slot and the
                    // tightened oracle grace does not excuse data that
                    // never left the client.
                    let flushed = fs.flush_idle();
                    let t_done = fs.now().as_nanos();
                    for (path, len, fnv, t_close, ok) in behind.drain(..) {
                        log.emit(Obs {
                            client: ci,
                            t_start: t_close,
                            t_done,
                            kind: ObsKind::Committed {
                                path,
                                len,
                                fnv,
                                certain: ok && flushed.is_ok(),
                            },
                        });
                    }
                }

                // Interleave the spread-out non-idempotent pairs with
                // the cross-read phase at its fixed slot.
                let read_ms = READ_SLOT * 1000;
                let mut read_done = false;
                let read_at = base + SimDuration::from_secs(READ_SLOT);
                for &(off, t) in &temp_offs {
                    if off >= read_ms && !read_done {
                        cross_reads(
                            &mut fs, &mut log, &mut rng, read_at, ci, nclients, servers, files,
                        );
                        read_done = true;
                    }
                    let at = base + SimDuration::from_millis(off);
                    let now = fs.now();
                    if at > now {
                        fs.sleep(at.since(now));
                        log.heartbeat(fs.now().as_nanos());
                    }
                    let path = format!("{dir}/t{r}x{t}");
                    let t_open = fs.now().as_nanos();
                    let opened = fs.open(&path, true, false);
                    log.emit(Obs {
                        client: ci,
                        t_start: t_open,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Created {
                            path: path.clone(),
                            outcome: opened
                                .as_ref()
                                .map(|_| OpOutcome::Ok)
                                .unwrap_or_else(outcome_of),
                        },
                    });
                    if let Ok(fh) = opened {
                        let _ = fs.close(fh);
                    }
                    let t_rm = fs.now().as_nanos();
                    let removed = fs.remove(&path);
                    log.emit(Obs {
                        client: ci,
                        t_start: t_rm,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Removed {
                            path: path.clone(),
                            outcome: removed
                                .map(|_| OpOutcome::Ok)
                                .unwrap_or_else(|e| outcome_of(&e)),
                        },
                    });
                }
                if !read_done {
                    cross_reads(
                        &mut fs, &mut log, &mut rng, read_at, ci, nclients, servers, files,
                    );
                }

                if lease {
                    // Late rewrite of f0 inside the round: readers
                    // still hold read leases from the +4s slot, so the
                    // write-lease reacquisition exercises the recall /
                    // vacate-wait path — and when a crash window lands
                    // here, the reboot grace is all that keeps this
                    // grant from conflicting with pre-crash leases.
                    let at = base + SimDuration::from_millis(5_000);
                    let now = fs.now();
                    if at > now {
                        fs.sleep(at.since(now));
                        log.heartbeat(fs.now().as_nanos());
                    }
                    let path = format!("{dir}/f0");
                    let len = file_len(seed, ci, 0);
                    // Round keys ≥ 0x40 never collide with the write
                    // phase's (rounds cap well below 64).
                    let data = content(seed, ci, 0, r + 0x40, len);
                    let t_open = fs.now().as_nanos();
                    let opened = fs.open(&path, true, false);
                    log.emit(Obs {
                        client: ci,
                        t_start: t_open,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Created {
                            path: path.clone(),
                            outcome: opened
                                .as_ref()
                                .map(|_| OpOutcome::Ok)
                                .unwrap_or_else(outcome_of),
                        },
                    });
                    if let Ok(fh) = opened {
                        let t_close = fs.now().as_nanos();
                        let wrote = fs.write(fh, 0, &data);
                        let closed = fs.close(fh);
                        let flushed = fs.flush_idle();
                        log.emit(Obs {
                            client: ci,
                            t_start: t_close,
                            t_done: fs.now().as_nanos(),
                            kind: ObsKind::Committed {
                                path,
                                len,
                                fnv: fnv1a(&data),
                                certain: wrote.is_ok() && closed.is_ok() && flushed.is_ok(),
                            },
                        });
                    }
                    // Second cross-read after the late rewrites: each
                    // client re-reads its neighbours' f0 under whatever
                    // read lease survives from the first pass.
                    cross_reads(
                        &mut fs,
                        &mut log,
                        &mut rng,
                        base + SimDuration::from_millis(6_500),
                        ci,
                        nclients,
                        servers,
                        1,
                    );
                }

                // Cross-shard churn (sharded worlds): create a file at
                // home, rename it into the next client's directory —
                // crossing shards whenever the two homes live on
                // different servers, which drives the router's
                // copy-and-remove rename — then remove it there. The
                // oracle sees the rename as a Removed/Created pair, so
                // exactly-once and namespace checks span exports.
                if servers > 1 && nclients > 1 {
                    let peer = (ci + 1) % nclients;
                    let from = format!("{dir}/x{r}");
                    let to = format!("{}/x{ci}r{r}", home_dir(peer, servers));
                    let t_mk = fs.now().as_nanos();
                    let opened = fs.open(&from, true, false);
                    log.emit(Obs {
                        client: ci,
                        t_start: t_mk,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Created {
                            path: from.clone(),
                            outcome: opened
                                .as_ref()
                                .map(|_| OpOutcome::Ok)
                                .unwrap_or_else(outcome_of),
                        },
                    });
                    if let Ok(fh) = opened {
                        let _ = fs.close(fh);
                        let t_mv = fs.now().as_nanos();
                        let renamed = fs.rename(&from, &to);
                        let t_done = fs.now().as_nanos();
                        match renamed {
                            Ok(()) => {
                                log.emit(Obs {
                                    client: ci,
                                    t_start: t_mv,
                                    t_done,
                                    kind: ObsKind::Removed {
                                        path: from.clone(),
                                        outcome: OpOutcome::Ok,
                                    },
                                });
                                log.emit(Obs {
                                    client: ci,
                                    t_start: t_mv,
                                    t_done,
                                    kind: ObsKind::Created {
                                        path: to.clone(),
                                        outcome: OpOutcome::Ok,
                                    },
                                });
                                let t_rm = fs.now().as_nanos();
                                let removed = fs.remove(&to);
                                log.emit(Obs {
                                    client: ci,
                                    t_start: t_rm,
                                    t_done: fs.now().as_nanos(),
                                    kind: ObsKind::Removed {
                                        path: to.clone(),
                                        outcome: removed
                                            .map(|_| OpOutcome::Ok)
                                            .unwrap_or_else(|e| outcome_of(&e)),
                                    },
                                });
                            }
                            Err(_) => {
                                // A failed cross-shard rename is a
                                // multi-RPC sequence: the copy may have
                                // landed and the source may or may not
                                // be gone. Both sides are indeterminate.
                                log.emit(Obs {
                                    client: ci,
                                    t_start: t_mv,
                                    t_done,
                                    kind: ObsKind::Removed {
                                        path: from.clone(),
                                        outcome: OpOutcome::Indeterminate,
                                    },
                                });
                                log.emit(Obs {
                                    client: ci,
                                    t_start: t_mv,
                                    t_done,
                                    kind: ObsKind::Created {
                                        path: to.clone(),
                                        outcome: OpOutcome::Indeterminate,
                                    },
                                });
                            }
                        }
                    }
                }

                // List the home directory: durable files must appear.
                let t_ls = fs.now().as_nanos();
                if let Ok(entries) = fs.readdir(&dir) {
                    log.emit(Obs {
                        client: ci,
                        t_start: t_ls,
                        t_done: fs.now().as_nanos(),
                        kind: ObsKind::Listed {
                            dir: dir.clone(),
                            names: entries.into_iter().map(|e| e.name).collect(),
                        },
                    });
                }
            }
            let _ = tx.send((ci, log.finish()));
        });
    }
    drop(tx);
    world.run();

    let mut ok_ops = 0u64;
    let mut taints = 0u64;
    while let Ok((_, tally)) = rx.recv() {
        ok_ops += tally.ok;
        taints += tally.taints;
    }
    let checker = Rc::into_inner(oracle).expect("every client feed finished");
    let stream_out = checker.into_inner().finish();
    let mut violations = stream_out.violations;
    filter_crash_replays(&kept, &mut violations);

    let net = world.net_stats();
    // Fleet-wide server counters: every shard contributes.
    let mut garbage = 0u64;
    let mut dup_hits = 0u64;
    let mut leases = LeaseCounts::default();
    for sj in 0..world.server_count() {
        let s = world.server_of(sj).stats();
        garbage += s.garbage;
        dup_hits += s.dup_hits;
        leases += s.leases;
    }
    CaseOutcome {
        violations,
        observations: stream_out.stats.processed as usize,
        ok_ops,
        taints,
        corrupted_frames: net.corrupted_frames,
        checksum_drops: net.checksum_drops,
        garbage,
        dup_hits,
        leases,
        peak_retained: stream_out.stats.peak_retained,
        retired: stream_out.stats.retired,
        full_log: stream_out.log,
    }
}

/// Salts the shrinker may try per reduced candidate. Dropping a client
/// reshuffles every frame-level coin flip, so a violation that needed a
/// rare loss/duplication coincidence usually vanishes at the original
/// salt; re-rolling the packet RNG (same topology, same fault windows)
/// recovers it often enough to keep shrinking.
const SHRINK_SALTS: u64 = 48;

/// Shrinks a violating case to a local minimum: fewer clients (searching
/// a bounded salt range per candidate count), then a greedy pass
/// dropping fault windows, then fewer rounds — keeping each reduction
/// only if *a* violation still reproduces, and iterating the passes to a
/// fixpoint. The result is deterministic: the search order is fixed, so
/// the same violating case always shrinks to the same minimal repro.
pub fn shrink(case: &SoakCase, mutation: Mutation) -> SoakCase {
    let violates = |c: &SoakCase| !run_case(c, mutation).violations.is_empty();
    // Tries a candidate at its inherited salt first (the most faithful
    // reduction), then the rest of the salt range; returns the first
    // violating variant. The order is fixed, so shrinking is
    // deterministic.
    let search = |cand: &SoakCase| -> Option<SoakCase> {
        let mut c = cand.clone();
        if violates(&c) {
            return Some(c);
        }
        for salt in 0..SHRINK_SALTS {
            if salt == cand.salt {
                continue;
            }
            c.salt = salt;
            if violates(&c) {
                return Some(c);
            }
        }
        None
    };
    let mut best = case.clone();
    loop {
        let before = best.clone();
        // Fewer clients, smallest count first.
        for clients in 1..best.clients {
            if let Some(c) = search(&SoakCase {
                clients,
                ..best.clone()
            }) {
                best = c;
                break;
            }
        }
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
        for rounds in 1..best.rounds {
            if let Some(c) = search(&SoakCase {
                rounds,
                ..best.clone()
            }) {
                best = c;
                break;
            }
        }
        if best == before {
            return best;
        }
    }
}

/// One row of the soak report.
#[derive(Clone, Debug)]
pub struct SoakRow {
    /// The seed.
    pub seed: u64,
    /// Clients in the world.
    pub clients: usize,
    /// nfsd pool width.
    pub nfsds: usize,
    /// Servers in the fleet.
    pub servers: usize,
    /// Topology label.
    pub topo: String,
    /// Transport label.
    pub transport: String,
    /// Mount semantics.
    pub mount: &'static str,
    /// Rounds run.
    pub rounds: usize,
    /// Fault-window kinds, joined.
    pub faults: String,
    /// Successful client operations.
    pub ops: u64,
    /// Indeterminate outcomes.
    pub taints: u64,
    /// Frames damaged by corruption windows.
    pub corrupted: u64,
    /// Checksum drops at receivers.
    pub checksum_drops: u64,
    /// Garbled calls the server discarded.
    pub garbage: u64,
    /// Oracle violations.
    pub violations: usize,
    /// Server lease counters — all zero outside lease worlds.
    pub lease: LeaseCounts,
}

/// The soak report: one row per seed, plus the shrunk repro for the
/// first violating seed (if any).
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-seed rows, in seed order.
    pub rows: Vec<SoakRow>,
    /// First violating seed's violations (display capped).
    pub first_violations: Vec<String>,
    /// The shrunk minimal case, if anything violated.
    pub shrunk: Option<SoakCase>,
    /// The world recipe the seeds ran through: lease reports render
    /// extra lease-traffic columns.
    pub profile: SoakProfile,
}

impl SoakReport {
    /// Total violations across all seeds.
    pub fn total_violations(&self) -> usize {
        self.rows.iter().map(|r| r.violations).sum()
    }
}

impl SoakReport {
    /// The lease-profile render: drops the corruption bookkeeping
    /// columns in favour of the server's lease traffic, so a soak table
    /// shows at a glance whether leases were actually exercised
    /// (issued/recalled/expired) in the worlds that came back clean.
    fn fmt_lease(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Soak (lease profile): NQNFS lease worlds checked against the \
             sequential oracle (grace {} ms — tighter than the {} ms lease \
             term, so stale cache past a term is a violation)",
            StreamConfig::for_lease_soak().grace / 1_000_000,
            renofs::proto::LEASE_TERM_MS,
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut v = vec![
                    format!("{}", r.seed),
                    format!("{}", r.clients),
                    format!("{}", r.nfsds),
                    r.topo.clone(),
                    r.transport.clone(),
                    format!("{}", r.rounds),
                    r.faults.clone(),
                    format!("{}", r.ops),
                    format!("{}", r.taints),
                ];
                let l = r.lease;
                let counts = [l.issued, l.renewed, l.recalls, l.vacate_waits, l.expiries];
                v.extend(counts.map(|c| format!("{c}")));
                v.push(format!("{}", r.violations));
                v
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "seed",
                    "N",
                    "nfsd",
                    "config",
                    "transport",
                    "rnds",
                    "faults",
                    "ops",
                    "taint",
                    "issued",
                    "renew",
                    "recall",
                    "vacate",
                    "expire",
                    "viol"
                ],
                &rows
            )
        )?;
        let total: u64 = self.rows.iter().map(|r| r.ops).sum();
        writeln!(
            f,
            "checked {} lease worlds: {} successful ops, {} violations",
            self.rows.len(),
            total,
            self.total_violations()
        )?;
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "ORACLE VIOLATIONS (first violating seed):")?;
            for v in &self.first_violations {
                writeln!(f, "  {v}")?;
            }
            writeln!(f, "minimal repro: repro soak --case \"{shrunk}\"")?;
        }
        Ok(())
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.profile == SoakProfile::Lease {
            return self.fmt_lease(f);
        }
        writeln!(
            f,
            "Soak: randomized chaos worlds checked against the sequential \
             oracle (grace {} ms)",
            GRACE_NS / 1_000_000
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.seed),
                    format!("{}", r.clients),
                    format!("{}", r.nfsds),
                    format!("{}", r.servers),
                    r.topo.clone(),
                    r.transport.clone(),
                    r.mount.to_string(),
                    format!("{}", r.rounds),
                    r.faults.clone(),
                    format!("{}", r.ops),
                    format!("{}", r.taints),
                    format!("{}", r.corrupted),
                    format!("{}", r.checksum_drops),
                    format!("{}", r.garbage),
                    format!("{}", r.violations),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "seed",
                    "N",
                    "nfsd",
                    "M",
                    "config",
                    "transport",
                    "mount",
                    "rnds",
                    "faults",
                    "ops",
                    "taint",
                    "corrupt",
                    "ckdrop",
                    "garb",
                    "viol"
                ],
                &rows
            )
        )?;
        let total: u64 = self.rows.iter().map(|r| r.ops).sum();
        writeln!(
            f,
            "checked {} worlds: {} successful ops, {} violations",
            self.rows.len(),
            total,
            self.total_violations()
        )?;
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "ORACLE VIOLATIONS (first violating seed):")?;
            for v in &self.first_violations {
                writeln!(f, "  {v}")?;
            }
            writeln!(f, "minimal repro: repro soak --case \"{shrunk}\"")?;
        }
        Ok(())
    }
}

/// One seed's row: its world's shape and the outcome of running it.
fn soak_row(seed: u64, d: &DerivedWorld, outcome: &CaseOutcome) -> SoakRow {
    SoakRow {
        seed,
        clients: d.clients,
        nfsds: d.nfsds,
        servers: d.servers,
        topo: d.topo.0.to_string(),
        transport: d.transport.0.to_string(),
        mount: if d.soft { "soft" } else { "hard" },
        rounds: d.rounds,
        faults: fault_kinds(d),
        ops: outcome.ok_ops,
        taints: outcome.taints,
        corrupted: outcome.corrupted_frames,
        checksum_drops: outcome.checksum_drops,
        garbage: outcome.garbage,
        violations: outcome.violations.len(),
        lease: outcome.leases,
    }
}

/// Runs seeds `first..first + count` through [`run_case`], in parallel,
/// then shrinks the first violating seed (if any) sequentially.
pub fn soak_with(scale: &Scale, first: u64, count: usize, mutation: Mutation) -> SoakReport {
    soak_profile_with(scale, first, count, mutation, SoakProfile::Quick)
}

/// [`soak_with`] under an explicit world recipe: `repro soak --lease`
/// runs the same sweep-shrink loop over lease worlds.
pub fn soak_profile_with(
    scale: &Scale,
    first: u64,
    count: usize,
    mutation: Mutation,
    profile: SoakProfile,
) -> SoakReport {
    let seeds: Vec<u64> = (first..first + count as u64).collect();
    let rows = run_jobs(&seeds, scale.jobs, |&seed| {
        let case = SoakCase::from_seed_profile(seed, profile);
        let d = derive_world_for(seed, profile);
        let outcome = run_case(&case, mutation);
        soak_row(seed, &d, &outcome)
    });
    let first_bad = rows.iter().find(|r| r.violations > 0).map(|r| r.seed);
    let (first_violations, shrunk) = match first_bad {
        Some(seed) => {
            let case = SoakCase::from_seed_profile(seed, profile);
            let outcome = run_case(&case, mutation);
            let msgs = outcome
                .violations
                .iter()
                .take(5)
                .map(|v| v.to_string())
                .collect();
            (msgs, Some(shrink(&case, mutation)))
        }
        None => (Vec::new(), None),
    };
    SoakReport {
        rows,
        first_violations,
        shrunk,
        profile,
    }
}

/// Renders one case for `repro soak --case`: the derived world shape,
/// the headline counters, and every violation. Returns the report text
/// and whether the case violated (for the caller's exit status).
pub fn replay_report(case: &SoakCase) -> (String, bool) {
    use fmt::Write as _;
    let d = derive_world_for(case.seed, case.profile);
    let out = run_case(case, Mutation::None);
    let mut s = String::new();
    let _ = writeln!(s, "Soak case replay: {case}");
    let winlist: Vec<String> = case
        .windows
        .iter()
        .filter_map(|&i| d.windows.get(i))
        .map(|w| format!("{}@{}ms+{}ms", w.label(), w.at_ms, w.dur_ms))
        .collect();
    let _ = writeln!(
        s,
        "world: {} clients, {} rounds, {} / {}, nfsd={}, {} server(s), {} mount, faults [{}]",
        case.clients,
        case.rounds,
        d.topo.0,
        d.transport.0,
        d.nfsds,
        d.servers,
        if d.soft { "soft" } else { "hard" },
        winlist.join(", ")
    );
    let _ = writeln!(
        s,
        "ops={} taints={} corrupted={} checksum_drops={} garbage={} dup_hits={}",
        out.ok_ops, out.taints, out.corrupted_frames, out.checksum_drops, out.garbage, out.dup_hits
    );
    if out.violations.is_empty() {
        let _ = writeln!(s, "no oracle violations");
    } else {
        let _ = writeln!(s, "ORACLE VIOLATIONS:");
        for v in &out.violations {
            let _ = writeln!(s, "  {v}");
        }
    }
    (s, !out.violations.is_empty())
}

/// The `repro soak` entry point: the default seed range for the scale.
pub fn soak(scale: &Scale) -> SoakReport {
    let quick = scale.duration < SimDuration::from_secs(5 * 60);
    let count = if quick { QUICK_SEEDS } else { PAPER_SEEDS };
    soak_with(scale, 0, count, Mutation::None)
}

/// Stop conditions for [`soak_budget`], the `--duration`/`--max-ops`/
/// `--long` certification mode.
#[derive(Clone, Copy, Debug)]
pub struct BudgetOpts {
    /// Stop once this much wall-clock has elapsed (checked between
    /// world batches; the running batch finishes).
    pub wall_limit: Option<Duration>,
    /// Stop once this many observations have been checked.
    pub max_ops: Option<u64>,
    /// Hard cap on seeds run.
    pub max_seeds: usize,
    /// World recipe.
    pub profile: SoakProfile,
}

/// One row of the budget-mode report: the legacy columns plus the
/// streaming-checker memory bound and wall-clock throughput.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    /// The legacy per-seed row.
    pub row: SoakRow,
    /// Streaming-checker retained-state high-water mark.
    pub peak_retained: usize,
    /// Wall-clock seconds this world took.
    pub wall: f64,
    /// Observations checked per wall-clock second.
    pub obs_per_sec: f64,
}

/// Why a budget soak stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetStop {
    /// Ran every seed up to the cap.
    Seeds,
    /// Wall-clock budget exhausted.
    Duration,
    /// Observation budget exhausted.
    Ops,
    /// Fail-fast on the first violating world.
    Violation,
}

impl BudgetStop {
    fn describe(&self) -> &'static str {
        match self {
            BudgetStop::Seeds => "seed cap reached",
            BudgetStop::Duration => "wall-clock budget reached",
            BudgetStop::Ops => "observation budget reached",
            BudgetStop::Violation => "stopped at first violation (fail-fast)",
        }
    }
}

/// The budget-mode report: extended rows, totals, and the shrunk repro
/// if the run failed fast.
#[derive(Clone, Debug)]
pub struct BudgetReport {
    /// Per-seed rows, in seed order.
    pub rows: Vec<BudgetRow>,
    /// Observations checked across all worlds.
    pub observations: u64,
    /// Total wall-clock seconds.
    pub elapsed: f64,
    /// Why the run stopped.
    pub stopped: BudgetStop,
    /// World recipe used.
    pub profile: SoakProfile,
    /// First violating seed's violations (display capped).
    pub first_violations: Vec<String>,
    /// The shrunk minimal case, if anything violated.
    pub shrunk: Option<SoakCase>,
}

impl BudgetReport {
    /// Whether any world violated (the caller's exit status).
    pub fn violated(&self) -> bool {
        self.rows.iter().any(|r| r.row.violations > 0)
    }
}

impl fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Soak ({} profile, streaming oracle, grace {} ms): budget run",
            self.profile.tag(),
            GRACE_NS / 1_000_000
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|b| {
                let r = &b.row;
                vec![
                    format!("{}", r.seed),
                    format!("{}", r.clients),
                    format!("{}", r.nfsds),
                    format!("{}", r.servers),
                    r.topo.clone(),
                    r.transport.clone(),
                    r.mount.to_string(),
                    format!("{}", r.rounds),
                    r.faults.clone(),
                    format!("{}", r.ops),
                    format!("{}", r.taints),
                    format!("{}", r.violations),
                    format!("{}", b.peak_retained),
                    format!("{:.2}", b.wall),
                    format!("{:.0}", b.obs_per_sec),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "seed",
                    "N",
                    "nfsd",
                    "M",
                    "config",
                    "transport",
                    "mount",
                    "rnds",
                    "faults",
                    "ops",
                    "taint",
                    "viol",
                    "peak",
                    "wall(s)",
                    "obs/s"
                ],
                &rows
            )
        )?;
        let peak = self.rows.iter().map(|b| b.peak_retained).max().unwrap_or(0);
        writeln!(
            f,
            "checked {} worlds in {:.1}s: {} observations, peak retained {}, \
             {} violations — {}",
            self.rows.len(),
            self.elapsed,
            self.observations,
            peak,
            self.rows.iter().map(|b| b.row.violations).sum::<usize>(),
            self.stopped.describe()
        )?;
        if let Some(shrunk) = &self.shrunk {
            writeln!(f, "ORACLE VIOLATIONS (first violating seed):")?;
            for v in &self.first_violations {
                writeln!(f, "  {v}")?;
            }
            writeln!(f, "minimal repro: repro soak --case \"{shrunk}\"")?;
        }
        Ok(())
    }
}

/// Builds the legacy row labels for a derived world.
fn fault_kinds(d: &DerivedWorld) -> String {
    let mut kinds: Vec<&'static str> = Vec::new();
    for w in &d.windows {
        if !kinds.contains(&w.label()) {
            kinds.push(w.label());
        }
    }
    kinds.join("+")
}

/// The budget/certification soak: runs seeds in `--jobs`-sized batches
/// until a wall-clock, observation, or seed budget is exhausted —
/// heartbeating progress to stderr every few seconds — and **fails
/// fast** on the first violating world (the auto-shrinker still runs on
/// it). Wall-clock columns are inherently nondeterministic, which is
/// why this mode has its own report and the golden-pinned quick render
/// is untouched.
pub fn soak_budget(scale: &Scale, opts: &BudgetOpts) -> BudgetReport {
    let start = Instant::now();
    let mut last_beat = Instant::now();
    let mut rows: Vec<BudgetRow> = Vec::new();
    let mut observations = 0u64;
    let mut stopped = BudgetStop::Seeds;
    let mut first_bad: Option<(u64, Vec<Violation>)> = None;
    let jobs = scale.jobs.max(1);
    let mut next_seed = 0u64;
    while (next_seed as usize) < opts.max_seeds && first_bad.is_none() {
        let end = (next_seed + jobs as u64).min(opts.max_seeds as u64);
        let batch: Vec<u64> = (next_seed..end).collect();
        next_seed = end;
        let profile = opts.profile;
        let outs = run_jobs(&batch, jobs, |&seed| {
            let case = SoakCase::from_seed_profile(seed, profile);
            let t0 = Instant::now();
            let out = run_case(&case, Mutation::None);
            (seed, out, t0.elapsed().as_secs_f64())
        });
        for (seed, out, wall) in outs {
            let d = derive_world_for(seed, profile);
            observations += out.observations as u64;
            let obs_per_sec = if wall > 0.0 {
                out.observations as f64 / wall
            } else {
                0.0
            };
            let bad = !out.violations.is_empty();
            rows.push(BudgetRow {
                row: soak_row(seed, &d, &out),
                peak_retained: out.peak_retained,
                wall,
                obs_per_sec,
            });
            if bad && first_bad.is_none() {
                first_bad = Some((seed, out.violations.clone()));
            }
        }
        if last_beat.elapsed() >= Duration::from_secs(5) {
            last_beat = Instant::now();
            eprintln!(
                "[soak] {:.0}s elapsed: {} worlds, {} observations, {} violations",
                start.elapsed().as_secs_f64(),
                rows.len(),
                observations,
                rows.iter().map(|b| b.row.violations).sum::<usize>()
            );
        }
        if first_bad.is_some() {
            stopped = BudgetStop::Violation;
        } else if opts
            .wall_limit
            .is_some_and(|limit| start.elapsed() >= limit)
        {
            stopped = BudgetStop::Duration;
            break;
        } else if opts.max_ops.is_some_and(|cap| observations >= cap) {
            stopped = BudgetStop::Ops;
            break;
        }
    }
    let (first_violations, shrunk) = match first_bad {
        Some((seed, violations)) => {
            eprintln!("[soak] seed {seed} violated; shrinking...");
            let case = SoakCase::from_seed_profile(seed, opts.profile);
            let msgs = violations.iter().take(5).map(|v| v.to_string()).collect();
            (msgs, Some(shrink(&case, Mutation::None)))
        }
        None => (Vec::new(), None),
    };
    BudgetReport {
        rows,
        observations,
        elapsed: start.elapsed().as_secs_f64(),
        stopped,
        profile: opts.profile,
        first_violations,
        shrunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_a_pure_function_of_the_seed() {
        for seed in 0..50 {
            let a = derive_world(seed);
            let b = derive_world(seed);
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.windows, b.windows);
            assert!((2..=5).contains(&a.clients));
            assert!((3..=5).contains(&a.rounds));
            assert!((1..=4).contains(&a.windows.len()));
            for w in &a.windows {
                assert!(w.at_ms >= SETUP * 1000, "{w:?}");
            }
        }
    }

    #[test]
    fn case_roundtrips_through_the_cli_encoding() {
        let mut case = SoakCase::from_seed(17);
        case.clients = 1;
        case.windows = vec![0, 2];
        let s = case.to_string();
        assert_eq!(SoakCase::parse(&s).unwrap(), case);
        // Omitted fields fall back to the derived values.
        let partial = SoakCase::parse("seed=17").unwrap();
        assert_eq!(partial, SoakCase::from_seed(17));
        assert!(SoakCase::parse("clients=2").is_err());
        assert!(SoakCase::parse("seed=17,bogus=1").is_err());
        // An empty windows list parses (a fault-free world).
        let none = SoakCase::parse("seed=17,windows=").unwrap();
        assert!(none.windows.is_empty());
        // A nonzero salt survives the roundtrip; zero stays implicit.
        case.salt = 7;
        assert!(case.to_string().contains("salt=7"));
        assert_eq!(SoakCase::parse(&case.to_string()).unwrap(), case);
        assert_eq!(SoakCase::parse("seed=17").unwrap().salt, 0);
    }

    #[test]
    fn a_handful_of_seeds_soak_clean() {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        let r = soak_with(&scale, 0, 6, Mutation::None);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.total_violations(), 0, "{r}");
        assert!(r.shrunk.is_none());
        for row in &r.rows {
            assert!(row.ops > 0, "{row:?}");
        }
        // The seed mix exercises the corruption path somewhere.
        assert!(
            r.rows.iter().any(|row| row.faults.contains("corrupt")),
            "expected at least one corrupt window in the first seeds"
        );
    }

    #[test]
    fn lease_worlds_soak_clean_and_exercise_leases() {
        let mut scale = Scale::quick();
        scale.jobs = 2;
        let r = soak_profile_with(&scale, 0, 4, Mutation::None, SoakProfile::Lease);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.total_violations(), 0, "{r}");
        assert!(r.shrunk.is_none());
        for row in &r.rows {
            assert!(row.ops > 0, "{row:?}");
            assert_eq!(row.mount, "hard", "lease worlds are hard mounts only");
            assert!(row.lease.issued > 0, "no leases issued: {row:?}");
        }
        // The sweep hits lease contention somewhere: recalls, deferred
        // grants, or server-side expiry of unreleased terms.
        assert!(
            r.rows.iter().any(|row| row.lease.recalls > 0
                || row.lease.vacate_waits > 0
                || row.lease.expiries > 0),
            "no lease contention anywhere in the sweep: {r}"
        );
        // The lease render carries the lease-traffic columns.
        assert!(r.to_string().contains("recall"), "{r}");
    }

    #[test]
    fn lease_case_roundtrips_and_derivation_is_pure() {
        let case = SoakCase::from_seed_profile(3, SoakProfile::Lease);
        let s = case.to_string();
        assert!(s.contains("profile=lease"), "{s}");
        assert_eq!(SoakCase::parse(&s).unwrap(), case);
        for seed in 0..32 {
            let a = derive_lease_world(seed);
            let b = derive_lease_world(seed);
            assert_eq!(a.windows, b.windows);
            assert!(!a.soft, "lease worlds must mount hard");
            for w in &a.windows {
                if w.kind == WindowKind::Partition {
                    assert!(w.dur_ms < 2_500, "partition outlives the term: {w:?}");
                }
            }
        }
    }
}

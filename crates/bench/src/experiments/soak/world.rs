//! What a seed names: the world recipe, its fault windows, and the
//! `--case` grammar that picks a sub-world of it.

use std::fmt;

use renofs::{TopologyKind, TransportKind};
use renofs_netsim::FaultPlan;
use renofs_oracle::{StreamConfig, Violation};
use renofs_sim::{Rng, SimDuration, SimTime};

use super::{ROUND, SETUP};
use crate::runner::point_seed;

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
    fn crash(at_ms: u64, dur_ms: u64) -> Self {
        WindowSpec {
            kind: WindowKind::Crash,
            at_ms,
            dur_ms,
            prob: 0.0,
            delay_ms: 0,
        }
    }

    pub(super) fn label(&self) -> &'static str {
        // In `WindowKind` order.
        ["part", "loss", "dup", "reord", "delay", "crash", "corrupt"][self.kind as usize]
    }

    pub(super) fn add_to(&self, plan: FaultPlan) -> FaultPlan {
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
    /// server `ci % servers`; clients mount through
    /// [`renofs::RouterFs`]).
    pub servers: usize,
    /// Mount semantics.
    pub soft: bool,
    /// The full fault-window roster.
    pub windows: Vec<WindowSpec>,
}

/// Which world-generation recipe a soak case uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SoakProfile {
    /// The original recipe: small worlds, minutes of virtual time. The
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
    pub(super) fn tag(&self) -> &'static str {
        match self {
            SoakProfile::Quick => "quick",
            SoakProfile::Long => "long",
            SoakProfile::Lease => "lease",
        }
    }

    /// The checker windows this profile's worlds run under: lease
    /// worlds always take [`StreamConfig::for_lease_soak`], whose tighter
    /// grace is part of the lease contract being checked; the others
    /// take `default`.
    pub(super) fn stream(&self, default: StreamConfig) -> StreamConfig {
        match self {
            SoakProfile::Lease => StreamConfig::for_lease_soak(),
            _ => default,
        }
    }
}

/// Window length range (ms) of a fault kind under a profile. Long
/// worlds hold most faults longer; lease worlds keep partitions under
/// the lease term, so a holder's renew can always get through before
/// its term lapses.
fn dur_range(profile: SoakProfile, kind: WindowKind) -> (u64, u64) {
    use WindowKind::*;
    let long = profile == SoakProfile::Long;
    match kind {
        Partition if profile == SoakProfile::Lease => (800, 2500),
        Partition if long => (1000, 5000),
        Partition => (1000, 4000),
        Loss | Corrupt if long => (3000, 12000),
        Loss | Corrupt => (3000, 9000),
        Dup | Reorder if long => (2000, 9000),
        Dup | Reorder => (2000, 7000),
        DelaySpike if long => (2000, 6000),
        DelaySpike | Crash => (2000, 5000),
    }
}

/// Derives the world shape for a seed under a profile. Pure function of
/// `(seed, profile)`: the same pair always yields the same world, and
/// `tests/soak_worlds.rs` pins the first 1,024 of each profile.
pub fn derive_world_for(seed: u64, profile: SoakProfile) -> DerivedWorld {
    use SoakProfile::{Lease, Long, Quick};
    use WindowKind::*;
    // Where the recipes' ranges differ: the shape RNG's seed domain (long
    // and lease worlds are uncorrelated with the quick sweep's), clients
    // 2 + [0, c), rounds r0 + [0, r), files off the slow link 1 + [0, f),
    // the nfsd widths, and fault-window draws w0 + [0, w).
    let (domain, c, (r0, r), f, nfsds, (w0, w)) = match profile {
        Quick => (0x50AC, 4, (3, 3), 2, &[0, 2, 4, 8][..], (1, 4)),
        Long => (0x10A6, 15, (8, 9), 3, &[0, 2, 4, 8, 16][..], (2, 5)),
        Lease => (0x1EA5E, 3, (3, 3), 2, &[0, 2, 4, 8][..], (1, 4)),
    };
    let kinds = match profile {
        Lease => &[Partition, Loss, Dup, Reorder, Crash, Corrupt][..],
        _ => &[Partition, Loss, Dup, Reorder, DelaySpike, Crash, Corrupt][..],
    };
    let mut rng = Rng::new(point_seed(domain, seed as usize, 0));
    let clients = 2 + rng.gen_range(0, c) as usize;
    let rounds = r0 + rng.gen_range(0, r) as usize;
    let topo = match rng.index(3) {
        0 => ("same LAN", TopologyKind::SameLan),
        1 => ("token ring", TopologyKind::TokenRing),
        _ => ("56Kbps", TopologyKind::SlowLink),
    };
    let slow = topo.1 == TopologyKind::SlowLink;
    let files = if slow { 1 } else { 1 + rng.index(f) };
    let temps = if slow && profile != Long { 1 } else { 2 };
    let timeo = SimDuration::from_secs(1);
    let transport = match rng.index(3) {
        0 => ("UDP rto=1s", TransportKind::UdpFixed { timeo }),
        1 => ("UDP rto=A+4D", TransportKind::UdpDynamic { timeo }),
        _ => ("TCP", TransportKind::Tcp),
    };
    let nfsds = nfsds[rng.index(nfsds.len())];
    // Lease worlds mount hard: a soft timeout mid write-behind would
    // conflate mount semantics with lease semantics.
    let soft = profile != Lease && !matches!(transport.1, TransportKind::Tcp) && rng.chance(0.25);
    let span_ms = (SETUP + rounds as u64 * ROUND) * 1000;
    // A window start in [SETUP, span - tail).
    let lo = SETUP * 1000;
    let start =
        |rng: &mut Rng, tail: u64| rng.gen_range(lo, span_ms.saturating_sub(tail).max(lo + 1));
    let nwindows = w0 + rng.index(w);
    let mut windows = Vec::with_capacity(nwindows);
    for _ in 0..nwindows {
        let kind = kinds[rng.index(kinds.len())];
        match (profile, kind) {
            // Aim the crash inside one round's read-lease window: down
            // shortly after the +4s read slot, back up before (or just
            // after) the +5s late rewrite, so the rewrite's write-lease
            // acquisition crosses the reboot and the reboot grace is
            // what stands between a pre-crash read lease and a
            // conflicting post-crash write grant.
            (Lease, Crash) => {
                let round = rng.index(rounds.max(1)) as u64;
                let at_ms = lo + round * ROUND * 1000 + rng.gen_range(4100, 4900);
                windows.push(WindowSpec::crash(at_ms, rng.gen_range(400, 1400)));
                continue;
            }
            // A long world's crash may expand into a flapping server,
            // where an in-memory duplicate cache and boot-epoch handles
            // are weakest.
            (Long, Crash) if rng.chance(0.5) => {
                let cycles = 2 + rng.index(3); // 2..=4
                let mut at = start(&mut rng, 30_000);
                for _ in 0..cycles {
                    let dur = rng.gen_range(1500, 4000);
                    windows.push(WindowSpec::crash(at, dur));
                    at += dur + rng.gen_range(3000, 8000);
                }
                continue;
            }
            _ => {}
        }
        let at_ms = start(&mut rng, 4000);
        let (min, max) = dur_range(profile, kind);
        let dur_ms = rng.gen_range(min, max);
        let prob = match kind {
            Loss => rng.gen_range_f64(0.25, 0.5),
            Dup | Reorder => rng.gen_range_f64(0.1, 0.3),
            Corrupt => rng.gen_range_f64(0.05, 0.3),
            _ => 0.0,
        };
        let delay_ms = match kind {
            Reorder => rng.gen_range(10, 40),
            DelaySpike => rng.gen_range(50, 200),
            _ => 0,
        };
        windows.push(WindowSpec {
            kind,
            at_ms,
            dur_ms,
            prob,
            delay_ms,
        });
    }
    // The fleet width comes from a seed stream of its own, so every
    // other field keeps the value it had in the single-server harness.
    // Lease worlds stay single-server: the lease table, reboot grace
    // and recall timing are per-server state, and the crash windows
    // above are aimed at exactly one of them.
    let servers = match profile {
        Quick => 1 + Rng::new(point_seed(0xF1EE7, seed as usize, 0)).index(2),
        Long => 1 + Rng::new(point_seed(0xF1EE7, seed as usize, 1)).index(2),
        Lease => 1,
    };
    DerivedWorld {
        clients,
        rounds,
        files,
        temps,
        topo,
        transport,
        nfsds,
        servers,
        soft,
        windows,
    }
}

/// A client's home directory in the stitched fleet namespace
/// ([`renofs::ExportMap::fleet`]): shard-0 homes live at the root
/// (server 0 exports "/"); a client on shard j > 0 homes under that
/// server's "/s{j}" export. Two homes on one shard keep distinct
/// server-side paths, and with one server every home is the legacy
/// "/c{ci}".
pub(super) fn home_dir(ci: usize, servers: usize) -> String {
    let shard = ci % servers;
    if shard == 0 {
        format!("/c{ci}")
    } else {
        format!("/s{shard}/c{ci}")
    }
}

/// One runnable (and shrinkable) soak case: a seed plus overrides. The
/// seed fixes the world shape; `clients` and the kept `windows` subset
/// can be reduced below the derived values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakCase {
    /// World-generation seed.
    pub seed: u64,
    /// Client machines (1..=derived).
    pub clients: usize,
    /// Workload rounds (≥ 1; may exceed the derived count, which
    /// lengthens the world without changing its shape).
    pub rounds: usize,
    /// Indices into the derived fault-window roster that stay active.
    pub windows: Vec<usize>,
    /// Perturbs the world's packet-level RNG without changing its shape.
    /// Always 0 for a full case; the shrinker searches a small salt
    /// range so a bug that needs a rare frame-level coincidence can
    /// still reproduce after dropping a client changed every coin flip.
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
    /// (windows may be empty: `windows=`). A case must name a sub-world
    /// of its seed: 1..=derived clients, at least one round, and
    /// distinct indices into the derived fault roster.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut fields = Vec::new();
        for part in s.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad case field {part:?}"))?;
            fields.push((k.trim(), v));
        }
        // A repeated field: the last one counts.
        let field = |key| fields.iter().rev().find(|(k, _)| *k == key).map(|f| f.1);
        let num = |v: &str| v.parse::<u64>().map_err(|e| e.to_string());
        let seed = num(field("seed").ok_or("case needs seed=")?)?;
        let profile = match field("profile").map(str::trim) {
            None | Some("quick") => SoakProfile::Quick,
            Some("long") => SoakProfile::Long,
            Some("lease") => SoakProfile::Lease,
            Some(other) => return Err(format!("unknown profile {other:?}")),
        };
        let full = SoakCase::from_seed_profile(seed, profile);
        let mut case = full.clone();
        for (k, v) in fields {
            match k {
                "seed" | "profile" => {}
                "clients" => case.clients = num(v)? as usize,
                "rounds" => case.rounds = num(v)? as usize,
                "windows" => {
                    let idx = v.split(';').filter(|w| !w.is_empty());
                    case.windows = idx
                        .map(|w| num(w).map(|i| i as usize))
                        .collect::<Result<_, _>>()?;
                }
                "salt" => case.salt = num(v)?,
                other => return Err(format!("unknown case field {other:?}")),
            }
        }
        let (n, w) = (full.clients, full.windows.len());
        if !(1..=n).contains(&case.clients) {
            let c = case.clients;
            return Err(format!("clients={c} is outside 1..={n} for seed {seed}"));
        }
        if case.rounds == 0 {
            return Err("rounds=0 runs no workload".to_string());
        }
        for (k, &i) in case.windows.iter().enumerate() {
            if i >= w {
                return Err(format!(
                    "window {i} is out of range: seed {seed} derives {w}"
                ));
            }
            if case.windows[..k].contains(&i) {
                return Err(format!("window {i} is listed twice"));
            }
        }
        Ok(case)
    }
}

impl fmt::Display for SoakCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (seed, clients, rounds) = (self.seed, self.clients, self.rounds);
        let w: Vec<String> = self.windows.iter().map(|i| i.to_string()).collect();
        let windows = w.join(";");
        write!(
            f,
            "seed={seed},clients={clients},rounds={rounds},windows={windows}"
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
    // From 2 s before the crash until 30 s after the reboot.
    let near_crash = |t: u64| {
        kept.iter().any(|w| {
            let (from, to) = (w.at_ms.saturating_sub(2_000), w.at_ms + w.dur_ms + 30_000);
            w.kind == WindowKind::Crash && from * 1_000_000 <= t && t <= to * 1_000_000
        })
    };
    violations.retain(|v| !matches!(v, Violation::Replay { t, .. } if near_crash(*t)));
}

//! Incremental, bounded-memory streaming consistency checker.
//!
//! [`StreamingOracle`] checks the contract in the crate docs *as the
//! world runs*: the sequential model advances as observations arrive,
//! and state is retired permanently once its staleness window closes.
//! Memory is O(open window), proven at runtime by the
//! [`StreamStats::peak_retained`] high-water mark.
//!
//! # Release in world time order
//!
//! A world runs its clients on one virtual clock, so every observation
//! is fed at the world's current time: `t_done` never goes backwards
//! across the whole feed, and [`StreamingOracle::feed`] asserts it. The
//! checker holds only the observations of the current instant; when
//! time moves on (or at [`finish`](StreamingOracle::finish)) it
//! releases them stable-sorted by client, so the model sees one
//! `(t_done, client, index)` sequence and every derived quantity —
//! violations, `peak_retained`, retirement counts — is a pure function
//! of the observations, whichever client fed first within an instant.
//!
//! # Announced writes: every read adjudicated on release
//!
//! A read may return before its writer's close does, so the checker
//! gets each version from the writer: a write feeds
//! [`ObsKind::Writing`] when it starts (`t_start == t_done`), so it is
//! released before any read that could have seen its bytes. The
//! announcement opens a version; the write's `Committed` completes the
//! newest open version of its path with the same content, setting its
//! `t_done` and certainty, and a `Committed` nobody announced adds a
//! closed version. So every read is adjudicated the moment it is
//! released: matched, held to its close-to-open floor and its reader's
//! last version, or — matching nothing — reported corrupt. A read of a
//! write that was never announced, finishing before its `Committed`,
//! is therefore corrupt: announcing is the writer's half of the
//! contract. Versions are told apart by `(len, fnv)` alone, so two
//! retained versions of one path with equal content are a harness
//! error: the checker panics naming the path.
//!
//! # Retirement and the taint horizon
//!
//! Versions older than `retain` are retired: for each path the newest
//! *certain* version at or below the cutoff becomes the anchor; all
//! versions strictly below it are dropped and a `retired` offset keeps
//! global version indices stable. The anchor itself survives (it is
//! the close-to-open floor for any read still in flight), and so does
//! every *uncertain* or still-open version above it — such a version
//! can be legitimately observed arbitrarily later, so only a newer
//! certain anchor aging past the cutoff can retire it. That is the
//! taint horizon: a run of soft-timeout-tainted closes extends
//! retention until the next certain close ages out, so retained state
//! is O(window + longest taint run), never O(total ops). Safety demands
//! `retain ≥ grace` (asserted) plus the longest open-to-completion
//! block, so every version a read could match or floor against is
//! still retained. Names quiescent longer than `retain` with no
//! versions are garbage collected and lose replay armor; soak temp
//! names are used once.

use std::collections::{HashMap, VecDeque};

use crate::{Obs, ObsKind, OpOutcome, Violation};

/// How often (in virtual time) the retirement sweep runs. Keyed to the
/// model clock — never to wall-clock — so the retained-state trajectory
/// is deterministic.
const SWEEP_NS: u64 = 1_000_000_000;

/// The `t_done` of an announced version whose close has not returned.
const OPEN: u64 = u64::MAX;

/// One committed, possibly-committed or still-open version of a file.
#[derive(Clone, Debug)]
struct Version {
    len: usize,
    fnv: u64,
    /// When the write was issued (content cannot be observed earlier).
    t_start: u64,
    /// When the close returned ([`OPEN`] until it does).
    t_done: u64,
    /// Whether the close succeeded (uncertain versions never raise the
    /// close-to-open floor).
    certain: bool,
}

/// Name-existence state in the sequential model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exists {
    /// Never created (or certainly removed).
    No,
    /// Certainly present.
    Yes,
    /// A timed-out create/remove left the name in limbo.
    Unknown,
}

/// The deterministic total order of the final report: time, then
/// client, then the full rendered record, so exact ties (two missing
/// entries from one listing, say) break the same way whatever the
/// internal iteration order that produced them.
fn violation_total_key(v: &Violation) -> (u64, usize, String) {
    let (t, c) = v.time_client();
    (t, c, format!("{v:?}"))
}

/// The streaming checker's window parameters, all in virtual ns.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Close-to-open bounded-staleness window (attr-cache lifetime plus
    /// scheduling slack).
    pub grace: u64,
    /// How long versions are retained before the retirement sweep may
    /// drop them. Must be at least `grace` (asserted), with margin for
    /// the longest open-to-completion block.
    pub retain: u64,
}

impl StreamConfig {
    /// Builds a config, asserting the retention safety inequality.
    pub fn new(grace: u64, retain: u64) -> Self {
        assert!(
            retain >= grace,
            "retain ({retain}) must cover grace ({grace})"
        );
        StreamConfig { grace, retain }
    }

    /// The soak harness profile: 240 virtual seconds of retention, far
    /// above the 60 s hard-mount backoff cap plus the widest fault
    /// window a close can block across.
    pub fn for_soak(grace: u64) -> Self {
        StreamConfig::new(grace, 240_000_000_000)
    }

    /// The lease-soak profile: a *tightened* 500 ms staleness grace.
    /// Correct NQNFS leases serialize writers behind readers (a writer
    /// is deferred until conflicting read leases vacate or lapse), so
    /// honest staleness shrinks well below the classic close-to-open
    /// window — and crucially the 3 s lease term deliberately *exceeds*
    /// this grace, so a client that keeps serving its cache past expiry
    /// (or a server that skips the reboot wait) produces reads stale by
    /// more than the grace and is caught, not excused. Retention
    /// matches [`StreamConfig::for_soak`].
    pub fn for_lease_soak() -> Self {
        StreamConfig::new(500_000_000, 240_000_000_000)
    }
}

/// Counters proving the bounded-memory claim and sizing the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Observations released and processed.
    pub processed: u64,
    /// Versions permanently retired by the sweep.
    pub retired: u64,
    /// High-water mark of retained versions, open ones included — the
    /// memory bound. O(open window), not O(ops).
    pub peak_retained: usize,
}

/// Everything the checker knows once the world is drained.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Every violation, in the shared deterministic total order.
    pub violations: Vec<Violation>,
    /// Final counters.
    pub stats: StreamStats,
}

/// Per-path retained model state.
#[derive(Debug, Default)]
struct PathState {
    /// Retained versions, ordered by `(t_start, t_done)`. The single
    /// writer discipline means arrival order already is that order;
    /// insertion from the back keeps it so.
    versions: VecDeque<Version>,
    /// Count of versions retired off the front: the global index of
    /// `versions[k]` is `retired + k`, the version's index in the whole
    /// history of its path.
    retired: usize,
    /// Whether any Removed observation has targeted this path.
    ever_removed: bool,
    /// `t_done` of the earliest certain version ever committed, kept
    /// across retirement so durability checks stay exact.
    first_certain_t_done: Option<u64>,
    /// Model time of the last observation touching this path (GC).
    touched: u64,
}

/// The incremental checker. Feed observations as they happen, then
/// [`finish`](Self::finish).
pub struct StreamingOracle {
    cfg: StreamConfig,
    clients: usize,
    /// The observations fed at the current instant, not yet released.
    instant: Vec<Obs>,
    paths: HashMap<String, PathState>,
    exists: HashMap<String, Exists>,
    last_seen: HashMap<(usize, String), usize>,
    versions_live: usize,
    /// The model clock: `t_done` of the current instant.
    model_now: u64,
    last_sweep: u64,
    violations: Vec<Violation>,
    stats: StreamStats,
}

impl StreamingOracle {
    /// Builds a checker for observations of clients `0..clients`.
    pub fn new(clients: usize, cfg: StreamConfig) -> Self {
        StreamingOracle {
            cfg,
            clients,
            instant: Vec::new(),
            paths: HashMap::new(),
            exists: HashMap::new(),
            last_seen: HashMap::new(),
            versions_live: 0,
            model_now: 0,
            last_sweep: 0,
            violations: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Feeds one observation. Observations must arrive in nondecreasing
    /// `t_done` order across all clients: the world's own time order.
    pub fn feed(&mut self, obs: Obs) {
        let ci = obs.client;
        assert!(ci < self.clients, "unknown client {ci}");
        assert!(
            obs.t_done >= self.model_now,
            "client {ci} fed t_done {} after an observation done at {}",
            obs.t_done,
            self.model_now
        );
        if obs.t_done > self.model_now {
            self.release();
            self.model_now = obs.t_done;
        }
        self.instant.push(obs);
    }

    /// Current counters (mid-run snapshot).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Releases the last instant and returns the verdict.
    pub fn finish(mut self) -> StreamOutcome {
        self.release();
        self.violations.sort_by_cached_key(violation_total_key);
        StreamOutcome {
            violations: self.violations,
            stats: self.stats,
        }
    }

    /// Processes the current instant's observations, smallest client
    /// first, each client's in the order they were fed.
    fn release(&mut self) {
        let mut instant = std::mem::take(&mut self.instant);
        instant.sort_by_key(|o| o.client);
        for obs in instant.drain(..) {
            self.process(obs);
        }
        self.instant = instant;
    }

    /// Advances the model through one released observation.
    fn process(&mut self, obs: Obs) {
        self.stats.processed += 1;
        if self.model_now >= self.last_sweep + SWEEP_NS {
            self.sweep();
            self.last_sweep = self.model_now;
        }
        let path = obs.kind.path().to_string();
        if !matches!(obs.kind, ObsKind::Listed { .. }) {
            self.touch(&path);
        }
        match &obs.kind {
            ObsKind::Created { outcome, .. } => {
                let st = self.exists.entry(path.clone()).or_insert(Exists::No);
                match outcome {
                    OpOutcome::Ok => *st = Exists::Yes,
                    OpOutcome::Indeterminate => {
                        if *st == Exists::No {
                            *st = Exists::Unknown;
                        }
                    }
                    OpOutcome::Status(s) => {
                        if *st == Exists::No && s.contains("Exist") {
                            self.violations.push(Violation::Replay {
                                client: obs.client,
                                path: path.clone(),
                                t: obs.t_done,
                                op: "create",
                                status: s.clone(),
                            });
                        }
                        if *st == Exists::No && !s.contains("Exist") {
                            // e.g. NOENT on a vanished parent: the name
                            // still does not exist.
                        } else if s.contains("Exist") {
                            *st = Exists::Yes;
                        }
                    }
                }
            }
            ObsKind::Removed { outcome, .. } => {
                self.paths.entry(path.clone()).or_default().ever_removed = true;
                let st = self.exists.entry(path.clone()).or_insert(Exists::No);
                match outcome {
                    OpOutcome::Ok => *st = Exists::No,
                    OpOutcome::Indeterminate => *st = Exists::Unknown,
                    OpOutcome::Status(s) => {
                        if *st == Exists::Yes && s.contains("NoEnt") {
                            self.violations.push(Violation::Replay {
                                client: obs.client,
                                path: path.clone(),
                                t: obs.t_done,
                                op: "remove",
                                status: s.clone(),
                            });
                        }
                        if s.contains("NoEnt") {
                            *st = Exists::No;
                        }
                    }
                }
            }
            ObsKind::Writing { len, fnv, .. } => {
                self.add_version(&path, *len, *fnv, obs.t_start, OPEN, false);
            }
            ObsKind::Committed {
                len, fnv, certain, ..
            } => {
                self.exists.insert(path.clone(), Exists::Yes);
                let ps = self.paths.get_mut(&path).expect("touched");
                if *certain && ps.first_certain_t_done.is_none() {
                    ps.first_certain_t_done = Some(obs.t_done);
                }
                let open = ps
                    .versions
                    .iter_mut()
                    .rev()
                    .find(|v| v.t_done == OPEN && v.len == *len && v.fnv == *fnv);
                if let Some(v) = open {
                    v.t_done = obs.t_done;
                    v.certain = *certain;
                } else {
                    self.add_version(&path, *len, *fnv, obs.t_start, obs.t_done, *certain);
                }
            }
            ObsKind::Observed { len, fnv, .. } => {
                if self.exists.get(&path) != Some(&Exists::Unknown) {
                    self.read(&obs, &path, *len, *fnv);
                }
            }
            ObsKind::ReadFailed { status, .. } => {
                let vanished = status.contains("NoEnt") || status.contains("Stale");
                if vanished
                    && self.durable_before(&path, obs.t_start)
                    && self.exists.get(&path) == Some(&Exists::Yes)
                {
                    self.violations.push(Violation::LostFile {
                        client: obs.client,
                        path: path.clone(),
                        t: obs.t_start,
                        status: status.clone(),
                    });
                }
            }
            ObsKind::Listed { dir, names } => {
                let prefix = if dir.ends_with('/') {
                    dir.clone()
                } else {
                    format!("{dir}/")
                };
                let mut cands: Vec<&String> = self
                    .paths
                    .iter()
                    .filter(|(p, ps)| {
                        !ps.ever_removed
                            && p.starts_with(prefix.as_str())
                            && !p[prefix.len()..].contains('/')
                    })
                    .map(|(p, _)| p)
                    .collect();
                cands.sort();
                let mut missing = Vec::new();
                for p in cands {
                    let name = &p[prefix.len()..];
                    if self.durable_before(p, obs.t_start) && !names.iter().any(|n| n == name) {
                        missing.push(Violation::MissingEntry {
                            client: obs.client,
                            dir: dir.clone(),
                            path: p.clone(),
                            t: obs.t_start,
                        });
                    }
                }
                self.violations.extend(missing);
            }
        }
        self.stats.peak_retained = self.stats.peak_retained.max(self.versions_live);
    }

    /// Adds a version of `path` in `(t_start, t_done)` order. Single-
    /// writer files arrive already ordered; the back-scan only moves on
    /// exact ties.
    fn add_version(
        &mut self,
        path: &str,
        len: usize,
        fnv: u64,
        t_start: u64,
        t_done: u64,
        certain: bool,
    ) {
        let ps = self.paths.get_mut(path).expect("touched");
        assert!(
            !ps.versions.iter().any(|v| v.len == len && v.fnv == fnv),
            "harness error: two versions of {path} carry the same {len} bytes \
             (fnv {fnv:016x}), so no read can tell them apart"
        );
        let at = ps
            .versions
            .iter()
            .rposition(|v| (v.t_start, v.t_done) <= (t_start, t_done))
            .map_or(0, |k| k + 1);
        let v = Version {
            len,
            fnv,
            t_start,
            t_done,
            certain,
        };
        ps.versions.insert(at, v);
        self.versions_live += 1;
    }

    /// Whether a certain version of `path` completed more than `grace`
    /// before `t` — exact even after retirement, via the remembered
    /// earliest certain close.
    fn durable_before(&self, path: &str, t: u64) -> bool {
        let Some(ps) = self.paths.get(path) else {
            return false;
        };
        if ps
            .first_certain_t_done
            .is_some_and(|td| td + self.cfg.grace <= t)
        {
            return true;
        }
        ps.versions
            .iter()
            .any(|v| v.certain && v.t_done + self.cfg.grace <= t)
    }

    /// Adjudicates a read of `path` that saw `(len, fnv)`: the newest
    /// version with that content whose write started before the read
    /// returned, then its close-to-open floor and its reader's last
    /// version.
    fn read(&mut self, obs: &Obs, path: &str, len: usize, fnv: u64) {
        let ps = &self.paths[path];
        let seen = ps
            .versions
            .iter()
            .rposition(|v| v.t_start <= obs.t_done && v.len == len && v.fnv == fnv);
        let Some(seen) = seen.map(|k| ps.retired + k) else {
            // The created-empty state is the file's version "-1": an
            // empty read is legitimate, not corruption, while
            // close-to-open owes the reader nothing newer.
            if len > 0 || self.durable_before(path, obs.t_start) {
                self.violations.push(Violation::CorruptRead {
                    client: obs.client,
                    path: path.to_string(),
                    t: obs.t_done,
                    len,
                    fnv,
                });
            }
            return;
        };
        let floor = ps
            .versions
            .iter()
            .rposition(|v| v.certain && v.t_done + self.cfg.grace <= obs.t_start);
        if let Some(floor) = floor.map(|k| ps.retired + k).filter(|&floor| seen < floor) {
            self.violations.push(Violation::StaleRead {
                client: obs.client,
                path: path.to_string(),
                t: obs.t_start,
                seen,
                floor,
            });
        }
        let key = (obs.client, path.to_string());
        let prev = self.last_seen.get(&key).copied();
        if let Some(prev) = prev.filter(|&prev| seen < prev) {
            self.violations.push(Violation::TimeTravel {
                client: obs.client,
                path: path.to_string(),
                t: obs.t_done,
                seen,
                prev,
            });
        }
        self.last_seen.insert(key, seen.max(prev.unwrap_or(0)));
    }

    /// The retirement sweep: drop versions below each path's newest
    /// certain anchor older than `retain`, and garbage-collect names
    /// that never grew a version and have been quiescent past the
    /// window (single-use temp names).
    fn sweep(&mut self) {
        let cutoff = self.model_now.saturating_sub(self.cfg.retain);
        let mut dropped = 0usize;
        for ps in self.paths.values_mut() {
            let anchor = ps
                .versions
                .iter()
                .rposition(|v| v.certain && v.t_done <= cutoff);
            if let Some(a) = anchor {
                ps.versions.drain(..a);
                ps.retired += a;
                dropped += a;
            }
        }
        self.versions_live -= dropped;
        self.stats.retired += dropped as u64;
        let (now, retain) = (self.model_now, self.cfg.retain);
        let dead: Vec<String> = self
            .paths
            .iter()
            .filter(|(_, ps)| {
                ps.versions.is_empty() && ps.retired == 0 && now.saturating_sub(ps.touched) > retain
            })
            .map(|(p, _)| p.clone())
            .collect();
        for p in dead {
            self.paths.remove(&p);
            self.exists.remove(&p);
        }
    }

    fn touch(&mut self, path: &str) {
        if let Some(ps) = self.paths.get_mut(path) {
            ps.touched = self.model_now;
        } else {
            let now = self.model_now;
            self.paths.entry(path.to_string()).or_default().touched = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;
    const GRACE: u64 = 2 * SEC;

    fn committed(client: usize, t: u64, path: &str, body: &str, certain: bool) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::Committed {
                path: path.to_string(),
                len: body.len(),
                fnv: fnv1a(body.as_bytes()),
                certain,
            },
        }
    }

    /// The announcement of [`committed`]'s write, fed when it starts.
    fn writing(client: usize, t: u64, path: &str, body: &str) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t,
            kind: ObsKind::Writing {
                path: path.to_string(),
                len: body.len(),
                fnv: fnv1a(body.as_bytes()),
            },
        }
    }

    fn observed(client: usize, t: u64, path: &str, body: &str) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::Observed {
                path: path.to_string(),
                len: body.len(),
                fnv: fnv1a(body.as_bytes()),
            },
        }
    }

    /// Feeds `log` to a three-client streaming checker in the order
    /// given and returns its outcome.
    fn stream(cfg: StreamConfig, log: impl IntoIterator<Item = Obs>) -> StreamOutcome {
        let mut s = StreamingOracle::new(3, cfg);
        for o in log {
            s.feed(o);
        }
        s.finish()
    }

    fn cfg_small() -> StreamConfig {
        StreamConfig::new(GRACE, 60 * SEC)
    }

    #[test]
    #[should_panic(expected = "two versions of /d/f carry the same 4 bytes")]
    fn two_versions_with_equal_content_trip_the_guard() {
        let log = [
            committed(0, SEC, "/d/f", "twin", true),
            writing(0, 5 * SEC, "/d/f", "twin"),
        ];
        stream(cfg_small(), log);
    }
    #[test]
    #[should_panic(
        expected = "client 0 fed t_done 2001000000 after an observation done at 5001000000"
    )]
    fn an_observation_fed_backwards_panics() {
        stream(
            cfg_small(),
            [
                observed(1, 5 * SEC, "/d/f", "v1"),
                committed(0, 2 * SEC, "/d/f", "v1", true),
            ],
        );
    }

    #[test]
    fn retirement_bounds_memory_independent_of_length() {
        // One writer + one reader ping-ponging on one file for a long
        // time: retained state must stay flat while `retired` grows.
        let run = |rounds: u64| {
            let log = (0..rounds).flat_map(|r| {
                let t = SEC + r * 4 * SEC;
                [
                    committed(0, t, "/d/f", &format!("v{r}"), true),
                    observed(1, t + SEC, "/d/f", &format!("v{r}")),
                ]
            });
            stream(StreamConfig::new(GRACE, 12 * SEC), log)
        };
        let short = run(40);
        let long = run(400);
        assert!(short.violations.is_empty(), "{:?}", short.violations);
        assert!(long.violations.is_empty(), "{:?}", long.violations);
        assert!(long.stats.retired > short.stats.retired);
        // 12 s retention over 4 s rounds retains a handful of versions;
        // the bound must not scale with round count.
        assert!(
            long.stats.peak_retained <= 8,
            "peak_retained {} not bounded",
            long.stats.peak_retained
        );
        assert_eq!(short.stats.peak_retained, long.stats.peak_retained);
    }
}

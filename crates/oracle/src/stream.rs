//! Incremental, bounded-memory streaming consistency checker.
//!
//! [`crate::Oracle::check`] buffers the full observation log and replays
//! it post-hoc: O(total ops) memory, which caps soak length at minutes.
//! [`StreamingOracle`] checks the same contract *as the world runs*:
//! per-client feeds are merged online with a watermark protocol, the
//! sequential model advances eagerly, and state is retired permanently
//! once its staleness window closes. Memory is O(open window), proven
//! at runtime by the [`StreamStats::peak_retained`] high-water mark.
//!
//! # Merge determinism
//!
//! Each client feeds its observations in completion (`t_done`) order.
//! A feed's *watermark* is the latest virtual time it has reported
//! (observation completion or explicit [`StreamingOracle::heartbeat`]);
//! an observation is released to the model only once it is strictly
//! below the minimum watermark over unfinished feeds — a peer may still
//! emit at exactly its watermark, so strictness is required. Released
//! observations are processed in `(t_done, client)` order with FIFO
//! tie-breaking within a client, which reproduces exactly the
//! `(t_done, client, index)` sort the buffered checker applies to the
//! flattened log. Because the release *sequence* is a pure function of
//! the observations themselves (watermarks only gate progress, never
//! reorder it), every derived quantity — violations, `peak_retained`,
//! retirement counts — is byte-identical at any `--jobs` setting and
//! any feed interleaving.
//!
//! # Eager vs deferred adjudication
//!
//! The buffered checker quietly uses future knowledge in one place: a
//! read is matched against versions whose close *starts* before the
//! read completes, including closes still in flight (`t_done` later
//! than the read's). Streaming cannot see those yet, so an unmatched
//! read becomes *pending* for a bounded hold window: it resolves the
//! moment the matching commit arrives, and only if the window expires
//! with no match is it adjudicated corrupt (after the same exemptions
//! the buffered checker applies). Everything else — existence replay
//! checks, close-to-open floors, per-reader monotonicity, durability,
//! listings — needs only past state and is adjudicated eagerly at the
//! merge position. Per-(client, path) pending reads form a FIFO so
//! `last_seen` monotonicity updates happen in the buffered order.
//!
//! # Retirement and the taint horizon
//!
//! Versions older than `retain` are retired: for each path the newest
//! *certain* version at or below the cutoff becomes the anchor; all
//! versions strictly below it are dropped and a `retired` offset keeps
//! global version indices stable. The anchor itself survives (it is
//! the close-to-open floor for any read still in flight), and so does
//! every *uncertain* version above it — an uncertain version can be
//! legitimately observed arbitrarily later, so only a newer certain
//! anchor aging past the cutoff can retire it. That is the taint
//! horizon: a run of soft-timeout-tainted closes extends retention
//! until the next certain close ages out, so retained state is
//! O(window + longest taint run), never O(total ops). Safety demands
//! `retain ≥ grace + hold` (+ the longest open-to-completion block),
//! so every version a live pending read could match or floor against
//! is still retained; the constructor asserts the inequality.
//!
//! # Documented divergences from the buffered checker
//!
//! The buffered checker's whole-log knowledge leaks into a few
//! adjudications that a prefix cannot reproduce. None arise in the
//! soak workload (quick sweeps never even reach the retention window),
//! and the differential tests pin exact equivalence there:
//!
//! * A violation *older than the retain window* may be reported as
//!   `CorruptRead` where the buffered checker, with the retired
//!   version list in hand, would have said `StaleRead`.
//! * `ever_removed` (which downgrades the directory-listing check) is
//!   prefix knowledge here but whole-log there; the workload never
//!   removes a committed file, so the two agree.
//! * The empty-read exemption and the path-never-modelled exemption
//!   are decided at hold expiry from prefix state; a first commit or
//!   first create arriving more than `hold` after the read would flip
//!   them. Reads follow creation in the workload.
//! * Names quiescent longer than `retain` with no versions are garbage
//!   collected and lose replay armor; soak temp names are used once.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::{violation_total_key, Exists, Obs, ObsKind, OpOutcome, Version, Violation};

/// How often (in virtual time) the retirement sweep runs. Keyed to the
/// model clock — never to wall-clock or watermark arrival — so the
/// retained-state trajectory is deterministic.
const SWEEP_NS: u64 = 1_000_000_000;

/// The streaming checker's window parameters, all in virtual ns.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Close-to-open bounded-staleness window (attr-cache lifetime plus
    /// scheduling slack) — same meaning as [`crate::Oracle::new`].
    pub grace: u64,
    /// How long an unmatched read is held pending before it is
    /// adjudicated corrupt. Must exceed the longest time a close can
    /// stay in flight (fault window + hard-mount retry backoff).
    pub hold: u64,
    /// How long versions are retained before the retirement sweep may
    /// drop them. Must be at least `grace + hold` (asserted), with
    /// margin for the longest open-to-completion block.
    pub retain: u64,
}

impl StreamConfig {
    /// Builds a config, asserting the retention safety inequality.
    pub fn new(grace: u64, hold: u64, retain: u64) -> Self {
        assert!(
            retain >= grace + hold,
            "retain ({retain}) must cover grace ({grace}) + hold ({hold})"
        );
        StreamConfig {
            grace,
            hold,
            retain,
        }
    }

    /// The soak harness profile: 120 virtual seconds of pending-read
    /// hold (far above the 60 s hard-mount backoff cap plus the widest
    /// fault window) and 240 s retention (double the safety floor).
    pub fn for_soak(grace: u64) -> Self {
        StreamConfig::new(grace, 120_000_000_000, 240_000_000_000)
    }

    /// The lease-soak profile: a *tightened* 500 ms staleness grace.
    /// Correct NQNFS leases serialize writers behind readers (a writer
    /// is deferred until conflicting read leases vacate or lapse), so
    /// honest staleness shrinks well below the classic close-to-open
    /// window — and crucially the 3 s lease term deliberately *exceeds*
    /// this grace, so a client that keeps serving its cache past expiry
    /// (or a server that skips the reboot wait) produces reads stale by
    /// more than the grace and is caught, not excused. Hold and retain
    /// match [`StreamConfig::for_soak`].
    pub fn for_lease_soak() -> Self {
        StreamConfig::new(500_000_000, 120_000_000_000, 240_000_000_000)
    }
}

/// Counters proving the bounded-memory claim and sizing the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Observations released through the merge and processed.
    pub processed: u64,
    /// Versions permanently retired by the sweep.
    pub retired: u64,
    /// High-water mark of retained model state (live versions plus
    /// pending reads) — the memory bound. O(open window), not O(ops).
    pub peak_retained: usize,
}

/// Everything the checker knows once the world is drained.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Every violation, in the shared deterministic total order.
    pub violations: Vec<Violation>,
    /// Final counters.
    pub stats: StreamStats,
    /// The full client-major observation log, only if capture was
    /// enabled — feed it to [`crate::Oracle::check`] for differential
    /// comparison.
    pub log: Option<Vec<Obs>>,
}

/// One client's ingress queue.
#[derive(Debug, Default)]
struct Feed {
    buf: VecDeque<Obs>,
    /// Latest virtual time this client has reported.
    wm: u64,
    /// Set once the client will emit nothing further.
    finished: bool,
}

/// A read awaiting a version still in flight (or corrupt).
#[derive(Clone, Copy, Debug)]
struct Pending {
    client: usize,
    t_start: u64,
    t_done: u64,
    len: usize,
    fnv: u64,
    /// `t_done + hold`: past this model time the read is adjudicated.
    deadline: u64,
}

/// Per-path retained model state.
#[derive(Debug, Default)]
struct PathState {
    /// Retained versions, ordered by `(t_start, t_done)`. The single
    /// writer discipline means arrival order already is that order;
    /// insertion from the back keeps it so.
    versions: VecDeque<Version>,
    /// Count of versions retired off the front: the global index of
    /// `versions[k]` is `retired + k`, matching the buffered checker's
    /// whole-log indices.
    retired: usize,
    /// Whether any Removed observation has targeted this path.
    ever_removed: bool,
    /// `t_done` of the earliest certain version ever committed, kept
    /// across retirement so durability checks stay exact.
    first_certain_t_done: Option<u64>,
    /// Model time of the last observation touching this path (GC).
    touched: u64,
}

/// The incremental checker. Feed per-client observations as they
/// happen, heartbeat idle clients, then [`finish`](Self::finish).
pub struct StreamingOracle {
    cfg: StreamConfig,
    feeds: Vec<Feed>,
    paths: HashMap<String, PathState>,
    exists: HashMap<String, Exists>,
    last_seen: HashMap<(usize, String), usize>,
    pending: HashMap<(usize, String), VecDeque<Pending>>,
    pending_live: usize,
    versions_live: usize,
    /// The model clock: `t_done` of the last released observation.
    model_now: u64,
    last_sweep: u64,
    violations: Vec<Violation>,
    stats: StreamStats,
    capture: Option<Vec<Vec<Obs>>>,
}

impl StreamingOracle {
    /// Builds a checker for `clients` feeds.
    pub fn new(clients: usize, cfg: StreamConfig) -> Self {
        StreamingOracle {
            cfg,
            feeds: (0..clients).map(|_| Feed::default()).collect(),
            paths: HashMap::new(),
            exists: HashMap::new(),
            last_seen: HashMap::new(),
            pending: HashMap::new(),
            pending_live: 0,
            versions_live: 0,
            model_now: 0,
            last_sweep: 0,
            violations: Vec::new(),
            stats: StreamStats::default(),
            capture: None,
        }
    }

    /// Also record the full per-client log, for differential testing
    /// against the buffered checker. Defeats the memory bound, so only
    /// tests use it.
    pub fn with_capture(mut self) -> Self {
        self.capture = Some(vec![Vec::new(); self.feeds.len()]);
        self
    }

    /// Feeds one observation from its client. Observations from one
    /// client must arrive in nondecreasing `t_done` order.
    pub fn feed(&mut self, obs: Obs) {
        let ci = obs.client;
        debug_assert!(ci < self.feeds.len(), "unknown client {ci}");
        debug_assert!(!self.feeds[ci].finished, "feed after finish_client");
        debug_assert!(
            obs.t_done >= self.feeds[ci].wm,
            "client {ci} fed out of order"
        );
        if let Some(cap) = &mut self.capture {
            cap[ci].push(obs.clone());
        }
        self.feeds[ci].wm = self.feeds[ci].wm.max(obs.t_done);
        self.feeds[ci].buf.push_back(obs);
        self.pump();
    }

    /// Advances a client's watermark without an observation: the client
    /// promises to emit nothing with `t_done < t`. Idle clients must
    /// heartbeat or they stall the merge.
    pub fn heartbeat(&mut self, client: usize, t: u64) {
        debug_assert!(client < self.feeds.len(), "unknown client {client}");
        let f = &mut self.feeds[client];
        if !f.finished && t > f.wm {
            f.wm = t;
            self.pump();
        }
    }

    /// Marks a client's feed complete; its watermark no longer gates
    /// the merge.
    pub fn finish_client(&mut self, client: usize) {
        debug_assert!(client < self.feeds.len(), "unknown client {client}");
        self.feeds[client].finished = true;
        self.pump();
    }

    /// Violations found so far (released observations only).
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Current counters (mid-run snapshot).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Drains every feed and pending read, and returns the verdict.
    pub fn finish(mut self) -> StreamOutcome {
        for f in &mut self.feeds {
            f.finished = true;
        }
        self.pump();
        debug_assert!(self.feeds.iter().all(|f| f.buf.is_empty()));
        // Resolve every still-pending read: all versions have arrived,
        // so a failed match now is adjudicated exactly as at expiry.
        let keys: Vec<(usize, String)> = self.pending.keys().cloned().collect();
        for (ci, path) in keys {
            while let Some(p) = self
                .pending
                .get_mut(&(ci, path.clone()))
                .and_then(|f| f.pop_front())
            {
                self.pending_live -= 1;
                self.settle(&path, p);
            }
        }
        self.pending.clear();
        self.violations.sort_by_cached_key(violation_total_key);
        StreamOutcome {
            violations: self.violations,
            stats: self.stats,
            log: self
                .capture
                .map(|per_client| per_client.into_iter().flatten().collect::<Vec<Obs>>()),
        }
    }

    /// Releases every observation strictly below the global watermark,
    /// smallest `(t_done, client)` first.
    fn pump(&mut self) {
        loop {
            let gw = self
                .feeds
                .iter()
                .filter(|f| !f.finished)
                .map(|f| f.wm)
                .min()
                .unwrap_or(u64::MAX);
            let mut best: Option<(u64, usize)> = None;
            for (ci, f) in self.feeds.iter().enumerate() {
                if let Some(o) = f.buf.front() {
                    let key = (o.t_done, ci);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((t, ci)) = best else { return };
            if t >= gw {
                return;
            }
            let obs = self.feeds[ci].buf.pop_front().expect("head vanished");
            self.process(obs);
        }
    }

    /// Advances the model through one released observation. Mirrors
    /// the buffered checker's replay arm for arm; only the unmatched
    /// read defers.
    fn process(&mut self, obs: Obs) {
        debug_assert!(obs.t_done >= self.model_now, "merge released backwards");
        self.model_now = obs.t_done;
        self.stats.processed += 1;
        self.expire_pending();
        if self.model_now >= self.last_sweep + SWEEP_NS {
            self.sweep();
            self.last_sweep = self.model_now;
        }
        let path = obs.kind.path().to_string();
        match &obs.kind {
            ObsKind::Created { outcome, .. } => {
                self.touch(&path);
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
                self.touch(&path);
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
            ObsKind::Committed {
                len, fnv, certain, ..
            } => {
                self.touch(&path);
                self.exists.insert(path.clone(), Exists::Yes);
                let ps = self.paths.entry(path.clone()).or_default();
                let v = Version {
                    len: *len,
                    fnv: *fnv,
                    t_start: obs.t_start,
                    t_done: obs.t_done,
                    certain: *certain,
                };
                // Single-writer files arrive already ordered; the
                // back-scan only moves on exact ties.
                let mut at = ps.versions.len();
                while at > 0
                    && (ps.versions[at - 1].t_start, ps.versions[at - 1].t_done)
                        > (v.t_start, v.t_done)
                {
                    at -= 1;
                }
                ps.versions.insert(at, v);
                if *certain && ps.first_certain_t_done.is_none() {
                    ps.first_certain_t_done = Some(obs.t_done);
                }
                self.versions_live += 1;
                // A new version may resolve pending reads of this path.
                for ci in 0..self.feeds.len() {
                    self.drain_fifo(ci, &path);
                }
            }
            ObsKind::Observed { len, fnv, .. } => {
                self.touch(&path);
                if self.exists.get(&path) == Some(&Exists::Unknown) {
                    self.note_peak();
                    return;
                }
                let p = Pending {
                    client: obs.client,
                    t_start: obs.t_start,
                    t_done: obs.t_done,
                    len: *len,
                    fnv: *fnv,
                    deadline: obs.t_done.saturating_add(self.cfg.hold),
                };
                let key = (obs.client, path.clone());
                let queued = self.pending.get(&key).is_some_and(|f| !f.is_empty());
                if queued {
                    // An earlier read of this (client, path) is still
                    // unresolved: queue behind it so last_seen updates
                    // keep the buffered order.
                    self.pending
                        .get_mut(&key)
                        .expect("queued fifo")
                        .push_back(p);
                    self.pending_live += 1;
                } else if let Some(seen) = self.try_match(&path, &p) {
                    self.adjudicate(&path, &p, seen);
                } else {
                    self.pending.entry(key).or_default().push_back(p);
                    self.pending_live += 1;
                }
            }
            ObsKind::ReadFailed { status, .. } => {
                self.touch(&path);
                if self.exists.get(&path) == Some(&Exists::Unknown) {
                    self.note_peak();
                    return;
                }
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
        self.note_peak();
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

    /// Newest retained version matching a read's content and issued
    /// before the read completed; returns its *global* index.
    fn try_match(&self, path: &str, p: &Pending) -> Option<usize> {
        let ps = self.paths.get(path)?;
        ps.versions
            .iter()
            .enumerate()
            .rev()
            .find(|(_, v)| v.t_start <= p.t_done && v.len == p.len && v.fnv == p.fnv)
            .map(|(k, _)| ps.retired + k)
    }

    /// Adjudicates a matched read: close-to-open floor, then per-reader
    /// monotonicity. Mirrors the buffered arm verbatim (including the
    /// `max(prev)` bookkeeping).
    fn adjudicate(&mut self, path: &str, p: &Pending, seen: usize) {
        let ps = &self.paths[path];
        let floor = ps
            .versions
            .iter()
            .enumerate()
            .rev()
            .find(|(_, v)| v.certain && v.t_done + self.cfg.grace <= p.t_start)
            .map(|(k, _)| ps.retired + k);
        if let Some(floor) = floor {
            if seen < floor {
                self.violations.push(Violation::StaleRead {
                    client: p.client,
                    path: path.to_string(),
                    t: p.t_start,
                    seen,
                    floor,
                });
            }
        }
        let key = (p.client, path.to_string());
        let prev = self.last_seen.get(&key).copied();
        if let Some(prev) = prev {
            if seen < prev {
                self.violations.push(Violation::TimeTravel {
                    client: p.client,
                    path: path.to_string(),
                    t: p.t_done,
                    seen,
                    prev,
                });
            }
        }
        self.last_seen.insert(key, seen.max(prev.unwrap_or(0)));
    }

    /// Final adjudication of a pending read that will never resolve
    /// through a commit: match once more, then apply the buffered
    /// checker's exemptions, else report corruption.
    fn settle(&mut self, path: &str, p: Pending) {
        if let Some(seen) = self.try_match(path, &p) {
            self.adjudicate(path, &p, seen);
            return;
        }
        // Never-modelled path: the buffered checker skips it too.
        if !self.paths.contains_key(path) {
            return;
        }
        // The created-empty state is the file's version "-1": an empty
        // read is legitimate, not corruption, while close-to-open owes
        // the reader nothing newer.
        if p.len == 0 && !self.durable_before(path, p.t_start) {
            return;
        }
        self.violations.push(Violation::CorruptRead {
            client: p.client,
            path: path.to_string(),
            t: p.t_done,
            len: p.len,
            fnv: p.fnv,
        });
    }

    /// Resolves the head of one (client, path) pending FIFO while it
    /// matches, preserving FIFO order for `last_seen`.
    fn drain_fifo(&mut self, ci: usize, path: &str) {
        loop {
            let key = (ci, path.to_string());
            let Some(head) = self.pending.get(&key).and_then(|f| f.front().copied()) else {
                return;
            };
            let Some(seen) = self.try_match(path, &head) else {
                return;
            };
            self.pending
                .get_mut(&key)
                .expect("drained fifo")
                .pop_front();
            self.pending_live -= 1;
            self.adjudicate(path, &head, seen);
        }
    }

    /// Settles every pending read whose hold deadline has passed, then
    /// lets any newly exposed heads try to match.
    fn expire_pending(&mut self) {
        if self.pending_live == 0 {
            return;
        }
        let expired: Vec<(usize, String)> = self
            .pending
            .iter()
            .filter(|(_, f)| f.front().is_some_and(|p| p.deadline < self.model_now))
            .map(|(k, _)| k.clone())
            .collect();
        for (ci, path) in expired {
            loop {
                let key = (ci, path.clone());
                let Some(head) = self.pending.get(&key).and_then(|f| f.front().copied()) else {
                    break;
                };
                if head.deadline >= self.model_now {
                    break;
                }
                self.pending
                    .get_mut(&key)
                    .expect("expired fifo")
                    .pop_front();
                self.pending_live -= 1;
                self.settle(&path, head);
            }
            self.drain_fifo(ci, &path);
        }
        self.pending.retain(|_, f| !f.is_empty());
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
                .enumerate()
                .rev()
                .find(|(_, v)| v.certain && v.t_done <= cutoff)
                .map(|(k, _)| k);
            if let Some(a) = anchor {
                for _ in 0..a {
                    ps.versions.pop_front();
                }
                ps.retired += a;
                dropped += a;
            }
        }
        self.versions_live -= dropped;
        self.stats.retired += dropped as u64;
        let held: HashSet<&str> = self
            .pending
            .iter()
            .filter(|(_, f)| !f.is_empty())
            .map(|((_, p), _)| p.as_str())
            .collect();
        let dead: Vec<String> = self
            .paths
            .iter()
            .filter(|(p, ps)| {
                ps.versions.is_empty()
                    && ps.retired == 0
                    && self.model_now.saturating_sub(ps.touched) > self.cfg.retain
                    && !held.contains(p.as_str())
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

    fn note_peak(&mut self) {
        let live = self.versions_live + self.pending_live;
        if live > self.stats.peak_retained {
            self.stats.peak_retained = live;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fnv1a, Oracle};

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

    fn created(client: usize, t: u64, path: &str, outcome: OpOutcome) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::Created {
                path: path.to_string(),
                outcome,
            },
        }
    }

    fn removed(client: usize, t: u64, path: &str, outcome: OpOutcome) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::Removed {
                path: path.to_string(),
                outcome,
            },
        }
    }

    fn read_failed(client: usize, t: u64, path: &str, status: &str) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::ReadFailed {
                path: path.to_string(),
                status: status.to_string(),
            },
        }
    }

    fn listed(client: usize, t: u64, dir: &str, names: &[&str]) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + MS,
            kind: ObsKind::Listed {
                dir: dir.to_string(),
                names: names.iter().map(|s| s.to_string()).collect(),
            },
        }
    }

    /// Splits a flat log into per-client feeds (preserving order).
    fn split(log: &[Obs], clients: usize) -> Vec<Vec<Obs>> {
        let mut per: Vec<Vec<Obs>> = vec![Vec::new(); clients];
        for o in log {
            per[o.client].push(o.clone());
        }
        per
    }

    /// Runs the streaming checker over per-client feeds, interleaving
    /// one observation per client round-robin, and the buffered checker
    /// over the client-major flatten; returns both verdicts.
    fn both(
        cfg: StreamConfig,
        per_client: Vec<Vec<Obs>>,
    ) -> (Vec<Violation>, Vec<Violation>, StreamStats) {
        let flat: Vec<Obs> = per_client.iter().flatten().cloned().collect();
        let buffered = Oracle::new(cfg.grace).check(&flat);
        let clients = per_client.len();
        let mut s = StreamingOracle::new(clients, cfg);
        let mut feeds: Vec<VecDeque<Obs>> = per_client.into_iter().map(VecDeque::from).collect();
        let mut any = true;
        while any {
            any = false;
            for f in feeds.iter_mut() {
                if let Some(o) = f.pop_front() {
                    s.feed(o);
                    any = true;
                }
            }
        }
        for ci in 0..clients {
            s.finish_client(ci);
        }
        let out = s.finish();
        (buffered, out.violations, out.stats)
    }

    /// Equivalence-test config: a short hold so expiry paths run, but
    /// a retain window wider than any staleness the scenarios exercise
    /// (inside the window the checkers must agree exactly).
    fn cfg_small() -> StreamConfig {
        StreamConfig::new(GRACE, 8 * SEC, 60 * SEC)
    }

    #[test]
    fn clean_multi_client_run_agrees_with_buffered() {
        let log = vec![
            created(0, SEC, "/d/f", OpOutcome::Ok),
            committed(0, 2 * SEC, "/d/f", "v1", true),
            observed(1, 6 * SEC, "/d/f", "v1"),
            committed(0, 9 * SEC, "/d/f", "v2", true),
            observed(1, 13 * SEC, "/d/f", "v2"),
            listed(1, 14 * SEC, "/d", &["f"]),
        ];
        let (b, s, _) = both(cfg_small(), split(&log, 2));
        assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
        assert_eq!(b, s);
    }

    #[test]
    fn stale_and_time_travel_match_buffered() {
        let log = vec![
            committed(0, SEC, "/d/f", "v1", true),
            committed(0, 5 * SEC, "/d/f", "v2", true),
            // Well past grace, reader sees v1: stale.
            observed(1, 20 * SEC, "/d/f", "v1"),
            // Then v2, then v1 again: time travel.
            observed(1, 21 * SEC, "/d/f", "v2"),
            observed(1, 22 * SEC, "/d/f", "v1"),
        ];
        let (b, s, _) = both(cfg_small(), split(&log, 2));
        assert!(b.iter().any(|v| matches!(v, Violation::StaleRead { .. })));
        assert!(b.iter().any(|v| matches!(v, Violation::TimeTravel { .. })));
        assert_eq!(b, s);
    }

    #[test]
    fn replay_lost_file_missing_entry_match_buffered() {
        let log = vec![
            // Replayed CREATE: EXIST on a name the model knows is absent.
            created(0, SEC, "/d/a", OpOutcome::Status("Exist".into())),
            // Replayed REMOVE: NOENT on a name the model knows exists.
            created(0, 2 * SEC, "/d/b", OpOutcome::Ok),
            removed(0, 3 * SEC, "/d/b", OpOutcome::Status("NoEnt".into())),
            // Lost file: durable content answers NOENT.
            committed(0, 4 * SEC, "/d/c", "cc", true),
            read_failed(1, 30 * SEC, "/d/c", "NoEnt"),
            // Missing entry: durable never-removed file absent from listing.
            listed(1, 31 * SEC, "/d", &["a", "b"]),
        ];
        let (b, s, _) = both(cfg_small(), split(&log, 2));
        assert!(b.iter().any(|v| matches!(v, Violation::Replay { .. })));
        assert!(b.iter().any(|v| matches!(v, Violation::LostFile { .. })));
        assert!(b
            .iter()
            .any(|v| matches!(v, Violation::MissingEntry { .. })));
        assert_eq!(b, s);
    }

    #[test]
    fn in_flight_commit_resolves_pending_read() {
        // Reader completes before the writer's close does: the match
        // must defer until the commit arrives, then adjudicate clean.
        let w = Obs {
            client: 0,
            t_start: 10 * SEC,
            t_done: 15 * SEC, // close in flight for 5 s
            kind: ObsKind::Committed {
                path: "/d/f".to_string(),
                len: 2,
                fnv: fnv1a(b"v9"),
                certain: true,
            },
        };
        let r = observed(1, 12 * SEC, "/d/f", "v9");
        let (b, s, _) = both(cfg_small(), vec![vec![w], vec![r]]);
        assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
        assert_eq!(b, s);
    }

    #[test]
    fn unmatched_read_expires_to_corrupt_like_buffered() {
        let log = vec![
            committed(0, SEC, "/d/f", "v1", true),
            observed(1, 5 * SEC, "/d/f", "garbage"),
            // Keep the world running well past the hold window so expiry
            // (not the finish drain) adjudicates.
            observed(1, 40 * SEC, "/d/f", "v1"),
        ];
        let (b, s, _) = both(cfg_small(), split(&log, 2));
        assert!(b.iter().any(|v| matches!(v, Violation::CorruptRead { .. })));
        assert_eq!(b, s);
    }

    #[test]
    fn uncertain_versions_and_unknown_names_match_buffered() {
        let log = vec![
            committed(0, SEC, "/d/f", "v1", true),
            committed(0, 5 * SEC, "/d/f", "v2", false), // tainted
            observed(1, 20 * SEC, "/d/f", "v1"),        // allowed: floor is v1
            created(0, 21 * SEC, "/d/t", OpOutcome::Indeterminate),
            observed(1, 22 * SEC, "/d/t", "??"), // unknown name: skipped
        ];
        let (b, s, _) = both(cfg_small(), split(&log, 2));
        assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
        assert_eq!(b, s);
    }

    #[test]
    fn empty_read_is_legal_until_a_certain_close_is_owed() {
        // Created, one close, an empty read long after it, and a later
        // observation so that expiry (not the finish drain) settles it.
        let log = |certain: bool| {
            vec![
                created(0, SEC, "/d/f", OpOutcome::Ok),
                committed(0, 2 * SEC, "/d/f", "v1", certain),
                observed(1, 9 * SEC, "/d/f", ""),
                listed(1, 40 * SEC, "/d", &["f"]),
            ]
        };
        // An uncertain close may never have landed: the file may still be
        // as it was created.
        let (b, s, _) = both(cfg_small(), split(&log(false), 2));
        assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
        assert_eq!(b, s);
        // A certain one older than grace is owed to the reader.
        let (b, s, _) = both(cfg_small(), split(&log(true), 2));
        assert!(
            matches!(b.as_slice(), [Violation::CorruptRead { len: 0, .. }]),
            "{b:?}"
        );
        assert_eq!(b, s);
    }

    #[test]
    fn feed_interleaving_does_not_change_verdict_or_stats() {
        let mut log = Vec::new();
        for r in 0..6u64 {
            let t = SEC + r * 3 * SEC;
            log.push(committed(0, t, "/d/f", &format!("v{r}"), r % 3 != 2));
            log.push(observed(1, t + SEC, "/d/f", &format!("v{r}")));
            log.push(observed(2, t + 2 * SEC, "/d/f", &format!("v{r}")));
        }
        let per = split(&log, 3);
        let (b, s1, st1) = both(cfg_small(), per.clone());
        // Same feeds, whole clients in sequence instead of round-robin.
        let mut s = StreamingOracle::new(3, cfg_small());
        for feed in &per {
            for o in feed {
                s.feed(o.clone());
            }
        }
        for ci in 0..3 {
            s.finish_client(ci);
        }
        let out = s.finish();
        assert_eq!(b, s1);
        assert_eq!(s1, out.violations);
        assert_eq!(st1, out.stats);
    }

    #[test]
    fn retirement_bounds_memory_independent_of_length() {
        // One writer + one reader ping-ponging on one file for a long
        // time: retained state must stay flat while `retired` grows.
        let run = |rounds: u64| {
            let mut s = StreamingOracle::new(2, StreamConfig::new(GRACE, 8 * SEC, 12 * SEC));
            for r in 0..rounds {
                let t = SEC + r * 4 * SEC;
                s.feed(committed(0, t, "/d/f", &format!("v{r}"), true));
                s.heartbeat(1, t + MS);
                s.feed(observed(1, t + SEC, "/d/f", &format!("v{r}")));
                s.heartbeat(0, t + SEC + MS);
            }
            for ci in 0..2 {
                s.finish_client(ci);
            }
            s.finish()
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

    #[test]
    fn capture_reproduces_buffered_input_order() {
        let log = vec![
            committed(0, SEC, "/d/f", "v1", true),
            observed(1, 5 * SEC, "/d/f", "v1"),
        ];
        let per = split(&log, 2);
        let flat: Vec<Obs> = per.iter().flatten().cloned().collect();
        let mut s = StreamingOracle::new(2, cfg_small()).with_capture();
        for o in &flat {
            s.feed(o.clone());
        }
        for ci in 0..2 {
            s.finish_client(ci);
        }
        let out = s.finish();
        let cap = out.log.expect("capture enabled");
        assert_eq!(cap.len(), flat.len());
        for (a, b) in cap.iter().zip(flat.iter()) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.t_done, b.t_done);
        }
    }
}

//! The buffered reference checker: the whole observation log, replayed
//! post-hoc against a sequential model filesystem.
//!
//! It checks the contract `renofs_oracle::StreamingOracle` checks, the
//! simple way — O(total ops) memory, every version of every path known
//! before the first read is judged — so the tests can hold the shipped
//! checker to it: `tests/stream_reference.rs` on hand-built logs, and
//! `crates/bench/tests/soak_differential.rs` (which includes this file
//! with `#[path]`) on whole soak worlds. It is built on the oracle
//! crate's public types only.
//!
//! # Where a prefix cannot agree with the whole log
//!
//! This checker's whole-log knowledge leaks into a few adjudications
//! that the streaming checker, seeing a prefix, cannot reproduce. None
//! arise in the soak workload, which announces every write, and the
//! differential tests pin exact equivalence there:
//!
//! * A read of a write that was never announced, finishing before its
//!   `Committed` is released, is `CorruptRead` in the streaming checker;
//!   this one matches it. Announcing is the writer's half of the
//!   contract.
//! * A write announced but never committed stays an open, uncertain
//!   version there; this checker ignores `Writing`, so later versions of
//!   that path are numbered one higher there.
//! * A violation *older than the retain window* may be reported there as
//!   `CorruptRead` where this checker, with the retired version list in
//!   hand, says `StaleRead`.
//! * `ever_removed` (which downgrades the directory-listing check) is
//!   prefix knowledge there but whole-log here; the workload never
//!   removes a committed file, so the two agree.
//! * A read of a name no earlier observation created, wrote or removed
//!   is judged there; this checker skips a name the whole log never
//!   models. Reads follow creation in the workload.
//! * Names quiescent longer than `retain` with no versions are garbage
//!   collected there and lose replay armor; soak temp names are used
//!   once.

use std::collections::HashMap;

use renofs_oracle::{Obs, ObsKind, OpOutcome, Violation};

/// One committed (or possibly-committed) version of a file.
#[derive(Clone, Debug)]
struct Version {
    len: usize,
    fnv: u64,
    /// When the close was issued (content cannot be observed earlier).
    t_start: u64,
    /// When the close returned.
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

/// Per-path model state built from the observation log.
#[derive(Debug, Default)]
struct PathModel {
    versions: Vec<Version>,
    /// Whether any Removed observation targets this path (paths that
    /// are never removed get the stronger directory-listing check).
    ever_removed: bool,
}

/// The path (or, for a listing, the directory) an observation is about.
fn obs_path(kind: &ObsKind) -> &str {
    match kind {
        ObsKind::Created { path, .. }
        | ObsKind::Writing { path, .. }
        | ObsKind::Committed { path, .. }
        | ObsKind::Observed { path, .. }
        | ObsKind::ReadFailed { path, .. }
        | ObsKind::Removed { path, .. } => path,
        ObsKind::Listed { dir, .. } => dir,
    }
}

/// The sequential model filesystem plus the contract parameters.
pub struct Oracle {
    /// Bounded-staleness window in virtual nanoseconds (the client
    /// attribute-cache lifetime plus scheduling slack).
    grace: u64,
}

impl Oracle {
    /// Builds an oracle with the given close-to-open grace window.
    pub fn new(grace_ns: u64) -> Self {
        Oracle { grace: grace_ns }
    }

    /// Replays the merged observation log and returns every violation,
    /// in virtual-time order. The log may arrive in any order; it is
    /// sorted deterministically before replay.
    pub fn check(&self, observations: &[Obs]) -> Vec<Violation> {
        // Deterministic chronological order: completion time, then
        // client, then original position (per-client logs are already
        // ordered, so position breaks ties stably).
        let mut order: Vec<usize> = (0..observations.len()).collect();
        order.sort_by_key(|&i| (observations[i].t_done, observations[i].client, i));

        // Pass 1: collect every version of every path, so a reader that
        // races a writer can be matched against a version whose close
        // completes later in the log.
        let mut model: HashMap<&str, PathModel> = HashMap::new();
        for obs in observations {
            match &obs.kind {
                ObsKind::Committed {
                    path,
                    len,
                    fnv,
                    certain,
                } => {
                    model.entry(path).or_default().versions.push(Version {
                        len: *len,
                        fnv: *fnv,
                        t_start: obs.t_start,
                        t_done: obs.t_done,
                        certain: *certain,
                    });
                }
                ObsKind::Removed { path, .. } => {
                    model.entry(path).or_default().ever_removed = true;
                }
                ObsKind::Created { path, .. } => {
                    model.entry(path).or_default();
                }
                _ => {}
            }
        }
        // Single-writer files: versions arrive in per-client order, but
        // the global merge above interleaves clients, so sort by close
        // issue time.
        for pm in model.values_mut() {
            pm.versions.sort_by_key(|v| (v.t_start, v.t_done));
        }

        // Pass 2: chronological replay with existence tracking and
        // per-reader monotonicity.
        let mut exists: HashMap<&str, Exists> = HashMap::new();
        let mut last_seen: HashMap<(usize, &str), usize> = HashMap::new();
        let mut violations = Vec::new();

        for &i in &order {
            let obs = &observations[i];
            let path = obs_path(&obs.kind);
            match &obs.kind {
                ObsKind::Created { outcome, .. } => {
                    let st = exists.entry(path).or_insert(Exists::No);
                    match outcome {
                        OpOutcome::Ok => *st = Exists::Yes,
                        OpOutcome::Indeterminate => {
                            if *st == Exists::No {
                                *st = Exists::Unknown;
                            }
                        }
                        OpOutcome::Status(s) => {
                            // Creating a name the model knows is absent
                            // must not answer EXIST: that is a replayed
                            // CREATE/MKDIR re-executing.
                            if *st == Exists::No && s.contains("Exist") {
                                violations.push(Violation::Replay {
                                    client: obs.client,
                                    path: path.to_string(),
                                    t: obs.t_done,
                                    op: "create",
                                    status: s.clone(),
                                });
                            }
                            if *st == Exists::No && !s.contains("Exist") {
                                // e.g. NOENT on a vanished parent: the
                                // name still does not exist.
                            } else if s.contains("Exist") {
                                *st = Exists::Yes;
                            }
                        }
                    }
                }
                ObsKind::Removed { outcome, .. } => {
                    let st = exists.entry(path).or_insert(Exists::No);
                    match outcome {
                        OpOutcome::Ok => *st = Exists::No,
                        OpOutcome::Indeterminate => *st = Exists::Unknown,
                        OpOutcome::Status(s) => {
                            // Removing a name the model knows exists must
                            // not answer NOENT: the first transmission
                            // already removed it and the retransmission
                            // was re-executed instead of being answered
                            // from the duplicate-request cache.
                            if *st == Exists::Yes && s.contains("NoEnt") {
                                violations.push(Violation::Replay {
                                    client: obs.client,
                                    path: path.to_string(),
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
                ObsKind::Committed { .. } => {
                    // A completed close implies the name exists.
                    exists.insert(path, Exists::Yes);
                }
                // Pass 1 already holds every version from its close's
                // issue time.
                ObsKind::Writing { .. } => {}
                ObsKind::Observed { len, fnv, .. } => {
                    if exists.get(path) == Some(&Exists::Unknown) {
                        continue;
                    }
                    let Some(pm) = model.get(path) else { continue };
                    // Match newest-first: content is observable from the
                    // moment its close is issued (the flush precedes the
                    // close reply).
                    let seen = pm
                        .versions
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, v)| v.t_start <= obs.t_done && v.len == *len && v.fnv == *fnv)
                        .map(|(k, _)| k);
                    // Close-to-open floor: the newest *certain* version
                    // committed more than `grace` before the open.
                    let floor = pm
                        .versions
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, v)| v.certain && v.t_done + self.grace <= obs.t_start)
                        .map(|(k, _)| k);
                    let Some(seen) = seen else {
                        // The created-empty state is the file's version
                        // "-1": an empty read is legitimate, not
                        // corruption, while close-to-open owes the reader
                        // nothing newer (an uncertain close may never
                        // have landed).
                        if *len == 0 && floor.is_none() {
                            continue;
                        }
                        violations.push(Violation::CorruptRead {
                            client: obs.client,
                            path: path.to_string(),
                            t: obs.t_done,
                            len: *len,
                            fnv: *fnv,
                        });
                        continue;
                    };
                    if let Some(floor) = floor {
                        if seen < floor {
                            violations.push(Violation::StaleRead {
                                client: obs.client,
                                path: path.to_string(),
                                t: obs.t_start,
                                seen,
                                floor,
                            });
                        }
                    }
                    let key = (obs.client, path);
                    let prev = last_seen.get(&key).copied();
                    if let Some(prev) = prev {
                        if seen < prev {
                            violations.push(Violation::TimeTravel {
                                client: obs.client,
                                path: path.to_string(),
                                t: obs.t_done,
                                seen,
                                prev,
                            });
                        }
                    }
                    last_seen.insert(key, seen.max(prev.unwrap_or(0)));
                }
                ObsKind::ReadFailed { status, .. } => {
                    if exists.get(path) == Some(&Exists::Unknown) {
                        continue;
                    }
                    let vanished = status.contains("NoEnt") || status.contains("Stale");
                    if !vanished {
                        continue;
                    }
                    // The file must have durably existed well before the
                    // open for its disappearance to be a violation.
                    let durable = model
                        .get(path)
                        .map(|pm| {
                            pm.versions
                                .iter()
                                .any(|v| v.certain && v.t_done + self.grace <= obs.t_start)
                        })
                        .unwrap_or(false);
                    if durable && exists.get(path) == Some(&Exists::Yes) {
                        violations.push(Violation::LostFile {
                            client: obs.client,
                            path: path.to_string(),
                            t: obs.t_start,
                            status: status.clone(),
                        });
                    }
                }
                ObsKind::Listed { dir, names } => {
                    // Every never-removed file with a certain version
                    // committed more than `grace` before the listing must
                    // appear. Candidate paths are visited in sorted order
                    // so ties in the final report order are deterministic
                    // (HashMap iteration is not).
                    let prefix = if dir.ends_with('/') {
                        dir.clone()
                    } else {
                        format!("{dir}/")
                    };
                    let mut cands: Vec<(&&str, &PathModel)> = model.iter().collect();
                    cands.sort_by_key(|(p, _)| **p);
                    for (p, pm) in cands {
                        if pm.ever_removed || !p.starts_with(prefix.as_str()) {
                            continue;
                        }
                        let name = &p[prefix.len()..];
                        if name.contains('/') {
                            continue;
                        }
                        let durable = pm
                            .versions
                            .iter()
                            .any(|v| v.certain && v.t_done + self.grace <= obs.t_start);
                        if durable && !names.iter().any(|n| n == name) {
                            violations.push(Violation::MissingEntry {
                                client: obs.client,
                                dir: dir.clone(),
                                path: p.to_string(),
                                t: obs.t_start,
                            });
                        }
                    }
                }
            }
        }
        // The streaming checker's report order: time, then client, then
        // the full rendered record, so exact (t, client) ties (two
        // missing entries from one listing, say) break identically.
        violations.sort_by_cached_key(|v| {
            let (t, c) = v.time_client();
            (t, c, format!("{v:?}"))
        });
        violations
    }
}

//! The differential consistency oracle for the chaos soak harness.
//!
//! A soak world runs many NFS clients against one server through a
//! faulty network. Each client records every operation it performs as a
//! timestamped [`Obs`]ervation: file versions it committed (wrote and
//! closed), contents it observed (opened and read), names it created,
//! removed, or listed, and operations whose effect is *indeterminate*
//! because a soft mount gave up mid-flight. After the world finishes,
//! [`Oracle::check`] replays the merged observation log against a
//! sequential model filesystem and reports every [`Violation`] of the
//! NFS v2 contract this repo implements:
//!
//! * **Close-to-open consistency.** A reader that opens a file must see
//!   a version at least as new as the newest version whose close
//!   completed more than `grace` before the open. The grace window is
//!   the client attribute-cache lifetime: 4.3BSD close-to-open is
//!   bounded-staleness, not linearizability (DESIGN.md §6).
//! * **Content integrity.** Every observed content must be *some*
//!   version the single writer of that file actually wrote — a read
//!   must never return torn, scrambled, or invented bytes, no matter
//!   what the network did to the frames in flight.
//! * **Synchronous-write durability.** The server acknowledges a WRITE
//!   only after it is on stable storage (DESIGN.md §6a), so a version
//!   committed before a server crash must still be visible after the
//!   reboot. A lost version surfaces here as a stale or failed read.
//! * **Exactly-once semantics for non-idempotent operations.** A
//!   retransmitted CREATE or REMOVE answered from the duplicate-request
//!   cache must not re-execute: a remove of an existing name answering
//!   `NOENT`, or a create of a fresh name answering `EXIST`, is a
//!   replay anomaly.
//!
//! The oracle is deliberately conservative about *indeterminate*
//! operations: when a soft mount times out, the client cannot know
//! whether the server applied the request, so the affected name enters
//! an unknown state (existence) or contributes an uncertain version
//! (content) that readers may — but need not — observe. Uncertain
//! versions never raise the close-to-open floor.
//!
//! The model assumes the soak workload discipline: every file has a
//! single writer (clients write only under their own directory), writes
//! replace the whole file in one NFS WRITE (so content is never torn at
//! the server), and fault-induced frame delays are far shorter than the
//! spacing between successive versions of one file.

use std::collections::HashMap;
use std::fmt;

pub mod stream;
pub use stream::{StreamConfig, StreamOutcome, StreamStats, StreamingOracle};

/// FNV-1a 64-bit hash, the content fingerprint used by writers and
/// readers. Collisions between the handful of versions of one file are
/// never a practical concern.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a mutating operation concluded, as seen by the issuing client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// The server acknowledged success.
    Ok,
    /// A soft mount gave up: the server may or may not have applied it.
    Indeterminate,
    /// The server answered an NFS error (the status name, e.g. "NOENT").
    Status(String),
}

/// One client-side observation, timestamped in virtual nanoseconds.
#[derive(Clone, Debug)]
pub struct Obs {
    /// The observing client's index.
    pub client: usize,
    /// Virtual time the operation was issued.
    pub t_start: u64,
    /// Virtual time the operation returned.
    pub t_done: u64,
    /// What happened.
    pub kind: ObsKind,
}

/// The observation payload.
#[derive(Clone, Debug)]
pub enum ObsKind {
    /// A CREATE (or MKDIR) of `path` concluded with `outcome`.
    Created {
        /// Absolute path of the new name.
        path: String,
        /// How the create concluded.
        outcome: OpOutcome,
    },
    /// The client wrote the whole file and closed it: version committed.
    Committed {
        /// Absolute path of the file.
        path: String,
        /// Content length in bytes.
        len: usize,
        /// Content fingerprint ([`fnv1a`]).
        fnv: u64,
        /// `false` when the close timed out on a soft mount: the bytes
        /// may or may not have reached stable storage.
        certain: bool,
    },
    /// The client opened the file and read it end to end.
    Observed {
        /// Absolute path of the file.
        path: String,
        /// Bytes read.
        len: usize,
        /// Fingerprint of the bytes read.
        fnv: u64,
    },
    /// An open-for-read or read failed with an NFS error.
    ReadFailed {
        /// Absolute path of the file.
        path: String,
        /// Status name (e.g. "NOENT", "STALE").
        status: String,
    },
    /// A REMOVE of `path` concluded with `outcome`.
    Removed {
        /// Absolute path removed.
        path: String,
        /// How the remove concluded.
        outcome: OpOutcome,
    },
    /// A READDIR of `dir` returned exactly these names.
    Listed {
        /// Absolute path of the directory.
        dir: String,
        /// Entry names, as returned (excluding "." and "..").
        names: Vec<String>,
    },
}

impl ObsKind {
    fn path(&self) -> &str {
        match self {
            ObsKind::Created { path, .. }
            | ObsKind::Committed { path, .. }
            | ObsKind::Observed { path, .. }
            | ObsKind::ReadFailed { path, .. }
            | ObsKind::Removed { path, .. } => path,
            ObsKind::Listed { dir, .. } => dir,
        }
    }
}

/// One violation of the consistency contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A read returned bytes matching no version the writer ever wrote.
    CorruptRead {
        /// The reading client.
        client: usize,
        /// The file.
        path: String,
        /// When the read returned (virtual ns).
        t: u64,
        /// Bytes observed.
        len: usize,
        /// Fingerprint observed.
        fnv: u64,
    },
    /// A read returned a version older than close-to-open allows.
    StaleRead {
        /// The reading client.
        client: usize,
        /// The file.
        path: String,
        /// When the open was issued (virtual ns).
        t: u64,
        /// Version index the reader saw.
        seen: usize,
        /// Newest version index committed more than `grace` before the
        /// open — the version the reader was entitled to.
        floor: usize,
    },
    /// One client saw a file's versions go backwards across two reads.
    TimeTravel {
        /// The reading client.
        client: usize,
        /// The file.
        path: String,
        /// When the later read returned (virtual ns).
        t: u64,
        /// Version index the later read saw.
        seen: usize,
        /// Version index a previous read had already seen.
        prev: usize,
    },
    /// A file with committed content answered NOENT/STALE to a reader:
    /// the synchronous-write durability contract lost data.
    LostFile {
        /// The reading client.
        client: usize,
        /// The file.
        path: String,
        /// When the failed open/read was issued (virtual ns).
        t: u64,
        /// The error status observed.
        status: String,
    },
    /// A non-idempotent operation was visibly re-executed (or lost):
    /// the duplicate-request cache failed exactly-once semantics.
    Replay {
        /// The issuing client.
        client: usize,
        /// The name operated on.
        path: String,
        /// When the operation returned (virtual ns).
        t: u64,
        /// "create" or "remove".
        op: &'static str,
        /// The anomalous status observed.
        status: String,
    },
    /// A directory listing omitted a name that must exist.
    MissingEntry {
        /// The listing client.
        client: usize,
        /// The directory listed.
        dir: String,
        /// The absent name (full path).
        path: String,
        /// When the listing was issued (virtual ns).
        t: u64,
    },
}

impl Violation {
    /// The violation's (time, client) anchor, the primary report order.
    pub fn time_client(&self) -> (u64, usize) {
        match self {
            Violation::CorruptRead { t, client, .. }
            | Violation::StaleRead { t, client, .. }
            | Violation::TimeTravel { t, client, .. }
            | Violation::LostFile { t, client, .. }
            | Violation::Replay { t, client, .. }
            | Violation::MissingEntry { t, client, .. } => (*t, *client),
        }
    }
}

/// The deterministic total order both checkers sort their reports by:
/// time, then client, then the full rendered record so exact ties (two
/// missing entries from one listing, say) break identically no matter
/// which checker — or which internal iteration order — produced them.
pub(crate) fn violation_total_key(v: &Violation) -> (u64, usize, String) {
    let (t, c) = v.time_client();
    (t, c, format!("{v:?}"))
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CorruptRead {
                client,
                path,
                t,
                len,
                fnv,
            } => write!(
                f,
                "corrupt read: client {client} read {path} at t={}ms and got \
                 {len} bytes (fnv {fnv:016x}) matching no committed version",
                t / 1_000_000
            ),
            Violation::StaleRead {
                client,
                path,
                t,
                seen,
                floor,
            } => write!(
                f,
                "stale read: client {client} opened {path} at t={}ms and saw \
                 version {seen}, but close-to-open entitles it to version {floor}",
                t / 1_000_000
            ),
            Violation::TimeTravel {
                client,
                path,
                t,
                seen,
                prev,
            } => write!(
                f,
                "time travel: client {client} re-read {path} at t={}ms and saw \
                 version {seen} after having already seen version {prev}",
                t / 1_000_000
            ),
            Violation::LostFile {
                client,
                path,
                t,
                status,
            } => write!(
                f,
                "lost file: client {client} opened {path} at t={}ms and got \
                 {status}, but the file has durably committed content",
                t / 1_000_000
            ),
            Violation::Replay {
                client,
                path,
                t,
                op,
                status,
            } => write!(
                f,
                "replay anomaly: client {client} {op} {path} at t={}ms \
                 answered {status} — a non-idempotent RPC was re-executed",
                t / 1_000_000
            ),
            Violation::MissingEntry {
                client,
                dir,
                path,
                t,
            } => write!(
                f,
                "missing entry: client {client} listed {dir} at t={}ms and \
                 {path} was absent despite being durably created",
                t / 1_000_000
            ),
        }
    }
}

/// One committed (or possibly-committed) version of a file.
#[derive(Clone, Debug)]
pub(crate) struct Version {
    pub(crate) len: usize,
    pub(crate) fnv: u64,
    /// When the close was issued (content cannot be observed earlier).
    pub(crate) t_start: u64,
    /// When the close returned.
    pub(crate) t_done: u64,
    /// Whether the close succeeded (uncertain versions never raise the
    /// close-to-open floor).
    pub(crate) certain: bool,
}

/// Name-existence state in the sequential model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exists {
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
            let path = obs.kind.path();
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
        // Total-order sort shared with the streaming checker so exact
        // (t, client) ties break identically in both.
        violations.sort_by_cached_key(violation_total_key);
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(client: usize, t: u64, path: &str, fnv: u64, certain: bool) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + 1_000_000,
            kind: ObsKind::Committed {
                path: path.to_string(),
                len: 100,
                fnv,
                certain,
            },
        }
    }

    fn observed(client: usize, t: u64, path: &str, fnv: u64) -> Obs {
        Obs {
            client,
            t_start: t,
            t_done: t + 1_000_000,
            kind: ObsKind::Observed {
                path: path.to_string(),
                len: 100,
                fnv,
            },
        }
    }

    const GRACE: u64 = 1_000_000_000;
    const SEC: u64 = 1_000_000_000;

    #[test]
    fn fnv_distinguishes_contents() {
        assert_ne!(fnv1a(b"hello"), fnv1a(b"world"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn clean_history_has_no_violations() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            observed(1, 3 * SEC, "/c0/f0", 11),
            committed(0, 5 * SEC, "/c0/f0", 22, true),
            observed(1, 8 * SEC, "/c0/f0", 22),
        ];
        assert!(Oracle::new(GRACE).check(&obs).is_empty());
    }

    #[test]
    fn unknown_content_is_a_corrupt_read() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            observed(1, 3 * SEC, "/c0/f0", 0xBAD),
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(v.as_slice(), [Violation::CorruptRead { .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn old_version_beyond_grace_is_a_stale_read() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            committed(0, 5 * SEC, "/c0/f0", 22, true),
            observed(1, 9 * SEC, "/c0/f0", 11),
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(
                v.as_slice(),
                [Violation::StaleRead {
                    seen: 0,
                    floor: 1,
                    ..
                }]
            ),
            "{v:?}"
        );
    }

    #[test]
    fn recent_version_is_within_grace() {
        // The newer close completed only 200ms before the open: the
        // reader's attribute cache may legitimately still be warm.
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            committed(0, 5 * SEC, "/c0/f0", 22, true),
            observed(1, 5 * SEC + 200_000_000, "/c0/f0", 11),
        ];
        assert!(Oracle::new(GRACE).check(&obs).is_empty());
    }

    #[test]
    fn uncertain_versions_are_matchable_but_never_required() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            committed(0, 5 * SEC, "/c0/f0", 22, false),
            // Both the old certain and the new uncertain version are
            // acceptable long after the timed-out close.
            observed(1, 9 * SEC, "/c0/f0", 11),
            observed(2, 9 * SEC, "/c0/f0", 22),
        ];
        assert!(Oracle::new(GRACE).check(&obs).is_empty());
    }

    #[test]
    fn versions_never_go_backwards_for_one_reader() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            committed(0, 2 * SEC, "/c0/f0", 22, true),
            observed(1, 2 * SEC + 500_000_000, "/c0/f0", 22),
            // Within grace of v1, so not stale — but this reader already
            // saw v1, and versions must be monotone per observer.
            observed(1, 2 * SEC + 800_000_000, "/c0/f0", 11),
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(
                v.as_slice(),
                [Violation::TimeTravel {
                    seen: 0,
                    prev: 1,
                    ..
                }]
            ),
            "{v:?}"
        );
    }

    #[test]
    fn noent_remove_of_existing_name_is_a_replay() {
        let obs = vec![
            Obs {
                client: 0,
                t_start: SEC,
                t_done: SEC + 1,
                kind: ObsKind::Created {
                    path: "/c0/t0".into(),
                    outcome: OpOutcome::Ok,
                },
            },
            Obs {
                client: 0,
                t_start: 2 * SEC,
                t_done: 2 * SEC + 1,
                kind: ObsKind::Removed {
                    path: "/c0/t0".into(),
                    outcome: OpOutcome::Status("NoEnt".into()),
                },
            },
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(v.as_slice(), [Violation::Replay { op: "remove", .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn indeterminate_ops_suppress_replay_and_read_checks() {
        let obs = vec![
            Obs {
                client: 0,
                t_start: SEC,
                t_done: SEC + 1,
                kind: ObsKind::Created {
                    path: "/c0/t0".into(),
                    outcome: OpOutcome::Indeterminate,
                },
            },
            // NOENT on remove is fine: the create may never have landed.
            Obs {
                client: 0,
                t_start: 2 * SEC,
                t_done: 2 * SEC + 1,
                kind: ObsKind::Removed {
                    path: "/c0/t0".into(),
                    outcome: OpOutcome::Status("NoEnt".into()),
                },
            },
        ];
        assert!(Oracle::new(GRACE).check(&obs).is_empty());
    }

    #[test]
    fn lost_durable_file_is_flagged() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            Obs {
                client: 1,
                t_start: 9 * SEC,
                t_done: 9 * SEC + 1,
                kind: ObsKind::ReadFailed {
                    path: "/c0/f0".into(),
                    status: "NoEnt".into(),
                },
            },
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(v.as_slice(), [Violation::LostFile { .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn listing_must_contain_durable_never_removed_files() {
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            Obs {
                client: 0,
                t_start: 9 * SEC,
                t_done: 9 * SEC + 1,
                kind: ObsKind::Listed {
                    dir: "/c0".into(),
                    names: vec!["other".into()],
                },
            },
        ];
        let v = Oracle::new(GRACE).check(&obs);
        assert!(
            matches!(v.as_slice(), [Violation::MissingEntry { .. }]),
            "{v:?}"
        );
        // With the file present the listing is clean.
        let obs2 = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            Obs {
                client: 0,
                t_start: 9 * SEC,
                t_done: 9 * SEC + 1,
                kind: ObsKind::Listed {
                    dir: "/c0".into(),
                    names: vec!["f0".into()],
                },
            },
        ];
        assert!(Oracle::new(GRACE).check(&obs2).is_empty());
    }

    #[test]
    fn racing_reader_may_see_an_inflight_version() {
        // The reader's open/read completes before the writer's close
        // returns (flush already landed): matching the in-flight version
        // is legal and must not be corrupt or time travel.
        let obs = vec![
            committed(0, SEC, "/c0/f0", 11, true),
            Obs {
                client: 0,
                t_start: 5 * SEC,
                t_done: 7 * SEC,
                kind: ObsKind::Committed {
                    path: "/c0/f0".into(),
                    len: 100,
                    fnv: 22,
                    certain: true,
                },
            },
            observed(1, 5 * SEC + 500_000_000, "/c0/f0", 22),
        ];
        assert!(Oracle::new(GRACE).check(&obs).is_empty());
    }

    /// A create that succeeded, then one close of 100 bytes, then an
    /// empty read of the file at `read_at`.
    fn created_closed_read_empty(certain: bool, read_at: u64) -> Vec<Obs> {
        let path = "/c0/f0".to_string();
        let created = Obs {
            client: 0,
            t_start: SEC,
            t_done: SEC + 1,
            kind: ObsKind::Created {
                path: path.clone(),
                outcome: OpOutcome::Ok,
            },
        };
        let mut read = observed(1, read_at, &path, fnv1a(b""));
        if let ObsKind::Observed { len, .. } = &mut read.kind {
            *len = 0;
        }
        vec![created, committed(0, 2 * SEC, &path, 11, certain), read]
    }

    #[test]
    fn empty_read_is_legal_until_a_certain_close_is_owed() {
        // The close timed out (soft mount across a crash): its write may
        // never have landed, so the file may still be as it was created.
        let v = Oracle::new(GRACE).check(&created_closed_read_empty(false, 9 * SEC));
        assert!(v.is_empty(), "{v:?}");
        // A close that certainly landed is still inside the grace window.
        let v = Oracle::new(GRACE).check(&created_closed_read_empty(true, 2 * SEC + GRACE / 2));
        assert!(v.is_empty(), "{v:?}");
        // Past the window close-to-open owes the reader those 100 bytes.
        let v = Oracle::new(GRACE).check(&created_closed_read_empty(true, 9 * SEC));
        assert!(
            matches!(v.as_slice(), [Violation::CorruptRead { len: 0, .. }]),
            "{v:?}"
        );
    }
}

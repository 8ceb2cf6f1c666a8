//! The streaming checker against the buffered reference on hand-built
//! logs: the reference replays each log as written, the streaming
//! checker takes it in time order, and the two verdicts must be equal —
//! or, where a prefix cannot know what the whole log does, differ in
//! the one documented way.

mod reference;

use reference::Oracle;
use renofs_oracle::{
    fnv1a, Obs, ObsKind, OpOutcome, StreamConfig, StreamOutcome, StreamStats, StreamingOracle,
    Violation,
};

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

/// Feeds `log` to a three-client streaming checker in the order given
/// and returns its outcome.
fn stream(cfg: StreamConfig, log: impl IntoIterator<Item = Obs>) -> StreamOutcome {
    let mut s = StreamingOracle::new(3, cfg);
    for o in log {
        s.feed(o);
    }
    s.finish()
}

/// Runs the reference over `log` as written and the streaming checker
/// over it in time order (stable, so each client's observations keep
/// their order); returns both verdicts.
fn both(cfg: StreamConfig, mut log: Vec<Obs>) -> (Vec<Violation>, Vec<Violation>, StreamStats) {
    let buffered = Oracle::new(cfg.grace).check(&log);
    log.sort_by_key(|o| o.t_done);
    let out = stream(cfg, log);
    (buffered, out.violations, out.stats)
}

/// A retain window wider than any staleness the scenarios exercise
/// (inside the window the checkers must agree exactly).
fn cfg_small() -> StreamConfig {
    StreamConfig::new(GRACE, 60 * SEC)
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
    let (b, s, _) = both(cfg_small(), log);
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
    let (b, s, _) = both(cfg_small(), log);
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
    let (b, s, _) = both(cfg_small(), log);
    assert!(b.iter().any(|v| matches!(v, Violation::Replay { .. })));
    assert!(b.iter().any(|v| matches!(v, Violation::LostFile { .. })));
    assert!(b
        .iter()
        .any(|v| matches!(v, Violation::MissingEntry { .. })));
    assert_eq!(b, s);
}

/// A write whose close is in flight for 5 s, and a read that returns
/// with its bytes before the close does.
fn racing_write(announced: bool) -> Vec<Obs> {
    let mut close = committed(0, 10 * SEC, "/d/f", "v9", true);
    close.t_done = 15 * SEC;
    let mut log = vec![close, observed(1, 12 * SEC, "/d/f", "v9")];
    if announced {
        log.insert(0, writing(0, 10 * SEC, "/d/f", "v9"));
    }
    log
}

#[test]
fn announced_write_matches_a_read_that_returns_before_its_close() {
    let (b, s, st) = both(cfg_small(), racing_write(true));
    assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
    assert_eq!(b, s);
    // The announcement is an observation; the close completes the
    // version it opened rather than adding a second one.
    assert_eq!((st.processed, st.peak_retained), (3, 1));
}

#[test]
fn an_unannounced_in_flight_commit_leaves_its_read_corrupt() {
    // The contract: a read is judged when it is released, so a writer
    // that does not announce leaves the read nothing to match. The
    // reference, holding the whole log, matches it.
    let (b, s, _) = both(cfg_small(), racing_write(false));
    assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
    assert!(
        matches!(s.as_slice(), [Violation::CorruptRead { client: 1, .. }]),
        "{s:?}"
    );
}

#[test]
fn unmatched_read_is_corrupt_like_buffered() {
    let log = vec![
        committed(0, SEC, "/d/f", "v1", true),
        observed(1, 5 * SEC, "/d/f", "garbage"),
    ];
    let (b, s, _) = both(cfg_small(), log);
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
    let (b, s, _) = both(cfg_small(), log);
    assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
    assert_eq!(b, s);
}

#[test]
fn empty_read_is_legal_until_a_certain_close_is_owed() {
    // Created, one close, and an empty read long after it.
    let log = |certain: bool| {
        vec![
            created(0, SEC, "/d/f", OpOutcome::Ok),
            committed(0, 2 * SEC, "/d/f", "v1", certain),
            observed(1, 9 * SEC, "/d/f", ""),
        ]
    };
    // An uncertain close may never have landed: the file may still be
    // as it was created.
    let (b, s, _) = both(cfg_small(), log(false));
    assert!(b.is_empty(), "buffered baseline dirty: {b:?}");
    assert_eq!(b, s);
    // A certain one older than grace is owed to the reader.
    let (b, s, _) = both(cfg_small(), log(true));
    assert!(
        matches!(b.as_slice(), [Violation::CorruptRead { len: 0, .. }]),
        "{b:?}"
    );
    assert_eq!(b, s);
}

#[test]
fn client_order_within_an_instant_does_not_change_verdict_or_stats() {
    // Each round's unannounced close and two reads complete at one
    // instant: client 1's read matches only if the close goes first,
    // and client 2 reads two versions back, stale once a certain close
    // is owed to it.
    let mut log = Vec::new();
    for r in 0..6u64 {
        let t = SEC + r * 3 * SEC;
        log.push(committed(0, t, "/d/f", &format!("v{r}"), r % 3 != 2));
        log.push(observed(1, t, "/d/f", &format!("v{r}")));
        log.push(observed(2, t, "/d/f", &format!("v{}", r.saturating_sub(2))));
    }
    let buffered = Oracle::new(GRACE).check(&log);
    assert!(!buffered.is_empty(), "no stale read to order");
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let outs: Vec<StreamOutcome> = orders
        .iter()
        .map(|order| {
            let mut fed = log.clone();
            fed.sort_by_key(|o| (o.t_done, order.iter().position(|&c| c == o.client)));
            stream(cfg_small(), fed)
        })
        .collect();
    for out in &outs {
        assert_eq!(out.violations, buffered);
        assert_eq!(out.stats, outs[0].stats);
    }
}

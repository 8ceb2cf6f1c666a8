//! `repro` refuses what it cannot run as written, with exit status 2 and
//! the reason on stderr, before any world runs: a malformed value or an
//! unknown flag, an unknown experiment, a flag the command would ignore,
//! two scales or two world recipes at once, and a `--case` that is not a
//! sub-world of its seed (every such reason is checked in
//! `case_roundtrips_through_the_cli_encoding`).

use std::process::Command;

#[test]
fn repro_rejects_bad_and_ignored_flags() {
    let rejected: [(&[&str], &str); 14] = [
        (&["graph1", "--jobs", "0"], "usage:"),
        (&["graph1", "--scale", "huge"], "usage:"),
        (&["soak", "--seeds"], "usage:"),
        (&["soak", "--max-ops", "9"], "usage:"),
        (&["graph1", "--quick", "--scale", "paper"], "two scales"),
        (&["table5", "--check"], "usage:"),
        (
            &["graph7", "--scale", "quick", "--seeds", "5", "--lease"],
            "repro graph7 would ignore --seeds --lease",
        ),
        (
            &["shard", "--duration", "5", "--long"],
            "repro shard would ignore --duration --long",
        ),
        (
            &["all", "--case", "seed=1"],
            "repro all would ignore --case",
        ),
        (
            &["soak", "--case", "seed=1", "--seeds", "2", "--quick"],
            "repro soak would ignore --seeds --quick/--scale",
        ),
        (
            &["soak", "--case", "seed=3,clients=0"],
            "clients=0 is outside 1..=3",
        ),
        (
            &["soak", "--lease", "--long", "--seeds", "1"],
            "--lease and --long",
        ),
        (&["graph10", "--quick"], "unknown experiment: graph10"),
        (&["bench", "--quick"], "unknown experiment: bench"),
    ];
    for (args, why) in rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a world");
    }
}

/// `--duration` only ever cuts a sweep short: a sweep it does not cut
/// prints what the same sweep without it prints, byte for byte.
#[test]
fn a_duration_that_does_not_cut_the_sweep_changes_no_byte() {
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["soak", "--long", "--seeds", "3", "--scale", "quick"])
            .args(extra)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0), "{extra:?}");
        out.stdout
    };
    let whole = run(&[]);
    assert!(String::from_utf8_lossy(&whole).contains("checked 3 long worlds"));
    assert_eq!(run(&["--duration", "3600"]), whole);
}

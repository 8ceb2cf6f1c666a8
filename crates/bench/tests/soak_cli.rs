//! `repro soak` refuses what it cannot run as written, with exit status
//! 2 and the reason on stderr, before any world runs: a `--case` that
//! is not a sub-world of its seed (every such reason is checked in
//! `case_roundtrips_through_the_cli_encoding`), and two world recipes at
//! once.

use std::process::Command;

#[test]
fn soak_rejects_cases_outside_their_seed_and_mixed_recipes() {
    let rejected: [(&[&str], &str); 2] = [
        (
            &["--case", "seed=3,clients=0"],
            "clients=0 is outside 1..=3",
        ),
        (&["--lease", "--long", "--seeds", "1"], "--lease and --long"),
    ];
    for (args, why) in rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("soak")
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a world");
    }
}

//! The command line shared by the `bench` and `trace` binaries.
//!
//! `bench --workload W --seed N --seconds S --trace 0|1` is the form the
//! driver calls; `--trace 1` (or the `trace` binary) makes the traced run.
//! Without `--workload`, `bench` runs every workload in a child process
//! each, so each gets a clean `peak_rss_mb`.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::cells::{cells, Workload};
use crate::host::{self, loadavg};
use crate::json::Json;
use crate::measure::{end_to_end, measure, Env, MIN_PASSES};
use crate::names::{benchmark_json, unit_of, RUN_SECONDS};
use crate::{trace, verify};

const USAGE: &str = "\
usage: bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       bench --verify [--runs R] [--seed N] [--seconds S]
       bench --print-benchmark-json
       trace --workload W [--seed N] [--seconds S]
workloads: lookup_lan read_56k write_56k crowd_1024x4 andrew_tcp_ring";

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// One workload, or every one in turn.
    pub workload: Option<Workload>,
    /// The seed every input derives from.
    pub seed: u64,
    /// Measurement budget of one run, seconds.
    pub seconds: f64,
    /// Make the traced run instead of the end-to-end one.
    pub trace: bool,
    /// Two cells, two passes: a build-and-plumbing check, not a measurement.
    pub smoke: bool,
    /// Run two interleaved sets and compare them.
    pub verify: bool,
    /// Runs per set under `--verify`.
    pub runs: usize,
    /// Print `BENCHMARK.json` and exit.
    pub print_benchmark_json: bool,
}

fn parse(argv: &[String], trace_default: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: trace_default,
        smoke: false,
        verify: false,
        runs: 10,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--verify" => args.verify = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The driver's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
    .to_line()
}

/// Prints failed checks, then the result line. Returns the exit code.
pub fn finish(
    errors: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> i32 {
    for e in errors.iter().take(20) {
        println!("INCORRECT: {e}");
    }
    if errors.len() > 20 {
        println!("INCORRECT: ... and {} more", errors.len() - 20);
    }
    let correct = errors.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Deadline and pass limits of one run that may spend `share` of the
/// budget on passes.
pub fn budget(args: &Args, started: Instant, share: f64) -> (Instant, usize, usize) {
    if args.smoke {
        (started, 2, 2)
    } else {
        (
            started + Duration::from_secs_f64(args.seconds * share),
            MIN_PASSES,
            usize::MAX,
        )
    }
}

fn bench_one(args: &Args, workload: Workload) -> i32 {
    if !args.smoke {
        host::settle_after_build();
    }
    let started = Instant::now();
    let pin = host::init();
    let load_before = loadavg();
    let specs = cells(workload, args.seed, args.smoke);
    let (deadline, min_passes, max_passes) = budget(args, started, 1.0);
    let set = measure(&specs, deadline, min_passes, max_passes);
    let (metrics, rtt_samples) = end_to_end(&set);

    println!(
        "bench: workload={} seed={} cells={} timed_passes={} wall={:.1}s digest={:016x}",
        workload.name(),
        args.seed,
        specs.len(),
        set.passes,
        started.elapsed().as_secs_f64(),
        set.digest()
    );
    Env {
        pin,
        refs: set.refs,
        loadavg: (load_before, loadavg()),
    }
    .print();
    for (name, value) in &metrics {
        let note = if name.starts_with("sim_rtt") {
            format!("  ({rtt_samples} samples)")
        } else {
            String::new()
        };
        println!("  {name:<22} {value:>14.6} {}{note}", unit_of(name));
    }
    let attempted = set.reference.iter().map(|c| c.attempted).sum();
    let failed = set.reference.iter().map(|c| c.failed).sum();
    finish(&set.errors, attempted, failed, &metrics)
}

/// Re-runs this executable with `args`. Returns its exit code and
/// standard output (the result line is the last line).
pub fn run_child(args: &[String]) -> (i32, String) {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn a child of this executable");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    (
        out.status.code().unwrap_or(1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Entry point of both binaries; returns the exit code.
pub fn main(trace_default: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv, trace_default) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if args.print_benchmark_json {
        println!("{}", benchmark_json().to_pretty());
        return 0;
    }
    if args.verify {
        return verify::run(&args);
    }
    match args.workload {
        Some(w) if args.trace => trace::run(&args, w),
        Some(w) => bench_one(&args, w),
        None => {
            // One child per workload: each reports its own peak RSS.
            let mut worst = 0;
            for w in Workload::ALL {
                let mut child = argv.clone();
                child.extend(["--workload".to_string(), w.name().to_string()]);
                let (code, stdout) = run_child(&child);
                print!("{stdout}");
                worst = worst.max(code);
            }
            worst
        }
    }
}

//! The experiment runner: one subcommand per paper table/figure.
//!
//! ```text
//! repro <experiment> [--quick | --scale quick|paper] [--jobs N] [--profile]
//!
//! experiments:
//!   graph1..graph5   RTT vs load per transport and topology
//!   table1           read rates per transport and topology
//!   graph6           server CPU, UDP vs TCP
//!   graph7           read RTT trace with the A+4D envelope
//!   graph8 graph9    server comparison (Reno vs Ultrix)
//!   table2..table4   Modified Andrew Benchmark
//!   table5           Create-Delete benchmark
//!   faults           recovery under injected faults (soft/hard mounts)
//!   crowd            multi-client saturation: N clients vs an nfsd pool
//!   soak             randomized chaos worlds vs the consistency oracle
//!                    (`--seeds N` sweep, `--case SPEC` single replay,
//!                    `--lease` for NQNFS lease worlds under the
//!                    tightened oracle grace, `--long` for the
//!                    certification worlds, `--duration SECS` to stop
//!                    the sweep early)
//!   section3         interface-tuning ablation
//!   ablation-rto ablation-slowstart ablation-namelen
//!   ablation-preload ablation-rsize ablation-readahead
//!   ablation-readdirplus ablation-lease
//!   all              everything above
//!   shard            N-client × M-server sharded-fleet sweep (not in
//!                    `all`)
//! ```
//!
//! `--jobs N` sets the worker-thread count for the parallel job runner
//! (default: all hardware threads). Results are byte-identical on
//! stdout for any `--jobs` value; per-experiment wall-clock timing goes
//! to stderr so it never perturbs the comparable output.
//!
//! A command line that cannot run as written exits 2 with the reason on
//! stderr before any world runs: a flag the command would not read
//! (`--seeds`, `--case`, `--duration`, `--long` and `--lease` are
//! `soak`'s, and a `--case` replay takes none of the others nor a
//! scale), `--quick` with `--scale paper`, or `--lease` with `--long`.
//!
//! `repro soak` either replays one `--case` or runs one seed sweep:
//! seeds `0..N` for `--seeds N`, else the scale's count (12 quick, 64
//! paper), of the quick, `--lease` or `--long` worlds. `--duration SECS`
//! only ever cuts that sweep short: it runs `--jobs` seeds at a time and
//! stops after the chunk in which the time ran out or a seed violated.
//! Every soak exits 1 on an oracle violation.
//!
//! `--profile` prints the self-profiler's subsystem table (events,
//! wall-clock, allocations) and the event census (pops by kind of event,
//! stale and live) to stderr after the run. It needs the
//! `profile` cargo feature to report real numbers:
//! `cargo run --release --features profile -- graph1 --quick --profile`.

use std::time::{Duration, Instant};

use renofs_bench::experiments::{
    ablations, cd, cpu, crowd, faults, mab, servercmp, shard, soak, trace, transport,
};
use renofs_bench::Scale;

// With the `profile` feature, count every heap allocation so the
// profiler can attribute them to subsystems; without it, this item
// doesn't exist and the default system allocator is used directly.
#[cfg(feature = "profile")]
#[global_allocator]
static ALLOC: renofs_sim::profile::CountingAlloc = renofs_sim::profile::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|shard> [--quick | --scale quick|paper] \
         [--jobs N] [--profile] [--seeds N] \
         [--case SPEC] [--duration SECS] [--long] [--lease]"
    );
    eprintln!(
        "soak: `repro soak --seeds N` sweeps chaos seeds 0..N (default 12 quick, 64 \
         paper); `repro soak --case \"seed=S,clients=C,rounds=R,windows=0;1\"` replays \
         one shrunk case; `--lease` sweeps NQNFS lease worlds (write-behind clients, \
         crash/partition windows) under the tightened lease oracle grace; `--long` \
         sweeps the certification worlds (up to 16 clients, crash/reboot cycles); \
         `--duration SECS` stops a sweep early, between chunks of `--jobs` seeds, once \
         the time is up or a seed violated. All exit 1 on an oracle violation."
    );
    eprintln!("run `repro all --quick` for the fast version of everything");
    std::process::exit(2);
}

/// Refuses a command line it cannot run as written: the reason on
/// stderr, exit status 2, before any world runs.
fn refuse(why: &str) -> ! {
    eprintln!("{why}");
    std::process::exit(2);
}

#[derive(Default)]
struct Options {
    what: String,
    /// `Some(true)` for `--quick`/`--scale quick`, `Some(false)` for
    /// `--scale paper`; paper scale when neither is given.
    quick: Option<bool>,
    jobs: usize,
    profile: bool,
    seeds: Option<usize>,
    case: Option<String>,
    duration: Option<u64>,
    long: bool,
    lease: bool,
}

impl Options {
    fn quick(&self) -> bool {
        self.quick == Some(true)
    }

    /// The flags given that this command would not read.
    fn ignored(&self) -> Vec<&'static str> {
        let soak = [
            ("--seeds", self.seeds.is_some()),
            ("--case", self.case.is_some()),
            ("--duration", self.duration.is_some()),
            ("--long", self.long),
            ("--lease", self.lease),
        ];
        let mut ignored = Vec::new();
        if self.what != "soak" {
            ignored.extend(soak.iter().filter(|f| f.1).map(|f| f.0));
        } else if self.case.is_some() {
            // A replay is one world, fully named by its spec.
            let others = soak.iter().filter(|f| f.1 && f.0 != "--case");
            ignored.extend(others.map(|f| f.0));
            if self.quick.is_some() {
                ignored.push("--quick/--scale");
            }
        }
        ignored
    }
}

/// A flag's value: a count of at least one.
fn count<T: std::str::FromStr + PartialOrd + From<u8>>(value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) if n >= T::from(1) => n,
        _ => usage(),
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut o = Options {
        jobs: renofs_bench::runner::default_jobs(),
        ..Options::default()
    };
    let mut what = None;
    while let Some(a) = args.next() {
        let mut value = || args.next();
        let quick = match a.as_str() {
            "--quick" => Some(true),
            "--scale" => match value().as_deref() {
                Some("quick") => Some(true),
                Some("paper") => Some(false),
                _ => usage(),
            },
            _ => None,
        };
        if let Some(q) = quick {
            if o.quick.replace(q).is_some_and(|was| was != q) {
                refuse("--quick and --scale paper name two scales; pick one");
            }
            continue;
        }
        match a.as_str() {
            "--jobs" => o.jobs = count(value()),
            "--seeds" => o.seeds = Some(count(value())),
            "--case" => o.case = Some(value().unwrap_or_else(|| usage())),
            "--duration" => o.duration = Some(count(value())),
            "--profile" => o.profile = true,
            "--long" => o.long = true,
            "--lease" => o.lease = true,
            _ if a.starts_with('-') => usage(),
            _ => {
                if what.replace(a).is_some() {
                    usage();
                }
            }
        }
    }
    o.what = what.unwrap_or_else(|| "all".to_string());
    let ignored = o.ignored();
    if !ignored.is_empty() {
        refuse(&format!(
            "repro {} would ignore {}",
            o.what,
            ignored.join(" ")
        ));
    }
    if o.lease && o.long {
        refuse("--lease and --long name two different world recipes; pick one");
    }
    o
}

/// `repro soak`: `--case SPEC` replays one (possibly shrunk) case, and
/// anything else runs the one seed sweep. Exits 1 when the oracle
/// reports a violation, so CI can gate on a bounded soak run.
fn run_soak(opts: &Options, scale: &Scale) {
    let violated = if let Some(spec) = &opts.case {
        let case =
            soak::SoakCase::parse(spec).unwrap_or_else(|e| refuse(&format!("bad --case: {e}")));
        let (report, violated) = soak::replay_report(&case);
        print!("{report}");
        violated
    } else {
        let profile = if opts.lease {
            soak::SoakProfile::Lease
        } else if opts.long {
            soak::SoakProfile::Long
        } else {
            soak::SoakProfile::Quick
        };
        let deadline = opts
            .duration
            .map(|secs| Instant::now() + Duration::from_secs(secs));
        let report = soak::sweep(scale, profile, opts.seeds, deadline);
        print!("{report}");
        report.total_violations() > 0
    };
    if violated {
        std::process::exit(1);
    }
}

/// One experiment: its `repro` subcommand and the run that renders its
/// comparable stdout block.
type Experiment = (&'static str, fn(&Scale) -> String);

/// Every experiment behind `repro <experiment>` and `repro all`, in
/// order. Each renders to a string so the timing line brackets exactly
/// the compute, not the printing.
const EXPERIMENTS: [Experiment; 26] = [
    ("graph1", |s| transport::graph1(s).to_string()),
    ("graph2", |s| transport::graph2(s).to_string()),
    ("graph3", |s| transport::graph3(s).to_string()),
    ("graph4", |s| transport::graph4(s).to_string()),
    ("graph5", |s| transport::graph5(s).to_string()),
    ("table1", |s| transport::table1(s).to_string()),
    ("graph6", |s| cpu::graph6(s).to_string()),
    ("graph7", |s| trace::graph7(s).to_string()),
    ("graph8", |s| servercmp::graph8(s).to_string()),
    ("graph9", |s| servercmp::graph9(s).to_string()),
    ("table2", |s| mab::table2(s).to_string()),
    ("table3", |s| mab::table3(s).to_string()),
    ("table4", |s| mab::table4(s).to_string()),
    ("table5", |s| cd::table5(s).to_string()),
    ("faults", |s| faults::faults(s).to_string()),
    ("crowd", |s| crowd::crowd(s).to_string()),
    ("soak", |s| {
        soak::sweep(s, soak::SoakProfile::Quick, None, None).to_string()
    }),
    ("section3", |s| cpu::section3(s).to_string()),
    ("ablation-rto", |s| ablations::ablation_rto(s).to_string()),
    ("ablation-slowstart", |s| {
        ablations::ablation_slowstart(s).to_string()
    }),
    ("ablation-namelen", |s| {
        ablations::ablation_namelen(s).to_string()
    }),
    ("ablation-preload", |s| {
        ablations::ablation_preload(s).to_string()
    }),
    ("ablation-rsize", |s| {
        ablations::ablation_rsize(s).to_string()
    }),
    ("ablation-readahead", |s| {
        ablations::ablation_readahead(s).to_string()
    }),
    ("ablation-readdirplus", |s| {
        ablations::ablation_readdirplus(s).to_string()
    }),
    ("ablation-lease", |s| {
        ablations::ablation_lease(s).to_string()
    }),
];

/// `repro <experiment>` and `repro all`: the comparable output on
/// stdout, one timing line per experiment on stderr.
fn run_experiments(what: &str, scale: &Scale) {
    if what != "all" && !EXPERIMENTS.iter().any(|(n, _)| *n == what) {
        eprintln!("unknown experiment: {what}");
        usage();
    }
    let jobs = scale.jobs;
    let total = Instant::now();
    let mut ran = 0;
    for (name, exp) in EXPERIMENTS {
        if what != "all" && name != what {
            continue;
        }
        let t0 = Instant::now();
        let output = exp(scale);
        eprintln!(
            "[repro] {name}: {:.2}s (jobs={jobs})",
            t0.elapsed().as_secs_f64()
        );
        println!("{output}\n");
        ran += 1;
    }
    if ran > 1 {
        eprintln!(
            "[repro] total: {:.2}s (jobs={jobs})",
            total.elapsed().as_secs_f64()
        );
    }
}

fn main() {
    let opts = parse_args();
    let mut scale = if opts.quick() {
        Scale::quick()
    } else {
        Scale::paper()
    };
    scale.jobs = opts.jobs;
    if opts.profile {
        renofs_sim::profile::set_enabled(true);
    }
    match opts.what.as_str() {
        "shard" => print!("{}", shard::shard(&scale)),
        "soak" => run_soak(&opts, &scale),
        what => run_experiments(what, &scale),
    }
    if opts.profile {
        eprint!("{}", renofs_sim::profile::report());
    }
}

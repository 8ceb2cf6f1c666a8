//! `bench --verify`: does the benchmark agree with itself?
//!
//! Two sets of runs of the same code, A and B, interleaved (A, B, A, B…)
//! so that a drift of the machine falls on both. Run `r` of either set
//! uses seed `--seed + r`, as the driver varies the seed between runs.
//! For every metric × workload it prints both medians, how much worse B's
//! is than A's, and each set's quartile spread, beside the metric's
//! bound; any excess is a disagreement. Simulated metrics and digests
//! must match exactly, run for run.

use crate::cells::Workload;
use crate::cli::{run_child, Args};
use crate::json::Json;
use crate::names::END_TO_END;
use crate::stats::{median, quartile_spread};

/// What one child run reported.
struct Run {
    metrics: Vec<f64>,
    digest: String,
    ref_handoff_us: f64,
    ref_compute_us: f64,
}

fn token<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

fn one_run(args: &Args, workload: Workload, seed: u64) -> Result<Run, String> {
    let child: Vec<String> = [
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (code, stdout) = run_child(&child);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("no result line ({e}): `{last}`"))?;
    if code != 0 || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("exit code {code}: {last}"));
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{} missing from the result line", m.name))
        })
        .collect::<Result<_, _>>()?;
    let number = |key: &str| {
        token(&stdout, key)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{key} missing from the report"))
    };
    Ok(Run {
        metrics,
        digest: token(&stdout, "digest")
            .ok_or("digest missing from the report")?
            .to_string(),
        ref_handoff_us: number("env.ref_handoff_us")?,
        ref_compute_us: number("env.ref_compute_us")?,
    })
}

/// Share by which `b` is worse than `a`, given the metric's direction.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "lower" {
        b / a - 1.0
    } else {
        a / b - 1.0
    }
}

/// Runs both sets and prints the comparison; 0 when they agree.
pub fn run(args: &Args) -> i32 {
    // sets[set][workload][run]
    let mut sets: [Vec<Vec<Run>>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        set.resize_with(Workload::ALL.len(), Vec::new);
    }
    for r in 0..args.runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for (w, workload) in Workload::ALL.iter().enumerate() {
                eprintln!(
                    "verify: run {}/{} set {} {}",
                    r + 1,
                    args.runs,
                    ["A", "B"][s],
                    workload.name()
                );
                match one_run(args, *workload, args.seed + r as u64) {
                    Ok(run) => set[w].push(run),
                    Err(e) => {
                        println!("verify: {} failed: {e}", workload.name());
                        return 1;
                    }
                }
            }
        }
    }

    let refs =
        |s: usize, f: fn(&Run) -> f64| median(&sets[s].iter().flatten().map(f).collect::<Vec<_>>());
    let handoff = [refs(0, |r| r.ref_handoff_us), refs(1, |r| r.ref_handoff_us)];
    let compute = [refs(0, |r| r.ref_compute_us), refs(1, |r| r.ref_compute_us)];
    let regime = handoff[0].max(handoff[1]) / handoff[0].min(handoff[1]) > 1.15;
    println!(
        "verify: {} runs per set, seeds {}..{}, {} s each",
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1,
        args.seconds
    );
    println!(
        "env.ref_handoff_us  A {:.3}  B {:.3}    env.ref_compute_us  A {:.1}  B {:.1}",
        handoff[0], handoff[1], compute[0], compute[1]
    );
    println!(
        "{:<16} {:<20} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound"
    );
    let mut disagreements = 0;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let values =
                |s: usize| -> Vec<f64> { sets[s][w].iter().map(|r| r.metrics[m]).collect() };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (median(&a), median(&b));
            let drift = worse_by(ma, mb, metric.better).max(worse_by(mb, ma, metric.better));
            let (sa, sb) = (quartile_spread(&a), quartile_spread(&b));
            let exact = metric.name.starts_with("sim_");
            let mut verdict = String::new();
            if drift > metric.bound {
                verdict.push_str(" MEDIANS DISAGREE");
            }
            if metric.name != "setup_s" && sa.max(sb) > metric.bound {
                verdict.push_str(" SPREAD OVER BOUND");
            }
            if exact && a != b {
                verdict.push_str(" NOT BIT-IDENTICAL");
            }
            if !verdict.is_empty() {
                disagreements += 1;
                if regime && !exact {
                    verdict.push_str(" (machine regime: ref_handoff differs > 15 %)");
                }
            }
            println!(
                "{:<16} {:<20} {:>13.6} {:>13.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                workload.name(),
                metric.name,
                ma,
                mb,
                100.0 * worse_by(ma, mb, metric.better),
                100.0 * sa,
                100.0 * sb,
                100.0 * metric.bound,
                verdict
            );
        }
        let digests =
            |s: usize| -> Vec<&str> { sets[s][w].iter().map(|r| r.digest.as_str()).collect() };
        if digests(0) != digests(1) {
            disagreements += 1;
            println!("{:<16} DIGESTS DIFFER between the sets", workload.name());
        }
    }
    println!(
        "verify: {disagreements} disagreement(s){}",
        if disagreements == 0 {
            ": the sets agree"
        } else {
            ""
        }
    );
    i32::from(disagreements > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!(worse_by(10.0, 9.0, "lower") < 0.0);
        assert!((worse_by(11.0, 10.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worse_by(10.0, 11.0, "higher") < 0.0);
    }

    #[test]
    fn tokens_are_read_out_of_the_report() {
        let report = "bench: workload=x seed=3 digest=00ff\nenv: loadavg 1 2 3 -> 4 5 6  env.ref_handoff_us=3.5 env.ref_compute_us=580.1\n";
        assert_eq!(token(report, "digest"), Some("00ff"));
        assert_eq!(token(report, "env.ref_handoff_us"), Some("3.5"));
        assert_eq!(token(report, "env.ref_compute"), None);
    }
}

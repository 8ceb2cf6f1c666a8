//! Graph 7: a sample trace of read-RPC round-trip times against the
//! `A + 4D` retransmit-timeout envelope.

use std::fmt;

use renofs::{TopologyKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_sim::{SimDuration, SimTime};
use renofs_transport::SrttEstimator;
use renofs_workload::nhfsstone::{self, LoadMix};

use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One trace sample.
#[derive(Clone, Copy, Debug)]
pub struct TracePoint {
    /// Completion time of the read.
    pub at: SimTime,
    /// Measured round-trip time.
    pub rtt: SimDuration,
    /// The `A + 4D` RTO the estimator held when the read completed.
    pub rto: SimDuration,
}

/// The Graph 7 trace.
#[derive(Clone, Debug)]
pub struct Graph7 {
    /// Chronological samples.
    pub points: Vec<TracePoint>,
}

impl Graph7 {
    /// Fraction of samples whose RTT stayed under the RTO envelope — the
    /// retry-avoidance property A+4D buys.
    pub fn envelope_coverage(&self) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let under = self.points.iter().filter(|p| p.rtt <= p.rto).count();
        under as f64 / self.points.len() as f64
    }
}

impl fmt::Display for Graph7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graph 7: read RPC RTT trace with RTO = A+4D envelope ({} samples, downsampled)",
            self.points.len()
        )?;
        let step = (self.points.len() / 40).max(1);
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .step_by(step)
            .map(|p| {
                vec![
                    format!("{:.1}", p.at.as_secs_f64()),
                    format!("{:.1}", p.rtt.as_millis_f64()),
                    format!("{:.1}", p.rto.as_millis_f64()),
                ]
            })
            .collect();
        writeln!(f, "{}", table(&["t (s)", "rtt ms", "rto ms"], &rows))?;
        writeln!(
            f,
            "RTT under RTO envelope: {:.1}% of samples",
            self.envelope_coverage() * 100.0
        )
    }
}

/// Runs a read-mix load over the token-ring path with the dynamic
/// transport and reconstructs the `A+4D` trace from the read samples
/// (the same arithmetic the kernel estimator performs, minus samples
/// Karn's rule would exclude — retransmitted reads are rare here).
pub fn graph7(scale: &Scale) -> Graph7 {
    // A single trace, but still routed through the runner so every
    // experiment shares one execution path.
    let mut graphs = run_jobs(&[()], scale.jobs, |_| {
        let mut world = World::new(WorldConfig {
            topology: TopologyKind::TokenRing,
            background: Background::off_peak(),
            seed: 707,
            ..WorldConfig::baseline()
        });
        let cfg = scale.nhfsstone(12.0, LoadMix::lookup_read());
        let report = nhfsstone::run(&mut world, &cfg);
        let mut est = SrttEstimator::new();
        let base = SimDuration::from_secs(1);
        let mut points = Vec::new();
        for s in report
            .samples
            .iter()
            .filter(|s| s.proc == renofs::NfsProc::Read)
        {
            let rto = est.rto(4.0).unwrap_or(base);
            points.push(TracePoint {
                at: s.at,
                rtt: s.rtt,
                rto,
            });
            est.on_sample(s.rtt);
        }
        Graph7 { points }
    });
    graphs.pop().expect("one job, one graph")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_mostly_covers_rtt() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_secs(120);
        let g = graph7(&scale);
        assert!(g.points.len() > 100, "got {} samples", g.points.len());
        // A+4D exists to keep RTTs under the envelope; expect the large
        // majority of samples covered once the estimator warms up.
        let coverage = g.envelope_coverage();
        assert!(
            coverage > 0.85,
            "A+4D should cover most RTTs, got {:.1}%",
            coverage * 100.0
        );
        // RTO must adapt: it should leave the 1s mount default.
        let late = &g.points[g.points.len() / 2..];
        assert!(
            late.iter().any(|p| p.rto < SimDuration::from_millis(900)),
            "estimated RTO should drop below the 1s default"
        );
    }
}

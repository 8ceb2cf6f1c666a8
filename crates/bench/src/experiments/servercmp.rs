//! Graphs 8–9: server lookup performance — 4.3BSD Reno versus the
//! Ultrix 2.2 model, with the name-cache ablation.
//!
//! The paper found Reno far ahead on lookups; disabling Reno's name
//! cache explained only a small fraction of the gap, with the remainder
//! attributed to directory buffers chained off vnodes (cheap cache
//! searches) versus Ultrix's costlier global search.

use std::fmt;

use renofs::{ServerPreset, World, WorldConfig};
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

use super::labelled;
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One server-comparison sweep.
#[derive(Clone, Debug)]
pub struct ServerGraph {
    /// Title.
    pub title: String,
    /// `(server label, offered, achieved, rtt ms)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl ServerGraph {
    /// Mean RTT for one server across the sweep.
    pub fn mean_rtt(&self, label: &str) -> f64 {
        let rows = labelled(&self.rows, label, |r| r.0.as_str());
        rows.iter().map(|r| r.3).sum::<f64>() / rows.len() as f64
    }
}

impl fmt::Display for ServerGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, o, a, r)| {
                vec![
                    l.clone(),
                    format!("{o:.1}"),
                    format!("{a:.1}"),
                    format!("{r:.1}"),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(&["server", "offered/s", "achieved/s", "rtt ms"], &rows)
        )
    }
}

fn run_sweep(title: &str, mix: LoadMix, scale: &Scale, seed: u64) -> ServerGraph {
    let mut jobs = Vec::new();
    for preset in [
        ServerPreset::Reno,
        ServerPreset::RenoNoNameCache,
        ServerPreset::Ultrix,
    ] {
        for &rate in &scale.lan_rates {
            jobs.push((preset, rate));
        }
    }
    let rows = run_jobs(&jobs, scale.jobs, |&(preset, rate)| {
        let mut world = World::new(WorldConfig {
            server: preset.server_config(),
            server_host: preset.host_profile(),
            seed: seed + rate as u64,
            ..WorldConfig::baseline()
        });
        // Short names so the server name cache is exercised (the
        // appendix notes Nhfsstone's long names would defeat it).
        let ncfg = NhfsstoneConfig {
            long_names: false,
            ..scale.nhfsstone(rate, mix)
        };
        let report = nhfsstone::run(&mut world, &ncfg);
        (
            preset.label().to_string(),
            rate,
            report.achieved_rate,
            report.rtt_ms.mean(),
        )
    });
    ServerGraph {
        title: title.to_string(),
        rows,
    }
}

/// Graph 8: 100 % lookup mix against the three server configurations.
pub fn graph8(scale: &Scale) -> ServerGraph {
    run_sweep(
        "Graph 8: server comparison, 100% lookup mix",
        LoadMix::pure_lookup(),
        scale,
        800,
    )
}

/// Graph 9: 50/50 lookup/read mix against the three servers.
pub fn graph9(scale: &Scale) -> ServerGraph {
    run_sweep(
        "Graph 9: server comparison, 50/50 lookup/read mix",
        LoadMix::lookup_read(),
        scale,
        900,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no row labelled \"Ultrix\"")]
    fn mean_rtt_names_a_missing_server() {
        let g = ServerGraph {
            title: String::new(),
            rows: vec![("Ultrix2.2".into(), 10.0, 10.0, 5.0)],
        };
        g.mean_rtt("Ultrix");
    }

    #[test]
    fn reno_beats_ultrix_and_namecache_explains_only_part() {
        let mut scale = Scale::quick();
        scale.lan_rates = vec![20.0, 35.0];
        let g = graph8(&scale);
        let reno = g.mean_rtt("Reno");
        let no_nc = g.mean_rtt("Reno-nonamecache");
        let ultrix = g.mean_rtt("Ultrix2.2");
        assert!(
            ultrix > reno * 1.2,
            "Ultrix lookups ({ultrix:.1}ms) must be clearly slower than Reno ({reno:.1}ms)"
        );
        assert!(
            no_nc >= reno,
            "disabling the name cache cannot make Reno faster"
        );
        // The paper: the name cache explains only a small fraction of
        // the difference.
        assert!(
            (no_nc - reno) < (ultrix - reno) * 0.7,
            "name cache should explain a minority of the gap: reno={reno:.1} nonc={no_nc:.1} ultrix={ultrix:.1}"
        );
    }
}

//! Tables 2–4: the Modified Andrew Benchmark.

use std::fmt;

use renofs::client::ClientFs;
use renofs::{ClientPreset, HostProfile, NfsProc, ServerPreset, TransportKind, World, WorldConfig};
use renofs_workload::andrew::{preload_andrew_source, run_andrew, AndrewReport, AndrewSpec};

use super::{labelled, run_proc, UDP_A4D};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// One MAB cell: `(row label, client preset, server preset, client
/// machine)`.
type MabCell = (&'static str, ClientPreset, ServerPreset, HostProfile);

/// Runs the MAB once for every cell, one job each: the standard tree,
/// or the reduced one at a quick scale.
fn run_mab(scale: &Scale, cells: &[MabCell], seed: u64) -> Vec<(String, AndrewReport)> {
    let spec = if scale.is_quick() {
        AndrewSpec::small()
    } else {
        AndrewSpec::standard()
    };
    run_jobs(
        cells,
        scale.jobs,
        |&(label, client, server, client_host)| {
            let mut world = World::new(WorldConfig {
                transport: if client.uses_tcp() {
                    TransportKind::Tcp
                } else {
                    UDP_A4D
                },
                server: server.server_config(),
                server_host: server.host_profile(),
                client_host,
                seed,
                ..WorldConfig::baseline()
            });
            preload_andrew_source(world.server_mut().fs_mut(), &spec);
            let root = world.root_handle();
            let client_cfg = client.client_config();
            let spec = spec.clone();
            let report = run_proc(&mut world, move |sys| {
                let mut fs = ClientFs::mount(sys, client_cfg, root, "client");
                run_andrew(&mut fs, &spec).expect("benchmark runs")
            });
            (label.to_string(), report)
        },
    )
}

/// Tables 2 and 4: MAB wall times, one row per client or server
/// configuration.
#[derive(Clone, Debug)]
pub struct MabTimes {
    /// Title line.
    pub title: &'static str,
    /// Header of the row-label column.
    pub what: &'static str,
    /// The paper's `(row label, phases I–IV s, phase V s)`.
    pub paper: &'static [(&'static str, f64, f64)],
    /// `(row label, phases I–IV seconds, phase V seconds)`.
    pub rows: Vec<(String, f64, f64)>,
}

impl MabTimes {
    fn run(
        scale: &Scale,
        title: &'static str,
        what: &'static str,
        paper: &'static [(&'static str, f64, f64)],
        cells: &[MabCell],
        seed: u64,
    ) -> Self {
        let rows = run_mab(scale, cells, seed)
            .into_iter()
            .map(|(label, r)| {
                let (p14, p5) = (r.phases_1_to_4(), r.phase_5());
                (label, p14.as_secs_f64(), p5.as_secs_f64())
            })
            .collect();
        MabTimes {
            title,
            what,
            paper,
            rows,
        }
    }
}

impl fmt::Display for MabTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, p14, p5)| {
                let reference = self.paper.iter().find(|(pl, _, _)| pl == l);
                vec![
                    l.clone(),
                    format!("{p14:.0}"),
                    format!("{p5:.0}"),
                    reference
                        .map(|(_, a, b)| format!("{a:.0} / {b:.0}"))
                        .unwrap_or_default(),
                ]
            })
            .collect();
        let headers = [self.what, "I-IV (s)", "V (s)", "paper I-IV/V"];
        write!(f, "{}", table(&headers, &rows))
    }
}

/// Table 2: MAB wall times on a MicroVAXII client (same Reno server for
/// every row, per the paper's appendix), one job per client preset.
pub fn table2(scale: &Scale) -> MabTimes {
    let cells = [
        ClientPreset::Reno,
        ClientPreset::RenoTcp,
        ClientPreset::RenoNopush,
        ClientPreset::Ultrix,
    ]
    .map(|preset| {
        let host = if preset == ClientPreset::Ultrix {
            HostProfile::microvax_stock()
        } else {
            HostProfile::microvax_tuned()
        };
        (preset.label(), preset, ServerPreset::Reno, host)
    });
    let paper = &[
        ("Reno", 145.0, 1253.0),
        ("Reno-TCP", 143.0, 1265.0),
        ("Reno-nopush", 132.0, 1208.0),
        ("Ultrix2.2", 184.0, 1183.0),
    ];
    let title = "Table 2: Mod Andrew Bench, MicroVAXII client (seconds)";
    MabTimes::run(scale, title, "OS", paper, &cells, 200)
}

/// Table 3: MAB RPC counts per procedure.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// `(row label, report)`.
    pub rows: Vec<(String, AndrewReport)>,
}

impl Table3 {
    /// Count for one row + procedure.
    pub fn count(&self, label: &str, proc: NfsProc) -> u64 {
        labelled(&self.rows, label, |(l, _)| l.as_str())[0]
            .1
            .counts
            .count(proc)
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: Mod Andrew Bench RPC counts (paper: Reno / Reno-noconsist / Ultrix2.2)"
        )?;
        let procs = [
            ("Getattr", NfsProc::Getattr, [822u64, 780, 877]),
            ("Setattr", NfsProc::Setattr, [22, 22, 22]),
            ("Read", NfsProc::Read, [1050, 619, 691]),
            ("Write", NfsProc::Write, [501, 340, 703]),
            ("Lookup", NfsProc::Lookup, [872, 918, 1782]),
            ("Readdir", NfsProc::Readdir, [146, 144, 150]),
        ];
        let mut rows = Vec::new();
        for (name, proc, paper) in procs {
            let mut row = vec![name.to_string()];
            for (_, r) in &self.rows {
                row.push(format!("{}", r.counts.count(proc)));
            }
            row.push(format!("{}/{}/{}", paper[0], paper[1], paper[2]));
            rows.push(row);
        }
        let mut other_row = vec!["Other".to_string()];
        let mut total_row = vec!["Total".to_string()];
        for (_, r) in &self.rows {
            other_row.push(format!("{}", r.counts.other()));
            total_row.push(format!("{}", r.counts.total()));
        }
        other_row.push("127/128/127".into());
        total_row.push("3540/2951/4352".into());
        rows.push(other_row);
        rows.push(total_row);
        let headers: Vec<String> = std::iter::once("RPC".to_string())
            .chain(self.rows.iter().map(|(l, _)| l.clone()))
            .chain(std::iter::once("paper".to_string()))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        write!(f, "{}", table(&header_refs, &rows))
    }
}

/// Runs Table 3, one job per client preset.
pub fn table3(scale: &Scale) -> Table3 {
    let cells = [
        ClientPreset::Reno,
        ClientPreset::RenoNoconsist,
        ClientPreset::Ultrix,
    ]
    .map(|preset| {
        let host = HostProfile::microvax_tuned();
        (preset.label(), preset, ServerPreset::Reno, host)
    });
    Table3 {
        rows: run_mab(scale, &cells, 300),
    }
}

/// Table 4: MAB on a DS3100 client against both servers, one job per
/// server preset.
pub fn table4(scale: &Scale) -> MabTimes {
    let cells = [ServerPreset::Reno, ServerPreset::Ultrix].map(|server| {
        (
            server.label(),
            ClientPreset::Reno,
            server,
            HostProfile::ds3100(),
        )
    });
    let paper = &[("Reno", 88.0, 180.0), ("Ultrix2.2", 123.0, 226.0)];
    let title = "Table 4: Mod Andrew Bench, DS3100 client (seconds)";
    MabTimes::run(scale, title, "server", paper, &cells, 400)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no row labelled \"Reno-noconsist\"")]
    fn count_names_a_missing_row() {
        Table3 { rows: Vec::new() }.count("Reno-noconsist", NfsProc::Read);
    }

    fn quick() -> Scale {
        Scale {
            jobs: 2,
            ..Scale::quick()
        }
    }

    #[test]
    fn table3_orderings_over_the_wire() {
        let t = table3(&quick());
        let reno_lookups = t.count("Reno", NfsProc::Lookup);
        let ultrix_lookups = t.count("Ultrix2.2", NfsProc::Lookup);
        assert!(
            ultrix_lookups > reno_lookups * 3 / 2,
            "Ultrix {ultrix_lookups} vs Reno {reno_lookups} lookups"
        );
        let reno_reads = t.count("Reno", NfsProc::Read);
        let noconsist_reads = t.count("Reno-noconsist", NfsProc::Read);
        assert!(
            reno_reads > noconsist_reads,
            "Reno reads {reno_reads} vs noconsist {noconsist_reads}"
        );
        let reno_writes = t.count("Reno", NfsProc::Write);
        let noconsist_writes = t.count("Reno-noconsist", NfsProc::Write);
        assert!(
            reno_writes > noconsist_writes,
            "Reno writes {reno_writes} vs noconsist {noconsist_writes}"
        );
    }

    #[test]
    fn table4_reno_server_faster() {
        let t = table4(&quick());
        let reno = t.rows.iter().find(|(l, _, _)| l == "Reno").unwrap();
        let ultrix = t.rows.iter().find(|(l, _, _)| l == "Ultrix2.2").unwrap();
        assert!(
            ultrix.1 > reno.1,
            "Ultrix server phases I-IV ({:.1}s) should exceed Reno ({:.1}s)",
            ultrix.1,
            reno.1
        );
    }

    #[test]
    fn table2_runs_all_rows() {
        let t = table2(&quick());
        assert_eq!(t.rows.len(), 4);
        for (label, p14, p5) in &t.rows {
            assert!(*p14 > 0.0 && *p5 > 0.0, "{label}: {p14} {p5}");
        }
        // nopush should beat plain Reno on phases I-IV (fewer waits).
        let reno = t.rows.iter().find(|(l, _, _)| l == "Reno").unwrap().1;
        let nopush = t
            .rows
            .iter()
            .find(|(l, _, _)| l == "Reno-nopush")
            .unwrap()
            .1;
        assert!(
            nopush <= reno * 1.02,
            "nopush ({nopush:.1}s) should not exceed Reno ({reno:.1}s)"
        );
    }
}

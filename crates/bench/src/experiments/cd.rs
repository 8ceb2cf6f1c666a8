//! Table 5: the Create-Delete benchmark across write policies.

use std::fmt;

use renofs::client::{ClientConfig, ClientFs, WritePolicy};
use renofs::server::LeaseCounts;
use renofs::{NfsProc, World, WorldConfig};
use renofs_workload::createdelete::{create_delete_local, create_delete_nfs};

use super::{labelled, run_proc};
use crate::fmt::table;
use crate::runner::run_jobs;
use crate::Scale;

/// The benchmark's file sizes.
pub const SIZES: [usize; 3] = [0, 10 * 1024, 100 * 1024];

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Row label.
    pub label: String,
    /// Mean per-iteration time in ms for each of [`SIZES`].
    pub ms: [f64; 3],
    /// WRITE RPCs issued across the row's three cells: the mechanism
    /// behind the latency — lease write-behind wins by never sending
    /// the data of a file that is deleted before its lease lapses.
    pub write_rpcs: u64,
    /// Server lease traffic across the row's cells (lease row only).
    pub leases: LeaseCounts,
}

/// Table 5 results.
#[derive(Clone, Debug)]
pub struct Table5 {
    /// Rows in the paper's order.
    pub rows: Vec<Table5Row>,
}

impl Table5 {
    /// The ms cell for a row label and size index.
    pub fn cell(&self, label: &str, size_idx: usize) -> f64 {
        labelled(&self.rows, label, |r| r.label.as_str())[0].ms[size_idx]
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 5: Create-Delete bench, 4.3BSD Reno MicroVAXII (ms)"
        )?;
        let paper: &[(&str, [f64; 3])] = &[
            ("Local", [120.0, 216.0, 1170.0]),
            ("write thru", [210.0, 475.0, 2401.0]),
            ("async,4biod", [216.0, 470.0, 1940.0]),
            ("async,16biod", [210.0, 464.0, 2094.0]),
            ("delay wrt.", [216.0, 468.0, 2230.0]),
            ("no consist", [218.0, 244.0, 329.0]),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let reference = paper.iter().find(|(l, _)| *l == r.label);
                vec![
                    r.label.clone(),
                    format!("{:.0}", r.ms[0]),
                    format!("{:.0}", r.ms[1]),
                    format!("{:.0}", r.ms[2]),
                    if r.label == "Local" {
                        String::new()
                    } else {
                        format!("{}", r.write_rpcs)
                    },
                    if r.leases.issued == 0 {
                        String::new()
                    } else {
                        format!("{}/{}", r.leases.issued, r.leases.recalls)
                    },
                    reference
                        .map(|(_, p)| format!("{:.0}/{:.0}/{:.0}", p[0], p[1], p[2]))
                        .unwrap_or_default(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "Config",
                    "No data",
                    "10Kbytes",
                    "100Kbytes",
                    "writes",
                    "lease i/r",
                    "paper"
                ],
                &rows
            )
        )
    }
}

/// How one Table 5 row runs its Create-Delete iterations: on the local
/// disk (`None`), or over NFS with a client config and biod count (a
/// lease mount gets a server that grants leases).
type RowKind = Option<(ClientConfig, usize)>;

/// One (row, size) cell's results: latency plus the RPC mechanism
/// behind it.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    ms: f64,
    write_rpcs: u64,
    leases: LeaseCounts,
}

/// One (row, size) cell: a single independent simulation.
fn run_cell(kind: RowKind, size_idx: usize, bytes: usize, iters: usize) -> Cell {
    match kind {
        None => {
            let mut world = World::new(WorldConfig {
                seed: 550 + size_idx as u64,
                ..WorldConfig::baseline()
            });
            let r = run_proc(&mut world, move |sys| {
                create_delete_local(sys, bytes, iters)
            });
            Cell {
                ms: r.per_iter.as_millis_f64(),
                ..Cell::default()
            }
        }
        Some((cfg, biods)) => {
            let mut wcfg = WorldConfig {
                biods,
                seed: 500 + size_idx as u64,
                ..WorldConfig::baseline()
            };
            wcfg.server.leases = cfg.lease;
            let mut world = World::new(wcfg);
            let root = world.root_handle();
            let (r, write_rpcs) = run_proc(&mut world, move |sys| {
                let mut fs = ClientFs::mount(sys, cfg, root, "client");
                let r = create_delete_nfs(&mut fs, bytes, iters).expect("bench runs");
                (r, fs.counts().count(NfsProc::Write))
            });
            Cell {
                ms: r.per_iter.as_millis_f64(),
                write_rpcs,
                leases: world.server_of(0).stats().leases,
            }
        }
    }
}

/// Runs Table 5: every (row, file size) cell is one job.
pub fn table5(scale: &Scale) -> Table5 {
    let iters = scale.cd_iters;
    let policy = |write_policy| ClientConfig {
        write_policy,
        ..ClientConfig::reno()
    };
    let specs: [(&str, RowKind); 7] = [
        ("Local", None),
        ("write thru", Some((policy(WritePolicy::WriteThrough), 0))),
        ("async,4biod", Some((policy(WritePolicy::Async), 4))),
        ("async,16biod", Some((policy(WritePolicy::Async), 16))),
        ("delay wrt.", Some((policy(WritePolicy::Delayed), 4))),
        // The NQNFS row: consistency kept by server-issued leases, yet
        // a created-then-deleted file's data never crosses the wire —
        // the honest chase of the noconsist bound below it.
        ("lease", Some((ClientConfig::reno_lease(), 4))),
        ("no consist", Some((ClientConfig::reno_noconsist(), 4))),
    ];
    let mut jobs = Vec::new();
    for row in 0..specs.len() {
        for (si, &bytes) in SIZES.iter().enumerate() {
            jobs.push((row, si, bytes));
        }
    }
    let cells = run_jobs(&jobs, scale.jobs, |&(row, si, bytes)| {
        run_cell(specs[row].1, si, bytes, iters)
    });
    let rows = specs
        .iter()
        .enumerate()
        .map(|(row, (label, _))| {
            let mut ms = [0.0f64; 3];
            let mut write_rpcs = 0;
            let mut leases = LeaseCounts::default();
            for (si, slot) in ms.iter_mut().enumerate() {
                let cell = &cells[row * SIZES.len() + si];
                *slot = cell.ms;
                write_rpcs += cell.write_rpcs;
                leases += cell.leases;
            }
            Table5Row {
                label: label.to_string(),
                ms,
                write_rpcs,
                leases,
            }
        })
        .collect();
    Table5 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no row labelled \"write through\"")]
    fn cell_names_a_missing_row() {
        let row = Table5Row {
            label: "write thru".into(),
            ms: [1.0; 3],
            write_rpcs: 0,
            leases: LeaseCounts::default(),
        };
        Table5 { rows: vec![row] }.cell("write through", 0);
    }

    #[test]
    fn table5_relationships_hold() {
        let mut scale = Scale::quick();
        scale.cd_iters = 4;
        let t = table5(&scale);
        assert_eq!(t.rows.len(), 7);
        // Local is fastest at 100K among consistent configurations.
        let local = t.cell("Local", 2);
        let wt = t.cell("write thru", 2);
        assert!(local < wt, "local {local:.0}ms < write-thru {wt:.0}ms");
        // noconsist crushes everything NFS at 100K — the paper's
        // headline (2401ms -> 329ms).
        let nc = t.cell("no consist", 2);
        for row in ["write thru", "async,4biod", "async,16biod", "delay wrt."] {
            let v = t.cell(row, 2);
            assert!(
                nc * 2.5 < v,
                "no-consist ({nc:.0}ms) must be far below {row} ({v:.0}ms)"
            );
        }
        // With push-on-close, policies are within a band of each other
        // at 100K (the paper's ~20% spread).
        let a4 = t.cell("async,4biod", 2);
        assert!(
            a4 <= wt * 1.1,
            "async ({a4:.0}) should not exceed write-thru ({wt:.0}) much"
        );
        // Empty files: all NFS configs similar.
        let e_wt = t.cell("write thru", 0);
        let e_nc = t.cell("no consist", 0);
        assert!((e_wt - e_nc).abs() < e_wt * 0.6);
        // The lease row chases the noconsist bound with consistency
        // kept: far below every classic consistent config at 100K, and
        // within shouting distance of noconsist itself.
        let lease = t.cell("lease", 2);
        for row in ["write thru", "async,4biod", "async,16biod", "delay wrt."] {
            let v = t.cell(row, 2);
            assert!(
                lease * 2.0 < v,
                "lease ({lease:.0}ms) must be far below {row} ({v:.0}ms)"
            );
        }
        assert!(
            lease < nc * 2.0,
            "lease ({lease:.0}ms) should approach noconsist ({nc:.0}ms)"
        );
        // The mechanism: write-behind + remove-discard means the
        // deleted files' data never crossed the wire at all.
        let lrow = t.rows.iter().find(|r| r.label == "lease").unwrap();
        assert_eq!(lrow.write_rpcs, 0, "lease CD must issue zero WRITE RPCs");
        assert!(lrow.leases.issued > 0, "lease CD must actually use leases");
        let wrow = t.rows.iter().find(|r| r.label == "write thru").unwrap();
        assert!(wrow.write_rpcs > 0);
        assert_eq!(wrow.leases.issued, 0);
    }
}

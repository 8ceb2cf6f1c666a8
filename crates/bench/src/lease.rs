//! `repro bench` PR 8 section: certifying that the lease mount chases
//! the noconsist upper bound *honestly*.
//!
//! The paper's Create-Delete table brackets NFS write performance
//! between the consistent configurations (2401 ms at 100 Kbytes) and
//! the `noconsist` mount that simply abandons close-to-open semantics
//! (329 ms). NQNFS-style leases claim most of that gap without giving
//! up consistency: under a valid write lease, close() returns without
//! flushing and a remove discards the dirty blocks, so a
//! created-then-deleted file's data never crosses the wire. This
//! section measures and gates that claim with two numbers, written to
//! `BENCH_pr8.json`:
//!
//! 1. **Write-RPC recovery.** The [`ablations::lease_grid`]
//!    Create-Delete grid (default / lease / noconsist × same LAN /
//!    token ring / 56 Kbps), reduced per topology to
//!    `recovery = (W_default − W_lease) / (W_default − W_noconsist)` —
//!    the fraction of noconsist's write-RPC savings the lease mount
//!    recovers. Gated at [`RECOVERY_FLOOR`] on every topology.
//! 2. **Honesty.** A fixed sweep of lease chaos worlds (crash/reboot
//!    and partition windows included) against the tightened streaming
//!    oracle grace of `StreamConfig::for_lease_soak()`. The gate is
//!    zero violations with leases demonstrably exercised — a mount
//!    mode that recovered the RPCs by quietly serving stale cache
//!    would fail here, not pass with an asterisk.

use crate::experiments::{ablations, soak};
use crate::Scale;

/// Environment metadata stamped into the lease and shard bench JSON, so
/// committed numbers can be interpreted on a different machine.
#[derive(Clone, Debug)]
pub struct EnvMeta {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on `PATH` ("unknown" if unavailable).
    pub rustc: String,
    /// Scale label the report was generated at.
    pub scale: String,
}

impl EnvMeta {
    /// Probes the current machine.
    pub fn detect(scale_name: &str) -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        EnvMeta {
            nproc,
            rustc,
            scale: scale_name.to_string(),
        }
    }

    /// Renders the flat `"env"` object.
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"nproc\": {}, \"rustc\": \"{}\", \"scale\": \"{}\" }}",
            self.nproc, self.rustc, self.scale
        )
    }
}

/// Extracts the number following `"key":` inside the (flat) object that
/// follows the first occurrence of `"section"` in `json`. Only parses
/// the hand-rolled shape the `BENCH_pr8.json` and `BENCH_pr9.json`
/// writers emit.
pub(crate) fn find_number(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = format!("\"{section}\"");
    let rest = &json[json.find(&sec)? + sec.len()..];
    let keypat = format!("\"{key}\"");
    let rest = &rest[rest.find(&keypat)? + keypat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Like [`find_number`], but scoped to the object following `section`:
/// finds `sub` after `section`, then `key` after that, so identically
/// named sub-objects in other sections don't shadow it.
pub(crate) fn find_number2(json: &str, section: &str, sub: &str, key: &str) -> Option<f64> {
    let sec = format!("\"{section}\"");
    let rest = &json[json.find(&sec)? + sec.len()..];
    find_number(rest, sub, key)
}

/// The lease mount must recover at least this fraction of the
/// noconsist write-RPC reduction on every topology.
pub const RECOVERY_FLOOR: f64 = 0.60;

/// Chaos seeds swept by the lease-soak certification inside the bench.
pub const SOAK_SEEDS: usize = 6;

/// How far the fresh LAN recovery may fall below the committed number
/// before `--check` fails. RPC counts are deterministic in simulation,
/// so this slack only absorbs deliberate benchmark-shape changes that
/// land together with a regenerated report.
pub const RECOVERY_SLACK: f64 = 0.05;

/// One topology's reduction of the Create-Delete grid.
#[derive(Clone, Copy, Debug)]
pub struct LeaseTopo {
    /// JSON key ("lan", "token_ring", "slow_link").
    pub key: &'static str,
    /// Display label ("same LAN", "token ring", "56Kbps").
    pub topo: &'static str,
    /// WRITE RPCs under the default consistent mount.
    pub default_writes: u64,
    /// WRITE RPCs under the lease mount.
    pub lease_writes: u64,
    /// WRITE RPCs under the noconsist mount.
    pub noconsist_writes: u64,
    /// Create-Delete ms/iteration under the default mount.
    pub default_ms: f64,
    /// Create-Delete ms/iteration under the lease mount.
    pub lease_ms: f64,
    /// Create-Delete ms/iteration under the noconsist mount.
    pub noconsist_ms: f64,
}

impl LeaseTopo {
    /// Fraction of the default→noconsist write-RPC reduction the lease
    /// mount recovers (1.0 when it matches noconsist exactly).
    pub fn recovery(&self) -> f64 {
        let span = self.default_writes.saturating_sub(self.noconsist_writes) as f64;
        if span <= 0.0 {
            return 1.0;
        }
        self.default_writes.saturating_sub(self.lease_writes) as f64 / span
    }
}

/// The PR 8 lease section; serialized to `BENCH_pr8.json`.
pub struct LeaseReport {
    /// Scale label ("quick" or "paper").
    pub scale_name: String,
    /// Machine and toolchain the numbers were taken on.
    pub env: EnvMeta,
    /// Per-topology grid reductions, LAN first.
    pub topos: Vec<LeaseTopo>,
    /// Seeds swept by the lease soak.
    pub soak_seeds: usize,
    /// Oracle violations across the sweep (the gate holds this at 0).
    pub soak_violations: usize,
    /// Server lease grants across the sweep.
    pub soak_leases_issued: u64,
    /// Server-initiated lease recalls across the sweep.
    pub soak_recalls: u64,
    /// Vacate waits (writers held off by conflicting leases).
    pub soak_vacate_waits: u64,
}

/// Runs the lease section: the Create-Delete grid plus the lease soak.
pub fn run_lease_section(scale: &Scale, scale_name: &str) -> LeaseReport {
    let grid = ablations::lease_grid(scale);
    let cell = |mode: &str, topo: &str| {
        *grid
            .iter()
            .find(|c| c.mode == mode && c.topo == topo)
            .expect("grid covers every mode x topology")
    };
    let topos = [
        ("lan", "same LAN"),
        ("token_ring", "token ring"),
        ("slow_link", "56Kbps"),
    ]
    .into_iter()
    .map(|(key, topo)| {
        let d = cell("default", topo);
        let l = cell("lease", topo);
        let n = cell("no consist", topo);
        LeaseTopo {
            key,
            topo,
            default_writes: d.write_rpcs,
            lease_writes: l.write_rpcs,
            noconsist_writes: n.write_rpcs,
            default_ms: d.ms,
            lease_ms: l.ms,
            noconsist_ms: n.ms,
        }
    })
    .collect();
    let sweep = soak::soak_profile_with(
        scale,
        0,
        SOAK_SEEDS,
        soak::Mutation::None,
        soak::SoakProfile::Lease,
    );
    LeaseReport {
        scale_name: scale_name.to_string(),
        env: EnvMeta::detect(scale_name),
        topos,
        soak_seeds: SOAK_SEEDS,
        soak_violations: sweep.total_violations(),
        soak_leases_issued: sweep.rows.iter().map(|r| r.lease[0]).sum(),
        soak_recalls: sweep.rows.iter().map(|r| r.lease[2]).sum(),
        soak_vacate_waits: sweep.rows.iter().map(|r| r.lease[3]).sum(),
    }
}

impl LeaseReport {
    /// The LAN reduction (the headline number the gate quotes).
    pub fn lan(&self) -> &LeaseTopo {
        self.topos.iter().find(|t| t.key == "lan").expect("lan row")
    }

    /// Renders the report as JSON (hand-rolled; the checker parses only
    /// what this writes).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"pr8-lease-writebehind\",\n");
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale_name));
        s.push_str(&format!("  \"env\": {},\n", self.env.to_json()));
        s.push_str("  \"lease_cd\": {\n");
        for (i, t) in self.topos.iter().enumerate() {
            let comma = if i + 1 < self.topos.len() { "," } else { "" };
            s.push_str(&format!(
                "    \"{}\": {{ \"default_writes\": {}, \"lease_writes\": {}, \
                 \"noconsist_writes\": {}, \"default_ms\": {:.1}, \"lease_ms\": {:.1}, \
                 \"noconsist_ms\": {:.1}, \"recovery\": {:.3} }}{comma}\n",
                t.key,
                t.default_writes,
                t.lease_writes,
                t.noconsist_writes,
                t.default_ms,
                t.lease_ms,
                t.noconsist_ms,
                t.recovery()
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"lease_soak\": {\n");
        s.push_str(&format!("    \"seeds\": {},\n", self.soak_seeds));
        s.push_str(&format!("    \"violations\": {},\n", self.soak_violations));
        s.push_str(&format!(
            "    \"leases_issued\": {},\n",
            self.soak_leases_issued
        ));
        s.push_str(&format!("    \"recalls\": {},\n", self.soak_recalls));
        s.push_str(&format!(
            "    \"vacate_waits\": {}\n",
            self.soak_vacate_waits
        ));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str("lease write-behind (Create-Delete, 100Kbytes):\n");
        for t in &self.topos {
            s.push_str(&format!(
                "  {:<10}: WRITEs {} -> {} (noconsist {}), recovery {:.2}; \
                 {:.0}ms -> {:.0}ms (noconsist {:.0}ms)\n",
                t.topo,
                t.default_writes,
                t.lease_writes,
                t.noconsist_writes,
                t.recovery(),
                t.default_ms,
                t.lease_ms,
                t.noconsist_ms
            ));
        }
        s.push_str(&format!(
            "lease soak: {} seeds, {} violations, {} leases issued, {} recalls, \
             {} vacate waits\n",
            self.soak_seeds,
            self.soak_violations,
            self.soak_leases_issued,
            self.soak_recalls,
            self.soak_vacate_waits
        ));
        s
    }

    /// Gates the fresh numbers: every topology's recovery at or above
    /// [`RECOVERY_FLOOR`], a clean lease soak, and leases demonstrably
    /// exercised in both measurements.
    pub fn check(&self) -> Result<String, String> {
        for t in &self.topos {
            if t.default_writes == 0 {
                return Err(format!(
                    "{}: the default mount issued no WRITEs — the grid measured nothing",
                    t.topo
                ));
            }
            if t.noconsist_writes >= t.default_writes {
                return Err(format!(
                    "{}: noconsist ({}) saved no WRITEs vs default ({})",
                    t.topo, t.noconsist_writes, t.default_writes
                ));
            }
            let r = t.recovery();
            if r < RECOVERY_FLOOR {
                return Err(format!(
                    "{}: lease mount recovers only {r:.2} of the noconsist write-RPC \
                     reduction (default {}, lease {}, noconsist {}; floor {RECOVERY_FLOOR:.2})",
                    t.topo, t.default_writes, t.lease_writes, t.noconsist_writes
                ));
            }
        }
        if self.soak_violations > 0 {
            return Err(format!(
                "lease soak reported {} oracle violation(s) across {} seeds — the \
                 write-RPC savings are not honest",
                self.soak_violations, self.soak_seeds
            ));
        }
        if self.soak_leases_issued == 0 {
            return Err(
                "lease soak issued no leases — the sweep never exercised the \
                 lease path, so its clean verdict is vacuous"
                    .to_string(),
            );
        }
        let lan = self.lan();
        Ok(format!(
            "lease recovery {:.2} on the LAN (floor {RECOVERY_FLOOR:.2}), all \
             topologies >= floor; soak clean over {} seeds ({} leases, {} recalls)",
            lan.recovery(),
            self.soak_seeds,
            self.soak_leases_issued,
            self.soak_recalls
        ))
    }
}

/// Compares a fresh lease section against the committed
/// `BENCH_pr8.json`. A gated section that is simply absent fails
/// loudly — a truncated committed report must not waive its gate.
pub fn check_against(committed_json: &str, current: &LeaseReport) -> Result<String, String> {
    let missing = |what: &str| {
        format!(
            "committed lease JSON is missing the gated {what} — regenerate \
             BENCH_pr8.json with `repro bench`"
        )
    };
    let committed_recovery = find_number2(committed_json, "lease_cd", "lan", "recovery")
        .ok_or_else(|| missing("\"lease_cd\" lan recovery"))?;
    let committed_violations = find_number(committed_json, "lease_soak", "violations")
        .ok_or_else(|| missing("\"lease_soak\" violations count"))?;
    if committed_violations != 0.0 {
        return Err(format!(
            "committed lease soak records {committed_violations} violation(s) — the \
             committed report must certify a clean sweep"
        ));
    }
    if committed_recovery < RECOVERY_FLOOR {
        return Err(format!(
            "committed LAN recovery {committed_recovery:.2} is under the \
             {RECOVERY_FLOOR:.2} floor"
        ));
    }
    let fresh = current.check()?;
    let lan = current.lan().recovery();
    if lan + RECOVERY_SLACK < committed_recovery {
        return Err(format!(
            "LAN write-RPC recovery regressed: {lan:.2} vs committed \
             {committed_recovery:.2} (slack {RECOVERY_SLACK:.2})"
        ));
    }
    Ok(format!(
        "{fresh}; committed LAN recovery {committed_recovery:.2} held"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> LeaseReport {
        let topo = |key, topo, lease_writes| LeaseTopo {
            key,
            topo,
            default_writes: 40,
            lease_writes,
            noconsist_writes: 0,
            default_ms: 2000.0,
            lease_ms: 300.0,
            noconsist_ms: 280.0,
        };
        LeaseReport {
            scale_name: "quick".into(),
            env: EnvMeta {
                nproc: 4,
                rustc: "rustc (test)".into(),
                scale: "quick".into(),
            },
            topos: vec![
                topo("lan", "same LAN", 0),
                topo("token_ring", "token ring", 0),
                topo("slow_link", "56Kbps", 0),
            ],
            soak_seeds: 6,
            soak_violations: 0,
            soak_leases_issued: 120,
            soak_recalls: 9,
            soak_vacate_waits: 4,
        }
    }

    #[test]
    fn json_roundtrips_through_the_checker() {
        let report = fake_report();
        let json = report.to_json();
        assert_eq!(
            find_number2(&json, "lease_cd", "lan", "recovery"),
            Some(1.0)
        );
        assert_eq!(find_number(&json, "lease_soak", "violations"), Some(0.0));
        let msg = check_against(&json, &report).expect("clean report passes");
        assert!(msg.contains("recovery"), "got: {msg}");
    }

    #[test]
    fn missing_gated_sections_fail_loudly() {
        let report = fake_report();
        let json = report.to_json();
        // Chopping off the lease_soak section must be a hard failure,
        // not a silently-waived gate.
        let truncated = json[..json.find("\"lease_soak\"").unwrap()].to_string();
        let err = check_against(&truncated, &report).expect_err("truncated must fail");
        assert!(err.contains("missing the gated"), "got: {err}");
        // And an entirely unrelated JSON fails on the first section.
        let err = check_against("{}", &report).expect_err("empty must fail");
        assert!(err.contains("lease_cd"), "got: {err}");
    }

    #[test]
    fn gates_hold_recovery_and_honesty() {
        // A lease mount that only recovers half the reduction fails.
        let mut weak = fake_report();
        for t in &mut weak.topos {
            t.lease_writes = 20;
        }
        let err = weak.check().expect_err("0.50 recovery must fail");
        assert!(err.contains("recovers only"), "got: {err}");
        // A dirty soak fails even with perfect recovery.
        let mut dirty = fake_report();
        dirty.soak_violations = 1;
        let err = dirty.check().expect_err("violations must fail");
        assert!(err.contains("not honest"), "got: {err}");
        // A sweep that never issued a lease proves nothing.
        let mut vacuous = fake_report();
        vacuous.soak_leases_issued = 0;
        let err = vacuous.check().expect_err("no leases must fail");
        assert!(err.contains("vacuous"), "got: {err}");
        // A fresh run regressing well below the committed recovery
        // fails the comparison even above the absolute floor.
        let committed = fake_report().to_json();
        let mut drift = fake_report();
        for t in &mut drift.topos {
            t.lease_writes = 12; // recovery 0.70: above floor, below 1.0
        }
        let err = check_against(&committed, &drift).expect_err("regression must fail");
        assert!(err.contains("regressed"), "got: {err}");
    }
}

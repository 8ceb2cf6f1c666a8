//! A serializing CPU resource with utilization accounting.
//!
//! Every piece of simulated kernel work (interrupt service, checksum, RPC
//! decode, memory-to-memory copy, ...) charges time to the host CPU. Work
//! is serviced FIFO: a charge arriving while the CPU is busy starts when
//! the CPU frees up. This is what makes a loaded server's RTT curve bend
//! upward as it saturates — the effect Graphs 1–6 of the paper hinge on.
//!
//! Costs are expressed in *MicroVAXII time* (the paper's 0.9 MIPS test
//! machine) and scaled by the profile's speed factor, so a DS3100 profile
//! runs the same work ~14x faster.
//!
//! Utilization is measured exactly the way the paper's appendix describes:
//! the MicroVAXII masked clock interrupts during peripheral interrupts and
//! made `iostat` erratic, so Macklem patched the kernels with a counter in
//! the idle loop. The simulation's equivalent is exact idle-time
//! accounting.

use crate::time::{SimDuration, SimTime};

/// Static description of a CPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Speed relative to the MicroVAXII (0.9 MIPS = 1.0).
    pub speed: f64,
}

impl CpuProfile {
    /// The paper's server/client machine: a 0.9 MIPS MicroVAXII.
    pub const MICROVAX_II: CpuProfile = CpuProfile {
        name: "MicroVAXII",
        speed: 1.0,
    };

    /// The paper's fast client: a DECstation 3100 (~13 MIPS R2000).
    pub const DS3100: CpuProfile = CpuProfile {
        name: "DS3100",
        speed: 14.0,
    };
}

/// Categories of CPU work, used to reproduce the paper's kernel profiling
/// observations (Section 3: ">1/3 of CPU cycles in low-level network
/// interface handling").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuCategory {
    /// Copying mbuf data to/from network interface buffers, and interface
    /// start-up/interrupt service.
    NetIf,
    /// Internet checksum calculation.
    Checksum,
    /// IP/UDP/TCP protocol processing.
    Protocol,
    /// RPC/XDR encode and decode.
    Rpc,
    /// NFS request service and VFS work.
    Nfs,
    /// Copies between the buffer cache and mbuf clusters.
    BufCopy,
    /// Disk interrupt service and block I/O setup.
    Disk,
    /// User-mode work (benchmark "real work", e.g. compilation).
    User,
    /// Anything else.
    Other,
}

impl CpuCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [CpuCategory; 9] = [
        CpuCategory::NetIf,
        CpuCategory::Checksum,
        CpuCategory::Protocol,
        CpuCategory::Rpc,
        CpuCategory::Nfs,
        CpuCategory::BufCopy,
        CpuCategory::Disk,
        CpuCategory::User,
        CpuCategory::Other,
    ];

    fn index(self) -> usize {
        match self {
            CpuCategory::NetIf => 0,
            CpuCategory::Checksum => 1,
            CpuCategory::Protocol => 2,
            CpuCategory::Rpc => 3,
            CpuCategory::Nfs => 4,
            CpuCategory::BufCopy => 5,
            CpuCategory::Disk => 6,
            CpuCategory::User => 7,
            CpuCategory::Other => 8,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CpuCategory::NetIf => "netif",
            CpuCategory::Checksum => "cksum",
            CpuCategory::Protocol => "proto",
            CpuCategory::Rpc => "rpc",
            CpuCategory::Nfs => "nfs",
            CpuCategory::BufCopy => "bufcopy",
            CpuCategory::Disk => "disk",
            CpuCategory::User => "user",
            CpuCategory::Other => "other",
        }
    }
}

/// A FIFO-serviced CPU with busy/idle accounting.
///
/// # Examples
///
/// ```
/// use renofs_sim::cpu::{Cpu, CpuCategory, CpuProfile};
/// use renofs_sim::{SimDuration, SimTime};
///
/// let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
/// let t0 = SimTime::from_millis(1);
/// let done = cpu.charge(t0, SimDuration::from_millis(2), CpuCategory::Nfs);
/// assert_eq!(done, SimTime::from_millis(3));
/// // A second charge queues behind the first.
/// let done2 = cpu.charge(t0, SimDuration::from_millis(1), CpuCategory::Rpc);
/// assert_eq!(done2, SimTime::from_millis(4));
/// ```
#[derive(Clone, Debug)]
pub struct Cpu {
    profile: CpuProfile,
    busy_until: SimTime,
    busy: SimDuration,
    by_category: [SimDuration; 9],
    window_start: SimTime,
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new(profile: CpuProfile) -> Self {
        Cpu {
            profile,
            busy_until: SimTime::ZERO,
            busy: SimDuration::ZERO,
            by_category: [SimDuration::ZERO; 9],
            window_start: SimTime::ZERO,
        }
    }

    /// The CPU's profile.
    pub fn profile(&self) -> CpuProfile {
        self.profile
    }

    /// Charges `base_cost` (expressed in MicroVAXII time) of `category`
    /// work arriving at `now`; returns the completion time.
    pub fn charge(
        &mut self,
        now: SimTime,
        base_cost: SimDuration,
        category: CpuCategory,
    ) -> SimTime {
        let cost = base_cost.mul_f64(1.0 / self.profile.speed);
        let start = now.max(self.busy_until);
        let done = start + cost;
        self.busy_until = done;
        self.busy += cost;
        self.by_category[category.index()] += cost;
        done
    }

    /// The time the CPU next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time since the last accounting reset.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy time attributed to one category since the last reset.
    pub fn busy_in(&self, category: CpuCategory) -> SimDuration {
        self.by_category[category.index()]
    }

    /// Utilization in `[0, 1]` over the window since the last reset.
    ///
    /// This is the simulation analog of the paper's patched idle-loop
    /// counter: idle time is known exactly, so utilization is exact.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.window_start);
        if elapsed.is_zero() {
            return 0.0;
        }
        let busy = self.busy.min(elapsed);
        busy.as_secs_f64() / elapsed.as_secs_f64()
    }

    /// Resets the measurement window (does not affect queued work).
    pub fn reset_accounting(&mut self, now: SimTime) {
        self.window_start = now;
        self.busy = SimDuration::ZERO;
        self.by_category = [SimDuration::ZERO; 9];
    }

    /// A profiling report: fraction of busy time per category, descending.
    pub fn profile_report(&self) -> Vec<(CpuCategory, f64)> {
        let total = self.busy.as_secs_f64();
        let mut rows: Vec<(CpuCategory, f64)> = CpuCategory::ALL
            .iter()
            .map(|&c| {
                let frac = if total > 0.0 {
                    self.busy_in(c).as_secs_f64() / total
                } else {
                    0.0
                };
                (c, frac)
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_runs_immediately() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        let done = cpu.charge(
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
            CpuCategory::Nfs,
        );
        assert_eq!(done, SimTime::from_millis(15));
    }

    #[test]
    fn work_queues_fifo() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        let t = SimTime::from_millis(0);
        let d1 = cpu.charge(t, SimDuration::from_millis(3), CpuCategory::Rpc);
        let d2 = cpu.charge(t, SimDuration::from_millis(2), CpuCategory::Rpc);
        let d3 = cpu.charge(
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            CpuCategory::Rpc,
        );
        assert_eq!(d1.as_millis(), 3);
        assert_eq!(d2.as_millis(), 5);
        assert_eq!(d3.as_millis(), 6);
    }

    #[test]
    fn faster_profile_scales_cost() {
        let mut vax = Cpu::new(CpuProfile::MICROVAX_II);
        let mut ds = Cpu::new(CpuProfile::DS3100);
        let t = SimTime::ZERO;
        let cost = SimDuration::from_millis(14);
        let dv = vax.charge(t, cost, CpuCategory::User);
        let dd = ds.charge(t, cost, CpuCategory::User);
        assert_eq!(dv.as_millis(), 14);
        assert_eq!(dd.as_millis(), 1, "14x faster CPU");
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        cpu.charge(
            SimTime::ZERO,
            SimDuration::from_millis(25),
            CpuCategory::Nfs,
        );
        let u = cpu.utilization(SimTime::from_millis(100));
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_caps_at_one() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        // Queue far more work than elapsed time.
        for _ in 0..10 {
            cpu.charge(
                SimTime::ZERO,
                SimDuration::from_millis(50),
                CpuCategory::Nfs,
            );
        }
        let u = cpu.utilization(SimTime::from_millis(100));
        assert!(u <= 1.0 + 1e-12);
        assert!(u > 0.99);
    }

    #[test]
    fn category_accounting_and_report() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        cpu.charge(
            SimTime::ZERO,
            SimDuration::from_millis(6),
            CpuCategory::NetIf,
        );
        cpu.charge(
            SimTime::ZERO,
            SimDuration::from_millis(3),
            CpuCategory::Checksum,
        );
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(1), CpuCategory::Nfs);
        assert_eq!(cpu.busy_in(CpuCategory::NetIf).as_millis(), 6);
        let report = cpu.profile_report();
        assert_eq!(report[0].0, CpuCategory::NetIf);
        assert!((report[0].1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn reset_accounting_clears_counters() {
        let mut cpu = Cpu::new(CpuProfile::MICROVAX_II);
        cpu.charge(
            SimTime::ZERO,
            SimDuration::from_millis(10),
            CpuCategory::Nfs,
        );
        cpu.reset_accounting(SimTime::from_millis(10));
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
        assert_eq!(cpu.utilization(SimTime::from_millis(20)), 0.0);
        // But the CPU is still busy until the queued work drains.
        assert_eq!(cpu.busy_until(), SimTime::from_millis(10));
    }
}

//! The experiment implementations, one module per paper artifact group.

pub mod ablations;
pub mod cd;
pub mod cpu;
pub mod crowd;
pub mod faults;
mod fleet;
pub mod mab;
pub mod scale;
pub mod servercmp;
pub mod shard;
pub mod soak;
pub mod trace;
pub mod transport;

use renofs::{TopologyKind, TransportKind, World, WorldSys};
use renofs_sim::SimDuration;

/// The paper's tuned UDP mount: A+4D dynamic RTOs over a 1 s `timeo`,
/// the transport of `WorldConfig::baseline()`.
pub const UDP_A4D: TransportKind = TransportKind::UdpDynamic {
    timeo: SimDuration::from_secs(1),
};

/// The three topologies the paper measures, with their table labels.
pub fn paper_topologies() -> [(&'static str, TopologyKind); 3] {
    [
        ("same LAN", TopologyKind::SameLan),
        ("token ring", TopologyKind::TokenRing),
        ("56Kbps", TopologyKind::SlowLink),
    ]
}

/// The three transports the paper compares, with their plot labels.
pub fn paper_transports() -> [(&'static str, TransportKind); 3] {
    [
        (
            "UDP rto=1s",
            TransportKind::UdpFixed {
                timeo: SimDuration::from_secs(1),
            },
        ),
        ("UDP rto=A+4D", UDP_A4D),
        ("TCP", TransportKind::Tcp),
    ]
}

/// Runs `f` as the world's one workload proc, on client 0, and returns
/// what it returns.
pub fn run_proc<T: 'static>(world: &mut World, f: impl FnOnce(&mut WorldSys) -> T + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    world.spawn(move |sys| {
        let _ = tx.send(f(sys));
    });
    world.run();
    rx.recv().expect("the proc returned")
}

/// Transport retransmissions on client `ci`'s mount of server `sj`,
/// UDP or TCP.
pub fn retransmits(world: &World, ci: usize, sj: usize) -> u64 {
    world
        .udp_stats_to(ci, sj)
        .map(|s| s.retransmits)
        .or_else(|| world.tcp_stats_to(ci, sj).map(|s| s.retransmits))
        .unwrap_or(0)
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-client or
/// per-shard rates: 1.0 is perfectly fair.
pub fn jain(rates: &[f64]) -> f64 {
    let n = rates.len() as f64;
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 0.0;
    }
    (sum * sum) / (n * sq)
}

/// The rows labelled `label`, in order. Panics naming the label when no
/// row carries it: a renamed row must fail the assert that reads it, not
/// turn it into a comparison against zero.
pub fn labelled<'a, T>(rows: &'a [T], label: &str, label_of: impl Fn(&T) -> &str) -> Vec<&'a T> {
    let found: Vec<&T> = rows.iter().filter(|r| label_of(r) == label).collect();
    assert!(!found.is_empty(), "no row labelled {label:?}");
    found
}

//! Procs are coroutines on the thread that runs their world, not OS
//! threads. One test only: it has the process to itself, so the kernel's
//! thread count for it is stable.

use std::sync::mpsc::channel;

use renofs::syscalls::Syscalls;
use renofs::{World, WorldConfig};
use renofs_sim::SimDuration;

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line")
        .trim()
        .parse()
        .expect("a count")
}

#[test]
fn sixty_four_procs_add_no_os_thread() {
    let mut cfg = WorldConfig::baseline();
    cfg.clients = 2;
    let mut world = World::new(cfg);
    let before = os_threads();
    let (tx, rx) = channel();
    for i in 0..64 {
        let tx = tx.clone();
        world.spawn_on(i % 2, move |sys| {
            sys.sleep(SimDuration::from_millis(1 + i as u64));
            sys.now();
            // Mid-run: every other proc has started and is suspended.
            tx.send(os_threads()).unwrap();
        });
    }
    world.run();
    let during: Vec<usize> = rx.try_iter().collect();
    assert_eq!(during, vec![before; 64]);
    assert_eq!(os_threads(), before);
}

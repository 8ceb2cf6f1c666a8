//! A proc's stack outlives its world: a dropped proc parks it and the next
//! world's procs take it, so building worlds one after another maps no
//! more stacks than the largest of them needs. One test only: it has the
//! process to itself, so no other test maps or takes a stack meanwhile.

use renofs::syscalls::Syscalls;
use renofs::{World, WorldConfig};
use renofs_sim::SimDuration;

/// Lines of `/proc/self/maps`: one per mapping.
fn mappings() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines().count()
}

/// Builds a 2-client world of `procs` procs, runs it and drops it; returns
/// the mappings once every proc has its stack, and once the world is gone.
fn world_of(procs: usize) -> (usize, usize) {
    let mut cfg = WorldConfig::baseline();
    cfg.clients = 2;
    let mut world = World::new(cfg);
    for i in 0..procs {
        world.spawn_on(i % 2, move |sys| {
            sys.sleep(SimDuration::from_millis(1 + i as u64 % 7));
            sys.now();
        });
    }
    let spawned = mappings();
    world.run();
    drop(world);
    (spawned, mappings())
}

#[test]
fn a_second_world_maps_no_stack_and_a_bigger_one_only_the_extra() {
    let (_, first) = world_of(256);
    let (spawned, second) = world_of(256);
    assert_eq!(spawned, first, "the second world took parked stacks");
    assert_eq!(second, first);
    // A stack is two mappings: the guard page and the rest.
    let (spawned, _) = world_of(512);
    assert_eq!(spawned, second + 2 * 256, "only the 256 extra procs map");
}

//! The crowd fits its mbuf free lists: the benchmark's `crowd_1024x4`
//! shape (1,024 clients on 4 servers, 2 nfsds each, duplicate cache on,
//! the 45/40/15 lookup/getattr/setattr mix, one generator proc per
//! client) run twice on one thread. The first world fills this thread's
//! lists; the second must take every small-mbuf area and every chain
//! spine from them, none fresh from the heap. If a request the transport
//! keeps for retransmission copied its small mbufs, a world would peak
//! near 7,700 live small areas against a list of 4,352 and take about
//! 3,340 fresh.

use renofs::WorldConfig;
use renofs_mbuf::pool;
use renofs_netsim::topology::presets::Background;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{run_spread, LoadMix, NhfsstoneConfig, Spread};

fn crowd() {
    let mut w = WorldConfig::baseline();
    w.seed = 1;
    w.background = Background::quiet();
    w.clients = 1024;
    w.servers = 4;
    w.nfsds = 2;
    w.server.dup_cache = true;
    let mix = LoadMix {
        lookup: 45,
        read: 0,
        getattr: 40,
        setattr: 15,
        write: 0,
    };
    let mut n = NhfsstoneConfig::paper(12.0, mix);
    n.seed = 1 ^ 0x6e68_6673;
    n.warmup = SimDuration::ZERO;
    n.duration = SimDuration::from_secs(12);
    n.preload_bytes = 0;
    n.procs = 1;
    let mut world = renofs::World::new(w);
    let shards = run_spread(&mut world, &n, Spread::EveryShard, |_| {});
    assert!(shards.iter().all(|r| r.ops > 0), "every shard served");
}

#[test]
fn a_second_crowd_takes_no_small_area_or_spine_fresh() {
    crowd();
    let (small, spines) = (pool::small_stats(), pool::spine_stats());
    crowd();
    let fresh_small = pool::small_stats().fresh - small.fresh;
    let fresh_spines = pool::spine_stats().fresh - spines.fresh;
    assert_eq!(
        (fresh_small, fresh_spines),
        (0, 0),
        "small areas and spines the second crowd took fresh"
    );
}

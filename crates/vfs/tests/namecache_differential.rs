//! The name cache keyed by an inline name against the `String`-keyed
//! cache it replaced, kept below as it was: random scripts of every
//! operation must give equal results, statistics and sizes after every
//! step.

use proptest::prelude::*;
use renofs_vfs::namecache::{NameCacheStats, NC_NAMEMAX};
use renofs_vfs::{NameCache, VnodeId};

/// The cache as it was when every probe built a `String` key.
#[allow(dead_code)]
mod reference {
    use std::collections::HashMap;

    use super::{NameCacheStats, VnodeId, NC_NAMEMAX};

    pub struct NameCache {
        enabled: bool,
        capacity: usize,
        map: HashMap<(VnodeId, String), (VnodeId, u64)>,
        clock: u64,
        stats: NameCacheStats,
    }

    impl NameCache {
        /// Creates a cache holding up to `capacity` entries.
        pub fn new(capacity: usize) -> Self {
            NameCache {
                enabled: true,
                capacity: capacity.max(1),
                map: HashMap::new(),
                clock: 0,
                stats: NameCacheStats::default(),
            }
        }

        /// Disables the cache (for the Graphs 8–9 ablation); lookups always
        /// miss and entries are not stored.
        pub fn set_enabled(&mut self, enabled: bool) {
            self.enabled = enabled;
            if !enabled {
                self.map.clear();
            }
        }

        /// Whether the cache is enabled.
        pub fn is_enabled(&self) -> bool {
            self.enabled
        }

        /// Statistics so far.
        pub fn stats(&self) -> NameCacheStats {
            self.stats
        }

        /// Entries currently cached.
        pub fn len(&self) -> usize {
            self.map.len()
        }

        /// Whether the cache is empty.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        /// Looks up a component name under a directory.
        pub fn lookup(&mut self, dir: VnodeId, name: &str) -> Option<VnodeId> {
            if !self.enabled {
                self.stats.misses += 1;
                return None;
            }
            if name.len() > NC_NAMEMAX {
                self.stats.too_long += 1;
                return None;
            }
            self.clock += 1;
            let clock = self.clock;
            match self.map.get_mut(&(dir, name.to_string())) {
                Some((v, stamp)) => {
                    *stamp = clock;
                    self.stats.hits += 1;
                    Some(*v)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        /// Enters a translation. Over-long names are not cached.
        pub fn enter(&mut self, dir: VnodeId, name: &str, target: VnodeId) {
            if !self.enabled || name.len() > NC_NAMEMAX {
                return;
            }
            self.clock += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&(dir, name.to_string())) {
                // Evict the least recently used entry.
                if let Some(key) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&key);
                    self.stats.evictions += 1;
                }
            }
            self.map
                .insert((dir, name.to_string()), (target, self.clock));
        }

        /// Removes one translation (on remove/rename/create collisions).
        pub fn invalidate(&mut self, dir: VnodeId, name: &str) {
            self.map.remove(&(dir, name.to_string()));
        }

        /// Purges every entry that maps to or from `vnode` (vnode recycled,
        /// directory changed wholesale).
        pub fn purge_vnode(&mut self, vnode: VnodeId) {
            self.map
                .retain(|(dir, _), (target, _)| *dir != vnode && *target != vnode);
        }

        /// Empties the cache.
        pub fn purge_all(&mut self) {
            self.map.clear();
        }
    }
}

/// The names a script draws from: every length from 0 to 40 bytes in
/// three letters, and the edges of the inline key — exactly 31 and 32
/// bytes, a two-byte character ending at byte 31 and one straddling it,
/// and `"a"` beside `"a\0"`.
fn names() -> Vec<String> {
    let mut names: Vec<String> = (0..=40)
        .flat_map(|len| ["a", "b", "é"].map(|c| c.repeat(len)))
        .filter(|n| n.len() <= 40)
        .collect();
    names.extend([
        "x".repeat(NC_NAMEMAX),
        "x".repeat(NC_NAMEMAX + 1),
        format!("{}é", "y".repeat(NC_NAMEMAX - 2)),
        format!("{}é", "y".repeat(NC_NAMEMAX - 1)),
        "a\0".to_string(),
        "a".to_string(),
    ]);
    names
}

#[derive(Clone, Debug)]
enum Op {
    Lookup(u8, usize),
    Enter(u8, usize, u8),
    Invalidate(u8, usize),
    PurgeVnode(u8),
    PurgeAll,
    SetEnabled(bool),
}

fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
    // Four vnodes, so directories and targets meet and purges bite.
    let (v, name) = (0..4u8, 0..pool);
    prop_oneof![
        6 => (v.clone(), name.clone()).prop_map(|(d, n)| Op::Lookup(d, n)),
        6 => (v.clone(), name.clone(), v.clone()).prop_map(|(d, n, t)| Op::Enter(d, n, t)),
        2 => (v.clone(), name).prop_map(|(d, n)| Op::Invalidate(d, n)),
        1 => v.prop_map(Op::PurgeVnode),
        1 => Just(Op::PurgeAll),
        1 => any::<u8>().prop_map(|b| Op::SetEnabled(b % 4 != 0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capacities of 1 to 8 keep LRU eviction firing.
    #[test]
    fn inline_keys_match_string_keys(
        capacity in 1..9usize,
        ops in proptest::collection::vec(op_strategy(names().len()), 1..200),
    ) {
        let names = names();
        let (mut nc, mut old) = (NameCache::new(capacity), reference::NameCache::new(capacity));
        let v = |n: u8| VnodeId(u64::from(n));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup(d, n) => {
                    prop_assert_eq!(nc.lookup(v(d), &names[n]), old.lookup(v(d), &names[n]));
                }
                Op::Enter(d, n, t) => {
                    nc.enter(v(d), &names[n], v(t));
                    old.enter(v(d), &names[n], v(t));
                }
                Op::Invalidate(d, n) => {
                    nc.invalidate(v(d), &names[n]);
                    old.invalidate(v(d), &names[n]);
                }
                Op::PurgeVnode(t) => {
                    nc.purge_vnode(v(t));
                    old.purge_vnode(v(t));
                }
                Op::PurgeAll => {
                    nc.purge_all();
                    old.purge_all();
                }
                Op::SetEnabled(on) => {
                    nc.set_enabled(on);
                    old.set_enabled(on);
                }
            }
            prop_assert_eq!(nc.stats(), old.stats(), "step {} {:?}", step, op);
            prop_assert_eq!(nc.len(), old.len(), "step {} {:?}", step, op);
        }
    }
}

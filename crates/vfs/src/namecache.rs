//! The VFS name-lookup cache.
//!
//! 4.3BSD Reno caches `(directory vnode, component name) -> vnode`
//! translations for names of **up to 31 characters** — a limit the
//! paper's appendix calls out because Nhfsstone's long generated file
//! names defeat exactly this cache. On the Modified Andrew Benchmark the
//! cache cut the client's lookup RPC count in half (Table 3), and on the
//! server it reduces directory search CPU (Graphs 8–9).

use std::collections::HashMap;

use crate::types::VnodeId;

/// Longest name the cache will hold (4.3BSD Reno's limit).
pub const NC_NAMEMAX: usize = 31;

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lookups skipped because the name exceeds [`NC_NAMEMAX`].
    pub too_long: u64,
    /// Entries evicted by capacity.
    pub evictions: u64,
}

/// A cacheable component name, held inline as 4.3BSD holds it
/// (`nc_name[NCHNAMLEN]`), so building a key allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NcName {
    len: u8,
    bytes: [u8; NC_NAMEMAX],
}

impl NcName {
    /// The key for `name`, or `None` past [`NC_NAMEMAX`] bytes.
    fn new(name: &str) -> Option<Self> {
        let src = name.as_bytes();
        let mut bytes = [0; NC_NAMEMAX];
        bytes.get_mut(..src.len())?.copy_from_slice(src);
        Some(NcName {
            len: src.len() as u8,
            bytes,
        })
    }
}

/// An LRU name-lookup cache.
///
/// # Examples
///
/// ```
/// use renofs_vfs::{NameCache, VnodeId};
///
/// let mut nc = NameCache::new(128);
/// nc.enter(VnodeId(1), "passwd", VnodeId(9));
/// assert_eq!(nc.lookup(VnodeId(1), "passwd"), Some(VnodeId(9)));
/// assert_eq!(nc.lookup(VnodeId(1), "shadow"), None);
/// ```
pub struct NameCache {
    enabled: bool,
    capacity: usize,
    /// SipHash, not `IntMap`: the names come off the wire.
    map: HashMap<(VnodeId, NcName), (VnodeId, u64)>,
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
        let Some(name) = NcName::new(name) else {
            self.stats.too_long += 1;
            return None;
        };
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&(dir, name)) {
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
        if !self.enabled {
            return;
        }
        let Some(name) = NcName::new(name) else {
            return;
        };
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&(dir, name)) {
            // Evict the least recently used entry.
            if let Some(key) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&key);
                self.stats.evictions += 1;
            }
        }
        self.map.insert((dir, name), (target, self.clock));
    }

    /// Removes one translation (on remove/rename/create collisions).
    pub fn invalidate(&mut self, dir: VnodeId, name: &str) {
        if let Some(name) = NcName::new(name) {
            self.map.remove(&(dir, name));
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> VnodeId {
        VnodeId(n)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut nc = NameCache::new(16);
        nc.enter(v(1), "a", v(10));
        assert_eq!(nc.lookup(v(1), "a"), Some(v(10)));
        assert_eq!(nc.lookup(v(1), "b"), None);
        assert_eq!(nc.lookup(v(2), "a"), None, "keyed by directory too");
        let s = nc.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn long_names_bypass_cache() {
        let mut nc = NameCache::new(16);
        let long = "x".repeat(NC_NAMEMAX + 1);
        nc.enter(v(1), &long, v(10));
        assert_eq!(nc.lookup(v(1), &long), None);
        assert_eq!(nc.stats().too_long, 1);
        assert!(nc.is_empty(), "over-long names never stored");
        // Exactly 31 characters is cacheable.
        let ok = "y".repeat(NC_NAMEMAX);
        nc.enter(v(1), &ok, v(11));
        assert_eq!(nc.lookup(v(1), &ok), Some(v(11)));
    }

    #[test]
    fn lru_eviction() {
        let mut nc = NameCache::new(3);
        nc.enter(v(1), "a", v(10));
        nc.enter(v(1), "b", v(11));
        nc.enter(v(1), "c", v(12));
        // Touch "a" so "b" is the LRU.
        assert!(nc.lookup(v(1), "a").is_some());
        nc.enter(v(1), "d", v(13));
        assert_eq!(nc.len(), 3);
        assert_eq!(nc.lookup(v(1), "b"), None, "LRU entry evicted");
        assert!(nc.lookup(v(1), "a").is_some());
        assert_eq!(nc.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_purge() {
        let mut nc = NameCache::new(16);
        nc.enter(v(1), "a", v(10));
        nc.enter(v(1), "b", v(11));
        nc.enter(v(10), "sub", v(12));
        nc.invalidate(v(1), "a");
        assert_eq!(nc.lookup(v(1), "a"), None);
        // Purging vnode 10 removes entries where it is dir or target.
        nc.purge_vnode(v(10));
        assert_eq!(nc.lookup(v(10), "sub"), None);
        assert!(nc.lookup(v(1), "b").is_some(), "unrelated entries survive");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut nc = NameCache::new(16);
        nc.enter(v(1), "a", v(10));
        nc.set_enabled(false);
        assert_eq!(nc.lookup(v(1), "a"), None);
        nc.enter(v(1), "b", v(11));
        nc.set_enabled(true);
        assert_eq!(nc.lookup(v(1), "b"), None, "nothing stored while off");
    }

    #[test]
    fn reenter_updates_target() {
        let mut nc = NameCache::new(16);
        nc.enter(v(1), "a", v(10));
        nc.enter(v(1), "a", v(20));
        assert_eq!(nc.lookup(v(1), "a"), Some(v(20)));
        assert_eq!(nc.len(), 1);
    }
}

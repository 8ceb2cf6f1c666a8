//! The block buffer cache with dirty-region tracking.
//!
//! Two details from the paper live here:
//!
//! 1. The Reno `buf` structure has extra fields recording the "dirty"
//!    region within a buffer (`b_dirtyoff`/`b_dirtyend`), so a client
//!    writing part of a block **does not need to pre-read the block from
//!    the server** — only the dirty region is pushed later.
//! 2. On the Reno server, cached buffers hang **directly off the vnode**,
//!    so searching for a file's block touches only that file's buffers;
//!    the paper conjectures Ultrix's remaining lookup-performance gap
//!    comes from costlier buffer-cache searches. [`CacheOrg`] prices both
//!    organizations in *search steps* for the CPU model.

use renofs_sim::IntMap;

use crate::types::{VnodeId, BLOCK_SIZE};

/// How the cache is searched, for CPU pricing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOrg {
    /// 4.3BSD Reno: buffers chained off each vnode — a search touches
    /// only that vnode's buffers.
    PerVnodeChains,
    /// The Ultrix model: a global search across all cached buffers.
    GlobalList,
}

/// One cached block.
#[derive(Clone, Debug)]
pub struct Buf {
    data: Vec<u8>,
    valid: bool,
    dirty: Option<(usize, usize)>,
}

impl Buf {
    /// An empty, invalid block (allocated for a fresh partial write).
    pub fn new_empty() -> Self {
        Buf {
            data: vec![0; BLOCK_SIZE],
            valid: false,
            dirty: None,
        }
    }

    /// A block whose full contents were read from the server/disk.
    pub fn new_valid(data: Vec<u8>) -> Self {
        let mut d = data;
        d.resize(BLOCK_SIZE, 0);
        Buf {
            data: d,
            valid: true,
            dirty: None,
        }
    }

    /// Whether the whole block's contents are valid.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The dirty region, if any.
    pub fn dirty_range(&self) -> Option<(usize, usize)> {
        self.dirty
    }

    /// Whether the block holds unwritten changes.
    pub fn is_dirty(&self) -> bool {
        self.dirty.is_some()
    }

    /// Raw block contents (meaningful within valid/dirty regions).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Whether `[off, end)` can be served from this buffer: either the
    /// whole block is valid, or the range lies within the dirty region.
    pub fn covers(&self, off: usize, end: usize) -> bool {
        if self.valid {
            return end <= BLOCK_SIZE;
        }
        match self.dirty {
            Some((d0, d1)) => off >= d0 && end <= d1,
            None => false,
        }
    }

    /// Reads `[off, off+len)` if covered.
    pub fn read(&self, off: usize, len: usize) -> Option<&[u8]> {
        if self.covers(off, off + len) {
            Some(&self.data[off..off + len])
        } else {
            None
        }
    }

    /// Writes into the block, extending the dirty region.
    ///
    /// Matches the BSD rule: on an *invalid* block the new write must
    /// overlap or abut the existing dirty region (otherwise the block
    /// would record two disjoint dirty extents and the old one must be
    /// pushed first) — in that case `Err(())` is returned and the caller
    /// flushes before retrying.
    #[allow(clippy::result_unit_err)] // One failure mode: disjoint dirty extents.
    pub fn write(&mut self, off: usize, src: &[u8]) -> Result<(), ()> {
        let end = off + src.len();
        assert!(end <= BLOCK_SIZE, "write beyond block");
        if !self.valid {
            if let Some((d0, d1)) = self.dirty {
                let disjoint = end < d0 || off > d1;
                if disjoint {
                    return Err(());
                }
            }
        }
        self.data[off..end].copy_from_slice(src);
        self.dirty = Some(match self.dirty {
            Some((d0, d1)) => (d0.min(off), d1.max(end)),
            None => (off, end),
        });
        Ok(())
    }

    /// Marks the dirty region clean (after a successful push).
    pub fn clear_dirty(&mut self) {
        self.dirty = None;
    }

    /// Marks the whole block valid (after merging a server read under
    /// the dirty region).
    pub fn mark_valid(&mut self) {
        self.valid = true;
    }

    /// Overlays freshly read block contents *under* the dirty region:
    /// bytes inside the dirty region keep the local modifications.
    pub fn merge_read(&mut self, fresh: &[u8]) {
        let dirty = self.dirty;
        for (i, b) in fresh.iter().enumerate().take(BLOCK_SIZE) {
            let in_dirty = match dirty {
                Some((d0, d1)) => i >= d0 && i < d1,
                None => false,
            };
            if !in_dirty {
                self.data[i] = *b;
            }
        }
        self.valid = true;
    }
}

/// Cumulative statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufCacheStats {
    /// Block lookups that hit.
    pub hits: u64,
    /// Block lookups that missed.
    pub misses: u64,
    /// Blocks evicted.
    pub evictions: u64,
    /// Total search steps performed (the CPU-cost proxy).
    pub search_steps: u64,
}

/// The buffer cache.
///
/// # Examples
///
/// ```
/// use renofs_vfs::{Buf, BufCache, CacheOrg, VnodeId};
///
/// let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 64);
/// bc.insert(VnodeId(1), 0, Buf::new_valid(vec![7; 100]));
/// let (buf, _steps) = bc.lookup(VnodeId(1), 0);
/// assert!(buf.is_some());
/// ```
pub struct BufCache {
    org: CacheOrg,
    capacity: usize,
    map: IntMap<(VnodeId, u64), (Buf, u64)>,
    clock: u64,
    ambient: u64,
    stats: BufCacheStats,
}

impl BufCache {
    /// Creates a cache of `capacity` blocks.
    pub fn new(org: CacheOrg, capacity: usize) -> Self {
        BufCache {
            org,
            capacity: capacity.max(1),
            map: IntMap::default(),
            clock: 0,
            ambient: 0,
            stats: BufCacheStats::default(),
        }
    }

    /// Declares `n` ambient resident blocks: buffers belonging to other
    /// files and past activity that a long-running server's cache holds.
    /// They cost search steps under [`CacheOrg::GlobalList`] but are
    /// invisible to per-vnode chains — the structural difference the
    /// paper credits for much of the Reno/Ultrix server gap.
    pub fn set_ambient(&mut self, n: usize) {
        self.ambient = n as u64;
    }

    /// The search organization.
    pub fn org(&self) -> CacheOrg {
        self.org
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufCacheStats {
        self.stats
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn search_steps(&self, v: VnodeId) -> u64 {
        match self.org {
            CacheOrg::PerVnodeChains => self.map.keys().filter(|(kv, _)| *kv == v).count() as u64,
            CacheOrg::GlobalList => self.map.len() as u64 + self.ambient,
        }
        .max(1)
    }

    /// Looks up a block; returns the buffer (if cached) and the number of
    /// search steps the organization would have cost.
    pub fn lookup(&mut self, v: VnodeId, blk: u64) -> (Option<&mut Buf>, u64) {
        let steps = self.search_steps(v);
        self.stats.search_steps += steps;
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&(v, blk)) {
            Some((buf, stamp)) => {
                *stamp = clock;
                self.stats.hits += 1;
                (Some(buf), steps)
            }
            None => {
                self.stats.misses += 1;
                (None, steps)
            }
        }
    }

    /// Inserts (or replaces) a block. If the cache is over capacity the
    /// least-recently-used block is evicted — clean blocks silently,
    /// dirty blocks returned so the caller can write them back.
    pub fn insert(&mut self, v: VnodeId, blk: u64, buf: Buf) -> Vec<(VnodeId, u64, Buf)> {
        self.clock += 1;
        self.map.insert((v, blk), (buf, self.clock));
        let mut writebacks = Vec::new();
        while self.map.len() > self.capacity {
            // Prefer the LRU clean block; fall back to the LRU dirty one.
            let victim = self
                .map
                .iter()
                .filter(|(k, (b, _))| !b.is_dirty() && **k != (v, blk))
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .or_else(|| {
                    self.map
                        .iter()
                        .filter(|(k, _)| **k != (v, blk))
                        .min_by_key(|(_, (_, stamp))| *stamp)
                        .map(|(k, _)| *k)
                });
            match victim {
                Some(k) => {
                    let (b, _) = self.map.remove(&k).expect("victim exists");
                    self.stats.evictions += 1;
                    if b.is_dirty() {
                        writebacks.push((k.0, k.1, b));
                    }
                }
                None => break,
            }
        }
        writebacks
    }

    /// Removes one block.
    pub fn remove(&mut self, v: VnodeId, blk: u64) -> Option<Buf> {
        self.map.remove(&(v, blk)).map(|(b, _)| b)
    }

    /// Drops every block of `v`, returning the dirty ones.
    pub fn purge_vnode(&mut self, v: VnodeId) -> Vec<(u64, Buf)> {
        let keys: Vec<(VnodeId, u64)> = self
            .map
            .keys()
            .filter(|(kv, _)| *kv == v)
            .copied()
            .collect();
        let mut dirty = Vec::new();
        for k in keys {
            let (b, _) = self.map.remove(&k).expect("key listed");
            if b.is_dirty() {
                dirty.push((k.1, b));
            }
        }
        dirty
    }

    /// Block numbers of `v` currently dirty, ascending.
    pub fn dirty_blocks(&self, v: VnodeId) -> Vec<u64> {
        let mut blks: Vec<u64> = self
            .map
            .iter()
            .filter(|((kv, _), (b, _))| *kv == v && b.is_dirty())
            .map(|((_, blk), _)| *blk)
            .collect();
        blks.sort_unstable();
        blks
    }

    /// Block numbers of `v` currently cached, ascending.
    pub fn cached_blocks(&self, v: VnodeId) -> Vec<u64> {
        let mut blks: Vec<u64> = self
            .map
            .keys()
            .filter(|(kv, _)| *kv == v)
            .map(|(_, blk)| *blk)
            .collect();
        blks.sort_unstable();
        blks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> VnodeId {
        VnodeId(n)
    }

    #[test]
    fn partial_write_without_preread() {
        let mut b = Buf::new_empty();
        assert!(!b.is_valid());
        b.write(100, b"hello").unwrap();
        assert_eq!(b.dirty_range(), Some((100, 105)));
        assert_eq!(b.read(100, 5).unwrap(), b"hello");
        assert!(
            b.read(0, 10).is_none(),
            "outside dirty region of invalid block"
        );
    }

    #[test]
    fn contiguous_writes_extend_dirty_region() {
        let mut b = Buf::new_empty();
        b.write(100, &[1; 50]).unwrap();
        b.write(150, &[2; 50]).unwrap(); // abuts
        b.write(90, &[3; 20]).unwrap(); // overlaps
        assert_eq!(b.dirty_range(), Some((90, 200)));
    }

    #[test]
    fn disjoint_write_on_invalid_block_rejected() {
        let mut b = Buf::new_empty();
        b.write(0, &[1; 10]).unwrap();
        assert!(b.write(500, &[2; 10]).is_err(), "gap needs a push first");
        // After the push (clear_dirty), the write is accepted.
        b.clear_dirty();
        b.write(500, &[2; 10]).unwrap();
        assert_eq!(b.dirty_range(), Some((500, 510)));
    }

    #[test]
    fn valid_block_accepts_any_write() {
        let mut b = Buf::new_valid(vec![9; BLOCK_SIZE]);
        b.write(0, &[1; 10]).unwrap();
        b.write(4000, &[2; 10]).unwrap();
        assert_eq!(b.dirty_range(), Some((0, 4010)));
        assert_eq!(b.read(2000, 4).unwrap(), &[9, 9, 9, 9]);
    }

    #[test]
    fn merge_read_preserves_dirty_bytes() {
        let mut b = Buf::new_empty();
        b.write(10, &[7; 5]).unwrap();
        b.merge_read(&vec![1; BLOCK_SIZE]);
        assert!(b.is_valid());
        assert_eq!(b.read(10, 5).unwrap(), &[7; 5], "dirty bytes kept");
        assert_eq!(b.read(0, 5).unwrap(), &[1; 5], "fresh bytes filled in");
        assert!(b.is_dirty(), "dirty region still needs pushing");
    }

    #[test]
    fn cache_hit_miss_and_lru() {
        let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 2);
        bc.insert(v(1), 0, Buf::new_valid(vec![0; 8]));
        bc.insert(v(1), 1, Buf::new_valid(vec![1; 8]));
        assert!(bc.lookup(v(1), 0).0.is_some());
        // Insert a third block: LRU (blk 1) is evicted.
        let wb = bc.insert(v(1), 2, Buf::new_valid(vec![2; 8]));
        assert!(wb.is_empty(), "clean eviction needs no writeback");
        assert!(bc.lookup(v(1), 1).0.is_none());
        assert!(bc.lookup(v(1), 0).0.is_some());
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 2);
        let mut dirty = Buf::new_empty();
        dirty.write(0, &[5; 100]).unwrap();
        bc.insert(v(1), 0, dirty);
        let mut dirty2 = Buf::new_empty();
        dirty2.write(0, &[6; 100]).unwrap();
        bc.insert(v(1), 1, dirty2);
        let wb = bc.insert(v(1), 2, Buf::new_valid(vec![0; 8]));
        assert_eq!(wb.len(), 1, "a dirty block had to be written back");
        assert_eq!(wb[0].0, v(1));
    }

    #[test]
    fn search_steps_differ_by_organization() {
        let mut reno = BufCache::new(CacheOrg::PerVnodeChains, 1000);
        let mut ultrix = BufCache::new(CacheOrg::GlobalList, 1000);
        // Many vnodes, few blocks each.
        for i in 0..100u64 {
            for blk in 0..3u64 {
                reno.insert(v(i), blk, Buf::new_valid(vec![0; 8]));
                ultrix.insert(v(i), blk, Buf::new_valid(vec![0; 8]));
            }
        }
        let (_, reno_steps) = reno.lookup(v(5), 1);
        let (_, ultrix_steps) = ultrix.lookup(v(5), 1);
        assert_eq!(reno_steps, 3, "per-vnode chain: only that file's bufs");
        assert_eq!(ultrix_steps, 300, "global search: every cached buf");
    }

    #[test]
    fn purge_vnode_returns_dirty() {
        let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 100);
        bc.insert(v(1), 0, Buf::new_valid(vec![0; 8]));
        let mut d = Buf::new_empty();
        d.write(0, &[1; 10]).unwrap();
        bc.insert(v(1), 1, d);
        bc.insert(v(2), 0, Buf::new_valid(vec![0; 8]));
        let dirty = bc.purge_vnode(v(1));
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, 1);
        assert_eq!(bc.cached_blocks(v(1)), Vec::<u64>::new());
        assert_eq!(bc.cached_blocks(v(2)), vec![0]);
    }

    #[test]
    fn dirty_blocks_listed_in_order() {
        let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 100);
        for blk in [5u64, 1, 3] {
            let mut b = Buf::new_empty();
            b.write(0, &[1; 4]).unwrap();
            bc.insert(v(1), blk, b);
        }
        bc.insert(v(1), 2, Buf::new_valid(vec![0; 8]));
        assert_eq!(bc.dirty_blocks(v(1)), vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "beyond block")]
    fn write_past_block_panics() {
        let mut b = Buf::new_empty();
        let _ = b.write(BLOCK_SIZE - 2, &[0; 4]);
    }
}

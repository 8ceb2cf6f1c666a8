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
//!
//! The per-vnode chains are the structure as well as the price. Buffers
//! live in a slab, each on its vnode's chain (ascending block number, so
//! a file's dirty or cached blocks are listed by walking it) and on one
//! LRU list; a hash of (vnode, block) finds a buffer the way `incore()`
//! does through `bufhash`. A chain's length is the Reno price of a
//! search. Block storage comes off the thread's buffer list
//! (`buflist.rs`): a buffer that is evicted, removed or purged gives
//! its `BLOCK_SIZE` bytes back when it drops and the next new buffer takes
//! them, as 4.3BSD's `getnewbuf` takes a buffer, memory and all, off its
//! LRU free list. A world's caches live and die on one thread, so the
//! next world's caches fill from the last one's storage. A warm cache
//! allocates nothing.

use renofs_sim::IntMap;

use crate::buflist::Storage;
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

/// One cached block. Its storage returns to the thread's buffer list
/// when it drops.
#[derive(Clone, Debug)]
pub struct Buf {
    data: Storage,
    valid: bool,
    dirty: Option<(usize, usize)>,
}

impl Buf {
    /// An empty, invalid block (allocated for a fresh partial write).
    pub fn new_empty() -> Self {
        let mut data = Storage::with_room(BLOCK_SIZE);
        data.resize(BLOCK_SIZE);
        Buf {
            data,
            valid: false,
            dirty: None,
        }
    }

    /// A valid block whose contents `fill` appends to the empty vector it
    /// is handed (the rest of the block reads as zeros) — a block read
    /// from the server or the disk straight into recycled storage. On an
    /// error the storage goes back to the free list.
    pub fn fill_valid<T, E>(
        fill: impl FnOnce(&mut Vec<u8>) -> Result<T, E>,
    ) -> Result<(Self, T), E> {
        let mut buf = Buf {
            data: Storage::with_room(BLOCK_SIZE),
            valid: true,
            dirty: None,
        };
        let t = fill(&mut buf.data)?;
        buf.data.resize(BLOCK_SIZE);
        Ok((buf, t))
    }

    /// A block whose full contents were read from the server/disk.
    pub fn new_valid(data: Vec<u8>) -> Self {
        let mut d = Storage::with_room(BLOCK_SIZE);
        d.extend_from_slice(&data[..data.len().min(BLOCK_SIZE)]);
        d.resize(BLOCK_SIZE);
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
    /// bytes inside the dirty region keep the local modifications. Bytes
    /// past the end of `fresh` are left as they were.
    pub fn merge_read(&mut self, fresh: &[u8]) {
        let n = fresh.len().min(BLOCK_SIZE);
        let (d0, d1) = self.dirty.map_or((n, n), |(d0, d1)| (d0.min(n), d1.min(n)));
        self.data[..d0].copy_from_slice(&fresh[..d0]);
        self.data[d1..n].copy_from_slice(&fresh[d1..n]);
        self.valid = true;
    }

    /// A slab slot's placeholder: no storage.
    fn vacant() -> Self {
        Buf {
            data: Storage::default(),
            valid: false,
            dirty: None,
        }
    }
}

/// Cumulative statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The end of a list threaded through the slab.
const NIL: u32 = u32::MAX;

/// A slot's neighbours on one list.
#[derive(Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

const UNLINKED: Links = Links {
    prev: NIL,
    next: NIL,
};

/// The two ends of a list threaded through the slab.
#[derive(Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

/// One vnode's buffers, ascending by block number.
struct Chain {
    ends: Ends,
    len: u64,
}

/// A slab entry: a cached block and its place on its vnode's chain and
/// on the LRU list. A vacant slot's buffer holds no storage.
struct Slot {
    v: VnodeId,
    blk: u64,
    buf: Buf,
    chain: Links,
    lru: Links,
}

fn chain_links(s: &mut Slot) -> &mut Links {
    &mut s.chain
}

fn lru_links(s: &mut Slot) -> &mut Links {
    &mut s.lru
}

/// Links slot `i` into the list `ends` after slot `at` (at the head when
/// `at` is [`NIL`]).
fn link_after(
    slots: &mut [Slot],
    ends: &mut Ends,
    on: fn(&mut Slot) -> &mut Links,
    at: u32,
    i: u32,
) {
    let next = match at {
        NIL => ends.head,
        at => on(&mut slots[at as usize]).next,
    };
    *on(&mut slots[i as usize]) = Links { prev: at, next };
    match at {
        NIL => ends.head = i,
        at => on(&mut slots[at as usize]).next = i,
    }
    match next {
        NIL => ends.tail = i,
        next => on(&mut slots[next as usize]).prev = i,
    }
}

/// Takes slot `i` off the list `ends`.
fn unlink(slots: &mut [Slot], ends: &mut Ends, on: fn(&mut Slot) -> &mut Links, i: u32) {
    let Links { prev, next } = *on(&mut slots[i as usize]);
    match prev {
        NIL => ends.head = next,
        prev => on(&mut slots[prev as usize]).next = next,
    }
    match next {
        NIL => ends.tail = prev,
        next => on(&mut slots[next as usize]).prev = prev,
    }
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
    slots: Vec<Slot>,
    /// Slab indices holding no buffer.
    vacant: Vec<u32>,
    /// Finds a block's slot.
    index: IntMap<(VnodeId, u64), u32>,
    chains: IntMap<VnodeId, Chain>,
    /// Least recently used first.
    lru: Ends,
    ambient: u64,
    stats: BufCacheStats,
}

impl BufCache {
    /// Creates a cache of `capacity` blocks. Its slab, index and lists
    /// are sized for them now, as a kernel sizes its buffer headers at
    /// boot; block storage comes with the buffers inserted.
    pub fn new(org: CacheOrg, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        // An insert holds one block over capacity until it evicts.
        let most = capacity + 1;
        BufCache {
            org,
            capacity,
            slots: Vec::with_capacity(most),
            vacant: Vec::with_capacity(most),
            index: IntMap::with_capacity_and_hasher(most, Default::default()),
            chains: IntMap::with_capacity_and_hasher(most, Default::default()),
            lru: EMPTY,
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
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn search_steps(&self, v: VnodeId) -> u64 {
        match self.org {
            CacheOrg::PerVnodeChains => self.chains.get(&v).map_or(0, |c| c.len),
            CacheOrg::GlobalList => self.index.len() as u64 + self.ambient,
        }
        .max(1)
    }

    /// Looks up a block; returns the buffer (if cached) and the number of
    /// search steps the organization would have cost. A hit makes the
    /// block the most recently used.
    pub fn lookup(&mut self, v: VnodeId, blk: u64) -> (Option<&mut Buf>, u64) {
        let steps = self.search_steps(v);
        self.stats.search_steps += steps;
        match self.index.get(&(v, blk)) {
            Some(&i) => {
                self.stats.hits += 1;
                self.touch(i);
                (Some(&mut self.slots[i as usize].buf), steps)
            }
            None => {
                self.stats.misses += 1;
                (None, steps)
            }
        }
    }

    /// Moves slot `i` to the most recently used end.
    fn touch(&mut self, i: u32) {
        unlink(&mut self.slots, &mut self.lru, lru_links, i);
        let tail = self.lru.tail;
        link_after(&mut self.slots, &mut self.lru, lru_links, tail, i);
    }

    /// Inserts (or replaces) a block. If the cache is over capacity the
    /// least-recently-used block is evicted — a clean one silently, its
    /// storage freed for the next new block; a dirty one (only when every
    /// other block is dirty) returned so the caller can write it back.
    /// The victim is found from the LRU end, stepping past dirty buffers
    /// as `getnewbuf` does.
    ///
    /// Replacing a block that holds unwritten changes would lose them: the
    /// caller pushes or merges into it instead.
    pub fn insert(&mut self, v: VnodeId, blk: u64, buf: Buf) -> Option<(VnodeId, u64, Buf)> {
        if let Some(&i) = self.index.get(&(v, blk)) {
            let old = std::mem::replace(&mut self.slots[i as usize].buf, buf);
            debug_assert!(
                !old.is_dirty(),
                "insert over dirty block {blk} of {v:?} drops its data"
            );
            self.touch(i);
            return None;
        }
        let i = self.hook(v, blk, buf);
        if self.index.len() <= self.capacity {
            return None;
        }
        // The newcomer sits at the MRU end and the cache holds at least
        // one other block, so the LRU end is never the newcomer.
        let mut victim = self.lru.head;
        let mut at = victim;
        while at != NIL {
            let slot = &self.slots[at as usize];
            if at != i && !slot.buf.is_dirty() {
                victim = at;
                break;
            }
            at = slot.lru.next;
        }
        self.stats.evictions += 1;
        let evicted = self.unhook(victim);
        evicted.2.is_dirty().then_some(evicted)
    }

    /// Puts `buf` in a slot on `v`'s chain and at the MRU end.
    fn hook(&mut self, v: VnodeId, blk: u64, buf: Buf) -> u32 {
        let slot = Slot {
            v,
            blk,
            buf,
            chain: UNLINKED,
            lru: UNLINKED,
        };
        let i = match self.vacant.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert((v, blk), i);
        let chain = self.chains.entry(v).or_insert(Chain {
            ends: EMPTY,
            len: 0,
        });
        // From the top of the chain: a file read or written in order
        // appends.
        let mut at = chain.ends.tail;
        while at != NIL && self.slots[at as usize].blk > blk {
            at = self.slots[at as usize].chain.prev;
        }
        link_after(&mut self.slots, &mut chain.ends, chain_links, at, i);
        chain.len += 1;
        let tail = self.lru.tail;
        link_after(&mut self.slots, &mut self.lru, lru_links, tail, i);
        i
    }

    /// Takes slot `i` off its chain, the LRU list and the index, and
    /// hands back what it held.
    fn unhook(&mut self, i: u32) -> (VnodeId, u64, Buf) {
        let slot = &mut self.slots[i as usize];
        let (v, blk) = (slot.v, slot.blk);
        let buf = std::mem::replace(&mut slot.buf, Buf::vacant());
        unlink(&mut self.slots, &mut self.lru, lru_links, i);
        let chain = self.chains.get_mut(&v).expect("a cached block has a chain");
        unlink(&mut self.slots, &mut chain.ends, chain_links, i);
        chain.len -= 1;
        if chain.len == 0 {
            self.chains.remove(&v);
        }
        self.index.remove(&(v, blk));
        self.vacant.push(i);
        (v, blk, buf)
    }

    /// Removes one block.
    pub fn remove(&mut self, v: VnodeId, blk: u64) -> Option<Buf> {
        let i = *self.index.get(&(v, blk))?;
        Some(self.unhook(i).2)
    }

    /// Drops the blocks of `v` that `keep` does not hold on to.
    fn purge(&mut self, v: VnodeId, keep: fn(&Buf) -> bool) {
        let mut at = self.chains.get(&v).map_or(NIL, |c| c.ends.head);
        while at != NIL {
            let slot = &self.slots[at as usize];
            let next = slot.chain.next;
            if !keep(&slot.buf) {
                self.unhook(at);
            }
            at = next;
        }
    }

    /// Drops every block of `v`, dirty ones unwritten (the file is gone
    /// or truncated).
    pub fn purge_vnode(&mut self, v: VnodeId) {
        self.purge(v, |_| false);
    }

    /// Drops the clean blocks of `v` (its data changed on the server);
    /// the dirty ones stay to be pushed.
    pub fn purge_clean(&mut self, v: VnodeId) {
        self.purge(v, Buf::is_dirty);
    }

    /// The cached blocks of `v`, ascending, walked in place.
    pub fn blocks(&self, v: VnodeId) -> impl Iterator<Item = (u64, &Buf)> + '_ {
        let mut at = self.chains.get(&v).map_or(NIL, |c| c.ends.head);
        std::iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            at = slot.chain.next;
            Some((slot.blk, &slot.buf))
        })
    }

    /// Whether any block of `v` holds unwritten changes.
    pub fn has_dirty(&self, v: VnodeId) -> bool {
        self.blocks(v).any(|(_, b)| b.is_dirty())
    }

    /// Appends the dirty blocks of `v` to `out`, ascending.
    pub fn dirty_blocks_into(&self, v: VnodeId, out: &mut Vec<u64>) {
        out.extend(
            self.blocks(v)
                .filter(|(_, b)| b.is_dirty())
                .map(|(blk, _)| blk),
        );
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn v(n: u64) -> VnodeId {
        VnodeId(n)
    }

    fn cached_blocks(bc: &BufCache, v: VnodeId) -> Vec<u64> {
        bc.blocks(v).map(|(blk, _)| blk).collect()
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
        assert!(wb.is_none(), "clean eviction needs no writeback");
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
        let (wv, wblk, wbuf) = wb.expect("a dirty block had to be written back");
        assert_eq!((wv, wblk), (v(1), 0), "the least recently used one");
        assert_eq!(wbuf.dirty_range(), Some((0, 100)));
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
    fn purges_drop_a_vnodes_blocks_and_keep_their_storage() {
        let mut bc = BufCache::new(CacheOrg::PerVnodeChains, 100);
        bc.insert(v(1), 0, Buf::new_valid(vec![0; 8]));
        let mut d = Buf::new_empty();
        d.write(0, &[1; 10]).unwrap();
        bc.insert(v(1), 1, d);
        bc.insert(v(2), 0, Buf::new_valid(vec![0; 8]));
        bc.purge_clean(v(1));
        assert_eq!(cached_blocks(&bc, v(1)), vec![1], "the dirty block stays");
        bc.purge_vnode(v(1));
        assert_eq!(cached_blocks(&bc, v(1)), Vec::<u64>::new());
        assert_eq!(cached_blocks(&bc, v(2)), vec![0]);
        let free = || crate::buflist::free_count(BLOCK_SIZE);
        assert_eq!(free(), 2, "both blocks' storage kept");
        let reused = Buf::new_empty();
        assert_eq!(reused.data(), &[0; BLOCK_SIZE][..], "handed out zeroed");
        assert_eq!(free(), 1);
        let (refilled, ()) = Buf::fill_valid(|d| {
            d.extend_from_slice(&[7; 10]);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(free(), 0);
        assert_eq!(
            &refilled.data()[..12],
            &[7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0]
        );
        drop((reused, refilled));
        assert_eq!(free(), 2);
    }

    /// `merge_read` as it was: a branch per byte.
    fn merge_byte_loop(data: &mut [u8], dirty: Option<(usize, usize)>, fresh: &[u8]) {
        for (i, b) in fresh.iter().enumerate().take(BLOCK_SIZE) {
            let in_dirty = match dirty {
                Some((d0, d1)) => i >= d0 && i < d1,
                None => false,
            };
            if !in_dirty {
                data[i] = *b;
            }
        }
    }

    /// An offset into a block, often at either end.
    fn edge() -> impl Strategy<Value = usize> {
        prop_oneof![
            1 => Just(0),
            1 => Just(BLOCK_SIZE),
            4 => 0..=BLOCK_SIZE,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merge_read_matches_the_byte_loop(
            (a, b, n) in (edge(), edge(), edge()),
            dirty in any::<bool>(),
        ) {
            let dirty = dirty.then_some((a.min(b), a.max(b)));
            let old: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
            let fresh: Vec<u8> = (0..n).map(|i| (i % 13) as u8 + 100).collect();
            let mut want = old.clone();
            merge_byte_loop(&mut want, dirty, &fresh);
            let mut got = Buf {
                data: Buf::new_valid(old).data,
                valid: false,
                dirty,
            };
            got.merge_read(&fresh);
            prop_assert!(got.is_valid());
            prop_assert_eq!(got.dirty_range(), dirty);
            prop_assert!(*got.data == want, "dirty {:?}, {} fresh bytes", dirty, n);
        }
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
        let mut dirty = vec![9];
        bc.dirty_blocks_into(v(1), &mut dirty);
        assert_eq!(dirty, vec![9, 1, 3, 5], "appended, ascending");
        assert_eq!(cached_blocks(&bc, v(1)), vec![1, 2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "beyond block")]
    fn write_past_block_panics() {
        let mut b = Buf::new_empty();
        let _ = b.write(BLOCK_SIZE - 2, &[0; 4]);
    }
}

//! The buffer cache on per-vnode chains, one LRU list and a storage free
//! list against the scanning cache it replaced, kept below as it was:
//! random scripts of every operation, under both organizations, must give
//! equal hits, search steps, statistics, victims, write-backs, block
//! contents and block lists after every step.

use proptest::prelude::*;
use renofs_vfs::bufcache::BufCacheStats;
use renofs_vfs::{Buf, BufCache, CacheOrg, VnodeId, BLOCK_SIZE};

/// The cache as it was when every lookup counted the vnode's blocks over
/// the whole map and every insert scanned it for a victim.
mod reference {
    use std::collections::HashMap;

    use super::{Buf, BufCacheStats, CacheOrg, VnodeId};

    pub struct BufCache {
        org: CacheOrg,
        capacity: usize,
        map: HashMap<(VnodeId, u64), (Buf, u64)>,
        clock: u64,
        ambient: u64,
        stats: BufCacheStats,
    }

    impl BufCache {
        pub fn new(org: CacheOrg, capacity: usize) -> Self {
            BufCache {
                org,
                capacity: capacity.max(1),
                map: HashMap::new(),
                clock: 0,
                ambient: 0,
                stats: BufCacheStats::default(),
            }
        }

        pub fn set_ambient(&mut self, n: usize) {
            self.ambient = n as u64;
        }

        pub fn stats(&self) -> BufCacheStats {
            self.stats
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        fn search_steps(&self, v: VnodeId) -> u64 {
            match self.org {
                CacheOrg::PerVnodeChains => {
                    self.map.keys().filter(|(kv, _)| *kv == v).count() as u64
                }
                CacheOrg::GlobalList => self.map.len() as u64 + self.ambient,
            }
            .max(1)
        }

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

        /// A block's buffer, without the statistics or the LRU seeing.
        pub fn lookup_quietly(&self, v: VnodeId, blk: u64) -> Option<&Buf> {
            self.map.get(&(v, blk)).map(|(b, _)| b)
        }

        pub fn remove(&mut self, v: VnodeId, blk: u64) -> Option<Buf> {
            self.map.remove(&(v, blk)).map(|(b, _)| b)
        }

        pub fn purge_vnode(&mut self, v: VnodeId) {
            self.map.retain(|(kv, _), _| *kv != v);
        }

        /// What the client's clean-block purge did over the old lists.
        pub fn purge_clean(&mut self, v: VnodeId) {
            let dirty = self.dirty_blocks(v);
            for blk in self.cached_blocks(v) {
                if !dirty.contains(&blk) {
                    self.remove(v, blk);
                }
            }
        }

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
}

/// What a buffer holds, for comparing.
fn contents(b: &Buf) -> (bool, Option<(usize, usize)>, Vec<u8>) {
    (b.is_valid(), b.dirty_range(), b.data().to_vec())
}

#[derive(Clone, Debug)]
enum Op {
    Lookup(u8, u8),
    /// A valid block of `n` bytes of one value; the bool picks a block
    /// filled in place or one made from a vector.
    InsertValid(u8, u8, usize, u8, bool),
    InsertEmpty(u8, u8),
    Write(u8, u8, usize, usize, u8),
    Clear(u8, u8, bool),
    Merge(u8, u8, usize, u8),
    Remove(u8, u8),
    PurgeVnode(u8),
    PurgeClean(u8),
}

fn offset() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(0),
        1 => Just(BLOCK_SIZE),
        3 => 0..=BLOCK_SIZE,
        3 => 0..64usize,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Four vnodes of six blocks each against capacities of 1 to 8, so
    // evictions, dirty fallbacks and purges all fire.
    let (v, b) = (0..4u8, 0..6u8);
    prop_oneof![
        6 => (v.clone(), b.clone()).prop_map(|(v, b)| Op::Lookup(v, b)),
        4 => (v.clone(), b.clone(), offset(), any::<u8>(), any::<bool>())
            .prop_map(|(v, b, n, x, r)| Op::InsertValid(v, b, n, x, r)),
        3 => (v.clone(), b.clone()).prop_map(|(v, b)| Op::InsertEmpty(v, b)),
        6 => (v.clone(), b.clone(), offset(), offset(), any::<u8>())
            .prop_map(|(v, b, o, n, x)| Op::Write(v, b, o, n, x)),
        3 => (v.clone(), b.clone(), any::<bool>()).prop_map(|(v, b, m)| Op::Clear(v, b, m)),
        2 => (v.clone(), b.clone(), offset(), any::<u8>())
            .prop_map(|(v, b, n, x)| Op::Merge(v, b, n, x)),
        2 => (v.clone(), b.clone()).prop_map(|(v, b)| Op::Remove(v, b)),
        1 => v.clone().prop_map(Op::PurgeVnode),
        1 => v.prop_map(Op::PurgeClean),
    ]
}

fn org_strategy() -> impl Strategy<Value = (CacheOrg, usize)> {
    prop_oneof![
        Just((CacheOrg::PerVnodeChains, 0)),
        (0..4usize).prop_map(|a| (CacheOrg::GlobalList, a)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chains_match_the_scanning_cache(
        (org, ambient) in org_strategy(),
        capacity in 1..9usize,
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let (mut bc, mut old) = (BufCache::new(org, capacity), reference::BufCache::new(org, capacity));
        bc.set_ambient(ambient);
        old.set_ambient(ambient);
        let v = |n: u8| VnodeId(u64::from(n));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup(n, b) => {
                    let (got, steps) = bc.lookup(v(n), b.into());
                    let got = got.map(|b| contents(b));
                    let (want, old_steps) = old.lookup(v(n), b.into());
                    prop_assert_eq!(steps, old_steps, "step {} {:?}", step, op);
                    prop_assert_eq!(got, want.map(|b| contents(b)), "step {} {:?}", step, op);
                }
                Op::InsertValid(..) | Op::InsertEmpty(..) => {
                    let (n, b) = match *op {
                        Op::InsertValid(n, b, ..) | Op::InsertEmpty(n, b) => (n, b),
                        _ => unreachable!(),
                    };
                    // Neither cache may be asked to drop unwritten data.
                    if old.dirty_blocks(v(n)).contains(&b.into()) {
                        continue;
                    }
                    let (new, made) = match *op {
                        Op::InsertValid(_, _, len, x, in_place) => {
                            let new = if in_place {
                                let fill = |d: &mut Vec<u8>| {
                                    d.resize(len, x);
                                    Ok::<(), ()>(())
                                };
                                Buf::fill_valid(fill).unwrap().0
                            } else {
                                Buf::new_valid(vec![x; len])
                            };
                            (new, Buf::new_valid(vec![x; len]))
                        }
                        _ => (Buf::new_empty(), Buf::new_empty()),
                    };
                    prop_assert_eq!(contents(&new), contents(&made));
                    let got = bc.insert(v(n), b.into(), new);
                    let want = old.insert(v(n), b.into(), made);
                    prop_assert!(want.len() <= 1, "one insert, one victim at most");
                    let got_key = got.as_ref().map(|(gv, gb, buf)| (*gv, *gb, contents(buf)));
                    let want_key = want.first().map(|(wv, wb, buf)| (*wv, *wb, contents(buf)));
                    prop_assert_eq!(got_key, want_key, "step {} {:?}", step, op);
                }
                Op::Write(n, b, off, len, x) => {
                    let off = off.min(BLOCK_SIZE);
                    let len = len.min(BLOCK_SIZE - off);
                    let src = vec![x; len];
                    let got = bc.lookup(v(n), b.into()).0.map(|buf| buf.write(off, &src));
                    let want = old.lookup(v(n), b.into()).0.map(|buf| buf.write(off, &src));
                    prop_assert_eq!(got, want, "step {} {:?}", step, op);
                }
                Op::Clear(n, b, mark) => {
                    for buf in [bc.lookup(v(n), b.into()).0, old.lookup(v(n), b.into()).0]
                        .into_iter()
                        .flatten()
                    {
                        if mark {
                            buf.mark_valid();
                        }
                        buf.clear_dirty();
                    }
                }
                Op::Merge(n, b, len, x) => {
                    let fresh = vec![x; len];
                    for buf in [bc.lookup(v(n), b.into()).0, old.lookup(v(n), b.into()).0]
                        .into_iter()
                        .flatten()
                    {
                        buf.merge_read(&fresh);
                    }
                }
                Op::Remove(n, b) => {
                    let got = bc.remove(v(n), b.into());
                    let want = old.remove(v(n), b.into());
                    prop_assert_eq!(
                        got.as_ref().map(contents),
                        want.as_ref().map(contents),
                        "step {} {:?}", step, op
                    );
                }
                Op::PurgeVnode(n) => {
                    bc.purge_vnode(v(n));
                    old.purge_vnode(v(n));
                }
                Op::PurgeClean(n) => {
                    bc.purge_clean(v(n));
                    old.purge_clean(v(n));
                }
            }
            prop_assert_eq!(bc.stats(), old.stats(), "step {} {:?}", step, op);
            prop_assert_eq!(bc.len(), old.len(), "step {} {:?}", step, op);
            let mut dirty = Vec::new();
            for n in 0..4 {
                let want = old.dirty_blocks(v(n));
                dirty.clear();
                bc.dirty_blocks_into(v(n), &mut dirty);
                prop_assert_eq!(&dirty, &want, "step {} {:?}", step, op);
                prop_assert_eq!(bc.has_dirty(v(n)), !want.is_empty());
                let cached: Vec<u64> = bc.blocks(v(n)).map(|(blk, _)| blk).collect();
                prop_assert_eq!(cached, old.cached_blocks(v(n)), "step {} {:?}", step, op);
                for (blk, buf) in bc.blocks(v(n)) {
                    let want = old.lookup_quietly(v(n), blk).map(contents);
                    prop_assert_eq!(Some(contents(buf)), want, "step {} {:?}", step, op);
                }
            }
        }
    }
}

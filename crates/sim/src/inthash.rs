//! A hasher for maps keyed by integers the simulator mints itself.
//!
//! SipHash defends against keys chosen to collide. Node, vnode and datagram
//! ids and xids are counters this program hands out, so that defence was
//! ~5 % of an 8 KB READ's host time spent on nothing. A key that holds bytes
//! decoded off the wire (a file name) keeps the default hasher, and
//! `scripts/check.sh` greps for an [`IntMap`] with such a key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] under [`IntHasher`]. Nothing may depend on its iteration
/// order, exactly as with the default hasher.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Per word: xor into the state, multiply by an odd constant to 128 bits and
/// fold the halves together — low input bits reach the high output bits
/// (`hashbrown`'s 7-bit tags) and high input bits reach the low ones (its
/// bucket index).
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        // 2^64 / phi, odd: consecutive integers land far apart.
        let p = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// Not on the path of any integer key; here so that a derived `Hash`
    /// with a narrow or byte field still hashes all of it.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    /// Stand-ins for the `NodeId(usize)` / `VnodeId(u64)` newtypes, whose
    /// derived `Hash` writes the one field.
    #[derive(Hash, Clone, Copy)]
    struct Node(usize);
    #[derive(Hash, Clone, Copy)]
    struct Vnode(u64);

    const IDS: u64 = 4_096;
    const BUCKETS: u64 = 1_024;

    fn hash<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// 4,096 keys thrown at random into 1,024 buckets leave ~2 % empty; a
    /// hash that ignores the bits in which the keys differ fills a handful.
    /// Checked on the low bits (`hashbrown`'s bucket index) and on the top
    /// seven (its control-byte tag).
    fn assert_spreads<K: Hash>(what: &str, key: impl Fn(u64) -> K) {
        let hashes: Vec<u64> = (0..IDS).map(|i| hash(key(i))).collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h % BUCKETS).collect();
        assert!(
            buckets.len() as u64 >= BUCKETS * 9 / 10,
            "{what}: {} of {BUCKETS} buckets used",
            buckets.len()
        );
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(tags.len() >= 120, "{what}: {} of 128 tags used", tags.len());
    }

    #[test]
    fn reassembly_keys_spread() {
        let (a, b) = (Node(3), Node(1_027));
        assert_spreads("dgram id, low bits", |i| (a, b, i));
        assert_spreads("dgram id, high bits", |i| (a, b, i << 40));
        assert_spreads("dgram id, top bits", |i| (a, b, i << 52));
        assert_spreads("host", |i| (Node(i as usize), b, 7u64));
        assert_spreads("src", |i| (a, Node(i as usize), 7u64));
    }

    #[test]
    fn buffer_cache_keys_spread() {
        assert_spreads("block, low bits", |i| (Vnode(9), i));
        assert_spreads("block, high bits", |i| (Vnode(9), i << 44));
        assert_spreads("vnode, low bits", |i| (Vnode(i), 0u64));
        assert_spreads("vnode, high bits", |i| (Vnode(i << 32), 0u64));
    }

    #[test]
    fn xid_keys_spread() {
        assert_spreads("xid, low bits", |i| i as u32);
        assert_spreads("xid, high bits", |i| (i as u32) << 20);
        assert_spreads("(server, xid)", |i| (2usize, i as u32));
    }

    #[test]
    fn tuple_position_matters() {
        let same = (0..IDS)
            .filter(|&i| {
                hash((Node(i as usize), Node(0), 7u64)) == hash((Node(0), Node(i as usize), 7u64))
            })
            .count();
        assert!(
            same <= 1,
            "{same} keys hash alike with their fields swapped"
        );
        let both: HashSet<u64> = (1..IDS)
            .flat_map(|i| [hash((Vnode(i), 0u64)), hash((Vnode(0), i))])
            .map(|h| h % BUCKETS)
            .collect();
        assert!(both.len() as u64 >= BUCKETS * 9 / 10);
    }

    #[test]
    fn byte_fallback_hashes_every_byte() {
        let mut seen = HashSet::new();
        for len in 0..20usize {
            for flip in 0..len {
                let mut bytes = vec![0u8; len];
                bytes[flip] = 1;
                let mut h = IntHasher::default();
                h.write(&bytes);
                seen.insert((len, h.finish()));
            }
        }
        assert_eq!(seen.len(), (0..20).sum::<usize>());
    }
}

//! Mbufs and mbuf chains.

use std::collections::VecDeque;
use std::fmt;

use crate::meter::CopyMeter;
use crate::pool::{self, ClusterRef, SmallBuf, Spine};

/// Inline data capacity of a small mbuf (4.3BSD's `MLEN` less headers).
pub const MLEN: usize = 112;

/// Capacity of an mbuf cluster (4.3BSD's `MCLBYTES`).
pub const MCLBYTES: usize = 2048;

/// The segment list of a chain that owns no spine. A `const`, not a
/// `static`: mbufs hold non-atomic counts, so a list of them is not `Sync`.
const NO_SEGS: &VecDeque<Mbuf> = &VecDeque::new();

enum Storage {
    /// Inline storage, shared by clones and copied on the first write
    /// while shared; recycled through the small-mbuf free list.
    Small(SmallBuf),
    /// Reference-counted cluster; immutable once the handle is shared.
    /// The whole `Rc` comes from (and returns to) the cluster free list.
    Cluster(ClusterRef),
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            Storage::Small(b) => Storage::Small(b.clone()),
            Storage::Cluster(rc) => Storage::Cluster(rc.clone()),
        }
    }
}

/// One mbuf: a window (`off`, `len`) onto small or cluster storage.
#[derive(Clone)]
pub struct Mbuf {
    storage: Storage,
    off: usize,
    len: usize,
}

impl Mbuf {
    fn small() -> Self {
        Mbuf {
            storage: Storage::Small(SmallBuf::alloc()),
            off: 0,
            len: 0,
        }
    }

    fn small_with_leading(leading: usize) -> Self {
        debug_assert!(leading <= MLEN);
        let mut m = Mbuf::small();
        m.off = leading;
        m
    }

    fn cluster() -> Self {
        Mbuf {
            storage: Storage::Cluster(ClusterRef::alloc()),
            off: 0,
            len: 0,
        }
    }

    /// The bytes this mbuf covers.
    pub fn data(&self) -> &[u8] {
        match &self.storage {
            Storage::Small(b) => &b[self.off..self.off + self.len],
            Storage::Cluster(rc) => &rc[self.off..self.off + self.len],
        }
    }

    /// Length of the data window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this mbuf's storage is a shared cluster (as opposed to
    /// small storage, shared or not, or an unshared cluster).
    pub fn is_shared_cluster(&self) -> bool {
        match &self.storage {
            Storage::Small(_) => false,
            Storage::Cluster(rc) => rc.is_shared(),
        }
    }

    /// Whether this mbuf uses cluster storage at all.
    pub fn is_cluster(&self) -> bool {
        matches!(self.storage, Storage::Cluster(_))
    }

    fn leading_space(&self) -> usize {
        self.off
    }

    /// Bytes that can be appended in place.
    fn trailing_space(&mut self) -> usize {
        match &mut self.storage {
            Storage::Small(_) => MLEN - self.off - self.len,
            Storage::Cluster(rc) => {
                // Appendable only while the cluster is unshared and the
                // window ends at the cluster's fill point.
                if rc.get_mut().is_some() {
                    let fill = rc.len();
                    if self.off + self.len == fill {
                        MCLBYTES - fill
                    } else {
                        0
                    }
                } else {
                    0
                }
            }
        }
    }

    /// Copies `src` into trailing space. Caller must ensure it fits.
    fn append(&mut self, src: &[u8]) {
        match &mut self.storage {
            Storage::Small(b) => {
                let end = self.off + self.len;
                b[end..end + src.len()].copy_from_slice(src);
            }
            Storage::Cluster(rc) => {
                let v = rc.get_mut().expect("append to shared cluster");
                debug_assert_eq!(self.off + self.len, v.len());
                v.extend_from_slice(src);
            }
        }
        self.len += src.len();
    }

    /// Copies `src` into leading space. Caller must ensure it fits.
    fn prepend(&mut self, src: &[u8]) {
        match &mut self.storage {
            Storage::Small(b) => {
                let start = self.off - src.len();
                b[start..self.off].copy_from_slice(src);
                self.off = start;
                self.len += src.len();
            }
            Storage::Cluster(_) => unreachable!("prepend into clusters unsupported"),
        }
    }

    /// A new mbuf sharing this one's storage, windowed to
    /// `[self.off + rel, self.off + rel + len)`. Callers share only
    /// clusters this way: `m_copym` and `m_split` copy (and meter) the
    /// bytes of a small mbuf instead.
    fn share_window(&self, rel: usize, len: usize) -> Mbuf {
        debug_assert!(rel + len <= self.len);
        Mbuf {
            storage: self.storage.clone(),
            off: self.off + rel,
            len,
        }
    }

    /// Widens this window to absorb `next` when both are views of the
    /// same cluster and `next` starts exactly where this one ends — the
    /// shape fragmentation leaves behind once a datagram is reassembled.
    fn try_merge(&mut self, next: &Mbuf) -> bool {
        match (&self.storage, &next.storage) {
            (Storage::Cluster(a), Storage::Cluster(b))
                if ClusterRef::same_storage(a, b) && self.off + self.len == next.off =>
            {
                self.len += next.len;
                true
            }
            _ => false,
        }
    }
}

impl fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.storage {
            Storage::Small(_) => "small",
            Storage::Cluster(rc) => {
                if rc.is_shared() {
                    "cluster(shared)"
                } else {
                    "cluster"
                }
            }
        };
        write!(f, "Mbuf[{kind} off={} len={}]", self.off, self.len)
    }
}

/// A chain of mbufs holding one logical message.
///
/// As in 4.3BSD the chain itself is a pointer: the segment list (the
/// *spine*) lives on the heap and is recycled through [`pool`] like the
/// clusters and small data areas it lists, so a chain moves as two words
/// however many structs and queues it is handed through by value. An
/// empty chain owns no spine and costs nothing to make, take or drop.
///
/// # Examples
///
/// ```
/// use renofs_mbuf::{CopyMeter, MbufChain};
///
/// let mut meter = CopyMeter::new();
/// let mut chain = MbufChain::new();
/// chain.append_bytes(b"hello ", &mut meter);
/// chain.append_bytes(b"world", &mut meter);
/// assert_eq!(chain.len(), 11);
/// assert_eq!(chain.to_vec_for_test(), b"hello world");
/// assert_eq!(meter.bytes(), 11);
/// ```
///
/// A chain never leaves its thread: its storage counts are not atomic.
///
/// ```compile_fail,E0277
/// fn must_be_send<T: Send>() {}
/// must_be_send::<renofs_mbuf::MbufChain>();
/// ```
#[derive(Default)]
pub struct MbufChain {
    spine: Option<Spine>,
    len: usize,
}

// Fragments, events and syscall replies carry a chain by value.
const _: () = assert!(size_of::<MbufChain>() <= 16);

impl Drop for MbufChain {
    fn drop(&mut self) {
        if let Some(spine) = self.spine.take() {
            pool::give(spine);
        }
    }
}

impl Clone for MbufChain {
    /// Clones the chain by reference: every mbuf, small or cluster, shares
    /// its storage with the original, and a small mbuf is copied only when
    /// either side first writes to it. Nothing is metered; use
    /// [`MbufChain::share_range`] for the kernel's `m_copym`, which copies
    /// and charges small-mbuf bytes.
    fn clone(&self) -> Self {
        let mut c = MbufChain::new();
        if !self.segs().is_empty() {
            c.segs_mut().extend(self.segs().iter().cloned());
        }
        c.len = self.len;
        c
    }
}

impl MbufChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn segs(&self) -> &VecDeque<Mbuf> {
        self.spine.as_deref().unwrap_or(NO_SEGS)
    }

    /// The segment list for pushing onto, taking a spine from the pool
    /// if the chain has none yet.
    fn segs_mut(&mut self) -> &mut VecDeque<Mbuf> {
        self.spine.get_or_insert_with(pool::take)
    }

    /// Creates an empty chain whose first small mbuf reserves `leading`
    /// bytes of front space so lower layers can prepend headers without
    /// allocating (the `MH_ALIGN` idiom).
    pub fn with_leading_space(leading: usize) -> Self {
        let mut c = MbufChain::new();
        c.segs_mut()
            .push_back(Mbuf::small_with_leading(leading.min(MLEN)));
        c
    }

    /// Builds a chain by copying `src`, charging the meter.
    pub fn from_slice(src: &[u8], meter: &mut CopyMeter) -> Self {
        let mut c = MbufChain::new();
        c.append_bytes(src, meter);
        c
    }

    /// Total data length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chain holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of mbufs in the chain (empty reserved mbufs included).
    pub fn seg_count(&self) -> usize {
        self.segs().len()
    }

    /// Iterates over the data segments (skipping empty mbufs).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segs()
            .iter()
            .filter(|m| !m.is_empty())
            .map(|m| m.data())
    }

    /// Iterates over the mbufs themselves.
    pub fn mbufs(&self) -> impl Iterator<Item = &Mbuf> {
        self.segs().iter()
    }

    /// Appends `src` by copying, charging the meter for the copied
    /// bytes and for any clusters taken from the free list.
    pub fn append_bytes(&mut self, src: &[u8], meter: &mut CopyMeter) {
        if src.is_empty() {
            return;
        }
        meter.charge(src.len());
        let allocs = self.append_bytes_unmetered(src);
        meter.charge_cluster_allocs(allocs);
    }

    /// Appends `src` by copying without charging the meter. Reserved for
    /// contexts where the copy is priced separately (e.g. test fixtures).
    /// Returns the number of clusters allocated along the way.
    pub fn append_bytes_unmetered(&mut self, mut src: &[u8]) -> usize {
        if src.is_empty() {
            return 0;
        }
        self.len += src.len();
        let segs = self.segs_mut();
        let mut allocs = 0;
        while !src.is_empty() {
            let space = match segs.back_mut() {
                Some(m) => m.trailing_space(),
                None => 0,
            };
            if space == 0 {
                if src.len() > MLEN {
                    segs.push_back(Mbuf::cluster());
                    allocs += 1;
                } else {
                    segs.push_back(Mbuf::small());
                }
                continue;
            }
            let n = space.min(src.len());
            segs.back_mut().unwrap().append(&src[..n]);
            src = &src[n..];
        }
        allocs
    }

    /// Prepends `src` (a protocol header), charging the meter. Uses the
    /// first mbuf's leading space when available (`M_PREPEND`).
    pub fn prepend_bytes(&mut self, src: &[u8], meter: &mut CopyMeter) {
        if src.is_empty() {
            return;
        }
        meter.charge(src.len());
        self.len += src.len();
        let segs = self.segs_mut();
        if let Some(first) = segs.front_mut() {
            if !first.is_cluster() && first.leading_space() >= src.len() {
                first.prepend(src);
                return;
            }
        }
        // Chunk the header into fresh small mbufs, last chunk first.
        let mut rest = src;
        while !rest.is_empty() {
            let n = rest.len().min(MLEN);
            let mut m = Mbuf::small_with_leading(MLEN);
            m.prepend(&rest[rest.len() - n..]);
            segs.push_front(m);
            rest = &rest[..rest.len() - n];
        }
    }

    /// Concatenates `other` onto the end of this chain without copying
    /// (`m_cat`). Adjacent windows of one shared cluster coalesce back
    /// into a single mbuf, so a reassembled 8 KB datagram lands at its
    /// original four clusters instead of one window per fragment slice,
    /// which keeps the spine short and inside its pooled capacity.
    pub fn append_chain(&mut self, mut other: MbufChain) {
        // Drained, not consumed: `other` parks its emptied spine on drop.
        let Some(donor) = other.spine.as_mut() else {
            return;
        };
        self.len += other.len;
        let segs = self.segs_mut();
        for m in donor.drain(..) {
            if let Some(back) = segs.back_mut() {
                if back.try_merge(&m) {
                    continue;
                }
            }
            segs.push_back(m);
        }
    }

    /// Produces a chain covering `[off, off + len)` of this one, sharing
    /// cluster storage and copying (and metering) only small-mbuf bytes —
    /// the semantics of `m_copym`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn share_range(&self, off: usize, len: usize, meter: &mut CopyMeter) -> MbufChain {
        assert!(off + len <= self.len, "share_range out of bounds");
        let mut out = MbufChain::new();
        if len == 0 {
            return out;
        }
        let mut skip = off;
        let mut want = len;
        for m in self.segs() {
            if want == 0 {
                break;
            }
            if skip >= m.len() {
                skip -= m.len();
                continue;
            }
            let take = (m.len() - skip).min(want);
            if m.is_cluster() {
                out.segs_mut().push_back(m.share_window(skip, take));
                out.len += take;
            } else {
                out.append_bytes(&m.data()[skip..skip + take], meter);
            }
            want -= take;
            skip = 0;
        }
        out
    }

    /// Splits the chain at `at`: `self` keeps `[0, at)`, the returned
    /// chain gets `[at, len)`. A cluster straddling the boundary is shared
    /// between both sides; a straddling small mbuf has its tail copied
    /// (and metered), matching `m_split`.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize, meter: &mut CopyMeter) -> MbufChain {
        assert!(at <= self.len, "split_off out of bounds");
        let mut tail = MbufChain::new();
        if at == self.len {
            return tail;
        }
        let mut remaining = at;
        let head_segs = self.spine.as_mut().expect("a chain with data has a spine");
        let tail_segs = tail.segs_mut();
        // One turn of the ring: each mbuf leaves the front and either
        // rejoins at the back (the head side) or moves to the tail, so
        // both sides keep their order and the head needs no second spine.
        for _ in 0..head_segs.len() {
            let mut m = head_segs.pop_front().expect("counted above");
            if remaining >= m.len() {
                remaining -= m.len();
                head_segs.push_back(m);
                continue;
            }
            if remaining == 0 {
                tail_segs.push_back(m);
                continue;
            }
            // Straddling mbuf.
            let tail_len = m.len() - remaining;
            if m.is_cluster() {
                tail_segs.push_back(m.share_window(remaining, tail_len));
            } else {
                let mut copy = Mbuf::small();
                meter.charge(tail_len);
                copy.append(&m.data()[remaining..]);
                tail_segs.push_back(copy);
            }
            m.len = remaining;
            head_segs.push_back(m);
            remaining = 0;
        }
        tail.len = self.len - at;
        self.len = at;
        tail
    }

    /// Drops `n` bytes from the front (`m_adj` with a positive count).
    pub fn trim_front(&mut self, mut n: usize) {
        let Some(segs) = self.spine.as_mut() else {
            return;
        };
        n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let front = segs.front_mut().expect("len accounting");
            if front.len() <= n {
                n -= front.len();
                segs.pop_front();
            } else {
                front.off += n;
                front.len -= n;
                n = 0;
            }
        }
        segs.retain(|m| !m.is_empty());
    }

    /// Drops `n` bytes from the back (`m_adj` with a negative count).
    pub fn trim_back(&mut self, mut n: usize) {
        let Some(segs) = self.spine.as_mut() else {
            return;
        };
        n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let back = segs.back_mut().expect("len accounting");
            if back.len() <= n {
                n -= back.len();
                segs.pop_back();
            } else {
                back.len -= n;
                n = 0;
            }
        }
        segs.retain(|m| !m.is_empty());
    }

    /// Copies `dst.len()` bytes starting at `off` out of the chain,
    /// charging the meter (`m_copydata`).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_out(&self, off: usize, dst: &mut [u8], meter: &mut CopyMeter) {
        meter.charge(dst.len());
        self.copy_out_unmetered(off, dst);
    }

    /// [`MbufChain::copy_out`] without meter charging, for protocol header
    /// peeks and test assertions.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_out_unmetered(&self, off: usize, dst: &mut [u8]) {
        assert!(off + dst.len() <= self.len, "copy_out out of bounds");
        let mut skip = off;
        let mut pos = 0;
        for m in self.segs() {
            if pos == dst.len() {
                break;
            }
            if skip >= m.len() {
                skip -= m.len();
                continue;
            }
            let take = (m.len() - skip).min(dst.len() - pos);
            dst[pos..pos + take].copy_from_slice(&m.data()[skip..skip + take]);
            pos += take;
            skip = 0;
        }
    }

    /// Flattens the chain to a `Vec`, charging the meter.
    pub fn to_vec(&self, meter: &mut CopyMeter) -> Vec<u8> {
        meter.charge(self.len);
        self.to_vec_for_test()
    }

    /// Flattens the chain to a `Vec` without metering.
    ///
    /// The name is deliberate: simulated-datapath code must account for
    /// every memory-to-memory copy, so it should call [`MbufChain::to_vec`]
    /// (or [`MbufChain::copy_out`]) with the owning subsystem's meter.
    /// This variant exists for test assertions, doc examples, and
    /// experiment-harness result inspection only.
    pub fn to_vec_for_test(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }

    /// Ensures the first `n` bytes are contiguous in the first mbuf
    /// (`m_pullup`), copying (and metering) if necessary.
    ///
    /// # Panics
    ///
    /// Panics if `n > len` or `n > MCLBYTES`.
    pub fn pullup(&mut self, n: usize, meter: &mut CopyMeter) {
        assert!(n <= self.len, "pullup beyond chain length");
        assert!(n <= MCLBYTES, "pullup larger than a cluster");
        if let Some(first) = self.segs().front() {
            if first.len() >= n {
                return;
            }
        }
        let mut head = vec![0u8; n];
        self.copy_out_unmetered(0, &mut head);
        meter.charge(n);
        self.trim_front(n);
        let mut lead = MbufChain::new();
        let allocs = lead.append_bytes_unmetered(&head);
        meter.charge_cluster_allocs(allocs);
        if let Some(donor) = lead.spine.as_mut() {
            let segs = self.segs_mut();
            while let Some(m) = donor.pop_back() {
                segs.push_front(m);
            }
        }
        self.len += n;
    }
}

impl fmt::Debug for MbufChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MbufChain[len={} segs={}]", self.len, self.seg_count())
    }
}

#[cfg(test)]
mod clone_differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> CopyMeter {
        CopyMeter::new()
    }

    #[test]
    fn append_small_and_large() {
        let mut m = meter();
        let mut c = MbufChain::new();
        c.append_bytes(b"abc", &mut m);
        assert_eq!(c.seg_count(), 1);
        let big = vec![7u8; 5000];
        c.append_bytes(&big, &mut m);
        assert_eq!(c.len(), 5003);
        let flat = c.to_vec_for_test();
        assert_eq!(&flat[..3], b"abc");
        assert!(flat[3..].iter().all(|&b| b == 7));
        assert_eq!(m.bytes(), 5003);
    }

    #[test]
    fn large_appends_use_clusters() {
        let mut m = meter();
        let mut c = MbufChain::new();
        c.append_bytes(&vec![1u8; 8192], &mut m);
        assert!(
            c.mbufs().filter(|b| b.is_cluster()).count() >= 4,
            "8K should occupy >= 4 clusters"
        );
        // 8192 / 2048 = 4 exactly.
        assert_eq!(c.seg_count(), 4);
    }

    #[test]
    fn prepend_uses_leading_space() {
        let mut m = meter();
        let mut c = MbufChain::with_leading_space(64);
        c.append_bytes(b"payload", &mut m);
        let before = c.seg_count();
        c.prepend_bytes(b"HDR:", &mut m);
        assert_eq!(c.seg_count(), before, "no new mbuf needed");
        assert_eq!(c.to_vec_for_test(), b"HDR:payload");
    }

    #[test]
    fn prepend_allocates_when_no_space() {
        let mut m = meter();
        let mut c = MbufChain::new();
        c.append_bytes(&[9u8; MLEN], &mut m);
        c.prepend_bytes(b"hdr", &mut m);
        let flat = c.to_vec_for_test();
        assert_eq!(&flat[..3], b"hdr");
        assert_eq!(c.len(), MLEN + 3);
    }

    #[test]
    fn prepend_header_larger_than_mlen() {
        let mut m = meter();
        let mut c = MbufChain::from_slice(b"body", &mut m);
        let hdr: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        c.prepend_bytes(&hdr, &mut m);
        let flat = c.to_vec_for_test();
        assert_eq!(&flat[..300], &hdr[..]);
        assert_eq!(&flat[300..], b"body");
    }

    #[test]
    fn append_chain_moves_segments() {
        let mut m = meter();
        let mut a = MbufChain::from_slice(b"one", &mut m);
        let b = MbufChain::from_slice(b"two", &mut m);
        let before = m.bytes();
        a.append_chain(b);
        assert_eq!(m.bytes(), before, "m_cat copies nothing");
        assert_eq!(a.to_vec_for_test(), b"onetwo");
    }

    #[test]
    fn share_range_shares_clusters() {
        let mut m = meter();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 256) as u8).collect();
        let c = MbufChain::from_slice(&data, &mut m);
        m.take();
        let shared = c.share_range(100, 4000, &mut m);
        assert_eq!(shared.to_vec_for_test(), &data[100..4100]);
        assert_eq!(m.bytes(), 0, "cluster shares copy nothing");
        assert!(shared.mbufs().any(|b| b.is_shared_cluster()));
    }

    #[test]
    fn share_range_copies_small_mbufs() {
        let mut m = meter();
        let c = MbufChain::from_slice(b"tiny message", &mut m);
        m.take();
        let shared = c.share_range(5, 7, &mut m);
        assert_eq!(shared.to_vec_for_test(), b"message");
        assert_eq!(m.bytes(), 7, "small mbuf bytes are copied");
    }

    #[test]
    fn share_whole_and_empty() {
        let mut m = meter();
        let c = MbufChain::from_slice(b"abcdef", &mut m);
        assert_eq!(c.share_range(0, 6, &mut m).to_vec_for_test(), b"abcdef");
        assert_eq!(c.share_range(3, 0, &mut m).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn share_range_oob_panics() {
        let mut m = meter();
        let c = MbufChain::from_slice(b"abc", &mut m);
        let _ = c.share_range(1, 3, &mut m);
    }

    #[test]
    fn split_off_basic() {
        let mut m = meter();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let mut c = MbufChain::from_slice(&data, &mut m);
        let tail = c.split_off(1234, &mut m);
        assert_eq!(c.len(), 1234);
        assert_eq!(tail.len(), 5000 - 1234);
        assert_eq!(c.to_vec_for_test(), &data[..1234]);
        assert_eq!(tail.to_vec_for_test(), &data[1234..]);
    }

    #[test]
    fn split_off_at_ends() {
        let mut m = meter();
        let mut c = MbufChain::from_slice(b"abcdef", &mut m);
        let tail = c.split_off(6, &mut m);
        assert!(tail.is_empty());
        assert_eq!(c.len(), 6);
        let tail = c.split_off(0, &mut m);
        assert!(c.is_empty());
        assert_eq!(tail.to_vec_for_test(), b"abcdef");
    }

    #[test]
    fn split_off_shares_straddling_cluster() {
        let mut m = meter();
        let data = vec![3u8; 4096];
        let mut c = MbufChain::from_slice(&data, &mut m);
        m.take();
        // 1000 is inside the first cluster.
        let tail = c.split_off(1000, &mut m);
        assert_eq!(m.bytes(), 0, "cluster split shares, never copies");
        assert_eq!(c.len() + tail.len(), 4096);
    }

    #[test]
    fn trim_front_and_back() {
        let mut m = meter();
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        let mut c = MbufChain::from_slice(&data, &mut m);
        c.trim_front(100);
        c.trim_back(200);
        assert_eq!(c.len(), 2700);
        assert_eq!(c.to_vec_for_test(), &data[100..2800]);
        c.trim_front(10_000);
        assert!(c.is_empty());
        assert_eq!(c.seg_count(), 0);
    }

    #[test]
    fn copy_out_ranges() {
        let mut m = meter();
        let data: Vec<u8> = (0..4000u32).map(|i| (i * 7 % 256) as u8).collect();
        let c = MbufChain::from_slice(&data, &mut m);
        let mut buf = vec![0u8; 500];
        c.copy_out(1700, &mut buf, &mut m);
        assert_eq!(buf, &data[1700..2200]);
    }

    #[test]
    fn pullup_makes_front_contiguous() {
        let mut m = meter();
        let mut c = MbufChain::new();
        // Build a fragmented front out of several appends + chain cats.
        c.append_bytes(b"ab", &mut m);
        let mut rest = MbufChain::from_slice(&vec![5u8; 3000], &mut m);
        let tail = rest.split_off(1500, &mut m);
        c.append_chain(rest);
        c.append_chain(tail);
        let flat_before = c.to_vec_for_test();
        c.pullup(200, &mut m);
        assert_eq!(c.to_vec_for_test(), flat_before, "contents preserved");
        assert!(c.mbufs().next().unwrap().len() >= 200);
    }

    #[test]
    fn pullup_noop_when_contiguous() {
        let mut m = meter();
        let mut c = MbufChain::from_slice(b"0123456789", &mut m);
        m.take();
        c.pullup(4, &mut m);
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn an_empty_chain_owns_no_spine() {
        let before = pool::spine_stats();
        let mut c = MbufChain::new();
        let d = std::mem::take(&mut c);
        assert_eq!((c.seg_count(), d.seg_count()), (0, 0));
        assert!(c.clone().split_off(0, &mut meter()).is_empty());
        drop((c, d));
        assert_eq!(pool::spine_stats(), before, "neither taken nor parked");
    }

    #[test]
    fn a_dropped_chain_parks_its_spine_for_the_next() {
        let mut m = meter();
        drop(MbufChain::from_slice(b"abc", &mut m));
        let before = pool::spine_stats();
        assert_eq!(before.free, 1);
        let c = MbufChain::from_slice(b"def", &mut m);
        assert_eq!(pool::spine_stats().reused, before.reused + 1);
        assert_eq!((c.seg_count(), c.to_vec_for_test()), (1, b"def".to_vec()));
    }

    #[test]
    fn leading_space_reserved_chain_is_empty() {
        let c = MbufChain::with_leading_space(64);
        assert!(c.is_empty());
        assert_eq!(c.segments().count(), 0, "empty mbufs are skipped");
        assert_eq!(c.seg_count(), 1);
    }
}

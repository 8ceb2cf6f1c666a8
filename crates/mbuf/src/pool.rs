//! Free lists for the three things an mbuf chain is made of.
//!
//! 4.3BSD keeps mbuf clusters on a kernel free list (`mclfree`) so the
//! hot allocate/free path never touches the page allocator. This module
//! reproduces that for every heap block a chain owns: the 2 KB clusters,
//! the `MLEN`-byte data areas of small mbufs, and the *spine* — the
//! segment list a chain points to. Dropped buffers return here and are
//! handed back out, as new, on the next allocation; one list per kind
//! ([`take`]/[`give`]) serves all three through [`Pooled`].
//!
//! The cluster list parks the whole `Arc<ClusterBuf>`, not just the byte
//! buffer: `Arc::new` is itself a heap allocation, and an 8 KB read
//! reply takes four clusters, so recycling only the `Vec` would still
//! cost four allocations per RPC. An `Arc` is recyclable exactly when
//! its strong count has dropped to one — no other mbuf window
//! references the cluster.
//!
//! Each thread keeps one list per kind, as 4.3BSD keeps one `mclfree`:
//! a world runs on one thread, procs included, and so does every chain it
//! builds and drops, so the allocate/free pair never locks. A list is
//! sized for a crowd, which keeps over a thousand chains live at once;
//! a buffer returned to a full list is freed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::LocalKey;

use crate::chain::{Mbuf, MCLBYTES, MLEN};

/// One thread's free list of one pooled kind.
pub(crate) struct FreeList<T> {
    free: Vec<T>,
    capacity: usize,
    fresh: u64,
    reused: u64,
}

impl<T> FreeList<T> {
    const fn new(capacity: usize) -> Self {
        FreeList {
            free: Vec::new(),
            capacity,
            fresh: 0,
            reused: 0,
        }
    }
}

/// A kind of buffer the pool recycles: where its list lives, how many it
/// parks, and what leaving and joining the list mean for it.
pub(crate) trait Pooled: Sized + 'static {
    /// Buffers the list parks before it lets a returned one go.
    const CAPACITY: usize;
    /// This thread's free list.
    fn local() -> &'static LocalKey<RefCell<FreeList<Self>>>;
    /// A new buffer from the heap.
    fn fresh() -> Self;
    /// Called on give: whether the buffer may be parked at all. No list
    /// is borrowed yet, so it may drop what the buffer still holds (which
    /// can give to another kind's list).
    fn admit(&mut self) -> bool {
        true
    }
    /// Called on take: returns a parked buffer to its as-new state.
    fn reset(&mut self) {}
}

/// Defines `Pooled::local` for one kind (statics cannot be generic, so
/// each kind declares its own).
macro_rules! free_list {
    ($kind:ty) => {
        fn local() -> &'static LocalKey<RefCell<FreeList<Self>>> {
            thread_local! {
                static LOCAL: RefCell<FreeList<$kind>> =
                    const { RefCell::new(FreeList::new(<$kind as Pooled>::CAPACITY)) };
            }
            &LOCAL
        }
    };
}

/// A buffer of kind `T` from the free list, or fresh if it is empty.
pub(crate) fn take<T: Pooled>() -> T {
    T::local().with(|p| {
        let mut p = p.borrow_mut();
        match p.free.pop() {
            Some(mut item) => {
                p.reused += 1;
                item.reset();
                item
            }
            None => {
                p.fresh += 1;
                T::fresh()
            }
        }
    })
}

/// Parks `item` on the free list if its kind admits it and there is room.
pub(crate) fn give<T: Pooled>(mut item: T) {
    if !item.admit() {
        return;
    }
    T::local().with(|p| {
        let mut p = p.borrow_mut();
        if p.free.len() < p.capacity {
            p.free.push(item);
        }
    });
}

/// A snapshot of one of this thread's free lists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers allocated fresh from the heap.
    pub fresh: u64,
    /// Buffers recycled from the free list.
    pub reused: u64,
    /// Buffers currently parked on the free list.
    pub free: usize,
}

fn stats_of<T: Pooled>() -> PoolStats {
    T::local().with(|p| {
        let p = p.borrow();
        PoolStats {
            fresh: p.fresh,
            reused: p.reused,
            free: p.free.len(),
        }
    })
}

fn set_capacity_of<T: Pooled>(capacity: usize) {
    T::local().with(|p| {
        let mut p = p.borrow_mut();
        p.capacity = capacity;
        p.free.truncate(capacity);
    });
}

fn reset_of<T: Pooled>() {
    T::local().with(|p| *p.borrow_mut() = FreeList::new(T::CAPACITY));
}

/// Returns this thread's cluster pool counters.
pub fn stats() -> PoolStats {
    stats_of::<Arc<ClusterBuf>>()
}

/// Returns this thread's small-mbuf pool counters.
pub fn small_stats() -> PoolStats {
    stats_of::<SmallArea>()
}

/// Returns this thread's chain-spine pool counters.
pub fn spine_stats() -> PoolStats {
    stats_of::<Spine>()
}

/// Sets this thread's free-list capacity for clusters and for the chain
/// spines that carry them. `0` disables pooling: every allocation is
/// fresh and every drop is final — useful for comparing pooled and
/// unpooled behavior.
pub fn set_capacity(capacity: usize) {
    set_capacity_of::<Arc<ClusterBuf>>(capacity);
    set_capacity_of::<Spine>(capacity);
}

/// Sets the small-mbuf free-list capacity for this thread; `0` disables
/// pooling.
pub fn set_small_capacity(capacity: usize) {
    set_capacity_of::<SmallArea>(capacity);
}

/// Empties the free lists (cluster, small and spine), zeroes the counters
/// and restores the default capacities for this thread.
pub fn reset() {
    reset_of::<Arc<ClusterBuf>>();
    reset_of::<SmallArea>();
    reset_of::<Spine>();
}

/// The bytes of one cluster. Only reachable through [`ClusterRef`]; the
/// free list stores the whole `Arc<ClusterBuf>` so neither the buffer
/// nor the `Arc` allocation is repaid on the hot path.
pub(crate) struct ClusterBuf(Vec<u8>);

impl Pooled for Arc<ClusterBuf> {
    const CAPACITY: usize = 1152;

    free_list!(Arc<ClusterBuf>);
    fn fresh() -> Self {
        Arc::new(ClusterBuf(Vec::with_capacity(MCLBYTES)))
    }

    /// Recyclable only once no other window references the cluster.
    fn admit(&mut self) -> bool {
        Arc::strong_count(self) == 1 && self.0.capacity() >= MCLBYTES
    }

    fn reset(&mut self) {
        Arc::get_mut(self)
            .expect("pooled clusters are unshared")
            .0
            .clear();
    }
}

/// A reference-counted handle to pooled cluster storage: cloning shares
/// the cluster (`m_copym`), and dropping the last handle parks the
/// `Arc` on the free list instead of freeing it.
pub(crate) struct ClusterRef(Option<Arc<ClusterBuf>>);

impl ClusterRef {
    /// Allocates from the free list, or fresh if it is empty. The
    /// returned buffer is always empty (no stale length or bytes).
    pub(crate) fn alloc() -> Self {
        ClusterRef(Some(take()))
    }

    fn rc(&self) -> &Arc<ClusterBuf> {
        self.0.as_ref().expect("cluster present until drop")
    }

    /// Whether any other handle references this cluster.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(self.rc()) > 1
    }

    /// Mutable access to the bytes, only while unshared.
    pub(crate) fn get_mut(&mut self) -> Option<&mut Vec<u8>> {
        Arc::get_mut(self.0.as_mut().expect("cluster present until drop")).map(|c| &mut c.0)
    }

    /// Whether two handles share the same underlying cluster.
    pub(crate) fn same_storage(a: &ClusterRef, b: &ClusterRef) -> bool {
        Arc::ptr_eq(a.rc(), b.rc())
    }
}

impl Clone for ClusterRef {
    fn clone(&self) -> Self {
        ClusterRef(Some(Arc::clone(self.rc())))
    }
}

impl std::ops::Deref for ClusterRef {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.rc().0
    }
}

impl Drop for ClusterRef {
    fn drop(&mut self) {
        if let Some(rc) = self.0.take() {
            give(rc);
        }
    }
}

/// The `MLEN`-byte data area of a small mbuf: every RPC header and XDR
/// fragment lives in one, so a busy simulation churns through them even
/// faster than clusters. The `Box` is what is pooled: [`SmallBuf`] hands
/// the same heap block back out.
type SmallArea = Box<[u8; MLEN]>;

impl Pooled for SmallArea {
    const CAPACITY: usize = 4352;

    free_list!(SmallArea);
    fn fresh() -> Self {
        Box::new([0u8; MLEN])
    }
}

/// Owned small-mbuf storage whose data area returns to the free list on
/// drop.
///
/// Recycled areas are *not* re-zeroed: an mbuf only ever exposes the
/// `(off, len)` window its owner wrote via `append`/`prepend`, so stale
/// bytes outside the window are unobservable.
pub(crate) struct SmallBuf(Option<SmallArea>);

impl SmallBuf {
    /// Allocates from the free list, or zero-filled fresh storage.
    pub(crate) fn alloc() -> Self {
        SmallBuf(Some(take()))
    }
}

impl Clone for SmallBuf {
    fn clone(&self) -> Self {
        let mut b: SmallArea = take();
        b.copy_from_slice(&**self);
        SmallBuf(Some(b))
    }
}

impl std::ops::Deref for SmallBuf {
    type Target = [u8; MLEN];
    fn deref(&self) -> &[u8; MLEN] {
        self.0.as_ref().expect("buffer present until drop")
    }
}

impl std::ops::DerefMut for SmallBuf {
    fn deref_mut(&mut self) -> &mut [u8; MLEN] {
        self.0.as_mut().expect("buffer present until drop")
    }
}

impl Drop for SmallBuf {
    fn drop(&mut self) {
        if let Some(b) = self.0.take() {
            give(b);
        }
    }
}

/// The segment list of an [`MbufChain`](crate::MbufChain), which holds it
/// by pointer so that a chain moves as two words. The `Box` and the
/// deque's buffer are both what is pooled: a parked spine is empty but
/// keeps its capacity.
pub(crate) type Spine = Box<VecDeque<Mbuf>>;

impl Pooled for Spine {
    /// Every chain in flight holds one, as most hold one small mbuf.
    const CAPACITY: usize = 4352;

    free_list!(Spine);
    /// Room for the header mbuf plus the four clusters of an 8 KB
    /// read/write, so the common shapes never grow it.
    fn fresh() -> Self {
        Box::new(VecDeque::with_capacity(8))
    }

    /// Drops the segments, so their clusters and small areas go back to
    /// *their* lists now and the next chain to take this spine can see
    /// nothing of the last one.
    fn admit(&mut self) -> bool {
        self.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_free_list() {
        reset();
        let before = stats();
        {
            let mut a = ClusterRef::alloc();
            a.get_mut().unwrap().extend_from_slice(&[7u8; 100]);
        }
        let one = ClusterRef::alloc();
        assert!(one.is_empty(), "recycled buffer must come back empty");
        assert!(one.capacity() >= MCLBYTES);
        let after = stats();
        assert_eq!(after.reused, before.reused + 1);
    }

    #[test]
    fn shared_clusters_are_not_recycled_until_the_last_drop() {
        reset();
        let a = ClusterRef::alloc();
        let b = a.clone();
        drop(a);
        assert_eq!(stats().free, 0, "still referenced by the clone");
        drop(b);
        assert_eq!(stats().free, 1, "last handle parks the cluster");
    }

    #[test]
    fn capacity_zero_disables_pooling() {
        reset();
        set_capacity(0);
        {
            let mut a = ClusterRef::alloc();
            a.get_mut().unwrap().push(1);
        }
        let s = stats();
        assert_eq!(s.free, 0, "nothing parked when disabled");
        drop(ClusterRef::alloc());
        assert_eq!(stats().reused, 0);
        reset();
        drop(ClusterRef::alloc());
        assert_eq!(stats().free, 1, "reset restored the default capacity");
    }
}

//! A free list of cluster buffers.
//!
//! 4.3BSD keeps mbuf clusters on a kernel free list (`mclfree`) so the
//! hot allocate/free path never touches the page allocator. The
//! simulator's original `Mbuf::cluster()` instead allocated a fresh
//! 2 KB `Vec` per cluster, which dominated the allocator profile of
//! long sweeps. This module reproduces the free list: dropped cluster
//! buffers return here and are handed back out, cleared, on the next
//! allocation.
//!
//! The free list parks the whole `Arc<ClusterBuf>`, not just the byte
//! buffer: `Arc::new` is itself a heap allocation, and an 8 KB read
//! reply takes four clusters, so recycling only the `Vec` would still
//! cost four allocations per RPC. An `Arc` is recyclable exactly when
//! its strong count has dropped to one — no other mbuf window
//! references the cluster.
//!
//! The fast path is a thread-local list, matching how the experiment
//! runner parallelizes (whole simulations per worker thread), so the
//! common allocate/free pair never locks. Underneath it sits a shared
//! overflow tier for worlds whose buffers cross threads: a carved world
//! at `sim_threads > 1`, where a call built on a client domain's worker
//! is freed by the coordinator thread that runs the servers, and reply
//! chains travel the opposite way. A local list that sees only one side
//! of such a flow starves (the taker allocating fresh forever, the freer
//! discarding at capacity), so a thread whose list fills spills a batch
//! to the shared tier and a thread whose list empties refills a batch
//! from it: buffers circulate back to where they are taken and the lock
//! is amortized over [`XFER_BATCH`] operations. At one sim thread procs,
//! transports and servers all use one thread's lists and the tier idles.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::chain::{MCLBYTES, MLEN};

/// Free-list capacity before returned buffers spill to the shared tier.
const DEFAULT_CAPACITY: usize = 128;

/// Free-list capacity for small mbuf data areas.
const SMALL_DEFAULT_CAPACITY: usize = 256;

/// Shared-tier capacity for cluster buffers (all threads combined).
const SHARED_CLUSTER_CAPACITY: usize = 1024;

/// Shared-tier capacity for small-mbuf data areas.
const SHARED_SMALL_CAPACITY: usize = 4096;

/// Buffers moved per spill or refill of the shared tier.
const XFER_BATCH: usize = 32;

/// The cross-thread overflow tier.
struct Shared {
    clusters: Vec<Arc<ClusterBuf>>,
    // The `Box` is the resource being pooled: `SmallBuf` hands the same
    // heap block back out, so storing unboxed arrays would defeat it.
    #[allow(clippy::vec_box)]
    smalls: Vec<Box<[u8; MLEN]>>,
}

static SHARED: Mutex<Shared> = Mutex::new(Shared {
    clusters: Vec::new(),
    smalls: Vec::new(),
});

fn shared() -> MutexGuard<'static, Shared> {
    // The tier holds plain buffers, so a panic while the lock was held
    // cannot leave them inconsistent; recover instead of poisoning every
    // later test in the process.
    SHARED.lock().unwrap_or_else(|e| e.into_inner())
}

struct Pool {
    free: Vec<Arc<ClusterBuf>>,
    capacity: usize,
    fresh: u64,
    reused: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            free: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            fresh: 0,
            reused: 0,
        })
    };
}

/// A snapshot of this thread's pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Cluster buffers allocated fresh from the heap.
    pub fresh: u64,
    /// Cluster buffers recycled from the free list.
    pub reused: u64,
    /// Buffers currently parked on the free list.
    pub free: usize,
}

/// Returns this thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            fresh: p.fresh,
            reused: p.reused,
            free: p.free.len(),
        }
    })
}

/// Sets the free-list capacity for this thread. `0` disables pooling:
/// every allocation is fresh and every drop is final — useful for
/// comparing pooled and unpooled behavior.
pub fn set_capacity(capacity: usize) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.capacity = capacity;
        p.free.truncate(capacity);
    });
}

/// Empties the free lists (cluster and small) and zeroes the counters
/// for this thread.
pub fn reset() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.free.clear();
        p.fresh = 0;
        p.reused = 0;
    });
    SMALL_POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.free.clear();
        p.fresh = 0;
        p.reused = 0;
    });
}

fn take() -> Arc<ClusterBuf> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.free.is_empty() && p.capacity > 0 {
            let mut sh = shared();
            let n = sh.clusters.len().min(XFER_BATCH);
            let at = sh.clusters.len() - n;
            p.free.extend(sh.clusters.drain(at..));
        }
        match p.free.pop() {
            Some(mut rc) => {
                p.reused += 1;
                let buf = &mut Arc::get_mut(&mut rc)
                    .expect("pooled clusters are unshared")
                    .0;
                debug_assert!(buf.capacity() >= MCLBYTES);
                buf.clear();
                rc
            }
            None => {
                p.fresh += 1;
                Arc::new(ClusterBuf(Vec::with_capacity(MCLBYTES)))
            }
        }
    })
}

fn give(rc: Arc<ClusterBuf>) {
    if Arc::strong_count(&rc) != 1 {
        return; // Another window still references the cluster.
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.capacity == 0 || rc.capacity() < MCLBYTES {
            return;
        }
        // A thread that has never *taken* a cluster is a pure producer:
        // it only drops chains shipped over from another thread. Letting
        // it fill a full-size local free list strands (threads ×
        // capacity) buffers where no allocation will ever reuse them,
        // and the consumer side re-allocates fresh for the entire fill
        // window. Producers stage only one transfer batch locally and
        // spill it to the shared tier, where the allocating thread
        // refills from.
        let cap = if p.fresh + p.reused == 0 {
            XFER_BATCH.min(p.capacity)
        } else {
            p.capacity
        };
        if p.free.len() >= cap {
            let mut sh = shared();
            let room = SHARED_CLUSTER_CAPACITY - sh.clusters.len();
            let n = XFER_BATCH.min(room).min(p.free.len());
            let at = p.free.len() - n;
            sh.clusters.extend(p.free.drain(at..));
        }
        if p.free.len() < cap {
            p.free.push(rc);
        }
    });
}

/// The bytes of one cluster. Only reachable through [`ClusterRef`]; the
/// free list stores the whole `Arc<ClusterBuf>` so neither the buffer
/// nor the `Arc` allocation is repaid on the hot path.
pub(crate) struct ClusterBuf(Vec<u8>);

impl std::ops::Deref for ClusterBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.0
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

// ---------------------------------------------------------------------
// Small-mbuf data areas.
//
// The same recycling trick for the MLEN-byte inline areas: every RPC
// header, XDR fragment, and console message lives in small mbufs, so a
// busy simulation churns through them even faster than clusters.
// ---------------------------------------------------------------------

struct SmallPool {
    // See `Shared::smalls`: the pooled unit is the heap block itself.
    #[allow(clippy::vec_box)]
    free: Vec<Box<[u8; MLEN]>>,
    capacity: usize,
    fresh: u64,
    reused: u64,
}

thread_local! {
    static SMALL_POOL: RefCell<SmallPool> = const {
        RefCell::new(SmallPool {
            free: Vec::new(),
            capacity: SMALL_DEFAULT_CAPACITY,
            fresh: 0,
            reused: 0,
        })
    };
}

/// Returns this thread's small-mbuf pool counters.
pub fn small_stats() -> PoolStats {
    SMALL_POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            fresh: p.fresh,
            reused: p.reused,
            free: p.free.len(),
        }
    })
}

/// Sets the small-mbuf free-list capacity for this thread; `0` disables
/// pooling.
pub fn set_small_capacity(capacity: usize) {
    SMALL_POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.capacity = capacity;
        p.free.truncate(capacity);
    });
}

fn small_take() -> Box<[u8; MLEN]> {
    SMALL_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.free.is_empty() && p.capacity > 0 {
            let mut sh = shared();
            let n = sh.smalls.len().min(XFER_BATCH);
            let at = sh.smalls.len() - n;
            p.free.extend(sh.smalls.drain(at..));
        }
        match p.free.pop() {
            Some(b) => {
                p.reused += 1;
                b
            }
            None => {
                p.fresh += 1;
                Box::new([0u8; MLEN])
            }
        }
    })
}

fn small_give(b: Box<[u8; MLEN]>) {
    SMALL_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.capacity == 0 {
            return;
        }
        // Same producer-thread rule as `give`: a thread that never
        // allocates small mbufs must not park them locally forever.
        let cap = if p.fresh + p.reused == 0 {
            XFER_BATCH.min(p.capacity)
        } else {
            p.capacity
        };
        if p.free.len() >= cap {
            let mut sh = shared();
            let room = SHARED_SMALL_CAPACITY - sh.smalls.len();
            let n = XFER_BATCH.min(room).min(p.free.len());
            let at = p.free.len() - n;
            sh.smalls.extend(p.free.drain(at..));
        }
        if p.free.len() < cap {
            p.free.push(b);
        }
    });
}

/// Owned small-mbuf storage whose data area returns to the free list on
/// drop.
///
/// Recycled areas are *not* re-zeroed: an mbuf only ever exposes the
/// `(off, len)` window its owner wrote via `append`/`prepend`, so stale
/// bytes outside the window are unobservable.
pub(crate) struct SmallBuf(Option<Box<[u8; MLEN]>>);

impl SmallBuf {
    /// Allocates from the free list, or zero-filled fresh storage.
    pub(crate) fn alloc() -> Self {
        SmallBuf(Some(small_take()))
    }
}

impl Clone for SmallBuf {
    fn clone(&self) -> Self {
        let mut b = small_take();
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
            small_give(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests below and empties the shared tier, so one
    /// test's spills don't batch-refill into another's local list and
    /// skew its counters.
    fn isolated() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut sh = shared();
        sh.clusters.clear();
        sh.smalls.clear();
        guard
    }

    #[test]
    fn buffers_recycle_through_the_free_list() {
        let _g = isolated();
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
        let _g = isolated();
        reset();
        let a = ClusterRef::alloc();
        let b = a.clone();
        drop(a);
        assert_eq!(stats().free, 0, "still referenced by the clone");
        drop(b);
        assert_eq!(stats().free, 1, "last handle parks the cluster");
    }

    #[test]
    fn buffers_circulate_across_threads() {
        let _g = isolated();
        // A thread that frees more than its local capacity spills to the
        // shared tier; a different thread with an empty local list must
        // then reuse those buffers instead of allocating fresh.
        std::thread::spawn(|| {
            let held: Vec<ClusterRef> = (0..2 * DEFAULT_CAPACITY)
                .map(|_| ClusterRef::alloc())
                .collect();
            drop(held);
        })
        .join()
        .unwrap();
        std::thread::spawn(|| {
            let _c = ClusterRef::alloc();
            let s = stats();
            assert_eq!(s.fresh, 0, "must come from the shared tier");
            assert_eq!(s.reused, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn capacity_zero_disables_pooling() {
        let _g = isolated();
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
        set_capacity(DEFAULT_CAPACITY);
        reset();
    }
}

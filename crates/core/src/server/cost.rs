//! What a request charges: the work the host model prices into CPU and
//! disk time.

use crate::proto::NfsProc;

/// Physical work a request incurred, priced by the host model.
#[derive(Debug, Default)]
pub struct ServiceCost {
    /// Which procedure ran (None for garbled requests).
    pub proc: Option<NfsProc>,
    /// Buffer-cache search steps.
    pub cache_steps: u64,
    /// Directory entries scanned on uncached lookups.
    pub dir_scan_entries: u64,
    /// Bytes copied between the buffer cache and mbufs.
    pub bytes_copied: u64,
    /// Disk reads issued, in bytes each.
    pub disk_reads: DiskOps,
    /// Disk writes issued, in bytes each (write-through: they complete
    /// before the reply leaves).
    pub disk_writes: DiskOps,
    /// The request hit the duplicate-request cache.
    pub dup_hit: bool,
}

impl ServiceCost {
    /// A namespace change (create, mkdir, remove, rmdir, rename, link,
    /// symlink) written through: the directory block, then the inode.
    pub(super) fn namespace_change(&mut self) {
        self.disk_writes.push(512);
        self.disk_writes.push(512);
    }
}

/// The disk transfers of one request, in issue order, each its size in
/// bytes: held inline as runs of one size, so recording them allocates
/// nothing. A request issues at most three writes (data, inode, and an
/// indirect block past block 12), and its reads — one per uncached block
/// of the file or directory it touches — are all one size, so three runs
/// always suffice. A fourth is a server bug, and panics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskOps {
    runs: [(usize, usize); 3],
    n: usize,
}

impl DiskOps {
    /// Records one transfer of `bytes`.
    pub fn push(&mut self, bytes: usize) {
        match self.runs[..self.n].last_mut() {
            Some((b, k)) if *b == bytes => *k += 1,
            _ => {
                self.runs[self.n] = (bytes, 1);
                self.n += 1;
            }
        }
    }

    /// Transfers recorded.
    pub fn len(&self) -> usize {
        self.runs[..self.n].iter().map(|&(_, k)| k).sum()
    }

    /// Whether none were.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Each transfer's size, in issue order.
    pub fn iter(&self) -> DiskOpsIter<'_> {
        self.into_iter()
    }
}

/// The sizes of a [`DiskOps`], one per transfer.
pub type DiskOpsIter<'a> = std::iter::FlatMap<
    std::slice::Iter<'a, (usize, usize)>,
    std::iter::RepeatN<usize>,
    fn(&(usize, usize)) -> std::iter::RepeatN<usize>,
>;

impl<'a> IntoIterator for &'a DiskOps {
    type Item = usize;
    type IntoIter = DiskOpsIter<'a>;

    fn into_iter(self) -> DiskOpsIter<'a> {
        let expand: fn(&(usize, usize)) -> _ = |&(bytes, k)| std::iter::repeat_n(bytes, k);
        self.runs[..self.n].iter().flat_map(expand)
    }
}

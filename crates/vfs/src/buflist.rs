//! The thread's free list of byte buffers, by capacity class.
//!
//! File bytes and cached blocks live in buffers whose capacity follows
//! FFS's split: whole 1 KB fragments for anything up to a block, whole
//! 8 KB blocks above it. A buffer that drops goes back on its class's
//! list and the next buffer of that class comes off it, as 4.3BSD's
//! `getnewbuf` takes a buffer, memory and all, off its free list. The
//! lists are the thread's, as the mbuf free lists are: a world's file
//! system and caches live and die on one thread, so the next world's
//! files and blocks fill from the last one's storage.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use crate::types::BLOCK_SIZE;

/// An FFS fragment: the allocation unit of a file smaller than a block.
const FRAG_SIZE: usize = 1024;

/// Bytes of storage each class keeps for reuse: 1,024 blocks in the
/// 8 KB class (a client's 128 blocks and a server's 256 several times
/// over), 8,192 one-fragment buffers, fewer of the larger classes.
const FREE_BYTES_PER_CLASS: usize = 1024 * BLOCK_SIZE;

thread_local! {
    /// Per class, the storage of the buffers dropped on this thread.
    static FREE: RefCell<Vec<Vec<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
}

/// The capacity a buffer holding `len` bytes gets: `len` rounded up to
/// whole fragments up to a block, to whole blocks past one.
fn class_capacity(len: usize) -> usize {
    if len <= BLOCK_SIZE {
        len.div_ceil(FRAG_SIZE) * FRAG_SIZE
    } else {
        len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE
    }
}

/// The free-list index of a class capacity: the 1–8 fragment classes
/// first, then one per number of blocks past the first.
fn class_index(capacity: usize) -> usize {
    if capacity <= BLOCK_SIZE {
        capacity / FRAG_SIZE - 1
    } else {
        BLOCK_SIZE / FRAG_SIZE + capacity / BLOCK_SIZE - 2
    }
}

/// Empty storage of `capacity` bytes (a class capacity), off the
/// thread's list when it has one.
fn take(capacity: usize) -> Vec<u8> {
    if capacity == 0 {
        return Vec::new();
    }
    FREE.try_with(|free| free.borrow_mut().get_mut(class_index(capacity))?.pop())
        .ok()
        .flatten()
        .unwrap_or_else(|| Vec::with_capacity(capacity))
}

/// Puts `buf`'s storage on its class's list, unless it is not of a
/// class, the class keeps none that large, or the class is full.
fn give(mut buf: Vec<u8>) {
    let capacity = buf.capacity();
    if capacity == 0 || class_capacity(capacity) != capacity || capacity > FREE_BYTES_PER_CLASS {
        return;
    }
    buf.clear();
    // Past the thread's teardown the storage is simply freed.
    let _ = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        let i = class_index(capacity);
        if free.len() <= i {
            free.resize_with(i + 1, Vec::new);
        }
        if free[i].len() < FREE_BYTES_PER_CLASS / capacity {
            free[i].push(buf);
        }
    });
}

/// How many buffers of `capacity` the thread's list holds.
#[cfg(test)]
pub(crate) fn free_count(capacity: usize) -> usize {
    FREE.with(|f| f.borrow().get(class_index(capacity)).map_or(0, Vec::len))
}

/// A byte vector whose storage comes off the thread's list and goes
/// back on it when it drops. It dereferences to the `Vec`; growing it
/// past its capacity by hand takes storage of no class, which is simply
/// freed when it drops, so growth goes through [`Storage::resize`].
#[derive(Debug, Default)]
pub(crate) struct Storage(Vec<u8>);

impl Storage {
    /// Empty storage with room for `len` bytes: a buffer of `len`'s
    /// class.
    pub(crate) fn with_room(len: usize) -> Self {
        Storage(take(class_capacity(len)))
    }

    /// Resizes to `len` bytes, zero-filling any extension. Past the
    /// capacity the bytes move to a larger buffer and the old one goes
    /// back on the list; at 0 the storage goes back. Up to a block the
    /// larger buffer is `len`'s class, as FFS moves a growing file to a
    /// longer run of fragments. Past one it is at least twice the old
    /// capacity, as a `Vec`'s is: a file written block by block moves
    /// log₂ times, not once a block, and leaves as few buffers on the
    /// list.
    pub(crate) fn resize(&mut self, len: usize) {
        if len == 0 {
            give(std::mem::take(&mut self.0));
            return;
        }
        if len > self.0.capacity() {
            let room = if len > BLOCK_SIZE {
                len.max(2 * self.0.capacity())
            } else {
                len
            };
            let mut moved = take(class_capacity(room));
            moved.extend_from_slice(&self.0);
            give(std::mem::replace(&mut self.0, moved));
        }
        self.0.resize(len, 0);
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        let mut copy = Storage::with_room(self.0.capacity());
        copy.0.extend_from_slice(&self.0);
        copy
    }
}

impl Deref for Storage {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.0
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_whole_fragments_then_whole_blocks() {
        let caps: Vec<usize> = [1, 1024, 1025, 8191, 8192, 8193, 20_000]
            .into_iter()
            .map(class_capacity)
            .collect();
        assert_eq!(caps, [1024, 1024, 2048, 8192, 8192, 16_384, 24_576]);
        assert_eq!(class_capacity(0), 0);
        let indices: Vec<usize> = [1024, 2048, 8192, 16_384, 24_576]
            .into_iter()
            .map(class_index)
            .collect();
        assert_eq!(indices, [0, 1, 7, 8, 9]);
    }

    #[test]
    fn storage_moves_up_a_class_and_returns_to_its_list() {
        let before = (
            free_count(1024),
            free_count(3 * 1024),
            free_count(BLOCK_SIZE),
        );
        let mut s = Storage::with_room(100);
        assert_eq!(s.capacity(), 1024);
        s.extend_from_slice(&[7; 100]);
        s.resize(3000);
        assert_eq!((s.len(), s.capacity()), (3000, 3 * 1024));
        assert_eq!(&s[..101], &[[7; 100].as_slice(), &[0]].concat()[..]);
        assert_eq!(free_count(1024), before.0 + 1, "the fragment went back");
        let copy = s.clone();
        assert_eq!((copy.len(), copy.capacity()), (3000, 3 * 1024));
        s.resize(0);
        assert_eq!(s.capacity(), 0);
        drop(copy);
        assert_eq!(free_count(3 * 1024), before.1 + 2);
        // A block class buffer handed out again comes back empty.
        drop(Storage::with_room(BLOCK_SIZE));
        let reused = Storage::with_room(BLOCK_SIZE);
        assert!(reused.is_empty());
        assert_eq!(free_count(BLOCK_SIZE), before.2);
        // Storage of no class is not kept.
        let mut odd = Storage::default();
        odd.reserve_exact(1000);
        let free = free_count(1024);
        drop(odd);
        assert_eq!(free_count(1024), free);
    }

    #[test]
    fn past_a_block_capacity_doubles() {
        let mut s = Storage::with_room(5 * FRAG_SIZE);
        let caps: Vec<usize> = [6, 9, 16, 17, 24, 40, 41]
            .into_iter()
            .map(|frags| {
                s.resize(frags * FRAG_SIZE);
                s.capacity() / FRAG_SIZE
            })
            .collect();
        assert_eq!(caps, [6, 16, 16, 32, 32, 64, 64]);
    }
}

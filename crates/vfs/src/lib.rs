//! The 4.3BSD Reno VFS substrate (Section 5 of the paper).
//!
//! Client-side caching is where the Reno NFS departs most from the Sun
//! reference port, and this crate implements the mechanisms the paper
//! credits for the differences in Tables 2–5 and Graphs 8–9:
//!
//! - [`NameCache`]: the VFS name-lookup cache (names up to 31 characters)
//!   that halves the client's lookup RPC count versus Ultrix, and on the
//!   server cuts directory search work;
//! - [`BufCache`]: the block cache, with the `buf` dirty-region fields
//!   (`b_dirtyoff`/`b_dirtyend`) that let partial-block writes proceed
//!   without pre-reading from the server, and with both buffer
//!   organizations — per-vnode chains (Reno) versus a global search
//!   (the Ultrix model) — priced in search steps for the CPU model;
//! - [`AttrCache`]: the 5-second file-attribute cache;
//! - [`MemFs`]: an in-memory Unix filesystem used as the server's
//!   exported volume and as the "Local" baseline of the Create-Delete
//!   benchmark.

pub mod attrcache;
pub mod bufcache;
mod buflist;
pub mod memfs;
mod name;
pub mod namecache;
pub mod types;

pub use attrcache::AttrCache;
pub use bufcache::{Buf, BufCache, CacheOrg};
pub use memfs::{FsError, FsResult, InodeId, MemFs};
pub use namecache::NameCache;
pub use types::{FileType, Vattr, VnodeId, BLOCK_SIZE};

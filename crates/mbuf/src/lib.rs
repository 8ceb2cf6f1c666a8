//! BSD-style mbuf chains.
//!
//! The paper's implementation builds and decomposes NFS RPC messages
//! *directly in mbuf data areas* (the `nfsm_build`/`nfsm_dissect` macros)
//! to avoid intermediate buffers and to stay independent of the transport
//! protocol. This crate reproduces that data structure:
//!
//! - Small mbufs hold up to [`MLEN`] bytes inline; larger data lives in
//!   [`MCLBYTES`]-sized *clusters*.
//! - Clusters are reference-counted, so [`MbufChain::share_range`] (the
//!   analog of `m_copym`) duplicates a chain without copying cluster bytes
//!   — this is what lets TCP keep retransmission data, and what the
//!   "page loaning" future-work extension builds on. `share_range` still
//!   copies and meters small-mbuf bytes, as `m_copym` does.
//! - Small-mbuf storage is reference-counted too, for the host's own
//!   unmetered `Clone` of a chain: a clone shares every mbuf, and a small
//!   one is copied only on its first write while shared (copy-on-write).
//!   This is how UDP keeps a request for retransmission and a server keeps
//!   a reply in its duplicate cache without copying either. The counts are
//!   not atomic, so a chain is `!Send`.
//! - A chain is a pointer, as in 4.3BSD: its segment list (the *spine*)
//!   lives on the heap and is recycled through [`pool`] like the clusters
//!   and small data areas, so the structs and events that carry a chain
//!   by value stay small.
//! - Every genuine memory-to-memory copy is charged to a [`CopyMeter`].
//!   Hosts convert metered bytes into CPU time, which is how the paper's
//!   Section 3 observation ("the mbuf-to-interface copy routine topped the
//!   kernel profile") is reproduced quantitatively.

mod chain;
mod cursor;
mod meter;
pub mod pool;

pub use chain::{Mbuf, MbufChain, MCLBYTES, MLEN};
pub use cursor::Cursor;
pub use meter::CopyMeter;

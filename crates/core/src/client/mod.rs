//! The NFS client: caching, consistency and write policies.
//!
//! This is where the paper's Section 5 lives. The client caches name
//! translations, attributes (5 s timeout) and data blocks; consistency
//! hangs on the server-reported modify time — when fresh attributes show
//! a changed mtime, cached data is flushed. The configuration knobs map
//! directly onto the paper's experiment rows:
//!
//! - [`WritePolicy`]: write-through / asynchronous (biods) / delayed
//!   (Table 5's rows);
//! - `push_on_close`: close/open consistency — dirty blocks pushed when
//!   the file closes ("Reno-nopush" disables just this);
//! - `consistency: false`: the experimental **noconsist** mount flag —
//!   no mtime checking, no push on close — the optimistic bound on a
//!   cache-consistency protocol;
//! - `assume_own_writes`: the Ultrix behaviour of trusting the cache
//!   after the client's own writes; Reno conservatively flushes, which
//!   is why its MAB read-RPC count is ~50 % higher (Table 3);
//! - `name_cache`: the VFS name-lookup cache that halves lookup RPCs;
//! - `read_ahead`: asynchronous read-ahead depth (future-work knob).
//!
//! Every RPC is counted per procedure — the instrument behind Table 3.
//!
//! The client is one [`ClientFs`] whose methods are split along the
//! paper's caches. This module holds the configuration, the errors, the
//! RPC plumbing and the attribute and consistency rules every path
//! shares; `names` resolves paths through the name cache and recovers
//! stale handles; `data` is the buffer-cache data path and its write
//! policies; `lease_io` is the client's side of NQNFS leases; `dirops`
//! holds the directory operations.

use std::ops::Range;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{IntMap, SimDuration, SimTime};
use renofs_sunrpc::{
    AcceptStat, AuthUnix, CallHeader, ReplyHeader, NFS_PROGRAM, NFS_VERSION, NQNFS_VERSION,
};
use renofs_vfs::{AttrCache, BufCache, CacheOrg, NameCache, Vattr, VnodeId};
use renofs_xdr::{XdrDecoder, XdrError};

use crate::costs;
use crate::lease::ClientLeases;
use crate::proto::{self, results, DirEntry, FileHandle, NfsProc, NfsStatus, RpcCounts};
use crate::syscalls::{Syscalls, Ticket};

mod data;
mod dirops;
mod lease_io;
mod names;

/// When the client pushes written data to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Every write RPC completes before the write(2) returns.
    WriteThrough,
    /// Full blocks are pushed asynchronously via biods; partial blocks
    /// are delayed.
    Async,
    /// All writes are delayed until close (or sync).
    Delayed,
}

/// Client mount configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Push dirty blocks on close (close/open consistency).
    pub push_on_close: bool,
    /// Enable cache-consistency checking (mtime-based flushes and the
    /// push-before-read rule). `false` = the noconsist mount flag.
    pub consistency: bool,
    /// Trust the cache across the client's own writes (Ultrix) instead
    /// of conservatively flushing (Reno).
    pub assume_own_writes: bool,
    /// Dirty-region tracking in buffers (the Reno `b_dirtyoff` fields):
    /// partial-block writes need no pre-read. The Ultrix model lacks it
    /// and must read a block before partially overwriting it.
    pub dirty_region_tracking: bool,
    /// Enable the name-lookup cache.
    pub name_cache: bool,
    /// Attribute cache lifetime.
    pub attr_timeout: SimDuration,
    /// Blocks of asynchronous read-ahead (0 disables).
    pub read_ahead: usize,
    /// Use the READDIRLOOKUP extension: directory listings prime the
    /// name and attribute caches in one RPC (Future Directions).
    pub use_readdir_lookup: bool,
    /// Client buffer cache capacity in blocks.
    pub bufcache_blocks: usize,
    /// NQNFS lease mount mode: RPCs go out under [`NQNFS_VERSION`], the
    /// client acquires read/write leases from the server and, under a
    /// valid write lease, holds dirty blocks past `close()`
    /// (write-behind) and trusts attr/data caches without revalidation.
    pub lease: bool,
    /// Planted-mutant hook: keep trusting cached data and attributes
    /// past the lease expiry (no sweep, no invalidation). The soak
    /// oracle must catch this as a staleness violation.
    pub lease_ignore_expiry: bool,
}

impl ClientConfig {
    /// The 4.3BSD Reno client defaults.
    pub fn reno() -> Self {
        ClientConfig {
            write_policy: WritePolicy::Async,
            push_on_close: true,
            consistency: true,
            assume_own_writes: false,
            dirty_region_tracking: true,
            name_cache: true,
            attr_timeout: SimDuration::from_secs(5),
            read_ahead: 1,
            use_readdir_lookup: false,
            bufcache_blocks: 128,
            lease: false,
            lease_ignore_expiry: false,
        }
    }

    /// Reno mounted in NQNFS lease mode: delayed writes held past close
    /// under a write lease (write-behind), caches trusted while a lease
    /// is valid, and classic close-to-open behaviour as the fallback
    /// whenever a lease cannot be had.
    pub fn reno_lease() -> Self {
        ClientConfig {
            lease: true,
            write_policy: WritePolicy::Delayed,
            ..Self::reno()
        }
    }

    /// Reno without push-on-close (Table 2's "Reno-nopush").
    pub fn reno_nopush() -> Self {
        ClientConfig {
            push_on_close: false,
            ..Self::reno()
        }
    }

    /// Reno with the experimental noconsist mount flag.
    pub fn reno_noconsist() -> Self {
        ClientConfig {
            consistency: false,
            push_on_close: false,
            write_policy: WritePolicy::Delayed,
            ..Self::reno()
        }
    }

    /// The Ultrix 2.2 client model: no name cache, trusts its own
    /// writes, no dirty-region tracking advantage (approximated by the
    /// same block machinery).
    pub fn ultrix() -> Self {
        ClientConfig {
            name_cache: false,
            assume_own_writes: true,
            dirty_region_tracking: false,
            ..Self::reno()
        }
    }
}

/// Client-side errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The server returned an NFS error.
    Nfs(NfsStatus),
    /// The reply was malformed or the RPC was rejected.
    Protocol,
    /// A soft mount's `retrans` budget ran out with no reply — the
    /// `ETIMEDOUT` a BSD soft mount hands the application. Hard mounts
    /// never return this; their RPCs block until the server answers.
    TimedOut,
    /// The server answered `NFSERR_STALE`: the file handle predates the
    /// server's last reboot (or the inode was recycled). The client
    /// recovers transparently by re-looking-up the path; this error
    /// only reaches the application when recovery itself fails.
    Stale,
}

impl From<NfsStatus> for ClientError {
    fn from(s: NfsStatus) -> Self {
        match s {
            NfsStatus::Stale => ClientError::Stale,
            s => ClientError::Nfs(s),
        }
    }
}

impl From<crate::syscalls::RpcError> for ClientError {
    fn from(e: crate::syscalls::RpcError) -> Self {
        match e {
            crate::syscalls::RpcError::TimedOut => ClientError::TimedOut,
        }
    }
}

impl From<renofs_xdr::XdrError> for ClientError {
    fn from(_: renofs_xdr::XdrError) -> Self {
        ClientError::Protocol
    }
}

/// Result alias.
pub type CResult<T> = Result<T, ClientError>;

struct VnodeState {
    fh: FileHandle,
    cached_mtime: Option<SimTime>,
    wrote: bool,
    /// A consistency flush is owed but blocks were dirty (or writes in
    /// flight) when the mtime change arrived; applied at the next
    /// validation, as the BSD code does.
    needs_flush: bool,
    size: u32,
    /// Highest byte this client has written since the last accepted
    /// external change/truncate: server attributes may lag local writes
    /// (in-flight biods, delayed blocks) and must never shrink the file
    /// below this watermark.
    write_high: u32,
    /// Where in the client's path arena (`ClientFs::paths`) the path
    /// this vnode was opened under lies, kept for ESTALE recovery: when
    /// the server reboots its handles go stale and the client re-derives
    /// a fresh one by walking this path from the root.
    path: Option<Range<usize>>,
}

/// One asynchronous WRITE in flight. The pushed byte range is recorded
/// so a reply of `NFSERR_STALE` (server rebooted under the write) can be
/// re-sent from the still-cached block under a fresh handle.
#[derive(Clone, Copy)]
struct PendingWrite {
    token: VnodeId,
    ticket: Ticket,
    blk: u64,
    d0: usize,
    d1: usize,
}

/// The client filesystem instance (one mount).
pub struct ClientFs<S: Syscalls> {
    sys: S,
    cfg: ClientConfig,
    root: FileHandle,
    machine: &'static str,
    next_xid: u32,
    vnodes: IntMap<VnodeId, VnodeState>,
    namecache: NameCache,
    attrcache: AttrCache,
    bufcache: BufCache,
    readdir_cache: IntMap<VnodeId, Vec<DirEntry>>,
    /// The storage of the last listing dropped from `readdir_cache`,
    /// cleared, for the next directory listed.
    spare_listing: Vec<DirEntry>,
    /// Every vnode's recorded path, end to end; `VnodeState::path` is a
    /// range into it.
    paths: String,
    pending_reads: IntMap<(VnodeId, u64), Ticket>,
    /// Asynchronous WRITEs in flight, every file's, in the order sent.
    pending_writes: Vec<PendingWrite>,
    /// Recycled scratch: the writes a drain takes out of
    /// `pending_writes` with their payload snapshots, the block list a
    /// push walks, and the payload a synchronous WRITE stages.
    spare_drain: Vec<(PendingWrite, Option<(u32, MbufChain)>)>,
    spare_blocks: Vec<u64>,
    spare_payload: Vec<u8>,
    /// NQNFS leases held and recalls pending (empty unless `cfg.lease`).
    leases: ClientLeases,
    counts: RpcCounts,
    meter: CopyMeter,
}

impl<S: Syscalls> ClientFs<S> {
    /// Mounts the export whose root handle is `root`.
    pub fn mount(sys: S, cfg: ClientConfig, root: FileHandle, machine: &'static str) -> Self {
        let mut namecache = NameCache::new(256);
        namecache.set_enabled(cfg.name_cache);
        ClientFs {
            sys,
            cfg,
            root,
            machine,
            next_xid: 1,
            vnodes: IntMap::default(),
            namecache,
            attrcache: AttrCache::new(cfg.attr_timeout),
            bufcache: BufCache::new(CacheOrg::PerVnodeChains, cfg.bufcache_blocks),
            readdir_cache: IntMap::default(),
            spare_listing: Vec::new(),
            paths: String::new(),
            pending_reads: IntMap::default(),
            pending_writes: Vec::new(),
            spare_drain: Vec::new(),
            spare_blocks: Vec::new(),
            spare_payload: Vec::new(),
            leases: ClientLeases::default(),
            counts: RpcCounts::default(),
            meter: CopyMeter::new(),
        }
    }

    /// The mount's root handle.
    pub fn root(&self) -> FileHandle {
        self.root
    }

    /// Sets the base XID for this mount. Required when several client
    /// instances share one simulation so their transaction ids do not
    /// collide.
    pub fn set_xid_base(&mut self, base: u32) {
        self.next_xid = base;
    }

    /// The per-procedure RPC counters.
    pub fn counts(&self) -> RpcCounts {
        self.counts
    }

    /// The underlying syscall provider.
    pub fn sys(&mut self) -> &mut S {
        &mut self.sys
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    // ----- RPC plumbing -------------------------------------------------

    fn build_msg(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        let xid = self.next_xid;
        self.next_xid += 1;
        let vers = if self.cfg.lease {
            NQNFS_VERSION
        } else {
            NFS_VERSION
        };
        let mut msg = MbufChain::with_leading_space(64);
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers,
            proc: proc.to_wire(),
            auth: AuthUnix::root(self.machine),
        }
        .encode(&mut msg, &mut self.meter);
        build(&mut msg, &mut self.meter);
        self.counts.inc(proc);
        self.sys.charge_cpu(costs::CLIENT_RPC_FIXED);
        msg
    }

    fn call(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> CResult<MbufChain> {
        let msg = self.build_msg(proc, build);
        Ok(self.sys.rpc(proc, msg)?)
    }

    fn call_async(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> Ticket {
        let msg = self.build_msg(proc, build);
        self.sys.rpc_async(proc, msg)
    }

    /// One synchronous RPC: the call, the reply header, then `decode`'s
    /// results, whose error status becomes the [`ClientError`].
    fn rpc<T, E: Into<ClientError>>(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
        decode: impl FnOnce(&mut XdrDecoder<'_>) -> Result<Result<T, E>, XdrError>,
    ) -> CResult<T> {
        let reply = self.call(proc, build)?;
        let mut dec = self.open_reply(&reply)?;
        decode(&mut dec)?.map_err(Into::into)
    }

    /// Decodes a reply header and, on an NQNFS mount, harvests the
    /// recall trailer (one inode number after every successful reply;
    /// zero means nothing pending) before handing back a decoder
    /// positioned at the procedure results. Recalls are only queued
    /// here; they are acted on at the next syscall entry.
    fn open_reply<'a>(&mut self, reply: &'a MbufChain) -> CResult<XdrDecoder<'a>> {
        let mut dec = XdrDecoder::new(reply);
        let header = ReplyHeader::decode(&mut dec).map_err(|_| ClientError::Protocol)?;
        if header.stat != AcceptStat::Success {
            return Err(ClientError::Protocol);
        }
        if self.cfg.lease {
            let recall = dec.get_u32().map_err(|_| ClientError::Protocol)?;
            self.leases.on_trailer(recall);
        }
        Ok(dec)
    }

    // ----- attributes and consistency ------------------------------------

    fn vnode(&mut self, fh: FileHandle) -> &mut VnodeState {
        self.vnodes
            .entry(fh.vnode_token())
            .or_insert_with(|| VnodeState {
                fh,
                cached_mtime: None,
                wrote: false,
                needs_flush: false,
                size: 0,
                write_high: 0,
                path: None,
            })
    }

    /// The freshest known handle for a vnode: recovery after a server
    /// reboot updates the stored handle in place, so callers holding a
    /// pre-reboot handle are redirected to the live one.
    fn current_fh(&self, fh: FileHandle) -> FileHandle {
        self.vnodes
            .get(&fh.vnode_token())
            .map(|v| v.fh)
            .unwrap_or(fh)
    }

    /// Records the path a handle was resolved under, for ESTALE
    /// recovery, at the end of the path arena. A re-open under the same
    /// path stores nothing.
    fn remember_path(&mut self, fh: FileHandle, path: &str) {
        if let Some(r) = self.vnode(fh).path.clone() {
            if self.paths[r] == *path {
                return;
            }
        }
        if self.paths.len() + path.len() > self.paths.capacity() {
            self.compact_paths(path.len());
        }
        let start = self.paths.len();
        self.paths.push_str(path);
        self.vnode(fh).path = Some(start..self.paths.len());
    }

    /// The path recorded for `token`'s vnode, if any.
    fn recorded_path(&self, token: VnodeId) -> Option<&str> {
        let r = self.vnodes.get(&token)?.path.clone()?;
        Some(&self.paths[r])
    }

    /// Moves the paths still recorded into a fresh arena with room for
    /// twice them and `more` bytes: what re-recorded paths and dropped
    /// vnodes left behind is reclaimed whenever the arena fills, so it
    /// stays within twice the paths live then.
    fn compact_paths(&mut self, more: usize) {
        let live: usize = (self.vnodes.values())
            .filter_map(|v| v.path.as_ref().map(|r| r.len()))
            .sum();
        let mut arena = String::with_capacity(2 * (live + more));
        for r in self.vnodes.values_mut().filter_map(|v| v.path.as_mut()) {
            let start = arena.len();
            arena.push_str(&self.paths[r.clone()]);
            *r = start..arena.len();
        }
        self.paths = arena;
    }

    /// Processes freshly arrived attributes: the mtime-based consistency
    /// decision the paper describes, then attribute caching.
    ///
    /// `own_write` marks attributes piggybacked on this client's own
    /// WRITE replies. 4.3BSD Reno flushes on any mtime change — it
    /// cannot tell its own modifications from another client's — while
    /// the Ultrix model (`assume_own_writes`) trusts its cache across
    /// them; that single decision is the Table 3 read-count difference.
    fn receive_attrs(&mut self, fh: FileHandle, attr: &Vattr, own_write: bool) {
        let token = fh.vnode_token();
        let now = self.sys.now();
        // Under a valid lease nobody else can have changed the file (the
        // server recalls before admitting a conflicting writer), so an
        // mtime change can only be our own flush landing: no purge.
        let leased = self.lease_valid(fh.ino, false);
        let consistency = self.cfg.consistency && !leased;
        let assume_own = self.cfg.assume_own_writes;
        let has_pending = self.pending_writes.iter().any(|pw| pw.token == token);
        let dirty = self.bufcache.has_dirty(token);
        let vn = self.vnode(fh);
        let mut flush = false;
        if consistency {
            if let Some(m) = vn.cached_mtime {
                if m != attr.mtime && !(assume_own && (own_write || vn.wrote)) {
                    flush = true;
                }
            }
        }
        vn.cached_mtime = Some(attr.mtime);
        if !own_write && !assume_own {
            // Reno: a validated attribute load settles the file's state.
            // The Ultrix model keeps trusting files it has written.
            vn.wrote = false;
        }
        // Server attributes may lag our own writes (in-flight biods,
        // delayed blocks, replies arriving out of order), so the size is
        // floored by the local write watermark. An accepted *external*
        // change resets the watermark: the server is authoritative then.
        if flush && !own_write {
            vn.write_high = 0;
            vn.size = attr.size;
        } else {
            vn.size = attr.size.max(vn.write_high);
        }
        if flush {
            self.purge_clean_blocks(token);
            if dirty || has_pending {
                // Blocks still being written survive the purge but are
                // owed an invalidation at the next validation point.
                self.vnode(fh).needs_flush = true;
            }
        }
        self.attrcache.put(token, *attr, now);
    }

    /// Drops what a consistency flush invalidates: clean blocks, the
    /// read-aheads in flight (their data predates the flush) and, for a
    /// directory, its cached listing.
    fn purge_clean_blocks(&mut self, token: VnodeId) {
        self.bufcache.purge_clean(token);
        self.forget_reads(token);
        self.forget_listing(token);
    }

    /// Drops `token`'s cached listing, parking its storage for the next
    /// directory listed (the larger of it and what is parked already).
    fn forget_listing(&mut self, token: VnodeId) {
        if let Some(mut listing) = self.readdir_cache.remove(&token) {
            if listing.capacity() > self.spare_listing.capacity() {
                listing.clear();
                self.spare_listing = listing;
            }
        }
    }

    /// Forgets the read-aheads in flight for `token`.
    fn forget_reads(&mut self, token: VnodeId) {
        let sys = &mut self.sys;
        self.pending_reads.retain(|&(t, _), &mut ticket| {
            if t == token {
                sys.forget_ticket(ticket);
            }
            t != token
        });
    }

    /// Attributes, from cache or via GETATTR, recovering transparently
    /// from a stale handle when the vnode's path is known.
    pub fn getattr_validated(&mut self, fh: FileHandle) -> CResult<Vattr> {
        match self.getattr_inner(fh) {
            Err(ClientError::Stale) => {
                let fh = self.recover_stale_fh(fh)?;
                self.getattr_inner(fh)
            }
            r => r,
        }
    }

    fn getattr_inner(&mut self, fh: FileHandle) -> CResult<Vattr> {
        let token = fh.vnode_token();
        if self.lease_valid(fh.ino, false) {
            // Under a valid lease the server recalls before anyone may
            // change the file: cached attributes stay good past the
            // attribute timeout, no revalidation GETATTR needed.
            if let Some(a) = self.attrcache.peek(token).copied() {
                return Ok(a);
            }
        }
        let now = self.sys.now();
        if let Some(a) = self.attrcache.get(token, now) {
            return Ok(a);
        }
        let attr = self.rpc(
            NfsProc::Getattr,
            |c, m| proto::build::handle_args(c, m, &fh),
            results::get_attrstat,
        )?;
        self.receive_attrs(fh, &attr, false);
        Ok(attr)
    }

    /// A directory's contents changed under this client: its attributes
    /// and its cached listing are no longer good.
    fn dir_changed(&mut self, dir: FileHandle) {
        self.attrcache.invalidate(dir.vnode_token());
        self.forget_listing(dir.vnode_token());
    }

    /// Syscall entry: the fixed CPU charge, then lease housekeeping.
    fn enter(&mut self) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()
    }

    /// Gets attributes for a path (the stat(2) syscall).
    pub fn stat(&mut self, path: &str) -> CResult<Vattr> {
        self.enter()?;
        self.with_stale_retry(|c| {
            let fh = c.lookup_path(path)?;
            c.getattr_validated(fh)
        })
    }

    /// The consistency work done before reading: 4.3BSD Reno pushes all
    /// dirty blocks first (it cannot tell its own mtime changes from
    /// other clients'), then revalidates attributes; a changed mtime
    /// flushes the cache. The Ultrix model trusts its own writes; the
    /// noconsist flag skips everything.
    fn validate_for_read(&mut self, fh: FileHandle) -> CResult<()> {
        // A held lease IS the consistency protocol: no push-before-read
        // and no revalidation while it holds.
        if self.lease_valid(fh.ino, false) || !self.cfg.consistency {
            return Ok(());
        }
        let token = fh.vnode_token();
        let has_dirty = self.bufcache.has_dirty(token);
        let wrote = self.vnodes.get(&token).is_some_and(|v| v.wrote);
        if !self.cfg.assume_own_writes && (has_dirty || wrote) {
            self.push_dirty(fh, true)?;
            self.drain_writes(fh)?;
        }
        self.getattr_validated(fh)?;
        self.apply_pending_flush(fh);
        Ok(())
    }

    /// Applies a deferred consistency flush once no dirty data remains.
    fn apply_pending_flush(&mut self, fh: FileHandle) {
        let token = fh.vnode_token();
        let owed = self.vnodes.get(&token).is_some_and(|v| v.needs_flush);
        if !owed || self.bufcache.has_dirty(token) {
            return;
        }
        self.purge_clean_blocks(token);
        self.vnode(fh).needs_flush = false;
    }
}

#[cfg(test)]
mod tests {
    use renofs_vfs::BLOCK_SIZE;

    use super::*;
    use crate::server::{NfsServer, ServerConfig};
    use crate::syscalls::Loopback;

    fn client(cfg: ClientConfig) -> ClientFs<Loopback> {
        let server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let root = server.root_handle();
        ClientFs::mount(Loopback::new(server), cfg, root, "uvax1")
    }

    fn client_with_tree(cfg: ClientConfig) -> ClientFs<Loopback> {
        let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let root_ino = server.fs().root();
        let t0 = SimTime::ZERO;
        let sub = server.fs_mut().mkdir(root_ino, "src", 0o755, t0).unwrap();
        for i in 0..8 {
            let f = server
                .fs_mut()
                .create(sub, &format!("file{i}.c"), 0o644, t0)
                .unwrap();
            server
                .fs_mut()
                .write(
                    f,
                    0,
                    format!("contents of file {i}\n").repeat(100).as_bytes(),
                    t0,
                )
                .unwrap();
        }
        let root = server.root_handle();
        ClientFs::mount(Loopback::new(server), cfg, root, "uvax1")
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut c = client(ClientConfig::reno());
        let fh = c.open("/new.txt", true, false).unwrap();
        c.write(fh, 0, b"hello nfs world").unwrap();
        c.close(fh).unwrap();
        let data = c.read(fh, 0, 100).unwrap();
        assert_eq!(data, b"hello nfs world");
    }

    #[test]
    fn large_file_round_trip_across_blocks() {
        let mut c = client(ClientConfig::reno());
        let fh = c.open("/big.bin", true, false).unwrap();
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        c.write(fh, 0, &payload).unwrap();
        c.close(fh).unwrap();
        let got = c.read(fh, 0, 60_000).unwrap();
        assert_eq!(got, payload);
        // Offset reads too.
        let mid = c.read(fh, 12_345, 7_000).unwrap();
        assert_eq!(mid, &payload[12_345..19_345]);
    }

    #[test]
    fn name_cache_cuts_lookups() {
        let mut with = client_with_tree(ClientConfig::reno());
        let mut without = client_with_tree(ClientConfig {
            name_cache: false,
            ..ClientConfig::reno()
        });
        for c in [&mut with, &mut without] {
            for _ in 0..10 {
                let _ = c.stat("/src/file3.c").unwrap();
            }
        }
        let with_lookups = with.counts().count(NfsProc::Lookup);
        let without_lookups = without.counts().count(NfsProc::Lookup);
        assert!(
            with_lookups * 2 <= without_lookups,
            "name cache should halve lookups: {with_lookups} vs {without_lookups}"
        );
    }

    #[test]
    fn resolve_parent_matches_the_collecting_body_it_replaced() {
        /// `resolve_parent` as it was, collecting the components and
        /// copying the last.
        fn old(c: &mut ClientFs<Loopback>, path: &str) -> CResult<(FileHandle, String)> {
            let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
            let Some((last, parents)) = comps.split_last() else {
                return Err(ClientError::Nfs(NfsStatus::Acces));
            };
            let mut at = c.root;
            for comp in parents {
                at = c.lookup_component(at, comp)?;
            }
            Ok((at, last.to_string()))
        }
        let paths = [
            "",
            "/",
            "//",
            "a",
            "/a",
            "/a/b/",
            "//a//b",
            "src",
            "/src/",
            "/src/x",
            "src//x//",
            "/src/file1.c/x",
            "/nope/x",
            "/src/nope/x",
            "/src/file2.c",
        ];
        for path in paths {
            let (mut was, mut now) = (
                client_with_tree(ClientConfig::reno()),
                client_with_tree(ClientConfig::reno()),
            );
            let want = old(&mut was, path);
            let got = now
                .resolve_parent(path)
                .map(|(fh, name)| (fh, name.to_string()));
            assert_eq!(got, want, "{path:?}");
            let lookups = |c: &ClientFs<Loopback>| c.counts().count(NfsProc::Lookup);
            assert_eq!(lookups(&now), lookups(&was), "{path:?}");
        }
    }

    #[test]
    fn attr_cache_times_out_after_5s() {
        let mut c = client_with_tree(ClientConfig::reno());
        let _ = c.stat("/src/file0.c").unwrap();
        let g1 = c.counts().count(NfsProc::Getattr);
        let _ = c.stat("/src/file0.c").unwrap();
        assert_eq!(c.counts().count(NfsProc::Getattr), g1, "within 5s: cached");
        c.sys().advance(SimDuration::from_secs(6));
        let _ = c.stat("/src/file0.c").unwrap();
        assert!(
            c.counts().count(NfsProc::Getattr) > g1,
            "expired attrs need a GETATTR"
        );
    }

    #[test]
    fn data_cache_avoids_repeat_reads() {
        let mut c = client_with_tree(ClientConfig::reno());
        let fh = c.open("/src/file1.c", false, false).unwrap();
        let _ = c.read(fh, 0, 1000).unwrap();
        let reads1 = c.counts().count(NfsProc::Read);
        let _ = c.read(fh, 0, 1000).unwrap();
        assert_eq!(c.counts().count(NfsProc::Read), reads1, "served from cache");
    }

    #[test]
    fn partial_write_needs_no_preread() {
        let mut c = client_with_tree(ClientConfig::reno());
        let fh = c.open("/src/file2.c", false, false).unwrap();
        let reads_before = c.counts().count(NfsProc::Read);
        // Overwrite bytes in the middle of block 0 without reading.
        c.write(fh, 100, b"PATCHED").unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Read),
            reads_before,
            "dirty-region tracking avoids the pre-read"
        );
        c.close(fh).unwrap();
        let data = c.read(fh, 95, 20).unwrap();
        assert_eq!(&data[5..12], b"PATCHED");
    }

    #[test]
    fn write_through_pushes_every_write() {
        let mut c = client(ClientConfig {
            write_policy: WritePolicy::WriteThrough,
            ..ClientConfig::reno()
        });
        let fh = c.open("/wt.bin", true, false).unwrap();
        for i in 0..5u32 {
            c.write(fh, i * 100, &[1u8; 100]).unwrap();
        }
        assert_eq!(c.counts().count(NfsProc::Write), 5);
    }

    #[test]
    fn delayed_policy_coalesces_writes() {
        let mut c = client(ClientConfig {
            write_policy: WritePolicy::Delayed,
            ..ClientConfig::reno()
        });
        let fh = c.open("/dl.bin", true, false).unwrap();
        // Many small contiguous writes into one block.
        for i in 0..50u32 {
            c.write(fh, i * 100, &[2u8; 100]).unwrap();
        }
        assert_eq!(c.counts().count(NfsProc::Write), 0, "nothing pushed yet");
        c.close(fh).unwrap();
        // One block's dirty region = one write RPC.
        assert_eq!(c.counts().count(NfsProc::Write), 1, "coalesced on close");
    }

    #[test]
    fn async_policy_pushes_full_blocks() {
        let mut c = client(ClientConfig::reno());
        let fh = c.open("/as.bin", true, false).unwrap();
        c.write(fh, 0, &vec![3u8; 3 * BLOCK_SIZE]).unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Write),
            3,
            "each full block pushed as written"
        );
    }

    #[test]
    fn nopush_skips_close_push() {
        let mut c = client(ClientConfig {
            write_policy: WritePolicy::Delayed,
            ..ClientConfig::reno_nopush()
        });
        let fh = c.open("/np.bin", true, false).unwrap();
        c.write(fh, 0, &[4u8; 1000]).unwrap();
        c.close(fh).unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 0, "close pushed nothing");
        c.sync().unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 1, "sync pushes");
    }

    #[test]
    fn reno_pushes_dirty_before_read_and_rereads() {
        // Write then read: Reno pushes, sees a new mtime, flushes, and
        // re-reads — the Table 3 "50% more read RPCs" mechanism.
        let mut reno = client(ClientConfig {
            write_policy: WritePolicy::Delayed,
            ..ClientConfig::reno()
        });
        let fh = reno.open("/rw.bin", true, false).unwrap();
        reno.write(fh, 0, &vec![5u8; BLOCK_SIZE]).unwrap();
        let _ = reno.read(fh, 0, 100).unwrap();
        assert_eq!(reno.counts().count(NfsProc::Write), 1, "pushed before read");
        assert_eq!(
            reno.counts().count(NfsProc::Read),
            1,
            "flushed cache forced a re-read"
        );
    }

    #[test]
    fn ultrix_trusts_own_writes() {
        let mut ux = client(ClientConfig {
            write_policy: WritePolicy::Delayed,
            ..ClientConfig::ultrix()
        });
        let fh = ux.open("/rw.bin", true, false).unwrap();
        ux.write(fh, 0, &vec![5u8; BLOCK_SIZE]).unwrap();
        let _ = ux.read(fh, 0, 100).unwrap();
        assert_eq!(
            ux.counts().count(NfsProc::Read),
            0,
            "cache survives own writes"
        );
    }

    #[test]
    fn noconsist_skips_validation_and_push() {
        let mut nc = client(ClientConfig::reno_noconsist());
        let fh = nc.open("/nc.bin", true, false).unwrap();
        nc.write(fh, 0, &vec![6u8; BLOCK_SIZE]).unwrap();
        nc.close(fh).unwrap();
        assert_eq!(nc.counts().count(NfsProc::Write), 0, "no push on close");
        let _ = nc.read(fh, 0, 100).unwrap();
        assert_eq!(nc.counts().count(NfsProc::Read), 0, "cache trusted blindly");
    }

    #[test]
    fn mtime_change_by_another_client_flushes_cache() {
        let mut c = client_with_tree(ClientConfig::reno());
        let fh = c.open("/src/file4.c", false, false).unwrap();
        let before = c.read(fh, 0, 50).unwrap();
        // Another client rewrites the file server-side.
        let ino = renofs_vfs::InodeId(fh.ino);
        let later = SimTime::from_secs(500);
        c.sys()
            .server
            .fs_mut()
            .write(
                ino,
                0,
                b"NEW CONTENT FROM ELSEWHERE, LONGER THAN BEFORE!!!",
                later,
            )
            .unwrap();
        // Let the attribute cache expire so the client revalidates.
        c.sys().advance(SimDuration::from_secs(10));
        let reads_before = c.counts().count(NfsProc::Read);
        let after = c.read(fh, 0, 11).unwrap();
        assert_eq!(after, b"NEW CONTENT");
        assert_ne!(before[..11], after[..]);
        assert!(
            c.counts().count(NfsProc::Read) > reads_before,
            "flush forced a fresh READ"
        );
    }

    #[test]
    fn readahead_issues_async_reads() {
        let mut c = client(ClientConfig {
            read_ahead: 2,
            ..ClientConfig::reno()
        });
        let fh = c.open("/ra.bin", true, false).unwrap();
        c.write(fh, 0, &vec![7u8; 4 * BLOCK_SIZE]).unwrap();
        c.close(fh).unwrap();
        // Sequential read: the first read should prime read-aheads.
        let _ = c.read(fh, 0, 100).unwrap();
        let reads_now = c.counts().count(NfsProc::Read);
        assert!(
            reads_now >= 3,
            "block 0 + 2 read-aheads, got {reads_now} READs"
        );
        // Reading block 1 consumes the read-ahead, no new sync READ needed
        // beyond further look-ahead.
        let _ = c.read(fh, BLOCK_SIZE as u32, 100).unwrap();
        assert!(c.counts().count(NfsProc::Read) <= reads_now + 1);
    }

    #[test]
    fn recorded_paths_survive_compaction_and_a_long_one_recovers_a_stale_handle() {
        let mut c = client(ClientConfig::reno());
        // Three 100-byte components: a path past any inline name's 255.
        let mut dir = String::new();
        for d in ["a", "b", "c"] {
            dir = format!("{dir}/{}", d.repeat(100));
            c.mkdir(&dir).unwrap();
        }
        let long = format!("{dir}/f");
        assert!(long.len() > 255);
        let fh = c.open(&long, true, false).unwrap();
        c.write(fh, 0, b"deep").unwrap();
        c.close(fh).unwrap();
        // Files opened under 60-byte paths, every other one removed: the
        // arena fills and drops the removed files' paths.
        let name = |i: usize| format!("/{i:02}{}", "t".repeat(57));
        for i in 0..40 {
            let t = c.open(&name(i), true, false).unwrap();
            c.close(t).unwrap();
            if i % 2 == 0 {
                c.remove(&name(i)).unwrap();
            }
        }
        let recorded = 3 * 101 + 3 + 2 * 101 + 2 + 101 + 1 + long.len() + 40 * 60;
        assert!(c.paths.len() < recorded, "the arena was never compacted");
        // A re-open under the same path records nothing.
        let arena = c.paths.len();
        let again = c.open(&long, false, false).unwrap();
        assert_eq!(c.paths.len(), arena);
        assert_eq!(c.recorded_path(again.vnode_token()), Some(long.as_str()));
        for i in (1..40).step_by(2) {
            let t = c.lookup_path(&name(i)).unwrap();
            assert_eq!(c.recorded_path(t.vnode_token()), Some(name(i).as_str()));
        }
        // A reboot stales the handle; recovery walks a, b, c and f.
        c.sys().server.reboot();
        c.sys().advance(SimDuration::from_secs(6));
        let lookups = c.counts().count(NfsProc::Lookup);
        assert_eq!(c.read(again, 0, 16).unwrap(), b"deep");
        assert_eq!(c.counts().count(NfsProc::Lookup), lookups + 4);
    }

    #[test]
    fn directory_ops_and_readdir_cache() {
        let mut c = client(ClientConfig::reno());
        c.mkdir("/work").unwrap();
        let f1 = c.open("/work/a.txt", true, false).unwrap();
        c.close(f1).unwrap();
        let f2 = c.open("/work/b.txt", true, false).unwrap();
        c.close(f2).unwrap();
        let entries = c.readdir("/work").unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.txt", "b.txt"]);
        let rd1 = c.counts().count(NfsProc::Readdir);
        let _ = c.readdir("/work").unwrap();
        assert_eq!(c.counts().count(NfsProc::Readdir), rd1, "listing cached");
    }

    #[test]
    fn remove_and_rename_update_caches() {
        let mut c = client(ClientConfig::reno());
        let fh = c.open("/tmp.txt", true, false).unwrap();
        c.write(fh, 0, b"temp").unwrap();
        c.close(fh).unwrap();
        c.rename("/tmp.txt", "/kept.txt").unwrap();
        assert!(matches!(
            c.stat("/tmp.txt"),
            Err(ClientError::Nfs(NfsStatus::NoEnt))
        ));
        assert_eq!(c.stat("/kept.txt").unwrap().size, 4);
        c.remove("/kept.txt").unwrap();
        assert!(matches!(
            c.stat("/kept.txt"),
            Err(ClientError::Nfs(NfsStatus::NoEnt))
        ));
    }

    #[test]
    fn symlink_and_readlink_via_client() {
        let mut c = client(ClientConfig::reno());
        c.symlink("/ln", "/usr/lib").unwrap();
        assert_eq!(c.readlink("/ln").unwrap(), "/usr/lib");
    }

    #[test]
    fn statfs_via_client() {
        let mut c = client(ClientConfig::reno());
        let (tsize, bsize, blocks, bfree, _) = c.statfs().unwrap();
        assert_eq!(tsize, 8192);
        assert_eq!(bsize, 8192);
        assert!(blocks > 0 && bfree > 0);
    }

    #[test]
    fn disjoint_dirty_extents_force_push() {
        let mut c = client(ClientConfig {
            write_policy: WritePolicy::Delayed,
            ..ClientConfig::reno()
        });
        let fh = c.open("/gap.bin", true, false).unwrap();
        c.write(fh, 0, &[1u8; 10]).unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 0);
        // A write leaving a gap within the same (invalid) block must
        // push the first extent.
        c.write(fh, 4000, &[2u8; 10]).unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 1, "gap forced a push");
    }

    #[test]
    fn truncate_on_open() {
        let mut c = client(ClientConfig::reno());
        let fh = c.open("/t.bin", true, false).unwrap();
        c.write(fh, 0, &[9u8; 5000]).unwrap();
        c.close(fh).unwrap();
        let fh2 = c.open("/t.bin", false, true).unwrap();
        assert_eq!(c.counts().count(NfsProc::Setattr), 1);
        let data = c.read(fh2, 0, 100).unwrap();
        assert!(data.is_empty(), "file truncated");
    }

    #[test]
    fn readdir_lookup_extension_primes_caches() {
        // Enable the extension on both sides, then list-and-stat: the
        // stats should cost no LOOKUP or GETATTR RPCs at all.
        let mut server = NfsServer::new(
            ServerConfig {
                readdir_lookup: true,
                ..ServerConfig::reno()
            },
            SimTime::ZERO,
        );
        let root_ino = server.fs().root();
        for i in 0..12 {
            let f = server
                .fs_mut()
                .create(root_ino, &format!("f{i:02}"), 0o644, SimTime::ZERO)
                .unwrap();
            server.fs_mut().write(f, 0, b"x", SimTime::ZERO).unwrap();
        }
        let root = server.root_handle();
        let mut c = ClientFs::mount(
            Loopback::new(server),
            ClientConfig {
                use_readdir_lookup: true,
                ..ClientConfig::reno()
            },
            root,
            "uvax1",
        );
        let entries = c.readdir("/").unwrap();
        assert_eq!(entries.len(), 12);
        let lookups_before = c.counts().count(NfsProc::Lookup);
        let getattrs_before = c.counts().count(NfsProc::Getattr);
        for i in 0..12 {
            let a = c.stat(&format!("/f{i:02}")).unwrap();
            assert_eq!(a.size, 1);
        }
        assert_eq!(
            c.counts().count(NfsProc::Lookup),
            lookups_before,
            "entries were already in the name cache"
        );
        assert_eq!(
            c.counts().count(NfsProc::Getattr),
            getattrs_before,
            "attributes came with the listing"
        );
        assert_eq!(c.counts().count(NfsProc::ReaddirLookup), 1);
    }

    #[test]
    fn readdir_lookup_rejected_by_plain_server() {
        // A stock server answers the extension procedure with
        // PROC_UNAVAIL, which the client surfaces as a protocol error.
        let server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let root = server.root_handle();
        let mut c = ClientFs::mount(
            Loopback::new(server),
            ClientConfig {
                use_readdir_lookup: true,
                ..ClientConfig::reno()
            },
            root,
            "uvax1",
        );
        assert!(matches!(c.readdir("/"), Err(ClientError::Protocol)));
    }

    fn lease_client(cfg: ClientConfig) -> ClientFs<Loopback> {
        let server = NfsServer::new(
            ServerConfig {
                leases: true,
                ..ServerConfig::reno()
            },
            SimTime::ZERO,
        );
        let root = server.root_handle();
        ClientFs::mount(Loopback::new(server), cfg, root, "uvax1")
    }

    #[test]
    fn write_lease_holds_dirty_past_close() {
        let mut c = lease_client(ClientConfig::reno_lease());
        let fh = c.open("/wb.bin", true, false).unwrap();
        c.write(fh, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
        c.close(fh).unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Write),
            0,
            "write-behind: close pushed nothing"
        );
        // The cache stays trusted: an immediate re-read costs no RPC.
        let reads = c.counts().count(NfsProc::Read);
        let getattrs = c.counts().count(NfsProc::Getattr);
        let data = c.read(fh, 0, 100).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert_eq!(
            c.counts().count(NfsProc::Read),
            reads,
            "no push-before-read"
        );
        assert_eq!(
            c.counts().count(NfsProc::Getattr),
            getattrs,
            "no revalidation under the lease"
        );
        // The idle flush makes the data durable.
        c.flush_idle().unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 2, "idle flush pushed");
    }

    #[test]
    fn lease_remove_discards_unwritten_data() {
        let mut c = lease_client(ClientConfig::reno_lease());
        let fh = c.open("/cd.bin", true, false).unwrap();
        c.write(fh, 0, &vec![2u8; 4 * BLOCK_SIZE]).unwrap();
        c.close(fh).unwrap();
        c.remove("/cd.bin").unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Write),
            0,
            "create-write-delete of a temporary never hits the wire"
        );
        c.flush_idle().unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 0, "nothing left to flush");
    }

    #[test]
    fn lapsed_lease_is_flushed_and_swept() {
        let mut c = lease_client(ClientConfig::reno_lease());
        let fh = c.open("/exp.bin", true, false).unwrap();
        c.write(fh, 0, b"payload").unwrap();
        c.close(fh).unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 0);
        c.sys().advance(SimDuration::from_secs(4));
        // The next syscall's housekeeping sweeps the lapsed lease:
        // dirty data is flushed, then the caches revalidate classically.
        let _ = c.stat("/exp.bin").unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Write),
            1,
            "expiry sweep flushed the write-behind data"
        );
        assert!(
            c.counts().count(NfsProc::Getattr) > 0,
            "post-lapse stat revalidates over the wire"
        );
    }

    #[test]
    fn ignore_expiry_mutant_serves_stale_cache() {
        let mut c = lease_client(ClientConfig {
            lease_ignore_expiry: true,
            ..ClientConfig::reno_lease()
        });
        let fh = c.open("/mut.bin", true, false).unwrap();
        c.write(fh, 0, b"round zero").unwrap();
        c.close(fh).unwrap();
        c.sys().advance(SimDuration::from_secs(10));
        let reads = c.counts().count(NfsProc::Read);
        let writes = c.counts().count(NfsProc::Write);
        let data = c.read(fh, 0, 10).unwrap();
        assert_eq!(data, b"round zero");
        assert_eq!(
            c.counts().count(NfsProc::Read),
            reads,
            "mutant keeps serving the cache past expiry"
        );
        assert_eq!(
            c.counts().count(NfsProc::Write),
            writes,
            "mutant never flushes on expiry"
        );
    }

    #[test]
    fn recall_triggers_flush_and_release() {
        use renofs_mbuf::CopyMeter;
        use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NQNFS_VERSION};

        let mut c = lease_client(ClientConfig::reno_lease());
        let fh = c.open("/sh.bin", true, false).unwrap();
        c.write(fh, 0, b"shared data").unwrap();
        c.close(fh).unwrap();
        assert_eq!(c.counts().count(NfsProc::Write), 0, "held behind the lease");
        // Another machine asks the server for a read lease on the same
        // file: the server defers it and queues a recall for us.
        let now = c.sys().now();
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::with_leading_space(64);
        CallHeader {
            xid: 9_000,
            prog: NFS_PROGRAM,
            vers: NQNFS_VERSION,
            proc: NfsProc::Getlease.to_wire(),
            auth: AuthUnix::root("rival"),
        }
        .encode(&mut msg, &mut meter);
        proto::build::getlease_args(&mut msg, &mut meter, &fh, proto::LEASE_MODE_READ);
        let (_reply, _) = c.sys().server.service_from(now, &msg, 9);
        assert_eq!(c.sys().server.stats().leases.recalls, 1);
        // Our next RPC piggybacks the recall notice; the syscall after
        // that vacates: flush, then release.
        let _ = c.open("/other.bin", true, false).unwrap();
        let _ = c.stat("/other.bin").unwrap();
        assert_eq!(
            c.counts().count(NfsProc::Write),
            1,
            "recall flushed the write-behind data"
        );
        assert!(
            c.counts().count(NfsProc::Getlease) >= 3,
            "two grants plus the vacating release"
        );
    }

    #[test]
    fn table3_shape_on_loopback() {
        // A miniature Andrew-like pass: the orderings the paper's
        // Table 3 reports must hold even on loopback.
        let run = |cfg: ClientConfig| {
            let mut c = client_with_tree(cfg);
            // copy phase: read every file, write a copy.
            for i in 0..8 {
                let src = format!("/src/file{i}.c");
                let fh = c.open(&src, false, false).unwrap();
                let data = c.read(fh, 0, 8192).unwrap();
                c.close(fh).unwrap();
                let dst = format!("/copy{i}.c");
                let out = c.open(&dst, true, false).unwrap();
                c.write(out, 0, &data).unwrap();
                c.close(out).unwrap();
            }
            // stat phase.
            for _ in 0..3 {
                for i in 0..8 {
                    let _ = c.stat(&format!("/src/file{i}.c")).unwrap();
                }
                c.sys().advance(SimDuration::from_secs(3));
            }
            // read-back phase.
            for i in 0..8 {
                let fh = c.open(&format!("/copy{i}.c"), false, false).unwrap();
                let _ = c.read(fh, 0, 8192).unwrap();
                c.close(fh).unwrap();
            }
            c.counts()
        };
        let reno = run(ClientConfig::reno());
        let noconsist = run(ClientConfig::reno_noconsist());
        let ultrix = run(ClientConfig::ultrix());
        // Name cache: Ultrix does far more lookups.
        assert!(
            ultrix.count(NfsProc::Lookup) > reno.count(NfsProc::Lookup) * 3 / 2,
            "ultrix lookups {} vs reno {}",
            ultrix.count(NfsProc::Lookup),
            reno.count(NfsProc::Lookup)
        );
        // Push-before-read: Reno reads more than noconsist.
        assert!(
            reno.count(NfsProc::Read) > noconsist.count(NfsProc::Read),
            "reno reads {} vs noconsist {}",
            reno.count(NfsProc::Read),
            noconsist.count(NfsProc::Read)
        );
        // noconsist writes fewer RPCs than reno.
        assert!(
            reno.count(NfsProc::Write) >= noconsist.count(NfsProc::Write),
            "reno writes {} vs noconsist {}",
            reno.count(NfsProc::Write),
            noconsist.count(NfsProc::Write)
        );
    }
}

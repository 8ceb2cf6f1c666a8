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

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};
use renofs_sunrpc::{
    AcceptStat, AuthUnix, CallHeader, ReplyHeader, NFS_PROGRAM, NFS_VERSION, NQNFS_VERSION,
};
use renofs_vfs::{AttrCache, Buf, BufCache, CacheOrg, NameCache, Vattr, VnodeId, BLOCK_SIZE};
use renofs_xdr::XdrDecoder;

use crate::costs;
use crate::proto::{
    self, results, DirEntry, FileHandle, NfsProc, NfsStatus, Sattr, LEASE_MODE_READ,
    LEASE_MODE_RELEASE, LEASE_MODE_WRITE,
};
use crate::syscalls::{Syscalls, Ticket};

/// Pacing of retries after the server answers `NQNFS_TRYLATER`: the
/// requester is waiting out a vacate (the server recalling a conflicting
/// lease) or the post-reboot grace period.
const LEASE_RETRY_STEP: SimDuration = SimDuration::from_millis(200);

/// Retry bound (~8 s of virtual time): comfortably longer than a full
/// vacate wait (one lease term) or a post-reboot grace period, after
/// which the client gives up on the lease and falls back to classic
/// close-to-open behaviour.
const LEASE_RETRY_MAX: u32 = 40;

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
    /// Read transfer size.
    pub rsize: usize,
    /// Write transfer size.
    pub wsize: usize,
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
            rsize: proto::NFS_MAXDATA,
            wsize: proto::NFS_MAXDATA,
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

/// Per-procedure RPC counters (Table 3's instrument).
#[derive(Clone, Copy, Debug, Default)]
pub struct RpcCounts {
    counts: [u64; 20],
}

impl RpcCounts {
    fn inc(&mut self, proc: NfsProc) {
        self.counts[proc.to_wire() as usize] += 1;
    }

    /// Calls of one procedure.
    pub fn count(&self, proc: NfsProc) -> u64 {
        self.counts[proc.to_wire() as usize]
    }

    /// Total calls.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another counter set into this one (aggregating the mounts
    /// of a sharded fleet into one Table 3 view).
    pub fn absorb(&mut self, other: &RpcCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The "Other" row of Table 3: everything except the six listed
    /// procedures.
    pub fn other(&self) -> u64 {
        self.total()
            - self.count(NfsProc::Getattr)
            - self.count(NfsProc::Setattr)
            - self.count(NfsProc::Read)
            - self.count(NfsProc::Write)
            - self.count(NfsProc::Lookup)
            - self.count(NfsProc::Readdir)
    }
}

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
    /// The path this vnode was opened under, kept for ESTALE recovery:
    /// when the server reboots its handles go stale and the client
    /// re-derives a fresh one by walking this path from the root.
    path: Option<String>,
}

/// One NQNFS lease held from the server, keyed by inode number (the
/// unit the server's lease table uses). `expiry` is conservative: the
/// grant's send time plus the term, never extended by the renewals the
/// server applies to our normal RPCs — the client may only ever
/// under-estimate how long it holds a lease, so a lapse on our side is
/// always at or before the server's.
#[derive(Clone, Copy, Debug)]
struct ClientLease {
    fh: FileHandle,
    write: bool,
    expiry: SimTime,
}

/// One asynchronous WRITE in flight. The pushed byte range is recorded
/// so a reply of `NFSERR_STALE` (server rebooted under the write) can be
/// re-sent from the still-cached block under a fresh handle.
struct PendingWrite {
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
    vnodes: HashMap<VnodeId, VnodeState>,
    namecache: NameCache,
    attrcache: AttrCache,
    bufcache: BufCache,
    readdir_cache: HashMap<VnodeId, Vec<DirEntry>>,
    pending_reads: HashMap<(VnodeId, u64), Ticket>,
    pending_writes: HashMap<VnodeId, Vec<PendingWrite>>,
    /// Leases held, by inode number. A BTreeMap so the expiry sweep and
    /// idle flush iterate in a deterministic order.
    leases: BTreeMap<u32, ClientLease>,
    /// Recall notices harvested from NQNFS reply trailers, processed at
    /// the next syscall entry.
    recall_queue: VecDeque<u32>,
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
            vnodes: HashMap::new(),
            namecache,
            attrcache: AttrCache::new(cfg.attr_timeout),
            bufcache: BufCache::new(CacheOrg::PerVnodeChains, cfg.bufcache_blocks),
            readdir_cache: HashMap::new(),
            pending_reads: HashMap::new(),
            pending_writes: HashMap::new(),
            leases: BTreeMap::new(),
            recall_queue: VecDeque::new(),
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
        msg
    }

    fn call(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> CResult<MbufChain> {
        let msg = self.build_msg(proc, build);
        self.counts.inc(proc);
        self.sys.charge_cpu(costs::CLIENT_RPC_FIXED);
        let reply = self.sys.rpc(proc, msg)?;
        Ok(reply)
    }

    fn call_async(
        &mut self,
        proc: NfsProc,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> Ticket {
        let msg = self.build_msg(proc, build);
        self.counts.inc(proc);
        self.sys.charge_cpu(costs::CLIENT_RPC_FIXED);
        self.sys.rpc_async(proc, msg)
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
            if recall != 0 && !self.recall_queue.contains(&recall) {
                self.recall_queue.push_back(recall);
            }
        }
        Ok(dec)
    }

    // ----- attribute handling -------------------------------------------

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
    /// recovery. Skips the store when unchanged so steady-state opens
    /// stay allocation-free.
    fn remember_path(&mut self, fh: FileHandle, path: &str) {
        let vn = self.vnode(fh);
        match &vn.path {
            Some(p) if p == path => {}
            _ => vn.path = Some(path.to_string()),
        }
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
        let has_pending = self
            .pending_writes
            .get(&token)
            .map(|v| !v.is_empty())
            .unwrap_or(false);
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
        let dirty = !self.bufcache.dirty_blocks(token).is_empty();
        let vn = self.vnode(fh);
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
        let _ = (dirty, has_pending);
        if flush {
            self.purge_clean_blocks(token);
            self.readdir_cache.remove(&token);
            if dirty || has_pending {
                // Blocks still being written survive the purge but are
                // owed an invalidation at the next validation point.
                self.vnode(fh).needs_flush = true;
            }
        }
        self.attrcache.put(token, *attr, now);
    }

    fn purge_clean_blocks(&mut self, token: VnodeId) {
        let dirty: HashSet<u64> = self.bufcache.dirty_blocks(token).into_iter().collect();
        for blk in self.bufcache.cached_blocks(token) {
            if !dirty.contains(&blk) {
                self.bufcache.remove(token, blk);
            }
        }
        // Discard read-aheads in flight for this vnode: their data
        // predates the flush.
        let stale: Vec<(VnodeId, u64)> = self
            .pending_reads
            .keys()
            .filter(|(t, _)| *t == token)
            .copied()
            .collect();
        for key in stale {
            if let Some(t) = self.pending_reads.remove(&key) {
                self.sys.forget_ticket(t);
            }
        }
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
        let reply = self.call(NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &fh)
        })?;
        let mut dec = self.open_reply(&reply)?;
        let attr = results::get_attrstat(&mut dec)??;
        self.receive_attrs(fh, &attr, false);
        Ok(attr)
    }

    // ----- ESTALE recovery ----------------------------------------------

    /// Drops every cached attribute so post-reboot validations go to the
    /// wire (where stale handles are detected and refreshed) instead of
    /// trusting entries that may carry a pre-reboot handle's epoch.
    fn stale_purge(&mut self) {
        let tokens: Vec<VnodeId> = self.vnodes.keys().copied().collect();
        for t in tokens {
            self.attrcache.invalidate(t);
        }
    }

    /// Re-derives a fresh handle for a vnode whose handle the server
    /// declared stale, by walking its recorded path from the mount root
    /// (which the MOUNT protocol keeps valid across reboots). The vnode
    /// — and its cached blocks — survive, because the token (inode,
    /// generation) is unchanged across a reboot; only the handle's boot
    /// epoch differs. Fails with [`ClientError::Stale`] when no path
    /// was recorded or the path now names a different file.
    fn recover_stale_fh(&mut self, fh: FileHandle) -> CResult<FileHandle> {
        let token = fh.vnode_token();
        let Some(path) = self.vnodes.get(&token).and_then(|v| v.path.clone()) else {
            return Err(ClientError::Stale);
        };
        self.stale_purge();
        let mut at = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            at = self.lookup_rpc(at, comp)?.0;
        }
        if at.vnode_token() != token {
            // The name now binds to a different inode: the file this
            // handle described is genuinely gone.
            self.drop_vnode(token);
            return Err(ClientError::Stale);
        }
        Ok(at)
    }

    /// Runs `f`, and on [`ClientError::Stale`] purges cached attributes
    /// and retries once: the rerun re-walks its paths from the root,
    /// picking up fresh handles along the way.
    fn with_stale_retry<T>(&mut self, mut f: impl FnMut(&mut Self) -> CResult<T>) -> CResult<T> {
        match f(self) {
            Err(ClientError::Stale) => {
                self.stale_purge();
                f(self)
            }
            r => r,
        }
    }

    // ----- NQNFS leases -------------------------------------------------

    /// Whether a held lease on `ino` still covers `write`-strength
    /// access. Under the planted `lease_ignore_expiry` mutant the expiry
    /// check is skipped — exactly the bug the soak oracle must catch.
    fn lease_valid(&mut self, ino: u32, write: bool) -> bool {
        if !self.cfg.lease {
            return false;
        }
        let now = self.sys.now();
        match self.leases.get(&ino) {
            Some(l) if l.write || !write => self.cfg.lease_ignore_expiry || now < l.expiry,
            _ => false,
        }
    }

    /// One GETLEASE RPC. A grant doubles as a GETATTR: the reply carries
    /// the term alongside fresh attributes.
    fn getlease_rpc(&mut self, fh: FileHandle, mode: u32) -> CResult<(u32, Option<Vattr>)> {
        let reply = self.call(NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, mode)
        })?;
        let mut dec = self.open_reply(&reply)?;
        Ok(results::get_leaseres(&mut dec)??)
    }

    /// Acquires (or upgrades to) a lease on `fh`, waiting out a bounded
    /// number of `try_later` deferrals — the server's vacate wait while
    /// it recalls conflicting holders, or its post-reboot grace period.
    /// Returns `false` when no lease could be had; the caller then falls
    /// back to classic close-to-open behaviour.
    fn lease_acquire(&mut self, fh: FileHandle, write: bool) -> CResult<bool> {
        if !self.cfg.lease {
            return Ok(false);
        }
        self.lease_service()?;
        if self.lease_valid(fh.ino, write) {
            return Ok(true);
        }
        let mode = if write {
            LEASE_MODE_WRITE
        } else {
            LEASE_MODE_READ
        };
        for _ in 0..LEASE_RETRY_MAX {
            let sent = self.sys.now();
            match self.getlease_rpc(fh, mode) {
                Ok((term_ms, attr)) => {
                    // Fold the grant's attributes in *before* recording
                    // the lease: a lease promises future stability, not
                    // that data cached before it was granted is fresh —
                    // the classic mtime comparison must still run here.
                    if let Some(a) = attr {
                        self.receive_attrs(fh, &a, false);
                    }
                    self.leases.insert(
                        fh.ino,
                        ClientLease {
                            fh,
                            write,
                            expiry: sent + SimDuration::from_millis(term_ms as u64),
                        },
                    );
                    return Ok(true);
                }
                Err(ClientError::Nfs(NfsStatus::TryLater)) => {
                    self.sys.sleep(LEASE_RETRY_STEP);
                    self.lease_service()?;
                }
                Err(ClientError::TimedOut) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Lease housekeeping, run at syscall entry: delivers queued recall
    /// notices (flush dirty write-behind data, release, invalidate) and
    /// sweeps lapsed leases (flush, drop, invalidate) so the next access
    /// revalidates classically.
    fn lease_service(&mut self) -> CResult<()> {
        if !self.cfg.lease {
            return Ok(());
        }
        while let Some(ino) = self.recall_queue.pop_front() {
            let Some(l) = self.leases.get(&ino).copied() else {
                // Already released (or a duplicate-cache replay of an
                // old trailer): nothing to vacate.
                continue;
            };
            if l.write {
                self.push_dirty(l.fh, true)?;
                self.drain_writes(l.fh)?;
            }
            self.getlease_rpc(l.fh, LEASE_MODE_RELEASE)?;
            self.leases.remove(&ino);
            self.lease_invalidate(l.fh);
        }
        if self.cfg.lease_ignore_expiry {
            return Ok(());
        }
        let now = self.sys.now();
        let lapsed: Vec<ClientLease> = self
            .leases
            .values()
            .filter(|l| now >= l.expiry)
            .copied()
            .collect();
        for l in lapsed {
            if l.write {
                self.push_dirty(l.fh, true)?;
                self.drain_writes(l.fh)?;
            }
            self.leases.remove(&l.fh.ino);
            self.lease_invalidate(l.fh);
        }
        Ok(())
    }

    /// After losing a lease the cache contents are only as good as
    /// classic NFS: drop the attributes and clean blocks so the next
    /// access goes back to the wire.
    fn lease_invalidate(&mut self, fh: FileHandle) {
        let token = fh.vnode_token();
        self.attrcache.invalidate(token);
        self.purge_clean_blocks(token);
    }

    /// Pushes the write-behind data of every write-leased file (the
    /// idle-time flush a biod would do). Lease-mode workloads call this
    /// before going idle so dirty blocks are durable before the holding
    /// lease lapses; without leases it is a no-op.
    pub fn flush_idle(&mut self) -> CResult<()> {
        if !self.cfg.lease {
            return Ok(());
        }
        self.lease_service()?;
        let targets: Vec<FileHandle> = self
            .leases
            .values()
            .filter(|l| l.write)
            .map(|l| l.fh)
            .collect();
        for fh in targets {
            self.push_dirty(fh, true)?;
            self.drain_writes(fh)?;
        }
        Ok(())
    }

    // ----- name resolution ----------------------------------------------

    fn lookup_rpc(&mut self, dir: FileHandle, name: &str) -> CResult<(FileHandle, Vattr)> {
        let reply = self.call(NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &dir, name)
        })?;
        let mut dec = self.open_reply(&reply)?;
        let (fh, attr) = results::get_diropres(&mut dec)??;
        self.receive_attrs(fh, &attr, false);
        // Ensure the vnode table knows the handle, refreshing a stored
        // handle whose boot epoch a server reboot left behind.
        self.vnode(fh).fh = fh;
        self.namecache
            .enter(dir.vnode_token(), name, fh.vnode_token());
        Ok((fh, attr))
    }

    /// Resolves one component under a directory.
    pub fn lookup_component(&mut self, dir: FileHandle, name: &str) -> CResult<FileHandle> {
        if let Some(token) = self.namecache.lookup(dir.vnode_token(), name) {
            if let Some(vn) = self.vnodes.get(&token) {
                let fh = vn.fh;
                // Validate the cached translation through the attribute
                // cache; a stale handle falls back to a fresh LOOKUP.
                match self.getattr_validated(fh) {
                    Ok(_) => return Ok(self.current_fh(fh)),
                    Err(ClientError::Stale) => {
                        self.namecache.invalidate(dir.vnode_token(), name);
                        self.attrcache.invalidate(token);
                        match self.lookup_rpc(dir, name) {
                            Ok((newfh, _)) => {
                                if newfh.vnode_token() != token {
                                    // The name binds to a new inode now;
                                    // the old vnode's file is gone.
                                    self.drop_vnode(token);
                                }
                                return Ok(newfh);
                            }
                            Err(e) => {
                                self.drop_vnode(token);
                                return Err(e);
                            }
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        let (fh, _) = self.lookup_rpc(dir, name)?;
        Ok(fh)
    }

    /// Resolves a `/`-separated path from the mount root.
    pub fn lookup_path(&mut self, path: &str) -> CResult<FileHandle> {
        let mut at = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            at = self.lookup_component(at, comp)?;
        }
        Ok(at)
    }

    /// Resolves every component of `path` but the last, which it returns.
    fn resolve_parent<'p>(&mut self, path: &'p str) -> CResult<(FileHandle, &'p str)> {
        let path = path.trim_end_matches('/');
        let (parent, last) = path.rsplit_once('/').unwrap_or(("", path));
        if last.is_empty() {
            return Err(ClientError::Nfs(NfsStatus::Acces));
        }
        Ok((self.lookup_path(parent)?, last))
    }

    fn drop_vnode(&mut self, token: VnodeId) {
        self.vnodes.remove(&token);
        self.attrcache.invalidate(token);
        self.namecache.purge_vnode(token);
        self.bufcache.purge_vnode(token);
        self.readdir_cache.remove(&token);
        if let Some(pending) = self.pending_writes.remove(&token) {
            for pw in pending {
                self.sys.forget_ticket(pw.ticket);
            }
        }
        let stale: Vec<(VnodeId, u64)> = self
            .pending_reads
            .keys()
            .filter(|(t, _)| *t == token)
            .copied()
            .collect();
        for key in stale {
            if let Some(t) = self.pending_reads.remove(&key) {
                self.sys.forget_ticket(t);
            }
        }
    }

    // ----- file operations ----------------------------------------------

    /// Gets attributes for a path (the stat(2) syscall).
    pub fn stat(&mut self, path: &str) -> CResult<Vattr> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        self.with_stale_retry(|c| {
            let fh = c.lookup_path(path)?;
            c.getattr_validated(fh)
        })
    }

    /// Opens a path. With `create`, the file is created if absent; with
    /// `truncate`, an existing file is truncated to zero.
    pub fn open(&mut self, path: &str, create: bool, truncate: bool) -> CResult<FileHandle> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        let fh = self.with_stale_retry(|c| c.open_inner(path, create, truncate))?;
        self.remember_path(fh, path);
        Ok(fh)
    }

    fn open_inner(&mut self, path: &str, create: bool, truncate: bool) -> CResult<FileHandle> {
        match self.lookup_path(path) {
            Ok(fh) => {
                if truncate {
                    self.setattr_fh(fh, Sattr::truncate(0))?;
                    let token = fh.vnode_token();
                    self.bufcache.purge_vnode(token);
                    let vn = self.vnode(fh);
                    vn.size = 0;
                    vn.write_high = 0;
                    if self.cfg.lease {
                        // Truncate-open is a write-intent open.
                        self.lease_acquire(fh, true)?;
                    }
                } else if self.cfg.lease && self.lease_acquire(fh, false)? {
                    // The grant carried fresh attributes (or a held
                    // lease already vouches for the cache): no classic
                    // open-time revalidation.
                    self.apply_pending_flush(fh);
                } else if self.cfg.consistency {
                    // nfs_open: revalidate attributes at open.
                    self.getattr_validated(fh)?;
                    self.apply_pending_flush(fh);
                }
                Ok(fh)
            }
            Err(ClientError::Nfs(NfsStatus::NoEnt)) if create => {
                let (dir, name) = self.resolve_parent(path)?;
                let reply = self.call(NfsProc::Create, |c, m| {
                    proto::build::create_args(
                        c,
                        m,
                        &dir,
                        name,
                        &Sattr {
                            mode: Some(0o644),
                            size: Some(0),
                            ..Sattr::default()
                        },
                    )
                })?;
                let mut dec = self.open_reply(&reply)?;
                let (fh, attr) = results::get_diropres(&mut dec)??;
                self.receive_attrs(fh, &attr, false);
                self.vnode(fh);
                self.namecache
                    .enter(dir.vnode_token(), name, fh.vnode_token());
                if self.cfg.lease {
                    // A freshly created file is about to be written:
                    // take the write lease up front so those writes can
                    // stay behind.
                    self.lease_acquire(fh, true)?;
                }
                Ok(fh)
            }
            Err(e) => Err(e),
        }
    }

    /// Closes a file: with close/open consistency, pushes dirty blocks
    /// and waits for every outstanding write.
    pub fn close(&mut self, fh: FileHandle) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        let fh = self.current_fh(fh);
        if self.lease_valid(fh.ino, true) {
            // Write-behind: a valid write lease lets dirty blocks stay
            // cached past close. They go out on recall, lease expiry, or
            // the idle flush — and a Create-Delete of a temporary file
            // never writes them at all.
            return Ok(());
        }
        if self.cfg.consistency && self.cfg.push_on_close {
            self.push_dirty(fh, false)?;
            self.drain_writes(fh)?;
            self.sys.wait_all_async();
        }
        Ok(())
    }

    /// Reads up to `len` bytes at `off`.
    pub fn read(&mut self, fh: FileHandle, off: u32, len: u32) -> CResult<Vec<u8>> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        let fh = self.current_fh(fh);
        if self.cfg.lease {
            self.lease_acquire(fh, false)?;
        }
        self.validate_for_read(fh)?;
        let fh = self.current_fh(fh);
        let size = self.file_size(fh)?;
        if off >= size {
            return Ok(Vec::new());
        }
        let len = len.min(size - off);
        let token = fh.vnode_token();
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = off as usize;
        let end = (off + len) as usize;
        while pos < end {
            let blk = (pos / BLOCK_SIZE) as u64;
            let bs = pos % BLOCK_SIZE;
            let be = (end - (blk as usize * BLOCK_SIZE)).min(BLOCK_SIZE);
            let served = {
                let (buf, _) = self.bufcache.lookup(token, blk);
                match buf {
                    Some(b) => b.read(bs, be - bs).map(|s| s.to_vec()),
                    None => None,
                }
            };
            let chunk = match served {
                Some(c) => c,
                None => {
                    self.fill_block(fh, blk)?;
                    let (buf, _) = self.bufcache.lookup(token, blk);
                    buf.and_then(|b| b.read(bs, be - bs).map(|s| s.to_vec()))
                        .ok_or(ClientError::Protocol)?
                }
            };
            self.sys
                .charge_cpu(costs::USER_COPY_PER_BYTE * chunk.len() as u64);
            out.extend_from_slice(&chunk);
            pos = blk as usize * BLOCK_SIZE + be;
            // Read-ahead the following blocks.
            self.issue_readahead(fh, blk, size);
        }
        Ok(out)
    }

    fn issue_readahead(&mut self, fh: FileHandle, blk: u64, size: u32) {
        let token = fh.vnode_token();
        for ra in 1..=self.cfg.read_ahead as u64 {
            let target = blk + ra;
            if (target as usize * BLOCK_SIZE) >= size as usize {
                break;
            }
            if self.pending_reads.contains_key(&(token, target)) {
                continue;
            }
            let cached = {
                let (buf, _) = self.bufcache.lookup(token, target);
                buf.is_some()
            };
            if cached {
                continue;
            }
            let rsize = self.cfg.rsize as u32;
            let ticket = self.call_async(NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, &fh, target as u32 * BLOCK_SIZE as u32, rsize)
            });
            self.pending_reads.insert((token, target), ticket);
        }
    }

    /// Ensures block `blk` is cached: from a pending read-ahead, or via
    /// a synchronous READ RPC, recovering transparently when the server
    /// rebooted and the handle (or a read-ahead issued under it) went
    /// stale.
    fn fill_block(&mut self, fh: FileHandle, blk: u64) -> CResult<()> {
        let mut tries = 0;
        loop {
            match self.fill_block_inner(fh, blk) {
                Err(ClientError::Stale) => {
                    let fh = self.recover_stale_fh(fh)?;
                    return self.fill_block_inner(fh, blk);
                }
                Err(ClientError::Nfs(NfsStatus::TryLater)) if tries < LEASE_RETRY_MAX => {
                    // The server is waiting out a conflicting lease (or
                    // its post-reboot grace period): pace and retry.
                    tries += 1;
                    self.sys.sleep(LEASE_RETRY_STEP);
                }
                r => return r,
            }
        }
    }

    fn fill_block_inner(&mut self, fh: FileHandle, blk: u64) -> CResult<()> {
        let token = fh.vnode_token();
        let reply = match self.pending_reads.remove(&(token, blk)) {
            Some(t) => self.sys.await_ticket(t)?,
            None => {
                let rsize = self.cfg.rsize as u32;
                self.call(NfsProc::Read, |c, m| {
                    proto::build::read_args(c, m, &fh, blk as u32 * BLOCK_SIZE as u32, rsize)
                })?
            }
        };
        let mut dec = self.open_reply(&reply)?;
        let (attr, data) = results::get_readres(&mut dec)??;
        self.receive_attrs(fh, &attr, false);
        self.sys
            .charge_cpu(costs::COPY_PER_BYTE * data.len() as u64);
        // Merge under any dirty region, else install a valid block.
        let dirty_exists = {
            let (buf, _) = self.bufcache.lookup(token, blk);
            match buf {
                Some(b) if b.is_dirty() => {
                    b.merge_read(&{
                        let mut full = data.clone();
                        full.resize(BLOCK_SIZE, 0);
                        full
                    });
                    true
                }
                _ => false,
            }
        };
        if !dirty_exists {
            let writebacks = self.bufcache.insert(token, blk, Buf::new_valid(data));
            self.flush_writebacks(writebacks)?;
        }
        Ok(())
    }

    fn file_size(&mut self, fh: FileHandle) -> CResult<u32> {
        let token = fh.vnode_token();
        let now = self.sys.now();
        // Local view first: it tracks our own extending writes.
        if let Some(vn) = self.vnodes.get(&token) {
            if vn.cached_mtime.is_some() {
                return Ok(vn.size);
            }
        }
        if let Some(a) = self.attrcache.get(token, now) {
            return Ok(a.size);
        }
        let a = self.getattr_validated(fh)?;
        Ok(a.size
            .max(self.vnodes.get(&token).map(|v| v.size).unwrap_or(0)))
    }

    /// The consistency work done before reading: 4.3BSD Reno pushes all
    /// dirty blocks first (it cannot tell its own mtime changes from
    /// other clients'), then revalidates attributes; a changed mtime
    /// flushes the cache. The Ultrix model trusts its own writes; the
    /// noconsist flag skips everything.
    fn validate_for_read(&mut self, fh: FileHandle) -> CResult<()> {
        if self.lease_valid(fh.ino, false) {
            // The lease IS the consistency protocol: no push-before-read
            // and no revalidation while it holds.
            return Ok(());
        }
        if !self.cfg.consistency {
            return Ok(());
        }
        let token = fh.vnode_token();
        let has_dirty = !self.bufcache.dirty_blocks(token).is_empty();
        let wrote = self.vnodes.get(&token).map(|v| v.wrote).unwrap_or(false);
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
        let owed = self
            .vnodes
            .get(&token)
            .map(|v| v.needs_flush)
            .unwrap_or(false);
        if !owed {
            return;
        }
        if !self.bufcache.dirty_blocks(token).is_empty() {
            return;
        }
        self.purge_clean_blocks(token);
        self.readdir_cache.remove(&token);
        self.vnode(fh).needs_flush = false;
    }

    /// Writes `data` at `off`.
    pub fn write(&mut self, fh: FileHandle, off: u32, data: &[u8]) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        let fh = self.current_fh(fh);
        if self.cfg.lease {
            // Ensure (or upgrade to) the write lease; on failure the
            // write proceeds classically and close() will push it.
            self.lease_acquire(fh, true)?;
        }
        self.sys
            .charge_cpu(costs::USER_COPY_PER_BYTE * data.len() as u64);
        {
            let vn = self.vnode(fh);
            vn.wrote = true;
            vn.size = vn.size.max(off + data.len() as u32);
            vn.write_high = vn.write_high.max(off + data.len() as u32);
            if vn.cached_mtime.is_none() {
                // First touch: remember something so size tracking works.
                vn.cached_mtime = Some(SimTime::ZERO);
            }
        }
        let token = fh.vnode_token();
        let mut pos = off as usize;
        let end = off as usize + data.len();
        while pos < end {
            let blk = (pos / BLOCK_SIZE) as u64;
            let bs = pos % BLOCK_SIZE;
            let be = (end - blk as usize * BLOCK_SIZE).min(BLOCK_SIZE);
            let chunk = &data[(pos - off as usize)..(pos - off as usize) + (be - bs)];
            // A read-ahead issued before this write would deliver stale
            // pre-write data; drop it so the block is refetched.
            if let Some(t) = self.pending_reads.remove(&(token, blk)) {
                self.sys.forget_ticket(t);
            }
            self.write_block(fh, blk, bs, chunk)?;
            pos = blk as usize * BLOCK_SIZE + be;
            // Policy: full blocks go out immediately under Async; every
            // dirty byte goes out under WriteThrough.
            match self.cfg.write_policy {
                WritePolicy::WriteThrough => {
                    self.push_block(fh, blk, true)?;
                }
                WritePolicy::Async => {
                    if be == BLOCK_SIZE {
                        self.push_block(fh, blk, false)?;
                    }
                }
                WritePolicy::Delayed => {}
            }
        }
        Ok(())
    }

    /// Writes into one cached block, creating it *without pre-reading*
    /// (the dirty-region machinery) and pushing first when the new write
    /// would leave a disjoint dirty extent.
    fn write_block(&mut self, fh: FileHandle, blk: u64, bs: usize, chunk: &[u8]) -> CResult<()> {
        let token = fh.vnode_token();
        // Without dirty-region tracking (the Ultrix model), a partial
        // write to an uncached block that has data on the server must
        // pre-read the block first.
        if !self.cfg.dirty_region_tracking {
            let partial = bs != 0 || chunk.len() < BLOCK_SIZE;
            let server_size = self
                .attrcache
                .peek(token)
                .map(|a| a.size as usize)
                .unwrap_or(0);
            let has_server_data = (blk as usize * BLOCK_SIZE) < server_size;
            if partial && has_server_data {
                let cached = {
                    let (buf, _) = self.bufcache.lookup(token, blk);
                    buf.map(|b| b.is_valid()).unwrap_or(false)
                };
                if !cached {
                    self.fill_block(fh, blk)?;
                }
            }
        }
        loop {
            let present = {
                let (buf, _) = self.bufcache.lookup(token, blk);
                buf.is_some()
            };
            if !present {
                let writebacks = self.bufcache.insert(token, blk, Buf::new_empty());
                self.flush_writebacks(writebacks)?;
            }
            let outcome = {
                let (buf, _) = self.bufcache.lookup(token, blk);
                buf.expect("just inserted").write(bs, chunk)
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(()) => {
                    // Disjoint dirty extents: push the old one first.
                    self.push_block(fh, blk, true)?;
                }
            }
        }
    }

    /// Pushes one block's dirty region (WRITE RPC); `sync` waits for the
    /// reply, otherwise a biod carries it.
    fn push_block(&mut self, fh: FileHandle, blk: u64, sync: bool) -> CResult<()> {
        let token = fh.vnode_token();
        let (d0, d1, payload) = {
            let (buf, _) = self.bufcache.lookup(token, blk);
            let Some(buf) = buf else { return Ok(()) };
            let Some((d0, d1)) = buf.dirty_range() else {
                return Ok(());
            };
            (d0, d1, buf.data()[d0..d1].to_vec())
        };
        let woff = blk as u32 * BLOCK_SIZE as u32 + d0 as u32;
        // Clamp to the file's logical size (a trailing partial block's
        // dirty region may extend past EOF only when bs > size; keep
        // what was written).
        if sync {
            self.write_rpc_recovering(fh, woff, &payload)?;
        } else {
            let data_chain = MbufChain::from_slice(&payload, &mut self.meter);
            let ticket = self.call_async(NfsProc::Write, |c, m| {
                proto::build::write_args(c, m, &fh, woff, data_chain)
            });
            self.pending_writes
                .entry(token)
                .or_default()
                .push(PendingWrite {
                    ticket,
                    blk,
                    d0,
                    d1,
                });
        }
        // After the push the written range is known-good: when it covers
        // the block from its start through EOF (or the whole block), the
        // buffer can be marked fully valid and keep serving reads.
        let size = self.vnodes.get(&token).map(|v| v.size).unwrap_or(0) as usize;
        let block_end = ((blk as usize + 1) * BLOCK_SIZE).min(size.max(blk as usize * BLOCK_SIZE));
        let meaningful = block_end.saturating_sub(blk as usize * BLOCK_SIZE);
        if let (Some(buf), _) = self.bufcache.lookup(token, blk) {
            if d0 == 0 && d1 >= meaningful {
                buf.mark_valid();
            }
            buf.clear_dirty();
        }
        Ok(())
    }

    /// Pushes every dirty block of a file.
    pub fn push_dirty(&mut self, fh: FileHandle, sync: bool) -> CResult<()> {
        let token = fh.vnode_token();
        for blk in self.bufcache.dirty_blocks(token) {
            self.push_block(fh, blk, sync)?;
        }
        Ok(())
    }

    /// Awaits outstanding asynchronous writes of a file and folds their
    /// reply attributes in. Writes the server answered with
    /// `NFSERR_STALE` (it rebooted under them) are re-sent from the
    /// still-cached blocks under a freshly looked-up handle, preserving
    /// the synchronous-write durability contract (DESIGN.md §6a).
    fn drain_writes(&mut self, fh: FileHandle) -> CResult<()> {
        let token = fh.vnode_token();
        let pending = self.pending_writes.remove(&token).unwrap_or_default();
        if pending.is_empty() {
            return Ok(());
        }
        // Snapshot every in-flight payload before folding any reply in:
        // Reno's mtime-change flush purges clean blocks as reply
        // attributes land, and a write the server answers with
        // `NFSERR_STALE` (it rebooted under the flush) must be re-sent
        // from these bytes afterwards.
        let snaps: Vec<Option<(u32, Vec<u8>)>> = pending
            .iter()
            .map(|pw| {
                let (buf, _) = self.bufcache.lookup(token, pw.blk);
                buf.map(|b| {
                    let woff = pw.blk as u32 * BLOCK_SIZE as u32 + pw.d0 as u32;
                    (woff, b.data()[pw.d0..pw.d1].to_vec())
                })
            })
            .collect();
        // Await every ticket even if one timed out (a soft mount), so no
        // completion is leaked; the first error is reported after.
        let mut first_err: Option<ClientError> = None;
        let mut stale: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut deferred: Vec<(u32, Vec<u8>)> = Vec::new();
        for (pw, snap) in pending.iter().zip(snaps) {
            match self.sys.await_ticket(pw.ticket) {
                Ok(reply) => {
                    if let Ok(mut dec) = self.open_reply(&reply) {
                        match results::get_attrstat(&mut dec) {
                            Ok(Ok(attr)) => self.receive_attrs(fh, &attr, true),
                            Ok(Err(NfsStatus::Stale)) => match snap {
                                Some(s) => stale.push(s),
                                // The block was evicted before the drain
                                // began: the bytes are unrecoverable.
                                None => {
                                    if first_err.is_none() {
                                        first_err = Some(ClientError::Stale);
                                    }
                                }
                            },
                            // The server deferred the write while it
                            // recalls a conflicting lease; re-send it
                            // synchronously (with the vacate wait) so no
                            // acknowledged data is dropped.
                            Ok(Err(NfsStatus::TryLater)) => match snap {
                                Some(s) => deferred.push(s),
                                None => {
                                    if first_err.is_none() {
                                        first_err = Some(ClientError::Nfs(NfsStatus::TryLater));
                                    }
                                }
                            },
                            _ => {}
                        }
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e.into());
                    }
                }
            }
        }
        if !stale.is_empty() && first_err.is_none() {
            if let Err(e) = self.redo_stale_writes(fh, stale) {
                first_err = Some(e);
            }
        }
        if !deferred.is_empty() && first_err.is_none() {
            for (woff, payload) in deferred {
                if let Err(e) = self.write_rpc_recovering(fh, woff, &payload) {
                    first_err = Some(e);
                    break;
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Re-sends asynchronous writes rejected with `NFSERR_STALE` (the
    /// server rebooted under them) under a freshly looked-up handle,
    /// from payloads snapshotted at drain entry, preserving the
    /// synchronous-write durability contract (DESIGN.md §6a).
    fn redo_stale_writes(&mut self, fh: FileHandle, stale: Vec<(u32, Vec<u8>)>) -> CResult<()> {
        let fh = self.recover_stale_fh(fh)?;
        for (woff, payload) in stale {
            self.write_rpc(fh, woff, &payload)?;
        }
        Ok(())
    }

    /// One synchronous WRITE RPC, folding the reply attributes in.
    fn write_rpc(&mut self, fh: FileHandle, woff: u32, payload: &[u8]) -> CResult<Vattr> {
        let data_chain = MbufChain::from_slice(payload, &mut self.meter);
        let reply = self.call(NfsProc::Write, |c, m| {
            proto::build::write_args(c, m, &fh, woff, data_chain)
        })?;
        let mut dec = self.open_reply(&reply)?;
        let attr = results::get_attrstat(&mut dec)??;
        self.receive_attrs(fh, &attr, true);
        Ok(attr)
    }

    /// [`ClientFs::write_rpc`] with transparent ESTALE recovery.
    fn write_rpc_recovering(
        &mut self,
        fh: FileHandle,
        woff: u32,
        payload: &[u8],
    ) -> CResult<Vattr> {
        let mut tries = 0;
        loop {
            match self.write_rpc(fh, woff, payload) {
                Err(ClientError::Stale) => {
                    let fh = self.recover_stale_fh(fh)?;
                    return self.write_rpc(fh, woff, payload);
                }
                Err(ClientError::Nfs(NfsStatus::TryLater)) if tries < LEASE_RETRY_MAX => {
                    // Conflicting read leases are being recalled: wait
                    // for the vacate rather than dropping the data.
                    tries += 1;
                    self.sys.sleep(LEASE_RETRY_STEP);
                }
                r => return r,
            }
        }
    }

    fn flush_writebacks(&mut self, writebacks: Vec<(VnodeId, u64, Buf)>) -> CResult<()> {
        for (token, blk, buf) in writebacks {
            let Some((d0, d1)) = buf.dirty_range() else {
                continue;
            };
            let Some(vn) = self.vnodes.get(&token) else {
                continue;
            };
            let fh = vn.fh;
            let payload = buf.data()[d0..d1].to_vec();
            let woff = blk as u32 * BLOCK_SIZE as u32 + d0 as u32;
            self.write_rpc_recovering(fh, woff, &payload)?;
        }
        Ok(())
    }

    /// Pushes all dirty data of every file (the 30-second sync).
    pub fn sync(&mut self) -> CResult<()> {
        let handles: Vec<FileHandle> = self.vnodes.values().map(|v| v.fh).collect();
        for fh in handles {
            self.push_dirty(fh, false)?;
            self.drain_writes(fh)?;
        }
        self.sys.wait_all_async();
        Ok(())
    }

    /// Sets attributes (truncate, chmod...), recovering transparently
    /// from a stale handle.
    pub fn setattr_fh(&mut self, fh: FileHandle, sattr: Sattr) -> CResult<Vattr> {
        let fh = self.current_fh(fh);
        let mut tries = 0;
        loop {
            match self.setattr_inner(fh, sattr) {
                Err(ClientError::Stale) => {
                    let fh = self.recover_stale_fh(fh)?;
                    return self.setattr_inner(fh, sattr);
                }
                Err(ClientError::Nfs(NfsStatus::TryLater)) if tries < LEASE_RETRY_MAX => {
                    tries += 1;
                    self.sys.sleep(LEASE_RETRY_STEP);
                }
                r => return r,
            }
        }
    }

    fn setattr_inner(&mut self, fh: FileHandle, sattr: Sattr) -> CResult<Vattr> {
        let reply = self.call(NfsProc::Setattr, |c, m| {
            proto::build::setattr_args(c, m, &fh, &sattr)
        })?;
        let mut dec = self.open_reply(&reply)?;
        let attr = results::get_attrstat(&mut dec)??;
        if let Some(size) = sattr.size {
            let token = fh.vnode_token();
            self.bufcache.purge_vnode(token);
            let vn = self.vnode(fh);
            vn.size = size;
            vn.write_high = size;
        }
        self.receive_attrs(fh, &attr, false);
        Ok(attr)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> CResult<FileHandle> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        let fh = self.with_stale_retry(|c| c.mkdir_inner(path))?;
        self.remember_path(fh, path);
        Ok(fh)
    }

    fn mkdir_inner(&mut self, path: &str) -> CResult<FileHandle> {
        let (dir, name) = self.resolve_parent(path)?;
        let reply = self.call(NfsProc::Mkdir, |c, m| {
            proto::build::create_args(c, m, &dir, name, &Sattr::default())
        })?;
        let mut dec = self.open_reply(&reply)?;
        let (fh, attr) = results::get_diropres(&mut dec)??;
        self.receive_attrs(fh, &attr, false);
        self.vnode(fh);
        self.namecache
            .enter(dir.vnode_token(), name, fh.vnode_token());
        self.attrcache.invalidate(dir.vnode_token());
        self.readdir_cache.remove(&dir.vnode_token());
        Ok(fh)
    }

    /// Removes a file.
    pub fn remove(&mut self, path: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.lease_service()?;
        self.with_stale_retry(|c| c.remove_inner(path))
    }

    fn remove_inner(&mut self, path: &str) -> CResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let target = self.namecache.lookup(dir.vnode_token(), name);
        let reply = self.call(NfsProc::Remove, |c, m| {
            proto::build::dirop_args(c, m, &dir, name)
        })?;
        let mut dec = self.open_reply(&reply)?;
        match results::get_stat(&mut dec)? {
            NfsStatus::Ok => {}
            s => return Err(ClientError::Nfs(s)),
        }
        self.namecache.invalidate(dir.vnode_token(), name);
        if let Some(token) = target {
            // Remove-discard: dirty write-behind blocks of a deleted
            // file are dropped unwritten (the server purges its lease
            // entry along with the inode) — the Create-Delete win.
            if let Some(v) = self.vnodes.get(&token) {
                let ino = v.fh.ino;
                self.leases.remove(&ino);
            }
            self.drop_vnode(token);
        }
        self.attrcache.invalidate(dir.vnode_token());
        self.readdir_cache.remove(&dir.vnode_token());
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| c.rmdir_inner(path))
    }

    fn rmdir_inner(&mut self, path: &str) -> CResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let target = self.namecache.lookup(dir.vnode_token(), name);
        let reply = self.call(NfsProc::Rmdir, |c, m| {
            proto::build::dirop_args(c, m, &dir, name)
        })?;
        let mut dec = self.open_reply(&reply)?;
        match results::get_stat(&mut dec)? {
            NfsStatus::Ok => {}
            s => return Err(ClientError::Nfs(s)),
        }
        self.namecache.invalidate(dir.vnode_token(), name);
        if let Some(token) = target {
            self.drop_vnode(token);
        }
        self.attrcache.invalidate(dir.vnode_token());
        self.readdir_cache.remove(&dir.vnode_token());
        Ok(())
    }

    /// Renames a file or directory.
    pub fn rename(&mut self, from: &str, to: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| c.rename_inner(from, to))
    }

    fn rename_inner(&mut self, from: &str, to: &str) -> CResult<()> {
        let (fdir, fname) = self.resolve_parent(from)?;
        let (tdir, tname) = self.resolve_parent(to)?;
        let reply = self.call(NfsProc::Rename, |c, m| {
            proto::build::rename_args(c, m, &fdir, fname, &tdir, tname)
        })?;
        let mut dec = self.open_reply(&reply)?;
        match results::get_stat(&mut dec)? {
            NfsStatus::Ok => {}
            s => return Err(ClientError::Nfs(s)),
        }
        self.namecache.invalidate(fdir.vnode_token(), fname);
        self.namecache.invalidate(tdir.vnode_token(), tname);
        for d in [fdir, tdir] {
            self.attrcache.invalidate(d.vnode_token());
            self.readdir_cache.remove(&d.vnode_token());
        }
        Ok(())
    }

    /// Creates a symbolic link.
    pub fn symlink(&mut self, path: &str, target: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| c.symlink_inner(path, target))
    }

    fn symlink_inner(&mut self, path: &str, target: &str) -> CResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let reply = self.call(NfsProc::Symlink, |c, m| {
            proto::build::symlink_args(c, m, &dir, name, target)
        })?;
        let mut dec = self.open_reply(&reply)?;
        match results::get_stat(&mut dec)? {
            NfsStatus::Ok => Ok(()),
            s => Err(ClientError::Nfs(s)),
        }
    }

    /// Reads a symbolic link.
    pub fn readlink(&mut self, path: &str) -> CResult<String> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| {
            let fh = c.lookup_path(path)?;
            let reply = c.call(NfsProc::Readlink, |ch, m| {
                proto::build::handle_args(ch, m, &fh)
            })?;
            let mut dec = c.open_reply(&reply)?;
            Ok(results::get_readlinkres(&mut dec)??)
        })
    }

    /// Lists a directory, using the cached listing when valid. With the
    /// READDIRLOOKUP extension enabled, one RPC also primes the name and
    /// attribute caches for every entry, so the stats that follow an
    /// `ls -l` need no further lookups — the paper's "many name lookups
    /// per RPC" future direction.
    pub fn readdir(&mut self, path: &str) -> CResult<Vec<DirEntry>> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| c.readdir_inner(path))
    }

    fn readdir_inner(&mut self, path: &str) -> CResult<Vec<DirEntry>> {
        let fh = self.lookup_path(path)?;
        let token = fh.vnode_token();
        if self.cfg.consistency {
            self.getattr_validated(fh)?;
        }
        if let Some(entries) = self.readdir_cache.get(&token) {
            return Ok(entries.clone());
        }
        let mut all = Vec::new();
        let mut cookie = 0u32;
        loop {
            if self.cfg.use_readdir_lookup {
                let reply = self.call(NfsProc::ReaddirLookup, |c, m| {
                    proto::build::readdir_args(c, m, &fh, cookie, 8192)
                })?;
                let mut dec = self.open_reply(&reply)?;
                let (entries, eof) = results::get_readdirplusres(&mut dec)??;
                if let Some(last) = entries.last() {
                    cookie = last.entry.cookie;
                }
                let empty = entries.is_empty();
                for e in entries {
                    self.receive_attrs(e.fh, &e.attr, false);
                    self.vnode(e.fh);
                    self.namecache
                        .enter(token, &e.entry.name, e.fh.vnode_token());
                    all.push(e.entry);
                }
                if eof || empty {
                    break;
                }
            } else {
                let reply = self.call(NfsProc::Readdir, |c, m| {
                    proto::build::readdir_args(c, m, &fh, cookie, 8192)
                })?;
                let mut dec = self.open_reply(&reply)?;
                let (entries, eof) = results::get_readdirres(&mut dec)??;
                if let Some(last) = entries.last() {
                    cookie = last.cookie;
                }
                let empty = entries.is_empty();
                all.extend(entries);
                if eof || empty {
                    break;
                }
            }
        }
        self.readdir_cache.insert(token, all.clone());
        Ok(all)
    }

    /// Filesystem statistics.
    pub fn statfs(&mut self) -> CResult<(u32, u32, u32, u32, u32)> {
        let root = self.root;
        let reply = self.call(NfsProc::Statfs, |c, m| {
            proto::build::handle_args(c, m, &root)
        })?;
        let mut dec = self.open_reply(&reply)?;
        Ok(results::get_statfsres(&mut dec)??)
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(c.sys().server.stats().lease_recalls, 1);
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

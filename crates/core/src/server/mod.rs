//! The stateless NFS server.
//!
//! All request state arrives in the RPC itself; crash recovery is
//! trivial because there is nothing to recover. The cost of statelessness
//! shows up exactly where the paper says it does: writes must reach disk
//! before the reply (1–3 disk writes per write RPC), repeated
//! non-idempotent requests can misbehave under load — mitigated here by
//! an optional `[Juszczak89]`-style duplicate-request cache — and the
//! server cannot know about other clients' delayed writes.
//!
//! The server is configured as either the 4.3BSD Reno machine (name
//! cache, buffers chained off vnodes) or the Ultrix 2.2 model (no name
//! cache, global buffer search) for the Graph 8–9 comparison. Service
//! returns the reply *plus* a [`ServiceCost`] that the host model turns
//! into CPU and disk time.
//!
//! The server is three files: this one holds the configuration, the
//! volatile caches a reboot loses, the handle epoch and the RPC envelope
//! ([`NfsServer::service_from`]: program and version checks, the
//! procedure filter, the NQNFS recall trailer and the duplicate-request
//! cache); `procs.rs` holds the per-procedure handlers; `cost.rs` holds
//! [`ServiceCost`], what a request charges the host model.

mod cost;
mod procs;

use std::collections::VecDeque;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::SimTime;
use renofs_sunrpc::{AcceptStat, CallHeader, ReplyHeader, NFS_PROGRAM, NFS_VERSION, NQNFS_VERSION};
use renofs_vfs::{BufCache, CacheOrg, FsError, InodeId, MemFs, NameCache};
use renofs_xdr::{XdrDecoder, XdrEncoder};

pub use self::cost::{DiskOps, DiskOpsIter, ServiceCost};
pub use crate::lease::LeaseCounts;
use crate::lease::ServerLeases;
use crate::proto::{decode_args, FileHandle, NfsProc, NfsStatus, RpcCounts};

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Enable the VFS name-lookup cache.
    pub name_cache: bool,
    /// Buffer-cache search organization.
    pub cache_org: CacheOrg,
    /// Buffer cache capacity in 8 KB blocks (the paper configured the
    /// compared kernels with identically sized caches).
    pub bufcache_blocks: usize,
    /// Enable the duplicate-request cache (extension; `[Juszczak89]`).
    pub dup_cache: bool,
    /// Future-work extension from Section 3: loan buffer-cache pages to
    /// the network as mbuf clusters instead of copying read data.
    pub loan_read_pages: bool,
    /// Serve the READDIRLOOKUP extension (the paper's Future Directions
    /// "readdir_and_lookup_files" RPC).
    pub readdir_lookup: bool,
    /// Serve NQNFS-style leases: accept `NQNFS_VERSION` calls, run the
    /// per-file lease table, and piggyback recall callbacks on reply
    /// trailers. Off by default — classic traffic stays byte-identical.
    pub leases: bool,
    /// Mutation-test hook: skip the post-reboot lease grace period (the
    /// rule that a rebooted server waits out the maximum lease term
    /// before serving reads or granting new leases). Never set outside
    /// planted-bug tests.
    pub lease_no_reboot_grace: bool,
}

impl ServerConfig {
    /// The 4.3BSD Reno server.
    pub fn reno() -> Self {
        ServerConfig {
            name_cache: true,
            cache_org: CacheOrg::PerVnodeChains,
            bufcache_blocks: 256,
            dup_cache: false,
            loan_read_pages: false,
            readdir_lookup: false,
            leases: false,
            lease_no_reboot_grace: false,
        }
    }

    /// The Ultrix 2.2 (Sun reference port) model.
    pub fn ultrix() -> Self {
        ServerConfig {
            name_cache: false,
            cache_org: CacheOrg::GlobalList,
            ..Self::reno()
        }
    }
}

/// Per-procedure service counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Calls served, per procedure.
    pub calls: RpcCounts,
    /// Garbled requests.
    pub garbage: u64,
    /// Duplicate-cache hits.
    pub dup_hits: u64,
    /// NQNFS lease traffic (all zero unless `ServerConfig::leases`).
    pub leases: LeaseCounts,
}

impl ServerStats {
    /// Total calls served: `calls.total()`, under the name the frozen
    /// benchmark package reads.
    pub fn total(&self) -> u64 {
        self.calls.total()
    }
}

/// The duplicate-request cache, per the tuned server in the paper.
///
/// Keyed by `(client, xid, proc)`: xids are drawn per client machine, so
/// two independent clients routinely reuse the same value — a Remove
/// retransmitted by one host must never be answered with a reply cached
/// for another host's Create (the real BSD cache folds the client's
/// address and port into the match for the same reason). The `proc`
/// component guards against one client's counter colliding across
/// procedures after wraparound or reboot. Lookups are O(1) via an index
/// map; eviction is FIFO over a ring of keys, and re-inserting a live key
/// refreshes the stored reply without growing the ring.
struct DupCache {
    index: std::collections::HashMap<(u32, u32, u32), MbufChain>,
    ring: VecDeque<(u32, u32, u32)>,
    cap: usize,
}

impl DupCache {
    fn new(cap: usize) -> Self {
        DupCache {
            index: std::collections::HashMap::new(),
            ring: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, client: u32, xid: u32, proc: NfsProc) -> Option<MbufChain> {
        self.index.get(&(client, xid, proc.to_wire())).cloned()
    }

    fn put(&mut self, client: u32, xid: u32, proc: NfsProc, reply: MbufChain) {
        let key = (client, xid, proc.to_wire());
        if self.index.insert(key, reply).is_some() {
            return; // live key refreshed; ring position unchanged
        }
        self.ring.push_back(key);
        if self.ring.len() > self.cap {
            if let Some(old) = self.ring.pop_front() {
                self.index.remove(&old);
            }
        }
    }
}

/// Duplicate-cache ring slots reserved per client machine; the total
/// capacity scales with the mount count so a crowd of retransmitting
/// clients cannot flush each other's entries before the retry arrives.
const DUP_CACHE_PER_CLIENT: usize = 128;

/// Ambient resident buffers a long-running server's cache holds (they
/// cost search steps under the global-search organization).
const AMBIENT_BLOCKS: usize = 192;

/// What a crash loses: the name cache, the buffer cache and the
/// duplicate-request cache, built empty at boot.
struct Volatile {
    namecache: NameCache,
    bufcache: BufCache,
    dupcache: Option<DupCache>,
}

impl Volatile {
    fn boot(cfg: &ServerConfig, dup_cache_cap: usize) -> Self {
        let mut namecache = NameCache::new(512);
        namecache.set_enabled(cfg.name_cache);
        let mut bufcache = BufCache::new(cfg.cache_org, cfg.bufcache_blocks);
        bufcache.set_ambient(AMBIENT_BLOCKS);
        Volatile {
            namecache,
            bufcache,
            dupcache: cfg.dup_cache.then(|| DupCache::new(dup_cache_cap)),
        }
    }
}

/// The NFS server instance.
pub struct NfsServer {
    cfg: ServerConfig,
    fs: MemFs,
    vol: Volatile,
    /// Duplicate-cache capacity in force ([`DUP_CACHE_PER_CLIENT`] ×
    /// client count); survives [`NfsServer::reboot`] because it models
    /// the compiled-in table size, not volatile state.
    dup_cache_cap: usize,
    meter: CopyMeter,
    stats: ServerStats,
    /// Recycled buffer for WRITE data on its way out of an mbuf chain
    /// into the filesystem, so steady-state writes don't allocate (READ
    /// data goes from the file's bytes straight into its reply chain).
    io_scratch: Vec<u8>,
    /// Boot epoch, stamped into every issued file handle's `fsid` field
    /// and bumped on reboot: handles minted before a crash come back
    /// `NfsStatus::Stale` (the root is exempt — the MOUNT protocol
    /// re-derives it), forcing clients to re-lookup their paths.
    epoch: u32,
    /// NQNFS lease state and counters (empty and inert unless
    /// `cfg.leases`).
    leases: ServerLeases,
}

impl NfsServer {
    /// Creates a server exporting a fresh filesystem.
    pub fn new(cfg: ServerConfig, now: SimTime) -> Self {
        let vol = Volatile::boot(&cfg, DUP_CACHE_PER_CLIENT);
        NfsServer {
            cfg,
            fs: MemFs::new(now),
            vol,
            dup_cache_cap: DUP_CACHE_PER_CLIENT,
            meter: CopyMeter::new(),
            stats: ServerStats::default(),
            io_scratch: Vec::new(),
            epoch: 1,
            leases: ServerLeases::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The exported filesystem (for out-of-band test preloading).
    pub fn fs(&self) -> &MemFs {
        &self.fs
    }

    /// Mutable access to the exported filesystem (test preloading only;
    /// bypasses all caching and costing).
    pub fn fs_mut(&mut self) -> &mut MemFs {
        &mut self.fs
    }

    /// Service statistics. The lease counters live with the lease
    /// state and are filled in here.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            leases: self.leases.counts,
            ..self.stats
        }
    }

    /// Simulates a server crash and reboot: every volatile structure
    /// (name cache, buffer cache, duplicate-request cache) is lost, and
    /// the boot epoch advances so file handles minted before the crash
    /// are answered with `NfsStatus::Stale` — the statelessness of the
    /// protocol means clients recover by re-looking-up their paths from
    /// the root (which the MOUNT protocol re-derives, so it stays valid).
    pub fn reboot(&mut self) {
        self.epoch += 1;
        self.vol = Volatile::boot(&self.cfg, self.dup_cache_cap);
        self.leases
            .reboot(self.cfg.leases && !self.cfg.lease_no_reboot_grace);
    }

    /// Sizes the duplicate-request cache for a community of `clients`
    /// mounts (`DUP_CACHE_PER_CLIENT` ring slots each). Existing cached
    /// replies are discarded — call this while wiring up a world, before
    /// traffic flows.
    pub fn set_client_count(&mut self, clients: usize) {
        self.dup_cache_cap = DUP_CACHE_PER_CLIENT * clients.max(1);
        if let Some(dc) = &mut self.vol.dupcache {
            *dc = DupCache::new(self.dup_cache_cap);
        }
    }

    /// The root file handle, as the MOUNT protocol would return it.
    pub fn root_handle(&self) -> FileHandle {
        self.handle_for(self.fs.root()).expect("root exists")
    }

    /// Builds the file handle for an inode, stamped with the current
    /// boot epoch.
    pub fn handle_for(&self, ino: InodeId) -> Result<FileHandle, FsError> {
        Ok(FileHandle {
            fsid: self.epoch,
            ino: ino.0,
            gen: self.fs.generation(ino)?,
        })
    }

    fn resolve(&self, fh: &FileHandle) -> Result<InodeId, NfsStatus> {
        let ino = InodeId(fh.ino);
        // Handles minted before the last reboot are stale, except the
        // root: the MOUNT protocol hands the root handle out again, so
        // clients always have a valid place to restart their lookups.
        if fh.fsid != self.epoch && ino != self.fs.root() {
            return Err(NfsStatus::Stale);
        }
        self.fs
            .check_handle(ino, fh.gen)
            .map_err(|_| NfsStatus::Stale)?;
        Ok(ino)
    }

    /// Services one RPC request from client 0, producing the reply and
    /// its cost. Single-client convenience wrapper over
    /// [`NfsServer::service_from`].
    pub fn service(&mut self, now: SimTime, request: &MbufChain) -> (MbufChain, ServiceCost) {
        self.service_from(now, request, 0)
    }

    /// Services one RPC request, producing the reply and its cost.
    ///
    /// `client` identifies the requesting machine (in BSD terms, the
    /// source address/port of the datagram) and scopes the duplicate-
    /// request cache so xids reused across independent clients never
    /// cross-match.
    pub fn service_from(
        &mut self,
        now: SimTime,
        request: &MbufChain,
        client: u32,
    ) -> (MbufChain, ServiceCost) {
        let mut cost = ServiceCost::default();
        let mut dec = XdrDecoder::new(request);
        let Ok(header) = CallHeader::decode(&mut dec) else {
            self.stats.garbage += 1;
            // Unparseable header: no reply possible (no xid). Return an
            // empty chain the caller drops.
            return (MbufChain::new(), cost);
        };
        let xid = header.xid;
        let vers_ok =
            header.vers == NFS_VERSION || (header.vers == NQNFS_VERSION && self.cfg.leases);
        if header.prog != NFS_PROGRAM || !vers_ok {
            return (self.reply(xid, AcceptStat::ProgUnavail), cost);
        }
        // NQNFS callers get a one-word recall trailer on every success
        // reply; classic-version traffic stays byte-identical.
        let nq = header.vers == NQNFS_VERSION;
        self.leases.heard(now);
        let proc_supported = |p: NfsProc| match p {
            NfsProc::ReaddirLookup => self.cfg.readdir_lookup,
            NfsProc::Getlease => nq,
            _ => true,
        };
        let Some(proc) = NfsProc::from_wire(header.proc).filter(|p| proc_supported(*p)) else {
            return (self.reply(xid, AcceptStat::ProcUnavail), cost);
        };
        cost.proc = Some(proc);
        // Duplicate-request cache: protect non-idempotent procedures
        // against retransmitted requests.
        let guarded = !proc.is_idempotent();
        if let Some(dc) = self.vol.dupcache.as_ref().filter(|_| guarded) {
            if let Some(reply) = dc.get(client, xid, proc) {
                self.stats.dup_hits += 1;
                cost.dup_hit = true;
                return (reply, cost);
            }
        }
        let Ok(args) = decode_args(proc, &mut dec) else {
            self.stats.garbage += 1;
            return (self.reply(xid, AcceptStat::GarbageArgs), cost);
        };
        self.stats.calls.inc(proc);
        let mut reply = self.reply(xid, AcceptStat::Success);
        if nq {
            // Piggybacked eviction callback: the inode of one file whose
            // lease this client must vacate (0 = none). Replayed from the
            // dup cache this re-delivers a stale recall, which a client
            // honors by a redundant flush — harmless.
            let recall = self.leases.next_recall(client);
            XdrEncoder::new(&mut reply, &mut self.meter).put_u32(recall);
        }
        self.dispatch(now, proc, args, client, &mut reply, &mut cost);
        if let Some(dc) = self.vol.dupcache.as_mut().filter(|_| guarded) {
            dc.put(client, xid, proc, reply.clone());
        }
        (reply, cost)
    }

    /// A reply message holding just its header.
    fn reply(&mut self, xid: u32, stat: AcceptStat) -> MbufChain {
        let mut reply = MbufChain::new();
        ReplyHeader { xid, stat }.encode(&mut reply, &mut self.meter);
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{self, results, LEASE_MODE_RELEASE, LEASE_MODE_WRITE};
    use renofs_sunrpc::AuthUnix;
    use renofs_vfs::BLOCK_SIZE;

    fn t(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }

    /// Builds a complete call message.
    fn call(
        xid: u32,
        proc: NfsProc,
        args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: proc.to_wire(),
            auth: AuthUnix::root("testclient"),
        }
        .encode(&mut chain, &mut meter);
        args(&mut chain, &mut meter);
        chain
    }

    fn reply_body(reply: &MbufChain) -> XdrDecoder<'_> {
        let mut dec = XdrDecoder::new(reply);
        let h = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(h.stat, AcceptStat::Success);
        dec
    }

    fn server() -> NfsServer {
        NfsServer::new(ServerConfig::reno(), t(0))
    }

    #[test]
    fn null_proc() {
        let mut s = server();
        let req = call(1, NfsProc::Null, |_, _| {});
        let (reply, cost) = s.service(t(1), &req);
        let mut dec = XdrDecoder::new(&reply);
        let h = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(h.xid, 1);
        assert_eq!(cost.proc, Some(NfsProc::Null));
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn getattr_root() {
        let mut s = server();
        let root = s.root_handle();
        let req = call(2, NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &root)
        });
        let (reply, _) = s.service(t(1), &req);
        let mut dec = reply_body(&reply);
        let attr = results::get_attrstat(&mut dec).unwrap().unwrap();
        assert_eq!(attr.ftype, renofs_vfs::FileType::Directory);
    }

    #[test]
    fn create_write_read_cycle() {
        let mut s = server();
        let root = s.root_handle();
        // CREATE
        let req = call(3, NfsProc::Create, |c, m| {
            proto::build::create_args(c, m, &root, "data.bin", &proto::Sattr::default())
        });
        let (reply, cost) = s.service(t(1), &req);
        let (fh, attr) = results::get_diropres(&mut reply_body(&reply))
            .unwrap()
            .unwrap();
        assert_eq!(attr.size, 0);
        assert_eq!(cost.disk_writes.len(), 2, "dir block + inode");
        // WRITE 8K
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut meter = CopyMeter::new();
        let data = MbufChain::from_slice(&payload, &mut meter);
        let req = call(4, NfsProc::Write, |c, m| {
            proto::build::write_args(c, m, &fh, 0, data)
        });
        let (reply, cost) = s.service(t(2), &req);
        let attr = results::get_attrstat(&mut reply_body(&reply))
            .unwrap()
            .unwrap();
        assert_eq!(attr.size, 8192);
        assert!(
            (2..=3).contains(&cost.disk_writes.len()),
            "1-3 disk writes per write RPC"
        );
        // READ back
        let req = call(5, NfsProc::Read, |c, m| {
            proto::build::read_args(c, m, &fh, 0, 8192)
        });
        let (reply, cost) = s.service(t(3), &req);
        let (attr, data) = results::get_readres(&mut reply_body(&reply))
            .unwrap()
            .unwrap();
        assert_eq!(attr.size, 8192);
        assert_eq!(data, payload);
        assert_eq!(cost.bytes_copied, 8192, "buffer cache -> mbuf copy");
    }

    #[test]
    fn read_cache_hit_avoids_disk() {
        let mut s = server();
        let root = s.root_handle();
        let ino = s.fs_mut().create(InodeId(0), "f", 0o644, t(0)).unwrap();
        s.fs_mut().write(ino, 0, &[9u8; 8192], t(0)).unwrap();
        let _ = root;
        let fh = s.handle_for(ino).unwrap();
        let read_req = |xid| {
            call(xid, NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, &fh, 0, 8192)
            })
        };
        let (_, cost1) = s.service(t(1), &read_req(10));
        assert_eq!(cost1.disk_reads.len(), 1, "cold read hits disk");
        let (_, cost2) = s.service(t(2), &read_req(11));
        assert!(cost2.disk_reads.is_empty(), "warm read served from cache");
    }

    /// A regular file of `blocks` full blocks under the root.
    fn file_of(s: &mut NfsServer, blocks: usize) -> FileHandle {
        let ino = s.fs_mut().create(InodeId(0), "f", 0o644, t(0)).unwrap();
        s.fs_mut()
            .write(ino, 0, &vec![9u8; blocks * BLOCK_SIZE], t(0))
            .unwrap();
        s.handle_for(ino).unwrap()
    }

    #[test]
    fn a_write_past_block_12_records_data_inode_and_indirect_writes() {
        let mut s = server();
        let fh = file_of(&mut s, 12);
        let data = MbufChain::from_slice(&[5; 8192], &mut CopyMeter::new());
        let req = call(1, NfsProc::Write, |c, m| {
            proto::build::write_args(c, m, &fh, 12 * BLOCK_SIZE as u32, data)
        });
        let (_, cost) = s.service(t(1), &req);
        let writes: Vec<usize> = cost.disk_writes.iter().collect();
        assert_eq!(writes, [8192, 512, 512], "data, inode, indirect");
        assert_eq!(cost.disk_writes.len(), 3);
        assert!(cost.disk_reads.is_empty());
    }

    #[test]
    fn an_unaligned_cold_read_records_two_block_reads() {
        let mut s = server();
        let fh = file_of(&mut s, 2);
        let req = call(1, NfsProc::Read, |c, m| {
            proto::build::read_args(c, m, &fh, 100, 8192)
        });
        let (_, cost) = s.service(t(1), &req);
        let reads: Vec<usize> = cost.disk_reads.iter().collect();
        assert_eq!(reads, [BLOCK_SIZE, BLOCK_SIZE]);
        assert!(cost.disk_writes.is_empty());
    }

    #[test]
    fn a_cold_lookup_reads_every_block_of_a_large_directory() {
        // 1,000 entries of 26 bytes: a directory of four blocks, each a
        // read of one size, however many there are.
        let mut s = server();
        for i in 0..1000 {
            s.fs_mut()
                .create(InodeId(0), &format!("entry-{i:04}"), 0o644, t(0))
                .unwrap();
        }
        let root = s.root_handle();
        let req = call(1, NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &root, "entry-0500")
        });
        let (_, cost) = s.service(t(1), &req);
        let reads: Vec<usize> = cost.disk_reads.iter().collect();
        assert_eq!(reads, [BLOCK_SIZE; 4]);
    }

    #[test]
    #[should_panic]
    fn a_fourth_run_of_disk_ops_is_a_server_bug() {
        let mut ops = DiskOps::default();
        for bytes in [1, 2, 2, 3, 4] {
            ops.push(bytes);
        }
    }

    #[test]
    fn lookup_uses_name_cache() {
        let mut s = server();
        let root_ino = s.fs().root();
        for i in 0..50 {
            s.fs_mut()
                .create(root_ino, &format!("file{i}"), 0o644, t(0))
                .unwrap();
        }
        let root = s.root_handle();
        let lookup_req = |xid| {
            call(xid, NfsProc::Lookup, |c, m| {
                proto::build::dirop_args(c, m, &root, "file25")
            })
        };
        let (_, cost1) = s.service(t(1), &lookup_req(20));
        assert!(cost1.dir_scan_entries > 0, "cold lookup scans the dir");
        let (_, cost2) = s.service(t(2), &lookup_req(21));
        assert_eq!(cost2.dir_scan_entries, 0, "warm lookup hits name cache");
    }

    #[test]
    fn ultrix_config_skips_name_cache() {
        let mut s = NfsServer::new(ServerConfig::ultrix(), t(0));
        let root_ino = s.fs().root();
        s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        let root = s.root_handle();
        let lookup_req = |xid| {
            call(xid, NfsProc::Lookup, |c, m| {
                proto::build::dirop_args(c, m, &root, "f")
            })
        };
        let (_, c1) = s.service(t(1), &lookup_req(1));
        let (_, c2) = s.service(t(2), &lookup_req(2));
        assert!(c1.dir_scan_entries > 0);
        assert!(c2.dir_scan_entries > 0, "no name cache: scans every time");
    }

    #[test]
    fn stale_handle_detected() {
        let mut s = server();
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "doomed", 0o644, t(0)).unwrap();
        let fh = s.handle_for(ino).unwrap();
        s.fs_mut().remove(root_ino, "doomed", t(1)).unwrap();
        let req = call(30, NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &fh)
        });
        let (reply, _) = s.service(t(2), &req);
        let res = results::get_attrstat(&mut reply_body(&reply)).unwrap();
        assert_eq!(res, Err(NfsStatus::Stale));
    }

    #[test]
    fn reboot_bumps_epoch_and_stales_old_handles() {
        let mut s = server();
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "kept", 0o644, t(0)).unwrap();
        let old_fh = s.handle_for(ino).unwrap();
        let old_root = s.root_handle();
        s.reboot();
        // The inode still exists on "disk", but the handle predates the
        // reboot: ESTALE.
        let req = call(40, NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &old_fh)
        });
        let (reply, _) = s.service(t(2), &req);
        let res = results::get_attrstat(&mut reply_body(&reply)).unwrap();
        assert_eq!(res, Err(NfsStatus::Stale));
        // The pre-reboot root handle is exempt — lookups can restart.
        let req = call(41, NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &old_root, "kept")
        });
        let (reply, _) = s.service(t(3), &req);
        let res = results::get_diropres(&mut reply_body(&reply)).unwrap();
        let (fresh_fh, _) = res.expect("root-based lookup succeeds after reboot");
        assert_eq!(fresh_fh.ino, old_fh.ino, "same inode");
        assert_eq!(fresh_fh.gen, old_fh.gen, "same generation");
        assert_ne!(fresh_fh.fsid, old_fh.fsid, "new boot epoch");
        // And the re-looked-up handle works.
        let req = call(42, NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &fresh_fh)
        });
        let (reply, _) = s.service(t(4), &req);
        let res = results::get_attrstat(&mut reply_body(&reply)).unwrap();
        assert!(res.is_ok(), "fresh handle valid: {res:?}");
    }

    #[test]
    fn lookup_noent() {
        let mut s = server();
        let root = s.root_handle();
        let req = call(31, NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &root, "nothing")
        });
        let (reply, _) = s.service(t(1), &req);
        let res = results::get_diropres(&mut reply_body(&reply)).unwrap();
        assert_eq!(res.unwrap_err(), NfsStatus::NoEnt);
    }

    #[test]
    fn duplicate_request_cache_suppresses_reexecution() {
        let mut cfg = ServerConfig::reno();
        cfg.dup_cache = true;
        let mut s = NfsServer::new(cfg, t(0));
        let root = s.root_handle();
        // Two identical CREATE requests with the same xid, as a
        // retransmission would produce.
        let mk = || {
            call(77, NfsProc::Create, |c, m| {
                proto::build::create_args(c, m, &root, "once", &proto::Sattr::default())
            })
        };
        let (r1, c1) = s.service(t(1), &mk());
        let (r2, c2) = s.service(t(2), &mk());
        assert!(!c1.dup_hit);
        assert!(c2.dup_hit, "retransmission served from dup cache");
        assert_eq!(
            r1.to_vec_for_test(),
            r2.to_vec_for_test(),
            "cached reply is byte-identical"
        );
        assert_eq!(s.stats().calls.count(NfsProc::Create), 1, "executed once");
    }

    #[test]
    fn dup_cache_keys_on_proc_as_well_as_xid() {
        let mut cfg = ServerConfig::reno();
        cfg.dup_cache = true;
        let mut s = NfsServer::new(cfg, t(0));
        let root = s.root_handle();
        // CREATE with xid 50, then REMOVE reusing the same xid (a
        // wrapped or rebooted client). The remove must execute, not be
        // answered with the cached create reply.
        let creq = call(50, NfsProc::Create, |c, m| {
            proto::build::create_args(c, m, &root, "clash", &proto::Sattr::default())
        });
        let (_, c1) = s.service(t(1), &creq);
        assert!(!c1.dup_hit);
        let rreq = call(50, NfsProc::Remove, |c, m| {
            proto::build::dirop_args(c, m, &root, "clash")
        });
        let (r2, c2) = s.service(t(2), &rreq);
        assert!(!c2.dup_hit, "same xid, different proc: not a duplicate");
        assert_eq!(
            results::get_stat(&mut reply_body(&r2)).unwrap(),
            NfsStatus::Ok,
            "the remove really ran"
        );
        assert_eq!(s.stats().calls.count(NfsProc::Remove), 1);
    }

    #[test]
    fn dup_cache_replays_remove_and_rename_without_reexecution() {
        let mut cfg = ServerConfig::reno();
        cfg.dup_cache = true;
        let mut s = NfsServer::new(cfg, t(0));
        let root = s.root_handle();
        let root_ino = s.fs().root();
        s.fs_mut().create(root_ino, "rm-me", 0o644, t(0)).unwrap();
        s.fs_mut().create(root_ino, "mv-me", 0o644, t(0)).unwrap();

        let rm = || {
            call(60, NfsProc::Remove, |c, m| {
                proto::build::dirop_args(c, m, &root, "rm-me")
            })
        };
        let (r1, _) = s.service(t(1), &rm());
        let (r2, c2) = s.service(t(2), &rm());
        assert!(c2.dup_hit);
        assert_eq!(r1.to_vec_for_test(), r2.to_vec_for_test());
        assert_eq!(s.stats().calls.count(NfsProc::Remove), 1, "executed once");
        assert_eq!(
            results::get_stat(&mut reply_body(&r2)).unwrap(),
            NfsStatus::Ok,
            "the replayed reply is the success, not NOENT"
        );

        let mv = || {
            call(61, NfsProc::Rename, |c, m| {
                proto::build::rename_args(c, m, &root, "mv-me", &root, "mv-done")
            })
        };
        let (m1, _) = s.service(t(3), &mv());
        let (m2, c4) = s.service(t(4), &mv());
        assert!(c4.dup_hit);
        assert_eq!(m1.to_vec_for_test(), m2.to_vec_for_test());
        assert_eq!(s.stats().calls.count(NfsProc::Rename), 1, "executed once");
        assert_eq!(
            results::get_stat(&mut reply_body(&m2)).unwrap(),
            NfsStatus::Ok
        );
    }

    #[test]
    fn dup_cache_refresh_does_not_grow_ring_and_fifo_evicts() {
        let mut dc = DupCache::new(2);
        let reply = MbufChain::new();
        dc.put(0, 1, NfsProc::Create, reply.clone());
        dc.put(0, 1, NfsProc::Create, reply.clone()); // refresh, not re-insert
        dc.put(0, 2, NfsProc::Create, reply.clone());
        assert!(dc.get(0, 1, NfsProc::Create).is_some());
        assert!(dc.get(0, 2, NfsProc::Create).is_some());
        // A third distinct key evicts the oldest (xid 1), proving the
        // refresh above did not occupy a second ring slot.
        dc.put(0, 3, NfsProc::Create, reply);
        assert!(dc.get(0, 1, NfsProc::Create).is_none(), "oldest evicted");
        assert!(dc.get(0, 2, NfsProc::Create).is_some());
        assert!(dc.get(0, 3, NfsProc::Create).is_some());
    }

    #[test]
    fn dup_cache_never_cross_hits_between_clients() {
        let mut cfg = ServerConfig::reno();
        cfg.dup_cache = true;
        let mut s = NfsServer::new(cfg, t(0));
        s.set_client_count(2);
        let root = s.root_handle();
        // Client 0 and client 1 independently pick xid 50 for a CREATE of
        // *different* names: the second must execute, not be answered with
        // the first client's cached reply.
        let creq = |name: &'static str| {
            call(50, NfsProc::Create, move |c, m| {
                proto::build::create_args(c, m, &root, name, &proto::Sattr::default())
            })
        };
        let (_, c1) = s.service_from(t(1), &creq("from-c0"), 0);
        assert!(!c1.dup_hit);
        let (r2, c2) = s.service_from(t(2), &creq("from-c1"), 1);
        assert!(!c2.dup_hit, "same xid, different client: not a duplicate");
        let (_, attr) = results::get_diropres(&mut reply_body(&r2))
            .unwrap()
            .unwrap();
        assert_eq!(attr.ftype, renofs_vfs::FileType::Regular);
        assert_eq!(s.stats().calls.count(NfsProc::Create), 2, "both executed");
        // And each client's own retransmission still replays from cache.
        let (_, c3) = s.service_from(t(3), &creq("from-c0"), 0);
        let (_, c4) = s.service_from(t(4), &creq("from-c1"), 1);
        assert!(c3.dup_hit);
        assert!(c4.dup_hit);
        assert_eq!(s.stats().dup_hits, 2);
    }

    #[test]
    fn dup_cache_capacity_scales_with_clients_and_survives_reboot() {
        let mut cfg = ServerConfig::reno();
        cfg.dup_cache = true;
        let mut s = NfsServer::new(cfg, t(0));
        s.set_client_count(4);
        assert_eq!(s.dup_cache_cap, 4 * super::DUP_CACHE_PER_CLIENT);
        s.reboot();
        assert_eq!(
            s.dup_cache_cap,
            4 * super::DUP_CACHE_PER_CLIENT,
            "table size is compiled in, not volatile"
        );
        assert!(s.vol.dupcache.is_some());
    }

    #[test]
    fn without_dup_cache_nonidempotent_repeats_fail() {
        let mut s = server();
        let root = s.root_handle();
        let root_ino = s.fs().root();
        s.fs_mut().create(root_ino, "victim", 0o644, t(0)).unwrap();
        let mk = || {
            call(88, NfsProc::Remove, |c, m| {
                proto::build::dirop_args(c, m, &root, "victim")
            })
        };
        let (r1, _) = s.service(t(1), &mk());
        assert_eq!(
            results::get_stat(&mut reply_body(&r1)).unwrap(),
            NfsStatus::Ok
        );
        // The retransmitted remove fails with NOENT — the paper's
        // "faulty behaviour ... due to the repetition of non-idempotent
        // RPCs".
        let (r2, _) = s.service(t(2), &mk());
        assert_eq!(
            results::get_stat(&mut reply_body(&r2)).unwrap(),
            NfsStatus::NoEnt
        );
    }

    #[test]
    fn readdir_via_rpc() {
        let mut s = server();
        let root_ino = s.fs().root();
        for i in 0..5 {
            s.fs_mut()
                .create(root_ino, &format!("e{i}"), 0o644, t(0))
                .unwrap();
        }
        let root = s.root_handle();
        let req = call(40, NfsProc::Readdir, |c, m| {
            proto::build::readdir_args(c, m, &root, 0, 8192)
        });
        let (reply, _) = s.service(t(1), &req);
        let mut entries = Vec::new();
        let eof = results::get_readdirres(&mut reply_body(&reply), &mut entries)
            .unwrap()
            .unwrap();
        assert_eq!(entries.len(), 5);
        assert!(eof);
    }

    #[test]
    fn garbled_request_rejected() {
        let mut s = server();
        let mut meter = CopyMeter::new();
        let junk = MbufChain::from_slice(&[0u8; 8], &mut meter);
        let (reply, cost) = s.service(t(1), &junk);
        assert!(reply.is_empty(), "unparseable header: no reply");
        assert!(cost.proc.is_none());
        assert_eq!(s.stats().garbage, 1);
    }

    #[test]
    fn loan_pages_avoids_read_copy() {
        let mut cfg = ServerConfig::reno();
        cfg.loan_read_pages = true;
        let mut s = NfsServer::new(cfg, t(0));
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        s.fs_mut().write(ino, 0, &[1u8; 8192], t(0)).unwrap();
        let fh = s.handle_for(ino).unwrap();
        let req = call(50, NfsProc::Read, |c, m| {
            proto::build::read_args(c, m, &fh, 0, 8192)
        });
        let (_, cost) = s.service(t(1), &req);
        assert_eq!(cost.bytes_copied, 0, "page loan: no cache->mbuf copy");
    }

    /// Builds a complete NQNFS-version call message.
    fn nq_call(
        xid: u32,
        proc: NfsProc,
        args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NQNFS_VERSION,
            proc: proc.to_wire(),
            auth: AuthUnix::root("testclient"),
        }
        .encode(&mut chain, &mut meter);
        args(&mut chain, &mut meter);
        chain
    }

    /// Decodes an NQNFS reply: returns the recall trailer and a decoder
    /// positioned at the result body.
    fn nq_reply_body(reply: &MbufChain) -> (u32, XdrDecoder<'_>) {
        let mut dec = XdrDecoder::new(reply);
        let h = ReplyHeader::decode(&mut dec).unwrap();
        assert_eq!(h.stat, AcceptStat::Success);
        let recall = dec.get_u32().unwrap();
        (recall, dec)
    }

    fn lease_server() -> NfsServer {
        let mut cfg = ServerConfig::reno();
        cfg.leases = true;
        NfsServer::new(cfg, t(0))
    }

    #[test]
    fn nqnfs_version_only_served_when_leases_enabled() {
        // A lease-less server refuses the NQNFS version outright.
        let mut s = server();
        let req = nq_call(1, NfsProc::Null, |_, _| {});
        let (reply, _) = s.service(t(1), &req);
        let mut dec = XdrDecoder::new(&reply);
        assert_eq!(
            ReplyHeader::decode(&mut dec).unwrap().stat,
            AcceptStat::ProgUnavail
        );
        // And a lease server refuses GETLEASE over the classic version
        // (classic mounts must see a protocol-identical server).
        let mut s = lease_server();
        let root = s.root_handle();
        let req = call(2, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &root, proto::LEASE_MODE_READ)
        });
        let (reply, _) = s.service(t(1), &req);
        let mut dec = XdrDecoder::new(&reply);
        assert_eq!(
            ReplyHeader::decode(&mut dec).unwrap().stat,
            AcceptStat::ProcUnavail
        );
    }

    #[test]
    fn write_lease_conflict_recalls_holder_and_defers_requester() {
        let mut s = lease_server();
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        let fh = s.handle_for(ino).unwrap();
        // Client 0 takes a write lease.
        let req = nq_call(1, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, LEASE_MODE_WRITE)
        });
        let (reply, _) = s.service_from(t(1), &req, 0);
        let (recall, mut dec) = nq_reply_body(&reply);
        assert_eq!(recall, 0);
        let (term, attr) = results::get_leaseres(&mut dec).unwrap().unwrap();
        assert_eq!(term, proto::LEASE_TERM_MS);
        assert!(attr.is_some(), "the grant doubles as a GETATTR");
        assert_eq!(s.stats().leases.issued, 1);
        // Client 1 wants to read: recalled + TryLater.
        let req = nq_call(2, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, proto::LEASE_MODE_READ)
        });
        let (reply, _) = s.service_from(t(1), &req, 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert_eq!(
            results::get_leaseres(&mut dec).unwrap(),
            Err(NfsStatus::TryLater)
        );
        assert_eq!(s.stats().leases.recalls, 1);
        assert_eq!(s.stats().leases.vacate_waits, 1);
        // The recall rides the trailer of client 0's next reply.
        let req = nq_call(3, NfsProc::Getattr, |c, m| {
            proto::build::handle_args(c, m, &fh)
        });
        let (reply, _) = s.service_from(t(1), &req, 0);
        let (recall, _) = nq_reply_body(&reply);
        assert_eq!(recall, ino.0, "eviction callback piggybacked");
        // Client 0 vacates; client 1's retry is granted.
        let req = nq_call(4, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, LEASE_MODE_RELEASE)
        });
        let (_, _) = s.service_from(t(1), &req, 0);
        let req = nq_call(5, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, proto::LEASE_MODE_READ)
        });
        let (reply, _) = s.service_from(t(1), &req, 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert!(results::get_leaseres(&mut dec).unwrap().is_ok());
        assert_eq!(s.stats().leases.issued, 2);
    }

    #[test]
    fn normal_rpcs_renew_and_lapsed_leases_expire() {
        let mut s = lease_server();
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        let fh = s.handle_for(ino).unwrap();
        let grant = |xid| {
            nq_call(xid, NfsProc::Getlease, |c, m| {
                proto::build::getlease_args(c, m, &fh, LEASE_MODE_WRITE)
            })
        };
        s.service_from(t(1), &grant(1), 0);
        // A WRITE from the holder inside the term renews it…
        let mut meter = CopyMeter::new();
        let data = MbufChain::from_slice(&[7u8; 512], &mut meter);
        let req = nq_call(2, NfsProc::Write, |c, m| {
            proto::build::write_args(c, m, &fh, 0, data)
        });
        s.service_from(t(3), &req, 0);
        assert_eq!(s.stats().leases.renewed, 1, "piggybacked renewal");
        // …so at t=5 (within the renewed term) another client still
        // conflicts, but at t=7 the lease has lapsed and access is free.
        let read_req = |xid| {
            nq_call(xid, NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, &fh, 0, 512)
            })
        };
        let (reply, _) = s.service_from(t(5), &read_req(3), 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert_eq!(
            results::get_readres(&mut dec).unwrap().unwrap_err(),
            NfsStatus::TryLater
        );
        let (reply, _) = s.service_from(t(7), &read_req(4), 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert!(results::get_readres(&mut dec).unwrap().is_ok());
        assert_eq!(s.stats().leases.expiries, 1);
    }

    #[test]
    fn reboot_grace_defers_reads_until_the_term_is_waited_out() {
        let mut s = lease_server();
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        s.fs_mut().write(ino, 0, &[1u8; 512], t(0)).unwrap();
        s.reboot();
        let fh = s.handle_for(ino).unwrap();
        // First contact at t=10 arms the grace clock: reads and grants
        // defer until t=13 (one full lease term), writes proceed so
        // crashed holders can land their write-behind data.
        let read_req = |xid| {
            nq_call(xid, NfsProc::Read, |c, m| {
                proto::build::read_args(c, m, &fh, 0, 512)
            })
        };
        let (reply, _) = s.service_from(t(10), &read_req(1), 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert_eq!(
            results::get_readres(&mut dec).unwrap().unwrap_err(),
            NfsStatus::TryLater
        );
        let grant = nq_call(2, NfsProc::Getlease, |c, m| {
            proto::build::getlease_args(c, m, &fh, LEASE_MODE_WRITE)
        });
        let (reply, _) = s.service_from(t(11), &grant, 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert_eq!(
            results::get_leaseres(&mut dec).unwrap(),
            Err(NfsStatus::TryLater)
        );
        let mut meter = CopyMeter::new();
        let data = MbufChain::from_slice(&[2u8; 512], &mut meter);
        let wreq = nq_call(3, NfsProc::Write, |c, m| {
            proto::build::write_args(c, m, &fh, 0, data)
        });
        let (reply, _) = s.service_from(t(11), &wreq, 0);
        let (_, mut dec) = nq_reply_body(&reply);
        assert!(
            results::get_attrstat(&mut dec).unwrap().is_ok(),
            "recovery writes are admitted during the grace"
        );
        let (reply, _) = s.service_from(t(13), &read_req(4), 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert!(results::get_readres(&mut dec).unwrap().is_ok());
        // The mutation hook skips the wait entirely.
        let mut cfg = ServerConfig::reno();
        cfg.leases = true;
        cfg.lease_no_reboot_grace = true;
        let mut s = NfsServer::new(cfg, t(0));
        let root_ino = s.fs().root();
        let ino = s.fs_mut().create(root_ino, "f", 0o644, t(0)).unwrap();
        s.fs_mut().write(ino, 0, &[1u8; 512], t(0)).unwrap();
        s.reboot();
        let fh = s.handle_for(ino).unwrap();
        let req = nq_call(1, NfsProc::Read, |c, m| {
            proto::build::read_args(c, m, &fh, 0, 512)
        });
        let (reply, _) = s.service_from(t(10), &req, 1);
        let (_, mut dec) = nq_reply_body(&reply);
        assert!(
            results::get_readres(&mut dec).unwrap().is_ok(),
            "no-grace mutant serves state immediately"
        );
    }

    #[test]
    fn mkdir_honours_the_requested_mode() {
        let mut s = server();
        let root = s.root_handle();
        let sattr = proto::Sattr {
            mode: Some(0o700),
            ..proto::Sattr::default()
        };
        let req = call(70, NfsProc::Mkdir, |c, m| {
            proto::build::create_args(c, m, &root, "private", &sattr)
        });
        let (reply, _) = s.service(t(1), &req);
        let (_, attr) = results::get_diropres(&mut reply_body(&reply))
            .unwrap()
            .unwrap();
        assert_eq!(attr.ftype, renofs_vfs::FileType::Directory);
        assert_eq!(attr.mode, 0o700);
    }

    #[test]
    fn symlink_and_readlink() {
        let mut s = server();
        let root = s.root_handle();
        let req = call(60, NfsProc::Symlink, |c, m| {
            proto::build::symlink_args(c, m, &root, "ln", "/target/path")
        });
        let (reply, _) = s.service(t(1), &req);
        assert_eq!(
            results::get_stat(&mut reply_body(&reply)).unwrap(),
            NfsStatus::Ok
        );
        let lk = call(61, NfsProc::Lookup, |c, m| {
            proto::build::dirop_args(c, m, &root, "ln")
        });
        let (reply, _) = s.service(t(2), &lk);
        let (fh, attr) = results::get_diropres(&mut reply_body(&reply))
            .unwrap()
            .unwrap();
        assert_eq!(attr.ftype, renofs_vfs::FileType::Symlink);
        let rl = call(62, NfsProc::Readlink, |c, m| {
            proto::build::handle_args(c, m, &fh)
        });
        let (reply, _) = s.service(t(3), &rl);
        assert_eq!(
            results::get_readlinkres(&mut reply_body(&reply))
                .unwrap()
                .unwrap(),
            "/target/path"
        );
    }
}

//! Client-side mount router for sharded multi-server fleets.
//!
//! The paper's testbed is one export on one server; a sharded fleet of
//! servers is the generalization. [`RouterFs`] plays the automounter's
//! role: it holds one [`ClientFs`] mount per export, routes each
//! path-based operation to the owning shard by longest-prefix match on
//! component boundaries, and stitches the shards back into one
//! namespace, the way `/net`-style automount maps did on period BSD
//! systems.
//!
//! Layering:
//!
//! - [`ExportMap`] — the fleet's export table, `prefix -> primary
//!   server (+ optional read-only replicas)`.
//! - [`ServerPort`] — a [`Syscalls`] adapter that pins every RPC of one
//!   mount to one server of the fleet via
//!   [`Syscalls::rpc_to`]/[`Syscalls::rpc_async_to`]. Each mount gets
//!   its own XID stream (a disjoint XID base per mount) so two mounts
//!   of one machine can never present colliding XIDs to one server's
//!   duplicate-request cache.
//! - [`RouterFs`] — the namespace facade. Handles are
//!   [`RouterHandle`]s (mount index + NFS handle) because two shards,
//!   built by the same deterministic recipe, can legitimately hand out
//!   bit-identical `FileHandle`s.
//!
//! Failure handling mirrors the soft-mount and crash-recovery semantics
//! of the single-server client: a read-only operation that dies with
//! [`ClientError::TimedOut`] or [`ClientError::Stale`] on its primary
//! is retried on each read-only replica in table order; a stale handle
//! whose mount-local recovery failed is re-walked through the export
//! map from the path, which lets recovery cross shards after the
//! namespace is re-exported.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};
use renofs_vfs::{FileType, Vattr};

use crate::client::{CResult, ClientConfig, ClientError, ClientFs};
use crate::proto::{DirEntry, FileHandle, NfsProc, RpcCounts};
use crate::syscalls::{RpcResult, Syscalls, Ticket};

/// One export of the fleet: the subtree `prefix` is owned by server
/// `primary`; `replicas` name servers carrying a read-only copy.
#[derive(Clone, Debug)]
pub struct Export {
    /// Mount point ("/" or "/name"), matched on component boundaries.
    pub prefix: String,
    /// Server index owning the subtree (all writes go here).
    pub primary: usize,
    /// Read-only replica servers, tried in order on primary failure.
    pub replicas: Vec<usize>,
}

/// The export table of an M-server fleet.
#[derive(Clone, Debug)]
pub struct ExportMap {
    exports: Vec<Export>,
}

impl ExportMap {
    /// Builds a table from explicit exports. Exactly one export must
    /// cover "/" so every path routes somewhere.
    pub fn new(exports: Vec<Export>) -> Self {
        assert!(
            exports.iter().any(|e| e.prefix == "/"),
            "an export must cover the root"
        );
        ExportMap { exports }
    }

    /// The conventional M-shard fleet layout: server 0 exports "/",
    /// server j (j >= 1) exports "/s{j}". With m == 1 this is exactly
    /// the legacy single-server namespace.
    pub fn fleet(m: usize) -> Self {
        let mut exports = vec![Export {
            prefix: "/".to_string(),
            primary: 0,
            replicas: Vec::new(),
        }];
        for j in 1..m.max(1) {
            exports.push(Export {
                prefix: format!("/s{j}"),
                primary: j,
                replicas: Vec::new(),
            });
        }
        ExportMap { exports }
    }

    /// The exports, in table order (mount index == table index).
    pub fn exports(&self) -> &[Export] {
        &self.exports
    }

    /// Longest-prefix route on component boundaries: returns the export
    /// index and the path relative to that export's root.
    pub fn route<'p>(&self, path: &'p str) -> (usize, &'p str) {
        let mut best: Option<(usize, usize)> = None; // (len, idx)
        for (idx, e) in self.exports.iter().enumerate() {
            let p = e.prefix.as_str();
            let hit = if p == "/" {
                path.starts_with('/')
            } else {
                path == p || (path.starts_with(p) && path.as_bytes().get(p.len()) == Some(&b'/'))
            };
            if hit && best.is_none_or(|(l, _)| p.len() > l) {
                best = Some((p.len(), idx));
            }
        }
        let (plen, idx) = best.expect("the root export matches every absolute path");
        let rel = if self.exports[idx].prefix == "/" {
            path
        } else {
            let r = &path[plen..];
            if r.is_empty() {
                "/"
            } else {
                r
            }
        };
        (idx, rel)
    }
}

/// [`Syscalls`] adapter pinning one mount's RPC stream to one server.
/// The underlying machine (`S`) is shared by every mount of the router
/// through an `Rc<RefCell<_>>`; the workload is single-threaded
/// blocking code, so borrows never overlap.
pub struct ServerPort<S: Syscalls> {
    sys: Rc<RefCell<S>>,
    server: usize,
}

impl<S: Syscalls> ServerPort<S> {
    /// Wraps a shared machine, pinning RPCs to `server`. Useful on its
    /// own for tests that mount plain [`ClientFs`] instances against
    /// individual shards of a fleet.
    pub fn new(sys: Rc<RefCell<S>>, server: usize) -> Self {
        ServerPort { sys, server }
    }
}

impl<S: Syscalls> Syscalls for ServerPort<S> {
    fn now(&mut self) -> SimTime {
        self.sys.borrow_mut().now()
    }
    fn charge_cpu(&mut self, d: SimDuration) {
        self.sys.borrow_mut().charge_cpu(d)
    }
    fn sleep(&mut self, d: SimDuration) {
        self.sys.borrow_mut().sleep(d)
    }
    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sys.borrow_mut().rpc_to(self.server, proc, msg)
    }
    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.sys.borrow_mut().rpc_to(server, proc, msg)
    }
    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.sys.borrow_mut().rpc_async_to(self.server, proc, msg)
    }
    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.sys.borrow_mut().rpc_async_to(server, proc, msg)
    }
    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        self.sys.borrow_mut().await_ticket(t)
    }
    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        self.sys.borrow_mut().poll_ticket(t)
    }
    fn forget_ticket(&mut self, t: Ticket) {
        self.sys.borrow_mut().forget_ticket(t)
    }
    fn wait_all_async(&mut self) {
        self.sys.borrow_mut().wait_all_async()
    }
    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        self.sys.borrow_mut().local_disk(bytes, write, sequential)
    }
}

/// A handle in the stitched namespace: which mount produced it plus the
/// shard-local NFS handle. Two shards can hand out identical
/// [`FileHandle`]s, so the mount index is part of the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouterHandle {
    /// Index into the export table (== mount index).
    pub export: usize,
    /// The shard-local NFS handle.
    pub fh: FileHandle,
}

/// Disjoint XID space per mount: the router's mount k issues XIDs
/// `k << 24 | 1 ..`, so no two mounts of one machine — even two mounts
/// reaching the *same* server (a replica next to a primary) — can
/// collide in a server's `(client, xid, proc)` duplicate cache.
fn xid_base(mount: usize) -> u32 {
    ((mount as u32) << 24) | 1
}

struct MountPoint<S: Syscalls> {
    fs: ClientFs<ServerPort<S>>,
    /// Read-only replica mounts, same order as the export's `replicas`.
    replicas: Vec<ClientFs<ServerPort<S>>>,
}

/// The automount-style namespace facade over an M-server fleet.
pub struct RouterFs<S: Syscalls> {
    map: ExportMap,
    mounts: Vec<MountPoint<S>>,
    /// Path each handle was produced under, for cross-shard `ESTALE`
    /// re-walks (mount-local recovery already lives in [`ClientFs`]).
    paths: HashMap<RouterHandle, String>,
    /// Fault-injection hook for the soak `WrongShardRoute` mutant: when
    /// set, every non-root export's subtree is misrouted to export 0
    /// (the classic "automount map edited, daemon not HUPed" failure).
    misroute: bool,
}

impl<S: Syscalls> RouterFs<S> {
    /// Mounts the fleet: one [`ClientFs`] per export (plus one per
    /// replica), all multiplexed over the machine `sys`. `roots[j]`
    /// must be server j's export root handle.
    pub fn mount(
        sys: S,
        cfg: ClientConfig,
        map: ExportMap,
        roots: &[FileHandle],
        machine: &'static str,
    ) -> Self {
        let sys = Rc::new(RefCell::new(sys));
        let mut mounts = Vec::with_capacity(map.exports.len());
        let mut next_mount = 0usize;
        for e in &map.exports {
            let mut mk = |server: usize| {
                let port = ServerPort {
                    sys: Rc::clone(&sys),
                    server,
                };
                let mut fs = ClientFs::mount(port, cfg, roots[server], machine);
                fs.set_xid_base(xid_base(next_mount));
                next_mount += 1;
                fs
            };
            let fs = mk(e.primary);
            let replicas = e.replicas.iter().map(|&r| mk(r)).collect();
            mounts.push(MountPoint { fs, replicas });
        }
        RouterFs {
            map,
            mounts,
            paths: HashMap::new(),
            misroute: false,
        }
    }

    /// Replaces the routing table without disturbing the mounts (the
    /// re-export case: a subtree moves to another shard that already
    /// carries the data). Only the prefix -> export mapping changes;
    /// the mount list must be the same length.
    pub fn set_export_map(&mut self, map: ExportMap) {
        assert_eq!(
            map.exports.len(),
            self.mounts.len(),
            "re-export cannot add or remove mounts"
        );
        self.map = map;
    }

    /// Soak-mutant hook: alias every non-root export's subtree onto
    /// export 0, keeping the shard-relative path (a wrong-shard
    /// automount map). A client running with this map resolves shard
    /// paths against the wrong server's namespace, so durable files its
    /// peers wrote simply are not there.
    pub fn set_misroute(&mut self, on: bool) {
        self.misroute = on;
    }

    /// Aggregated per-procedure RPC counters across every mount.
    pub fn counts(&self) -> RpcCounts {
        let mut total = RpcCounts::default();
        for m in &self.mounts {
            total.absorb(&m.fs.counts());
            for r in &m.replicas {
                total.absorb(&r.counts());
            }
        }
        total
    }

    /// Routes a path, honouring the misroute fault.
    fn route<'p>(&self, path: &'p str) -> (usize, &'p str) {
        let (idx, rel) = self.map.route(path);
        if self.misroute && idx != 0 {
            // Wrong automount map: the subtree's ops land on export 0
            // with the shard-relative path, colliding with whatever
            // export 0 legitimately stores there.
            return (0, rel);
        }
        (idx, rel)
    }

    /// Records `path` as `h`'s, in the string of the handle's last record
    /// when it has one.
    fn remember(&mut self, h: RouterHandle, path: &str) {
        let recorded = self.paths.entry(h).or_default();
        recorded.clear();
        recorded.push_str(path);
    }

    /// An error worth retrying on a read-only replica.
    fn failable(e: ClientError) -> bool {
        matches!(e, ClientError::TimedOut | ClientError::Stale)
    }

    // ----- path operations ----------------------------------------------

    /// Resolves a path to a handle in the stitched namespace.
    pub fn lookup_path(&mut self, path: &str) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = match self.mounts[idx].fs.lookup_path(rel) {
            Err(e) if Self::failable(e) => {
                let mut last = Err(e);
                for r in &mut self.mounts[idx].replicas {
                    last = r.lookup_path(rel);
                    if last.is_ok() {
                        break;
                    }
                }
                last?
            }
            r => r?,
        };
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// `stat(2)` through the router, with replica failover.
    pub fn stat(&mut self, path: &str) -> CResult<Vattr> {
        let (idx, rel) = self.route(path);
        match self.mounts[idx].fs.stat(rel) {
            Err(e) if Self::failable(e) => {
                let mut last = Err(e);
                for r in &mut self.mounts[idx].replicas {
                    last = r.stat(rel);
                    if last.is_ok() {
                        break;
                    }
                }
                last
            }
            r => r,
        }
    }

    /// Opens (optionally creating/truncating) a file on its owning shard.
    pub fn open(&mut self, path: &str, create: bool, truncate: bool) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = self.mounts[idx].fs.open(rel, create, truncate)?;
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// Closes a handle (pushing dirty blocks on its owning shard).
    pub fn close(&mut self, h: RouterHandle) -> CResult<()> {
        self.mounts[h.export].fs.close(h.fh)
    }

    /// Reads through the owning mount. On a failed primary
    /// (timeout/stale after mount-local recovery), replicas serve the
    /// read by path re-walk; a stale survivor is re-routed through the
    /// export map, which may cross shards after a re-export.
    pub fn read(&mut self, h: RouterHandle, off: u32, len: u32) -> CResult<Vec<u8>> {
        match self.mounts[h.export].fs.read(h.fh, off, len) {
            Err(e) if Self::failable(e) => {
                let Some(path) = self.paths.get(&h).cloned() else {
                    return Err(e);
                };
                let (_, rel) = self.map.route(&path);
                for r in &mut self.mounts[h.export].replicas {
                    if let Ok(fh) = r.lookup_path(rel) {
                        if let Ok(data) = r.read(fh, off, len) {
                            return Ok(data);
                        }
                    }
                }
                // Cross-shard re-walk: the export map may route the
                // path to a different (healthy) shard by now.
                let h2 = self.lookup_path(&path)?;
                if h2 == h {
                    return Err(e);
                }
                self.mounts[h2.export].fs.read(h2.fh, off, len)
            }
            r => r,
        }
    }

    /// Writes through the owning mount (writes never fail over).
    pub fn write(&mut self, h: RouterHandle, off: u32, data: &[u8]) -> CResult<()> {
        self.mounts[h.export].fs.write(h.fh, off, data)
    }

    /// Pushes a handle's dirty blocks on its owning shard.
    pub fn push_dirty(&mut self, h: RouterHandle, sync: bool) -> CResult<()> {
        self.mounts[h.export].fs.push_dirty(h.fh, sync)
    }

    /// `sync(2)`: pushes every mount's dirty state.
    pub fn sync(&mut self) -> CResult<()> {
        for m in &mut self.mounts {
            m.fs.sync()?;
        }
        Ok(())
    }

    /// Creates a directory on the owning shard.
    pub fn mkdir(&mut self, path: &str) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = self.mounts[idx].fs.mkdir(rel)?;
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// Removes a file on the owning shard.
    pub fn remove(&mut self, path: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].fs.remove(rel)
    }

    /// Removes a directory on the owning shard.
    pub fn rmdir(&mut self, path: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].fs.rmdir(rel)
    }

    /// Renames within a shard natively; across shards, the router does
    /// what the kernel does for cross-device renames at the VFS layer —
    /// refuses the atomic op — and what `mv(1)` then does in userland:
    /// copy the bytes and remove the source. Directories do not move
    /// across shards.
    pub fn rename(&mut self, from: &str, to: &str) -> CResult<()> {
        let (fi, frel) = self.route(from);
        let (ti, trel) = self.route(to);
        if fi == ti {
            return self.mounts[fi].fs.rename(frel, trel);
        }
        let attr = self.mounts[fi].fs.stat(frel)?;
        if attr.ftype != FileType::Regular {
            // EXDEV territory: only plain files are copied across.
            return Err(ClientError::Nfs(crate::proto::NfsStatus::IsDir));
        }
        let src = self.mounts[fi].fs.lookup_path(frel)?;
        let dst = self.mounts[ti].fs.open(trel, true, true)?;
        let mut off = 0u32;
        while off < attr.size {
            let want = (attr.size - off).min(renofs_vfs::BLOCK_SIZE as u32);
            let data = self.mounts[fi].fs.read(src, off, want)?;
            if data.is_empty() {
                break;
            }
            self.mounts[ti].fs.write(dst, off, &data)?;
            off += data.len() as u32;
        }
        self.mounts[ti].fs.close(dst)?;
        self.mounts[fi].fs.remove(frel)
    }

    /// Creates a symlink on the owning shard.
    pub fn symlink(&mut self, path: &str, target: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].fs.symlink(rel, target)
    }

    /// Reads a symlink on the owning shard, with replica failover.
    pub fn readlink(&mut self, path: &str) -> CResult<String> {
        let (idx, rel) = self.route(path);
        match self.mounts[idx].fs.readlink(rel) {
            Err(e) if Self::failable(e) => {
                let mut last = Err(e);
                for r in &mut self.mounts[idx].replicas {
                    last = r.readlink(rel);
                    if last.is_ok() {
                        break;
                    }
                }
                last
            }
            r => r,
        }
    }

    /// Lists a directory on the owning shard, with replica failover. The
    /// listing is the answering mount's cached one itself.
    pub fn readdir(&mut self, path: &str) -> CResult<&[DirEntry]> {
        let (idx, rel) = self.route(path);
        let mount = &mut self.mounts[idx];
        let err = match mount.fs.readdir(rel) {
            Err(e) if Self::failable(e) => e,
            r => return r,
        };
        let mut last = Err(err);
        for r in &mut mount.replicas {
            last = r.readdir(rel);
            if last.is_ok() {
                break;
            }
        }
        last
    }

    /// The machine's clock, via mount 0 (every mount shares one
    /// machine, so any port answers identically).
    pub fn now(&mut self) -> SimTime {
        self.mounts[0].fs.sys().now()
    }

    /// Sleeps the machine's workload proc.
    pub fn sleep(&mut self, d: SimDuration) {
        self.mounts[0].fs.sys().sleep(d)
    }

    /// Pushes write-behind data whose leases are idle, on every mount
    /// (a no-op outside lease worlds).
    pub fn flush_idle(&mut self) -> CResult<()> {
        for m in &mut self.mounts {
            m.fs.flush_idle()?;
        }
        Ok(())
    }

    /// Direct access to one export's primary [`ClientFs`] (tests,
    /// instrumentation).
    pub fn mount_of(&mut self, export: usize) -> &mut ClientFs<ServerPort<S>> {
        &mut self.mounts[export].fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_map_routes_longest_prefix_on_component_boundaries() {
        let map = ExportMap::fleet(4);
        assert_eq!(map.route("/a/b"), (0, "/a/b"));
        assert_eq!(map.route("/s1/a"), (1, "/a"));
        assert_eq!(map.route("/s1"), (1, "/"));
        assert_eq!(map.route("/s3/x/y"), (3, "/x/y"));
        // "/s10" is NOT under "/s1": component boundary matters.
        assert_eq!(map.route("/s10/a"), (0, "/s10/a"));
    }

    #[test]
    fn fleet_map_of_one_server_is_the_legacy_namespace() {
        let map = ExportMap::fleet(1);
        assert_eq!(map.exports().len(), 1);
        assert_eq!(map.route("/anything/at/all"), (0, "/anything/at/all"));
    }

    #[test]
    fn custom_map_picks_longest_prefix() {
        let map = ExportMap::new(vec![
            Export {
                prefix: "/".into(),
                primary: 0,
                replicas: vec![],
            },
            Export {
                prefix: "/proj".into(),
                primary: 1,
                replicas: vec![],
            },
            Export {
                prefix: "/proj/deep".into(),
                primary: 2,
                replicas: vec![],
            },
        ]);
        assert_eq!(map.route("/proj/deep/f"), (2, "/f"));
        assert_eq!(map.route("/proj/shallow"), (1, "/shallow"));
        assert_eq!(map.route("/other"), (0, "/other"));
    }

    #[test]
    #[should_panic(expected = "root")]
    fn map_without_root_export_is_rejected() {
        ExportMap::new(vec![Export {
            prefix: "/only".into(),
            primary: 0,
            replicas: vec![],
        }]);
    }

    #[test]
    fn xid_bases_are_disjoint_per_mount() {
        // 2^24 xids of headroom per mount: no two mounts can collide
        // within a run (the busiest experiments issue ~10^6 RPCs).
        assert_eq!(xid_base(0), 1);
        assert_eq!(xid_base(1), 1 << 24 | 1);
        assert_ne!(xid_base(2) >> 24, xid_base(1) >> 24);
    }
}

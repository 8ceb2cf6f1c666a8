//! Client-side mount router for sharded multi-server fleets.
//!
//! The paper's testbed is one export on one server; a sharded fleet of
//! servers is the generalization. [`RouterFs`] plays the automounter's
//! role: it holds one [`ClientFs`] mount per server, routes each
//! path-based operation to the owning shard and stitches the shards
//! back into one namespace, the way `/net`-style automount maps did on
//! period BSD systems.
//!
//! Layering:
//!
//! - [`ExportMap`] — the fleet layout: server 0 exports "/", server j
//!   (j >= 1) exports "/s{j}".
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
//! A read that dies with [`ClientError::TimedOut`] or
//! [`ClientError::Stale`] after the mount's own recovery is retried
//! once through a fresh walk of the path its handle was produced under.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};
use renofs_vfs::FileType;

use crate::client::{CResult, ClientConfig, ClientError, ClientFs};
use crate::proto::{DirEntry, FileHandle, NfsProc, RpcCounts};
use crate::syscalls::{RpcResult, Syscalls, Ticket};

/// The layout of an M-server fleet.
#[derive(Clone, Debug)]
pub struct ExportMap {
    servers: usize,
}

impl ExportMap {
    /// The M-shard fleet layout: server 0 exports "/", server j
    /// (j >= 1) exports "/s{j}". With m <= 1 this is exactly the legacy
    /// single-server namespace.
    pub fn fleet(m: usize) -> Self {
        ExportMap { servers: m.max(1) }
    }

    /// Routes an absolute path: a first component `s{j}`, with j in
    /// canonical decimal and 1 <= j < M, goes to server j with the rest
    /// of the path ("/" if none); any other path goes to server 0
    /// unchanged.
    pub fn route<'p>(&self, path: &'p str) -> (usize, &'p str) {
        assert!(path.starts_with('/'), "a route needs an absolute path");
        let end = path[1..].find('/').map_or(path.len(), |i| i + 1);
        let shard = path[..end]
            .strip_prefix("/s")
            .filter(|d| !d.starts_with('0') && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|&j| j < self.servers);
        match (shard, &path[end..]) {
            (Some(j), "") => (j, "/"),
            (Some(j), rel) => (j, rel),
            (None, _) => (0, path),
        }
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
    /// The server, and mount, that produced the handle.
    pub export: usize,
    /// The shard-local NFS handle.
    pub fh: FileHandle,
}

/// Disjoint XID space per mount: the router's mount k issues XIDs
/// `k << 24 | 1 ..`, so no two mounts of one machine can collide in a
/// server's `(client, xid, proc)` duplicate cache.
fn xid_base(mount: usize) -> u32 {
    ((mount as u32) << 24) | 1
}

/// The automount-style namespace facade over an M-server fleet.
pub struct RouterFs<S: Syscalls> {
    map: ExportMap,
    /// Mount j is server j's.
    mounts: Vec<ClientFs<ServerPort<S>>>,
    /// Path each handle was produced under, for the read re-walk
    /// (mount-local recovery already lives in [`ClientFs`]); a path this
    /// mount unlinks or renames away is dropped.
    paths: HashMap<RouterHandle, String>,
    /// Fault-injection hook for the soak `WrongShardRoute` mutant: when
    /// set, every non-root export's subtree is misrouted to export 0
    /// (the classic "automount map edited, daemon not HUPed" failure).
    misroute: bool,
}

impl<S: Syscalls> RouterFs<S> {
    /// Mounts the fleet: one [`ClientFs`] per server, all multiplexed
    /// over the machine `sys`. `roots[j]` must be server j's export
    /// root handle.
    pub fn mount(
        sys: S,
        cfg: ClientConfig,
        map: ExportMap,
        roots: &[FileHandle],
        machine: &'static str,
    ) -> Self {
        let sys = Rc::new(RefCell::new(sys));
        let mounts = (0..map.servers)
            .map(|server| {
                let port = ServerPort::new(Rc::clone(&sys), server);
                let mut fs = ClientFs::mount(port, cfg, roots[server], machine);
                fs.set_xid_base(xid_base(server));
                fs
            })
            .collect();
        RouterFs {
            map,
            mounts,
            paths: HashMap::new(),
            misroute: false,
        }
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
            total.absorb(&m.counts());
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

    /// Drops the record of every handle produced under `path`.
    fn forget(&mut self, path: &str) {
        self.paths.retain(|_, recorded| recorded != path);
    }

    // ----- path operations ----------------------------------------------

    /// Resolves a path to a handle in the stitched namespace.
    pub fn lookup_path(&mut self, path: &str) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = self.mounts[idx].lookup_path(rel)?;
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// Opens (optionally creating/truncating) a file on its owning shard.
    pub fn open(&mut self, path: &str, create: bool, truncate: bool) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = self.mounts[idx].open(rel, create, truncate)?;
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// Closes a handle (pushing dirty blocks on its owning shard).
    pub fn close(&mut self, h: RouterHandle) -> CResult<()> {
        self.mounts[h.export].close(h.fh)
    }

    /// Reads through the owning mount. A read that still times out or
    /// finds its handle stale after the mount's own recovery walks its
    /// recorded path again, and reads through the handle found there if
    /// that is a different one.
    pub fn read(&mut self, h: RouterHandle, off: u32, len: u32) -> CResult<Vec<u8>> {
        match self.mounts[h.export].read(h.fh, off, len) {
            Err(e @ (ClientError::TimedOut | ClientError::Stale)) => {
                let Some(path) = self.paths.get(&h).cloned() else {
                    return Err(e);
                };
                let h2 = self.lookup_path(&path)?;
                if h2 == h {
                    return Err(e);
                }
                self.mounts[h2.export].read(h2.fh, off, len)
            }
            r => r,
        }
    }

    /// Writes through the owning mount.
    pub fn write(&mut self, h: RouterHandle, off: u32, data: &[u8]) -> CResult<()> {
        self.mounts[h.export].write(h.fh, off, data)
    }

    /// Creates a directory on the owning shard.
    pub fn mkdir(&mut self, path: &str) -> CResult<RouterHandle> {
        let (idx, rel) = self.route(path);
        let fh = self.mounts[idx].mkdir(rel)?;
        let h = RouterHandle { export: idx, fh };
        self.remember(h, path);
        Ok(h)
    }

    /// Removes a file on the owning shard.
    pub fn remove(&mut self, path: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].remove(rel)?;
        self.forget(path);
        Ok(())
    }

    /// Removes a directory on the owning shard.
    pub fn rmdir(&mut self, path: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].rmdir(rel)
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
            self.mounts[fi].rename(frel, trel)?;
            self.forget(from);
            return Ok(());
        }
        let attr = self.mounts[fi].stat(frel)?;
        if attr.ftype != FileType::Regular {
            // EXDEV territory: only plain files are copied across.
            return Err(ClientError::Nfs(crate::proto::NfsStatus::IsDir));
        }
        let src = self.mounts[fi].lookup_path(frel)?;
        let dst = self.mounts[ti].open(trel, true, true)?;
        let mut off = 0u32;
        while off < attr.size {
            let want = (attr.size - off).min(renofs_vfs::BLOCK_SIZE as u32);
            let data = self.mounts[fi].read(src, off, want)?;
            if data.is_empty() {
                break;
            }
            self.mounts[ti].write(dst, off, &data)?;
            off += data.len() as u32;
        }
        self.mounts[ti].close(dst)?;
        self.mounts[fi].remove(frel)?;
        self.forget(from);
        Ok(())
    }

    /// Creates a symlink on the owning shard.
    pub fn symlink(&mut self, path: &str, target: &str) -> CResult<()> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].symlink(rel, target)
    }

    /// Reads a symlink on the owning shard.
    pub fn readlink(&mut self, path: &str) -> CResult<String> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].readlink(rel)
    }

    /// Lists a directory on the owning shard: the mount's cached listing
    /// itself.
    pub fn readdir(&mut self, path: &str) -> CResult<&[DirEntry]> {
        let (idx, rel) = self.route(path);
        self.mounts[idx].readdir(rel)
    }

    /// The machine's clock, via mount 0 (every mount shares one
    /// machine, so any port answers identically).
    pub fn now(&mut self) -> SimTime {
        self.mounts[0].sys().now()
    }

    /// Sleeps the machine's workload proc.
    pub fn sleep(&mut self, d: SimDuration) {
        self.mounts[0].sys().sleep(d)
    }

    /// Pushes write-behind data whose leases are idle, on every mount
    /// (a no-op outside lease worlds).
    pub fn flush_idle(&mut self) -> CResult<()> {
        for m in &mut self.mounts {
            m.flush_idle()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table-driven router `ExportMap` once was, kept as the
    /// reference: a list of `(prefix, server)` exports matched by
    /// longest prefix on component boundaries.
    fn table_route<'p>(exports: &[(String, usize)], path: &'p str) -> (usize, &'p str) {
        let mut best: Option<(usize, usize)> = None; // (len, idx)
        for (idx, (p, _)) in exports.iter().enumerate() {
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
        let (prefix, server) = &exports[idx];
        let rel = match &path[plen..] {
            _ if prefix == "/" => path,
            "" => "/",
            r => r,
        };
        (*server, rel)
    }

    /// The fleet layout as a table: "/" on server 0, "/s{j}" on server j.
    fn fleet_table(m: usize) -> Vec<(String, usize)> {
        let mut exports = vec![("/".to_string(), 0)];
        exports.extend((1..m.max(1)).map(|j| (format!("/s{j}"), j)));
        exports
    }

    /// A path component near the shard names: `s` with a number, with a
    /// leading zero, an `s`-and-digit soup (empty included) or a plain
    /// name.
    fn component() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..=12).prop_map(|j| format!("s{j}")),
            (0usize..=12).prop_map(|j| format!("s0{j}")),
            "[s0-9]{0,4}",
            "[a-z0-9]{1,3}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn route_matches_the_longest_prefix_table(
            m in 1usize..=8,
            comps in proptest::collection::vec(component(), 0..4),
            trailing in any::<bool>(),
        ) {
            let mut path = format!("/{}", comps.join("/"));
            if trailing && path.len() > 1 {
                path.push('/');
            }
            prop_assert_eq!(
                ExportMap::fleet(m).route(&path),
                table_route(&fleet_table(m), &path),
                "m={} path={:?}",
                m,
                path
            );
        }
    }

    #[test]
    fn fleet_map_routes_longest_prefix_on_component_boundaries() {
        let map = ExportMap::fleet(4);
        assert_eq!(map.route("/a/b"), (0, "/a/b"));
        assert_eq!(map.route("/s1/a"), (1, "/a"));
        assert_eq!(map.route("/s1"), (1, "/"));
        assert_eq!(map.route("/s3/x/y"), (3, "/x/y"));
        // "/s10" is NOT under "/s1": component boundary matters.
        assert_eq!(map.route("/s10/a"), (0, "/s10/a"));
        // Neither a non-canonical nor an out-of-range shard name routes.
        assert_eq!(map.route("/s0/a"), (0, "/s0/a"));
        assert_eq!(map.route("/s01/a"), (0, "/s01/a"));
        assert_eq!(map.route("/s+1/a"), (0, "/s+1/a"));
        assert_eq!(map.route("/s4/a"), (0, "/s4/a"));
    }

    #[test]
    fn fleet_map_of_one_server_is_the_legacy_namespace() {
        let map = ExportMap::fleet(1);
        assert_eq!(map.route("/anything/at/all"), (0, "/anything/at/all"));
        assert_eq!(map.route("/s1/x"), (0, "/s1/x"));
    }

    /// Files created and removed, or renamed away, leave no recorded path
    /// behind: the table holds only what the mount can still name.
    #[test]
    fn unlinked_paths_are_forgotten() {
        use crate::server::{NfsServer, ServerConfig};
        use crate::syscalls::Loopback;
        let server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        let root = server.root_handle();
        let sys = Loopback::new(server);
        let cfg = ClientConfig::reno();
        let mut r = RouterFs::mount(sys, cfg, ExportMap::fleet(1), &[root], "uvax1");
        r.mkdir("/d").unwrap();
        for i in 0..100 {
            let path = format!("/d/f{i}");
            let h = r.open(&path, true, false).unwrap();
            r.write(h, 0, b"bytes").unwrap();
            r.close(h).unwrap();
            if i % 2 == 0 {
                r.remove(&path).unwrap();
            } else {
                r.rename(&path, "/d/last").unwrap();
            }
        }
        assert!(r.paths.len() <= 2, "{} paths recorded", r.paths.len());
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

//! Name resolution: LOOKUP through the name cache, the parent of a
//! path, and recovery from stale handles after a server reboot
//! (re-walking the path a vnode was opened under).

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_vfs::VnodeId;

use super::lease_io::{LEASE_RETRY_MAX, LEASE_RETRY_STEP};
use super::{CResult, ClientError, ClientFs};
use crate::proto::{self, results, FileHandle, NfsProc, NfsStatus};
use crate::syscalls::Syscalls;

impl<S: Syscalls> ClientFs<S> {
    /// Drops every cached attribute so post-reboot validations go to the
    /// wire (where stale handles are detected and refreshed) instead of
    /// trusting entries that may carry a pre-reboot handle's epoch.
    fn stale_purge(&mut self) {
        for &t in self.vnodes.keys() {
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
    pub(super) fn recover_stale_fh(&mut self, fh: FileHandle) -> CResult<FileHandle> {
        let token = fh.vnode_token();
        let Some(path) = self.recorded_path(token).map(str::to_string) else {
            return Err(ClientError::Stale);
        };
        self.stale_purge();
        let mut at = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            at = self.lookup_rpc(at, comp)?;
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
    pub(super) fn with_stale_retry<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> CResult<T>,
    ) -> CResult<T> {
        match f(self) {
            Err(ClientError::Stale) => {
                self.stale_purge();
                f(self)
            }
            r => r,
        }
    }

    /// Runs `f` on `fh`, recovering a stale handle once (the rerun gets
    /// the fresh one) and pacing out up to [`LEASE_RETRY_MAX`] `TryLater`
    /// deferrals while the server waits out a conflicting lease or its
    /// post-reboot grace.
    pub(super) fn with_fh_retry<T>(
        &mut self,
        fh: FileHandle,
        mut f: impl FnMut(&mut Self, FileHandle) -> CResult<T>,
    ) -> CResult<T> {
        let mut tries = 0;
        loop {
            match f(self, fh) {
                Err(ClientError::Stale) => {
                    let fh = self.recover_stale_fh(fh)?;
                    return f(self, fh);
                }
                Err(ClientError::Nfs(NfsStatus::TryLater)) if tries < LEASE_RETRY_MAX => {
                    tries += 1;
                    self.sys.sleep(LEASE_RETRY_STEP);
                }
                r => return r,
            }
        }
    }

    /// One LOOKUP, CREATE or MKDIR of `name` in `dir`: the call, then
    /// the entry's attributes (which also enter its vnode) and its
    /// name-cache translation.
    pub(super) fn entry_rpc(
        &mut self,
        proc: NfsProc,
        dir: FileHandle,
        name: &str,
        build: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> CResult<FileHandle> {
        let (fh, attr) = self.rpc(proc, build, results::get_diropres)?;
        self.receive_attrs(fh, &attr, false);
        self.namecache
            .enter(dir.vnode_token(), name, fh.vnode_token());
        Ok(fh)
    }

    fn lookup_rpc(&mut self, dir: FileHandle, name: &str) -> CResult<FileHandle> {
        let fh = self.entry_rpc(NfsProc::Lookup, dir, name, |c, m| {
            proto::build::dirop_args(c, m, &dir, name)
        })?;
        // Refresh a stored handle whose boot epoch a server reboot left
        // behind.
        self.vnode(fh).fh = fh;
        Ok(fh)
    }

    /// Resolves one component under a directory.
    pub fn lookup_component(&mut self, dir: FileHandle, name: &str) -> CResult<FileHandle> {
        let cached = self.namecache.lookup(dir.vnode_token(), name);
        let Some((token, fh)) = cached.and_then(|t| Some((t, self.vnodes.get(&t)?.fh))) else {
            return self.lookup_rpc(dir, name);
        };
        // Validate the cached translation through the attribute cache; a
        // stale handle falls back to a fresh LOOKUP.
        match self.getattr_validated(fh) {
            Err(ClientError::Stale) => {
                self.namecache.invalidate(dir.vnode_token(), name);
                self.attrcache.invalidate(token);
                let fresh = self.lookup_rpc(dir, name);
                if !fresh.is_ok_and(|f| f.vnode_token() == token) {
                    // The name is gone or binds to a new inode now: the
                    // old vnode's file is gone.
                    self.drop_vnode(token);
                }
                fresh
            }
            r => r.map(|_| self.current_fh(fh)),
        }
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
    pub(super) fn resolve_parent<'p>(&mut self, path: &'p str) -> CResult<(FileHandle, &'p str)> {
        let path = path.trim_end_matches('/');
        let (parent, last) = path.rsplit_once('/').unwrap_or(("", path));
        if last.is_empty() {
            return Err(ClientError::Nfs(NfsStatus::Acces));
        }
        Ok((self.lookup_path(parent)?, last))
    }

    pub(super) fn drop_vnode(&mut self, token: VnodeId) {
        self.vnodes.remove(&token);
        self.attrcache.invalidate(token);
        self.namecache.purge_vnode(token);
        self.bufcache.purge_vnode(token);
        self.forget_listing(token);
        let sys = &mut self.sys;
        self.pending_writes.retain(|pw| {
            if pw.token == token {
                sys.forget_ticket(pw.ticket);
            }
            pw.token != token
        });
        self.forget_reads(token);
    }
}

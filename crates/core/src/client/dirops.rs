//! Directory operations: open (and create), mkdir, remove, rmdir,
//! rename, symlink, readlink, readdir and statfs.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_vfs::VnodeId;
use renofs_xdr::{XdrDecoder, XdrError};

use super::{CResult, ClientError, ClientFs};
use crate::costs;
use crate::proto::{self, results, DirEntry, FileHandle, NfsProc, NfsStatus, Sattr};
use crate::syscalls::Syscalls;

impl<S: Syscalls> ClientFs<S> {
    /// Opens a path. With `create`, the file is created if absent; with
    /// `truncate`, an existing file is truncated to zero.
    pub fn open(&mut self, path: &str, create: bool, truncate: bool) -> CResult<FileHandle> {
        self.enter()?;
        let fh = self.with_stale_retry(|c| c.open_inner(path, create, truncate))?;
        self.remember_path(fh, path);
        Ok(fh)
    }

    fn open_inner(&mut self, path: &str, create: bool, truncate: bool) -> CResult<FileHandle> {
        match self.lookup_path(path) {
            Ok(fh) => {
                if truncate {
                    // The SETATTR drops the cached blocks and the size.
                    self.setattr_fh(fh, Sattr::truncate(0))?;
                    // Truncate-open is a write-intent open.
                    self.lease_acquire(fh, true)?;
                } else if self.lease_acquire(fh, false)? {
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
                let sattr = Sattr {
                    mode: Some(0o644),
                    size: Some(0),
                    ..Sattr::default()
                };
                // Unlike mkdir, create leaves the parent's attributes
                // cached.
                let fh = self.entry_rpc(NfsProc::Create, dir, name, |c, m| {
                    proto::build::create_args(c, m, &dir, name, &sattr)
                })?;
                // A freshly created file is about to be written: take the
                // write lease up front so those writes can stay behind.
                self.lease_acquire(fh, true)?;
                Ok(fh)
            }
            Err(e) => Err(e),
        }
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
        let fh = self.entry_rpc(NfsProc::Mkdir, dir, name, |c, m| {
            proto::build::create_args(c, m, &dir, name, &Sattr::default())
        })?;
        self.dir_changed(dir);
        Ok(fh)
    }

    /// Removes a file.
    pub fn remove(&mut self, path: &str) -> CResult<()> {
        self.enter()?;
        self.with_stale_retry(|c| c.unlink(NfsProc::Remove, path))
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| c.unlink(NfsProc::Rmdir, path))
    }

    /// REMOVE or RMDIR `path`, then forget what was cached of it.
    fn unlink(&mut self, proc: NfsProc, path: &str) -> CResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let target = self.namecache.lookup(dir.vnode_token(), name);
        self.rpc(
            proc,
            |c, m| proto::build::dirop_args(c, m, &dir, name),
            bare_status,
        )?;
        self.namecache.invalidate(dir.vnode_token(), name);
        if let Some(token) = target {
            // Remove-discard: dirty write-behind blocks of a deleted
            // file are dropped unwritten (the server purges its lease
            // entry along with the inode) — the Create-Delete win. A
            // directory never holds a lease.
            if let Some(v) = self.vnodes.get(&token) {
                self.leases.forget(v.fh.ino);
            }
            self.drop_vnode(token);
        }
        self.dir_changed(dir);
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
        self.rpc(
            NfsProc::Rename,
            |c, m| proto::build::rename_args(c, m, &fdir, fname, &tdir, tname),
            bare_status,
        )?;
        self.namecache.invalidate(fdir.vnode_token(), fname);
        self.namecache.invalidate(tdir.vnode_token(), tname);
        self.dir_changed(fdir);
        self.dir_changed(tdir);
        Ok(())
    }

    /// Creates a symbolic link.
    pub fn symlink(&mut self, path: &str, target: &str) -> CResult<()> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| {
            let (dir, name) = c.resolve_parent(path)?;
            c.rpc(
                NfsProc::Symlink,
                |ch, m| proto::build::symlink_args(ch, m, &dir, name, target),
                bare_status,
            )
        })
    }

    /// Reads a symbolic link.
    pub fn readlink(&mut self, path: &str) -> CResult<String> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        self.with_stale_retry(|c| {
            let fh = c.lookup_path(path)?;
            c.rpc(
                NfsProc::Readlink,
                |ch, m| proto::build::handle_args(ch, m, &fh),
                results::get_readlinkres,
            )
        })
    }

    /// Lists a directory, using the cached listing when valid. With the
    /// READDIRLOOKUP extension enabled, one RPC also primes the name and
    /// attribute caches for every entry, so the stats that follow an
    /// `ls -l` need no further lookups — the paper's "many name lookups
    /// per RPC" future direction. The listing is the cached one itself.
    pub fn readdir(&mut self, path: &str) -> CResult<&[DirEntry]> {
        self.sys.charge_cpu(costs::SYSCALL_FIXED);
        let token = self.with_stale_retry(|c| c.readdir_inner(path))?;
        Ok(&self.readdir_cache[&token])
    }

    /// Brings the directory's listing into `readdir_cache` and returns
    /// its key.
    fn readdir_inner(&mut self, path: &str) -> CResult<VnodeId> {
        let fh = self.lookup_path(path)?;
        let token = fh.vnode_token();
        if self.cfg.consistency {
            self.getattr_validated(fh)?;
        }
        if self.readdir_cache.contains_key(&token) {
            return Ok(token);
        }
        // Entries are decoded straight into the listing, which reuses
        // the storage of the last one dropped.
        let mut all = std::mem::take(&mut self.spare_listing);
        let mut cookie = 0u32;
        loop {
            let page = all.len();
            let build = |c: &mut MbufChain, m: &mut CopyMeter| {
                proto::build::readdir_args(c, m, &fh, cookie, 8192)
            };
            let eof = if self.cfg.use_readdir_lookup {
                let (entries, eof) =
                    self.rpc(NfsProc::ReaddirLookup, build, results::get_readdirplusres)?;
                for e in entries {
                    self.receive_attrs(e.fh, &e.attr, false);
                    self.namecache
                        .enter(token, &e.entry.name, e.fh.vnode_token());
                    all.push(e.entry);
                }
                eof
            } else {
                self.rpc(NfsProc::Readdir, build, |dec| {
                    results::get_readdirres(dec, &mut all)
                })?
            };
            match all[page..].last() {
                Some(last) if !eof => cookie = last.cookie,
                _ => break,
            }
        }
        self.readdir_cache.insert(token, all);
        Ok(token)
    }

    /// Filesystem statistics.
    pub fn statfs(&mut self) -> CResult<(u32, u32, u32, u32, u32)> {
        let root = self.root;
        self.rpc(
            NfsProc::Statfs,
            |c, m| proto::build::handle_args(c, m, &root),
            results::get_statfsres,
        )
    }
}

/// Decodes a bare status for [`ClientFs::rpc`]. `NFSERR_STALE` stays
/// `Nfs(Stale)` here rather than [`ClientError::Stale`], so a stale
/// directory handle under REMOVE, RMDIR, RENAME or SYMLINK is reported,
/// not recovered (DESIGN.md §12).
fn bare_status(dec: &mut XdrDecoder<'_>) -> Result<CResult<()>, XdrError> {
    Ok(match results::get_stat(dec)? {
        NfsStatus::Ok => Ok(()),
        s => Err(ClientError::Nfs(s)),
    })
}

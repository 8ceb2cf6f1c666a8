//! The per-procedure handlers: what each NFS call does to the exported
//! filesystem and the server's caches, and what it charges.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::SimTime;
use renofs_vfs::{Buf, InodeId, MemFs, Vattr, VnodeId, BLOCK_SIZE};

use super::{NfsServer, ServiceCost};
use crate::proto::{
    self, results, DirEntry, DirEntryPlus, FileHandle, NfsArgs, NfsProc, NfsStatus, Sattr,
    LEASE_MODE_RELEASE, LEASE_MODE_WRITE,
};

/// The name cache and buffer cache key on the inode number.
fn vnode(ino: InodeId) -> VnodeId {
    VnodeId(ino.0 as u64)
}

/// Visits the page of `dir`'s entries after `cookie` that fits the
/// requested byte `count` (~24 bytes + the name each), charging each
/// entry's copy, and returns whether the page ends the directory. The
/// directory's blocks are read first, by the caller.
fn list_page(
    fs: &MemFs,
    dir: InodeId,
    cookie: u32,
    count: u32,
    cost: &mut ServiceCost,
    mut visit: impl FnMut(u32, &str, InodeId),
) -> Result<bool, NfsStatus> {
    let max_entries = ((count as usize) / 32).clamp(1, 512);
    Ok(fs.readdir(dir, cookie, max_entries, |cookie, name, id| {
        cost.bytes_copied += 24 + name.len() as u64;
        visit(cookie, name, id);
    })?)
}

impl NfsServer {
    /// Lease admission for a data access (see
    /// [`crate::lease::ServerLeases::admit`]); skipped, handle resolution
    /// included, unless leases are enabled.
    fn lease_admit(
        &mut self,
        fh: &FileHandle,
        client: u32,
        write: bool,
        now: SimTime,
    ) -> Result<(), NfsStatus> {
        if !self.cfg.leases {
            return Ok(());
        }
        let ino = self.resolve(fh).ok().map(|i| i.0);
        self.leases.admit(ino, client, write, now)
    }

    pub(super) fn dispatch(
        &mut self,
        now: SimTime,
        proc: NfsProc,
        args: NfsArgs,
        client: u32,
        reply: &mut MbufChain,
        cost: &mut ServiceCost,
    ) {
        match (proc, args) {
            (NfsProc::Null, _) => {}
            (NfsProc::Getattr, NfsArgs::Handle(fh)) => {
                let res = self.resolve(&fh).and_then(|ino| Ok(self.fs.getattr(ino)?));
                cost.cache_steps += 1;
                results::put_attrstat(reply, &mut self.meter, &res);
            }
            (NfsProc::Setattr, NfsArgs::Setattr(fh, s)) => {
                let res = self.lease_admit(&fh, client, true, now).and_then(|()| {
                    let ino = self.resolve(&fh)?;
                    Ok(self.fs.setattr(ino, s.size, s.mode, s.uid, s.gid, now)?)
                });
                if res.is_ok() {
                    cost.disk_writes.push(512); // inode
                }
                results::put_attrstat(reply, &mut self.meter, &res);
            }
            (NfsProc::Lookup, NfsArgs::DirOp(fh, name)) => {
                let res = self.do_lookup(&fh, &name, cost);
                results::put_diropres(reply, &mut self.meter, &res);
            }
            (NfsProc::Readlink, NfsArgs::Handle(fh)) => {
                let res = self.resolve(&fh).and_then(|ino| Ok(self.fs.readlink(ino)?));
                results::put_readlinkres(reply, &mut self.meter, &res);
            }
            (NfsProc::Read, NfsArgs::Read(fh, offset, count)) => {
                let res = self
                    .lease_admit(&fh, client, false, now)
                    .and_then(|()| self.do_read(&fh, offset, count, now, cost));
                results::put_readres(reply, &mut self.meter, res);
            }
            (NfsProc::Write, NfsArgs::Write(fh, offset, data)) => {
                let res = self
                    .lease_admit(&fh, client, true, now)
                    .and_then(|()| self.do_write(&fh, offset, data, now, cost));
                results::put_attrstat(reply, &mut self.meter, &res);
            }
            (NfsProc::Create | NfsProc::Mkdir, NfsArgs::Create(fh, name, sattr)) => {
                let res = self.do_make(proc, &fh, &name, &sattr, now, cost);
                results::put_diropres(reply, &mut self.meter, &res);
            }
            (
                NfsProc::Remove
                | NfsProc::Rmdir
                | NfsProc::Rename
                | NfsProc::Link
                | NfsProc::Symlink,
                args,
            ) => {
                let res = self.namespace_op(proc, args, client, now);
                if res.is_ok() {
                    cost.namespace_change();
                }
                let stat = res.err().unwrap_or(NfsStatus::Ok);
                results::put_stat(reply, &mut self.meter, stat);
            }
            (NfsProc::Readdir, NfsArgs::Readdir(fh, cookie, count)) => {
                self.do_readdir(&fh, cookie, count, reply, cost);
            }
            (NfsProc::ReaddirLookup, NfsArgs::ReaddirLookup(fh, cookie, count)) => {
                let res = self.do_readdir_lookup(&fh, cookie, count, cost);
                results::put_readdirplusres(reply, &mut self.meter, &res);
            }
            (NfsProc::Statfs, NfsArgs::Handle(fh)) => {
                let res = self.resolve(&fh).map(|_| {
                    let (bsize, blocks, bfree) = self.fs.statfs();
                    (proto::NFS_MAXDATA as u32, bsize, blocks, bfree, bfree)
                });
                results::put_statfsres(reply, &mut self.meter, &res);
            }
            (NfsProc::Getlease, NfsArgs::Getlease(fh, mode)) => {
                let res = self.do_getlease(&fh, mode, client, now);
                cost.cache_steps += 1;
                results::put_leaseres(reply, &mut self.meter, &res);
            }
            _ => {
                // Argument/procedure mismatch can't happen via decode_args.
                results::put_stat(reply, &mut self.meter, NfsStatus::Io);
            }
        }
    }

    /// The handle and attributes a reply names an entry by (LOOKUP,
    /// CREATE, MKDIR, READDIRLOOKUP).
    fn entry(&self, id: InodeId) -> Result<(FileHandle, Vattr), NfsStatus> {
        Ok((self.handle_for(id)?, self.fs.getattr(id)?))
    }

    /// Looks block `blk` of `v` up in the buffer cache, adding the search
    /// steps to `cost`; whether it was resident.
    fn cached(&mut self, v: VnodeId, blk: u64, cost: &mut ServiceCost) -> bool {
        let (buf, steps) = self.vol.bufcache.lookup(v, blk);
        cost.cache_steps += steps;
        buf.is_some()
    }

    /// Reads every block of directory `dir` through the buffer cache; a
    /// miss is a disk read, cached as zeros (the entries live in `MemFs`).
    fn read_dir_blocks(&mut self, dir: InodeId, cost: &mut ServiceCost) -> Result<(), NfsStatus> {
        let size = self.fs.getattr(dir)?.size as usize;
        for blk in 0..size.div_ceil(BLOCK_SIZE).max(1) as u64 {
            if !self.cached(vnode(dir), blk, cost) {
                cost.disk_reads.push(BLOCK_SIZE.min(size));
                let mut block = Buf::new_empty();
                block.mark_valid();
                self.vol.bufcache.insert(vnode(dir), blk, block);
            }
        }
        Ok(())
    }

    fn do_lookup(
        &mut self,
        fh: &FileHandle,
        name: &str,
        cost: &mut ServiceCost,
    ) -> Result<(FileHandle, Vattr), NfsStatus> {
        let dir = self.resolve(fh)?;
        let id = match self.vol.namecache.lookup(vnode(dir), name) {
            Some(v) => InodeId(v.0 as u32),
            None => {
                // Scan the directory: read its blocks through the buffer
                // cache, comparing entries.
                let entries = self.fs.dir_len(dir)?;
                cost.dir_scan_entries += (entries as u64).div_ceil(2);
                self.read_dir_blocks(dir, cost)?;
                let id = self.fs.lookup(dir, name)?;
                self.vol.namecache.enter(vnode(dir), name, vnode(id));
                id
            }
        };
        self.entry(id)
    }

    fn do_read(
        &mut self,
        fh: &FileHandle,
        offset: u32,
        count: u32,
        now: SimTime,
        cost: &mut ServiceCost,
    ) -> Result<(Vattr, MbufChain), NfsStatus> {
        let ino = self.resolve(fh)?;
        let count = count.min(proto::NFS_MAXDATA as u32);
        // Touch every block the range covers through the buffer cache.
        let first_blk = (offset as usize) / BLOCK_SIZE;
        let last_blk = (offset as usize + count as usize).saturating_sub(1) / BLOCK_SIZE;
        let size = self.fs.getattr(ino)?.size as usize;
        for blk in first_blk..=last_blk {
            if blk * BLOCK_SIZE >= size && size > 0 {
                break;
            }
            if !self.cached(vnode(ino), blk as u64, cost) {
                cost.disk_reads.push(BLOCK_SIZE);
                let off = (blk * BLOCK_SIZE) as u32;
                let (block, _) = Buf::fill_valid(|data| {
                    self.fs.read_into(ino, off, BLOCK_SIZE as u32, now, data)
                })?;
                self.vol.bufcache.insert(vnode(ino), blk as u64, block);
            }
        }
        let mut data = std::mem::take(&mut self.io_scratch);
        let res = self.fs.read_into(ino, offset, count, now, &mut data);
        let res = res.and_then(|_| self.fs.getattr(ino)).map(|attr| {
            // Buffer cache -> mbuf: the paper's remaining third
            // bottleneck, unless the page-loaning extension is on.
            let chain = if self.cfg.loan_read_pages {
                MbufChain::from_slice(&data, &mut CopyMeter::new())
            } else {
                cost.bytes_copied += data.len() as u64;
                MbufChain::from_slice(&data, &mut self.meter)
            };
            (attr, chain)
        });
        self.io_scratch = data;
        Ok(res?)
    }

    fn do_write(
        &mut self,
        fh: &FileHandle,
        offset: u32,
        data: MbufChain,
        now: SimTime,
        cost: &mut ServiceCost,
    ) -> Result<Vattr, NfsStatus> {
        let ino = self.resolve(fh)?;
        // mbuf -> buffer cache copy: charged both to the server's meter and
        // to the service cost (which prices it into simulated CPU time).
        let mut bytes = std::mem::take(&mut self.io_scratch);
        bytes.resize(data.len(), 0);
        data.copy_out(0, &mut bytes, &mut self.meter);
        cost.bytes_copied += bytes.len() as u64;
        let res = self.write_through(ino, offset, &bytes, now, cost);
        self.io_scratch = bytes;
        res
    }

    fn write_through(
        &mut self,
        ino: InodeId,
        offset: u32,
        bytes: &[u8],
        now: SimTime,
        cost: &mut ServiceCost,
    ) -> Result<Vattr, NfsStatus> {
        let attr = self.fs.write(ino, offset, bytes, now)?;
        // Update the cached block(s).
        let v = vnode(ino);
        let first_blk = (offset as usize) / BLOCK_SIZE;
        let last_blk = (offset as usize + bytes.len()).saturating_sub(1) / BLOCK_SIZE;
        for blk in first_blk..=last_blk {
            if self.cached(v, blk as u64, cost) {
                let off = (blk * BLOCK_SIZE) as u32;
                let (fresh, n) = Buf::fill_valid(|data| {
                    self.fs.read_into(ino, off, BLOCK_SIZE as u32, now, data)
                })?;
                if let (Some(buf), _) = self.vol.bufcache.lookup(v, blk as u64) {
                    buf.merge_read(&fresh.data()[..n]);
                    buf.clear_dirty();
                }
            }
        }
        // The stateless write-through: data (+ inode, + indirect for
        // large files) must be on disk before the reply — the paper's
        // "every write RPC requires 1-3 disk writes on the server".
        cost.disk_writes.push(bytes.len());
        cost.disk_writes.push(512); // inode
        if offset as usize >= 12 * BLOCK_SIZE {
            cost.disk_writes.push(512); // indirect block
        }
        Ok(attr)
    }

    /// CREATE and MKDIR: they differ only in the kind of entry, its
    /// default mode, and CREATE's initial size.
    fn do_make(
        &mut self,
        proc: NfsProc,
        fh: &FileHandle,
        name: &str,
        sattr: &Sattr,
        now: SimTime,
        cost: &mut ServiceCost,
    ) -> Result<(FileHandle, Vattr), NfsStatus> {
        let dir = self.resolve(fh)?;
        let id = if proc == NfsProc::Mkdir {
            self.fs.mkdir(dir, name, sattr.mode.unwrap_or(0o755), now)?
        } else {
            let id = self
                .fs
                .create(dir, name, sattr.mode.unwrap_or(0o644), now)?;
            if let Some(size) = sattr.size {
                self.fs.setattr(id, Some(size), None, None, None, now)?;
            }
            id
        };
        self.vol.namecache.enter(vnode(dir), name, vnode(id));
        cost.namespace_change();
        self.entry(id)
    }

    /// REMOVE, RMDIR, RENAME, LINK and SYMLINK: the namespace changes
    /// that answer a bare status.
    fn namespace_op(
        &mut self,
        proc: NfsProc,
        args: NfsArgs,
        client: u32,
        now: SimTime,
    ) -> Result<(), NfsStatus> {
        match (proc, args) {
            (NfsProc::Remove, NfsArgs::DirOp(fh, name)) => {
                let dir = self.resolve(&fh)?;
                let target = self.fs.lookup(dir, &name).ok();
                // Removing a leased file needs the same write admission
                // as writing it; a conflicting holder is recalled and the
                // remover told to retry. (Inert without leases: the table
                // is empty.)
                self.leases.admit(target.map(|t| t.0), client, true, now)?;
                self.fs.remove(dir, &name, now)?;
                self.vol.namecache.invalidate(vnode(dir), &name);
                if let Some(t) = target {
                    self.vol.namecache.purge_vnode(vnode(t));
                    self.vol.bufcache.purge_vnode(vnode(t));
                    self.leases.forget(t.0);
                }
            }
            (NfsProc::Rmdir, NfsArgs::DirOp(fh, name)) => {
                let dir = self.resolve(&fh)?;
                let target = self.fs.lookup(dir, &name).ok();
                self.fs.rmdir(dir, &name, now)?;
                self.vol.namecache.invalidate(vnode(dir), &name);
                if let Some(t) = target {
                    self.vol.namecache.purge_vnode(vnode(t));
                }
            }
            (NfsProc::Rename, NfsArgs::Rename(ffh, fname, tfh, tname)) => {
                let (fdir, tdir) = (self.resolve(&ffh)?, self.resolve(&tfh)?);
                self.fs.rename(fdir, &fname, tdir, &tname, now)?;
                self.vol.namecache.invalidate(vnode(fdir), &fname);
                self.vol.namecache.invalidate(vnode(tdir), &tname);
            }
            (NfsProc::Link, NfsArgs::Link(target, dirfh, name)) => {
                let (t, dir) = (self.resolve(&target)?, self.resolve(&dirfh)?);
                self.fs.link(t, dir, &name, now)?;
            }
            (NfsProc::Symlink, NfsArgs::Symlink(dirfh, name, path)) => {
                let dir = self.resolve(&dirfh)?;
                self.fs.symlink(dir, &name, &path, now)?;
            }
            // Argument/procedure mismatch can't happen via decode_args.
            _ => return Err(NfsStatus::Io),
        }
        Ok(())
    }

    /// READDIR: each entry is encoded into `reply` as `MemFs` visits it,
    /// after the directory's blocks are read.
    fn do_readdir(
        &mut self,
        fh: &FileHandle,
        cookie: u32,
        count: u32,
        reply: &mut MbufChain,
        cost: &mut ServiceCost,
    ) {
        let dir = self
            .resolve(fh)
            .and_then(|dir| self.read_dir_blocks(dir, cost).map(|()| dir));
        let fs = &self.fs;
        results::put_readdirres(reply, &mut self.meter, |entry| {
            list_page(fs, dir?, cookie, count, cost, |cookie, name, id| {
                entry(id.0, name, cookie)
            })
        });
    }

    fn do_readdir_lookup(
        &mut self,
        fh: &FileHandle,
        cookie: u32,
        count: u32,
        cost: &mut ServiceCost,
    ) -> Result<(Vec<DirEntryPlus>, bool), NfsStatus> {
        let dir = self.resolve(fh)?;
        self.read_dir_blocks(dir, cost)?;
        let mut entries = Vec::new();
        let eof = list_page(&self.fs, dir, cookie, count, cost, |cookie, name, id| {
            entries.push(DirEntry {
                fileid: id.0,
                name: name.into(),
                cookie,
            })
        })?;
        let mut out = Vec::with_capacity(entries.len());
        for entry in entries {
            let id = InodeId(entry.fileid);
            let (fh, attr) = self.entry(id)?;
            // Each embedded lookup still touches the caches, but the
            // per-RPC protocol overhead is paid once.
            self.vol.namecache.enter(vnode(dir), &entry.name, vnode(id));
            cost.cache_steps += 1;
            out.push(DirEntryPlus { entry, fh, attr });
        }
        Ok((out, eof))
    }

    fn do_getlease(
        &mut self,
        fh: &FileHandle,
        mode: u32,
        client: u32,
        now: SimTime,
    ) -> Result<(u32, Option<Vattr>), NfsStatus> {
        let ino = self.resolve(fh)?;
        if mode == LEASE_MODE_RELEASE {
            self.leases.release(ino.0, client);
            return Ok((0, None));
        }
        let write = mode == LEASE_MODE_WRITE;
        let term = self.leases.getlease(ino.0, client, write, now)?;
        // The grant doubles as a GETATTR so acquisition never costs a
        // separate revalidation RPC.
        Ok((term, Some(self.fs.getattr(ino)?)))
    }
}

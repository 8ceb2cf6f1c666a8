//! The data path: reads through the buffer cache with read-ahead,
//! writes into dirty regions under the three write policies, pushes,
//! the drain of asynchronous WRITEs, eviction writeback, sync and
//! SETATTR.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::SimTime;
use renofs_vfs::{Buf, Vattr, VnodeId, BLOCK_SIZE};

use super::{CResult, ClientError, ClientFs, PendingWrite, WritePolicy};
use crate::costs;
use crate::proto::{self, results, FileHandle, NfsProc, NfsStatus, Sattr};
use crate::syscalls::Syscalls;

impl<S: Syscalls> ClientFs<S> {
    /// Closes a file: with close/open consistency, pushes dirty blocks
    /// and waits for every outstanding write.
    pub fn close(&mut self, fh: FileHandle) -> CResult<()> {
        self.enter()?;
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
        let mut out = Vec::new();
        self.read_into(fh, off, len, &mut out).map(|_| out)
    }

    /// Reads up to `len` bytes at `off`, appending them to `out` — the
    /// caller's own buffer, as read(2) fills user memory — and returns
    /// how many. On an error `out` may hold part of the data.
    pub fn read_into(
        &mut self,
        fh: FileHandle,
        off: u32,
        len: u32,
        out: &mut Vec<u8>,
    ) -> CResult<usize> {
        self.enter()?;
        let fh = self.current_fh(fh);
        self.lease_acquire(fh, false)?;
        self.validate_for_read(fh)?;
        let fh = self.current_fh(fh);
        let size = self.file_size(fh)?;
        if off >= size {
            return Ok(0);
        }
        let len = len.min(size - off);
        let token = fh.vnode_token();
        out.reserve(len as usize);
        for (blk, bs, be) in block_spans(off as usize, (off + len) as usize) {
            match self
                .bufcache
                .lookup(token, blk)
                .0
                .and_then(|b| b.read(bs, be - bs))
            {
                Some(chunk) => out.extend_from_slice(chunk),
                None => {
                    self.fill_block(fh, blk)?;
                    let (buf, _) = self.bufcache.lookup(token, blk);
                    let chunk = buf.and_then(|b| b.read(bs, be - bs));
                    out.extend_from_slice(chunk.ok_or(ClientError::Protocol)?);
                }
            }
            self.sys
                .charge_cpu(costs::USER_COPY_PER_BYTE * (be - bs) as u64);
            // Read-ahead the following blocks.
            self.issue_readahead(fh, blk, size);
        }
        Ok(len as usize)
    }

    fn issue_readahead(&mut self, fh: FileHandle, blk: u64, size: u32) {
        let token = fh.vnode_token();
        for ra in 1..=self.cfg.read_ahead as u64 {
            let target = blk + ra;
            if (target as usize * BLOCK_SIZE) >= size as usize {
                break;
            }
            if self.pending_reads.contains_key(&(token, target))
                || self.bufcache.lookup(token, target).0.is_some()
            {
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
        self.with_fh_retry(fh, |c, fh| c.fill_block_inner(fh, blk))
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
        // The data lands straight in a recycled block.
        let (fresh, (attr, n)) = Buf::fill_valid(|block| {
            block.resize(BLOCK_SIZE, 0);
            let (attr, n) = results::get_readres_into(&mut dec, block)??;
            block.truncate(n);
            Ok::<_, ClientError>((attr, n))
        })?;
        self.receive_attrs(fh, &attr, false);
        self.sys.charge_cpu(costs::COPY_PER_BYTE * n as u64);
        // Merge under any dirty region, else install a valid block.
        match self.bufcache.lookup(token, blk) {
            (Some(b), _) if b.is_dirty() => b.merge_read(fresh.data()),
            _ => {
                let writeback = self.bufcache.insert(token, blk, fresh);
                self.flush_writeback(writeback)?;
            }
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

    /// Writes `data` at `off`.
    pub fn write(&mut self, fh: FileHandle, off: u32, data: &[u8]) -> CResult<()> {
        self.enter()?;
        let fh = self.current_fh(fh);
        // Ensure (or upgrade to) the write lease; on failure the write
        // proceeds classically and close() will push it.
        self.lease_acquire(fh, true)?;
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
        let off = off as usize;
        for (blk, bs, be) in block_spans(off, off + data.len()) {
            let at = blk as usize * BLOCK_SIZE + bs - off;
            let chunk = &data[at..at + (be - bs)];
            // A read-ahead issued before this write would deliver stale
            // pre-write data; drop it so the block is refetched.
            if let Some(t) = self.pending_reads.remove(&(token, blk)) {
                self.sys.forget_ticket(t);
            }
            self.write_block(fh, blk, bs, chunk)?;
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
            if partial
                && has_server_data
                && !self
                    .bufcache
                    .lookup(token, blk)
                    .0
                    .is_some_and(|b| b.is_valid())
            {
                self.fill_block(fh, blk)?;
            }
        }
        loop {
            if self.bufcache.lookup(token, blk).0.is_none() {
                let writeback = self.bufcache.insert(token, blk, Buf::new_empty());
                self.flush_writeback(writeback)?;
            }
            let (buf, _) = self.bufcache.lookup(token, blk);
            if buf.expect("just inserted").write(bs, chunk).is_ok() {
                return Ok(());
            }
            // Disjoint dirty extents: push the old one first.
            self.push_block(fh, blk, true)?;
        }
    }

    /// Pushes one block's dirty region (WRITE RPC); `sync` waits for the
    /// reply, otherwise a biod carries it.
    fn push_block(&mut self, fh: FileHandle, blk: u64, sync: bool) -> CResult<()> {
        let token = fh.vnode_token();
        let (buf, _) = self.bufcache.lookup(token, blk);
        let Some(buf) = buf else { return Ok(()) };
        let Some((d0, d1)) = buf.dirty_range() else {
            return Ok(());
        };
        let dirty = &buf.data()[d0..d1];
        let woff = blk as u32 * BLOCK_SIZE as u32 + d0 as u32;
        if sync {
            // Staged in recycled scratch: a retry re-sends these bytes
            // after the block may have been purged.
            let mut payload = std::mem::take(&mut self.spare_payload);
            payload.clear();
            payload.extend_from_slice(dirty);
            let sent = self.with_fh_retry(fh, |c, fh| c.write_rpc(fh, woff, &payload));
            self.spare_payload = payload;
            sent?;
        } else {
            let data_chain = MbufChain::from_slice(dirty, &mut self.meter);
            let ticket = self.call_async(NfsProc::Write, |c, m| {
                proto::build::write_args(c, m, &fh, woff, data_chain)
            });
            self.pending_writes.push(PendingWrite {
                token,
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
        // The list is taken before the first push, as a push can purge
        // the file's other blocks (a stale handle's recovery).
        let mut blks = std::mem::take(&mut self.spare_blocks);
        blks.clear();
        self.bufcache.dirty_blocks_into(token, &mut blks);
        let pushed = blks
            .iter()
            .try_for_each(|&blk| self.push_block(fh, blk, sync));
        self.spare_blocks = blks;
        pushed
    }

    /// Awaits outstanding asynchronous writes of a file and folds their
    /// reply attributes in. Writes the server answered with
    /// `NFSERR_STALE` (it rebooted under them) are re-sent from the
    /// still-cached blocks under a freshly looked-up handle, preserving
    /// the synchronous-write durability contract (DESIGN.md §6a).
    pub(super) fn drain_writes(&mut self, fh: FileHandle) -> CResult<()> {
        let token = fh.vnode_token();
        let mut drain = std::mem::take(&mut self.spare_drain);
        self.pending_writes.retain(|&pw| {
            if pw.token == token {
                drain.push((pw, None));
            }
            pw.token != token
        });
        if drain.is_empty() {
            self.spare_drain = drain;
            return Ok(());
        }
        // Snapshot every in-flight payload before folding any reply in:
        // Reno's mtime-change flush purges clean blocks as reply
        // attributes land, and a write the server answers with
        // `NFSERR_STALE` (it rebooted under the flush) must be re-sent
        // from these bytes afterwards. The snapshots are pooled mbufs on
        // a scratch meter: the kernel copied nothing here.
        let mut staging = CopyMeter::new();
        for (pw, snap) in &mut drain {
            if let (Some(b), _) = self.bufcache.lookup(token, pw.blk) {
                let woff = pw.blk as u32 * BLOCK_SIZE as u32 + pw.d0 as u32;
                *snap = Some((
                    woff,
                    MbufChain::from_slice(&b.data()[pw.d0..pw.d1], &mut staging),
                ));
            }
        }
        // Await every ticket even if one timed out (a soft mount), so no
        // completion is leaked; the first error is reported after.
        let mut first_err: Option<ClientError> = None;
        let mut stale: Vec<(u32, MbufChain)> = Vec::new();
        let mut deferred: Vec<(u32, MbufChain)> = Vec::new();
        for (pw, snap) in drain.drain(..) {
            let reply = match self.sys.await_ticket(pw.ticket) {
                Ok(reply) => reply,
                Err(e) => {
                    first_err.get_or_insert(e.into());
                    continue;
                }
            };
            let Ok(mut dec) = self.open_reply(&reply) else {
                continue;
            };
            match results::get_attrstat(&mut dec) {
                Ok(Ok(attr)) => self.receive_attrs(fh, &attr, true),
                // A stale write is redone under a recovered handle; one
                // the server deferred while it recalls a conflicting
                // lease is re-sent synchronously (with the vacate wait),
                // so no acknowledged data is dropped. Without a snapshot
                // (the block was evicted before the drain began) the
                // bytes are unrecoverable.
                Ok(Err(s @ (NfsStatus::Stale | NfsStatus::TryLater))) => match snap {
                    Some(snap) if s == NfsStatus::Stale => stale.push(snap),
                    Some(snap) => deferred.push(snap),
                    None => {
                        first_err.get_or_insert(s.into());
                    }
                },
                _ => {}
            }
        }
        self.spare_drain = drain;
        if let Some(e) = first_err {
            return Err(e);
        }
        if !stale.is_empty() {
            self.redo_stale_writes(fh, stale)?;
        }
        for (woff, payload) in deferred {
            let payload = payload.to_vec(&mut staging);
            self.with_fh_retry(fh, |c, fh| c.write_rpc(fh, woff, &payload))?;
        }
        Ok(())
    }

    /// Re-sends asynchronous writes rejected with `NFSERR_STALE` (the
    /// server rebooted under them) under a freshly looked-up handle,
    /// from payloads snapshotted at drain entry, preserving the
    /// synchronous-write durability contract (DESIGN.md §6a).
    fn redo_stale_writes(&mut self, fh: FileHandle, stale: Vec<(u32, MbufChain)>) -> CResult<()> {
        let fh = self.recover_stale_fh(fh)?;
        for (woff, payload) in stale {
            let payload = payload.to_vec(&mut CopyMeter::new());
            self.write_rpc(fh, woff, &payload)?;
        }
        Ok(())
    }

    /// One synchronous WRITE RPC, folding the reply attributes in.
    fn write_rpc(&mut self, fh: FileHandle, woff: u32, payload: &[u8]) -> CResult<Vattr> {
        let data_chain = MbufChain::from_slice(payload, &mut self.meter);
        let attr = self.rpc(
            NfsProc::Write,
            |c, m| proto::build::write_args(c, m, &fh, woff, data_chain),
            results::get_attrstat,
        )?;
        self.receive_attrs(fh, &attr, true);
        Ok(attr)
    }

    /// Writes back a dirty block the cache evicted.
    fn flush_writeback(&mut self, writeback: Option<(VnodeId, u64, Buf)>) -> CResult<()> {
        let Some((token, blk, buf)) = writeback else {
            return Ok(());
        };
        let (Some((d0, d1)), Some(vn)) = (buf.dirty_range(), self.vnodes.get(&token)) else {
            return Ok(());
        };
        let fh = vn.fh;
        let woff = blk as u32 * BLOCK_SIZE as u32 + d0 as u32;
        self.with_fh_retry(fh, |c, fh| c.write_rpc(fh, woff, &buf.data()[d0..d1]))?;
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
        self.with_fh_retry(fh, |c, fh| c.setattr_inner(fh, sattr))
    }

    fn setattr_inner(&mut self, fh: FileHandle, sattr: Sattr) -> CResult<Vattr> {
        let attr = self.rpc(
            NfsProc::Setattr,
            |c, m| proto::build::setattr_args(c, m, &fh, &sattr),
            results::get_attrstat,
        )?;
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
}

/// The blocks the byte range `[off, end)` touches, as `(block, start,
/// end)` with both offsets inside the block.
fn block_spans(off: usize, end: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut pos = off;
    std::iter::from_fn(move || {
        (pos < end).then(|| {
            let blk = pos / BLOCK_SIZE;
            let (bs, be) = (pos % BLOCK_SIZE, (end - blk * BLOCK_SIZE).min(BLOCK_SIZE));
            pos = blk * BLOCK_SIZE + be;
            (blk as u64, bs, be)
        })
    })
}

//! The client's side of NQNFS leases: acquiring a lease, the
//! housekeeping run at syscall entry, vacating a recalled or lapsed
//! lease, and the idle flush. The lease rules themselves live in
//! `crate::lease`.

use renofs_sim::SimDuration;
use renofs_vfs::Vattr;

use super::{CResult, ClientError, ClientFs};
use crate::lease::ClientLease;
use crate::proto::{
    self, results, FileHandle, NfsProc, NfsStatus, LEASE_MODE_READ, LEASE_MODE_RELEASE,
    LEASE_MODE_WRITE,
};
use crate::syscalls::Syscalls;

/// Pacing of retries after the server answers `NQNFS_TRYLATER`: the
/// requester is waiting out a vacate (the server recalling a conflicting
/// lease) or the post-reboot grace period.
pub(super) const LEASE_RETRY_STEP: SimDuration = SimDuration::from_millis(200);

/// Retry bound (~8 s of virtual time): comfortably longer than a full
/// vacate wait (one lease term) or a post-reboot grace period, after
/// which the client gives up on the lease and falls back to classic
/// close-to-open behaviour.
pub(super) const LEASE_RETRY_MAX: u32 = 40;

/// How [`ClientFs::vacate`] gives a lease up.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Vacate {
    /// Push the write-behind data only; keep the lease (the idle flush).
    Flush,
    /// Flush, then drop the lease and invalidate (it lapsed).
    Drop,
    /// Flush, RELEASE it to the server, drop and invalidate (recalled).
    Release,
}

impl<S: Syscalls> ClientFs<S> {
    /// Whether a held lease on `ino` still covers `write`-strength
    /// access (see [`ClientLeases::covers`]).
    pub(super) fn lease_valid(&mut self, ino: u32, write: bool) -> bool {
        self.cfg.lease
            && self
                .leases
                .covers(ino, write, self.sys.now(), self.cfg.lease_ignore_expiry)
    }

    /// One GETLEASE RPC. A grant doubles as a GETATTR: the reply carries
    /// the term alongside fresh attributes.
    fn getlease_rpc(&mut self, fh: FileHandle, mode: u32) -> CResult<(u32, Option<Vattr>)> {
        self.rpc(
            NfsProc::Getlease,
            |c, m| proto::build::getlease_args(c, m, &fh, mode),
            results::get_leaseres,
        )
    }

    /// Acquires (or upgrades to) a lease on `fh`, waiting out a bounded
    /// number of `try_later` deferrals — the server's vacate wait while
    /// it recalls conflicting holders, or its post-reboot grace period.
    /// Returns `false` when no lease could be had; the caller then falls
    /// back to classic close-to-open behaviour.
    pub(super) fn lease_acquire(&mut self, fh: FileHandle, write: bool) -> CResult<bool> {
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
                    self.leases.record_grant(fh, write, sent, term_ms);
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

    /// Lease housekeeping, run at syscall entry: vacates each recalled
    /// lease, one at a time (a reply inside a vacate can carry the next
    /// recall), then each lapsed one, so the next access revalidates
    /// classically.
    pub(super) fn lease_service(&mut self) -> CResult<()> {
        if !self.cfg.lease {
            return Ok(());
        }
        while let Some(l) = self.leases.next_recalled() {
            self.vacate(l, Vacate::Release)?;
        }
        let now = self.sys.now();
        for l in self.leases.lapsed(now, self.cfg.lease_ignore_expiry) {
            self.vacate(l, Vacate::Drop)?;
        }
        Ok(())
    }

    /// Gives up what a lease let this client keep: the write-behind data
    /// of a write lease is pushed and drained, then — unless `how` only
    /// flushes — the lease is released (on a recall) or dropped, and the
    /// cache is only as good as classic NFS: attributes and clean blocks
    /// go, so the next access goes back to the wire.
    fn vacate(&mut self, l: ClientLease, how: Vacate) -> CResult<()> {
        if l.write {
            self.push_dirty(l.fh, true)?;
            self.drain_writes(l.fh)?;
        }
        if how == Vacate::Flush {
            return Ok(());
        }
        if how == Vacate::Release {
            self.getlease_rpc(l.fh, LEASE_MODE_RELEASE)?;
        }
        self.leases.forget(l.fh.ino);
        self.attrcache.invalidate(l.fh.vnode_token());
        self.purge_clean_blocks(l.fh.vnode_token());
        Ok(())
    }

    /// Pushes the write-behind data of every write-leased file (the
    /// idle-time flush a biod would do). Lease-mode workloads call this
    /// before going idle so dirty blocks are durable before the holding
    /// lease lapses; without leases it is a no-op.
    pub fn flush_idle(&mut self) -> CResult<()> {
        self.lease_service()?;
        for l in self.leases.write_held() {
            self.vacate(l, Vacate::Flush)?;
        }
        Ok(())
    }
}

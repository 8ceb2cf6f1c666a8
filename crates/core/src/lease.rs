//! NQNFS leases: the state and rules of both ends, with no I/O.
//!
//! [`ServerLeases`] is the server's per-inode lease table, the recall
//! queues that ride reply trailers, the reboot grace and the lease
//! counters. [`ClientLeases`] is what one mount holds: its leases, with
//! a conservative expiry, and the recalls its replies have carried.
//! Neither has a clock: every rule that depends on time takes `now`.
//! Neither sends an RPC, flushes a block or touches a cache — the server
//! and the client do that around these calls, so the rules can be
//! driven, and explored, on their own (see the tests below).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::AddAssign;

use renofs_sim::{SimDuration, SimTime};

use crate::proto::{FileHandle, NfsStatus, LEASE_TERM, LEASE_TERM_MS};

/// The server's lease counters. Surfaced in [`crate::server::ServerStats`]
/// and summed over a fleet; they survive a reboot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseCounts {
    /// Leases granted to a client that did not already hold one.
    pub issued: u64,
    /// Lease terms extended — explicit GETLEASE renewals plus renewals
    /// piggybacked on normal RPCs from the holder.
    pub renewed: u64,
    /// Recall callbacks queued to conflicting holders.
    pub recalls: u64,
    /// `TryLater` replies sent while waiting for a holder to vacate
    /// (includes reads/grants deferred by the post-reboot grace).
    pub vacate_waits: u64,
    /// Leases that lapsed unrenewed and were purged from the table.
    pub expiries: u64,
}

impl AddAssign for LeaseCounts {
    fn add_assign(&mut self, o: LeaseCounts) {
        self.issued += o.issued;
        self.renewed += o.renewed;
        self.recalls += o.recalls;
        self.vacate_waits += o.vacate_waits;
        self.expiries += o.expiries;
    }
}

/// One client's hold on a file.
#[derive(Clone, Debug)]
struct Hold {
    client: u32,
    expiry: SimTime,
    /// A recall callback has already been queued to this holder.
    recalled: bool,
}

/// The lease state of one file: shared readers, or one exclusive
/// writer (`write`, with exactly one hold).
#[derive(Clone, Debug)]
struct Lease {
    write: bool,
    holds: Vec<Hold>,
}

/// The server end. The table is volatile — lost on reboot, which is
/// exactly why the reboot grace exists — and the counters are not.
///
/// Entries are only ever touched by inode-keyed lookups, never by map
/// iteration, so the table adds no hash-order nondeterminism to the
/// simulation. Recall callbacks queue per holder and drain one per
/// reply trailer the next time that client talks to the server — the
/// protocol is strictly request/response, so there is no push channel.
#[derive(Clone, Debug, Default)]
pub(crate) struct ServerLeases {
    entries: HashMap<u32, Lease>,
    recalls: HashMap<u32, VecDeque<u32>>,
    /// Set by [`ServerLeases::reboot`]; the first request afterwards arms
    /// `grace_until` (reboot happens outside virtual time, so the grace
    /// clock starts when the server first hears a client).
    grace_pending: bool,
    /// Until this instant the rebooted server defers reads and lease
    /// grants with `TryLater`: pre-crash leases it no longer remembers
    /// must lapse (and their holders' write-behind data land) before it
    /// serves state — the reboot-wait rule.
    grace_until: SimTime,
    pub(crate) counts: LeaseCounts,
}

impl ServerLeases {
    /// Notes that a request arrived: the first one after a reboot arms
    /// the grace.
    pub(crate) fn heard(&mut self, now: SimTime) {
        if self.grace_pending {
            self.grace_pending = false;
            self.grace_until = now + LEASE_TERM;
        }
    }

    fn in_grace(&self, now: SimTime) -> bool {
        now < self.grace_until
    }

    /// Admission of a normal RPC's access to `ino` (`None`: the handle
    /// did not resolve, and the handler will report the real error).
    /// During the reboot grace every read defers; writes proceed so
    /// crashed holders can land their write-behind data. Otherwise the
    /// table arbitrates, renewing the caller's own hold.
    pub(crate) fn admit(
        &mut self,
        ino: Option<u32>,
        client: u32,
        write: bool,
        now: SimTime,
    ) -> Result<(), NfsStatus> {
        if !write && self.in_grace(now) {
            self.counts.vacate_waits += 1;
            return Err(NfsStatus::TryLater);
        }
        match ino {
            Some(ino) => self.gate(ino, client, write, now),
            None => Ok(()),
        }
    }

    /// A GETLEASE for read or write: deferred during the reboot grace,
    /// gated like an access, then granted. Returns the term in
    /// milliseconds, as the reply carries it.
    pub(crate) fn getlease(
        &mut self,
        ino: u32,
        client: u32,
        write: bool,
        now: SimTime,
    ) -> Result<u32, NfsStatus> {
        if self.in_grace(now) {
            self.counts.vacate_waits += 1;
            return Err(NfsStatus::TryLater);
        }
        self.gate(ino, client, write, now)?;
        self.grant(ino, client, write, now);
        Ok(LEASE_TERM_MS)
    }

    /// Purges lapsed holds on one file, counting them.
    fn purge_expired(&mut self, ino: u32, now: SimTime) {
        let Some(lease) = self.entries.get_mut(&ino) else {
            return;
        };
        let before = lease.holds.len();
        lease.holds.retain(|h| h.expiry > now);
        self.counts.expiries += (before - lease.holds.len()) as u64;
        if lease.holds.is_empty() {
            self.entries.remove(&ino);
        }
    }

    /// Admission gate for an access to `ino`. Renews the caller's own
    /// hold (renewal piggybacked on normal RPCs) unless a write meets
    /// its own read hold; when either side writes, every other client's
    /// hold conflicts: each gets one recall callback queued and the
    /// caller a `TryLater` — the bounded vacate wait.
    fn gate(&mut self, ino: u32, client: u32, write: bool, now: SimTime) -> Result<(), NfsStatus> {
        self.purge_expired(ino, now);
        let mut conflict = false;
        if let Some(lease) = self.entries.get_mut(&ino) {
            let exclusive = lease.write || write;
            for h in lease.holds.iter_mut() {
                if h.client == client {
                    if lease.write || !write {
                        h.expiry = now + LEASE_TERM;
                        self.counts.renewed += 1;
                    }
                } else if exclusive {
                    conflict = true;
                    if !h.recalled {
                        h.recalled = true;
                        self.counts.recalls += 1;
                        self.recalls.entry(h.client).or_default().push_back(ino);
                    }
                }
            }
        }
        if conflict {
            self.counts.vacate_waits += 1;
            return Err(NfsStatus::TryLater);
        }
        Ok(())
    }

    /// Records a grant after [`ServerLeases::gate`] admitted the caller.
    fn grant(&mut self, ino: u32, client: u32, write: bool, now: SimTime) {
        let fresh = Hold {
            client,
            expiry: now + LEASE_TERM,
            recalled: false,
        };
        match self.entries.get_mut(&ino) {
            // A write lease covers reads too; keep the stronger kind.
            Some(lease) if lease.write && lease.holds[0].client == client => {
                self.counts.renewed += 1;
                lease.holds[0] = fresh;
            }
            Some(lease) if !lease.write && !write => {
                match lease.holds.iter_mut().find(|h| h.client == client) {
                    Some(h) => {
                        h.expiry = fresh.expiry;
                        self.counts.renewed += 1;
                    }
                    None => {
                        self.counts.issued += 1;
                        lease.holds.push(fresh);
                    }
                }
            }
            // No lease held, or a sole-reader upgrade: the gate admitted
            // the writer, so every remaining read hold is its own. (A
            // conflicting write hold cannot reach here.)
            _ => {
                self.counts.issued += 1;
                let holds = vec![fresh];
                self.entries.insert(ino, Lease { write, holds });
            }
        }
    }

    /// Drops `client`'s hold on `ino`: its voluntary vacate after a
    /// recall.
    pub(crate) fn release(&mut self, ino: u32, client: u32) {
        let Some(lease) = self.entries.get_mut(&ino) else {
            return;
        };
        lease.holds.retain(|h| h.client != client);
        if lease.holds.is_empty() {
            self.entries.remove(&ino);
        }
    }

    /// Drops every hold on a removed file. A REMOVE is admitted like a
    /// write first, so only the remover's own hold can be left.
    pub(crate) fn forget(&mut self, ino: u32) {
        self.entries.remove(&ino);
    }

    /// The next recall callback to piggyback on a reply to `client`
    /// (0 = none).
    pub(crate) fn next_recall(&mut self, client: u32) -> u32 {
        self.recalls
            .get_mut(&client)
            .and_then(|q| q.pop_front())
            .unwrap_or(0)
    }

    /// A crash and reboot: every hold and queued recall is forgotten.
    /// Clients out there may still hold unexpired leases, so with
    /// `grace` the rebooted server waits out the maximum term before
    /// serving reads or granting new leases, counted from the first
    /// request it hears.
    pub(crate) fn reboot(&mut self, grace: bool) {
        self.entries.clear();
        self.recalls.clear();
        if grace {
            self.grace_pending = true;
        }
    }
}

/// One NQNFS lease held from the server, keyed by inode number (the
/// unit the server's lease table uses). `expiry` is conservative: the
/// grant's send time plus the term, never extended by the renewals the
/// server applies to our normal RPCs — the client may only ever
/// under-estimate how long it holds a lease, so a lapse on our side is
/// always at or before the server's.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClientLease {
    pub(crate) fh: FileHandle,
    pub(crate) write: bool,
    expiry: SimTime,
}

/// The client end: the leases one mount holds and the recall notices
/// its replies have carried.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClientLeases {
    /// Leases held, by inode number. A BTreeMap so the expiry sweep and
    /// the idle flush go in a deterministic order.
    held: BTreeMap<u32, ClientLease>,
    /// Recall notices harvested from NQNFS reply trailers, acted on at
    /// the next syscall entry.
    recall_queue: VecDeque<u32>,
}

impl ClientLeases {
    /// Whether a held lease on `ino` still covers `write`-strength
    /// access at `now`. `ignore_expiry` is the planted mutant that keeps
    /// trusting a lease past its expiry.
    pub(crate) fn covers(&self, ino: u32, write: bool, now: SimTime, ignore_expiry: bool) -> bool {
        match self.held.get(&ino) {
            Some(l) if l.write || !write => ignore_expiry || now < l.expiry,
            _ => false,
        }
    }

    /// Records a grant of `term_ms` for a GETLEASE sent at `sent`.
    pub(crate) fn record_grant(
        &mut self,
        fh: FileHandle,
        write: bool,
        sent: SimTime,
        term_ms: u32,
    ) {
        let expiry = sent + SimDuration::from_millis(term_ms as u64);
        self.held.insert(fh.ino, ClientLease { fh, write, expiry });
    }

    /// Takes one reply's recall trailer (0 = none); a notice already
    /// queued is not queued twice.
    pub(crate) fn on_trailer(&mut self, recall: u32) {
        if recall != 0 && !self.recall_queue.contains(&recall) {
            self.recall_queue.push_back(recall);
        }
    }

    /// The next recalled lease still held. Notices for leases no longer
    /// held (already released, or a duplicate-cache replay of an old
    /// trailer) are dropped on the way.
    pub(crate) fn next_recalled(&mut self) -> Option<ClientLease> {
        while let Some(ino) = self.recall_queue.pop_front() {
            if let Some(l) = self.held.get(&ino) {
                return Some(*l);
            }
        }
        None
    }

    /// The leases lapsed at `now`, in inode order (none under the
    /// `ignore_expiry` mutant).
    pub(crate) fn lapsed(&self, now: SimTime, ignore_expiry: bool) -> Vec<ClientLease> {
        if ignore_expiry {
            return Vec::new();
        }
        self.held
            .values()
            .filter(|l| now >= l.expiry)
            .copied()
            .collect()
    }

    /// The write leases held, in inode order.
    pub(crate) fn write_held(&self) -> Vec<ClientLease> {
        self.held.values().filter(|l| l.write).copied().collect()
    }

    /// Drops the lease on `ino`, if held.
    pub(crate) fn forget(&mut self, ino: u32) {
        self.held.remove(&ino);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::fmt::Write as _;

    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fh(ino: u32) -> FileHandle {
        FileHandle {
            fsid: 1,
            ino,
            gen: 1,
        }
    }

    // ----- the client end, alone ----------------------------------------

    #[test]
    fn client_expiry_counts_from_the_send_time() {
        let mut c = ClientLeases::default();
        // Sent at 1 s; however late the reply lands, the term runs from
        // the send.
        c.record_grant(fh(5), true, t(1_000), LEASE_TERM_MS);
        let end = t(1_000) + LEASE_TERM;
        assert!(c.covers(5, true, end - SimDuration::from_nanos(1), false));
        assert!(!c.covers(5, false, end, false), "lapsed at send + term");
        assert!(
            c.covers(5, false, end, true),
            "unless the mutant ignores it"
        );
        let lapsed: Vec<u32> = c.lapsed(end, false).iter().map(|l| l.fh.ino).collect();
        assert_eq!(lapsed, [5]);
        assert!(c.lapsed(end, true).is_empty());
        // A read lease never covers a write.
        c.record_grant(fh(6), false, t(1_000), LEASE_TERM_MS);
        assert!(!c.covers(6, true, t(1_000), false));
    }

    #[test]
    fn client_ignores_a_trailer_for_an_unheld_inode() {
        let mut c = ClientLeases::default();
        c.record_grant(fh(5), false, t(0), LEASE_TERM_MS);
        c.on_trailer(0);
        assert!(c.recall_queue.is_empty(), "0 is no recall");
        c.on_trailer(9);
        assert_eq!(c.next_recalled().map(|l| l.fh.ino), None);
        // A queued notice whose lease went meanwhile is dropped too.
        c.on_trailer(5);
        c.forget(5);
        assert_eq!(c.next_recalled().map(|l| l.fh.ino), None);
        assert!(c.recall_queue.is_empty());
    }

    #[test]
    fn client_queues_a_duplicate_trailer_once() {
        let mut c = ClientLeases::default();
        c.record_grant(fh(5), true, t(0), LEASE_TERM_MS);
        c.record_grant(fh(6), true, t(0), LEASE_TERM_MS);
        for recall in [5, 6, 5, 5] {
            c.on_trailer(recall);
        }
        assert_eq!(c.recall_queue, [5, 6]);
        assert_eq!(c.next_recalled().map(|l| l.fh.ino), Some(5));
        // Once popped, the same notice may queue again (a reply inside
        // the vacate can carry it).
        c.on_trailer(5);
        assert_eq!(c.recall_queue, [6, 5]);
    }

    #[test]
    fn client_lapsed_and_write_held_go_in_inode_order() {
        let mut c = ClientLeases::default();
        for (ino, write) in [(9, true), (2, false), (7, true), (5, true)] {
            c.record_grant(fh(ino), write, t(0), LEASE_TERM_MS);
        }
        c.record_grant(fh(5), true, t(2_000), LEASE_TERM_MS); // renewed later
        let inos = |ls: Vec<ClientLease>| ls.iter().map(|l| l.fh.ino).collect::<Vec<_>>();
        assert_eq!(inos(c.lapsed(t(0) + LEASE_TERM, false)), [2, 7, 9]);
        assert_eq!(inos(c.write_held()), [5, 7, 9]);
    }

    // ----- the server end, explored -------------------------------------

    /// Clients in the explored world.
    const CLIENTS: u32 = 3;
    /// The one file they share.
    const INO: u32 = 7;
    /// Steps per explored trace.
    const DEPTH: usize = 8;

    /// One move of the explored world.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Step {
        /// A GETLEASE for read or write.
        GetLease(u32, bool),
        /// A normal RPC's read or write access (READ, WRITE, SETATTR).
        Admit(u32, bool),
        /// A GETLEASE release.
        Release(u32),
        /// A REMOVE of the file.
        Remove(u32),
        /// A reply carries the client's next recall trailer.
        Drain(u32),
        /// The server crashes and reboots.
        Reboot,
        /// The clock jumps to the next expiry or grace end.
        Jump,
    }

    /// Which rules the explorer runs and what it checks.
    #[derive(Clone, Copy)]
    struct Rules {
        /// `grace` as the server passes it to [`ServerLeases::reboot`].
        grace: bool,
        /// The client mutant: trust a lease past its expiry.
        ignore_expiry: bool,
        /// Also check every admitted normal-RPC access against the other
        /// clients' live leases, not only grants.
        admissions: bool,
    }

    const HONEST: Rules = Rules {
        grace: true,
        ignore_expiry: false,
        admissions: false,
    };

    /// The explored world: the server end, each client's end, the clock,
    /// and when the grace of the last reboot must end at the earliest
    /// (`None` until the first request after it).
    #[derive(Clone)]
    struct Model {
        now: SimTime,
        server: ServerLeases,
        clients: Vec<ClientLeases>,
        rebooted: bool,
        grace_end: Option<SimTime>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                now: SimTime::ZERO,
                server: ServerLeases::default(),
                clients: vec![ClientLeases::default(); CLIENTS as usize],
                rebooted: false,
                grace_end: None,
            }
        }

        fn live(&self, c: u32, write: bool, rules: Rules) -> bool {
            self.clients[c as usize].covers(INO, write, self.now, rules.ignore_expiry)
        }

        /// Whether another client than `c` holds a live lease that an
        /// access of `write` strength by `c` conflicts with.
        fn conflicts(&self, c: u32, write: bool, rules: Rules) -> Option<u32> {
            (0..CLIENTS).find(|&d| d != c && self.live(d, !write, rules))
        }

        /// Whether a grant or a read at `now` falls inside the grace the
        /// last reboot owes.
        fn in_owed_grace(&self) -> bool {
            self.rebooted && self.grace_end.is_none_or(|end| self.now < end)
        }

        /// The next instant something lapses, if any.
        fn next_deadline(&self) -> Option<SimTime> {
            let server = self.server.entries.values().flat_map(|l| &l.holds);
            let clients = self.clients.iter().flat_map(|c| c.held.values());
            server
                .map(|h| h.expiry)
                .chain(clients.map(|l| l.expiry))
                .chain([self.server.grace_until])
                .filter(|&e| e > self.now)
                .min()
        }

        /// Applies one step: `None` when it cannot be taken here,
        /// otherwise the violation it caused, if any.
        fn apply(&mut self, step: Step, rules: Rules) -> Option<Option<String>> {
            let now = self.now;
            if let Step::GetLease(..)
            | Step::Admit(..)
            | Step::Release(_)
            | Step::Remove(_)
            | Step::Drain(_) = step
            {
                self.server.heard(now);
                if self.rebooted && self.grace_end.is_none() {
                    self.grace_end = Some(now + LEASE_TERM);
                }
            }
            let mut bad = None;
            match step {
                Step::GetLease(c, write) => {
                    if let Ok(term) = self.server.getlease(INO, c, write, now) {
                        if self.in_owed_grace() {
                            bad = Some(format!("client {c} granted inside the reboot grace"));
                        }
                        self.clients[c as usize].record_grant(fh(INO), write, now, term);
                    }
                }
                Step::Admit(c, write) => {
                    if self.server.admit(Some(INO), c, write, now).is_ok() {
                        if !write && self.in_owed_grace() {
                            bad = Some(format!("client {c} read inside the reboot grace"));
                        } else if let Some(d) =
                            self.conflicts(c, write, rules).filter(|_| rules.admissions)
                        {
                            bad = Some(format!(
                                "client {c} admitted to {} under client {d}'s live lease",
                                if write { "write" } else { "read" }
                            ));
                        }
                    }
                }
                Step::Release(c) => {
                    self.server.release(INO, c);
                    self.clients[c as usize].forget(INO);
                }
                Step::Remove(c) => {
                    if self.server.admit(Some(INO), c, true, now).is_ok() {
                        self.server.forget(INO);
                        self.clients[c as usize].forget(INO);
                    }
                }
                Step::Drain(c) => {
                    let recall = self.server.next_recall(c);
                    self.clients[c as usize].on_trailer(recall);
                }
                Step::Reboot => {
                    self.server.reboot(rules.grace);
                    self.rebooted = true;
                    self.grace_end = None;
                }
                Step::Jump => self.now = self.next_deadline()?,
            }
            if bad.is_none() {
                for c in 0..CLIENTS {
                    if self.live(c, true, rules) {
                        if let Some(d) = self.conflicts(c, true, rules) {
                            bad = Some(format!(
                                "client {c}'s write lease is live beside client {d}'s lease"
                            ));
                        }
                    }
                }
            }
            Some(bad)
        }

        /// Everything that decides what happens next, with times taken
        /// relative to `now` (and lapsed ones as zero): two states with
        /// one key behave alike, so the search visits each once.
        fn key(&self) -> String {
            let rel = |e: SimTime| e.since(self.now).as_nanos();
            let mut k = String::new();
            if let Some(l) = self.server.entries.get(&INO) {
                let _ = write!(k, "w{}", l.write);
                for h in &l.holds {
                    let _ = write!(k, " {}:{}:{}", h.client, rel(h.expiry), h.recalled);
                }
            }
            for c in 0..CLIENTS {
                let q = self.server.recalls.get(&c).map(|q| q.len()).unwrap_or(0);
                let _ = write!(k, "|q{q}");
            }
            let s = &self.server;
            let _ = write!(k, "|g{}:{}", s.grace_pending, rel(s.grace_until));
            for c in &self.clients {
                for l in c.held.values() {
                    let _ = write!(k, "|{}:{}", l.write, rel(l.expiry));
                }
                let _ = write!(k, "|r{:?}", c.recall_queue);
            }
            let owed = self.grace_end.map(rel);
            let _ = write!(k, "|{}:{owed:?}", self.rebooted);
            k
        }
    }

    fn all_steps() -> Vec<Step> {
        let mut steps = Vec::new();
        for c in 0..CLIENTS {
            for write in [false, true] {
                steps.push(Step::GetLease(c, write));
                steps.push(Step::Admit(c, write));
            }
            steps.extend([Step::Release(c), Step::Remove(c), Step::Drain(c)]);
        }
        steps.extend([Step::Reboot, Step::Jump]);
        steps
    }

    /// Breadth-first over every trace of up to [`DEPTH`] steps from a
    /// fresh world: the number of distinct states seen, or the first
    /// violation with a shortest trace that reaches it.
    fn explore(rules: Rules) -> Result<usize, (Vec<Step>, String)> {
        let steps = all_steps();
        let mut seen = HashSet::new();
        let mut frontier = vec![(Model::new(), Vec::new())];
        seen.insert(Model::new().key());
        for _ in 0..DEPTH {
            let mut next = Vec::new();
            for (model, trace) in &frontier {
                for &step in &steps {
                    let mut m = model.clone();
                    let Some(bad) = m.apply(step, rules) else {
                        continue;
                    };
                    let mut trace: Vec<Step> = trace.clone();
                    trace.push(step);
                    if let Some(why) = bad {
                        return Err((trace, why));
                    }
                    if seen.insert(m.key()) {
                        next.push((m, trace));
                    }
                }
            }
            frontier = next;
        }
        Ok(seen.len())
    }

    fn show((trace, why): (Vec<Step>, String)) -> String {
        let steps: Vec<String> = trace.iter().map(|s| format!("{s:?}")).collect();
        format!("{why}\n  after: {}", steps.join(", "))
    }

    #[test]
    fn explorer_finds_no_conflicting_holds_and_no_grant_inside_the_grace() {
        match explore(HONEST) {
            Ok(states) => assert!(states > 1_000, "explored only {states} states"),
            Err(found) => panic!("lease rules violated: {}", show(found)),
        }
    }

    #[test]
    fn explorer_catches_the_no_reboot_grace_mutant() {
        let rules = Rules {
            grace: false,
            ..HONEST
        };
        let (trace, why) = explore(rules).expect_err("the mutant must be caught");
        assert_eq!(trace, [Step::Reboot, Step::GetLease(0, false)], "{why}");
    }

    #[test]
    fn explorer_catches_the_ignore_expiry_mutant() {
        let rules = Rules {
            ignore_expiry: true,
            ..HONEST
        };
        let (trace, why) = explore(rules).expect_err("the mutant must be caught");
        assert_eq!(
            trace,
            [
                Step::GetLease(0, false),
                Step::Jump,
                Step::GetLease(1, true)
            ],
            "{why}"
        );
    }

    /// A finding, pinned: the grace defers reads and grants but admits
    /// writes (so crashed holders can land their write-behind data), and
    /// the rebooted server cannot tell a crashed holder from any other
    /// writer. So a client with no lease writes while another still
    /// trusts a read lease granted before the crash. Whether the soak's
    /// crash worlds reach this is still open; no rule changes here.
    #[test]
    fn explorer_finds_a_write_admitted_in_the_grace_under_a_pre_crash_read_lease() {
        let rules = Rules {
            admissions: true,
            ..HONEST
        };
        let (trace, why) = explore(rules).expect_err("the finding is pinned");
        assert_eq!(
            trace,
            [Step::GetLease(0, false), Step::Reboot, Step::Admit(1, true)],
            "{why}"
        );
    }
}

//! A feature-gated self-profiler, mirroring the paper's "profile first"
//! methodology: before tuning, measure where the time goes.
//!
//! Compiled out entirely unless the `profile` cargo feature is enabled —
//! every hook below is an inline empty function, so instrumented call
//! sites cost nothing in default builds. With the feature on, the hooks
//! maintain global relaxed atomics and are still inert until
//! [`set_enabled`]`(true)` (the `repro --profile` flag), so enabling the
//! feature alone cannot perturb timing-sensitive comparisons.
//!
//! Three kinds of sample per subsystem:
//!
//! - **events**: discrete work items (queue pops, frames on links, RPCs).
//! - **allocations**: heap allocations attributed to the subsystem whose
//!   span was open when they happened. Counting requires the binary to
//!   install `CountingAlloc` (a `profile`-feature build) as its global
//!   allocator; without it the allocation columns read zero.
//! - **wall-clock**: real time inside [`span`] guards.
//!
//! Spans nest: the client, server and link handlers each open one, and
//! `Host::charge_*`, which prices NIC work, opens a `Nic` span inside the
//! client's or the server's. An inner span pauses the outer one, so each
//! subsystem is charged its exclusive time and the columns sum to the
//! total.
//!
//! Plus the **census**: pops by kind of event, and how many of each kind
//! the handler found stale — how many events, of what, and how many for
//! nothing is the first question before cutting any of them.

/// The simulator subsystems the profiler attributes samples to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subsystem {
    /// The event queue itself (pops and scheduling).
    Queue,
    /// Link transmission, fragmentation, routing, reassembly.
    Links,
    /// Host NIC / interface copy costs.
    Nic,
    /// NFS server request service.
    Server,
    /// Client threads and RPC transport.
    Client,
}

/// All subsystems, in display order.
pub const SUBSYSTEMS: [Subsystem; 5] = [
    Subsystem::Queue,
    Subsystem::Links,
    Subsystem::Nic,
    Subsystem::Server,
    Subsystem::Client,
];

impl Subsystem {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Queue => "queue",
            Subsystem::Links => "links",
            Subsystem::Nic => "nic",
            Subsystem::Server => "server",
            Subsystem::Client => "client",
        }
    }

    #[cfg(feature = "profile")]
    fn idx(self) -> usize {
        match self {
            Subsystem::Queue => 0,
            Subsystem::Links => 1,
            Subsystem::Nic => 2,
            Subsystem::Server => 3,
            Subsystem::Client => 4,
        }
    }
}

#[cfg(feature = "profile")]
mod imp {
    use super::{Subsystem, SUBSYSTEMS};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Global allocation tick, bumped by [`CountingAlloc`] whether or not
    /// the profiler is enabled (the allocator cannot cheaply check).
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static QUEUE_EVENTS: AtomicU64 = AtomicU64::new(0);

    const N: usize = SUBSYSTEMS.len();

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static SUB_EVENTS: [AtomicU64; N] = [ZERO; N];
    static SUB_NANOS: [AtomicU64; N] = [ZERO; N];
    static SUB_ALLOCS: [AtomicU64; N] = [ZERO; N];
    /// The census: `(kind of event, pops, pops the handler found stale)`.
    static CENSUS: Mutex<Vec<(&'static str, u64, u64)>> = Mutex::new(Vec::new());

    /// Turns sample collection on or off.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Relaxed);
    }

    /// Whether sample collection is on.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset() {
        QUEUE_EVENTS.store(0, Relaxed);
        for i in 0..N {
            SUB_EVENTS[i].store(0, Relaxed);
            SUB_NANOS[i].store(0, Relaxed);
            SUB_ALLOCS[i].store(0, Relaxed);
        }
        CENSUS.lock().expect("a census update panicked").clear();
    }

    /// Census: one popped event of `kind` — or, with `stale`, its handler
    /// finding it so (a timer whose generation moved on, a reassembly that
    /// had already completed).
    pub fn census(kind: &'static str, stale: bool) {
        if enabled() {
            let mut rows = CENSUS.lock().expect("a census update panicked");
            let at = rows.iter().position(|r| r.0 == kind).unwrap_or(rows.len());
            if at == rows.len() {
                rows.push((kind, 0, 0));
            }
            rows[at].1 += u64::from(!stale);
            rows[at].2 += u64::from(stale);
        }
    }

    /// Pops the census has counted, over every kind of event.
    pub fn census_pops() -> u64 {
        let rows = CENSUS.lock().expect("a census update panicked");
        rows.iter().map(|r| r.1).sum()
    }

    /// Records one event-queue pop.
    #[inline]
    pub fn count_event() {
        if enabled() {
            QUEUE_EVENTS.fetch_add(1, Relaxed);
            SUB_EVENTS[Subsystem::Queue.idx()].fetch_add(1, Relaxed);
        }
    }

    /// Records `n` discrete work items against a subsystem.
    #[inline]
    pub fn count(sub: Subsystem, n: u64) {
        if enabled() {
            SUB_EVENTS[sub.idx()].fetch_add(n, Relaxed);
        }
    }

    thread_local! {
        /// This thread's share of [`ALLOCS`].
        static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Called by [`CountingAlloc`] on every allocation.
    #[inline]
    pub fn note_alloc() {
        ALLOCS.fetch_add(1, Relaxed);
        // A thread may still allocate while its locals are torn down.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    /// Total allocations observed by the counting allocator so far.
    pub fn allocs() -> u64 {
        ALLOCS.load(Relaxed)
    }

    /// Allocations the counting allocator has observed on the calling
    /// thread so far: a measured section that runs on one thread counts
    /// no other thread's.
    pub fn thread_allocs() -> u64 {
        THREAD_ALLOCS.with(|n| n.get())
    }

    /// Total event-queue pops recorded while enabled.
    pub fn events() -> u64 {
        QUEUE_EVENTS.load(Relaxed)
    }

    thread_local! {
        /// The innermost open span: subsystem, when it (re)started, and
        /// the allocation tick at that moment.
        static CURRENT: std::cell::Cell<Option<(Subsystem, Instant, u64)>> =
            const { std::cell::Cell::new(None) };
    }

    fn flush(sub: Subsystem, since: Instant, allocs0: u64) {
        let i = sub.idx();
        SUB_NANOS[i].fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
        let da = ALLOCS.load(Relaxed).saturating_sub(allocs0);
        SUB_ALLOCS[i].fetch_add(da, Relaxed);
    }

    /// An RAII guard attributing wall-clock and allocations to `sub`.
    ///
    /// Spans nest: opening a child span pauses the parent (its elapsed
    /// time and allocations are flushed first), and closing the child
    /// resumes it — so each subsystem is charged only for its own
    /// *exclusive* time, and the per-subsystem columns sum to the total.
    pub fn span(sub: Subsystem) -> Span {
        if !enabled() {
            return Span {
                active: false,
                parent: None,
            };
        }
        let now = Instant::now();
        let allocs0 = ALLOCS.load(Relaxed);
        let parent = CURRENT.replace(Some((sub, now, allocs0)));
        if let Some((psub, pt, pa)) = parent {
            flush(psub, pt, pa);
        }
        Span {
            active: true,
            parent: parent.map(|(s, _, _)| s),
        }
    }

    /// Open profiling span; see [`span`].
    pub struct Span {
        active: bool,
        parent: Option<Subsystem>,
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            let resumed = self
                .parent
                .map(|p| (p, Instant::now(), ALLOCS.load(Relaxed)));
            if let Some((sub, t0, a0)) = CURRENT.replace(resumed) {
                flush(sub, t0, a0);
            }
        }
    }

    /// Per-subsystem totals snapshot.
    pub fn snapshot() -> Vec<(Subsystem, u64, u64, u64)> {
        SUBSYSTEMS
            .iter()
            .map(|&s| {
                let i = s.idx();
                (
                    s,
                    SUB_EVENTS[i].load(Relaxed),
                    SUB_NANOS[i].load(Relaxed),
                    SUB_ALLOCS[i].load(Relaxed),
                )
            })
            .collect()
    }

    /// Formats the profile table (events, wall-clock, allocations per
    /// subsystem) for printing to stderr.
    pub fn report() -> String {
        use std::fmt::Write as _;
        let rows = snapshot();
        let total_ns: u64 = rows.iter().map(|r| r.2).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[profile] subsystem      events     wall(ms)   %wall     allocs"
        );
        for (sub, events, nanos, allocs) in rows {
            let pct = if total_ns > 0 {
                100.0 * nanos as f64 / total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "[profile] {:<12} {:>10} {:>11.3} {:>6.1}% {:>10}",
                sub.name(),
                events,
                nanos as f64 / 1e6,
                pct,
                allocs,
            );
        }
        let _ = writeln!(
            out,
            "[profile] total pops {}  total wall {:.3} ms  total allocs {}",
            events(),
            total_ns as f64 / 1e6,
            allocs(),
        );
        let mut rows = CENSUS.lock().expect("a census update panicked").clone();
        rows.sort_by_key(|&(_, pops, _)| std::cmp::Reverse(pops));
        let all = rows.iter().map(|r| r.1).sum::<u64>().max(1) as f64;
        let _ = writeln!(
            out,
            "[census] event {:>20} {:>6} {:>10} {:>10}",
            "pops", "share", "stale", "live"
        );
        for (kind, pops, stale) in rows {
            let share = 100.0 * pops as f64 / all;
            let live = pops - stale;
            let _ = writeln!(
                out,
                "[census] {kind:<16} {pops:>10} {share:>5.1}% {stale:>10} {live:>10}"
            );
        }
        out
    }

    /// A global allocator wrapper that counts allocations so the profiler
    /// can attribute heap traffic to subsystems. Install in a binary with:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: renofs_sim::profile::CountingAlloc = renofs_sim::profile::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System`; the only addition is
    // a relaxed counter increment, which allocates nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note_alloc();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note_alloc();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note_alloc();
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[cfg(feature = "profile")]
pub use imp::{
    allocs, census, census_pops, count, count_event, enabled, events, note_alloc, report, reset,
    set_enabled, snapshot, span, thread_allocs, CountingAlloc, Span,
};

/// No-op stubs when the `profile` feature is off: same API surface, zero
/// cost, so call sites need no `cfg` of their own.
#[cfg(not(feature = "profile"))]
mod stub {
    use super::Subsystem;

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn census(_kind: &'static str, _stale: bool) {}

    /// Always zero without the `profile` feature.
    #[inline(always)]
    pub fn census_pops() -> u64 {
        0
    }

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    /// Always `false` without the `profile` feature.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn reset() {}

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn count_event() {}

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn count(_sub: Subsystem, _n: u64) {}

    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn note_alloc() {}

    /// Always zero without the `profile` feature.
    #[inline(always)]
    pub fn allocs() -> u64 {
        0
    }

    /// Always zero without the `profile` feature.
    #[inline(always)]
    pub fn thread_allocs() -> u64 {
        0
    }

    /// Always zero without the `profile` feature.
    #[inline(always)]
    pub fn events() -> u64 {
        0
    }

    /// Inert guard without the `profile` feature.
    #[inline(always)]
    pub fn span(_sub: Subsystem) -> Span {
        Span
    }

    /// Inert profiling span.
    pub struct Span;

    /// Empty without the `profile` feature.
    pub fn snapshot() -> Vec<(Subsystem, u64, u64, u64)> {
        Vec::new()
    }

    /// Empty without the `profile` feature.
    pub fn report() -> String {
        String::from("[profile] built without the `profile` feature\n")
    }
}

#[cfg(not(feature = "profile"))]
pub use stub::{
    allocs, census, census_pops, count, count_event, enabled, events, note_alloc, report, reset,
    set_enabled, snapshot, span, thread_allocs, Span,
};

#[cfg(all(test, feature = "profile"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_counts_when_enabled() {
        reset();
        set_enabled(false);
        count_event();
        assert_eq!(events(), 0);
        set_enabled(true);
        count_event();
        count(Subsystem::Server, 3);
        {
            let _g = span(Subsystem::Links);
        }
        let snap = snapshot();
        assert_eq!(snap[0].1, 1, "queue events");
        assert_eq!(snap[3].1, 3, "server events");
        assert!(report().contains("links"));
        for stale in [false, false, true] {
            census("UdpTimer", stale);
        }
        let report = report();
        let row = report.lines().find(|l| l.contains("UdpTimer")).unwrap();
        let cols: Vec<&str> = row.split_whitespace().skip(2).collect();
        assert_eq!(cols, ["2", "100.0%", "1", "1"]);
        assert_eq!(census_pops(), 2);
        set_enabled(false);
        reset();
    }
}

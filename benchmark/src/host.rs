//! The machine under the benchmark: CPU pinning, heap retention, resource
//! usage, the counting allocator, and the two reference kernels that
//! witness the machine's state.
//!
//! Host time on this class of guest is dominated by the kernel's thread
//! hand-off path (the simulator parks and wakes one OS thread per
//! syscall of every workload proc). Unpinned, those hand-offs cross
//! cores and cost an order of magnitude more, and vary with whatever else the host runs;
//! so the whole process is pinned to one CPU before anything is spawned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::{c_int, c_long};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::channel;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Counts every heap allocation of the process (all threads), so
/// allocations per RPC can be reported as an exact, repeatable count.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is delegated unchanged to `System`; the only
// addition is two relaxed counter increments, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` since process start.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Nanoseconds since the first call (one clock for every thread's spans).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as glibc lays it out on Linux.
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    unused: [c_long; 10],
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and every thread it later spawns) to
/// `cpus`. Fails loudly: the benchmark never runs with another affinity
/// than the one it reports.
pub fn set_affinity(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// Where the process was put.
#[derive(Clone, Debug)]
pub struct Pinning {
    /// CPUs the process was allowed before pinning.
    pub allowed: Vec<usize>,
    /// The one CPU it now runs on.
    pub cpu: usize,
}

/// Prepares the process for measurement; call first thing in `main`,
/// before any thread exists. Pins to the highest-numbered allowed CPU
/// (CPU 0 takes the guest's interrupts) and tells malloc to keep freed
/// memory, so a repeat of a cell does not fault its pages in again.
pub fn init() -> Pinning {
    let allowed = allowed_cpus();
    let cpu = *allowed.last().expect("at least one allowed CPU");
    set_affinity(&[cpu]);
    // SAFETY: mallopt only sets two tunables of the C allocator.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_MMAP_THRESHOLD, 1 << 30);
    }
    Pinning { allowed, cpu }
}

/// How long after its own build a run waits before it measures.
const SETTLE: Duration = Duration::from_secs(90);

/// Waits until this executable is [`SETTLE`] old. A release build keeps
/// both vCPUs of the guest busy for half a minute, and for a minute or so
/// afterwards every thread hand-off costs about half as much again
/// (measured: `write_56k` at 79-83 us/RPC right after a build, 55 us two
/// minutes later, whatever ran in between). Only the first run after a
/// build is that young; it is allowed the time.
pub fn settle_after_build() {
    let age = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|built| built.elapsed().ok());
    if let Some(wait) = age.and_then(|age| SETTLE.checked_sub(age)) {
        eprintln!(
            "bench: built {:.0} s ago; settling for {:.0} s",
            (SETTLE - wait).as_secs_f64(),
            wait.as_secs_f64()
        );
        std::thread::sleep(wait);
    }
}

/// Process-wide resource usage so far (all threads).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Rusage {
    /// Reads the counters now.
    pub fn now() -> Rusage {
        // SAFETY: an all-zero RawRusage is a valid value of the type.
        let mut raw: RawRusage = unsafe { std::mem::zeroed() };
        // SAFETY: `raw` is valid and writable for the kernel to fill.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Rusage {
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
            ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
        }
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Round trips per hand-off sample.
const HANDOFF_ROUNDS: u32 = 2_000;
/// Words written per compute sample.
const COMPUTE_WORDS: usize = 1 << 18;

/// The two reference kernels, each keeping its fastest sample. They are
/// measured between passes, like the cells themselves, and say what the
/// machine was doing while the benchmark ran: a hand-off figure far from
/// its usual value marks a different machine regime. They are witnesses,
/// not metrics, and nothing is normalised by them.
#[derive(Clone, Copy, Debug)]
pub struct RefKernels {
    /// Two-thread mpsc round trip, microseconds.
    pub handoff_us: f64,
    /// Fixed ALU-and-store loop, microseconds.
    pub compute_us: f64,
}

impl Default for RefKernels {
    fn default() -> Self {
        RefKernels {
            handoff_us: f64::INFINITY,
            compute_us: f64::INFINITY,
        }
    }
}

impl RefKernels {
    /// Takes one more sample of each kernel.
    pub fn sample(&mut self) {
        self.handoff_us = self.handoff_us.min(handoff_sample_us());
        self.compute_us = self.compute_us.min(compute_sample_us());
    }
}

fn handoff_sample_us() -> f64 {
    let (ping_tx, ping_rx) = channel::<u32>();
    let (pong_tx, pong_rx) = channel::<u32>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    // One untimed round trip so thread start-up is not in the sample.
    ping_tx.send(0).expect("echo thread alive");
    pong_rx.recv().expect("echo thread alive");
    let t0 = Instant::now();
    for i in 0..HANDOFF_ROUNDS {
        ping_tx.send(i).expect("echo thread alive");
        std::hint::black_box(pong_rx.recv().expect("echo thread alive"));
    }
    let dt = t0.elapsed();
    drop(ping_tx);
    echo.join().expect("echo thread exits cleanly");
    dt.as_secs_f64() * 1e6 / HANDOFF_ROUNDS as f64
}

fn compute_sample_us() -> f64 {
    let mut buf = vec![0u64; COMPUTE_WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let t0 = Instant::now();
    for slot in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    std::hint::black_box(&buf);
    t0.elapsed().as_secs_f64() * 1e6
}

/// `rustc --version` of the toolchain on the path, for the env block.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1/5/15-minute load averages, as the kernel prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

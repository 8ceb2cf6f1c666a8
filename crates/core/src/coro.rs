//! Stackful coroutines: what a workload proc runs on.
//!
//! A [`Coroutine`] runs a closure on a stack of its own, on the thread that
//! resumes it. [`Coroutine::resume`] switches to that stack and returns
//! when the body calls [`suspend`] or ends; each is one register switch in
//! user space — no system call, no second thread. The switch carries no
//! values: the two sides talk through memory they share (`world::ProcCell`).
//! A coroutine that has run is tied to the thread that ran it (its frames may
//! hold `!Send` values and thread-local addresses), so the type is `!Send`.
//! A dropped coroutine's stack is parked on a free list, mapped, guarded
//! and with its top page resident, and the next [`Coroutine::new`] takes it
//! instead of mapping one: stacks are recycled, never unmapped.
//! This module holds all of the crate's `unsafe`.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("renofs builds on x86-64 Linux only: port `coro::switch` and its initial frame");

use std::any::Any;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

/// Address space reserved per stack (the debug test suite runs in 64 KiB),
/// committed as touched; the lowest page is a guard, so an overflow is a
/// SIGSEGV. Two VMAs each: the default `vm.max_map_count` allows ~32 k
/// live at once, and recycling maps no more than the process's peak.
const STACK_BYTES: usize = 1 << 20;
const PAGE_BYTES: usize = 4096;
const PROT_NONE: c_int = 0;
const PROT_RW: c_int = 1 | 2;
const MAP_FLAGS: c_int = 0x02 | 0x20 | 0x4000; // MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE
const MADV_DONTNEED: c_int = 4;

extern "C" {
    fn mmap(a: *mut c_void, n: usize, prot: c_int, fl: c_int, fd: c_int, o: i64) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// The bases of stacks no coroutine owns, each as a fresh one is once
/// `new` has written its top page (4.3BSD's `mclfree`, for stacks).
/// Process-wide, so the process never has more stacks mapped than it once
/// had coroutines alive.
static FREE_STACKS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

fn free_stacks() -> MutexGuard<'static, Vec<usize>> {
    // Plain addresses: a panic while the lock was held leaves them intact.
    FREE_STACKS.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) type PanicPayload = Box<dyn Any + Send>;
/// What a dropped coroutine's body is unwound with.
struct Cancelled;

/// What the two sides share, at the top of the coroutine's own stack (a
/// stable address); all `Cell`s, as both sides hold `&Control`.
struct Control {
    /// The stack pointer of whichever side is not running.
    sp: Cell<*mut u8>,
    finished: Cell<bool>,
    /// Set by `drop`: [`suspend`] unwinds instead of switching.
    cancel: Cell<bool>,
    body: Cell<Option<Box<dyn FnOnce()>>>,
    panic: Cell<Option<PanicPayload>>,
}

thread_local! {
    /// The innermost coroutine running on this thread (null: none).
    static CURRENT: Cell<*const Control> = const { Cell::new(ptr::null()) };
}

/// A closure running on its own stack; see the module documentation.
pub(crate) struct Coroutine {
    /// The stack mapping, and the block at its top.
    base: *mut c_void,
    ctl: *const Control,
    /// The thread that first resumed it (`None`: no frame is live yet).
    owner: Option<ThreadId>,
}

/// Saves the running side (six callee-saved registers, then `rsp` into
/// `*slot`) and resumes the side whose `rsp` `*slot` held. The x87 and MXCSR
/// control words, callee-saved too, are left alone: Rust never sets them.
///
/// # Safety
///
/// `*slot` holds an `rsp` this function saved, or the initial frame of
/// [`Coroutine::new`], on a stack nothing runs on and this thread owns.
#[unsafe(naked)]
unsafe extern "C" fn switch(slot: *mut *mut u8) {
    std::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov rax, [rdi]",
        "mov [rdi], rsp",
        "mov rsp, rax",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

/// The base frame of every coroutine, entered by [`switch`]'s `ret`.
extern "C" fn entry() -> ! {
    // SAFETY: only a `resume` gets here, having pointed CURRENT at this
    // coroutine's control block, which outlives every run of this stack.
    let ctl = unsafe { &*CURRENT.get() };
    let body = ctl.body.take().expect("a fresh coroutine has its body");
    // No panic crosses a switch: this frame has no caller to unwind into.
    let panic = catch_unwind(AssertUnwindSafe(body)).err();
    let panic = panic.filter(|payload| !payload.is::<Cancelled>());
    ctl.panic.set(panic);
    ctl.finished.set(true);
    // SAFETY: `sp` is what the `switch` in `resume` saved on the resumer's
    // stack, which has waited in that call since.
    unsafe { switch(ctl.sp.as_ptr()) };
    unreachable!("a finished coroutine was resumed")
}

/// Switches from the running coroutine's body back to its resumer; returns
/// when next resumed. If the coroutine is dropped instead, this and every
/// later call unwind the body (a private payload: no panic hook runs).
pub(crate) fn suspend() {
    let ctl = CURRENT.get();
    assert!(!ctl.is_null(), "suspend() called outside a coroutine");
    // SAFETY: CURRENT is non-null only between the two switches of a
    // `resume`, which holds its `Coroutine` by `&mut`: the block is alive.
    let ctl = unsafe { &*ctl };
    if !ctl.cancel.get() {
        // SAFETY: as in `entry`.
        unsafe { switch(ctl.sp.as_ptr()) };
    }
    if ctl.cancel.get() {
        resume_unwind(Box::new(Cancelled));
    }
}

impl Coroutine {
    /// A coroutine that will run `body` when first resumed.
    pub(crate) fn new(body: impl FnOnce() + 'static) -> Self {
        Self::boxed(Box::new(body))
    }

    /// [`new`](Self::new) once for every body type. A generic caller
    /// instantiates no more than the `Box`, so what gets inlined around a
    /// proc's body (and how deep its stack goes) does not hang on this.
    fn boxed(body: Box<dyn FnOnce()>) -> Self {
        let parked = free_stacks().pop();
        let base = parked.map_or_else(map_stack, |base| base as *mut c_void);
        let ctl = ((base as usize + STACK_BYTES - size_of::<Control>()) & !15) as *mut Control;
        // What `switch` pops first: six zero registers and `entry`, which
        // finds the stack as a call leaves it — 8 below a 16-byte boundary,
        // at a zero return address where a stack walk ends. A recycled stack
        // holds old frames here, so all eight words are written.
        let frame = (ctl as usize - 64) as *mut [usize; 8];
        let entry = entry as extern "C" fn() -> ! as usize;
        // SAFETY: the frame and the block lie in the mapping's writable
        // top ~150 bytes, aligned; no coroutine owns the stack but this one,
        // and a parked stack's block was dropped when it was parked.
        unsafe {
            frame.write([0, 0, 0, 0, 0, 0, entry, 0]);
            ctl.write(Control {
                sp: Cell::new(frame.cast()),
                finished: Cell::new(false),
                cancel: Cell::new(false),
                body: Cell::new(Some(body)),
                panic: Cell::new(None),
            });
        }
        let owner = None;
        Coroutine { base, ctl, owner }
    }

    fn ctl(&self) -> &Control {
        // SAFETY: written by `new`, dropped by `drop`, never borrowed `&mut`.
        unsafe { &*self.ctl }
    }

    /// Runs the body until it next calls [`suspend`] (`Ok(false)`), returns
    /// (`Ok(true)`) or panics (`Err`, the payload). After either of the last
    /// two it has finished, and resuming it again panics.
    pub(crate) fn resume(&mut self) -> Result<bool, PanicPayload> {
        let owner = *self.owner.get_or_insert_with(|| thread::current().id());
        debug_assert_eq!(owner, thread::current().id(), "a coroutine changed threads");
        let ctl = self.ctl();
        assert!(!ctl.finished.get(), "resumed a finished coroutine");
        let resumer = CURRENT.replace(ctl);
        // SAFETY: the body has not finished, so `sp` holds its initial
        // frame or what its last `switch` saved, and its stack has run on
        // this thread only (`Coroutine` is `!Send`, and nothing in the
        // crate wraps one to send it).
        unsafe { switch(ctl.sp.as_ptr()) };
        CURRENT.set(resumer);
        ctl.panic.take().map_or(Ok(ctl.finished.get()), Err)
    }
}

impl Drop for Coroutine {
    /// Unwinds a suspended body from inside [`suspend`], running its
    /// destructors — unless this thread is unwinding already (a destructor
    /// that panics would abort the process) or is not the frames' own.
    fn drop(&mut self) {
        let suspended = |c: &Self| c.owner.is_some() && !c.ctl().finished.get();
        if suspended(self) && !thread::panicking() && self.owner == Some(thread::current().id()) {
            self.ctl().cancel.set(true);
            // A panic of the body's own on the way out has met the hook.
            let _ = self.resume();
        }
        // Frames that never unwound may be borrowed from elsewhere (a scoped
        // thread, a pinned value): their stack stays theirs.
        if !suspended(self) {
            // SAFETY: no frame on the stack is live and nothing points at
            // the block (CURRENT does only during a run).
            unsafe { ptr::drop_in_place(self.ctl.cast_mut()) };
            park(self.base);
        }
    }
}

/// Puts a stack no frame is live on back on the list. The pages below its
/// top one go back to the kernel: kept, every page any owner ever touched
/// would stay resident under every later world, and the process's peak
/// RSS would outgrow what fresh stacks cost it.
fn park(base: *mut c_void) {
    let below_top = STACK_BYTES - 2 * PAGE_BYTES;
    // SAFETY: the stack's writable pages between the guard and the top
    // page, which hold no live frame; they read as zero when next touched.
    let rc = unsafe { madvise(base.byte_add(PAGE_BYTES), below_top, MADV_DONTNEED) };
    assert_eq!(rc, 0, "releasing a parked stack's pages failed");
    free_stacks().push(base as usize);
}

/// A fresh stack: `STACK_BYTES` where the kernel chooses, lowest page a guard.
fn map_stack() -> *mut c_void {
    // SAFETY: a fresh mapping where the kernel chooses overlaps nothing.
    let base = unsafe { mmap(ptr::null_mut(), STACK_BYTES, PROT_RW, MAP_FLAGS, -1, 0) };
    assert!(base as isize != -1, "no address space for a proc stack");
    // SAFETY: the lowest page of the new mapping, which nothing uses.
    let rc = unsafe { mprotect(base, PAGE_BYTES, PROT_NONE) };
    assert_eq!(rc, 0, "guarding a proc stack failed");
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::rc::Rc;

    #[test]
    fn round_trips_preserve_both_sides() {
        const N: u64 = 100_000;
        let seen = Rc::new(Cell::new(0u64));
        let theirs = seen.clone();
        let mut co = Coroutine::new(move || {
            // Locals that live across every suspend.
            let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
            for i in 0..N {
                a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
                b ^= a.rotate_left(17);
                c = c.wrapping_add(b);
                theirs.set(a ^ b ^ c);
                suspend();
            }
        });
        // The caller's side of the same: five accumulators live across
        // every resume, which an optimized build keeps in the callee-saved
        // registers `switch` must restore.
        let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
        let (mut sum, mut trips) = (0u64, 0u64);
        while !co.resume().unwrap() {
            a = a.wrapping_mul(6364136223846793005).wrapping_add(trips);
            b ^= a.rotate_left(17);
            c = c.wrapping_add(b);
            assert_eq!(seen.get(), a ^ b ^ c, "trip {trips}");
            sum = sum.wrapping_add(seen.get());
            trips += 1;
        }
        assert_eq!(trips, N);
        assert_ne!(sum, 0);
    }

    /// Recurses through 1 KiB pads of `0xa5` until the frames below `top`
    /// cover `bytes`; returns how many it took.
    fn dive(top: usize, bytes: usize, frames: usize) -> usize {
        let pad = black_box([0xa5u8; 1024]);
        if top - pad.as_ptr() as usize >= bytes {
            return frames;
        }
        dive(top, bytes, frames + 1) + pad[512] as usize % 2 // not a tail call
    }

    /// A body that dives `bytes` deep and leaves the frame count in `out`.
    fn diver(bytes: usize, out: Rc<Cell<usize>>) -> impl FnOnce() + 'static {
        move || {
            let top = black_box(0u8);
            out.set(dive(&top as *const u8 as usize, bytes, 0));
        }
    }

    /// Runs `first()` until it suspends or ends, drops it and builds
    /// `Coroutine::new(then())`, until the dropped one's stack was on the
    /// list and the new one got it; returns it and the stack's base. Tests
    /// on other threads share the list and may take the stack in between:
    /// then it retries. (The kernel may map an unmapped stack's address
    /// again, so getting the same base alone proves nothing.)
    fn on_a_recycled_stack<F: FnOnce() + 'static>(
        first: impl Fn() -> Coroutine,
        then: impl Fn() -> F,
    ) -> (Coroutine, usize) {
        for _ in 0..100 {
            let mut co = first();
            let _ = co.resume();
            let base = co.base as usize;
            drop(co);
            let parked = free_stacks().contains(&base);
            let next = Coroutine::new(then());
            if parked && next.base as usize == base {
                return (next, base);
            }
        }
        panic!("a dropped coroutine's stack was never parked and taken");
    }

    /// `/proc/self/maps`' permissions for the page at `addr` (`None`:
    /// unmapped). A neighbour of the same kind may share its line.
    fn perms(addr: usize) -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        maps.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let hex = |h| usize::from_str_radix(h, 16).ok();
            if !(hex(start)?..hex(end)?).contains(&addr) {
                return None;
            }
            fields.next().map(str::to_owned)
        })
    }

    /// Whether the stack at `base` is mapped with its guard page.
    fn guarded(base: usize) -> bool {
        let guard = [base, base + PAGE_BYTES - 1].map(perms);
        let stack = [base + PAGE_BYTES, base + STACK_BYTES - 1].map(perms);
        guard.iter().all(|p| p.as_deref() == Some("---p"))
            && stack.iter().all(|p| p.as_deref() == Some("rw-p"))
    }

    #[test]
    fn deep_recursion_fits_the_stack() {
        let out = Rc::new(Cell::new(0));
        let mut co = Coroutine::new(diver(512 * 1024, out.clone()));
        assert!(co.resume().unwrap());
        assert!(out.get() > 100, "{} frames", out.get());
        // And again on a stack an earlier dive dirtied.
        let first = || Coroutine::new(diver(512 * 1024, Rc::new(Cell::new(0))));
        let (mut co, _) = on_a_recycled_stack(first, || diver(512 * 1024, out.clone()));
        out.set(0);
        assert!(co.resume().unwrap());
        assert!(out.get() > 100, "{} frames", out.get());
    }

    /// Whether the 64 KiB below the top page of the stack at `base` read
    /// as zero, as pages the kernel has taken back do.
    fn zero_below_the_top_page(base: usize) -> bool {
        let below = (base + STACK_BYTES - PAGE_BYTES - 64 * 1024) as *const u8;
        // SAFETY: writable pages of a stack whose coroutine has not run
        // yet, so no frame lives there; bytes have no invalid value.
        let below = unsafe { std::slice::from_raw_parts(below, 64 * 1024) };
        below.iter().all(|&b| b == 0)
    }

    /// A coroutine that dirties the top 64 KiB of its stack.
    fn dirtier() -> Coroutine {
        Coroutine::new(diver(64 * 1024, Rc::new(Cell::new(0))))
    }

    #[test]
    fn a_dropped_coroutines_stack_is_the_next_one_mapped() {
        let (co, base) = on_a_recycled_stack(dirtier, || || ());
        assert!(!free_stacks().contains(&base), "owned: off the list");
        drop(co);
    }

    #[test]
    fn a_recycled_stack_gets_a_clean_initial_frame_and_keeps_its_guard() {
        let (mut co, base) = on_a_recycled_stack(dirtier, || || ());
        assert!(zero_below_the_top_page(base), "the dive's pages went back");
        let frame = (co.ctl as usize - 64) as *const [usize; 8];
        // SAFETY: the frame lies in the stack's writable top, written by
        // `new`, and the coroutine has not run yet.
        let words = unsafe { frame.read() };
        let entry = entry as extern "C" fn() -> ! as usize;
        assert_eq!(words, [0, 0, 0, 0, 0, 0, entry, 0]);
        assert!(guarded(base));
        assert!(co.resume().unwrap());
    }

    #[test]
    fn a_coroutine_that_panicked_is_parked() {
        let first = || {
            Coroutine::new(|| {
                diver(64 * 1024, Rc::new(Cell::new(0)))();
                std::panic::panic_any(42u32);
            })
        };
        let (mut co, _) = on_a_recycled_stack(first, || || ());
        assert!(co.resume().unwrap());
    }

    #[test]
    fn a_suspended_coroutine_dropped_while_panicking_keeps_its_stack() {
        /// Drops its coroutine from inside an unwind.
        struct DropsInUnwind(Option<Coroutine>);
        impl Drop for DropsInUnwind {
            fn drop(&mut self) {
                assert!(thread::panicking());
                drop(self.0.take());
            }
        }
        let mut co = Coroutine::new(suspend);
        assert!(!co.resume().unwrap());
        let base = co.base as usize;
        let holder = DropsInUnwind(Some(co));
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _holder = holder;
            resume_unwind(Box::new(()));
        }));
        assert!(unwound.is_err());
        assert!(!free_stacks().contains(&base), "leaked: not parked");
        assert!(guarded(base), "nor unmapped");
    }

    #[test]
    fn a_panic_comes_back_from_resume_and_finishes_the_coroutine() {
        let mut co = Coroutine::new(|| {
            suspend();
            std::panic::panic_any(42u32);
        });
        assert!(!co.resume().unwrap());
        let payload = co.resume().unwrap_err();
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
        let again = catch_unwind(AssertUnwindSafe(|| co.resume()));
        assert!(again.is_err(), "a finished coroutine cannot be resumed");
    }

    #[test]
    fn coroutines_nest() {
        let log = Rc::new(Cell::new(0u32));
        let theirs = log.clone();
        let mut outer = Coroutine::new(move || {
            let inners = theirs.clone();
            let mut inner = Coroutine::new(move || {
                for _ in 0..3 {
                    inners.set(inners.get() * 10 + 1);
                    suspend(); // suspends the inner one only
                }
            });
            while !inner.resume().unwrap() {
                theirs.set(theirs.get() * 10 + 2);
                suspend();
            }
        });
        let mut resumes = 0;
        while !outer.resume().unwrap() {
            resumes += 1;
        }
        assert_eq!(resumes, 3);
        assert_eq!(log.get(), 121_212);
    }

    #[test]
    fn dropping_a_suspended_coroutine_runs_its_destructors() {
        struct Flag(Rc<Cell<u32>>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let (captured, local) = (Flag(drops.clone()), Flag(drops.clone()));
        // Never started: only the closure's captures exist.
        drop(Coroutine::new(move || drop(captured)));
        assert_eq!(drops.get(), 1);
        let mut co = Coroutine::new(move || {
            let _local = local;
            // A body that swallows the unwind is unwound again.
            let swallowed = catch_unwind(suspend);
            assert!(swallowed.is_err());
            suspend();
            unreachable!("a cancelled coroutine runs no further");
        });
        assert!(!co.resume().unwrap());
        assert_eq!(drops.get(), 1);
        drop(co);
        assert_eq!(drops.get(), 2);
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}

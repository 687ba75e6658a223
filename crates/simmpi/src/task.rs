//! Rank tasks on stacks of their own, all run by one OS thread: the
//! execution substrate of the DES engine ([`crate::sched`]).
//!
//! A [`Stack`] is an anonymous `mmap` with a `PROT_NONE` guard page below
//! it, so an overflow faults instead of overwriting a neighbour. Stacks are
//! recycled across launches through one process-wide pool, so a launch
//! neither maps nor faults in the pages its predecessor already touched.
//!
//! [`switch`] is the whole context switch: it pushes the callee-saved
//! registers and the MXCSR and x87 control words on the running stack,
//! stores the stack pointer, loads another and pops that context's — no
//! kernel, no lock, a few nanoseconds. A fresh stack is laid out so that
//! the first switch into it returns into [`Stack::prepare`]'s entry
//! function, with a zero return address above it, where every unwind and
//! backtrace ends. The entry catches its task's panic, so no unwind ever
//! crosses a switch.
//!
//! Thread-locals that belong to a rank rather than to the OS thread
//! ([`TaskLocals`]: `cluster`'s virtual sleeper, and whatever a layer
//! [`register`]s, such as `kokkos`'s active capture sessions) move out of
//! the thread when a task switches away and back in when it resumes.

use std::any::Any;
use std::ffi::{c_int, c_void};
use std::io;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("the DES engine's stack switch is written for x86_64 Linux");

/// Usable bytes of a task stack: what `std::thread` gives a rank thread by
/// default. Only the pages a task touches become resident.
const STACK_BYTES: usize = 2 << 20;
/// The guard page below each stack.
const GUARD_BYTES: usize = 4 << 10;
/// Stacks the pool keeps for later launches; a larger launch unmaps the
/// rest when it ends.
const POOL_MAX: usize = 4096;
/// Distinct offsets of a stack's top within its page, a cache line apart.
/// Every mapping is page-aligned, so without them every task's hottest
/// frames would share the same few L1 sets, which index by page offset.
const COLORS: usize = 4096 / 64;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}
const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS_NORESERVE_STACK: c_int = 0x02 | 0x20 | 0x4000 | 0x2_0000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// One task stack: `GUARD_BYTES` of `PROT_NONE`, then `STACK_BYTES` of
/// read-write memory, in one mapping this value owns.
pub(crate) struct Stack {
    base: NonNull<u8>,
    /// How many cache lines below the mapping's end the stack starts.
    color: usize,
}

// SAFETY: a `Stack` is an owned mapping, reached only through this value;
// moving it to another thread (the pool is process-wide) moves that
// ownership, and nothing in it refers to the thread that mapped it.
unsafe impl Send for Stack {}

static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
/// Stacks mapped so far: the next one's color.
static MAPPED: AtomicUsize = AtomicUsize::new(0);

impl Stack {
    /// A stack from the pool, or a freshly mapped one.
    pub(crate) fn take() -> io::Result<Stack> {
        if let Some(stack) = POOL.lock().pop() {
            return Ok(stack);
        }
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; the result is checked below.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS_NORESERVE_STACK,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack {
            base: NonNull::new(base.cast()).ok_or_else(io::Error::last_os_error)?,
            color: MAPPED.fetch_add(1, Ordering::Relaxed) % COLORS,
        };
        // SAFETY: the first page of the mapping just made, which nothing
        // has referenced yet.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// Back to the pool, or unmapped once the pool is full.
    pub(crate) fn give_back(self) {
        let mut pool = POOL.lock();
        if pool.len() < POOL_MAX {
            pool.push(self);
        }
    }

    /// Lay out a first context on this stack and return its stack pointer:
    /// the first [`switch`] to it enters `entry(arg)`, `arg` being that
    /// switch's third argument. A recycled stack needs nothing more: what
    /// its last task left below these words is never read before the new
    /// task's frames overwrite it.
    pub(crate) fn prepare(&mut self, entry: unsafe extern "C" fn(*const u8) -> !) -> *mut u8 {
        /// MXCSR with every exception masked, round-to-nearest; and the x87
        /// control word the same: the values a new thread starts with.
        const FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);
        // From the top down: the zero return address `entry` sees, its own
        // address for the switch's `ret`, six zeroed callee-saved registers
        // (rbp, rbx, r12–r15) and the MXCSR/x87 control slot.
        let words: [u64; 9] = [0, entry as usize as u64, 0, 0, 0, 0, 0, 0, FP_CONTROL];
        // SAFETY: `top` is `color` cache lines below the mapping's end,
        // 16-aligned (the mapping is page-aligned), and the nine words
        // below it lie in the read-write part this value owns; no context
        // is running on it.
        unsafe {
            let top = self
                .base
                .as_ptr()
                .add(GUARD_BYTES + STACK_BYTES - 64 * self.color)
                .cast::<u64>();
            for (i, word) in words.iter().enumerate() {
                top.sub(i + 1).write(*word);
            }
            top.sub(words.len()).cast()
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the whole mapping this value owns; no context runs on a
        // stack being dropped (the scheduler returns a stack only once its
        // task has switched away for the last time). A failure leaks it.
        unsafe { munmap(self.base.as_ptr().cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

/// Save the running context and resume another: push the callee-saved
/// registers and the MXCSR/x87 control words, store the stack pointer in
/// `*save`, load `to`, pop its context and return into it with `arg` in
/// the first argument register (which a fresh stack's entry function reads
/// and a resumed context, returning from its own `switch`, ignores).
///
/// # Safety
///
/// `to` must be a stack pointer that [`Stack::prepare`] returned or that a
/// `switch` stored, for a context that has not been resumed since, on a
/// stack that is still mapped. `save` must be valid for a write.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: *const u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "ret",
    )
}

/// A task's value of a [`TaskLocal`] while it is switched away. It is
/// shared, so a layer keeps its thread-local in this form and a switch
/// moves a pointer: no value is boxed per switch.
pub type TaskValue = Arc<dyn Any + Send + Sync>;

/// A thread-local that belongs to the rank task running on the thread, not
/// to the thread: the DES engine moves it out when the task switches away
/// and back when it resumes, so each task sees only its own value.
pub struct TaskLocal {
    /// Move the thread's value out, leaving the empty value; `None` when
    /// it already is empty.
    pub take: fn() -> Option<TaskValue>,
    /// Put back a value `take` returned.
    pub restore: fn(TaskValue),
}

const MAX_TASK_LOCALS: usize = 4;
static REGISTERED: [OnceLock<&'static TaskLocal>; MAX_TASK_LOCALS] =
    [const { OnceLock::new() }; MAX_TASK_LOCALS];

/// Make `key` task-local from the next switch on. Idempotent and cheap, so
/// a layer calls it where its thread-local is first set. Only values set
/// after the first call are switched: a layer registers before it sets.
pub fn register(key: &'static TaskLocal) {
    for slot in &REGISTERED {
        if slot.get().is_none() {
            // A racing registration of another key may win this slot.
            let _ = slot.set(key);
        }
        if slot.get().is_some_and(|k| ptr::eq(*k, key)) {
            return;
        }
    }
    #[expect(clippy::panic, reason = "a fixed, in-tree set of task-locals")]
    {
        panic!("more than {MAX_TASK_LOCALS} task-locals registered");
    }
}

/// One task's thread-locals while it is switched away.
pub(crate) struct TaskLocals {
    sleeper: Option<cluster::VirtualSleeper>,
    values: [Option<TaskValue>; MAX_TASK_LOCALS],
}

impl TaskLocals {
    /// Move the calling thread's task-locals out, leaving them empty.
    pub(crate) fn take() -> TaskLocals {
        TaskLocals {
            sleeper: cluster::take_virtual_sleeper(),
            values: std::array::from_fn(|i| {
                REGISTERED
                    .get(i)
                    .and_then(OnceLock::get)
                    .and_then(|k| (k.take)())
            }),
        }
    }

    /// Put them back on the calling thread.
    pub(crate) fn restore(self) {
        cluster::put_virtual_sleeper(self.sleeper);
        for (slot, value) in REGISTERED.iter().zip(self.values) {
            if let (Some(key), Some(value)) = (slot.get(), value) {
                (key.restore)(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static TRACE: Cell<u64> = const { Cell::new(0) };
    }

    struct Ctx {
        main: *mut u8,
        task: *mut u8,
    }

    unsafe extern "C" fn ping(arg: *const u8) -> ! {
        // SAFETY: `arg` is the `Ctx` the test passes on the first switch,
        // alive until the test has switched back for the last time.
        let ctx = unsafe { &mut *(arg as *mut Ctx) };
        for i in 1..=3u64 {
            TRACE.with(|t| t.set(t.get() * 10 + i));
            let x = 1.0f64 / 3.0;
            // SAFETY: `ctx.main` was stored by the test's switch to us.
            unsafe { switch(&mut ctx.task, ctx.main, ptr::null()) };
            assert_eq!(x, 1.0f64 / 3.0);
        }
        // SAFETY: as above; this context is never resumed again.
        unsafe { switch(&mut ctx.task, ctx.main, ptr::null()) };
        std::process::abort()
    }

    #[test]
    fn switches_alternate_between_two_stacks_and_recycle() {
        for _ in 0..2 {
            let mut stack = Stack::take().unwrap();
            let mut ctx = Ctx {
                main: ptr::null_mut(),
                task: stack.prepare(ping),
            };
            let c: *mut Ctx = &mut ctx;
            TRACE.with(|t| t.set(0));
            for _ in 0..4 {
                // SAFETY: `ctx.task` is the task's last stored context.
                unsafe { switch(&mut (*c).main, (*c).task, c as *const u8) };
            }
            assert_eq!(TRACE.with(Cell::get), 123);
            stack.give_back();
        }
    }

    #[test]
    fn task_locals_move_out_and_back() {
        thread_local! {
            static V: std::cell::RefCell<Option<Arc<u32>>> = const { std::cell::RefCell::new(None) };
        }
        static KEY: TaskLocal = TaskLocal {
            take: || V.with(|v| v.borrow_mut().take()).map(|v| v as TaskValue),
            restore: |b| V.with(|v| *v.borrow_mut() = b.downcast::<u32>().ok()),
        };
        register(&KEY);
        register(&KEY);
        let seven = Arc::new(7u32);
        V.with(|v| *v.borrow_mut() = Some(Arc::clone(&seven)));
        let saved = TaskLocals::take();
        assert_eq!(V.with(|v| v.borrow().clone()), None);
        saved.restore();
        let back = V.with(|v| v.borrow().clone());
        assert!(
            back.is_some_and(|b| Arc::ptr_eq(&b, &seven)),
            "the same value, not a copy"
        );
    }
}

//! The JIT execution engine: superblocks compiled to native x86-64.
//!
//! [`JitProg`] translates each straight-line superblock of a
//! [`DecodedProg`] (the `run_len` span table), and the jumps and branches
//! between them, into native machine code via a dependency-free template
//! emitter: one fixed code template per
//! micro-op, emitted in program order into an executable buffer obtained
//! with raw `mmap`/`mprotect` syscalls (no libc, no new crates). The
//! decoded interpreter remains the differential oracle — and the fallback
//! engine on every platform the emitter does not cover.
//!
//! # Execution contract
//!
//! Native code is entered only at a straight-line pc and only when the
//! caller's counted-instruction budget covers the whole remaining run
//! (`exec_span` enforces this). The caller charges that entry run up
//! front and passes the rest of the budget in [`JitCtx`]; the prologue
//! loads it into `rbx` (callee-saved, so the entry glue saves it) and the
//! shared epilogue stores it back. `Jump` and `Branch` are compiled
//! natively and *chain* straight to their target's template:
//!
//! * with a budget of 0 the transfer exits *before* the control op;
//! * otherwise it charges 1 for the control op, then enters a
//!   straight-line target only if the budget covers the target's whole
//!   `run_len`, charging it up front — else it exits *at* the target.
//!
//! Every other exit is a stub that returns the absolute pc of the first
//! micro-op it did **not** execute and *refunds* `run_len` at that pc —
//! the uncommitted part of the pre-charged run. Calls, returns, probes
//! and traps are such stubs (their `run_len` is 0), and so are the
//! *side exits*: ops with no inline template and memory accesses off the
//! fast path. The interpreter replays a side-exited op through the same
//! `exec_straight` the decoded engine uses. So the budget in `rbx` is at
//! every instant exactly what the decoded engine's budget would be, native
//! code never runs past it, and every observation point — fault slot,
//! probe, checkpoint boundary, fuel check — lands at the same
//! `(dyn_count, pc)` as the decoded interpreter's. Committed state
//! (register file, memory, dirty-page bitmap) lives in the [`Machine`] —
//! native code writes straight through [`JitCtx`] pointers — so the
//! machine observed at any exit is bit-identical to the decoded engine
//! having executed the same prefix.
//!
//! Ops whose semantics differ between x86 hardware and the interpreter
//! are never inlined; their template is the side-exit stub itself:
//!
//! * `DivU/DivS/RemU/RemS` — `idiv` hardware-traps on `i64::MIN / -1`
//!   where [`crate::alu::alu_eval`] wraps, and both trap on zero divisors
//!   where the interpreter returns a [`crate::RunStatus::Segv`].
//! * `CvtFI` — `cvttsd2si` returns the `0x8000…` indefinite pattern where
//!   Rust's `as i64` saturates.
//! * `CallExt` / `Enter` — push to the output vector / frame machinery.
//!
//! Loads and stores inline the global- and stack-segment fast paths with
//! overflow-safe base-relative range checks baked as immediates (the
//! global segment length is a per-program compile-time constant); any
//! other address — the write-only output page, unmapped gaps, wrap-around
//! — side-exits so the interpreter reproduces the exact outcome (output
//! push or fault). Stores mark the first and last touched page in the
//! dirty bitmap with `bts`, exactly the set [`crate::Memory`] marks, so
//! checkpoint deltas are identical.

use crate::decode::{DecodedProg, Ext, Src, UOp};
use crate::machine::Machine;
use sor_ir::Program;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use sor_ir::{layout, AluOp, CmpOp, FpOp, NUM_FREGS, NUM_IREGS};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a program could not be compiled to native code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitError {
    /// The emitter only targets x86-64 Linux.
    Unsupported,
    /// An executable mapping could not be obtained (W^X-restricted
    /// environments surface here, from `mmap` or `mprotect`).
    Sys {
        /// Which syscall failed.
        call: &'static str,
        /// Its (positive) errno.
        errno: i64,
    },
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Unsupported => write!(f, "unsupported target (needs x86-64 linux)"),
            JitError::Sys { call, errno } => {
                write!(f, "{call} failed with errno {errno} (W^X restriction?)")
            }
        }
    }
}

impl std::error::Error for JitError {}

/// A [`DecodedProg`] with every superblock compiled to native x86-64.
///
/// Construction is infallible per-op — micro-ops without an inline
/// template get a stub that immediately side-exits — so the only failure
/// modes are an unsupported target and an unmappable executable buffer,
/// both reported (not panicked) so callers can fall back to the decoded
/// interpreter ([`JitProg::try_compile`] does exactly that, with a
/// one-time warning).
pub struct JitProg {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: ExecBuf,
    /// Byte offset of each pc's template; one extra terminator entry.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    entry: Box<[u32]>,
    /// Rounded global-segment length the range checks were baked for.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    global_len: usize,
    /// On non-native targets a `JitProg` cannot exist at all.
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    never: std::convert::Infallible,
}

impl fmt::Debug for JitProg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("JitProg");
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        d.field("code_bytes", &self.buf.used)
            .field("ops", &(self.entry.len() - 1));
        d.finish()
    }
}

impl JitProg {
    /// Compiles every superblock of `d` (decoded from `prog`) to native
    /// code.
    ///
    /// # Errors
    ///
    /// [`JitError::Unsupported`] off x86-64 Linux; [`JitError::Sys`] when
    /// an executable mapping cannot be obtained.
    pub fn compile(d: &DecodedProg, prog: &Program) -> Result<JitProg, JitError> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            JitProg::compile_native(d, prog)
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let _ = (d, prog);
            Err(JitError::Unsupported)
        }
    }

    /// [`JitProg::compile`] with the graceful-degradation policy the
    /// engine selection uses: on failure, warn once per process and return
    /// `None` so the machine runs the decoded interpreter instead.
    pub fn try_compile(d: &DecodedProg, prog: &Program) -> Option<Arc<JitProg>> {
        match JitProg::compile(d, prog) {
            Ok(j) => Some(Arc::new(j)),
            Err(e) => {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sor-sim: jit engine unavailable ({e}); \
                         falling back to the decoded interpreter"
                    );
                }
                None
            }
        }
    }

    /// Whether this image was compiled for programs shaped like
    /// (`d`, `prog`) — same op count, same global-segment length.
    pub fn matches(&self, d: &DecodedProg, prog: &Program) -> bool {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.entry.len() == d.uops.len() + 1
                && self.global_len == rounded_global_len(prog.global_extent)
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let _ = (d, prog);
            match self.never {}
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
impl JitProg {
    /// Uninstantiable off-native (the type is uninhabited there), so the
    /// span loop's native dispatch needs no cfg at the call site.
    pub(crate) fn run_from(&self, _m: &mut Machine, _pc: usize, _budget: u64) -> (usize, u64) {
        match self.never {}
    }
}

/// Rounds a global extent to the segment length [`crate::Memory::new`]
/// allocates (whole 4 KiB pages) — the constant the compiled range checks
/// bake in.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn rounded_global_len(global_extent: u64) -> usize {
    ((global_extent + (crate::mem::PAGE_SIZE - 1)) & !(crate::mem::PAGE_SIZE - 1)) as usize
}

// ---------------------------------------------------------------------------
// Everything below is the native x86-64 Linux implementation.
// ---------------------------------------------------------------------------

/// The state block native code reads its pinned pointers from (prologue
/// loads, in field order: `r8`=iregs, `r9`=fregs, `r10`=global, `r11`=
/// stack, `rdi`=dirty bitmap or null), plus the counted-instruction
/// budget, loaded into `rbx` on entry and stored back on exit.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[repr(C)]
struct JitCtx {
    iregs: *mut u64,
    fregs: *mut f64,
    global: *mut u8,
    stack: *mut u8,
    dirty: *mut u64,
    budget: u64,
}

/// Byte offset of [`JitCtx::budget`] (the prologue and epilogue address it).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const CTX_BUDGET: i32 = 40;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl JitProg {
    /// Runs chained native code from `pc` (which must be inside a
    /// straight-line run of the program this image was compiled from),
    /// with the run starting at `pc` already charged and `budget` counted
    /// instructions left after it. Returns the absolute pc of the first
    /// micro-op that was **not** executed and the budget left there (see
    /// the module docs): every op before it has committed exactly its
    /// interpreter effect to `m`, and the counted instructions committed
    /// are the charged run plus `budget` minus the returned budget.
    pub(crate) fn run_from(&self, m: &mut Machine, pc: usize, budget: u64) -> (usize, u64) {
        debug_assert!(pc + 1 < self.entry.len());
        debug_assert_eq!(m.mem.global_len(), self.global_len);
        let (global, stack, dirty) = m.mem.raw_parts();
        let mut ctx = JitCtx {
            iregs: m.iregs.as_mut_ptr(),
            fregs: m.fregs.as_mut_ptr(),
            global,
            stack,
            dirty,
            budget,
        };
        // SAFETY: `buf` holds the entry glue at offset 0 followed by the
        // per-pc templates; `entry[pc]` is a valid template offset, and
        // every chained jump lands on another `entry` offset (patched at
        // compile time). The generated code only dereferences the five
        // `ctx` pointers, all valid for the machine's segment sizes
        // (asserted above), plus `ctx` itself: it reads `budget` on entry
        // and writes it back on exit, while `ctx` is a live exclusive
        // local. It touches the host stack only to push `rbx` (the one
        // callee-saved register it uses, restored before `ret`) and the
        // `ctx` pointer, both popped by the single epilogue every exit
        // jumps to, and it returns with the stop pc in `eax`. Native code
        // terminates: every chained transfer charges at least 1 against
        // the finite budget and exits before it would go negative.
        let stop = unsafe {
            let enter: extern "sysv64" fn(*mut JitCtx, *const u8) -> u64 =
                std::mem::transmute(self.buf.ptr);
            let target = self.buf.ptr.add(self.entry[pc] as usize);
            enter(&mut ctx, target) as usize
        };
        (stop, ctx.budget)
    }

    fn compile_native(d: &DecodedProg, prog: &Program) -> Result<JitProg, JitError> {
        let glen = rounded_global_len(prog.global_extent);
        let lay = Layout {
            glen: glen as u64,
            stack_len: layout::STACK_TOP - layout::STACK_BASE,
            global_pages: (glen as u64 / crate::mem::PAGE_SIZE) as i32,
            run_len: &d.run_len,
        };
        let n = d.uops.len();
        let mut a = Asm::default();
        emit_glue(&mut a);
        let mut entry = vec![0u32; n + 1];
        for (pc, u) in d.uops.iter().enumerate() {
            entry[pc] = a.len() as u32;
            let inline = match *u {
                UOp::Jump(t) => emit_chain(&mut a, pc, None, t as usize, t as usize, &lay),
                UOp::Branch { cond, t, f } => {
                    emit_chain(&mut a, pc, Some(cond), t as usize, f as usize, &lay)
                }
                _ => emit_op(&mut a, pc, u, &lay),
            };
            if !inline {
                emit_stub(&mut a, pc, &lay);
            }
        }
        // Terminator stub: a run ending at the image's last op falls
        // through here and reports pc == uops.len().
        entry[n] = a.len() as u32;
        emit_stub(&mut a, n, &lay);
        a.finish(&entry, &lay);
        let buf = ExecBuf::new(&a.code)?;
        Ok(JitProg {
            buf,
            entry: entry.into_boxed_slice(),
            global_len: glen,
        })
    }
}

/// Per-program constants baked into the emitted code: the range checks'
/// segment bounds and the span table the budget charges and refunds read.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct Layout<'a> {
    glen: u64,
    stack_len: u64,
    global_pages: i32,
    run_len: &'a [u32],
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl Layout<'_> {
    /// Length of the straight-line run from `pc` (`0` at control flow,
    /// probes and the terminator): what entering `pc` charges up front,
    /// and what stopping at `pc` refunds.
    fn run(&self, pc: usize) -> u32 {
        self.run_len.get(pc).copied().unwrap_or(0)
    }
}

// SAFETY: `entry` (a boxed slice) and `global_len` are owned plain data.
// `buf` owns its mapping outright: `ptr`/`len` name memory tied to no
// thread, and `Drop` unmaps it exactly once, on whichever thread drops
// the value; `used` is a plain count.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe impl Send for JitProg {}
// SAFETY: no field is written after construction. `buf`'s mapping is
// read-execute from then on, its `ptr`/`len`/`used` never change, and
// `entry`/`global_len` are immutable plain data. `run_from` takes `&self`
// and mutates only the caller's own `Machine` (through a per-call
// `JitCtx`), so concurrent calls only read the code and the table.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe impl Sync for JitProg {}

#[cfg(any(test, feature = "legacy"))]
thread_local! {
    /// Whether this thread's executable mappings are refused; see
    /// [`with_exec_mappings_refused`].
    static EXEC_REFUSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` as if the kernel refused every executable mapping this thread
/// asks for, the way a W^X policy refuses `mprotect(PROT_EXEC)`: each
/// [`JitProg::compile`] inside fails with [`JitError::Sys`], so the jit
/// engine falls back to the decoded interpreter. A test seam, compiled
/// only into tests and under the `legacy` feature; it changes no kernel
/// setting.
#[cfg(any(test, feature = "legacy"))]
pub fn with_exec_mappings_refused<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            EXEC_REFUSED.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(EXEC_REFUSED.with(|r| r.replace(true)));
    f()
}

/// Whether the test seam refuses this thread's executable mappings.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn exec_refused() -> bool {
    #[cfg(any(test, feature = "legacy"))]
    return EXEC_REFUSED.with(|r| r.get());
    #[cfg(not(any(test, feature = "legacy")))]
    false
}

/// An executable memory mapping obtained with raw syscalls (W^X: mapped
/// read-write, filled, then flipped to read-execute).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct ExecBuf {
    ptr: *mut u8,
    len: usize,
    used: usize,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl ExecBuf {
    const PROT_READ: i64 = 1;
    const PROT_WRITE: i64 = 2;
    const PROT_EXEC: i64 = 4;

    fn new(code: &[u8]) -> Result<ExecBuf, JitError> {
        let len = code
            .len()
            .max(1)
            .next_multiple_of(crate::mem::PAGE_SIZE as usize);
        // mmap(NULL, len, RW, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0)
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // (addr 0, fd -1) cannot alias or replace any existing memory; the
        // arguments are plain integers and failure is reported as a
        // negative errno, checked below.
        let ret = unsafe {
            syscall(
                9,
                0,
                len as i64,
                Self::PROT_READ | Self::PROT_WRITE,
                0x22,
                -1,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            return Err(JitError::Sys {
                call: "mmap",
                errno: -ret,
            });
        }
        let ptr = ret as *mut u8;
        // SAFETY: the fresh RW mapping is at least `code.len()` bytes.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len()) };
        // mprotect(ptr, len, RX)
        let ret = if exec_refused() {
            -13 // EACCES, as a W^X policy answers
        } else {
            // SAFETY: `ptr..ptr + len` is exactly the mapping created
            // above, which nothing else references; dropping write access
            // cannot invalidate any live Rust reference.
            unsafe {
                syscall(
                    10,
                    ptr as i64,
                    len as i64,
                    Self::PROT_READ | Self::PROT_EXEC,
                    0,
                    0,
                    0,
                )
            }
        };
        if ret != 0 {
            // munmap(ptr, len)
            // SAFETY: `ptr..ptr + len` is the mapping created above; no
            // `ExecBuf` owns it yet, so this is its only release.
            unsafe { syscall(11, ptr as i64, len as i64, 0, 0, 0, 0) };
            return Err(JitError::Sys {
                call: "mprotect",
                errno: -ret,
            });
        }
        Ok(ExecBuf {
            ptr,
            len,
            used: code.len(),
        })
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl Drop for ExecBuf {
    fn drop(&mut self) {
        // SAFETY: munmap of the private mapping this `ExecBuf` owns
        // exclusively; `Drop` runs once, and no code pointer into the
        // buffer outlives the owning `JitProg`.
        unsafe { syscall(11, self.ptr as i64, self.len as i64, 0, 0, 0, 0) };
    }
}

/// Raw Linux syscall (x86-64 ABI: rax=nr, args in rdi/rsi/rdx/r10/r8/r9).
///
/// # Safety
///
/// The caller must pass a syscall number and arguments whose effect the
/// kernel applies without breaking Rust's memory model: this crate only
/// issues `mmap` of fresh anonymous memory, and `mprotect` / `munmap` of
/// a mapping it created and that no live reference points into. The
/// instruction itself clobbers only `rax`, `rcx` and `r11`, which the
/// `asm!` block declares.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe fn syscall(nr: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
    let ret;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret
}

// ---------------------------------------------------------------------------
// The template emitter.
//
// Register convention inside generated code (established by the prologue,
// never spilled — templates are leaf code that only jumps between
// templates):
//   r8  = &iregs[0]        r9  = &fregs[0]
//   r10 = global base      r11 = stack base
//   rdi = dirty bitmap (null when page tracking is off)
//   rbx = counted-instruction budget left (saved by the prologue)
//   rax, rcx, rdx, rsi, xmm0, xmm1 = scratch
// Exit protocol: `eax` = absolute pc of the first unexecuted op, `rbx`
// refunded to the budget at that pc; jump to the shared epilogue.
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod regs {
    pub const RAX: u8 = 0;
    pub const RCX: u8 = 1;
    pub const RDX: u8 = 2;
    pub const RBX: u8 = 3;
    pub const RSI: u8 = 6;
    pub const RDI: u8 = 7;
    pub const R8: u8 = 8;
    pub const R9: u8 = 9;
    pub const R10: u8 = 10;
    pub const R11: u8 = 11;
    pub const XMM0: u8 = 0;
    pub const XMM1: u8 = 1;
    // Condition codes (the low nibble of 0F 8x / 0F 9x).
    pub const CC_B: u8 = 0x2;
    pub const CC_AE: u8 = 0x3;
    pub const CC_E: u8 = 0x4;
    pub const CC_NE: u8 = 0x5;
    pub const CC_BE: u8 = 0x6;
    pub const CC_A: u8 = 0x7;
    pub const CC_P: u8 = 0xA;
    pub const CC_NP: u8 = 0xB;
    pub const CC_L: u8 = 0xC;
    pub const CC_LE: u8 = 0xE;
}
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use regs::*;

/// A forward-branch fixup: byte position of an unresolved rel32.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct Label(usize);

/// Minimal x86-64 instruction emitter — exactly the encodings the
/// templates need, nothing more — plus the two kinds of jump it resolves
/// once every template is placed (see [`Asm::finish`]).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Default)]
struct Asm {
    code: Vec<u8>,
    /// Offset of the shared epilogue every exit jumps to.
    epilogue: usize,
    /// Chained jumps to the template of a pc.
    chains: Vec<(Label, usize)>,
    /// Rarely taken exits to a pc, whose stubs go out of line.
    cold: Vec<(Label, usize)>,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl Asm {
    fn len(&self) -> usize {
        self.code.len()
    }

    fn b(&mut self, v: u8) {
        self.code.push(v);
    }

    fn d32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn d64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix; omitted when no bit is needed.
    fn rex(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let v = 0x40 | ((w as u8) << 3) | ((reg >> 3) << 2) | ((index >> 3) << 1) | (base >> 3);
        if v != 0x40 {
            self.b(v);
        }
    }

    fn modrm_rr(&mut self, reg: u8, rm: u8) {
        self.b(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    /// ModRM for `[base + disp]` (base is never rsp/r12 here).
    fn modrm_disp(&mut self, reg: u8, base: u8, disp: i32) {
        debug_assert_ne!(base & 7, 4, "rsp-class base needs a SIB byte");
        if (-128..=127).contains(&disp) {
            self.b(0x40 | ((reg & 7) << 3) | (base & 7));
            self.b(disp as u8);
        } else {
            self.b(0x80 | ((reg & 7) << 3) | (base & 7));
            self.d32(disp as u32);
        }
    }

    /// ModRM+SIB for `[base + index]` (disp8 = 0 keeps rbp-class bases legal).
    fn modrm_sib(&mut self, reg: u8, base: u8, index: u8) {
        self.b(0x44 | ((reg & 7) << 3));
        self.b(((index & 7) << 3) | (base & 7));
        self.b(0);
    }

    /// `mov reg, [base + disp]` (64- or 32-bit).
    fn load(&mut self, w: bool, reg: u8, base: u8, disp: i32) {
        self.rex(w, reg, 0, base);
        self.b(0x8B);
        self.modrm_disp(reg, base, disp);
    }

    /// `mov [base + disp], reg`.
    fn store(&mut self, w: bool, base: u8, disp: i32, reg: u8) {
        self.rex(w, reg, 0, base);
        self.b(0x89);
        self.modrm_disp(reg, base, disp);
    }

    /// `mov reg, [base + index]`.
    fn load_sib(&mut self, w: bool, reg: u8, base: u8, index: u8) {
        self.rex(w, reg, index, base);
        self.b(0x8B);
        self.modrm_sib(reg, base, index);
    }

    /// `movzx reg32, byte/word [base + index]` (opc2: 0xB6 / 0xB7).
    fn movzx_sib(&mut self, opc2: u8, reg: u8, base: u8, index: u8) {
        self.rex(false, reg, index, base);
        self.b(0x0F);
        self.b(opc2);
        self.modrm_sib(reg, base, index);
    }

    /// `mov [base + index], reg` at 1/2/4/8 bytes.
    fn store_sib_sized(&mut self, bytes: u64, base: u8, index: u8, reg: u8) {
        match bytes {
            1 => {
                self.rex(false, reg, index, base);
                self.b(0x88);
                self.modrm_sib(reg, base, index);
            }
            2 => {
                self.b(0x66);
                self.rex(false, reg, index, base);
                self.b(0x89);
                self.modrm_sib(reg, base, index);
            }
            4 => {
                self.rex(false, reg, index, base);
                self.b(0x89);
                self.modrm_sib(reg, base, index);
            }
            _ => {
                self.rex(true, reg, index, base);
                self.b(0x89);
                self.modrm_sib(reg, base, index);
            }
        }
    }

    /// `mov reg, imm` with the shortest exact encoding.
    fn mov_imm(&mut self, reg: u8, v: u64) {
        if u32::try_from(v).is_ok() {
            // 32-bit mov zero-extends.
            self.rex(false, 0, 0, reg);
            self.b(0xB8 + (reg & 7));
            self.d32(v as u32);
        } else if let Ok(x) = i32::try_from(v as i64) {
            // Sign-extending C7 form.
            self.rex(true, 0, 0, reg);
            self.b(0xC7);
            self.modrm_rr(0, reg);
            self.d32(x as u32);
        } else {
            self.rex(true, 0, 0, reg);
            self.b(0xB8 + (reg & 7));
            self.d64(v);
        }
    }

    /// Load-direction group-1 ALU op: `<op> reg, [base + disp]`
    /// (0x03 add, 0x2B sub, 0x23 and, 0x0B or, 0x33 xor, 0x3B cmp, 0x8B mov).
    fn op_mem(&mut self, w: bool, opc: u8, reg: u8, base: u8, disp: i32) {
        self.rex(w, reg, 0, base);
        self.b(opc);
        self.modrm_disp(reg, base, disp);
    }

    /// Register-register form of the same ops.
    fn op_rr(&mut self, w: bool, opc: u8, reg: u8, rm: u8) {
        self.rex(w, reg, 0, rm);
        self.b(opc);
        self.modrm_rr(reg, rm);
    }

    /// `<op> rm, imm` (group-1 immediate; sub selects the operation:
    /// 0 add, 4 and, 5 sub, 7 cmp), as a sign-extended imm8 when it fits.
    fn grp1_imm(&mut self, w: bool, sub: u8, rm: u8, imm: i32) {
        self.rex(w, 0, 0, rm);
        if let Ok(x) = i8::try_from(imm) {
            self.b(0x83);
            self.modrm_rr(sub, rm);
            self.b(x as u8);
        } else {
            self.b(0x81);
            self.modrm_rr(sub, rm);
            self.d32(imm as u32);
        }
    }

    /// `imul reg, [base + disp]`.
    fn imul_mem(&mut self, w: bool, reg: u8, base: u8, disp: i32) {
        self.rex(w, reg, 0, base);
        self.b(0x0F);
        self.b(0xAF);
        self.modrm_disp(reg, base, disp);
    }

    /// `imul reg, rm`.
    fn imul_rr(&mut self, w: bool, reg: u8, rm: u8) {
        self.rex(w, reg, 0, rm);
        self.b(0x0F);
        self.b(0xAF);
        self.modrm_rr(reg, rm);
    }

    /// `shl/shr/sar rm, cl` (sub: 4 shl, 5 shr, 7 sar).
    fn shift_cl(&mut self, w: bool, sub: u8, rm: u8) {
        self.rex(w, 0, 0, rm);
        self.b(0xD3);
        self.modrm_rr(sub, rm);
    }

    /// `shl/shr/sar rm, imm8`.
    fn shift_imm(&mut self, w: bool, sub: u8, rm: u8, n: u8) {
        self.rex(w, 0, 0, rm);
        self.b(0xC1);
        self.modrm_rr(sub, rm);
        self.b(n);
    }

    /// `lea dst, [base + disp]` (64-bit).
    fn lea(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(true, dst, 0, base);
        self.b(0x8D);
        self.modrm_disp(dst, base, disp);
    }

    /// `set<cc> rm8` (rm must be al/cl — no REX handling for sil/dil).
    fn setcc(&mut self, cc: u8, rm8: u8) {
        debug_assert!(rm8 < 4);
        self.b(0x0F);
        self.b(0x90 | cc);
        self.modrm_rr(0, rm8);
    }

    /// `movzx reg32, rm8` (low registers only).
    fn movzx8(&mut self, reg: u8, rm8: u8) {
        debug_assert!(reg < 8 && rm8 < 4);
        self.b(0x0F);
        self.b(0xB6);
        self.modrm_rr(reg, rm8);
    }

    /// 8-bit `and/or rm8, reg8` (0x20 and, 0x08 or; low registers only).
    fn op8_rr(&mut self, opc: u8, rm8: u8, reg8: u8) {
        debug_assert!(rm8 < 4 && reg8 < 4);
        self.b(opc);
        self.modrm_rr(reg8, rm8);
    }

    /// `movsx reg64, rm8/rm16` (opc2: 0xBE / 0xBF).
    fn movsx(&mut self, opc2: u8, reg: u8, rm: u8) {
        self.rex(true, reg, 0, rm);
        self.b(0x0F);
        self.b(opc2);
        self.modrm_rr(reg, rm);
    }

    /// `movsxd reg64, rm32`.
    fn movsxd(&mut self, reg: u8, rm: u8) {
        self.rex(true, reg, 0, rm);
        self.b(0x63);
        self.modrm_rr(reg, rm);
    }

    /// `test a, b` (sets flags from a & b).
    fn test_rr(&mut self, w: bool, a: u8, b: u8) {
        self.rex(w, b, 0, a);
        self.b(0x85);
        self.modrm_rr(b, a);
    }

    /// `cmov<cc> reg, rm` (64-bit).
    fn cmov(&mut self, cc: u8, reg: u8, rm: u8) {
        self.rex(true, reg, 0, rm);
        self.b(0x0F);
        self.b(0x40 | cc);
        self.modrm_rr(reg, rm);
    }

    /// `bts [base], bitreg` — sets bit `bitreg` of the bit string at
    /// `base`, i.e. `base[bit/64] |= 1 << (bit%64)`.
    fn bts_mem(&mut self, base: u8, bitreg: u8) {
        debug_assert_ne!(base & 7, 4);
        debug_assert_ne!(base & 7, 5);
        self.rex(true, bitreg, 0, base);
        self.b(0x0F);
        self.b(0xAB);
        self.b(((bitreg & 7) << 3) | (base & 7));
    }

    /// Scalar-double SSE op on `[base + disp]` (0x10 movsd-load,
    /// 0x11 movsd-store, 0x58 addsd, 0x5C subsd, 0x59 mulsd, 0x5E divsd).
    fn sse_mem(&mut self, pfx: u8, opc: u8, xreg: u8, base: u8, disp: i32) {
        self.b(pfx);
        self.rex(false, xreg, 0, base);
        self.b(0x0F);
        self.b(opc);
        self.modrm_disp(xreg, base, disp);
    }

    /// Register-register SSE op (0x2E ucomisd with 0x66 prefix).
    fn sse_rr(&mut self, pfx: u8, opc: u8, xreg: u8, xrm: u8) {
        self.b(pfx);
        self.rex(false, xreg, 0, xrm);
        self.b(0x0F);
        self.b(opc);
        self.modrm_rr(xreg, xrm);
    }

    /// `cvtsi2sd xdst, reg64`.
    fn cvtsi2sd(&mut self, xdst: u8, reg: u8) {
        self.b(0xF2);
        self.rex(true, xdst, 0, reg);
        self.b(0x0F);
        self.b(0x2A);
        self.modrm_rr(xdst, reg);
    }

    /// `jmp reg`.
    fn jmp_reg(&mut self, reg: u8) {
        self.rex(false, 0, 0, reg);
        self.b(0xFF);
        self.modrm_rr(4, reg);
    }

    /// `j<cc> rel32` with the target patched later via [`Asm::bind`].
    fn jcc(&mut self, cc: u8) -> Label {
        self.b(0x0F);
        self.b(0x80 | cc);
        let at = self.code.len();
        self.d32(0);
        Label(at)
    }

    /// `jmp rel32` with the target patched later.
    fn jmp(&mut self) -> Label {
        self.b(0xE9);
        let at = self.code.len();
        self.d32(0);
        Label(at)
    }

    /// Resolves a forward branch to the current position.
    fn bind(&mut self, l: Label) {
        self.patch(l, self.code.len());
    }

    /// Resolves a branch to code offset `to`.
    fn patch(&mut self, l: Label, to: usize) {
        let rel = (to as i64 - (l.0 + 4) as i64) as i32;
        self.code[l.0..l.0 + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// `jmp` to the template of `pc`, resolved by [`Asm::finish`].
    fn jmp_pc(&mut self, pc: usize) {
        let l = self.jmp();
        self.chains.push((l, pc));
    }

    /// `j<cc>` to an out-of-line exit at `pc`, emitted by [`Asm::finish`].
    fn jcc_exit(&mut self, cc: u8, pc: usize) {
        let l = self.jcc(cc);
        self.cold.push((l, pc));
    }

    /// Resolves the chained jumps against the finished `entry` table and
    /// appends one cold exit stub per pc. A cold exit at `pc` always
    /// refunds what reaching `pc` charged: the run from `pc`, or 1 for
    /// a control op (a side exit, a target the budget cannot cover, and a
    /// control op met with an empty budget, respectively).
    fn finish(&mut self, entry: &[u32], lay: &Layout) {
        for (l, pc) in std::mem::take(&mut self.chains) {
            self.patch(l, entry[pc] as usize);
        }
        let mut stubs = vec![None; entry.len()];
        for (l, pc) in std::mem::take(&mut self.cold) {
            let at = *stubs[pc].get_or_insert_with(|| {
                let at = self.code.len();
                emit_exit(self, pc, lay.run(pc).max(1));
                at
            });
            self.patch(l, at);
        }
    }

    fn ret(&mut self) {
        self.b(0xC3);
    }
}

/// Byte offset of integer register `r` in the register file.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn ireg_off(r: u8) -> i32 {
    ((r as usize & (NUM_IREGS - 1)) * 8) as i32
}

/// Byte offset of float register `r`.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn freg_off(r: u8) -> i32 {
    ((r as usize & (NUM_FREGS - 1)) * 8) as i32
}

/// Entry glue `fn(rdi = &JitCtx, rsi = template address) -> stop pc` at
/// offset 0, followed by the shared epilogue every exit jumps to.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_glue(a: &mut Asm) {
    a.b(0x53); // push rbx (callee-saved)
    a.b(0x57); // push rdi (ctx, for the epilogue)
    a.load(true, RBX, RDI, CTX_BUDGET);
    a.load(true, R8, RDI, 0); // iregs
    a.load(true, R9, RDI, 8); // fregs
    a.load(true, R10, RDI, 16); // global base
    a.load(true, R11, RDI, 24); // stack base
    a.load(true, RDI, RDI, 32); // dirty bitmap (or null) — clobbers ctx last
    a.jmp_reg(RSI);
    a.epilogue = a.len();
    a.b(0x59); // pop rcx (ctx)
    a.store(true, RCX, CTX_BUDGET, RBX);
    a.b(0x5B); // pop rbx
    a.ret();
}

/// `mov eax, pc; add rbx, refund; jmp epilogue` — stop at `pc`, giving
/// back the `refund` counted instructions charged but not executed.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_exit(a: &mut Asm, pc: usize, refund: u32) {
    a.b(0xB8);
    a.d32(pc as u32);
    if refund > 0 {
        a.grp1_imm(true, 0, RBX, refund as i32);
    }
    let l = a.jmp();
    a.patch(l, a.epilogue);
}

/// The side-exit / run-edge stub: stop at `pc`, refunding the rest of its
/// pre-charged run.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_stub(a: &mut Asm, pc: usize, lay: &Layout) {
    emit_exit(a, pc, lay.run(pc));
}

/// The chained template of `Jump` (`cond` is `None`, `t == f`) and
/// `Branch` (to `t` when `iregs[cond] != 0`, else `f`). Returns `false`,
/// leaving the op to the interpreter, when a target is outside the image.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_chain(a: &mut Asm, pc: usize, cond: Option<u8>, t: usize, f: usize, lay: &Layout) -> bool {
    if t >= lay.run_len.len() || f >= lay.run_len.len() {
        return false;
    }
    // Charge the control op, or stop before it on an empty budget.
    a.grp1_imm(true, 5, RBX, 1);
    a.jcc_exit(CC_B, pc);
    if let Some(c) = cond {
        a.load(true, RAX, R8, ireg_off(c));
        a.test_rr(true, RAX, RAX);
        let not_taken = a.jcc(CC_E);
        emit_enter(a, t, false, lay);
        a.bind(not_taken);
    }
    emit_enter(a, f, f == pc + 1, lay);
    true
}

/// Transfers to the template of `x`: a straight-line target's whole run is
/// charged up front, or the code stops at `x` when the budget cannot cover
/// it. With `fall`, the template of `x` is the next code emitted.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_enter(a: &mut Asm, x: usize, fall: bool, lay: &Layout) {
    let run = lay.run(x);
    if run > 0 {
        a.grp1_imm(true, 5, RBX, run as i32);
        a.jcc_exit(CC_B, x);
    }
    if !fall {
        a.jmp_pc(x);
    }
}

/// Loads a [`Src`] into `reg` (32-bit form zero-extends, which every
/// consumer below relies on).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn ld_src(a: &mut Asm, w: bool, reg: u8, s: &Src) {
    match s {
        Src::Reg(r) => a.load(w, reg, R8, ireg_off(*r)),
        Src::Imm(v) => a.mov_imm(reg, if w { *v } else { *v as u32 as u64 }),
    }
}

/// Emits `rax = iregs[base] + offset` (wrapping, like the interpreter's
/// address computation). Clobbers rcx on huge offsets.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_addr(a: &mut Asm, base: u8, offset: u64) {
    a.load(true, RAX, R8, ireg_off(base));
    if offset != 0 {
        if let Ok(x) = i32::try_from(offset as i64) {
            a.grp1_imm(true, 0, RAX, x);
        } else {
            a.mov_imm(RCX, offset);
            a.op_rr(true, 0x03, RAX, RCX);
        }
    }
}

/// Emits the two-segment range check around a memory access: `rax` holds
/// the address; each in-bounds arm gets `rcx` = segment offset and calls
/// `body(asm, segment base reg, is_global)`; every other address
/// side-exits with `pc`. The checks are overflow-safe (`addr - BASE <=
/// len - bytes` unsigned) and mirror [`crate::Memory`]'s `slot` exactly.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_mem_access(
    a: &mut Asm,
    lay: &Layout,
    bytes: u64,
    pc: usize,
    mut body: impl FnMut(&mut Asm, u8, bool),
) {
    let neg_global = i32::try_from(-(layout::GLOBAL_BASE as i64)).expect("base fits disp32");
    let neg_stack = i32::try_from(-(layout::STACK_BASE as i64)).expect("base fits disp32");
    let mut done = None;
    if lay.glen >= bytes {
        a.lea(RCX, RAX, neg_global);
        a.grp1_imm(true, 7, RCX, (lay.glen - bytes) as i32);
        let miss = a.jcc(CC_A);
        body(a, R10, true);
        done = Some(a.jmp());
        a.bind(miss);
    }
    a.lea(RCX, RAX, neg_stack);
    a.grp1_imm(true, 7, RCX, (lay.stack_len - bytes) as i32);
    a.jcc_exit(CC_A, pc);
    body(a, R11, false);
    if let Some(l) = done {
        a.bind(l);
    }
}

/// Dirty-bitmap marking for a store of `bytes` at segment offset `rcx`:
/// sets the first and last touched page bits with `bts`, skipped entirely
/// when tracking is off (null bitmap pointer). Matches
/// [`crate::Memory`]'s `mark_dirty` page set exactly (stores span at most
/// two pages).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_dirty_mark(a: &mut Asm, bytes: u64, page_base: i32) {
    a.test_rr(true, RDI, RDI);
    let skip = a.jcc(CC_E);
    a.op_rr(true, 0x8B, RSI, RCX); // mov rsi, rcx
    a.shift_imm(true, 5, RSI, 12);
    if page_base != 0 {
        a.grp1_imm(true, 0, RSI, page_base);
    }
    a.bts_mem(RDI, RSI);
    if bytes > 1 {
        a.lea(RSI, RCX, (bytes - 1) as i32);
        a.shift_imm(true, 5, RSI, 12);
        if page_base != 0 {
            a.grp1_imm(true, 0, RSI, page_base);
        }
        a.bts_mem(RDI, RSI);
    }
    a.bind(skip);
}

/// Emits the inline template for one straight-line micro-op, or returns
/// `false` when the op has none (division, conversions-to-int, externals,
/// frame ops, calls, returns, traps, probes) and must take the stub.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_op(a: &mut Asm, pc: usize, u: &UOp, lay: &Layout) -> bool {
    match u {
        UOp::Alu64 {
            op,
            dst,
            a: x,
            b: y,
        } => emit_alu(a, true, *op, *dst, x, y),
        UOp::Alu32 {
            op,
            dst,
            a: x,
            b: y,
        } => emit_alu(a, false, *op, *dst, x, y),
        UOp::Cmp64 {
            op,
            dst,
            a: x,
            b: y,
        } => {
            emit_cmp(a, true, *op, *dst, x, y);
            true
        }
        UOp::Cmp32 {
            op,
            dst,
            a: x,
            b: y,
        } => {
            emit_cmp(a, false, *op, *dst, x, y);
            true
        }
        UOp::Mov { dst, src } => {
            match src {
                // Immediate straight to memory when it sign-extends.
                Src::Imm(v) if i32::try_from(*v as i64).is_ok() => {
                    a.rex(true, 0, 0, R8);
                    a.b(0xC7);
                    a.modrm_disp(0, R8, ireg_off(*dst));
                    a.d32(*v as u32);
                }
                _ => {
                    ld_src(a, true, RAX, src);
                    a.store(true, R8, ireg_off(*dst), RAX);
                }
            }
            true
        }
        UOp::Select { dst, cond, t, f } => {
            a.load(true, RCX, R8, ireg_off(*cond));
            ld_src(a, true, RAX, f);
            ld_src(a, true, RDX, t);
            a.test_rr(true, RCX, RCX);
            a.cmov(CC_NE, RAX, RDX);
            a.store(true, R8, ireg_off(*dst), RAX);
            true
        }
        UOp::Load {
            dst,
            base,
            offset,
            bytes,
            ext,
        } => {
            emit_addr(a, *base, *offset);
            emit_mem_access(a, lay, *bytes, pc, |a, seg, _| match *bytes {
                1 => a.movzx_sib(0xB6, RDX, seg, RCX),
                2 => a.movzx_sib(0xB7, RDX, seg, RCX),
                4 => a.load_sib(false, RDX, seg, RCX),
                _ => a.load_sib(true, RDX, seg, RCX),
            });
            match ext {
                Ext::Zero => {}
                Ext::S1 => a.movsx(0xBE, RDX, RDX),
                Ext::S2 => a.movsx(0xBF, RDX, RDX),
                Ext::S4 => a.movsxd(RDX, RDX),
            }
            a.store(true, R8, ireg_off(*dst), RDX);
            true
        }
        UOp::Store {
            base,
            offset,
            src,
            bytes,
            mask: _,
        } => {
            // The mask only shapes output-page pushes, which side-exit.
            ld_src(a, true, RDX, src);
            emit_addr(a, *base, *offset);
            emit_mem_access(a, lay, *bytes, pc, |a, seg, is_global| {
                a.store_sib_sized(*bytes, seg, RCX, RDX);
                emit_dirty_mark(a, *bytes, if is_global { 0 } else { lay.global_pages });
            });
            true
        }
        UOp::Fpu {
            op,
            dst,
            a: x,
            b: y,
        } => {
            a.sse_mem(0xF2, 0x10, XMM0, R9, freg_off(*x));
            let opc = match op {
                FpOp::Add => 0x58,
                FpOp::Sub => 0x5C,
                FpOp::Mul => 0x59,
                FpOp::Div => 0x5E,
            };
            a.sse_mem(0xF2, opc, XMM0, R9, freg_off(*y));
            a.sse_mem(0xF2, 0x11, XMM0, R9, freg_off(*dst));
            true
        }
        UOp::FMovImm { dst, bits } => {
            a.mov_imm(RAX, *bits);
            a.store(true, R9, freg_off(*dst), RAX);
            true
        }
        UOp::FMov { dst, src } => {
            a.load(true, RAX, R9, freg_off(*src));
            a.store(true, R9, freg_off(*dst), RAX);
            true
        }
        UOp::FCmp {
            op,
            dst,
            a: x,
            b: y,
        } => {
            a.sse_mem(0xF2, 0x10, XMM0, R9, freg_off(*x));
            a.sse_mem(0xF2, 0x10, XMM1, R9, freg_off(*y));
            match op {
                // ucomisd raises ZF=PF=CF on unordered; the parity fixups
                // and operand swaps below reproduce Rust's NaN-aware
                // comparisons exactly.
                CmpOp::Eq => {
                    a.sse_rr(0x66, 0x2E, XMM0, XMM1);
                    a.setcc(CC_E, RAX);
                    a.setcc(CC_NP, RCX);
                    a.op8_rr(0x20, RAX, RCX); // and al, cl
                }
                CmpOp::Ne => {
                    a.sse_rr(0x66, 0x2E, XMM0, XMM1);
                    a.setcc(CC_NE, RAX);
                    a.setcc(CC_P, RCX);
                    a.op8_rr(0x08, RAX, RCX); // or al, cl
                }
                CmpOp::LtS | CmpOp::LtU => {
                    a.sse_rr(0x66, 0x2E, XMM1, XMM0); // y ? x
                    a.setcc(CC_A, RAX); // y > x, false on NaN
                }
                CmpOp::LeS | CmpOp::LeU => {
                    a.sse_rr(0x66, 0x2E, XMM1, XMM0);
                    a.setcc(CC_AE, RAX); // y >= x, false on NaN
                }
            }
            a.movzx8(RAX, RAX);
            a.store(true, R8, ireg_off(*dst), RAX);
            true
        }
        UOp::CvtIF { dst, src } => {
            a.load(true, RAX, R8, ireg_off(*src));
            a.cvtsi2sd(XMM0, RAX);
            a.sse_mem(0xF2, 0x11, XMM0, R9, freg_off(*dst));
            true
        }
        UOp::FLoad { dst, base, offset } => {
            emit_addr(a, *base, *offset);
            emit_mem_access(a, lay, 8, pc, |a, seg, _| a.load_sib(true, RDX, seg, RCX));
            a.store(true, R9, freg_off(*dst), RDX);
            true
        }
        UOp::FStore { base, offset, src } => {
            a.load(true, RDX, R9, freg_off(*src));
            emit_addr(a, *base, *offset);
            emit_mem_access(a, lay, 8, pc, |a, seg, is_global| {
                a.store_sib_sized(8, seg, RCX, RDX);
                emit_dirty_mark(a, 8, if is_global { 0 } else { lay.global_pages });
            });
            true
        }
        // No inline template: hardware semantics diverge (div/rem traps,
        // cvttsd2si's indefinite pattern) or the op touches machine state
        // native code cannot reach (output vector, frames, probes, calls
        // and returns). The stub side-exits to the interpreter. `Jump`
        // and `Branch` are chained by `emit_chain` before this is asked.
        UOp::CvtFI { .. }
        | UOp::CallExt { .. }
        | UOp::Enter { .. }
        | UOp::Jump(_)
        | UOp::Branch { .. }
        | UOp::CallInt { .. }
        | UOp::Ret { .. }
        | UOp::Trap(_)
        | UOp::Probe(_) => false,
    }
}

/// ALU template (both widths). Division and remainder have no inline
/// form — x86 `idiv` hardware-traps where the interpreter wraps or
/// faults — so they report `false` and side-exit.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_alu(a: &mut Asm, w: bool, op: AluOp, dst: u8, x: &Src, y: &Src) -> bool {
    let grp = match op {
        AluOp::Add => Some((0x03u8, 0u8)),
        AluOp::Sub => Some((0x2B, 5)),
        AluOp::And => Some((0x23, 4)),
        AluOp::Or => Some((0x0B, 1)),
        AluOp::Xor => Some((0x33, 6)),
        _ => None,
    };
    if let Some((opc, sub)) = grp {
        ld_src(a, w, RAX, x);
        emit_alu_operand(a, w, opc, sub, y);
        a.store(true, R8, ireg_off(dst), RAX);
        return true;
    }
    match op {
        AluOp::Mul => {
            ld_src(a, w, RAX, x);
            match y {
                Src::Reg(r) => a.imul_mem(w, RAX, R8, ireg_off(*r)),
                Src::Imm(v) => {
                    a.mov_imm(RCX, if w { *v } else { *v as u32 as u64 });
                    a.imul_rr(w, RAX, RCX);
                }
            }
            a.store(true, R8, ireg_off(dst), RAX);
            true
        }
        AluOp::Shl | AluOp::ShrL | AluOp::ShrA => {
            let sub = match op {
                AluOp::Shl => 4,
                AluOp::ShrL => 5,
                _ => 7,
            };
            ld_src(a, w, RAX, x);
            match y {
                // Interpreter semantics: truncate the count to the
                // operand width, then mod the bit width — exactly the
                // masking x86 applies to cl, so reg counts need no fixup.
                Src::Imm(v) => {
                    let n = if w {
                        (*v % 64) as u8
                    } else {
                        ((*v as u32) % 32) as u8
                    };
                    a.shift_imm(w, sub, RAX, n);
                }
                Src::Reg(r) => {
                    a.load(w, RCX, R8, ireg_off(*r));
                    a.shift_cl(w, sub, RAX);
                }
            }
            a.store(true, R8, ireg_off(dst), RAX);
            true
        }
        _ => false,
    }
}

/// Applies a group-1 ALU operand to `rax`: directly from the register
/// file, as a sign-extending imm32, or through `rcx` for wide immediates.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_alu_operand(a: &mut Asm, w: bool, opc: u8, sub: u8, y: &Src) {
    match y {
        Src::Reg(r) => a.op_mem(w, opc, RAX, R8, ireg_off(*r)),
        Src::Imm(v) => {
            if w {
                if let Ok(x) = i32::try_from(*v as i64) {
                    a.grp1_imm(true, sub, RAX, x);
                } else {
                    a.mov_imm(RCX, *v);
                    a.op_rr(true, opc, RAX, RCX);
                }
            } else {
                a.grp1_imm(false, sub, RAX, *v as u32 as i32);
            }
        }
    }
}

/// Compare template: flags from a width-exact `cmp`, materialized with
/// `set<cc>` (signed/unsigned condition codes match `cmp_eval`'s
/// truncate-then-compare semantics at both widths).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_cmp(a: &mut Asm, w: bool, op: CmpOp, dst: u8, x: &Src, y: &Src) {
    ld_src(a, w, RAX, x);
    emit_alu_operand(a, w, 0x3B, 7, y);
    let cc = match op {
        CmpOp::Eq => CC_E,
        CmpOp::Ne => CC_NE,
        CmpOp::LtS => CC_L,
        CmpOp::LtU => CC_B,
        CmpOp::LeS => CC_LE,
        CmpOp::LeU => CC_BE,
    };
    a.setcc(cc, RAX);
    a.movzx8(RAX, RAX);
    a.store(true, R8, ireg_off(dst), RAX);
}

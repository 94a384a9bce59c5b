//! The machine: architectural state for one run over one program image,
//! optionally injecting one transient fault and/or driving the timing
//! model. Execution lives in `crate::exec` (the span loop); the legacy
//! interpreter, a test oracle, in `crate::legacy`.

use crate::checkpoint::Checkpoint;
use crate::decode::DecodedProg;
use crate::exec::{Timed, Untimed};
use crate::fault::GenFault;
use crate::mem::Memory;
use crate::timing::TimingConfig;
use crate::trace::TraceSink;
use sor_ir::{layout, PArg, PInst, PLoc, POperand, Preg, Program, RegClass, NUM_FREGS, NUM_IREGS};
use std::sync::Arc;

/// Which interpreter core executes the program's functional runs.
///
/// All engines are pinned bit-for-bit equivalent on every observable
/// (results, fault outcomes, trace events, checkpoint snapshots). The
/// default, [`ExecEngine::Jit`], is the production engine; the decoded
/// and legacy cores are the differential-testing oracles, chosen only
/// from Rust. Timed runs (see [`MachineConfig::timing`]) run on the
/// decoded span loop whatever the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Predecoded micro-op engine with superblock dispatch (see
    /// [`crate::DecodedProg`]).
    Decoded,
    /// The original tree-matching interpreter over [`sor_ir::PInst`]: the
    /// reference oracle, compiled only into tests and under the `legacy`
    /// cargo feature.
    #[cfg(any(test, feature = "legacy"))]
    Legacy,
    /// Superblocks compiled to native x86-64 (see [`crate::JitProg`]),
    /// driven through the decoded engine's span loop so every observation
    /// stays at a span edge. Falls back to [`ExecEngine::Decoded`] (with a
    /// one-time warning) on targets the emitter does not cover or where
    /// the kernel refuses an executable mapping.
    #[default]
    Jit,
}

impl ExecEngine {
    /// All engines, in oracle order (legacy is the reference).
    #[cfg(any(test, feature = "legacy"))]
    pub const ALL: [ExecEngine; 3] = [ExecEngine::Legacy, ExecEngine::Decoded, ExecEngine::Jit];

    /// The images this engine executes from, reusing whichever are
    /// supplied and building the rest: none for the legacy core, the
    /// predecoded image for the span engines, plus the native image under
    /// the jit when it compiles.
    pub(crate) fn images(
        self,
        prog: &Program,
        decoded: Option<Arc<DecodedProg>>,
        jit: Option<Arc<crate::JitProg>>,
    ) -> (Option<Arc<DecodedProg>>, Option<Arc<crate::JitProg>>) {
        #[cfg(any(test, feature = "legacy"))]
        if self == ExecEngine::Legacy {
            return (None, None);
        }
        let decoded = decoded.unwrap_or_else(|| Arc::new(DecodedProg::new(prog)));
        let jit = match self {
            ExecEngine::Jit => jit.or_else(|| crate::JitProg::try_compile(&decoded, prog)),
            _ => None,
        };
        (Some(decoded), jit)
    }
}

/// Machine parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Dynamic instruction budget; exceeding it ends the run as
    /// [`RunStatus::OutOfFuel`] (a hang under the SEU model).
    pub fuel: u64,
    /// Enable the cycle-accurate-ish timing model (performance runs only;
    /// fault campaigns run functional-only for speed). A timed run
    /// executes on the decoded span loop, feeding the model per-pc
    /// descriptors, and never enters native code.
    pub timing: Option<TimingConfig>,
    /// Golden-run checkpoint interval in dynamic instructions, used by
    /// [`crate::Runner`] for checkpoint-and-replay fault injection: `0`
    /// disables checkpointing (every fault run executes from scratch),
    /// [`MachineConfig::AUTO_CHECKPOINT`] sizes the interval from the
    /// golden run length, any other value is used as-is. Checkpointing is
    /// functional-only and is ignored when the timing model is enabled.
    pub checkpoint_interval: u64,
    /// Interpreter core of functional runs; see [`ExecEngine`]. Defaults
    /// to the jit engine; the other engines are differential-testing
    /// oracles.
    pub engine: ExecEngine,
}

impl MachineConfig {
    /// Sentinel for [`MachineConfig::checkpoint_interval`]: auto-size the
    /// interval as `golden_len / 64`, clamped to a sane range.
    pub const AUTO_CHECKPOINT: u64 = u64::MAX;
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            fuel: 50_000_000,
            timing: None,
            checkpoint_interval: MachineConfig::AUTO_CHECKPOINT,
            engine: ExecEngine::default(),
        }
    }
}

/// Counts of instrumentation probes that fired during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// SWIFT-R majority votes that repaired a disagreeing copy.
    pub vote_repairs: u64,
    /// TRUMP AN-code recovery sequences executed.
    pub trump_recovers: u64,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunStatus {
    /// The entry function returned normally.
    Completed,
    /// Segmentation fault, division fault or stack overflow.
    Segv,
    /// A SWIFT detection check fired (detected, unrecoverable).
    Detected,
    /// The program aborted deliberately.
    Aborted,
    /// The dynamic instruction budget was exhausted (hang).
    OutOfFuel,
}

/// Everything observable about one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Terminal status.
    pub status: RunStatus,
    /// Values the program emitted (MMIO stores and `emit` calls, in order).
    pub output: Vec<u64>,
    /// Dynamic instructions executed (probes excluded).
    pub dyn_instrs: u64,
    /// Probe counters.
    pub probes: ProbeCounts,
    /// Whether the armed fault actually fired.
    pub injected: bool,
    /// Static instruction (program counter) about to execute when the fault
    /// fired; `None` for fault-free runs. Combined with
    /// [`Program::role_of`](sor_ir::Program::role_of) this attributes the
    /// fault to a protection role for triage.
    pub fault_pc: Option<usize>,
    /// Cycles, when the timing model was enabled.
    pub cycles: Option<u64>,
    /// L1-D hits, when the timing model was enabled.
    pub cache_hits: Option<u64>,
    /// L1-D misses, when the timing model was enabled.
    pub cache_misses: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Val {
    I(u64),
    F(f64),
}

impl Val {
    /// The value's class and bit pattern: equal exactly when two values
    /// are indistinguishable to the program.
    pub(crate) fn bits(self) -> (bool, u64) {
        match self {
            Val::I(x) => (false, x),
            Val::F(x) => (true, x.to_bits()),
        }
    }
}

/// Call-return destinations. Almost every call returns zero or one value,
/// so the common case is stored inline instead of heap-allocating a `Vec`
/// per dynamic call instruction.
#[derive(Debug, Clone)]
pub(crate) enum RetDsts {
    Inline { len: u8, buf: [PLoc; 2] },
    Heap(Vec<PLoc>),
}

impl RetDsts {
    pub(crate) fn from_slice(s: &[PLoc]) -> Self {
        if s.len() <= 2 {
            let mut buf = [PLoc::Reg(sor_ir::SP); 2];
            buf[..s.len()].copy_from_slice(s);
            RetDsts::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            RetDsts::Heap(s.to_vec())
        }
    }

    pub(crate) fn as_slice(&self) -> &[PLoc] {
        match self {
            RetDsts::Inline { len, buf } => &buf[..*len as usize],
            RetDsts::Heap(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) ret_pc: usize,
    pub(crate) ret_dsts: RetDsts,
}

/// The machine: one run over one program image.
///
/// Fields are crate-visible because the decoded execution engine
/// (`crate::exec`) drives the same architectural state from outside this
/// module.
#[derive(Debug)]
pub struct Machine<'p> {
    pub(crate) prog: &'p Program,
    pub(crate) fuel: u64,
    pub(crate) iregs: [u64; NUM_IREGS],
    pub(crate) fregs: [f64; NUM_FREGS],
    pub(crate) pc: usize,
    pub(crate) mem: Memory,
    pub(crate) out: Vec<u64>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) pending_args: Vec<Val>,
    pub(crate) dyn_count: u64,
    pub(crate) probes: ProbeCounts,
    /// The timing model's parameters, when this machine's runs are timed.
    timing: Option<TimingConfig>,
    pub(crate) injected: bool,
    pub(crate) fault_pc: Option<usize>,
    /// The image the span loop executes; `None` only for untimed runs on
    /// the legacy core.
    pub(crate) decoded: Option<Arc<DecodedProg>>,
    /// `Some` when the config selected [`ExecEngine::Jit`] (the default),
    /// the timing model is off and native compilation succeeded; the
    /// decoded span loop then dispatches in-budget spans to native code
    /// and interprets everything else.
    pub(crate) jit: Option<Arc<crate::JitProg>>,
}

pub(crate) const SP_IDX: usize = 1;
/// Recursion guard independent of frame sizes.
pub(crate) const MAX_FRAMES: usize = 1 << 16;

impl<'p> Machine<'p> {
    /// Prepares a machine to run `prog`, predecoding (and, under the
    /// default jit engine with the timing model off, compiling) the
    /// program.
    ///
    /// Callers constructing many machines over the same program (campaign
    /// workers, timed runs of memoized artifacts) should predecode and
    /// compile once and share the images via [`Machine::with_images`]
    /// instead of paying the translation per machine.
    pub fn new(prog: &'p Program, cfg: &MachineConfig) -> Self {
        let (decoded, jit) = match cfg.timing {
            None => cfg.engine.images(prog, None, None),
            Some(_) => (Some(Arc::new(DecodedProg::new(prog))), None),
        };
        Self::build(prog, cfg, decoded, jit)
    }

    /// Prepares a machine sharing both a predecoded image and (optionally)
    /// a compiled native image — the campaign-worker path, where both are
    /// memoized per program. A timed config keeps the decoded image and
    /// ignores the native one.
    ///
    /// # Panics
    ///
    /// Panics if either image was not produced from `prog`.
    pub fn with_images(
        prog: &'p Program,
        cfg: &MachineConfig,
        decoded: Arc<DecodedProg>,
        jit: Option<Arc<crate::JitProg>>,
    ) -> Self {
        assert_eq!(
            decoded.len(),
            prog.insts.len(),
            "decoded image does not match program '{}'",
            prog.name
        );
        if let Some(j) = &jit {
            assert!(
                j.matches(&decoded, prog),
                "jit image does not match program '{}'",
                prog.name
            );
        }
        Self::build(prog, cfg, Some(decoded), jit)
    }

    fn build(
        prog: &'p Program,
        cfg: &MachineConfig,
        decoded: Option<Arc<DecodedProg>>,
        jit: Option<Arc<crate::JitProg>>,
    ) -> Self {
        let init: Vec<(u64, &[u8])> = prog
            .globals
            .iter()
            .map(|g| (g.addr, g.bytes.as_slice()))
            .collect();
        let jit = jit.filter(|_| cfg.timing.is_none());
        let mut iregs = [0u64; NUM_IREGS];
        iregs[SP_IDX] = layout::STACK_TOP;
        Machine {
            prog,
            fuel: cfg.fuel,
            iregs,
            fregs: [0.0; NUM_FREGS],
            pc: prog.entry,
            mem: Memory::new(prog.global_extent, &init),
            out: Vec::new(),
            frames: Vec::new(),
            pending_args: Vec::new(),
            dyn_count: 0,
            probes: ProbeCounts::default(),
            timing: cfg.timing.clone(),
            injected: false,
            fault_pc: None,
            decoded,
            jit,
        }
    }

    /// Runs to termination, optionally injecting `fault`.
    pub fn run(mut self, fault: Option<GenFault>) -> RunResult {
        self.run_mut(fault)
    }

    /// Runs to termination, optionally injecting `fault`, without
    /// consuming the machine, so the caller can [`Machine::reset`] or
    /// [`Machine::restore`] it and run again — the reusable-arena path
    /// fault campaigns use. The machine's architectural state is spent
    /// afterwards until restored.
    ///
    /// Effect semantics at the armed slot (the first top-of-loop check
    /// with that dynamic count — a probe's pc when probes precede the
    /// counted instruction, exactly like the trace's `check_pc`):
    ///
    /// * `RegXor` — flip the masked bits of the register before the slot;
    ///   `mask == 1 << bit` is the paper's §7.1 SEU.
    /// * `PcXor` — corrupt the pc before fetch; a target outside the
    ///   program image ends the run as a SEGV (wild fetch).
    /// * `MemXor` — flip one bit of one mapped memory byte; unmapped
    ///   addresses fire with no architectural effect.
    /// * `AluXor` — corrupt the *result* of the slot's counted instruction
    ///   when it is an ALU op (truncated to its width); non-ALU slots and
    ///   pre-commit faults (division) latch nothing.
    pub fn run_mut(&mut self, fault: Option<GenFault>) -> RunResult {
        #[cfg(any(test, feature = "legacy"))]
        if self.decoded.is_none() {
            return self.run_legacy(fault);
        }
        let d = Arc::clone(self.image());
        let r = match &self.timing {
            None => self.run_decoded(&d, fault, None, &mut Untimed),
            Some(cfg) => {
                let mut clock = Timed::new(cfg, self.prog);
                self.run_decoded(&d, fault, None, &mut clock).map(|mut r| {
                    r.cycles = Some(clock.tm.cycles());
                    r.cache_hits = Some(clock.tm.cache_hits());
                    r.cache_misses = Some(clock.tm.cache_misses());
                    r
                })
            }
        };
        r.expect("a full run never stops early")
    }

    /// The decoded image of a span-loop machine.
    fn image(&self) -> &Arc<DecodedProg> {
        self.decoded
            .as_ref()
            .expect("only the legacy core runs without a decoded image")
    }

    pub(crate) fn take_result(&mut self, status: RunStatus) -> RunResult {
        RunResult {
            status,
            output: std::mem::take(&mut self.out),
            dyn_instrs: self.dyn_count,
            probes: self.probes,
            injected: self.injected,
            fault_pc: self.fault_pc,
            cycles: None,
            cache_hits: None,
            cache_misses: None,
        }
    }

    /// Enables memory page tracking, which [`Machine::reset`] and
    /// [`Machine::restore`] require. Must be called before the first
    /// instruction executes, while memory is pristine.
    pub fn enable_reuse(&mut self) {
        self.mem.enable_page_tracking();
    }

    /// Resets all architectural state to the just-constructed state, so the
    /// next run starts from dynamic instruction 0. Requires
    /// [`Machine::enable_reuse`]; checkpointed execution is
    /// functional-only, so the timing model must be off.
    pub fn reset(&mut self) {
        debug_assert!(self.timing.is_none(), "reset is functional-only");
        self.iregs = [0; NUM_IREGS];
        self.iregs[SP_IDX] = layout::STACK_TOP;
        self.fregs = [0.0; NUM_FREGS];
        self.pc = self.prog.entry;
        self.out.clear();
        self.frames.clear();
        self.pending_args.clear();
        self.dyn_count = 0;
        self.probes = ProbeCounts::default();
        self.injected = false;
        self.fault_pc = None;
        self.mem.reset_tracked();
    }

    /// Captures the complete architectural state at the current
    /// instruction boundary, taking the dirty pages accumulated since the
    /// previous capture as this checkpoint's copy-on-write memory delta.
    pub(crate) fn capture(&mut self) -> Checkpoint {
        Checkpoint {
            at: self.dyn_count,
            iregs: self.iregs,
            fregs: self.fregs,
            pc: self.pc,
            frames: self.frames.clone(),
            pending_args: self.pending_args.clone(),
            out_len: self.out.len(),
            probes: self.probes,
            pages: self.mem.take_dirty_pages(),
            live: self.decoded.as_ref().map_or(u32::MAX, |d| {
                d.live(self.prog).live_at(self.pc, &self.frames)
            }),
        }
    }

    /// Restores the state captured by the last checkpoint of `prefix`.
    ///
    /// `prefix` must be the full checkpoint sequence from the start of the
    /// golden run up to and including the restore target, in capture order:
    /// memory is rebuilt as if reset to pristine with every checkpoint's
    /// page delta replayed, writing each page once
    /// ([`crate::Memory::restore_snapshots`]). `golden_output` is the
    /// golden run's full
    /// output, from which the restored output prefix is taken.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty or [`Machine::enable_reuse`] was not
    /// called.
    pub fn restore(&mut self, prefix: &[Checkpoint], golden_output: &[u64]) {
        debug_assert!(self.timing.is_none(), "restore is functional-only");
        let ck = prefix.last().expect("non-empty checkpoint prefix");
        self.iregs = ck.iregs;
        self.fregs = ck.fregs;
        self.pc = ck.pc;
        self.frames.clone_from(&ck.frames);
        self.pending_args.clone_from(&ck.pending_args);
        self.dyn_count = ck.at;
        self.probes = ck.probes;
        self.out.clear();
        self.out.extend_from_slice(&golden_output[..ck.out_len]);
        self.injected = false;
        self.fault_pc = None;
        self.mem
            .restore_snapshots(prefix.iter().rev().map(|c| &c.pages));
    }

    /// Runs the fault-free golden execution, capturing a checkpoint every
    /// `interval` dynamic instructions (including one at instruction 0).
    /// Requires [`Machine::enable_reuse`]; the timing model must be off.
    ///
    /// Checkpoints are taken at the exact point the fault-injection check
    /// runs, so a replay restored from a checkpoint is bit-identical to a
    /// from-scratch run that reached the same boundary.
    pub fn run_golden_with_checkpoints(&mut self, interval: u64) -> (RunResult, Vec<Checkpoint>) {
        debug_assert!(self.timing.is_none(), "checkpointing is functional-only");
        assert!(interval > 0, "checkpoint interval must be positive");
        #[cfg(any(test, feature = "legacy"))]
        if self.decoded.is_none() {
            return self.run_golden_with_checkpoints_legacy(interval);
        }
        let d = Arc::clone(self.image());
        self.run_golden_with_checkpoints_decoded(&d, interval)
    }

    /// Runs the fault-free golden execution, reporting one def-use event
    /// per counted dynamic instruction to `sink` (see [`TraceSink`]).
    ///
    /// Events are emitted immediately before each instruction executes and
    /// mirror the functional semantics exactly. The reported `check_pc`
    /// reproduces the pc the fault check for that slot observes in
    /// [`Machine::run_mut`] — the pc at the *first* top-of-loop check with
    /// that dynamic count, which is a probe's pc when probes precede the
    /// counted instruction.
    pub fn run_golden_traced(&mut self, sink: &mut dyn TraceSink) -> RunResult {
        debug_assert!(self.timing.is_none(), "tracing is functional-only");
        #[cfg(any(test, feature = "legacy"))]
        if self.decoded.is_none() {
            return self.run_golden_traced_legacy(sink);
        }
        let d = Arc::clone(self.image());
        self.run_golden_traced_decoded(&d, sink)
    }

    /// Integer-register (read, write) bitmasks of the instruction at the
    /// current pc, evaluated against current machine state — dynamic where
    /// the semantics are dynamic: a `Select` reads only the operand its
    /// condition actually chooses, a `Ret` writes the pending caller
    /// frame's return destinations, spill-slot arguments read the SP.
    ///
    /// Must be called before the instruction executes; the pc must not
    /// point at a probe.
    pub(crate) fn dyn_int_accesses(&self) -> (u32, u32) {
        let mut reads = 0u32;
        let mut writes = 0u32;
        let read_reg = |p: Preg, m: &mut u32| {
            if p.class() == RegClass::Int {
                *m |= 1 << p.index();
            }
        };
        let read_op = |o: &POperand, m: &mut u32| {
            if let POperand::Reg(r) = o {
                *m |= 1 << r.index();
            }
        };
        // Spill-slot arguments and locations are addressed off the SP.
        let read_arg = |a: &PArg, m: &mut u32| match a {
            PArg::Reg(p) => read_reg(*p, m),
            PArg::Slot(..) => *m |= 1 << SP_IDX,
            PArg::Imm(_) => {}
        };
        match &self.prog.insts[self.pc] {
            PInst::Alu { dst, a, b, .. } | PInst::Cmp { dst, a, b, .. } => {
                read_op(a, &mut reads);
                read_op(b, &mut reads);
                writes |= 1 << dst.index();
            }
            PInst::Mov { dst, src } => {
                read_op(src, &mut reads);
                writes |= 1 << dst.index();
            }
            PInst::Select { dst, cond, t, f } => {
                reads |= 1 << cond.index();
                let taken = self.iregs[cond.index() as usize] != 0;
                read_op(if taken { t } else { f }, &mut reads);
                writes |= 1 << dst.index();
            }
            PInst::Load { dst, base, .. } => {
                reads |= 1 << base.index();
                writes |= 1 << dst.index();
            }
            PInst::Store { base, src, .. } => {
                reads |= 1 << base.index();
                read_op(src, &mut reads);
            }
            PInst::Fpu { .. } | PInst::FMovImm { .. } | PInst::FMov { .. } => {}
            PInst::FCmp { dst, .. } | PInst::CvtFI { dst, .. } => {
                writes |= 1 << dst.index();
            }
            PInst::CvtIF { src, .. } => {
                reads |= 1 << src.index();
            }
            PInst::FLoad { base, .. } | PInst::FStore { base, .. } => {
                reads |= 1 << base.index();
            }
            PInst::Jump(_) | PInst::Trap(_) => {}
            PInst::Branch { cond, .. } => {
                reads |= 1 << cond.index();
            }
            PInst::CallInt { args, .. } => {
                for a in args {
                    read_arg(a, &mut reads);
                }
            }
            // The functional path reads only the emitted value; further
            // args are timing-model sources and timing is off here.
            PInst::CallExt { args, .. } => read_arg(&args[0], &mut reads),
            PInst::Enter { params, .. } => {
                reads |= 1 << SP_IDX;
                writes |= 1 << SP_IDX;
                for l in params {
                    match l {
                        PLoc::Reg(p) => {
                            if p.class() == RegClass::Int {
                                writes |= 1 << p.index();
                            }
                        }
                        PLoc::Slot(..) => reads |= 1 << SP_IDX,
                    }
                }
            }
            PInst::Ret { vals, .. } => {
                for v in vals {
                    read_arg(v, &mut reads);
                }
                reads |= 1 << SP_IDX;
                writes |= 1 << SP_IDX;
                if let Some(frame) = self.frames.last() {
                    for l in frame.ret_dsts.as_slice() {
                        match l {
                            PLoc::Reg(p) => {
                                if p.class() == RegClass::Int {
                                    writes |= 1 << p.index();
                                }
                            }
                            PLoc::Slot(..) => reads |= 1 << SP_IDX,
                        }
                    }
                }
            }
            PInst::Probe(_) => unreachable!("probes produce no trace event"),
        }
        (reads, writes)
    }

    pub(crate) fn write_ploc(&mut self, l: &PLoc, v: Val) -> Result<(), ()> {
        match l {
            PLoc::Reg(p) => match v {
                Val::I(x) => self.iregs[p.index() as usize] = x,
                Val::F(x) => self.fregs[p.index() as usize] = x,
            },
            PLoc::Slot(s, _class) => {
                let addr = self.iregs[SP_IDX] + 8 * *s as u64;
                let bits = match v {
                    Val::I(x) => x,
                    Val::F(x) => x.to_bits(),
                };
                self.mem.write(addr, 8, bits).map_err(|_| ())?;
            }
        }
        Ok(())
    }
}

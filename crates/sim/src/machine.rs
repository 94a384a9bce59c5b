//! The functional machine: executes program images instruction by
//! instruction, optionally injecting one transient fault and/or driving the
//! timing model.

use crate::alu::{alu_eval, cmp_eval, sign_extend, trunc};
use crate::checkpoint::Checkpoint;
use crate::decode::DecodedProg;
use crate::fault::{FaultEffect, GenFault};
use crate::mem::Memory;
use crate::timing::{Timing, TimingConfig};
use crate::trace::TraceSink;
use sor_ir::{
    layout, AluOp, CmpOp, ExtFunc, FpOp, PArg, PInst, PLoc, POperand, Preg, ProbeEvent, Program,
    RegClass, TrapKind, NUM_FREGS, NUM_IREGS,
};
use std::sync::Arc;

/// Which interpreter core executes the program.
///
/// All engines are pinned bit-for-bit equivalent on every observable
/// (results, fault outcomes, trace events, checkpoint snapshots); the
/// legacy path is retained as the differential-testing oracle and as the
/// only core that drives the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Predecoded micro-op engine with superblock dispatch (see
    /// [`crate::DecodedProg`]). Functional-only: timing runs fall back to
    /// the legacy core automatically.
    #[default]
    Decoded,
    /// The original tree-matching interpreter over [`sor_ir::PInst`].
    Legacy,
    /// Superblocks compiled to native x86-64 (see [`crate::JitProg`]),
    /// driven through the decoded engine's span loop so every observation
    /// stays at a span edge. Falls back to [`ExecEngine::Decoded`] (with a
    /// one-time warning) on targets the emitter does not cover.
    Jit,
}

impl ExecEngine {
    /// All engines, in oracle order (legacy is the reference).
    pub const ALL: [ExecEngine; 3] = [ExecEngine::Legacy, ExecEngine::Decoded, ExecEngine::Jit];

    /// The flag/JSON slug (`legacy` / `decoded` / `jit`).
    pub fn slug(self) -> &'static str {
        match self {
            ExecEngine::Decoded => "decoded",
            ExecEngine::Legacy => "legacy",
            ExecEngine::Jit => "jit",
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Parses a flag/JSON engine name. Only `decoded` and `jit` are
/// selectable: [`ExecEngine::Legacy`] is the differential oracle and the
/// timing core, constructed in Rust, never chosen by a flag or a job.
impl std::str::FromStr for ExecEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [ExecEngine::Decoded, ExecEngine::Jit]
            .into_iter()
            .find(|e| e.slug() == s)
            .ok_or_else(|| format!("unknown engine '{s}' (expected decoded, jit)"))
    }
}

/// Machine parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Dynamic instruction budget; exceeding it ends the run as
    /// [`RunStatus::OutOfFuel`] (a hang under the SEU model).
    pub fuel: u64,
    /// Enable the cycle-accurate-ish timing model (performance runs only;
    /// fault campaigns run functional-only for speed).
    pub timing: Option<TimingConfig>,
    /// Golden-run checkpoint interval in dynamic instructions, used by
    /// [`crate::Runner`] for checkpoint-and-replay fault injection: `0`
    /// disables checkpointing (every fault run executes from scratch),
    /// [`MachineConfig::AUTO_CHECKPOINT`] sizes the interval from the
    /// golden run length, any other value is used as-is. Checkpointing is
    /// functional-only and is ignored when the timing model is enabled.
    pub checkpoint_interval: u64,
    /// Interpreter core selection; see [`ExecEngine`]. The decoded engine
    /// is functional-only, so it silently defers to the legacy core when
    /// the timing model is enabled.
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

enum Step {
    Next,
    Goto(usize),
    Done(RunStatus),
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
    timing: Option<Timing>,
    lat: crate::timing::Latencies,
    pub(crate) injected: bool,
    pub(crate) fault_pc: Option<usize>,
    /// `Some` exactly when this machine executes on the decoded span loop:
    /// the config selected [`ExecEngine::Decoded`] or [`ExecEngine::Jit`]
    /// and the timing model is off.
    pub(crate) decoded: Option<Arc<DecodedProg>>,
    /// `Some` when the config selected [`ExecEngine::Jit`] and native
    /// compilation succeeded; the decoded span loop then dispatches full
    /// in-budget runs to native code and interprets everything else.
    pub(crate) jit: Option<Arc<crate::JitProg>>,
}

pub(crate) const SP_IDX: usize = 1;
/// Recursion guard independent of frame sizes.
pub(crate) const MAX_FRAMES: usize = 1 << 16;

impl<'p> Machine<'p> {
    /// Prepares a machine to run `prog`, predecoding the program when the
    /// config selects the decoded engine.
    ///
    /// Callers constructing many machines over the same program (campaign
    /// workers) should predecode once and share it via
    /// [`Machine::with_decoded`] instead of paying the translation per
    /// machine.
    pub fn new(prog: &'p Program, cfg: &MachineConfig) -> Self {
        let wants_spans = matches!(cfg.engine, ExecEngine::Decoded | ExecEngine::Jit);
        let decoded =
            (wants_spans && cfg.timing.is_none()).then(|| Arc::new(DecodedProg::new(prog)));
        let jit = match (&decoded, cfg.engine) {
            (Some(d), ExecEngine::Jit) => crate::JitProg::try_compile(d, prog),
            _ => None,
        };
        Self::build(prog, cfg, decoded, jit)
    }

    /// Prepares a machine to run `prog` on the decoded engine, sharing a
    /// predecoded image instead of re-translating. When the config selects
    /// [`ExecEngine::Jit`] the native image is compiled here (falling back
    /// to the interpreter on failure); use [`Machine::with_images`] to
    /// share a compiled image across machines.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` was not produced from `prog` (length mismatch)
    /// or if the config enables the timing model, which the decoded engine
    /// does not drive.
    pub fn with_decoded(prog: &'p Program, cfg: &MachineConfig, decoded: Arc<DecodedProg>) -> Self {
        let jit = (cfg.engine == ExecEngine::Jit)
            .then(|| crate::JitProg::try_compile(&decoded, prog))
            .flatten();
        Self::with_images(prog, cfg, decoded, jit)
    }

    /// Prepares a machine sharing both a predecoded image and (optionally)
    /// a compiled native image — the campaign-worker path, where both are
    /// memoized per program.
    ///
    /// # Panics
    ///
    /// Panics if either image was not produced from `prog`, or if the
    /// config enables the timing model (span engines are functional-only).
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
        assert!(
            cfg.timing.is_none(),
            "the decoded engine is functional-only"
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
            timing: cfg.timing.as_ref().map(Timing::new),
            lat: cfg
                .timing
                .as_ref()
                .map(|t| t.lat.clone())
                .unwrap_or_default(),
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
    /// afterwards until restored. This is the legacy core's one injection
    /// loop; the span engines (decoded, jit) run its bit-identical
    /// counterpart in `exec.rs`.
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
        if let Some(d) = &self.decoded {
            let d = Arc::clone(d);
            return self.run_decoded(&d, fault);
        }
        // An armed AluXor mask waiting for the slot's counted instruction.
        let mut alu_pending: Option<u64> = None;
        let status = loop {
            if self.dyn_count >= self.fuel {
                break RunStatus::OutOfFuel;
            }
            if let Some(f) = fault {
                if !self.injected && self.dyn_count == f.at_instr {
                    self.injected = true;
                    self.fault_pc = Some(self.pc);
                    match f.effect {
                        FaultEffect::RegXor { reg, mask } => self.iregs[reg as usize] ^= mask,
                        FaultEffect::PcXor { mask } => {
                            let target = self.pc ^ mask as usize;
                            if target >= self.prog.insts.len() {
                                break RunStatus::Segv; // fetch outside the image
                            }
                            self.pc = target;
                        }
                        FaultEffect::MemXor { addr, bit } => {
                            if let Ok(byte) = self.mem.read(addr, 1) {
                                let _ = self.mem.write(addr, 1, byte ^ (1u64 << bit));
                            }
                        }
                        FaultEffect::AluXor { mask } => alu_pending = Some(mask),
                    }
                }
            }
            // The counted instruction of an AluXor slot: probes at the same
            // slot step normally first (they are free and uncounted).
            let alu_target =
                if alu_pending.is_some() && !matches!(self.prog.insts[self.pc], PInst::Probe(_)) {
                    let mask = alu_pending.take().expect("checked above");
                    match self.prog.insts[self.pc] {
                        PInst::Alu { width, dst, .. } => Some((mask, width, dst)),
                        _ => None, // the transient latched into no ALU result
                    }
                } else {
                    None
                };
            match self.step() {
                Step::Next => {
                    if let Some((mask, width, dst)) = alu_target {
                        let m = trunc(width, mask);
                        self.iregs[dst.index() as usize] ^= m;
                    }
                    self.pc += 1;
                }
                Step::Goto(t) => self.pc = t,
                Step::Done(s) => break s,
            }
        };
        self.take_result(status)
    }

    pub(crate) fn take_result(&mut self, status: RunStatus) -> RunResult {
        RunResult {
            status,
            output: std::mem::take(&mut self.out),
            dyn_instrs: self.dyn_count,
            probes: self.probes,
            injected: self.injected,
            fault_pc: self.fault_pc,
            cycles: self.timing.as_ref().map(Timing::cycles),
            cache_hits: self.timing.as_ref().map(Timing::cache_hits),
            cache_misses: self.timing.as_ref().map(Timing::cache_misses),
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
        }
    }

    /// Restores the state captured by the last checkpoint of `prefix`.
    ///
    /// `prefix` must be the full checkpoint sequence from the start of the
    /// golden run up to and including the restore target, in capture order:
    /// memory is rebuilt by resetting to pristine and replaying every
    /// checkpoint's page delta. `golden_output` is the golden run's full
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
        self.mem.reset_tracked();
        for c in prefix {
            self.mem.apply_pages(&c.pages);
        }
    }

    /// Prepares this machine to replay a fault armed for dynamic slot `at`:
    /// restores the last checkpoint of `prefix` when one covers the slot,
    /// otherwise resets to instruction 0. Shared by the scalar
    /// [`crate::Replayer`] and the lane engine, which must agree exactly on
    /// the replay starting state.
    pub(crate) fn prepare_replay(&mut self, prefix: Option<&[Checkpoint]>, golden_output: &[u64]) {
        match prefix {
            Some(p) => self.restore(p, golden_output),
            None => self.reset(),
        }
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
        if let Some(d) = &self.decoded {
            let d = Arc::clone(d);
            return self.run_golden_with_checkpoints_decoded(&d, interval);
        }
        let mut cps = Vec::new();
        let mut next_at = 0u64;
        let status = loop {
            if self.dyn_count >= self.fuel {
                break RunStatus::OutOfFuel;
            }
            if self.dyn_count >= next_at {
                cps.push(self.capture());
                next_at = self.dyn_count.saturating_add(interval);
            }
            match self.step() {
                Step::Next => self.pc += 1,
                Step::Goto(t) => self.pc = t,
                Step::Done(s) => break s,
            }
        };
        (self.take_result(status), cps)
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
        if let Some(d) = &self.decoded {
            let d = Arc::clone(d);
            return self.run_golden_traced_decoded(&d, sink);
        }
        let mut check_pc = self.pc;
        let mut checked: Option<u64> = None;
        let status = loop {
            if self.dyn_count >= self.fuel {
                break RunStatus::OutOfFuel;
            }
            if checked != Some(self.dyn_count) {
                checked = Some(self.dyn_count);
                check_pc = self.pc;
            }
            if !matches!(self.prog.insts[self.pc], PInst::Probe(_)) {
                let (reads, writes) = self.dyn_int_accesses();
                sink.record(self.dyn_count, check_pc, reads, writes);
            }
            match self.step() {
                Step::Next => self.pc += 1,
                Step::Goto(t) => self.pc = t,
                Step::Done(s) => break s,
            }
        };
        self.take_result(status)
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
                read_op(if self.reg_i(*cond) != 0 { t } else { f }, &mut reads);
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

    #[inline]
    fn reg_i(&self, p: Preg) -> u64 {
        debug_assert_eq!(p.class(), RegClass::Int);
        self.iregs[p.index() as usize]
    }

    #[inline]
    fn reg_f(&self, p: Preg) -> f64 {
        debug_assert_eq!(p.class(), RegClass::Float);
        self.fregs[p.index() as usize]
    }

    #[inline]
    fn ival(&self, o: POperand) -> u64 {
        match o {
            POperand::Reg(r) => self.reg_i(r),
            POperand::Imm(i) => i as u64,
        }
    }

    #[inline]
    fn set_i(&mut self, p: Preg, v: u64) {
        debug_assert_eq!(p.class(), RegClass::Int);
        self.iregs[p.index() as usize] = v;
    }

    #[inline]
    fn set_f(&mut self, p: Preg, v: f64) {
        debug_assert_eq!(p.class(), RegClass::Float);
        self.fregs[p.index() as usize] = v;
    }

    fn sp(&self) -> u64 {
        self.iregs[SP_IDX]
    }

    #[inline]
    fn tick(&mut self, srcs: &[Preg], dst: Option<Preg>, latency: u64) {
        if let Some(t) = &mut self.timing {
            t.issue(srcs, dst, latency);
        }
    }

    fn read_parg(&mut self, a: &PArg) -> Result<Val, ()> {
        Ok(match a {
            PArg::Imm(i) => Val::I(*i as u64),
            PArg::Reg(p) => match p.class() {
                RegClass::Int => Val::I(self.reg_i(*p)),
                RegClass::Float => Val::F(self.reg_f(*p)),
            },
            PArg::Slot(s, class) => {
                let addr = self.sp() + 8 * *s as u64;
                let bits = self.mem.read(addr, 8).map_err(|_| ())?;
                match class {
                    RegClass::Int => Val::I(bits),
                    RegClass::Float => Val::F(f64::from_bits(bits)),
                }
            }
        })
    }

    pub(crate) fn write_ploc(&mut self, l: &PLoc, v: Val) -> Result<(), ()> {
        match l {
            PLoc::Reg(p) => match v {
                Val::I(x) => self.set_i(*p, x),
                Val::F(x) => self.set_f(*p, x),
            },
            PLoc::Slot(s, _class) => {
                let addr = self.sp() + 8 * *s as u64;
                let bits = match v {
                    Val::I(x) => x,
                    Val::F(x) => x.to_bits(),
                };
                self.mem.write(addr, 8, bits).map_err(|_| ())?;
            }
        }
        Ok(())
    }

    fn op_src(o: POperand, buf: &mut [Preg; 3], n: &mut usize) {
        if let POperand::Reg(r) = o {
            buf[*n] = r;
            *n += 1;
        }
    }

    fn step(&mut self) -> Step {
        let inst = &self.prog.insts[self.pc];
        // Probes are free instrumentation: no count, no timing.
        if let PInst::Probe(e) = inst {
            match e {
                ProbeEvent::VoteRepair => self.probes.vote_repairs += 1,
                ProbeEvent::TrumpRecover => self.probes.trump_recovers += 1,
            }
            return Step::Next;
        }
        self.dyn_count += 1;

        match inst {
            PInst::Alu {
                op,
                width,
                dst,
                a,
                b,
            } => {
                let x = self.ival(*a);
                let y = self.ival(*b);
                let r = match alu_eval(*op, *width, x, y) {
                    Some(r) => r,
                    None => return Step::Done(RunStatus::Segv), // division fault
                };
                let mut srcs = [*dst; 3];
                let mut n = 0;
                Self::op_src(*a, &mut srcs, &mut n);
                Self::op_src(*b, &mut srcs, &mut n);
                let lat = match op {
                    AluOp::Mul => self.lat.mul,
                    AluOp::DivU | AluOp::DivS | AluOp::RemU | AluOp::RemS => self.lat.div,
                    _ => self.lat.alu,
                };
                self.tick(&srcs[..n], Some(*dst), lat);
                self.set_i(*dst, r);
                Step::Next
            }
            PInst::Cmp {
                op,
                width,
                dst,
                a,
                b,
            } => {
                let x = self.ival(*a);
                let y = self.ival(*b);
                let r = cmp_eval(*op, *width, x, y) as u64;
                let mut srcs = [*dst; 3];
                let mut n = 0;
                Self::op_src(*a, &mut srcs, &mut n);
                Self::op_src(*b, &mut srcs, &mut n);
                self.tick(&srcs[..n], Some(*dst), self.lat.alu);
                self.set_i(*dst, r);
                Step::Next
            }
            PInst::Mov { dst, src } => {
                let v = self.ival(*src);
                let mut srcs = [*dst; 3];
                let mut n = 0;
                Self::op_src(*src, &mut srcs, &mut n);
                self.tick(&srcs[..n], Some(*dst), self.lat.alu);
                self.set_i(*dst, v);
                Step::Next
            }
            PInst::Select { dst, cond, t, f } => {
                let c = self.reg_i(*cond);
                let v = if c != 0 { self.ival(*t) } else { self.ival(*f) };
                let mut srcs = [*cond; 3];
                let mut n = 1;
                Self::op_src(*t, &mut srcs, &mut n);
                if n < 3 {
                    Self::op_src(*f, &mut srcs, &mut n);
                }
                self.tick(&srcs[..n], Some(*dst), self.lat.alu);
                self.set_i(*dst, v);
                Step::Next
            }
            PInst::Load {
                dst,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.reg_i(*base).wrapping_add(*offset as u64);
                if (layout::OUT_BASE..layout::OUT_BASE + layout::OUT_SIZE).contains(&addr) {
                    return Step::Done(RunStatus::Segv); // output page is write-only
                }
                let raw = match self.mem.read(addr, width.bytes()) {
                    Ok(v) => v,
                    Err(_) => return Step::Done(RunStatus::Segv),
                };
                let v = if *signed {
                    sign_extend(raw, *width)
                } else {
                    raw
                };
                let extra = match &mut self.timing {
                    Some(t) => t.mem_access(addr),
                    None => 0,
                };
                self.tick(&[*base], Some(*dst), self.lat.load + extra);
                self.set_i(*dst, v);
                Step::Next
            }
            PInst::Store {
                base,
                offset,
                src,
                width,
            } => {
                let addr = self.reg_i(*base).wrapping_add(*offset as u64);
                let v = self.ival(*src);
                if addr >= layout::OUT_BASE
                    && addr + width.bytes() <= layout::OUT_BASE + layout::OUT_SIZE
                {
                    self.out.push(v & width.unsigned_max());
                } else if self.mem.write(addr, width.bytes(), v).is_err() {
                    return Step::Done(RunStatus::Segv);
                } else if let Some(t) = &mut self.timing {
                    t.mem_access(addr);
                }
                let mut srcs = [*base; 3];
                let mut n = 1;
                Self::op_src(*src, &mut srcs, &mut n);
                self.tick(&srcs[..n], None, 1);
                Step::Next
            }
            PInst::Fpu { op, dst, a, b } => {
                let r = op.eval(self.reg_f(*a), self.reg_f(*b));
                let lat = match op {
                    FpOp::Add | FpOp::Sub | FpOp::Mul => self.lat.fp,
                    FpOp::Div => self.lat.fdiv,
                };
                self.tick(&[*a, *b], Some(*dst), lat);
                self.set_f(*dst, r);
                Step::Next
            }
            PInst::FMovImm { dst, bits } => {
                self.tick(&[], Some(*dst), self.lat.alu);
                self.set_f(*dst, f64::from_bits(*bits));
                Step::Next
            }
            PInst::FMov { dst, src } => {
                let v = self.reg_f(*src);
                self.tick(&[*src], Some(*dst), self.lat.alu);
                self.set_f(*dst, v);
                Step::Next
            }
            PInst::FCmp { op, dst, a, b } => {
                let x = self.reg_f(*a);
                let y = self.reg_f(*b);
                let r = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::LtS | CmpOp::LtU => x < y,
                    CmpOp::LeS | CmpOp::LeU => x <= y,
                };
                self.tick(&[*a, *b], Some(*dst), self.lat.fp);
                self.set_i(*dst, r as u64);
                Step::Next
            }
            PInst::CvtIF { dst, src } => {
                let v = self.reg_i(*src) as i64 as f64;
                self.tick(&[*src], Some(*dst), self.lat.fp);
                self.set_f(*dst, v);
                Step::Next
            }
            PInst::CvtFI { dst, src } => {
                let v = self.reg_f(*src) as i64 as u64;
                self.tick(&[*src], Some(*dst), self.lat.fp);
                self.set_i(*dst, v);
                Step::Next
            }
            PInst::FLoad { dst, base, offset } => {
                let addr = self.reg_i(*base).wrapping_add(*offset as u64);
                if addr >= layout::OUT_BASE {
                    return Step::Done(RunStatus::Segv);
                }
                let raw = match self.mem.read(addr, 8) {
                    Ok(v) => v,
                    Err(_) => return Step::Done(RunStatus::Segv),
                };
                let extra = match &mut self.timing {
                    Some(t) => t.mem_access(addr),
                    None => 0,
                };
                self.tick(&[*base], Some(*dst), self.lat.load + extra);
                self.set_f(*dst, f64::from_bits(raw));
                Step::Next
            }
            PInst::FStore { base, offset, src } => {
                let addr = self.reg_i(*base).wrapping_add(*offset as u64);
                let bits = self.reg_f(*src).to_bits();
                if addr >= layout::OUT_BASE && addr + 8 <= layout::OUT_BASE + layout::OUT_SIZE {
                    self.out.push(bits);
                } else if self.mem.write(addr, 8, bits).is_err() {
                    return Step::Done(RunStatus::Segv);
                } else if let Some(t) = &mut self.timing {
                    t.mem_access(addr);
                }
                self.tick(&[*base, *src], None, 1);
                Step::Next
            }
            PInst::Jump(t) => {
                // Unconditional jumps are resolved in the front end; they
                // cost an issue slot but no redirect.
                self.tick(&[], None, 1);
                Step::Goto(*t)
            }
            PInst::Branch { cond, t, f } => {
                let c = self.reg_i(*cond);
                let taken = c != 0;
                if let Some(tm) = &mut self.timing {
                    tm.issue(&[*cond], None, 1);
                    if taken {
                        tm.taken_branch();
                    }
                }
                Step::Goto(if taken { *t } else { *f })
            }
            PInst::CallInt { target, args, rets } => {
                if self.frames.len() >= MAX_FRAMES {
                    return Step::Done(RunStatus::Segv);
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    match self.read_parg(a) {
                        Ok(v) => vals.push(v),
                        Err(()) => return Step::Done(RunStatus::Segv),
                    }
                }
                self.pending_args = vals;
                self.frames.push(Frame {
                    ret_pc: self.pc + 1,
                    ret_dsts: RetDsts::from_slice(rets),
                });
                self.tick(&[], None, 2);
                Step::Goto(*target)
            }
            PInst::CallExt { func, args } => {
                let mut srcs = [Preg::int(0); 3];
                let mut n = 0;
                for a in args {
                    if let PArg::Reg(p) = a {
                        if n < 3 {
                            srcs[n] = *p;
                            n += 1;
                        }
                    }
                }
                let v = match self.read_parg(&args[0]) {
                    Ok(v) => v,
                    Err(()) => return Step::Done(RunStatus::Segv),
                };
                match (func, v) {
                    (ExtFunc::Emit, Val::I(x)) => self.out.push(x),
                    (ExtFunc::EmitF, Val::F(x)) => self.out.push(x.to_bits()),
                    // Class mismatches cannot be produced by the lowering
                    // pass; treat them as a fault if they ever appear.
                    _ => return Step::Done(RunStatus::Segv),
                }
                self.tick(&srcs[..n], None, 1);
                Step::Next
            }
            PInst::Enter { frame_size, params } => {
                let new_sp = self.sp().wrapping_sub(*frame_size as u64);
                if !(layout::STACK_BASE..=layout::STACK_TOP).contains(&new_sp) {
                    return Step::Done(RunStatus::Segv);
                }
                self.iregs[SP_IDX] = new_sp;
                let vals = std::mem::take(&mut self.pending_args);
                if vals.len() != params.len() {
                    return Step::Done(RunStatus::Segv);
                }
                for (l, v) in params.iter().zip(vals) {
                    if self.write_ploc(l, v).is_err() {
                        return Step::Done(RunStatus::Segv);
                    }
                }
                self.tick(&[], None, 2);
                Step::Next
            }
            PInst::Ret { vals, frame_size } => {
                let mut out_vals = Vec::with_capacity(vals.len());
                for v in vals {
                    match self.read_parg(v) {
                        Ok(x) => out_vals.push(x),
                        Err(()) => return Step::Done(RunStatus::Segv),
                    }
                }
                self.iregs[SP_IDX] = self.sp().wrapping_add(*frame_size as u64);
                self.tick(&[], None, 2);
                match self.frames.pop() {
                    None => Step::Done(RunStatus::Completed),
                    Some(frame) => {
                        if out_vals.len() != frame.ret_dsts.as_slice().len() {
                            return Step::Done(RunStatus::Segv);
                        }
                        for (l, v) in frame.ret_dsts.as_slice().iter().zip(out_vals) {
                            if self.write_ploc(l, v).is_err() {
                                return Step::Done(RunStatus::Segv);
                            }
                        }
                        Step::Goto(frame.ret_pc)
                    }
                }
            }
            PInst::Trap(TrapKind::Detected) => Step::Done(RunStatus::Detected),
            PInst::Trap(TrapKind::Abort) => Step::Done(RunStatus::Aborted),
            PInst::Probe(_) => unreachable!("handled before counting"),
        }
    }
}

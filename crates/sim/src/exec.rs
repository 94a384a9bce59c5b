//! The decoded execution engine: superblock dispatch over a
//! [`DecodedProg`], bit-for-bit equivalent to the legacy `Machine::step`
//! loop.
//!
//! # Observation scheduling
//!
//! The legacy loop interleaves three observers with execution at every
//! top-of-loop: the fuel check, the fault-injection check, and (in the
//! recording/tracing variants) checkpoint capture. All three key on the
//! *dynamic instruction count*, which probes do not advance. The decoded
//! engine hoists them out of the per-instruction path: each outer-loop
//! iteration services whichever observers are due, then computes a
//! **budget** — the number of counted instructions until the nearest
//! future observation (fuel exhaustion, fault slot, checkpoint boundary) —
//! and hands it to [`Machine::exec_span`], which executes exactly that
//! many counted instructions with no checks in between.
//!
//! # Slot exactness
//!
//! `exec_span` returns with `dyn_count` equal to the observation slot and
//! `pc` at the *first* instruction boundary with that count — before any
//! pending probe executes — which is precisely where the legacy loop
//! performs its first check for that count. Observers therefore see
//! identical `(dyn_count, pc)` pairs on both engines, making `fault_pc`,
//! trace `check_pc` values and checkpoint snapshots (whose `pc` field
//! participates in restore) bit-identical. Probes encountered *inside* a
//! span are executed for free, exactly like the legacy path; a superblock
//! effectively splits at any slot an observer is due.
//!
//! # Early exit and rejoin
//!
//! A fault run from a `Replayer` may stop before the program ends, once
//! what is left of it is provably the golden run: right after a register
//! flip into a register statically dead at the injection slot, or at one
//! of the first two golden checkpoint boundaries after injection if the
//! faulty state equals the golden one there apart from dead registers.
//! The replayer then reports what the full run would have (DESIGN.md §11).
//!
//! # Timed runs
//!
//! With the timing model on, the same span loop drives it through a
//! [`Clock`]: every executed op hands the scheduler its per-pc descriptor
//! ([`OpTiming`]), memory ops their address first and taken branches
//! their redirect. Timed runs never enter native code, since the model
//! needs every effective address. Untimed runs use [`Untimed`], whose
//! methods are empty, so their monomorphization of the loop is the
//! functional one.

use crate::decode::{DArg, DLoc, DecodedProg, Ext, Src, UOp};
use crate::fault::{FaultEffect, GenFault};
use crate::machine::{Frame, Machine, ProbeCounts, RunResult, RunStatus, Val, MAX_FRAMES, SP_IDX};
use crate::timing::{OpTiming, Timing, TimingConfig};
use crate::trace::TraceSink;
use crate::Checkpoint;
use sor_ir::{layout, CmpOp, ExtFunc, ProbeEvent, Program, Width};

/// Why [`Machine::exec_span`] stopped.
enum SpanExit {
    /// The counted-instruction budget was exhausted; `pc`/`dyn_count` sit
    /// at the observation boundary.
    Budget,
    /// The program terminated.
    Done(RunStatus),
}

/// What the span loop reports to the timing model. Each method is called
/// only for work that happened: `issue` once an op has executed (a `Ret`
/// before it pops its frame, as it always did), the memory calls once the
/// access succeeded and only off the output page.
pub(crate) trait Clock {
    /// Whether this clock models time: timed runs stay interpreted.
    const TIMED: bool;
    /// The load about to issue read `addr`.
    fn load(&mut self, addr: u64);
    /// The store about to issue wrote `addr`.
    fn store(&mut self, addr: u64);
    /// The op at `pc` executed.
    fn issue(&mut self, pc: usize);
    /// The `Branch` just issued was taken.
    fn taken(&mut self);
}

/// The clock of functional runs: no timing model.
pub(crate) struct Untimed;

impl Clock for Untimed {
    const TIMED: bool = false;
    #[inline(always)]
    fn load(&mut self, _: u64) {}
    #[inline(always)]
    fn store(&mut self, _: u64) {}
    #[inline(always)]
    fn issue(&mut self, _: usize) {}
    #[inline(always)]
    fn taken(&mut self) {}
}

/// The clock of timed runs: the scheduler plus the program's per-pc
/// descriptors.
pub(crate) struct Timed {
    pub(crate) tm: Timing,
    ops: Box<[OpTiming]>,
}

impl Timed {
    /// A fresh scheduler for `cfg` and the descriptors of `prog`. They
    /// are built per run rather than memoized with the decoded image: a
    /// few microseconds against a run of milliseconds, and no memory held
    /// between runs.
    pub(crate) fn new(cfg: &TimingConfig, prog: &Program) -> Self {
        Timed {
            tm: Timing::new(cfg),
            ops: prog.insts.iter().map(OpTiming::of).collect(),
        }
    }
}

impl Clock for Timed {
    const TIMED: bool = true;
    #[inline(always)]
    fn load(&mut self, addr: u64) {
        self.tm.load(addr);
    }
    #[inline(always)]
    fn store(&mut self, addr: u64) {
        self.tm.mem_access(addr);
    }
    #[inline(always)]
    fn issue(&mut self, pc: usize) {
        self.tm.issue_op(&self.ops[pc]);
    }
    #[inline(always)]
    fn taken(&mut self) {
        self.tm.taken_branch();
    }
}

/// Why a fault run stopped before the program ended: the rest of the run
/// is provably the golden run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EarlyExit {
    /// A flip landed in a register statically dead at the injection slot:
    /// a `RegXor`, or an `AluXor` latched into its destination.
    DeadReg,
    /// An `AluXor` latched nothing: the slot's instruction was not an ALU
    /// op, or the mask truncated to zero at its width.
    Unlatched,
    /// The state matched golden checkpoint `cps[b]` apart from integer
    /// registers dead there.
    Rejoined(usize),
}

/// The golden run a fault run may stop early against: its result, its
/// checkpoints and the one the machine was restored from.
pub(crate) struct Golden<'g> {
    pub(crate) run: &'g RunResult,
    pub(crate) cps: &'g [Checkpoint],
    pub(crate) restored: usize,
}

/// Golden checkpoint boundaries after injection at which a fault run
/// tests for a rejoin. Most runs that rejoin do so at the first boundary;
/// a test past the second saves less than it costs, since each stops
/// native code mid-run (measured, EXPERIMENTS.md E20). Deliberately not
/// configurable.
const REJOIN_TESTS: usize = 2;

/// Golden instructions that must remain after a boundary for a rejoin
/// test there to pay: on short runs the test costs more than the rest of
/// the run (measured, EXPERIMENTS.md E20). Deliberately not configurable.
const REJOIN_MIN_LEFT: u64 = 4096;

impl Machine<'_> {
    /// Decoded-engine counterpart of the [`Machine::run_mut`] loop,
    /// pinned bit-identical to it for every [`FaultEffect`].
    ///
    /// Given the `golden` run, a fault run stops with an [`EarlyExit`] as
    /// soon as the rest of it is provably the golden run's; the caller
    /// then owes the golden run's result (see `Replayer::run_fault`).
    /// Without it, every run goes to completion. `clock` sees every
    /// executed op.
    pub(crate) fn run_decoded<C: Clock>(
        &mut self,
        d: &DecodedProg,
        fault: Option<GenFault>,
        golden: Option<&Golden>,
        clock: &mut C,
    ) -> Result<RunResult, EarlyExit> {
        let jit = self.jit.clone();
        // The golden checkpoints still to test for a rejoin, once the
        // fault has fired.
        let mut tests = 0..0;
        let status = loop {
            if self.dyn_count >= self.fuel {
                break RunStatus::OutOfFuel;
            }
            let mut budget = self.fuel - self.dyn_count;
            if let Some(f) = fault {
                if !self.injected {
                    if self.dyn_count == f.at_instr {
                        self.injected = true;
                        self.fault_pc = Some(self.pc);
                        let flipped = match f.effect {
                            FaultEffect::RegXor { reg, mask } => {
                                self.iregs[reg as usize] ^= mask;
                                Some(reg)
                            }
                            FaultEffect::PcXor { mask } => {
                                let target = self.pc ^ mask as usize;
                                if target >= d.uops.len() {
                                    break RunStatus::Segv; // wild fetch
                                }
                                self.pc = target;
                                None
                            }
                            FaultEffect::MemXor { addr, bit } => {
                                if let Ok(byte) = self.mem.read(addr, 1) {
                                    let _ = self.mem.write(addr, 1, byte ^ (1u64 << bit));
                                }
                                None
                            }
                            FaultEffect::AluXor { mask } => {
                                // The slot's counted instruction needs
                                // single-step execution to latch the
                                // corrupted result.
                                match self.exec_alu_slot(d, mask, clock) {
                                    Err(s) => break s,
                                    Ok(None) if golden.is_some() => {
                                        return Err(EarlyExit::Unlatched)
                                    }
                                    Ok(dst) => dst,
                                }
                            }
                        };
                        if let Some(g) = golden {
                            // A flipped register is the only difference
                            // from the golden state here.
                            if let Some(reg) = flipped {
                                let live = d.live(self.prog).live_at(self.pc, &self.frames);
                                if live & 1 << reg == 0 {
                                    return Err(EarlyExit::DeadReg);
                                }
                            }
                            let b = g.cps.partition_point(|c| c.at < self.dyn_count);
                            let worth = g
                                .cps
                                .partition_point(|c| c.at + REJOIN_MIN_LEFT <= g.run.dyn_instrs);
                            tests = b..(b + REJOIN_TESTS).min(worth.max(b));
                        }
                        continue;
                    } else if f.at_instr > self.dyn_count {
                        budget = budget.min(f.at_instr - self.dyn_count);
                    }
                } else if let (Some(g), false) = (golden, tests.is_empty()) {
                    let b = tests.start;
                    if g.cps[b].at == self.dyn_count {
                        if self.rejoins(g, b) {
                            return Err(EarlyExit::Rejoined(b));
                        }
                        tests.start += 1;
                        continue;
                    }
                    budget = budget.min(g.cps[b].at - self.dyn_count);
                }
            }
            match self.exec_span(d, jit.as_deref(), budget, clock) {
                SpanExit::Budget => continue,
                SpanExit::Done(s) => break s,
            }
        };
        Ok(self.take_result(status))
    }

    /// Whether the fault run, standing at the boundary of golden
    /// checkpoint `g.cps[b]`, is in the golden state there apart from
    /// integer registers dead at that boundary. Then the rest of the run
    /// is the golden run's, by induction over its instructions: each one
    /// reads only locations equal in both runs (DESIGN.md §11).
    ///
    /// Frames compare by return pc alone: a frame's return destinations
    /// are those of the call just before it.
    fn rejoins(&mut self, g: &Golden, b: usize) -> bool {
        let ck = &g.cps[b];
        if self.pc != ck.pc {
            return false;
        }
        let differ = (0..sor_ir::NUM_IREGS).fold(0u32, |m, r| {
            m | ((self.iregs[r] != ck.iregs[r]) as u32) << r
        });
        // Output before the restored checkpoint came from the golden run.
        let from = g.cps[g.restored].out_len;
        differ & ck.live == 0
            && self.frames.len() == ck.frames.len()
            && self
                .frames
                .iter()
                .zip(&ck.frames)
                .all(|(a, c)| a.ret_pc == c.ret_pc)
            && self
                .fregs
                .iter()
                .zip(&ck.fregs)
                .all(|(a, c)| a.to_bits() == c.to_bits())
            && self.pending_args.len() == ck.pending_args.len()
            && self
                .pending_args
                .iter()
                .zip(&ck.pending_args)
                .all(|(&a, &c)| a.bits() == c.bits())
            && self.out.len() == ck.out_len
            && self.out[from..] == g.run.output[from..ck.out_len]
            && self.mem.matches_golden(&g.cps[..=b], g.restored)
    }

    /// Executes exactly the current slot's counted instruction (burning
    /// any preceding free probes), then XORs `mask` — truncated to the
    /// operation width — into the destination if that instruction was an
    /// ALU op that committed. Returns the register the corruption latched
    /// into (`None` when it latched nothing), or the terminal status if
    /// the program ended at this slot. Mirrors the legacy `run_legacy`
    /// AluXor arm.
    fn exec_alu_slot<C: Clock>(
        &mut self,
        d: &DecodedProg,
        mask: u64,
        clock: &mut C,
    ) -> Result<Option<u8>, RunStatus> {
        while let UOp::Probe(e) = &d.uops[self.pc] {
            bump_probe(&mut self.probes, *e);
            self.pc += 1;
        }
        let target = match &d.uops[self.pc] {
            UOp::Alu64 { dst, .. } => Some((Width::W64, *dst)),
            UOp::Alu32 { dst, .. } => Some((Width::W32, *dst)),
            _ => None, // the transient latched into no ALU result
        };
        // Single-op span: no native dispatch (the one op would side-exit
        // or finish immediately anyway), keeping the corrupted-result
        // latch on the one interpreted path.
        match self.exec_span(d, None, 1, clock) {
            SpanExit::Budget => Ok(target.and_then(|(w, dst)| {
                let m = crate::alu::trunc(w, mask);
                let v = self.ireg(dst) ^ m;
                self.set_ireg(dst, v);
                (m != 0).then_some(dst)
            })),
            SpanExit::Done(s) => Err(s),
        }
    }

    /// Replays the golden run one counted slot at a time and returns the
    /// static live mask at each slot's observation point, the pc and
    /// frames a fault armed for that slot sees (see
    /// `Runner::static_live_masks`).
    pub(crate) fn static_live_trace(&mut self, d: &DecodedProg) -> Vec<u32> {
        let mut masks = Vec::new();
        while self.dyn_count < self.fuel {
            masks.push(d.live(self.prog).live_at(self.pc, &self.frames));
            if let SpanExit::Done(_) = self.exec_span(d, None, 1, &mut Untimed) {
                break;
            }
        }
        masks
    }

    /// Decoded-engine counterpart of
    /// [`Machine::run_golden_with_checkpoints`].
    pub(crate) fn run_golden_with_checkpoints_decoded(
        &mut self,
        d: &DecodedProg,
        interval: u64,
    ) -> (RunResult, Vec<Checkpoint>) {
        let jit = self.jit.clone();
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
            let budget = (self.fuel - self.dyn_count).min(next_at - self.dyn_count);
            match self.exec_span(d, jit.as_deref(), budget, &mut Untimed) {
                SpanExit::Budget => continue,
                SpanExit::Done(s) => break s,
            }
        };
        (self.take_result(status), cps)
    }

    /// Decoded-engine counterpart of [`Machine::run_golden_traced`].
    ///
    /// Tracing observes every counted slot, so spans degenerate to single
    /// instructions; the win here is the predecoded dispatch, not the
    /// superblocks. The `checked`/`check_pc` bookkeeping replicates the
    /// legacy loop exactly, and the def-use masks come from the same
    /// [`Machine::dyn_int_accesses`] since instruction indices agree.
    pub(crate) fn run_golden_traced_decoded(
        &mut self,
        d: &DecodedProg,
        sink: &mut dyn TraceSink,
    ) -> RunResult {
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
            if let UOp::Probe(e) = &d.uops[self.pc] {
                bump_probe(&mut self.probes, *e);
                self.pc += 1;
                continue;
            }
            let (reads, writes) = self.dyn_int_accesses();
            sink.record(self.dyn_count, check_pc, reads, writes);
            // Tracing observes every slot, so spans are single ops — the
            // native engine would buy nothing; stay interpreted.
            match self.exec_span(d, None, 1, &mut Untimed) {
                SpanExit::Budget => continue,
                SpanExit::Done(s) => break s,
            }
        };
        self.take_result(status)
    }

    /// Executes up to `budget` *counted* instructions (probes ride along
    /// for free), stopping early only on termination. On `Budget` exit the
    /// machine sits at the first instruction boundary whose dynamic count
    /// equals the observation slot — before any probe at that boundary has
    /// executed (see the module docs for why). A timed `clock` keeps the
    /// span interpreted.
    fn exec_span<C: Clock>(
        &mut self,
        d: &DecodedProg,
        jit: Option<&crate::JitProg>,
        mut left: u64,
        clock: &mut C,
    ) -> SpanExit {
        let jit = if C::TIMED { None } else { jit };
        loop {
            let pc = self.pc;
            let run = d.run_len[pc] as u64;
            if run > 0 {
                if left == 0 {
                    return SpanExit::Budget;
                }
                if run <= left {
                    if let Some(j) = jit {
                        // Native fast path: the budget covers the whole
                        // run, which is charged up front; the compiled
                        // code then chains across jumps and branches
                        // while the budget covers each target run (see
                        // the jit module docs), so it stops only where
                        // this loop would service something anyway.
                        let (stop, rest) = j.run_from(self, pc, left - run);
                        self.dyn_count += left - rest;
                        left = rest;
                        self.pc = stop;
                        // It stopped at control flow or a probe it does
                        // not chain (`run_len` 0), at a run the budget
                        // cannot cover, or at a side exit: an op with no
                        // inline template or a memory access off the fast
                        // path, whose run the exit stub refunded. Only the
                        // last leaves the budget covering the run at
                        // `stop`; interpret that single op through the
                        // same `exec_straight`, and re-enter native code
                        // after it.
                        let rest_run = d.run_len[stop] as u64;
                        if rest_run == 0 || rest_run > left {
                            continue;
                        }
                        if let Err(s) = self.exec_straight(&d.uops[stop], clock) {
                            self.dyn_count += 1;
                            return SpanExit::Done(s);
                        }
                        clock.issue(stop);
                        self.dyn_count += 1;
                        left -= 1;
                        self.pc = stop + 1;
                        continue;
                    }
                }
                // Superblock: burn through the straight-line run (or the
                // budgeted prefix of it) with no dispatch-loop re-entry.
                // Iterating the micro-op slice keeps `pc`/`dyn_count` out
                // of the per-instruction path (one bounds check and one
                // counter update per block, not per op); on a fault the
                // counters are settled to the exact instruction, matching
                // the legacy count-then-execute order.
                let n = run.min(left) as usize;
                left -= n as u64;
                for (i, u) in d.uops[pc..pc + n].iter().enumerate() {
                    if let Err(s) = self.exec_straight(u, clock) {
                        self.dyn_count += i as u64 + 1;
                        self.pc = pc + i;
                        return SpanExit::Done(s);
                    }
                    clock.issue(pc + i);
                }
                self.dyn_count += n as u64;
                self.pc = pc + n;
                continue;
            }
            if let UOp::Probe(e) = &d.uops[pc] {
                if left == 0 {
                    // The observation for this slot happens at the probe's
                    // pc, before the probe runs — stop here.
                    return SpanExit::Budget;
                }
                bump_probe(&mut self.probes, *e);
                self.pc += 1;
                continue;
            }
            // Counted control flow.
            if left == 0 {
                return SpanExit::Budget;
            }
            left -= 1;
            self.dyn_count += 1;
            match &d.uops[pc] {
                UOp::Jump(t) => {
                    clock.issue(pc);
                    self.pc = *t as usize;
                }
                UOp::Branch { cond, t, f } => {
                    clock.issue(pc);
                    self.pc = if self.ireg(*cond) != 0 {
                        clock.taken();
                        *t as usize
                    } else {
                        *f as usize
                    };
                }
                UOp::CallInt {
                    target,
                    ret_pc,
                    args,
                    ret_dsts,
                } => {
                    if self.frames.len() >= MAX_FRAMES {
                        return SpanExit::Done(RunStatus::Segv);
                    }
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args.iter() {
                        match self.read_darg(a) {
                            Ok(v) => vals.push(v),
                            Err(()) => return SpanExit::Done(RunStatus::Segv),
                        }
                    }
                    self.pending_args = vals;
                    self.frames.push(Frame {
                        ret_pc: *ret_pc as usize,
                        ret_dsts: ret_dsts.clone(),
                    });
                    clock.issue(pc);
                    self.pc = *target as usize;
                }
                UOp::Ret { frame_size, vals } => {
                    let mut out_vals = Vec::with_capacity(vals.len());
                    for v in vals.iter() {
                        match self.read_darg(v) {
                            Ok(x) => out_vals.push(x),
                            Err(()) => return SpanExit::Done(RunStatus::Segv),
                        }
                    }
                    self.iregs[SP_IDX] = self.iregs[SP_IDX].wrapping_add(*frame_size);
                    clock.issue(pc);
                    match self.frames.pop() {
                        None => return SpanExit::Done(RunStatus::Completed),
                        Some(frame) => {
                            let dsts = frame.ret_dsts.as_slice();
                            if out_vals.len() != dsts.len() {
                                return SpanExit::Done(RunStatus::Segv);
                            }
                            for (l, v) in dsts.iter().zip(out_vals) {
                                if self.write_ploc(l, v).is_err() {
                                    return SpanExit::Done(RunStatus::Segv);
                                }
                            }
                            self.pc = frame.ret_pc;
                        }
                    }
                }
                UOp::Trap(s) => return SpanExit::Done(*s),
                _ => unreachable!("straight-line op with run_len 0"),
            }
        }
    }

    /// Executes one straight-line micro-op (anything `run_len` counts),
    /// reporting its data-cache access to `clock`; the caller advances
    /// `pc` and `dyn_count` and issues the op.
    #[inline]
    fn exec_straight<C: Clock>(&mut self, u: &UOp, clock: &mut C) -> Result<(), RunStatus> {
        match u {
            UOp::Alu64 { op, dst, a, b } => {
                let x = self.src_val(a);
                let y = self.src_val(b);
                // The literal width lets the inlined evaluator fold every
                // truncation away (same for the three arms below).
                match crate::alu::alu_eval(*op, Width::W64, x, y) {
                    Some(r) => self.set_ireg(*dst, r),
                    None => return Err(RunStatus::Segv), // division fault
                }
            }
            UOp::Alu32 { op, dst, a, b } => {
                let x = self.src_val(a);
                let y = self.src_val(b);
                match crate::alu::alu_eval(*op, Width::W32, x, y) {
                    Some(r) => self.set_ireg(*dst, r),
                    None => return Err(RunStatus::Segv), // division fault
                }
            }
            UOp::Cmp64 { op, dst, a, b } => {
                let x = self.src_val(a);
                let y = self.src_val(b);
                let r = crate::alu::cmp_eval(*op, Width::W64, x, y) as u64;
                self.set_ireg(*dst, r);
            }
            UOp::Cmp32 { op, dst, a, b } => {
                let x = self.src_val(a);
                let y = self.src_val(b);
                let r = crate::alu::cmp_eval(*op, Width::W32, x, y) as u64;
                self.set_ireg(*dst, r);
            }
            UOp::Mov { dst, src } => {
                let v = self.src_val(src);
                self.set_ireg(*dst, v);
            }
            UOp::Select { dst, cond, t, f } => {
                let v = if self.ireg(*cond) != 0 {
                    self.src_val(t)
                } else {
                    self.src_val(f)
                };
                self.set_ireg(*dst, v);
            }
            UOp::Load {
                dst,
                base,
                offset,
                bytes,
                ext,
            } => {
                let addr = self.ireg(*base).wrapping_add(*offset);
                if (layout::OUT_BASE..layout::OUT_BASE + layout::OUT_SIZE).contains(&addr) {
                    return Err(RunStatus::Segv); // output page is write-only
                }
                let raw = match self.mem.read(addr, *bytes) {
                    Ok(v) => v,
                    Err(_) => return Err(RunStatus::Segv),
                };
                clock.load(addr);
                let v = match ext {
                    Ext::Zero => raw,
                    Ext::S1 => raw as u8 as i8 as i64 as u64,
                    Ext::S2 => raw as u16 as i16 as i64 as u64,
                    Ext::S4 => raw as u32 as i32 as i64 as u64,
                };
                self.set_ireg(*dst, v);
            }
            UOp::Store {
                base,
                offset,
                src,
                bytes,
                mask,
            } => {
                let addr = self.ireg(*base).wrapping_add(*offset);
                let v = self.src_val(src);
                if addr >= layout::OUT_BASE && addr + bytes <= layout::OUT_BASE + layout::OUT_SIZE {
                    self.out.push(v & mask);
                } else if self.mem.write(addr, *bytes, v).is_err() {
                    return Err(RunStatus::Segv);
                } else {
                    clock.store(addr);
                }
            }
            UOp::Fpu { op, dst, a, b } => {
                let r = op.eval(self.freg(*a), self.freg(*b));
                self.set_freg(*dst, r);
            }
            UOp::FMovImm { dst, bits } => self.set_freg(*dst, f64::from_bits(*bits)),
            UOp::FMov { dst, src } => {
                let v = self.freg(*src);
                self.set_freg(*dst, v);
            }
            UOp::FCmp { op, dst, a, b } => {
                let x = self.freg(*a);
                let y = self.freg(*b);
                let r = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::LtS | CmpOp::LtU => x < y,
                    CmpOp::LeS | CmpOp::LeU => x <= y,
                };
                self.set_ireg(*dst, r as u64);
            }
            UOp::CvtIF { dst, src } => {
                let v = self.ireg(*src) as i64 as f64;
                self.set_freg(*dst, v);
            }
            UOp::CvtFI { dst, src } => {
                let v = self.freg(*src) as i64 as u64;
                self.set_ireg(*dst, v);
            }
            UOp::FLoad { dst, base, offset } => {
                let addr = self.ireg(*base).wrapping_add(*offset);
                if addr >= layout::OUT_BASE {
                    return Err(RunStatus::Segv);
                }
                let raw = match self.mem.read(addr, 8) {
                    Ok(v) => v,
                    Err(_) => return Err(RunStatus::Segv),
                };
                clock.load(addr);
                self.set_freg(*dst, f64::from_bits(raw));
            }
            UOp::FStore { base, offset, src } => {
                let addr = self.ireg(*base).wrapping_add(*offset);
                let bits = self.freg(*src).to_bits();
                if addr >= layout::OUT_BASE && addr + 8 <= layout::OUT_BASE + layout::OUT_SIZE {
                    self.out.push(bits);
                } else if self.mem.write(addr, 8, bits).is_err() {
                    return Err(RunStatus::Segv);
                } else {
                    clock.store(addr);
                }
            }
            UOp::CallExt { func, arg } => {
                let v = match self.read_darg(arg) {
                    Ok(v) => v,
                    Err(()) => return Err(RunStatus::Segv),
                };
                match (func, v) {
                    (ExtFunc::Emit, Val::I(x)) => self.out.push(x),
                    (ExtFunc::EmitF, Val::F(x)) => self.out.push(x.to_bits()),
                    // Class mismatches cannot be produced by the lowering
                    // pass; treat them as a fault if they ever appear.
                    _ => return Err(RunStatus::Segv),
                }
            }
            UOp::Enter { frame_size, params } => {
                let new_sp = self.iregs[SP_IDX].wrapping_sub(*frame_size);
                if !(layout::STACK_BASE..=layout::STACK_TOP).contains(&new_sp) {
                    return Err(RunStatus::Segv);
                }
                self.iregs[SP_IDX] = new_sp;
                let vals = std::mem::take(&mut self.pending_args);
                if vals.len() != params.len() {
                    return Err(RunStatus::Segv);
                }
                for (l, v) in params.iter().zip(vals) {
                    if self.write_dloc(l, v).is_err() {
                        return Err(RunStatus::Segv);
                    }
                }
            }
            UOp::Jump(_)
            | UOp::Branch { .. }
            | UOp::CallInt { .. }
            | UOp::Ret { .. }
            | UOp::Trap(_)
            | UOp::Probe(_) => unreachable!("not a straight-line op"),
        }
        Ok(())
    }

    /// Reads integer register `r`. Decoded register indices are always in
    /// range (they come from [`sor_ir::Preg::index`]); masking to the
    /// 32-entry file makes that visible to the optimizer, eliding the
    /// bounds check on the hot path.
    #[inline(always)]
    fn ireg(&self, r: u8) -> u64 {
        self.iregs[r as usize & (sor_ir::NUM_IREGS - 1)]
    }

    #[inline(always)]
    fn set_ireg(&mut self, r: u8, v: u64) {
        self.iregs[r as usize & (sor_ir::NUM_IREGS - 1)] = v;
    }

    #[inline(always)]
    fn freg(&self, r: u8) -> f64 {
        self.fregs[r as usize & (sor_ir::NUM_FREGS - 1)]
    }

    #[inline(always)]
    fn set_freg(&mut self, r: u8, v: f64) {
        self.fregs[r as usize & (sor_ir::NUM_FREGS - 1)] = v;
    }

    /// Reads a predecoded integer operand.
    #[inline]
    fn src_val(&self, s: &Src) -> u64 {
        match s {
            Src::Reg(r) => self.ireg(*r),
            Src::Imm(i) => *i,
        }
    }

    /// Reads a predecoded call argument (decoded counterpart of the legacy
    /// `read_parg`).
    #[inline]
    fn read_darg(&mut self, a: &DArg) -> Result<Val, ()> {
        Ok(match a {
            DArg::Imm(i) => Val::I(*i),
            DArg::RegI(r) => Val::I(self.ireg(*r)),
            DArg::RegF(r) => Val::F(self.freg(*r)),
            DArg::SlotI(off) => {
                let addr = self.iregs[SP_IDX].wrapping_add(*off);
                Val::I(self.mem.read(addr, 8).map_err(|_| ())?)
            }
            DArg::SlotF(off) => {
                let addr = self.iregs[SP_IDX].wrapping_add(*off);
                Val::F(f64::from_bits(self.mem.read(addr, 8).map_err(|_| ())?))
            }
        })
    }

    /// Writes a call/param destination (decoded counterpart of the legacy
    /// `write_ploc`: register writes dispatch on the value's class).
    #[inline]
    fn write_dloc(&mut self, l: &DLoc, v: Val) -> Result<(), ()> {
        match l {
            DLoc::Reg(i) => match v {
                Val::I(x) => self.set_ireg(*i, x),
                Val::F(x) => self.set_freg(*i, x),
            },
            DLoc::Slot(off) => {
                let addr = self.iregs[SP_IDX].wrapping_add(*off);
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

/// Applies one probe event to the counters.
#[inline]
fn bump_probe(p: &mut ProbeCounts, e: ProbeEvent) {
    match e {
        ProbeEvent::VoteRepair => p.vote_repairs += 1,
        ProbeEvent::TrumpRecover => p.trump_recovers += 1,
    }
}

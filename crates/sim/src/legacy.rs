//! The legacy core: the original tree-matching interpreter over
//! [`sor_ir::PInst`], and the per-instruction timing run built on it.
//!
//! Both are reference oracles, compiled only into tests and under the
//! `legacy` cargo feature, which only test targets enable: the span
//! engines (`crate::exec`) are pinned bit-identical to this core on every
//! observable, and the span loop's descriptor-driven timing model to
//! [`timing_reference`]. No production build contains either.

use crate::alu::{alu_eval, cmp_eval, sign_extend, trunc};
use crate::checkpoint::Checkpoint;
use crate::fault::{FaultEffect, GenFault};
use crate::machine::{
    ExecEngine, Frame, Machine, MachineConfig, RetDsts, RunResult, RunStatus, Val, MAX_FRAMES,
    SP_IDX,
};
use crate::timing::{Latencies, Timing};
use crate::trace::TraceSink;
use sor_ir::{
    layout, AluOp, CmpOp, ExtFunc, FpOp, PArg, PInst, POperand, Preg, ProbeEvent, Program,
    RegClass, TrapKind,
};

enum Step {
    Next,
    Goto(usize),
    Done(RunStatus),
}

impl Machine<'_> {
    /// The legacy core's one injection loop, with the effect semantics
    /// documented on [`Machine::run_mut`]; the span engines run its
    /// bit-identical counterpart in `exec.rs`.
    pub(crate) fn run_legacy(&mut self, fault: Option<GenFault>) -> RunResult {
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

    /// Legacy-core counterpart of [`Machine::run_golden_with_checkpoints`].
    pub(crate) fn run_golden_with_checkpoints_legacy(
        &mut self,
        interval: u64,
    ) -> (RunResult, Vec<Checkpoint>) {
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

    /// Legacy-core counterpart of [`Machine::run_golden_traced`].
    pub(crate) fn run_golden_traced_legacy(&mut self, sink: &mut dyn TraceSink) -> RunResult {
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

    fn step(&mut self) -> Step {
        let inst = &self.prog.insts[self.pc];
        // Probes are free instrumentation: no count.
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
                self.set_i(*dst, r);
                Step::Next
            }
            PInst::Mov { dst, src } => {
                let v = self.ival(*src);
                self.set_i(*dst, v);
                Step::Next
            }
            PInst::Select { dst, cond, t, f } => {
                let c = self.reg_i(*cond);
                let v = if c != 0 { self.ival(*t) } else { self.ival(*f) };
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
                }
                Step::Next
            }
            PInst::Fpu { op, dst, a, b } => {
                let r = op.eval(self.reg_f(*a), self.reg_f(*b));
                self.set_f(*dst, r);
                Step::Next
            }
            PInst::FMovImm { dst, bits } => {
                self.set_f(*dst, f64::from_bits(*bits));
                Step::Next
            }
            PInst::FMov { dst, src } => {
                let v = self.reg_f(*src);
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
                self.set_i(*dst, r as u64);
                Step::Next
            }
            PInst::CvtIF { dst, src } => {
                let v = self.reg_i(*src) as i64 as f64;
                self.set_f(*dst, v);
                Step::Next
            }
            PInst::CvtFI { dst, src } => {
                let v = self.reg_f(*src) as i64 as u64;
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
                }
                Step::Next
            }
            PInst::Jump(t) => Step::Goto(*t),
            PInst::Branch { cond, t, f } => {
                let taken = self.reg_i(*cond) != 0;
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
                Step::Goto(*target)
            }
            PInst::CallExt { func, args } => {
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

    /// What the per-instruction timing model issues for the instruction
    /// at the current pc, read from the pre-execution state; `None` for
    /// probes and traps, which never issue.
    fn reference_issue(&mut self, lat: &Latencies) -> Option<RefIssue> {
        let mut i = RefIssue {
            srcs: [Preg::int(0); 3],
            n: 0,
            dst: None,
            latency: 1,
            mem: None,
            taken: false,
            issued_at_end: false,
        };
        let op = |i: &mut RefIssue, o: &POperand| {
            if let POperand::Reg(r) = o {
                i.srcs[i.n] = *r;
                i.n += 1;
            }
        };
        let reg = |i: &mut RefIssue, r: Preg| {
            i.srcs[i.n] = r;
            i.n += 1;
        };
        let addr = |base: &Preg, offset: &i64| self.reg_i(*base).wrapping_add(*offset as u64);
        let off_output = |a: u64, bytes: u64| {
            !(a >= layout::OUT_BASE && a + bytes <= layout::OUT_BASE + layout::OUT_SIZE)
        };
        let prog = self.prog;
        match &prog.insts[self.pc] {
            PInst::Alu {
                op: o, dst, a, b, ..
            } => {
                op(&mut i, a);
                op(&mut i, b);
                i.dst = Some(*dst);
                i.latency = match o {
                    AluOp::Mul => lat.mul,
                    AluOp::DivU | AluOp::DivS | AluOp::RemU | AluOp::RemS => lat.div,
                    _ => lat.alu,
                };
            }
            PInst::Cmp { dst, a, b, .. } => {
                op(&mut i, a);
                op(&mut i, b);
                i.dst = Some(*dst);
                i.latency = lat.alu;
            }
            PInst::Mov { dst, src } => {
                op(&mut i, src);
                i.dst = Some(*dst);
                i.latency = lat.alu;
            }
            PInst::Select { dst, cond, t, f } => {
                reg(&mut i, *cond);
                op(&mut i, t);
                op(&mut i, f);
                i.dst = Some(*dst);
                i.latency = lat.alu;
            }
            PInst::Load {
                dst, base, offset, ..
            } => {
                reg(&mut i, *base);
                i.dst = Some(*dst);
                i.latency = lat.load;
                i.mem = Some((addr(base, offset), true));
            }
            PInst::Store {
                base,
                offset,
                src,
                width,
            } => {
                reg(&mut i, *base);
                op(&mut i, src);
                let a = addr(base, offset);
                i.mem = off_output(a, width.bytes()).then_some((a, false));
            }
            PInst::Fpu { op: o, dst, a, b } => {
                reg(&mut i, *a);
                reg(&mut i, *b);
                i.dst = Some(*dst);
                i.latency = match o {
                    FpOp::Div => lat.fdiv,
                    _ => lat.fp,
                };
            }
            PInst::FMovImm { dst, .. } => {
                i.dst = Some(*dst);
                i.latency = lat.alu;
            }
            PInst::FMov { dst, src } => {
                reg(&mut i, *src);
                i.dst = Some(*dst);
                i.latency = lat.alu;
            }
            PInst::FCmp { dst, a, b, .. } => {
                reg(&mut i, *a);
                reg(&mut i, *b);
                i.dst = Some(*dst);
                i.latency = lat.fp;
            }
            PInst::CvtIF { dst, src } | PInst::CvtFI { dst, src } => {
                reg(&mut i, *src);
                i.dst = Some(*dst);
                i.latency = lat.fp;
            }
            PInst::FLoad { dst, base, offset } => {
                reg(&mut i, *base);
                i.dst = Some(*dst);
                i.latency = lat.load;
                i.mem = Some((addr(base, offset), true));
            }
            PInst::FStore { base, offset, src } => {
                reg(&mut i, *base);
                reg(&mut i, *src);
                let a = addr(base, offset);
                i.mem = off_output(a, 8).then_some((a, false));
            }
            PInst::Jump(_) => {}
            PInst::Branch { cond, .. } => {
                reg(&mut i, *cond);
                i.taken = self.reg_i(*cond) != 0;
            }
            PInst::CallExt { args, .. } => {
                for a in args {
                    if let PArg::Reg(p) = a {
                        if i.n < 3 {
                            reg(&mut i, *p);
                        }
                    }
                }
            }
            PInst::CallInt { .. } | PInst::Enter { .. } => i.latency = 2,
            PInst::Ret { vals, .. } => {
                i.latency = 2;
                // A `Ret` issues once its values are read, before it pops
                // the frame: the final one ends the run issued.
                i.issued_at_end = vals.iter().all(|v| self.read_parg(v).is_ok());
            }
            PInst::Trap(_) | PInst::Probe(_) => return None,
        }
        Some(i)
    }
}

/// One instruction's issue in the per-instruction timing model.
struct RefIssue {
    srcs: [Preg; 3],
    n: usize,
    dst: Option<Preg>,
    latency: u64,
    /// Data-cache access: the address and whether it is a load (whose
    /// miss penalty adds to the latency).
    mem: Option<(u64, bool)>,
    /// A taken `Branch`.
    taken: bool,
    /// Whether the instruction still issues when it ends the run.
    issued_at_end: bool,
}

/// Runs `prog` fault-free on the legacy core under `cfg` (whose `timing`
/// must be set), feeding the timing model one instruction at a time from
/// a [`PInst`] match: the per-instruction path the span loop's per-pc
/// descriptors replaced, kept as the reference they are pinned against.
///
/// # Panics
///
/// Panics if `cfg.timing` is `None`.
pub fn timing_reference(prog: &Program, cfg: &MachineConfig) -> RunResult {
    let tcfg = cfg.timing.clone().expect("a timed config");
    let functional = MachineConfig {
        timing: None,
        engine: ExecEngine::Legacy,
        ..cfg.clone()
    };
    let mut m = Machine::new(prog, &functional);
    let mut tm = Timing::new(&tcfg);
    let status = loop {
        if m.dyn_count >= m.fuel {
            break RunStatus::OutOfFuel;
        }
        let issue = m.reference_issue(&tcfg.lat);
        let step = m.step();
        if let Some(i) = issue.filter(|i| i.issued_at_end || !matches!(step, Step::Done(_))) {
            let miss = match i.mem {
                Some((addr, true)) => tm.mem_access(addr),
                Some((addr, false)) => {
                    tm.mem_access(addr);
                    0
                }
                None => 0,
            };
            tm.issue(&i.srcs[..i.n], i.dst, i.latency + miss);
            if i.taken {
                tm.taken_branch();
            }
        }
        match step {
            Step::Next => m.pc += 1,
            Step::Goto(t) => m.pc = t,
            Step::Done(s) => break s,
        }
    };
    let mut r = m.take_result(status);
    r.cycles = Some(tm.cycles());
    r.cache_hits = Some(tm.cache_hits());
    r.cache_misses = Some(tm.cache_misses());
    r
}

//! Static integer-register liveness, per program counter, for the fault
//! runs' early exits (DESIGN.md §11, "Early exit and rejoin").
//!
//! A register is *live* at a point if some path onward may read it before
//! writing it. Liveness inside one function depends on what is live after
//! that function returns, and it depends on it in a fixed way. So each pc
//! carries two masks, and `live(pc) = gen(pc) | (pass(pc) & live_after_return)`:
//!
//! * `gen(pc)`: registers some path from `pc` reads before writing, before
//!   the current function returns (its `Ret` included);
//! * `pass(pc)`: registers some path from `pc` to that `Ret` leaves
//!   unwritten.
//!
//! A `CallInt` composes its callee's entry masks with the caller's
//! continuation, so one backward fixpoint over the whole image computes
//! every function's masks at once, recursion included. At run time
//! [`StaticLiveness::live_at`] folds the frame stack from the outermost
//! return point inwards.
//!
//! The masks over-approximate the golden run's dynamic liveness (the
//! `sor-ace` trace): the analysis takes every branch arm and both `Select`
//! operands, and reads every return site's continuation. Register classes
//! follow [`crate::Machine::dyn_int_accesses`], which the soundness test
//! compares against slot by slot.

use crate::machine::{Frame, SP_IDX};
use sor_ir::{PArg, PInst, PLoc, POperand, Preg, RegClass};

const SP: u32 = 1 << SP_IDX;

/// Caller frames [`StaticLiveness::live_at`] composes. Anything deeper
/// counts as all-live after the last composed return, which is sound and
/// keeps the per-call cost bounded under deep recursion.
const MAX_DEPTH: usize = 16;

/// How an instruction combines the masks of the pcs it reads (its
/// successors, or a callee's entry and the return point).
#[derive(Clone, Copy)]
enum Flow {
    /// Falls through or jumps: the one successor's masks.
    Next,
    /// Either of two successors.
    Branch,
    /// Enters the callee, then continues with the integer return
    /// destinations `kill` written.
    Call {
        kill: u32,
    },
    Ret,
    Stop,
}

/// One instruction's local effect: registers read and written, how it
/// combines the masks at pcs `a` and `b` (the image length stands for
/// "none", whose masks are empty).
struct Local {
    uses: u32,
    defs: u32,
    flow: Flow,
    a: u32,
    b: u32,
}

/// Per-pc `(gen, pass)` liveness masks of one program image (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct StaticLiveness {
    facts: Vec<(u32, u32)>,
}

impl StaticLiveness {
    /// Solves the backward fixpoint over `insts` from empty masks with a
    /// worklist: an instruction is re-evaluated whenever a mask it reads
    /// changes. Every transfer is monotone, so it stops at the least
    /// solution.
    pub(crate) fn new(insts: &[PInst]) -> Self {
        let n = insts.len();
        let none = n as u32;
        let local: Vec<Local> = insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| effect(inst, pc as u32 + 1, none))
            .collect();
        // Who reads each pc's masks, in compressed rows.
        let mut start = vec![0u32; n + 2];
        for l in &local {
            start[l.a as usize + 1] += 1;
            start[l.b as usize + 1] += 1;
        }
        for i in 0..=n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut readers = vec![0u32; start[n + 1] as usize];
        for (pc, l) in local.iter().enumerate() {
            for s in [l.a, l.b] {
                readers[fill[s as usize] as usize] = pc as u32;
                fill[s as usize] += 1;
            }
        }
        // One extra, always empty, entry for "none".
        let mut facts = vec![(0u32, 0u32); n + 1];
        // Popping from the back visits the image bottom-up first, the
        // order backward facts flow in straight-line code.
        let mut work: Vec<u32> = (0..none).collect();
        let mut queued = vec![true; n];
        while let Some(pc) = work.pop() {
            let pc = pc as usize;
            queued[pc] = false;
            let l = &local[pc];
            let ((ga, pa), (gb, pb)) = (facts[l.a as usize], facts[l.b as usize]);
            let (gen, pass) = match l.flow {
                Flow::Next => (ga, pa),
                Flow::Branch => (ga | gb, pa | pb),
                Flow::Call { kill } => (ga | pa & gb & !kill, pa & pb & !kill),
                Flow::Ret => (0, u32::MAX),
                Flow::Stop => (0, 0),
            };
            let fact = (l.uses | gen & !l.defs, pass & !l.defs);
            if fact != facts[pc] {
                facts[pc] = fact;
                for &r in &readers[start[pc] as usize..start[pc + 1] as usize] {
                    if !std::mem::replace(&mut queued[r as usize], true) {
                        work.push(r);
                    }
                }
            }
        }
        facts.pop();
        StaticLiveness { facts }
    }

    /// The integer registers live at `pc` under the call stack `frames`
    /// (outermost first): a register outside the mask holds a value no
    /// later instruction of the run reads.
    pub(crate) fn live_at(&self, pc: usize, frames: &[Frame]) -> u32 {
        let at = |pc: usize| self.facts.get(pc).copied().unwrap_or((0, 0));
        let outer = frames.len().saturating_sub(MAX_DEPTH);
        let mut after = if outer > 0 { u32::MAX } else { 0 };
        for f in &frames[outer..] {
            let (gen, pass) = at(f.ret_pc);
            let kill = f.ret_dsts.as_slice().iter().fold(0, |m, l| m | def_of(l));
            after = (gen | pass & after) & !kill;
        }
        let (gen, pass) = at(pc);
        gen | pass & after
    }
}

fn bit(p: Preg) -> u32 {
    match p.class() {
        RegClass::Int => 1 << p.index(),
        RegClass::Float => 0,
    }
}

fn op(o: &POperand) -> u32 {
    match o {
        POperand::Reg(r) => 1 << r.index(),
        POperand::Imm(_) => 0,
    }
}

fn arg(a: &PArg) -> u32 {
    match a {
        PArg::Reg(p) => bit(*p),
        PArg::Slot(..) => SP,
        PArg::Imm(_) => 0,
    }
}

/// Integer registers a parameter or return destination writes.
fn def_of(l: &PLoc) -> u32 {
    match l {
        PLoc::Reg(p) => bit(*p),
        PLoc::Slot(..) => 0,
    }
}

/// The local effect of one instruction at the pc before `next`: the same
/// read and write sets as [`crate::Machine::dyn_int_accesses`], with
/// `Select` reading both arms.
fn effect(inst: &PInst, next: u32, none: u32) -> Local {
    let r = |p: &Preg| 1 << p.index();
    let (uses, defs) = match inst {
        PInst::Alu { dst, a, b, .. } | PInst::Cmp { dst, a, b, .. } => (op(a) | op(b), r(dst)),
        PInst::Mov { dst, src } => (op(src), r(dst)),
        PInst::Select { dst, cond, t, f } => (r(cond) | op(t) | op(f), r(dst)),
        PInst::Load { dst, base, .. } => (r(base), r(dst)),
        PInst::Store { base, src, .. } => (r(base) | op(src), 0),
        PInst::FCmp { dst, .. } | PInst::CvtFI { dst, .. } => (0, r(dst)),
        PInst::CvtIF { src, .. } => (r(src), 0),
        PInst::FLoad { base, .. } | PInst::FStore { base, .. } => (r(base), 0),
        // The functional path reads only the emitted value.
        PInst::CallExt { args, .. } => (arg(&args[0]), 0),
        // Spill-slot parameters are addressed off the SP it reads anyway.
        PInst::Enter { params, .. } => (SP, params.iter().fold(SP, |m, l| m | def_of(l))),
        PInst::Branch { cond, .. } => (r(cond), 0),
        PInst::CallInt { args, .. } => (args.iter().fold(0, |m, a| m | arg(a)), 0),
        PInst::Ret { vals, .. } => (vals.iter().fold(SP, |m, a| m | arg(a)), SP),
        PInst::Fpu { .. }
        | PInst::FMovImm { .. }
        | PInst::FMov { .. }
        | PInst::Probe(_)
        | PInst::Jump(_)
        | PInst::Trap(_) => (0, 0),
    };
    let to = |t: usize| t as u32;
    let (flow, a, b) = match inst {
        PInst::Jump(t) => (Flow::Next, to(*t), none),
        PInst::Branch { t, f, .. } => (Flow::Branch, to(*t), to(*f)),
        PInst::CallInt { target, rets, .. } => {
            let kill = rets.iter().fold(0, |m, l| m | def_of(l));
            (Flow::Call { kill }, to(*target), next)
        }
        PInst::Ret { .. } => (Flow::Ret, none, none),
        PInst::Trap(_) => (Flow::Stop, none, none),
        _ => (Flow::Next, next, none),
    };
    // A target past the image (falling off its end) reads as empty.
    let (a, b) = (a.min(none), b.min(none));
    Local {
        uses,
        defs,
        flow,
        a,
        b,
    }
}

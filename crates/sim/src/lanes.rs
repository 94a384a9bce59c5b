//! Lane-parallel SPMD fault batching: N injections of one program
//! executed in lockstep over a single decoded instruction stream.
//!
//! A fault campaign runs thousands of near-identical executions that
//! differ only after their injection slot — ELZAR packs redundant copies
//! of one execution into vector lanes; we invert the trick and pack
//! *injections*. A [`LaneReplayer`] owns a `Pack<L>`: struct-of-arrays
//! architectural state (`[u64; L]` per integer register, `[f64; L]` per
//! float register) plus `L` ordinary scalar [`Machine`]s that serve as
//! per-lane memory arenas and as eviction targets. All lanes share one
//! program counter, dynamic instruction count, frame stack and probe
//! counters; each micro-op is dispatched once and applied to every active
//! lane, so decode/dispatch/observation cost is amortized `L`-ways and
//! the ALU/compare arms become fixed-trip array loops the compiler
//! auto-vectorizes (see [`crate::alu::alu_lanes`] — no `unsafe` anywhere).
//!
//! # Divergence eviction, and why it is sound
//!
//! Lockstep is only meaningful while every lane agrees on control flow.
//! The pack therefore enforces one universal rule: **any per-lane anomaly
//! evicts the lane at the instruction boundary *before* the anomalous
//! operation executes**. Anomalies are: a branch whose taken-ness differs
//! from the pack leader's, a division fault, a memory access that would
//! fault, a store whose MMIO-versus-memory classification differs from
//! the leader's, and any shared terminal event (trap, outermost return,
//! frame-stack overflow, argument-arity mismatch — these evict every
//! remaining lane). Eviction copies the lane's register column, the
//! shared pc/count/frames/probes and its accumulated output into the
//! lane's scalar machine and lets [`Machine::run_mut`] — the differential
//! oracle engine — finish the run. Because nothing about the anomalous
//! operation has been committed when eviction happens, the scalar engine
//! re-executes it from exactly the state a pure scalar run would have
//! reached, so slot/probe/outcome semantics are bit-identical by
//! construction: the pack never terminates or classifies a lane itself.
//!
//! The pack **leader** is the lowest-indexed active lane that has not yet
//! injected its fault — such a lane is provably still on the golden path,
//! so pack control flow follows golden as long as any pre-fault lane
//! remains. When every active lane is injected the lowest-indexed active
//! lane leads; lanes that disagree with it are evicted, so lockstep stays
//! coherent either way.
//!
//! One divergence shape reconverges instead of evicting: a **hammock**
//! whose diverging side is a short (≤ 32 µops) straight-line,
//! register-only detour rejoining the other side's target — exactly the
//! vote-repair block SWIFT-R guarantees after an injection. The detour
//! executes masked to the diverging lanes and the pack rejoins; the
//! detour lanes' extra retired instructions and probes accumulate as
//! per-lane skew, so a lane's true dynamic count is `dyn_count +
//! extra_count[l]` and fuel/injection-slot checks stay per-lane exact. A
//! lane whose fuel limit or pending slot would land *inside* a detour
//! evicts at the pre-branch boundary instead, where the scalar engine
//! handles the crossing precisely.
//!
//! # Fast paths
//!
//! The hot burn loop does not walk [`UOp`]s: [`LaneProg`] pre-lowers the
//! decoded stream 1:1 into flat 8-byte records whose opcode fuses
//! operation, width and operand shape, with immediates interned as
//! broadcast constant rows appended after the architectural registers —
//! register and immediate operands index the same extended row file, so
//! per-operand dispatch disappears. Memory, division and control ops
//! keep an `Other` code and take the general struct-of-arrays path.
//! [`Pack::span`] re-enters its body through `#[target_feature]` clones
//! chosen by runtime CPU detection (AVX2, AVX-512) so the fixed-trip row
//! loops vectorize past the SSE2 baseline with identical semantics. And
//! when every active lane computes the same address — always true of
//! spill traffic, since the stack pointer is never injected — memory ops
//! translate the address once and issue raw per-lane accesses with a
//! precomputed dirty-page span instead of `L` full checked walks.
//!
//! # Group execution
//!
//! [`LaneReplayer::run_fault_group`] takes up to `L` faults, restores all
//! lanes from the nearest golden checkpoint at or before the *earliest*
//! injection slot (per-lane memory rides the existing copy-on-write
//! dirty-page machinery in [`crate::Memory`]), and injects each lane's
//! flip when the shared count reaches its slot. Before its slot a lane is
//! identical to golden, so the pre-fault region is executed once,
//! `L`-wide. Callers batch faults sorted by slot so groups share the
//! longest possible prefix. When only one lane remains active, it is
//! handed to its scalar machine immediately — lockstep over a singleton
//! is pure overhead.

use crate::alu::{alu_lanes, cmp_lanes, fpu_lanes};
use crate::decode::{DArg, DLoc, DecodedProg, Ext, Src, UOp};
use crate::exec::bump_probe;
use crate::fault::{FaultSpec, GenFault};
use crate::machine::{Frame, Machine, ProbeCounts, RunResult, Val, MAX_FRAMES, SP_IDX};
use crate::outcome::{classify, Outcome};
use crate::runner::{GenFaultRecord, Runner};
use sor_ir::{layout, AluOp, CmpOp, ExtFunc, FpOp, PLoc, Width, NUM_FREGS, NUM_IREGS};
use std::sync::Arc;

/// Iterator over the set bit positions of a lane mask.
struct Bits(u32);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let l = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

/// A lane-columned value: one architectural value per lane, class-tagged
/// exactly like the scalar [`Val`].
#[derive(Clone, Copy)]
enum LaneVal<const L: usize> {
    I([u64; L]),
    F([f64; L]),
}

/// Integer row-file size for the lane engine: the `NUM_IREGS`
/// architectural registers followed by broadcast immediate-constant rows
/// interned by [`LaneProg`]. A power of two so row indices mask instead
/// of bounds-check.
const IROWS: usize = 128;
/// Float row-file size: `NUM_FREGS` registers plus interned float
/// constants.
const FROWS: usize = 64;

/// Fused opcode for the lane burn loop: operation, width and operand
/// shape folded into a single discriminant, so the hot dispatch is one
/// jump table and every arm is a branch-free monomorphic row loop.
#[derive(Clone, Copy)]
enum LK {
    Add64,
    Sub64,
    Mul64,
    And64,
    Or64,
    Xor64,
    Shl64,
    ShrL64,
    ShrA64,
    Add32,
    Sub32,
    Mul32,
    And32,
    Or32,
    Xor32,
    Shl32,
    ShrL32,
    ShrA32,
    Eq64,
    Ne64,
    LtU64,
    LeU64,
    LtS64,
    LeS64,
    Eq32,
    Ne32,
    LtU32,
    LeU32,
    LtS32,
    LeS32,
    Mov,
    Select,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMov,
    FEq,
    FNe,
    FLt,
    FLe,
    CvtIF,
    CvtFI,
    /// Not pre-lowerable: memory, faultable (division), control flow —
    /// executes through the general [`Pack::straight_lanes`] path.
    Other,
}

/// One pre-lowered lane op: 8 bytes, quarter of a cache line, against
/// the multi-word [`UOp`] enum it replaces in the hot loop. `a`/`b`/`c`
/// index the extended row files (register or interned-constant rows);
/// `dst` is always an architectural register.
#[derive(Clone, Copy)]
struct LOp {
    code: LK,
    dst: u8,
    a: u16,
    b: u16,
    c: u16,
}

const LOP_OTHER: LOp = LOp {
    code: LK::Other,
    dst: 0,
    a: 0,
    b: 0,
    c: 0,
};

/// The lane engine's second-level lowering of a [`DecodedProg`],
/// built once per [`LaneReplayer`] and shared by every group: each
/// straight-line micro-op that is a pure row-to-row register operation
/// becomes a flat [`LOp`] record, with immediates interned as broadcast
/// constant rows appended after the architectural registers — reg and
/// imm operands then dispatch identically, with no per-operand shape
/// branch. Ops that touch memory, can fault per lane, or sit at control
/// flow keep [`LK::Other`] and take the general path.
struct LaneProg {
    /// One record per micro-op, indexed exactly like `DecodedProg::uops`.
    ops: Vec<LOp>,
    /// Interned integer immediates; row `NUM_IREGS + k` broadcasts
    /// `ipool[k]`.
    ipool: Vec<u64>,
    /// Interned float immediates as bit patterns; row `NUM_FREGS + k`.
    fpool: Vec<u64>,
}

impl LaneProg {
    fn new(d: &DecodedProg) -> Self {
        use std::collections::HashMap;
        let mut ipool: Vec<u64> = Vec::new();
        let mut imap: HashMap<u64, u16> = HashMap::new();
        let mut fpool: Vec<u64> = Vec::new();
        let mut fmap: HashMap<u64, u16> = HashMap::new();
        let mut isrc = |s: &Src| -> Option<u16> {
            match s {
                Src::Reg(r) => Some((*r as usize & (NUM_IREGS - 1)) as u16),
                Src::Imm(i) => {
                    if let Some(&idx) = imap.get(i) {
                        return Some(idx);
                    }
                    // Pool overflow: leave the op on the general path.
                    if NUM_IREGS + ipool.len() >= IROWS {
                        return None;
                    }
                    let idx = (NUM_IREGS + ipool.len()) as u16;
                    ipool.push(*i);
                    imap.insert(*i, idx);
                    Some(idx)
                }
            }
        };
        let mut fimm = |bits: u64| -> Option<u16> {
            if let Some(&idx) = fmap.get(&bits) {
                return Some(idx);
            }
            if NUM_FREGS + fpool.len() >= FROWS {
                return None;
            }
            let idx = (NUM_FREGS + fpool.len()) as u16;
            fpool.push(bits);
            fmap.insert(bits, idx);
            Some(idx)
        };
        let ireg = |r: u8| (r as usize & (NUM_IREGS - 1)) as u16;
        let freg = |r: u8| (r as usize & (NUM_FREGS - 1)) as u16;
        let mut ops = Vec::with_capacity(d.uops.len());
        for u in &d.uops {
            let lowered = (|| -> Option<LOp> {
                let (code, dst, a, b, c) = match u {
                    UOp::Alu64 { op, dst, a, b } | UOp::Alu32 { op, dst, a, b } => {
                        let w64 = matches!(u, UOp::Alu64 { .. });
                        let code = match (op, w64) {
                            (AluOp::Add, true) => LK::Add64,
                            (AluOp::Sub, true) => LK::Sub64,
                            (AluOp::Mul, true) => LK::Mul64,
                            (AluOp::And, true) => LK::And64,
                            (AluOp::Or, true) => LK::Or64,
                            (AluOp::Xor, true) => LK::Xor64,
                            (AluOp::Shl, true) => LK::Shl64,
                            (AluOp::ShrL, true) => LK::ShrL64,
                            (AluOp::ShrA, true) => LK::ShrA64,
                            (AluOp::Add, false) => LK::Add32,
                            (AluOp::Sub, false) => LK::Sub32,
                            (AluOp::Mul, false) => LK::Mul32,
                            (AluOp::And, false) => LK::And32,
                            (AluOp::Or, false) => LK::Or32,
                            (AluOp::Xor, false) => LK::Xor32,
                            (AluOp::Shl, false) => LK::Shl32,
                            (AluOp::ShrL, false) => LK::ShrL32,
                            (AluOp::ShrA, false) => LK::ShrA32,
                            // Division faults per lane.
                            _ => return None,
                        };
                        (code, *dst, isrc(a)?, isrc(b)?, 0)
                    }
                    UOp::Cmp64 { op, dst, a, b } | UOp::Cmp32 { op, dst, a, b } => {
                        let w64 = matches!(u, UOp::Cmp64 { .. });
                        let code = match (op, w64) {
                            (CmpOp::Eq, true) => LK::Eq64,
                            (CmpOp::Ne, true) => LK::Ne64,
                            (CmpOp::LtU, true) => LK::LtU64,
                            (CmpOp::LeU, true) => LK::LeU64,
                            (CmpOp::LtS, true) => LK::LtS64,
                            (CmpOp::LeS, true) => LK::LeS64,
                            (CmpOp::Eq, false) => LK::Eq32,
                            (CmpOp::Ne, false) => LK::Ne32,
                            (CmpOp::LtU, false) => LK::LtU32,
                            (CmpOp::LeU, false) => LK::LeU32,
                            (CmpOp::LtS, false) => LK::LtS32,
                            (CmpOp::LeS, false) => LK::LeS32,
                        };
                        (code, *dst, isrc(a)?, isrc(b)?, 0)
                    }
                    UOp::Mov { dst, src } => (LK::Mov, *dst, isrc(src)?, 0, 0),
                    UOp::Select { dst, cond, t, f } => {
                        (LK::Select, *dst, ireg(*cond), isrc(t)?, isrc(f)?)
                    }
                    UOp::Fpu { op, dst, a, b } => {
                        let code = match op {
                            FpOp::Add => LK::FAdd,
                            FpOp::Sub => LK::FSub,
                            FpOp::Mul => LK::FMul,
                            FpOp::Div => LK::FDiv,
                        };
                        (code, *dst, freg(*a), freg(*b), 0)
                    }
                    UOp::FMovImm { dst, bits } => (LK::FMov, *dst, fimm(*bits)?, 0, 0),
                    UOp::FMov { dst, src } => (LK::FMov, *dst, freg(*src), 0, 0),
                    UOp::FCmp { op, dst, a, b } => {
                        let code = match op {
                            CmpOp::Eq => LK::FEq,
                            CmpOp::Ne => LK::FNe,
                            CmpOp::LtS | CmpOp::LtU => LK::FLt,
                            CmpOp::LeS | CmpOp::LeU => LK::FLe,
                        };
                        (code, *dst, freg(*a), freg(*b), 0)
                    }
                    UOp::CvtIF { dst, src } => (LK::CvtIF, *dst, ireg(*src), 0, 0),
                    UOp::CvtFI { dst, src } => (LK::CvtFI, *dst, freg(*src), 0, 0),
                    _ => return None,
                };
                Some(LOp { code, dst, a, b, c })
            })();
            ops.push(lowered.unwrap_or(LOP_OTHER));
        }
        LaneProg { ops, ipool, fpool }
    }
}

/// Why a lockstep span stopped.
enum SpanEnd {
    /// The counted-instruction budget ran out; the pack sits at the
    /// observation boundary (same contract as the scalar `exec_span`).
    Budget,
    /// Every lane has been evicted; the group is finished.
    Finished,
}

/// The SPMD pack: struct-of-arrays register state over `L` lanes plus the
/// per-lane scalar machines used as memory arenas and eviction targets.
struct Pack<'p, const L: usize> {
    machines: Vec<Machine<'p>>,
    /// Extended integer row file: rows `0..NUM_IREGS` are the
    /// architectural registers, rows above hold the [`LaneProg`]'s
    /// interned immediates broadcast across lanes (written once at
    /// construction, read-only afterwards — every dst index is masked
    /// into the architectural range).
    iregs: Box<[[u64; L]; IROWS]>,
    fregs: Box<[[f64; L]; FROWS]>,
    pc: usize,
    dyn_count: u64,
    fuel: u64,
    frames: Vec<Frame>,
    pending_args: Vec<LaneVal<L>>,
    /// Output rows emitted since group start (one value per lane per
    /// MMIO store / `emit`); a lane's full output materializes at
    /// eviction as its machine's restored golden prefix plus its column
    /// of these rows.
    out_extra: Vec<[u64; L]>,
    probes: ProbeCounts,
    faults: [FaultSpec; L],
    /// Per-lane retirement skew: counted instructions a lane has executed
    /// beyond the shared stream, accumulated by reconverged detours (see
    /// the `Branch` arm of [`Pack::span`]). A lane's true dynamic count is
    /// `dyn_count + extra_count[lane]`.
    extra_count: [u64; L],
    /// Probe events a lane observed on reconverged detours beyond the
    /// shared `probes`.
    extra_probes: [ProbeCounts; L],
    /// Lanes still executing in lockstep.
    active: u32,
    /// Lanes whose fault has fired.
    injected: u32,
    fault_pc: [Option<usize>; L],
    results: Vec<Option<(Outcome, RunResult)>>,
}

impl<'p, const L: usize> Pack<'p, L> {
    fn new(runner: &Runner<'p>, lp: &LaneProg) -> Self {
        let machines = (0..L)
            .map(|_| {
                let mut m = runner.fault_machine();
                m.enable_reuse();
                m
            })
            .collect();
        let mut iregs = Box::new([[0u64; L]; IROWS]);
        for (k, &v) in lp.ipool.iter().enumerate() {
            iregs[NUM_IREGS + k] = [v; L];
        }
        let mut fregs = Box::new([[0.0f64; L]; FROWS]);
        for (k, &bits) in lp.fpool.iter().enumerate() {
            fregs[NUM_FREGS + k] = [f64::from_bits(bits); L];
        }
        Pack {
            machines,
            iregs,
            fregs,
            pc: 0,
            dyn_count: 0,
            fuel: 0,
            frames: Vec::new(),
            pending_args: Vec::new(),
            out_extra: Vec::new(),
            probes: ProbeCounts::default(),
            faults: [FaultSpec {
                at_instr: 0,
                reg: 0,
                bit: 0,
            }; L],
            extra_count: [0; L],
            extra_probes: [ProbeCounts::default(); L],
            active: 0,
            injected: 0,
            fault_pc: [None; L],
            results: (0..L).map(|_| None).collect(),
        }
    }

    /// Runs one group of up to `L` faults to completion and returns the
    /// classified results in fault order.
    fn run_group(
        &mut self,
        runner: &Runner<'p>,
        d: &DecodedProg,
        lp: &LaneProg,
        faults: &[FaultSpec],
    ) -> Vec<(Outcome, RunResult)> {
        let n = faults.len();
        assert!(n >= 1 && n <= L, "group of {n} faults in a {L}-wide pack");
        // Every lane is identical to golden before its own slot, so all
        // lanes restore from the prefix covering the earliest slot.
        let min_at = faults.iter().map(|f| f.at_instr).min().unwrap();
        let prefix = runner.ckpts.prefix_for(min_at);
        for m in &mut self.machines[..n] {
            m.prepare_replay(prefix, &runner.golden.output);
        }
        self.broadcast_from_lane0(n);
        for (l, f) in faults.iter().enumerate() {
            self.faults[l] = *f;
        }
        loop {
            if self.active == 0 {
                break;
            }
            if self.active.count_ones() == 1 {
                // Singleton pack: hand the last lane to its scalar
                // machine rather than paying lane overhead for one run.
                let l = self.active.trailing_zeros() as usize;
                self.evict(runner, l);
                break;
            }
            // Fuel is per lane once detours skew retirement: lane `l`
            // exhausts it when the shared count reaches
            // `fuel - extra_count[l]`. Lanes at their limit leave now (the
            // scalar machine settles the OutOfFuel result from this exact
            // state); the rest bound the span budget by the tightest limit.
            let mut limit = self.fuel;
            let mut spent = 0u32;
            for l in Bits(self.active) {
                let lane_limit = self.fuel.saturating_sub(self.extra_count[l]);
                if self.dyn_count >= lane_limit {
                    spent |= 1 << l;
                } else {
                    limit = limit.min(lane_limit);
                }
            }
            if spent != 0 {
                self.evict_lanes(runner, spent);
                continue;
            }
            let mut budget = limit - self.dyn_count;
            let pend = self.active & !self.injected;
            for l in Bits(pend) {
                let f = self.faults[l];
                // A lane's own dynamic count carries its detour skew.
                let lane_count = self.dyn_count + self.extra_count[l];
                if lane_count == f.at_instr {
                    self.iregs[f.reg as usize][l] ^= 1u64 << f.bit;
                    self.injected |= 1 << l;
                    self.fault_pc[l] = Some(self.pc);
                } else if f.at_instr > lane_count {
                    budget = budget.min(f.at_instr - lane_count);
                }
            }
            match self.span(runner, d, lp, budget) {
                SpanEnd::Budget => continue,
                SpanEnd::Finished => break,
            }
        }
        (0..n)
            .map(|l| self.results[l].take().expect("every lane settles"))
            .collect()
    }

    /// Seeds the shared and per-lane state from lane 0's freshly restored
    /// machine (all `n` machines were restored identically).
    fn broadcast_from_lane0(&mut self, n: usize) {
        for r in 0..NUM_IREGS {
            self.iregs[r] = [self.machines[0].iregs[r]; L];
        }
        for r in 0..NUM_FREGS {
            self.fregs[r] = [self.machines[0].fregs[r]; L];
        }
        self.pc = self.machines[0].pc;
        self.dyn_count = self.machines[0].dyn_count;
        self.fuel = self.machines[0].fuel;
        self.frames.clone_from(&self.machines[0].frames);
        self.pending_args.clear();
        for v in &self.machines[0].pending_args {
            self.pending_args.push(match v {
                Val::I(x) => LaneVal::I([*x; L]),
                Val::F(x) => LaneVal::F([*x; L]),
            });
        }
        self.out_extra.clear();
        self.probes = self.machines[0].probes;
        self.extra_count = [0; L];
        self.extra_probes = [ProbeCounts::default(); L];
        self.active = (1u32 << n) - 1;
        self.injected = 0;
        self.fault_pc = [None; L];
        for r in &mut self.results {
            *r = None;
        }
    }

    /// The pack leader: the lowest-indexed active lane still on the
    /// golden path (not yet injected), or the lowest active lane once
    /// every survivor has injected.
    #[inline]
    fn leader(&self) -> usize {
        let golden = self.active & !self.injected;
        let pick = if golden != 0 { golden } else { self.active };
        pick.trailing_zeros() as usize
    }

    /// Reads a predecoded integer operand for every lane.
    #[inline]
    fn src(&self, s: &Src) -> [u64; L] {
        match s {
            Src::Reg(r) => self.iregs[*r as usize & (NUM_IREGS - 1)],
            Src::Imm(i) => [*i; L],
        }
    }

    #[inline]
    fn ireg(&self, r: u8) -> [u64; L] {
        self.iregs[r as usize & (NUM_IREGS - 1)]
    }

    /// The common base value when every active lane agrees — the gate of
    /// the memory fast path. Spill traffic always qualifies (the stack
    /// pointer is never fault-injected and reconverged control flow keeps
    /// it in lockstep); address computations poisoned by an injected
    /// fault simply fall back to the per-lane slow path.
    #[inline(always)]
    fn uniform_addr(&self, bv: &[u64; L]) -> Option<u64> {
        let a = bv[self.active.trailing_zeros() as usize];
        let mut same = true;
        for l in Bits(self.active) {
            same &= bv[l] == a;
        }
        same.then_some(a)
    }

    /// Executes up to `left` counted instructions in lockstep. Mirrors the
    /// scalar `exec_span` boundary semantics exactly: on `Budget` the pack
    /// sits at the first instruction boundary whose count equals the
    /// observation slot, before any probe at that boundary has run.
    ///
    /// Straight-line ops are burned in superblocks exactly like the scalar
    /// engine: `run_len[pc]` consecutive ops commit back-to-back with no
    /// per-op header checks, because nothing inside a run can branch,
    /// probe, or change the active set except an eviction — which stops
    /// the burn at the boundary *before* the anomalous op
    /// (evict-before-commit), settles `pc`/`dyn_count` there, and
    /// re-enters the loop at that same op with the header re-checked.
    fn span(&mut self, runner: &Runner<'p>, d: &DecodedProg, lp: &LaneProg, left: u64) -> SpanEnd {
        // The row loops in `lane_op` vectorize to whatever width the
        // target allows, but the default x86-64 target is SSE2-only;
        // recompiling the span body under a wider feature set (runtime
        // detected, bit-identical semantics — two's-complement integer
        // rows and IEEE f64 lanes don't change with register width)
        // doubles or quadruples row throughput on AVX hardware.
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                // SAFETY: gated on runtime detection of the enabled set.
                return unsafe { self.span_avx512(runner, d, lp, left) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: as above.
                return unsafe { self.span_avx2(runner, d, lp, left) };
            }
        }
        self.span_impl(runner, d, lp, left)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn span_avx2(
        &mut self,
        runner: &Runner<'p>,
        d: &DecodedProg,
        lp: &LaneProg,
        left: u64,
    ) -> SpanEnd {
        self.span_impl(runner, d, lp, left)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    unsafe fn span_avx512(
        &mut self,
        runner: &Runner<'p>,
        d: &DecodedProg,
        lp: &LaneProg,
        left: u64,
    ) -> SpanEnd {
        self.span_impl(runner, d, lp, left)
    }

    #[inline(always)]
    fn span_impl(
        &mut self,
        runner: &Runner<'p>,
        d: &DecodedProg,
        lp: &LaneProg,
        mut left: u64,
    ) -> SpanEnd {
        macro_rules! evict_and_retry {
            ($mask:expr) => {{
                self.evict_lanes(runner, $mask);
                continue;
            }};
        }
        loop {
            if self.active == 0 {
                return SpanEnd::Finished;
            }
            if self.active.count_ones() == 1 {
                let l = self.active.trailing_zeros() as usize;
                self.evict(runner, l);
                return SpanEnd::Finished;
            }
            let pc = self.pc;
            let run = d.run_len[pc] as u64;
            if run > 0 {
                if left == 0 {
                    return SpanEnd::Budget;
                }
                let n = run.min(left) as usize;
                let mut evicted = 0u32;
                let mut done = n;
                for (i, &q) in lp.ops[pc..pc + n].iter().enumerate() {
                    if let Err(mask) = self.lane_op(q, d, pc + i) {
                        evicted = mask;
                        done = i;
                        break;
                    }
                }
                left -= done as u64;
                self.dyn_count += done as u64;
                self.pc = pc + done;
                if evicted != 0 {
                    evict_and_retry!(evicted);
                }
                continue;
            }
            if left == 0 {
                return SpanEnd::Budget;
            }
            match &d.uops[pc] {
                // Probes are uncounted instrumentation shared by all lanes.
                UOp::Probe(e) => {
                    bump_probe(&mut self.probes, *e);
                    self.pc += 1;
                }
                // Counted control flow.
                UOp::Jump(t) => {
                    left -= 1;
                    self.dyn_count += 1;
                    self.pc = *t as usize;
                }
                UOp::Branch { cond, t, f } => {
                    let cv = self.ireg(*cond);
                    let mut taken = 0u32;
                    for (l, &c) in cv.iter().enumerate() {
                        taken |= ((c != 0) as u32) << l;
                    }
                    let mt = self.active & taken;
                    let mf = self.active & !taken;
                    if mt != 0 && mf != 0 {
                        // Divergent branch. Before falling back to
                        // eviction, try to read the split as a hammock:
                        // one side a short register-only detour that
                        // rejoins the other side's target (the shape of a
                        // SWIFT-R vote-repair block, and of small
                        // if-diamonds generally). If it is, the detour
                        // lanes execute it masked — with their retirement
                        // skew recorded — and the pack reconverges
                        // without losing a single lane.
                        let (tt, ff) = (*t as usize, *f as usize);
                        let hammock = Self::scan_detour(d, tt, ff)
                            .map(|c| (mt, tt, ff, c))
                            .or_else(|| Self::scan_detour(d, ff, tt).map(|c| (mf, ff, tt, c)));
                        let Some((ds, start, rejoin, counted)) = hammock else {
                            let lead = 1u32 << self.leader();
                            let mism = if mt & lead != 0 { mf } else { mt };
                            evict_and_retry!(mism);
                        };
                        // Lanes that would cross their fuel limit or
                        // their pending injection slot mid-detour cannot
                        // reconverge; they leave at this boundary, before
                        // the branch commits, and the scalar engine
                        // handles the crossing exactly.
                        let mut bail = 0u32;
                        for l in Bits(ds) {
                            let lane_count = self.dyn_count + self.extra_count[l];
                            if lane_count + 1 + counted > self.fuel {
                                bail |= 1 << l;
                            }
                            if self.injected & (1 << l) == 0 && counted > 0 {
                                let spec = self.faults[l];
                                if spec.at_instr < lane_count + 1 + counted {
                                    bail |= 1 << l;
                                }
                            }
                        }
                        if bail != 0 {
                            evict_and_retry!(bail);
                        }
                        self.dyn_count += 1;
                        self.run_detour(d, start, rejoin, ds);
                        self.pc = rejoin;
                        // The detour moved per-lane fuel/injection
                        // limits; let the caller recompute the budget.
                        return SpanEnd::Budget;
                    }
                    left -= 1;
                    self.dyn_count += 1;
                    self.pc = if mf == 0 { *t as usize } else { *f as usize };
                }
                UOp::CallInt {
                    target,
                    ret_pc,
                    args,
                    ret_dsts,
                } => {
                    if self.frames.len() >= MAX_FRAMES {
                        evict_and_retry!(self.active);
                    }
                    let mut vals = Vec::with_capacity(args.len());
                    let mut bad = 0u32;
                    for a in args.iter() {
                        match self.read_darg_lanes(a) {
                            Ok(v) => vals.push(v),
                            Err(b) => {
                                bad = b;
                                break;
                            }
                        }
                    }
                    if bad != 0 {
                        evict_and_retry!(bad);
                    }
                    self.pending_args = vals;
                    self.frames.push(Frame {
                        ret_pc: *ret_pc as usize,
                        ret_dsts: ret_dsts.clone(),
                    });
                    left -= 1;
                    self.dyn_count += 1;
                    self.pc = *target as usize;
                }
                UOp::Ret { frame_size, vals } => {
                    let mut out_vals = Vec::with_capacity(vals.len());
                    let mut bad = 0u32;
                    for v in vals.iter() {
                        match self.read_darg_lanes(v) {
                            Ok(x) => out_vals.push(x),
                            Err(b) => {
                                bad = b;
                                break;
                            }
                        }
                    }
                    if bad != 0 {
                        evict_and_retry!(bad);
                    }
                    let Some(frame) = self.frames.last() else {
                        // Outermost return: every lane completes here; the
                        // scalar machines settle the Completed result.
                        evict_and_retry!(self.active);
                    };
                    let dsts = frame.ret_dsts.as_slice();
                    if out_vals.len() != dsts.len() {
                        evict_and_retry!(self.active);
                    }
                    // Pre-flight spill-slot return-value writes against
                    // the popped SP.
                    for p in dsts {
                        if let PLoc::Slot(s, _) = p {
                            for l in Bits(self.active) {
                                let addr =
                                    self.iregs[SP_IDX][l].wrapping_add(*frame_size) + 8 * *s as u64;
                                if !self.machines[l].mem.in_bounds(addr, 8) {
                                    bad |= 1 << l;
                                }
                            }
                        }
                    }
                    if bad != 0 {
                        evict_and_retry!(bad);
                    }
                    for l in 0..L {
                        self.iregs[SP_IDX][l] = self.iregs[SP_IDX][l].wrapping_add(*frame_size);
                    }
                    let frame = self.frames.pop().expect("checked non-empty");
                    for (p, v) in frame.ret_dsts.as_slice().iter().zip(out_vals) {
                        self.write_ploc_lanes(p, v);
                    }
                    left -= 1;
                    self.dyn_count += 1;
                    self.pc = frame.ret_pc;
                }
                // Shared terminal: the scalar engines classify it.
                UOp::Trap(_) => evict_and_retry!(self.active),
                _ => unreachable!("straight-line op with run_len 0"),
            }
        }
    }

    /// Executes one pre-lowered lane op: the burn-loop fast path. Operand
    /// rows come straight out of the extended row file (register and
    /// interned-immediate rows index identically), the fused opcode
    /// dispatches through one jump table, and each arm is a fixed-trip
    /// element loop with no calls and no secondary matches. `LK::Other`
    /// falls back to the general [`Pack::straight_lanes`] path for the
    /// original micro-op. Same contract as `straight_lanes`: `Err(mask)`
    /// means nothing committed.
    #[inline(always)]
    fn lane_op(&mut self, q: LOp, d: &DecodedProg, i: usize) -> Result<(), u32> {
        const M32: u64 = 0xFFFF_FFFF;
        macro_rules! alu {
            (|$x:ident, $y:ident| $e:expr) => {{
                let av = self.iregs[q.a as usize & (IROWS - 1)];
                let bv = self.iregs[q.b as usize & (IROWS - 1)];
                let mut dv = [0u64; L];
                for l in 0..L {
                    let ($x, $y) = (av[l], bv[l]);
                    dv[l] = $e;
                }
                self.iregs[q.dst as usize & (NUM_IREGS - 1)] = dv;
            }};
        }
        macro_rules! fpu {
            (|$x:ident, $y:ident| $e:expr) => {{
                let av = self.fregs[q.a as usize & (FROWS - 1)];
                let bv = self.fregs[q.b as usize & (FROWS - 1)];
                let mut dv = [0.0f64; L];
                for l in 0..L {
                    let ($x, $y) = (av[l], bv[l]);
                    dv[l] = $e;
                }
                self.fregs[q.dst as usize & (NUM_FREGS - 1)] = dv;
            }};
        }
        macro_rules! fcmp {
            (|$x:ident, $y:ident| $e:expr) => {{
                let av = self.fregs[q.a as usize & (FROWS - 1)];
                let bv = self.fregs[q.b as usize & (FROWS - 1)];
                let mut dv = [0u64; L];
                for l in 0..L {
                    let ($x, $y) = (av[l], bv[l]);
                    dv[l] = $e as u64;
                }
                self.iregs[q.dst as usize & (NUM_IREGS - 1)] = dv;
            }};
        }
        match q.code {
            LK::Add64 => alu!(|x, y| x.wrapping_add(y)),
            LK::Sub64 => alu!(|x, y| x.wrapping_sub(y)),
            LK::Mul64 => alu!(|x, y| x.wrapping_mul(y)),
            LK::And64 => alu!(|x, y| x & y),
            LK::Or64 => alu!(|x, y| x | y),
            LK::Xor64 => alu!(|x, y| x ^ y),
            LK::Shl64 => alu!(|x, y| x.wrapping_shl((y % 64) as u32)),
            LK::ShrL64 => alu!(|x, y| x.wrapping_shr((y % 64) as u32)),
            LK::ShrA64 => alu!(|x, y| (x as i64).wrapping_shr((y % 64) as u32) as u64),
            LK::Add32 => alu!(|x, y| (x & M32).wrapping_add(y & M32) & M32),
            LK::Sub32 => alu!(|x, y| (x & M32).wrapping_sub(y & M32) & M32),
            LK::Mul32 => alu!(|x, y| (x & M32).wrapping_mul(y & M32) & M32),
            LK::And32 => alu!(|x, y| x & y & M32),
            LK::Or32 => alu!(|x, y| (x | y) & M32),
            LK::Xor32 => alu!(|x, y| (x ^ y) & M32),
            LK::Shl32 => alu!(|x, y| (x & M32).wrapping_shl(((y & M32) % 32) as u32) & M32),
            LK::ShrL32 => alu!(|x, y| (x & M32).wrapping_shr(((y & M32) % 32) as u32) & M32),
            LK::ShrA32 => {
                alu!(
                    |x, y| ((x as u32 as i32 as i64).wrapping_shr(((y & M32) % 32) as u32)) as u64
                        & M32
                )
            }
            LK::Eq64 => alu!(|x, y| (x == y) as u64),
            LK::Ne64 => alu!(|x, y| (x != y) as u64),
            LK::LtU64 => alu!(|x, y| (x < y) as u64),
            LK::LeU64 => alu!(|x, y| (x <= y) as u64),
            LK::LtS64 => alu!(|x, y| ((x as i64) < (y as i64)) as u64),
            LK::LeS64 => alu!(|x, y| ((x as i64) <= (y as i64)) as u64),
            LK::Eq32 => alu!(|x, y| (x & M32 == y & M32) as u64),
            LK::Ne32 => alu!(|x, y| (x & M32 != y & M32) as u64),
            LK::LtU32 => alu!(|x, y| ((x & M32) < (y & M32)) as u64),
            LK::LeU32 => alu!(|x, y| ((x & M32) <= (y & M32)) as u64),
            LK::LtS32 => alu!(|x, y| ((x as u32 as i32) < (y as u32 as i32)) as u64),
            LK::LeS32 => alu!(|x, y| ((x as u32 as i32) <= (y as u32 as i32)) as u64),
            LK::Mov => {
                let v = self.iregs[q.a as usize & (IROWS - 1)];
                self.iregs[q.dst as usize & (NUM_IREGS - 1)] = v;
            }
            LK::Select => {
                let cv = self.iregs[q.a as usize & (IROWS - 1)];
                let tv = self.iregs[q.b as usize & (IROWS - 1)];
                let fv = self.iregs[q.c as usize & (IROWS - 1)];
                let mut dv = [0u64; L];
                for l in 0..L {
                    dv[l] = if cv[l] != 0 { tv[l] } else { fv[l] };
                }
                self.iregs[q.dst as usize & (NUM_IREGS - 1)] = dv;
            }
            LK::FAdd => fpu!(|x, y| x + y),
            LK::FSub => fpu!(|x, y| x - y),
            LK::FMul => fpu!(|x, y| x * y),
            LK::FDiv => fpu!(|x, y| x / y),
            LK::FMov => {
                let v = self.fregs[q.a as usize & (FROWS - 1)];
                self.fregs[q.dst as usize & (NUM_FREGS - 1)] = v;
            }
            LK::FEq => fcmp!(|x, y| x == y),
            LK::FNe => fcmp!(|x, y| x != y),
            LK::FLt => fcmp!(|x, y| x < y),
            LK::FLe => fcmp!(|x, y| x <= y),
            LK::CvtIF => {
                let sv = self.iregs[q.a as usize & (IROWS - 1)];
                let mut dv = [0.0f64; L];
                for l in 0..L {
                    dv[l] = sv[l] as i64 as f64;
                }
                self.fregs[q.dst as usize & (NUM_FREGS - 1)] = dv;
            }
            LK::CvtFI => {
                let sv = self.fregs[q.a as usize & (FROWS - 1)];
                let mut dv = [0u64; L];
                for l in 0..L {
                    dv[l] = sv[l] as i64 as u64;
                }
                self.iregs[q.dst as usize & (NUM_IREGS - 1)] = dv;
            }
            LK::Other => return self.straight_lanes(&d.uops[i]),
        }
        Ok(())
    }

    /// Executes one straight-line op across every active lane, or returns
    /// the anomaly lane mask with **no state committed** — the caller
    /// settles the boundary before this op and evicts the flagged lanes,
    /// whose scalar machines then re-execute it from identical state.
    ///
    /// `inline(always)`: this is the burn loop's body, called from exactly
    /// one place; out-of-line it would round-trip every `[u64; L]` operand
    /// through the stack.
    #[inline(always)]
    fn straight_lanes(&mut self, u: &UOp) -> Result<(), u32> {
        match u {
            UOp::Alu64 { op, dst, a, b } => return self.alu_op(*op, Width::W64, *dst, a, b),
            UOp::Alu32 { op, dst, a, b } => return self.alu_op(*op, Width::W32, *dst, a, b),
            UOp::Cmp64 { op, dst, a, b } => {
                let av = self.src(a);
                let bv = self.src(b);
                let di = *dst as usize & (NUM_IREGS - 1);
                let mut dv = [0u64; L];
                cmp_lanes(*op, Width::W64, &av, &bv, &mut dv);
                self.iregs[di] = dv;
            }
            UOp::Cmp32 { op, dst, a, b } => {
                let av = self.src(a);
                let bv = self.src(b);
                let di = *dst as usize & (NUM_IREGS - 1);
                let mut dv = [0u64; L];
                cmp_lanes(*op, Width::W32, &av, &bv, &mut dv);
                self.iregs[di] = dv;
            }
            UOp::Mov { dst, src } => {
                let v = self.src(src);
                self.iregs[*dst as usize & (NUM_IREGS - 1)] = v;
            }
            UOp::Select { dst, cond, t, f } => {
                let cv = self.ireg(*cond);
                let tv = self.src(t);
                let fv = self.src(f);
                let mut dv = [0u64; L];
                for i in 0..L {
                    dv[i] = if cv[i] != 0 { tv[i] } else { fv[i] };
                }
                self.iregs[*dst as usize & (NUM_IREGS - 1)] = dv;
            }
            UOp::Load {
                dst,
                base,
                offset,
                bytes,
                ext,
            } => {
                let bv = self.ireg(*base);
                let di = *dst as usize & (NUM_IREGS - 1);
                // Uniform-address fast path: translate once, read each
                // lane's (layout-identical) memory raw.
                if let Some(b0) = self.uniform_addr(&bv) {
                    let addr = b0.wrapping_add(*offset);
                    if !(layout::OUT_BASE..layout::OUT_BASE + layout::OUT_SIZE).contains(&addr) {
                        if let Some(r) = self.machines[0].mem.resolve(addr, *bytes) {
                            let mut vals = self.iregs[di];
                            for l in Bits(self.active) {
                                let raw = self.machines[l].mem.read_resolved(r, *bytes);
                                vals[l] = match ext {
                                    Ext::Zero => raw,
                                    Ext::S1 => raw as u8 as i8 as i64 as u64,
                                    Ext::S2 => raw as u16 as i16 as i64 as u64,
                                    Ext::S4 => raw as u32 as i32 as i64 as u64,
                                };
                            }
                            self.iregs[di] = vals;
                            return Ok(());
                        }
                    }
                    // OUT-range or unmapped: uniformly anomalous, so the
                    // slow path below flags every lane.
                }
                let mut vals = self.iregs[di];
                let mut bad = 0u32;
                for l in Bits(self.active) {
                    let addr = bv[l].wrapping_add(*offset);
                    if (layout::OUT_BASE..layout::OUT_BASE + layout::OUT_SIZE).contains(&addr) {
                        bad |= 1 << l; // output page is write-only
                        continue;
                    }
                    match self.machines[l].mem.read(addr, *bytes) {
                        Ok(raw) => {
                            vals[l] = match ext {
                                Ext::Zero => raw,
                                Ext::S1 => raw as u8 as i8 as i64 as u64,
                                Ext::S2 => raw as u16 as i16 as i64 as u64,
                                Ext::S4 => raw as u32 as i32 as i64 as u64,
                            }
                        }
                        Err(_) => bad |= 1 << l,
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                self.iregs[di] = vals;
            }
            UOp::Store {
                base,
                offset,
                src,
                bytes,
                mask,
            } => {
                let bv = self.ireg(*base);
                let sv = self.src(src);
                // Uniform-address fast path: classification (MMIO vs
                // memory) and translation are shared by construction.
                if let Some(b0) = self.uniform_addr(&bv) {
                    let addr = b0.wrapping_add(*offset);
                    if addr >= layout::OUT_BASE
                        && addr + bytes <= layout::OUT_BASE + layout::OUT_SIZE
                    {
                        let mut row = [0u64; L];
                        for l in Bits(self.active) {
                            row[l] = sv[l] & mask;
                        }
                        self.out_extra.push(row);
                        return Ok(());
                    }
                    if let Some(r) = self.machines[0].mem.resolve(addr, *bytes) {
                        for l in Bits(self.active) {
                            self.machines[l].mem.write_resolved(r, *bytes, sv[l]);
                        }
                        return Ok(());
                    }
                }
                let mut mmio = 0u32;
                let mut bad = 0u32;
                for l in Bits(self.active) {
                    let addr = bv[l].wrapping_add(*offset);
                    if addr >= layout::OUT_BASE
                        && addr + bytes <= layout::OUT_BASE + layout::OUT_SIZE
                    {
                        mmio |= 1 << l;
                    } else if !self.machines[l].mem.in_bounds(addr, *bytes) {
                        bad |= 1 << l;
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                // MMIO pushes and memory writes order differently per
                // lane; lanes classified unlike the leader leave.
                let lead_mmio = mmio & (1 << self.leader()) != 0;
                let mism = if lead_mmio {
                    self.active & !mmio
                } else {
                    self.active & mmio
                };
                if mism != 0 {
                    return Err(mism);
                }
                if lead_mmio {
                    let mut row = [0u64; L];
                    for l in Bits(self.active) {
                        row[l] = sv[l] & mask;
                    }
                    self.out_extra.push(row);
                } else {
                    for l in Bits(self.active) {
                        let addr = bv[l].wrapping_add(*offset);
                        self.machines[l]
                            .mem
                            .write(addr, *bytes, sv[l])
                            .expect("store pre-flighted in bounds");
                    }
                }
            }
            UOp::Fpu { op, dst, a, b } => {
                let av = self.fregs[*a as usize & (NUM_FREGS - 1)];
                let bv = self.fregs[*b as usize & (NUM_FREGS - 1)];
                let mut dv = [0.0f64; L];
                fpu_lanes(*op, &av, &bv, &mut dv);
                self.fregs[*dst as usize & (NUM_FREGS - 1)] = dv;
            }
            UOp::FMovImm { dst, bits } => {
                self.fregs[*dst as usize & (NUM_FREGS - 1)] = [f64::from_bits(*bits); L];
            }
            UOp::FMov { dst, src } => {
                let v = self.fregs[*src as usize & (NUM_FREGS - 1)];
                self.fregs[*dst as usize & (NUM_FREGS - 1)] = v;
            }
            UOp::FCmp { op, dst, a, b } => {
                let av = self.fregs[*a as usize & (NUM_FREGS - 1)];
                let bv = self.fregs[*b as usize & (NUM_FREGS - 1)];
                let mut dv = [0u64; L];
                for i in 0..L {
                    let (x, y) = (av[i], bv[i]);
                    dv[i] = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::LtS | CmpOp::LtU => x < y,
                        CmpOp::LeS | CmpOp::LeU => x <= y,
                    } as u64;
                }
                self.iregs[*dst as usize & (NUM_IREGS - 1)] = dv;
            }
            UOp::CvtIF { dst, src } => {
                let sv = self.ireg(*src);
                let mut dv = [0.0f64; L];
                for i in 0..L {
                    dv[i] = sv[i] as i64 as f64;
                }
                self.fregs[*dst as usize & (NUM_FREGS - 1)] = dv;
            }
            UOp::CvtFI { dst, src } => {
                let sv = self.fregs[*src as usize & (NUM_FREGS - 1)];
                let mut dv = [0u64; L];
                for i in 0..L {
                    dv[i] = sv[i] as i64 as u64;
                }
                self.iregs[*dst as usize & (NUM_IREGS - 1)] = dv;
            }
            UOp::FLoad { dst, base, offset } => {
                let bv = self.ireg(*base);
                let di = *dst as usize & (NUM_FREGS - 1);
                if let Some(b0) = self.uniform_addr(&bv) {
                    let addr = b0.wrapping_add(*offset);
                    if addr < layout::OUT_BASE {
                        if let Some(r) = self.machines[0].mem.resolve(addr, 8) {
                            let mut vals = self.fregs[di];
                            for l in Bits(self.active) {
                                vals[l] = f64::from_bits(self.machines[l].mem.read_resolved(r, 8));
                            }
                            self.fregs[di] = vals;
                            return Ok(());
                        }
                    }
                }
                let mut vals = self.fregs[di];
                let mut bad = 0u32;
                for l in Bits(self.active) {
                    let addr = bv[l].wrapping_add(*offset);
                    if addr >= layout::OUT_BASE {
                        bad |= 1 << l;
                        continue;
                    }
                    match self.machines[l].mem.read(addr, 8) {
                        Ok(raw) => vals[l] = f64::from_bits(raw),
                        Err(_) => bad |= 1 << l,
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                self.fregs[di] = vals;
            }
            UOp::FStore { base, offset, src } => {
                let bv = self.ireg(*base);
                let sv = self.fregs[*src as usize & (NUM_FREGS - 1)];
                if let Some(b0) = self.uniform_addr(&bv) {
                    let addr = b0.wrapping_add(*offset);
                    if addr >= layout::OUT_BASE && addr + 8 <= layout::OUT_BASE + layout::OUT_SIZE {
                        let mut row = [0u64; L];
                        for l in Bits(self.active) {
                            row[l] = sv[l].to_bits();
                        }
                        self.out_extra.push(row);
                        return Ok(());
                    }
                    if let Some(r) = self.machines[0].mem.resolve(addr, 8) {
                        for l in Bits(self.active) {
                            self.machines[l].mem.write_resolved(r, 8, sv[l].to_bits());
                        }
                        return Ok(());
                    }
                }
                let mut mmio = 0u32;
                let mut bad = 0u32;
                for l in Bits(self.active) {
                    let addr = bv[l].wrapping_add(*offset);
                    if addr >= layout::OUT_BASE && addr + 8 <= layout::OUT_BASE + layout::OUT_SIZE {
                        mmio |= 1 << l;
                    } else if !self.machines[l].mem.in_bounds(addr, 8) {
                        bad |= 1 << l;
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                let lead_mmio = mmio & (1 << self.leader()) != 0;
                let mism = if lead_mmio {
                    self.active & !mmio
                } else {
                    self.active & mmio
                };
                if mism != 0 {
                    return Err(mism);
                }
                if lead_mmio {
                    let mut row = [0u64; L];
                    for l in Bits(self.active) {
                        row[l] = sv[l].to_bits();
                    }
                    self.out_extra.push(row);
                } else {
                    for l in Bits(self.active) {
                        let addr = bv[l].wrapping_add(*offset);
                        self.machines[l]
                            .mem
                            .write(addr, 8, sv[l].to_bits())
                            .expect("store pre-flighted in bounds");
                    }
                }
            }
            UOp::CallExt { func, arg } => {
                let v = self.read_darg_lanes(arg)?;
                let row = match (func, v) {
                    (ExtFunc::Emit, LaneVal::I(x)) => x,
                    (ExtFunc::EmitF, LaneVal::F(x)) => {
                        let mut bits = [0u64; L];
                        for i in 0..L {
                            bits[i] = x[i].to_bits();
                        }
                        bits
                    }
                    // Class mismatch is a shared (lane-independent)
                    // fault; the scalar engine settles it.
                    _ => return Err(self.active),
                };
                self.out_extra.push(row);
            }
            UOp::Enter { frame_size, params } => {
                let sp = self.iregs[SP_IDX];
                let mut new_sp = [0u64; L];
                let mut bad = 0u32;
                for l in 0..L {
                    new_sp[l] = sp[l].wrapping_sub(*frame_size);
                }
                for l in Bits(self.active) {
                    if !(layout::STACK_BASE..=layout::STACK_TOP).contains(&new_sp[l]) {
                        bad |= 1 << l; // stack overflow
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                if self.pending_args.len() != params.len() {
                    return Err(self.active);
                }
                // Pre-flight every spill-slot param write against the
                // new SP before committing anything.
                for p in params.iter() {
                    if let DLoc::Slot(off) = p {
                        for l in Bits(self.active) {
                            let addr = new_sp[l].wrapping_add(*off);
                            if !self.machines[l].mem.in_bounds(addr, 8) {
                                bad |= 1 << l;
                            }
                        }
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                self.iregs[SP_IDX] = new_sp;
                let vals = std::mem::take(&mut self.pending_args);
                for (p, v) in params.iter().zip(vals) {
                    self.write_dloc_lanes(p, v);
                }
            }
            _ => unreachable!("control flow inside a straight-line run"),
        }
        Ok(())
    }

    /// Scans the block at `start` for a register-only detour that rejoins
    /// the divergent branch's other target `rejoin` within
    /// [`DETOUR_MAX`](Self::scan_detour) micro-ops, returning the number
    /// of counted instructions along it. Memory operations, calls,
    /// returns, traps, faultable ALU ops (division) and nested branches
    /// all disqualify: a reconvergible detour must touch nothing but the
    /// register file, so it can be replayed for a subset of lanes with no
    /// per-lane anomaly possible.
    fn scan_detour(d: &DecodedProg, start: usize, rejoin: usize) -> Option<u64> {
        const DETOUR_MAX: usize = 32;
        let mut pc = start;
        let mut counted = 0u64;
        for _ in 0..DETOUR_MAX {
            if pc == rejoin {
                return Some(counted);
            }
            match &d.uops[pc] {
                UOp::Probe(_) => pc += 1,
                UOp::Jump(t) => {
                    counted += 1;
                    pc = *t as usize;
                }
                UOp::Alu64 { op, .. } | UOp::Alu32 { op, .. } => {
                    if matches!(op, AluOp::DivU | AluOp::DivS | AluOp::RemU | AluOp::RemS) {
                        return None;
                    }
                    counted += 1;
                    pc += 1;
                }
                UOp::Cmp64 { .. }
                | UOp::Cmp32 { .. }
                | UOp::Mov { .. }
                | UOp::Select { .. }
                | UOp::Fpu { .. }
                | UOp::FMovImm { .. }
                | UOp::FMov { .. }
                | UOp::FCmp { .. }
                | UOp::CvtIF { .. }
                | UOp::CvtFI { .. } => {
                    counted += 1;
                    pc += 1;
                }
                _ => return None,
            }
        }
        None
    }

    /// Replays a scanned detour for the lanes in `mask`: every op executes
    /// pack-wide but commits only the detour lanes' columns, and those
    /// lanes' retirement skew (extra counted instructions, extra probe
    /// events) is recorded so fuel, injection slots and final results stay
    /// exact per lane.
    fn run_detour(&mut self, d: &DecodedProg, start: usize, rejoin: usize, mask: u32) {
        let mut pc = start;
        while pc != rejoin {
            match &d.uops[pc] {
                UOp::Probe(e) => {
                    for l in Bits(mask) {
                        bump_probe(&mut self.extra_probes[l], *e);
                    }
                    pc += 1;
                }
                UOp::Jump(t) => {
                    self.bump_extra(mask);
                    pc = *t as usize;
                }
                u => {
                    self.exec_masked(u, mask);
                    self.bump_extra(mask);
                    pc += 1;
                }
            }
        }
    }

    fn bump_extra(&mut self, mask: u32) {
        for l in Bits(mask) {
            self.extra_count[l] += 1;
        }
    }

    /// Executes one reconvergible op for the lanes in `mask` only. Each
    /// such op writes exactly one register row, so the op runs pack-wide
    /// and the columns of the lanes *not* on the detour are restored.
    fn exec_masked(&mut self, u: &UOp, mask: u32) {
        let keep = ((1u32 << L) - 1) & !mask;
        match u {
            UOp::Alu64 { dst, .. }
            | UOp::Alu32 { dst, .. }
            | UOp::Cmp64 { dst, .. }
            | UOp::Cmp32 { dst, .. }
            | UOp::Mov { dst, .. }
            | UOp::Select { dst, .. }
            | UOp::FCmp { dst, .. }
            | UOp::CvtFI { dst, .. } => {
                let di = *dst as usize & (NUM_IREGS - 1);
                let saved = self.iregs[di];
                let r = self.straight_lanes(u);
                debug_assert!(r.is_ok(), "reconvergible op cannot fault");
                for l in Bits(keep) {
                    self.iregs[di][l] = saved[l];
                }
            }
            UOp::Fpu { dst, .. }
            | UOp::FMovImm { dst, .. }
            | UOp::FMov { dst, .. }
            | UOp::CvtIF { dst, .. } => {
                let di = *dst as usize & (NUM_FREGS - 1);
                let saved = self.fregs[di];
                let r = self.straight_lanes(u);
                debug_assert!(r.is_ok(), "reconvergible op cannot fault");
                for l in Bits(keep) {
                    self.fregs[di][l] = saved[l];
                }
            }
            _ => unreachable!("non-reconvergible op on a detour"),
        }
    }

    /// One lane-wide ALU op: any lane whose division would fault is
    /// reported for eviction before anything commits.
    ///
    /// `inline(never)` is deliberate: as a small standalone function the
    /// loop vectorizer turns the inlined [`alu_lanes`] ladder into SIMD,
    /// which it refuses to do inside the giant dispatch match — there the
    /// lane rows end up scalarized across spilled registers. The call
    /// passes two bytes and two `Src` refs, so the boundary is cheap.
    #[inline(never)]
    fn alu_op(&mut self, op: AluOp, width: Width, dst: u8, a: &Src, b: &Src) -> Result<(), u32> {
        let av = self.src(a);
        let bv = self.src(b);
        let di = dst as usize & (NUM_IREGS - 1);
        let mut dv = self.iregs[di];
        let faulted = alu_lanes(op, width, &av, &bv, &mut dv) & self.active;
        if faulted != 0 {
            return Err(faulted);
        }
        self.iregs[di] = dv;
        Ok(())
    }

    /// Reads a predecoded call argument for every lane; `Err` carries the
    /// mask of active lanes whose spill-slot read would fault.
    fn read_darg_lanes(&mut self, a: &DArg) -> Result<LaneVal<L>, u32> {
        Ok(match a {
            DArg::Imm(i) => LaneVal::I([*i; L]),
            DArg::RegI(r) => LaneVal::I(self.ireg(*r)),
            DArg::RegF(r) => LaneVal::F(self.fregs[*r as usize & (NUM_FREGS - 1)]),
            DArg::SlotI(off) | DArg::SlotF(off) => {
                let sp = self.iregs[SP_IDX];
                let mut bits = [0u64; L];
                let mut bad = 0u32;
                for l in Bits(self.active) {
                    let addr = sp[l].wrapping_add(*off);
                    match self.machines[l].mem.read(addr, 8) {
                        Ok(v) => bits[l] = v,
                        Err(_) => bad |= 1 << l,
                    }
                }
                if bad != 0 {
                    return Err(bad);
                }
                if matches!(a, DArg::SlotI(_)) {
                    LaneVal::I(bits)
                } else {
                    let mut f = [0.0f64; L];
                    for i in 0..L {
                        f[i] = f64::from_bits(bits[i]);
                    }
                    LaneVal::F(f)
                }
            }
        })
    }

    /// Writes a param destination for every lane (lane counterpart of the
    /// decoded `write_dloc`). Slot writes must have been pre-flighted.
    fn write_dloc_lanes(&mut self, p: &DLoc, v: LaneVal<L>) {
        match p {
            DLoc::Reg(i) => match v {
                LaneVal::I(x) => self.iregs[*i as usize & (NUM_IREGS - 1)] = x,
                LaneVal::F(x) => self.fregs[*i as usize & (NUM_FREGS - 1)] = x,
            },
            DLoc::Slot(off) => {
                let sp = self.iregs[SP_IDX];
                let bits = match v {
                    LaneVal::I(x) => x,
                    LaneVal::F(x) => {
                        let mut b = [0u64; L];
                        for i in 0..L {
                            b[i] = x[i].to_bits();
                        }
                        b
                    }
                };
                for l in Bits(self.active) {
                    let addr = sp[l].wrapping_add(*off);
                    self.machines[l]
                        .mem
                        .write(addr, 8, bits[l])
                        .expect("slot write pre-flighted in bounds");
                }
            }
        }
    }

    /// Writes a return destination for every lane (lane counterpart of the
    /// legacy `write_ploc`). Slot writes must have been pre-flighted.
    fn write_ploc_lanes(&mut self, p: &PLoc, v: LaneVal<L>) {
        match p {
            PLoc::Reg(r) => match v {
                LaneVal::I(x) => self.iregs[r.index() as usize & (NUM_IREGS - 1)] = x,
                LaneVal::F(x) => self.fregs[r.index() as usize & (NUM_FREGS - 1)] = x,
            },
            PLoc::Slot(s, _class) => {
                let sp = self.iregs[SP_IDX];
                let bits = match v {
                    LaneVal::I(x) => x,
                    LaneVal::F(x) => {
                        let mut b = [0u64; L];
                        for i in 0..L {
                            b[i] = x[i].to_bits();
                        }
                        b
                    }
                };
                for l in Bits(self.active) {
                    let addr = sp[l] + 8 * *s as u64;
                    self.machines[l]
                        .mem
                        .write(addr, 8, bits[l])
                        .expect("slot write pre-flighted in bounds");
                }
            }
        }
    }

    /// Evicts every lane in `mask` (intersected with the active set).
    fn evict_lanes(&mut self, runner: &Runner<'p>, mask: u32) {
        for l in Bits(mask & self.active) {
            self.evict(runner, l);
        }
    }

    /// Evicts lane `l`: copies its register column and the shared state
    /// into its scalar machine, runs that machine to completion with the
    /// lane's fault, and records the classified result. Nothing about the
    /// pending operation has been committed, so the scalar engine resumes
    /// from exactly the state a pure scalar run would occupy.
    fn evict(&mut self, runner: &Runner<'p>, l: usize) {
        debug_assert!(self.active & (1 << l) != 0, "evicting inactive lane {l}");
        self.active &= !(1 << l);
        let m = &mut self.machines[l];
        for r in 0..NUM_IREGS {
            m.iregs[r] = self.iregs[r][l];
        }
        for r in 0..NUM_FREGS {
            m.fregs[r] = self.fregs[r][l];
        }
        m.pc = self.pc;
        m.dyn_count = self.dyn_count + self.extra_count[l];
        m.frames.clone_from(&self.frames);
        m.pending_args.clear();
        for v in &self.pending_args {
            m.pending_args.push(match v {
                LaneVal::I(x) => Val::I(x[l]),
                LaneVal::F(x) => Val::F(x[l]),
            });
        }
        m.out.extend(self.out_extra.iter().map(|row| row[l]));
        m.probes = self.probes;
        m.probes.vote_repairs += self.extra_probes[l].vote_repairs;
        m.probes.trump_recovers += self.extra_probes[l].trump_recovers;
        m.injected = self.injected & (1 << l) != 0;
        m.fault_pc = self.fault_pc[l];
        let result = m.run_mut(Some(GenFault::from(self.faults[l])));
        self.results[l] = Some((classify(&runner.golden, &result), result));
    }
}

/// Runtime-width dispatch over the supported pack widths.
enum Core<'p> {
    W2(Box<Pack<'p, 2>>),
    W4(Box<Pack<'p, 4>>),
    W8(Box<Pack<'p, 8>>),
    W16(Box<Pack<'p, 16>>),
}

/// A reusable lane-parallel fault-run executor: one `L`-wide SPMD pack
/// (plus its `L` scalar eviction machines), many injected groups. The
/// lane counterpart of [`crate::Replayer`]; construct via
/// [`Runner::lane_replayer`].
pub struct LaneReplayer<'r, 'p> {
    runner: &'r Runner<'p>,
    decoded: Arc<DecodedProg>,
    lprog: LaneProg,
    core: Core<'p>,
}

impl<'r, 'p> LaneReplayer<'r, 'p> {
    pub(crate) fn new(runner: &'r Runner<'p>, lanes: usize) -> Self {
        let decoded = Arc::clone(
            runner
                .decoded()
                .expect("lane execution requires the decoded engine"),
        );
        let lprog = LaneProg::new(&decoded);
        let core = if lanes >= 16 {
            Core::W16(Box::new(Pack::new(runner, &lprog)))
        } else if lanes >= 8 {
            Core::W8(Box::new(Pack::new(runner, &lprog)))
        } else if lanes >= 4 {
            Core::W4(Box::new(Pack::new(runner, &lprog)))
        } else {
            Core::W2(Box::new(Pack::new(runner, &lprog)))
        };
        LaneReplayer {
            runner,
            decoded,
            lprog,
            core,
        }
    }

    /// The pack width (group capacity).
    pub fn lanes(&self) -> usize {
        match &self.core {
            Core::W2(_) => 2,
            Core::W4(_) => 4,
            Core::W8(_) => 8,
            Core::W16(_) => 16,
        }
    }

    /// Runs one group of 1..=[`LaneReplayer::lanes`] faults in lockstep
    /// and returns `(outcome, result)` per fault, in input order — each
    /// bit-identical to what [`crate::Replayer::run_fault`] returns for
    /// the same fault.
    ///
    /// Groups whose faults share nearby injection slots amortize best;
    /// callers should sort fault batches by `at_instr` before grouping.
    ///
    /// # Panics
    ///
    /// Panics when `faults` is empty or larger than the pack width.
    pub fn run_fault_group(&mut self, faults: &[FaultSpec]) -> Vec<(Outcome, RunResult)> {
        let d = Arc::clone(&self.decoded);
        let lp = &self.lprog;
        match &mut self.core {
            Core::W2(p) => p.run_group(self.runner, &d, lp, faults),
            Core::W4(p) => p.run_group(self.runner, &d, lp, faults),
            Core::W8(p) => p.run_group(self.runner, &d, lp, faults),
            Core::W16(p) => p.run_group(self.runner, &d, lp, faults),
        }
    }

    /// Like [`LaneReplayer::run_fault_group`], but returns
    /// provenance-annotated [`GenFaultRecord`]s (lane counterpart of
    /// [`crate::Replayer::run_fault_record`]).
    pub fn run_fault_group_records(
        &mut self,
        faults: &[FaultSpec],
    ) -> Vec<(GenFaultRecord, RunResult)> {
        self.run_fault_group(faults)
            .into_iter()
            .zip(faults)
            .map(|((outcome, result), &spec)| {
                (self.runner.record(spec.into(), outcome, &result), result)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ExecEngine, MachineConfig};
    use sor_ir::{MemWidth, ModuleBuilder, Operand, RegClass, Width};
    use sor_regalloc::{lower, LowerConfig};

    /// A program with calls, loops, branches, stores and float traffic —
    /// enough structure that evictions hit every anomaly class.
    fn busy_program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("lanes");
        let g = mb.alloc_global_u64s("g", &[7, 0, 3]);

        let mut callee = mb.function("mix");
        let p = callee.param(RegClass::Int);
        let q = callee.add(Width::W64, p, 5i64);
        let r = callee.mul(Width::W32, q, p);
        callee.set_ret_count(1);
        callee.ret(&[Operand::reg(r)]);
        let callee_id = callee.finish();

        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let n = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(1);
        for i in 0..5 {
            let mixed = f.call(callee_id, &[Operand::reg(acc)], &[RegClass::Int]);
            acc = f.add(Width::W64, mixed[0], i as i64);
            f.store(MemWidth::B8, base, 8, acc);
            let cmp = f.cmp(sor_ir::CmpOp::LtU, Width::W64, acc, 1_000_000i64);
            acc = f.select(cmp, acc, n);
        }
        let back = f.load(MemWidth::B8, base, 8);
        let sum = f.add(Width::W64, back, n);
        f.emit(Operand::reg(sum));
        f.ret(&[]);
        let id = f.finish();
        let m = mb.finish(id);
        lower(&m, &LowerConfig::default()).unwrap()
    }

    fn assert_same(scalar: &(Outcome, RunResult), lane: &(Outcome, RunResult), f: FaultSpec) {
        assert_eq!(scalar.0, lane.0, "{f}: outcome diverged");
        assert_eq!(scalar.1, lane.1, "{f}: result diverged");
    }

    /// The tentpole pin: for every (slot, reg, bit) sweep grouped every
    /// which way, lane-batched execution returns results bit-identical to
    /// the scalar replayer — across all pack widths and with checkpoints
    /// both dense and disabled.
    #[test]
    fn lane_groups_are_bit_exact_with_scalar_replay() {
        let prog = busy_program();
        for interval in [0u64, 5] {
            let runner = Runner::new(
                &prog,
                &MachineConfig {
                    checkpoint_interval: interval,
                    ..MachineConfig::default()
                },
            );
            let golden_len = runner.golden().dyn_instrs;
            let mut scalar = runner.replayer();
            let faults: Vec<FaultSpec> = (0..golden_len)
                .flat_map(|at| {
                    [(3u8, 62u8), (5, 0), (8, 17)]
                        .into_iter()
                        .map(move |(reg, bit)| FaultSpec::new(at, reg, bit))
                })
                .collect();
            let reference: Vec<(Outcome, RunResult)> =
                faults.iter().map(|&f| scalar.run_fault(f)).collect();
            for lanes in [2usize, 4, 8] {
                let mut lr = runner.lane_replayer(lanes);
                assert_eq!(lr.lanes(), lanes);
                for group in faults.chunks(lanes) {
                    let start = (group.as_ptr() as usize - faults.as_ptr() as usize)
                        / std::mem::size_of::<FaultSpec>();
                    let got = lr.run_fault_group(group);
                    for (k, lane_res) in got.iter().enumerate() {
                        assert_same(&reference[start + k], lane_res, group[k]);
                    }
                }
            }
        }
    }

    /// Undersized groups — including singletons — and groups mixing
    /// pre-run and past-end slots all match scalar replay.
    #[test]
    fn partial_and_degenerate_groups_match_scalar() {
        let prog = busy_program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let late = runner.golden().dyn_instrs + 3;
        let mut scalar = runner.replayer();
        let mut lr = runner.lane_replayer(8);
        let groups: Vec<Vec<FaultSpec>> = vec![
            vec![FaultSpec::new(0, 4, 1)],
            vec![FaultSpec::new(2, 4, 63), FaultSpec::new(2, 4, 62)],
            vec![
                FaultSpec::new(1, 3, 7),
                FaultSpec::new(late, 3, 7),
                FaultSpec::new(4, 9, 33),
            ],
            vec![FaultSpec::new(late, 27, 63), FaultSpec::new(late, 26, 0)],
        ];
        for group in groups {
            let got = lr.run_fault_group(&group);
            for (k, lane_res) in got.iter().enumerate() {
                assert_same(&scalar.run_fault(group[k]), lane_res, group[k]);
            }
        }
    }

    /// Fault records carry the same provenance either way.
    #[test]
    fn lane_records_match_scalar_records() {
        let prog = busy_program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let mut scalar = runner.replayer();
        let mut lr = runner.lane_replayer(4);
        let group = [
            FaultSpec::new(3, 5, 40),
            FaultSpec::new(9, 6, 2),
            FaultSpec::new(15, 7, 58),
            FaultSpec::new(21, 8, 11),
        ];
        for ((rec, res), &f) in lr.run_fault_group_records(&group).iter().zip(&group) {
            let (sr, ss) = scalar.run_fault_record(f);
            assert_eq!(*rec, sr, "{f}");
            assert_eq!(*res, ss, "{f}");
        }
    }

    #[test]
    #[should_panic(expected = "decoded engine")]
    fn lane_replayer_requires_the_decoded_engine() {
        let prog = busy_program();
        let runner = Runner::new(
            &prog,
            &MachineConfig {
                engine: ExecEngine::Legacy,
                ..MachineConfig::default()
            },
        );
        let _ = runner.lane_replayer(4);
    }
}

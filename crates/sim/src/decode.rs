//! One-time predecoding of a [`Program`] into a flat micro-op image.
//!
//! The legacy interpreter re-matches [`sor_ir::PInst`] and re-decodes
//! [`sor_ir::PArg`]/[`sor_ir::POperand`] operands — immediate sign
//! conversion, register-class dispatch, spill-slot address arithmetic —
//! for every dynamic instruction. [`DecodedProg`] hoists all of that to
//! translation time: each static instruction becomes one fully-resolved
//! [`UOp`] whose operands are either a register index or an
//! already-converted 64-bit immediate, whose memory accesses carry their
//! byte count, extension kind, and store mask, and whose control transfers
//! carry absolute target indices and a prebuilt return-destination record.
//! The hot loop (see `crate::exec`) is then a dense-array index plus one
//! jump-table dispatch per instruction.
//!
//! Micro-ops are strictly 1:1 with `prog.insts` — `uops[pc]` is the
//! translation of `insts[pc]`. This is the load-bearing invariant for
//! bit-exactness with the legacy engine: program counters in fault
//! attributions (`fault_pc`), trace events (`check_pc`), checkpoint
//! snapshots, and frame return addresses are plain instruction indices and
//! therefore identical across engines by construction.
//!
//! On top of the flat image the decoder precomputes **superblocks**:
//! `run_len[pc]` is the number of consecutive straight-line micro-ops
//! starting at `pc` (instructions that neither branch nor terminate nor
//! probe). The executor uses it to burn through a run in a tight inner
//! loop without re-entering the dispatch/observation machinery between
//! instructions.

use crate::liveness::StaticLiveness;
use crate::machine::RetDsts;
use sor_ir::{
    AluOp, CmpOp, ExtFunc, FpOp, MemWidth, PArg, PInst, PLoc, POperand, Preg, ProbeEvent, Program,
    RegClass, Width,
};
use std::sync::OnceLock;

/// A fully-resolved integer operand: register-file index or immediate,
/// already converted to the machine's `u64` register representation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Integer register index.
    Reg(u8),
    /// Immediate, pre-converted with the legacy `i as u64` semantics.
    Imm(u64),
}

/// Extension applied to a loaded value, with the width baked in.
/// `(B8, signed)` decodes to `Zero` — sign extension from 64 bits is the
/// identity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ext {
    Zero,
    S1,
    S2,
    S4,
}

/// A fully-resolved call argument (the read side of [`sor_ir::PArg`]):
/// class dispatch and spill-slot offset scaling are done at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DArg {
    /// Immediate, read as an integer value.
    Imm(u64),
    /// Integer register.
    RegI(u8),
    /// Float register.
    RegF(u8),
    /// Integer spill slot at `sp + offset` (offset pre-scaled to bytes).
    SlotI(u64),
    /// Float spill slot at `sp + offset` (offset pre-scaled to bytes).
    SlotF(u64),
}

/// A fully-resolved value destination (the write side of
/// [`sor_ir::PLoc`]). Register writes dispatch on the *value's* class at
/// runtime, mirroring the legacy `write_ploc` exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DLoc {
    /// Register index into the bank selected by the written value's class.
    Reg(u8),
    /// Spill slot at `sp + offset` (offset pre-scaled to bytes).
    Slot(u64),
}

/// One predecoded micro-op. Variants mirror [`sor_ir::PInst`] one-to-one;
/// everything the legacy interpreter computed per dynamic instruction
/// (operand kinds, extension/mask selection, branch targets, return
/// destinations) is resolved into immediate fields.
#[derive(Debug, Clone)]
pub(crate) enum UOp {
    /// 64-bit ALU op. The operation width is baked into the variant (the
    /// machine has exactly two widths) so the executor calls the shared
    /// [`crate::alu::alu_eval`] with a *constant* width and the compiler
    /// folds every truncation/sign-extension away per arm — W64, the
    /// dominant width, compiles to the bare wrapping op.
    Alu64 {
        op: AluOp,
        dst: u8,
        a: Src,
        b: Src,
    },
    /// 32-bit ALU op (see [`UOp::Alu64`]).
    Alu32 {
        op: AluOp,
        dst: u8,
        a: Src,
        b: Src,
    },
    /// 64-bit compare (width baked in, same scheme as [`UOp::Alu64`]).
    Cmp64 {
        op: CmpOp,
        dst: u8,
        a: Src,
        b: Src,
    },
    /// 32-bit compare (see [`UOp::Cmp64`]).
    Cmp32 {
        op: CmpOp,
        dst: u8,
        a: Src,
        b: Src,
    },
    Mov {
        dst: u8,
        src: Src,
    },
    Select {
        dst: u8,
        cond: u8,
        t: Src,
        f: Src,
    },
    Load {
        dst: u8,
        base: u8,
        offset: u64,
        bytes: u64,
        ext: Ext,
    },
    Store {
        base: u8,
        offset: u64,
        src: Src,
        bytes: u64,
        mask: u64,
    },
    Fpu {
        op: FpOp,
        dst: u8,
        a: u8,
        b: u8,
    },
    FMovImm {
        dst: u8,
        bits: u64,
    },
    FMov {
        dst: u8,
        src: u8,
    },
    FCmp {
        op: CmpOp,
        dst: u8,
        a: u8,
        b: u8,
    },
    CvtIF {
        dst: u8,
        src: u8,
    },
    CvtFI {
        dst: u8,
        src: u8,
    },
    FLoad {
        dst: u8,
        base: u8,
        offset: u64,
    },
    FStore {
        base: u8,
        offset: u64,
        src: u8,
    },
    CallExt {
        func: ExtFunc,
        arg: DArg,
    },
    Enter {
        frame_size: u64,
        params: Box<[DLoc]>,
    },
    Jump(u32),
    Branch {
        cond: u8,
        t: u32,
        f: u32,
    },
    CallInt {
        target: u32,
        ret_pc: u32,
        args: Box<[DArg]>,
        ret_dsts: RetDsts,
    },
    Ret {
        frame_size: u64,
        vals: Box<[DArg]>,
    },
    Trap(crate::machine::RunStatus),
    Probe(ProbeEvent),
}

impl UOp {
    /// Straight-line micro-ops execute as "advance to pc+1" and are
    /// eligible for superblock grouping. Control transfers, terminators
    /// and probes are not (probes because they are uncounted and must
    /// stay visible to the observation scheduler at slot boundaries).
    fn is_straight_line(&self) -> bool {
        !matches!(
            self,
            UOp::Jump(_)
                | UOp::Branch { .. }
                | UOp::CallInt { .. }
                | UOp::Ret { .. }
                | UOp::Trap(_)
                | UOp::Probe(_)
        )
    }
}

fn src_of(o: POperand) -> Src {
    match o {
        POperand::Reg(r) => Src::Reg(r.index()),
        POperand::Imm(i) => Src::Imm(i as u64),
    }
}

fn darg_of(a: &PArg) -> DArg {
    match a {
        PArg::Imm(i) => DArg::Imm(*i as u64),
        PArg::Reg(p) => match p.class() {
            RegClass::Int => DArg::RegI(p.index()),
            RegClass::Float => DArg::RegF(p.index()),
        },
        PArg::Slot(s, class) => {
            let off = 8 * *s as u64;
            match class {
                RegClass::Int => DArg::SlotI(off),
                RegClass::Float => DArg::SlotF(off),
            }
        }
    }
}

fn dloc_of(l: &PLoc) -> DLoc {
    match l {
        PLoc::Reg(p) => DLoc::Reg(p.index()),
        PLoc::Slot(s, _class) => DLoc::Slot(8 * *s as u64),
    }
}

fn idx(p: Preg) -> u8 {
    p.index()
}

/// A program translated to the flat micro-op image the decoded engine
/// executes, plus the superblock run-length table and the static
/// register liveness. Immutable once built (the liveness is a memo);
/// share it across machines with `Arc` (campaign workers, the harness
/// artifact store).
#[derive(Debug)]
pub struct DecodedProg {
    pub(crate) uops: Vec<UOp>,
    /// `run_len[pc]`: length of the straight-line run starting at `pc`
    /// (`0` when `uops[pc]` itself is control flow or a probe).
    pub(crate) run_len: Vec<u32>,
    /// Static integer-register liveness per pc, which the fault runs'
    /// early exits test flipped and differing registers against (DESIGN
    /// §11, "Early exit and rejoin"). Solved on first use, so images that
    /// never serve a fault run (timing, golden-only) skip it.
    live: OnceLock<StaticLiveness>,
    /// Dynamic length of the program's golden run, once a
    /// [`crate::Runner`] has measured it: later runners over this image
    /// size auto checkpoints before running, so their recording run is
    /// their golden run.
    pub(crate) golden_len: OnceLock<u64>,
}

impl DecodedProg {
    /// Translates `prog` into micro-ops, 1:1 with `prog.insts`.
    pub fn new(prog: &Program) -> Self {
        let uops: Vec<UOp> = prog
            .insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| decode_inst(pc, inst))
            .collect();
        let mut run_len = vec![0u32; uops.len()];
        for pc in (0..uops.len()).rev() {
            if uops[pc].is_straight_line() {
                let next = if pc + 1 < uops.len() {
                    run_len[pc + 1]
                } else {
                    0
                };
                run_len[pc] = next + 1;
            }
        }
        DecodedProg {
            uops,
            run_len,
            live: OnceLock::new(),
            golden_len: OnceLock::new(),
        }
    }

    /// The static liveness of `prog`, the program this image was decoded
    /// from, solved on the first call.
    pub(crate) fn live(&self, prog: &Program) -> &StaticLiveness {
        self.live.get_or_init(|| StaticLiveness::new(&prog.insts))
    }

    /// Number of micro-ops (equals the program's instruction count).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Length of the straight-line superblock starting at `pc` (`0` when
    /// the instruction at `pc` is control flow or a probe). Exposed for
    /// tests and diagnostics.
    pub fn run_len_at(&self, pc: usize) -> u32 {
        self.run_len[pc]
    }

    /// Content digest of the decoded image: the micro-op stream plus the
    /// superblock table. Decoding is a pure function of the [`Program`],
    /// so this collapses to program identity — but digesting the decoded
    /// form directly also guards against decoder evolution: a changed
    /// micro-op encoding yields a new digest even for an unchanged source
    /// program.
    pub fn content_digest(&self) -> sor_ir::ContentHash {
        let mut h = sor_ir::Fnv1a::new();
        h.usize(self.uops.len());
        for u in &self.uops {
            h.debug(u);
        }
        for &r in &self.run_len {
            h.u64(r as u64);
        }
        sor_ir::ContentHash(h.finish64())
    }
}

fn decode_inst(pc: usize, inst: &PInst) -> UOp {
    match inst {
        PInst::Alu {
            op,
            width,
            dst,
            a,
            b,
        } => {
            let (dst, a, b) = (idx(*dst), src_of(*a), src_of(*b));
            match width {
                Width::W64 => UOp::Alu64 { op: *op, dst, a, b },
                Width::W32 => UOp::Alu32 { op: *op, dst, a, b },
            }
        }
        PInst::Cmp {
            op,
            width,
            dst,
            a,
            b,
        } => {
            let (dst, a, b) = (idx(*dst), src_of(*a), src_of(*b));
            match width {
                Width::W64 => UOp::Cmp64 { op: *op, dst, a, b },
                Width::W32 => UOp::Cmp32 { op: *op, dst, a, b },
            }
        }
        PInst::Mov { dst, src } => UOp::Mov {
            dst: idx(*dst),
            src: src_of(*src),
        },
        PInst::Select { dst, cond, t, f } => UOp::Select {
            dst: idx(*dst),
            cond: idx(*cond),
            t: src_of(*t),
            f: src_of(*f),
        },
        PInst::Load {
            dst,
            base,
            offset,
            width,
            signed,
        } => UOp::Load {
            dst: idx(*dst),
            base: idx(*base),
            offset: *offset as u64,
            bytes: width.bytes(),
            ext: match (width, signed) {
                (_, false) | (MemWidth::B8, true) => Ext::Zero,
                (MemWidth::B1, true) => Ext::S1,
                (MemWidth::B2, true) => Ext::S2,
                (MemWidth::B4, true) => Ext::S4,
            },
        },
        PInst::Store {
            base,
            offset,
            src,
            width,
        } => UOp::Store {
            base: idx(*base),
            offset: *offset as u64,
            src: src_of(*src),
            bytes: width.bytes(),
            mask: width.unsigned_max(),
        },
        PInst::Fpu { op, dst, a, b } => UOp::Fpu {
            op: *op,
            dst: idx(*dst),
            a: idx(*a),
            b: idx(*b),
        },
        PInst::FMovImm { dst, bits } => UOp::FMovImm {
            dst: idx(*dst),
            bits: *bits,
        },
        PInst::FMov { dst, src } => UOp::FMov {
            dst: idx(*dst),
            src: idx(*src),
        },
        PInst::FCmp { op, dst, a, b } => UOp::FCmp {
            op: *op,
            dst: idx(*dst),
            a: idx(*a),
            b: idx(*b),
        },
        PInst::CvtIF { dst, src } => UOp::CvtIF {
            dst: idx(*dst),
            src: idx(*src),
        },
        PInst::CvtFI { dst, src } => UOp::CvtFI {
            dst: idx(*dst),
            src: idx(*src),
        },
        PInst::FLoad { dst, base, offset } => UOp::FLoad {
            dst: idx(*dst),
            base: idx(*base),
            offset: *offset as u64,
        },
        PInst::FStore { base, offset, src } => UOp::FStore {
            base: idx(*base),
            offset: *offset as u64,
            src: idx(*src),
        },
        PInst::CallExt { func, args } => UOp::CallExt {
            func: *func,
            arg: darg_of(&args[0]),
        },
        PInst::Enter { frame_size, params } => UOp::Enter {
            frame_size: *frame_size as u64,
            params: params.iter().map(dloc_of).collect(),
        },
        PInst::Jump(t) => UOp::Jump(*t as u32),
        PInst::Branch { cond, t, f } => UOp::Branch {
            cond: idx(*cond),
            t: *t as u32,
            f: *f as u32,
        },
        PInst::CallInt { target, args, rets } => UOp::CallInt {
            target: *target as u32,
            ret_pc: (pc + 1) as u32,
            args: args.iter().map(darg_of).collect(),
            ret_dsts: RetDsts::from_slice(rets),
        },
        PInst::Ret { vals, frame_size } => UOp::Ret {
            frame_size: *frame_size as u64,
            vals: vals.iter().map(darg_of).collect(),
        },
        PInst::Trap(k) => UOp::Trap(match k {
            sor_ir::TrapKind::Detected => crate::machine::RunStatus::Detected,
            sor_ir::TrapKind::Abort => crate::machine::RunStatus::Aborted,
        }),
        PInst::Probe(e) => UOp::Probe(*e),
    }
}

//! # sor-models — the pluggable fault-model subsystem
//!
//! The paper's experimental surface is §7.1's single-bit integer-register
//! SEU. The infrastructure around it — decoded engine, native JIT, ACE
//! certification, persistent store, server — is general enough to carry
//! any transient fault model, and the related work (Azambuja et al.'s
//! combined SEU/SET/control-flow evaluations, ZOFI's multi-model coverage
//! analysis) shows the interesting reliability story only emerges when
//! several models are evaluated against the same technique matrix.
//!
//! A [`FaultModel`] is a *sampler* over the generalized injection surface
//! of `sor-sim` ([`GenFault`]/[`FaultEffect`]): seed-stable, uniform over
//! the model's fault space, returning faults both execution engines inject
//! bit-identically. The models:
//!
//! | model | slug | effect |
//! |---|---|---|
//! | [`FaultModel::SeuReg`] | `seu-reg` | one register bit (the paper's model, draw-for-draw pinned to [`FaultSpec::sample`]) |
//! | [`FaultModel::PcCorrupt`] | `pc-corrupt` | one bit of the program counter before a fetch |
//! | [`FaultModel::MemBit`] | `mem-bit` | one bit of one data-memory byte |
//! | [`FaultModel::MultiBitUpset`] | `multi-bit` | an adjacent 2–4 bit register burst |
//! | [`FaultModel::TransientAlu`] | `transient-alu` | SET: one corrupted ALU result |
//!
//! `SeuReg` is the default everywhere and is **pinned bit-identical** to
//! the historical pipeline: it delegates to [`FaultSpec::sample`] for its
//! draws (consuming the RNG identically) and injects the drawn spec as its
//! `RegXor { mask: 1 << bit }` [`GenFault`], so campaign fault sequences,
//! histograms and certified coverage under the default model are
//! unchanged artifacts.

use sor_ir::{layout, Program};
use sor_rng::SmallRng;
use sor_sim::{FaultEffect, FaultSpec, GenFault, INJECTABLE_REGS};
use std::fmt;

/// Per-program sampling context: the bounds of each model's fault space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleCtx {
    /// Golden-run dynamic instruction count (the slot space).
    pub golden_len: u64,
    /// Static program length in instructions (the PC space).
    pub prog_len: usize,
    /// Data-memory sampling range, `[mem_lo, mem_hi)` — the initialized
    /// global segment, or one stack page for programs without globals.
    pub mem_lo: u64,
    /// Exclusive upper bound of the data-memory sampling range.
    pub mem_hi: u64,
}

impl SampleCtx {
    /// Derives the context from a lowered program and its golden run
    /// length. The memory range is the global data segment; programs with
    /// no globals fall back to the top stack page (where every frame
    /// lives for the small workloads).
    pub fn for_program(prog: &Program, golden_len: u64) -> SampleCtx {
        // `global_extent` is a byte count above GLOBAL_BASE, not an
        // absolute end address.
        let (mem_lo, mem_hi) = if prog.global_extent > 0 {
            (
                layout::GLOBAL_BASE,
                layout::GLOBAL_BASE + prog.global_extent,
            )
        } else {
            (layout::STACK_TOP - 4096, layout::STACK_TOP)
        };
        SampleCtx {
            golden_len,
            prog_len: prog.insts.len(),
            mem_lo,
            mem_hi,
        }
    }

    /// Bits needed to index every static instruction — the bit positions a
    /// PC upset can occupy.
    pub fn pc_bits(&self) -> u32 {
        let max = self.prog_len.saturating_sub(1).max(1) as u64;
        64 - max.leading_zeros()
    }
}

/// One transient-fault model: a seed-stable sampler over a fault space,
/// plus the identity (slug, digest input) campaigns and the store key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum FaultModel {
    /// The paper's §7.1 model: one bit of one integer register (never the
    /// SP), uniform over slots × [`INJECTABLE_REGS`] × 64 bits. Pinned
    /// draw-for-draw to [`FaultSpec::sample`].
    #[default]
    SeuReg,
    /// Control-flow corruption: one bit of the program counter flips
    /// before a fetch, uniform over slots × [`SampleCtx::pc_bits`]. A
    /// corrupted fetch outside the image is a SEGV.
    PcCorrupt,
    /// Data-memory upset: one bit of one byte in the data segment flips,
    /// uniform over slots × bytes × 8 bits. Relaxes the paper's
    /// ECC-protected-memory assumption.
    MemBit,
    /// Multi-bit upset: an adjacent burst of 2–4 bits in one integer
    /// register, uniform over slots × registers × widths × start
    /// positions.
    MultiBitUpset,
    /// Single-event transient (SET) in the datapath: the result of one
    /// ALU operation is corrupted by one bit (width-truncated; non-ALU
    /// slots latch nothing), uniform over slots × 64 bits.
    TransientAlu,
}

impl FaultModel {
    /// Every model, in presentation order.
    pub const ALL: [FaultModel; 5] = [
        FaultModel::SeuReg,
        FaultModel::PcCorrupt,
        FaultModel::MemBit,
        FaultModel::MultiBitUpset,
        FaultModel::TransientAlu,
    ];

    /// The stable kebab-case identifier used by CLI flags, JSON tags and
    /// store digests.
    pub fn slug(self) -> &'static str {
        match self {
            FaultModel::SeuReg => "seu-reg",
            FaultModel::PcCorrupt => "pc-corrupt",
            FaultModel::MemBit => "mem-bit",
            FaultModel::MultiBitUpset => "multi-bit",
            FaultModel::TransientAlu => "transient-alu",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::SeuReg => "register SEU",
            FaultModel::PcCorrupt => "PC corruption",
            FaultModel::MemBit => "memory bit upset",
            FaultModel::MultiBitUpset => "multi-bit register upset",
            FaultModel::TransientAlu => "transient ALU (SET)",
        }
    }

    /// Parses a slug (or a forgiving spelling: case-insensitive, `_`/`/`
    /// treated as `-`).
    pub fn parse(s: &str) -> Option<FaultModel> {
        let norm: String = s
            .trim()
            .chars()
            .map(|c| match c {
                '_' | '/' | ' ' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        FaultModel::ALL.into_iter().find(|m| m.slug() == norm)
    }

    /// Whether this is the default (legacy-pinned) model.
    pub fn is_default(self) -> bool {
        self == FaultModel::SeuReg
    }

    /// Draws one fault uniformly from this model's space.
    ///
    /// Seed-stability contract: for a fixed model and context, the
    /// sequence of draws from a seeded RNG is a stable artifact. `SeuReg`
    /// additionally consumes the RNG *identically* to
    /// [`FaultSpec::sample`], so default-model campaigns reproduce the
    /// historical fault sequences exactly.
    pub fn sample(self, rng: &mut SmallRng, ctx: &SampleCtx) -> GenFault {
        match self {
            FaultModel::SeuReg => FaultSpec::sample(rng, ctx.golden_len).into(),
            FaultModel::PcCorrupt => {
                let at = rng.gen_range(0, ctx.golden_len.max(1));
                let bit = rng.gen_range(0, ctx.pc_bits() as u64);
                GenFault::new(at, FaultEffect::PcXor { mask: 1u64 << bit })
            }
            FaultModel::MemBit => {
                let at = rng.gen_range(0, ctx.golden_len.max(1));
                let span = ctx.mem_hi.saturating_sub(ctx.mem_lo).max(1);
                let addr = ctx.mem_lo + rng.gen_range(0, span);
                let bit = rng.gen_range(0, 8) as u8;
                GenFault::new(at, FaultEffect::MemXor { addr, bit })
            }
            FaultModel::MultiBitUpset => {
                let at = rng.gen_range(0, ctx.golden_len.max(1));
                let reg = *rng.choose(&INJECTABLE_REGS);
                let width = 2 + rng.gen_range(0, 3); // 2..=4 adjacent bits
                let start = rng.gen_range(0, 64 - width + 1);
                let mask = ((1u64 << width) - 1) << start;
                GenFault::new(at, FaultEffect::RegXor { reg, mask })
            }
            FaultModel::TransientAlu => {
                let at = rng.gen_range(0, ctx.golden_len.max(1));
                let bit = rng.gen_range(0, 64);
                GenFault::new(at, FaultEffect::AluXor { mask: 1u64 << bit })
            }
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{NUM_IREGS, SP};

    fn ctx() -> SampleCtx {
        SampleCtx {
            golden_len: 1000,
            prog_len: 700,
            mem_lo: layout::GLOBAL_BASE,
            mem_hi: layout::GLOBAL_BASE + 256,
        }
    }

    /// The load-bearing pin: `SeuReg` consumes the RNG identically to
    /// `FaultSpec::sample`, draw for draw, so every default-model campaign
    /// sequence is unchanged.
    #[test]
    fn seu_reg_sampler_is_pinned_to_fault_spec_sample() {
        let mut a = SmallRng::seed_from_u64(0x5EED);
        let mut b = SmallRng::seed_from_u64(0x5EED);
        let c = ctx();
        for _ in 0..2000 {
            let gen = FaultModel::SeuReg.sample(&mut a, &c);
            let spec = FaultSpec::sample(&mut b, c.golden_len);
            assert_eq!(gen, GenFault::from(spec));
            assert_eq!(gen.as_spec(), Some(spec));
        }
        // And the generators are in the same state afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn every_model_samples_within_its_space() {
        let c = ctx();
        for model in FaultModel::ALL {
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..500 {
                let f = model.sample(&mut rng, &c);
                assert!(f.at_instr < c.golden_len, "{model}: slot out of range");
                match (model, f.effect) {
                    (FaultModel::SeuReg, FaultEffect::RegXor { reg, mask }) => {
                        assert!((reg as usize) < NUM_IREGS && reg != SP.index());
                        assert_eq!(mask.count_ones(), 1);
                    }
                    (FaultModel::PcCorrupt, FaultEffect::PcXor { mask }) => {
                        assert_eq!(mask.count_ones(), 1);
                        assert!(mask.trailing_zeros() < c.pc_bits());
                    }
                    (FaultModel::MemBit, FaultEffect::MemXor { addr, bit }) => {
                        assert!((c.mem_lo..c.mem_hi).contains(&addr));
                        assert!(bit < 8);
                    }
                    (FaultModel::MultiBitUpset, FaultEffect::RegXor { reg, mask }) => {
                        assert!((reg as usize) < NUM_IREGS && reg != SP.index());
                        let ones = mask.count_ones();
                        assert!((2..=4).contains(&ones), "burst width {ones}");
                        // Adjacent: the set bits form one contiguous run.
                        let shifted = mask >> mask.trailing_zeros();
                        assert_eq!(shifted, (1u64 << ones) - 1, "burst not contiguous");
                    }
                    (FaultModel::TransientAlu, FaultEffect::AluXor { mask }) => {
                        assert_eq!(mask.count_ones(), 1);
                    }
                    (m, e) => panic!("{m} drew unexpected effect {e:?}"),
                }
            }
        }
    }

    #[test]
    fn slugs_parse_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in FaultModel::ALL {
            assert!(seen.insert(m.slug()));
            assert_eq!(FaultModel::parse(m.slug()), Some(m));
            assert_eq!(FaultModel::parse(&m.slug().to_uppercase()), Some(m));
            assert_eq!(FaultModel::parse(&m.slug().replace('-', "_")), Some(m));
        }
        assert_eq!(FaultModel::parse("bogus"), None);
        assert_eq!(FaultModel::default(), FaultModel::SeuReg);
        assert!(FaultModel::SeuReg.is_default());
    }

    #[test]
    fn pc_bits_covers_the_image() {
        let mut c = ctx();
        c.prog_len = 1;
        assert_eq!(c.pc_bits(), 1);
        c.prog_len = 700;
        assert_eq!(c.pc_bits(), 10); // 699 needs 10 bits
        c.prog_len = 1024;
        assert_eq!(c.pc_bits(), 10);
        c.prog_len = 1025;
        assert_eq!(c.pc_bits(), 11);
    }

    /// `global_extent` is a segment *size*, not an end address; a program
    /// with globals must sample memory faults inside
    /// `[GLOBAL_BASE, GLOBAL_BASE + extent)`, never the stack-page
    /// fallback (the regression here had every mem-bit flip landing on a
    /// dead stack page, classifying 100% unACE).
    #[test]
    fn for_program_targets_the_global_segment() {
        let prog = sor_ir::Program {
            name: "g".into(),
            insts: vec![],
            roles: vec![],
            entry: 0,
            globals: vec![],
            global_extent: 640,
        };
        let c = SampleCtx::for_program(&prog, 100);
        assert_eq!(c.mem_lo, layout::GLOBAL_BASE);
        assert_eq!(c.mem_hi, layout::GLOBAL_BASE + 640);

        let none = sor_ir::Program {
            global_extent: 0,
            ..prog
        };
        let c = SampleCtx::for_program(&none, 100);
        assert_eq!(c.mem_hi, layout::STACK_TOP);
        assert_eq!(c.mem_hi - c.mem_lo, 4096);
    }

    #[test]
    fn samplers_are_seed_stable() {
        let c = ctx();
        for m in FaultModel::ALL {
            let mut a = SmallRng::seed_from_u64(42);
            let mut b = SmallRng::seed_from_u64(42);
            let fa: Vec<GenFault> = (0..100).map(|_| m.sample(&mut a, &c)).collect();
            let fb: Vec<GenFault> = (0..100).map(|_| m.sample(&mut b, &c)).collect();
            assert_eq!(fa, fb, "{m}");
        }
    }
}

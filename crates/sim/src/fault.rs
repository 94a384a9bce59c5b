//! Fault specifications: the paper's single-event upset ([`FaultSpec`])
//! and the generalized [`GenFault`] every engine executes.

use sor_ir::{NUM_IREGS, SP};
use sor_rng::SmallRng;
use std::fmt;

/// One SEU: flip `bit` of integer register `reg` immediately before the
/// dynamic instruction with index `at_instr` executes (paper §7.1).
///
/// Only integer registers are targeted: the paper neither injected into nor
/// protected floating-point registers, and excluded the stack pointer and
/// TOC pointer from injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Dynamic instruction index (0-based) at which the flip happens.
    pub at_instr: u64,
    /// Integer register file index, `0..32`, never the SP.
    pub reg: u8,
    /// Bit position, `0..64`.
    pub bit: u8,
}

impl FaultSpec {
    /// Creates a fault spec, validating the target.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or the SP, or `bit >= 64`.
    pub fn new(at_instr: u64, reg: u8, bit: u8) -> Self {
        assert!((reg as usize) < NUM_IREGS, "register {reg} out of range");
        assert_ne!(reg, SP.index(), "the stack pointer is never injected");
        assert!(bit < 64, "bit {bit} out of range");
        FaultSpec { at_instr, reg, bit }
    }

    /// Registers eligible for injection (everything but the SP).
    pub fn injectable_regs() -> impl Iterator<Item = u8> {
        INJECTABLE_REGS.iter().copied()
    }

    /// Draws the paper's §7.1 fault distribution: uniform over the golden
    /// run's dynamic instructions, the injectable registers and the 64 bit
    /// positions — the one sampling routine every campaign shares.
    ///
    /// The draw order (slot, then register, then bit, via
    /// [`FaultSpec::sample_point`]) is load-bearing: campaign fault
    /// sequences are seed-stable artifacts, pinned by tests at the call
    /// sites, so reordering the draws is a breaking change.
    pub fn sample(rng: &mut SmallRng, golden_len: u64) -> FaultSpec {
        let at = rng.gen_range(0, golden_len.max(1));
        let (reg, bit) = FaultSpec::sample_point(rng);
        FaultSpec::new(at, reg, bit)
    }

    /// Draws a uniform (register, bit) target — register first, then bit —
    /// over the full injectable fault space.
    pub fn sample_point(rng: &mut SmallRng) -> (u8, u8) {
        let reg = *rng.choose(&INJECTABLE_REGS);
        let bit = rng.gen_range(0, 64) as u8;
        (reg, bit)
    }
}

/// Registers eligible for injection (everything but the SP), precomputed so
/// hot paths (campaign fault drawing) index a static table instead of
/// collecting an iterator per draw.
pub const INJECTABLE_REGS: [u8; NUM_IREGS - 1] = {
    let mut regs = [0u8; NUM_IREGS - 1];
    let mut r = 0u8;
    let mut i = 0;
    while (r as usize) < NUM_IREGS {
        if r != SP.index() {
            regs[i] = r;
            i += 1;
        }
        r += 1;
    }
    regs
};

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flip r{} bit {} before dynamic instruction {}",
            self.reg, self.bit, self.at_instr
        )
    }
}

/// The architectural effect of one transient fault, generalizing the
/// register-SEU of [`FaultSpec`] to the fault models of `sor-models`.
///
/// Every effect is applied exactly once, at one dynamic instruction slot;
/// `RegXor { reg, mask: 1 << bit }` *is* the paper's SEU (see
/// [`GenFault::from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEffect {
    /// XOR `mask` into integer register `reg` immediately before the slot
    /// executes. `mask == 1 << bit` is the classic SEU; wider masks model
    /// multi-bit upsets (adjacent-bit bursts).
    RegXor {
        /// Integer register file index, `0..32`, never the SP.
        reg: u8,
        /// Bits to flip (nonzero).
        mask: u64,
    },
    /// XOR `mask` into the program counter immediately before the slot
    /// executes: the fetch/branch-target corruption model. A corrupted PC
    /// outside the program image terminates the run as a SEGV.
    PcXor {
        /// Bits to flip in the instruction index (nonzero).
        mask: u64,
    },
    /// Flip `bit` of the data-memory byte at `addr` immediately before the
    /// slot executes. A flip in an unmapped page has no architectural
    /// effect (the particle struck unallocated silicon) but still counts
    /// as fired.
    MemXor {
        /// Absolute byte address in the machine's memory map.
        addr: u64,
        /// Bit position within the byte, `0..8`.
        bit: u8,
    },
    /// Corrupt the *result* of the ALU operation executed at the slot by
    /// XORing `mask` into it after it commits (a single-event transient in
    /// the datapath). If the slot's instruction is not an ALU operation —
    /// or the op faults before committing — the transient is latched by
    /// nothing and has no architectural effect. 32-bit ops truncate the
    /// mask to their width (high-bit transients are physically masked).
    AluXor {
        /// Bits to flip in the committed result (nonzero).
        mask: u64,
    },
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEffect::RegXor { reg, mask } => write!(f, "xor r{reg} with {mask:#x}"),
            FaultEffect::PcXor { mask } => write!(f, "xor pc with {mask:#x}"),
            FaultEffect::MemXor { addr, bit } => write!(f, "flip mem[{addr:#x}] bit {bit}"),
            FaultEffect::AluXor { mask } => write!(f, "xor alu result with {mask:#x}"),
        }
    }
}

impl FaultEffect {
    /// The integer register the effect targets directly, if any — used by
    /// triage to attribute outcomes to registers.
    pub fn target_reg(&self) -> Option<u8> {
        match self {
            FaultEffect::RegXor { reg, .. } => Some(*reg),
            _ => None,
        }
    }
}

/// One transient fault under a generalized model: apply `effect` at
/// dynamic instruction `at_instr` — the only fault type the engines
/// execute. An SEU [`FaultSpec`] converts into one losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenFault {
    /// Dynamic instruction index (0-based) at which the effect applies.
    pub at_instr: u64,
    /// What the fault does to the architectural state.
    pub effect: FaultEffect,
}

impl GenFault {
    /// Creates a generalized fault, validating the effect's target.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or SP register, an out-of-range bit, or a
    /// zero XOR mask (a no-op "fault" would silently skew campaign
    /// statistics).
    pub fn new(at_instr: u64, effect: FaultEffect) -> Self {
        match effect {
            FaultEffect::RegXor { reg, mask } => {
                assert!((reg as usize) < NUM_IREGS, "register {reg} out of range");
                assert_ne!(reg, SP.index(), "the stack pointer is never injected");
                assert_ne!(mask, 0, "empty register mask");
            }
            FaultEffect::PcXor { mask } => assert_ne!(mask, 0, "empty pc mask"),
            FaultEffect::MemXor { bit, .. } => assert!(bit < 8, "byte bit {bit} out of range"),
            FaultEffect::AluXor { mask } => assert_ne!(mask, 0, "empty alu mask"),
        }
        GenFault { at_instr, effect }
    }

    /// The SEU spec this fault corresponds to, if it is a single-bit
    /// register upset.
    pub fn as_spec(&self) -> Option<FaultSpec> {
        match self.effect {
            FaultEffect::RegXor { reg, mask } if mask.count_ones() == 1 => Some(FaultSpec::new(
                self.at_instr,
                reg,
                mask.trailing_zeros() as u8,
            )),
            _ => None,
        }
    }
}

/// The SEU as a generalized fault: `RegXor { reg, mask: 1 << bit }` at the
/// same slot. [`GenFault::as_spec`] inverts it.
impl From<FaultSpec> for GenFault {
    fn from(spec: FaultSpec) -> Self {
        GenFault {
            at_instr: spec.at_instr,
            effect: FaultEffect::RegXor {
                reg: spec.reg,
                mask: 1u64 << spec.bit,
            },
        }
    }
}

impl fmt::Display for GenFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} before dynamic instruction {}",
            self.effect, self.at_instr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injectable_regs_exclude_sp() {
        let regs: Vec<u8> = FaultSpec::injectable_regs().collect();
        assert_eq!(regs.len(), NUM_IREGS - 1);
        assert!(!regs.contains(&SP.index()));
        assert_eq!(regs, INJECTABLE_REGS.to_vec(), "iterator matches table");
        let mut sorted = INJECTABLE_REGS.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), NUM_IREGS - 1, "no duplicates in table");
    }

    #[test]
    #[should_panic(expected = "stack pointer")]
    fn sp_is_rejected() {
        let _ = FaultSpec::new(0, SP.index(), 0);
    }

    /// The shared sampler draws (slot, register, bit) in that exact order:
    /// the sequence for a fixed seed is a stable artifact that campaign
    /// tests pin against re-derived draws.
    #[test]
    fn sample_is_in_range_and_order_stable() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut check = SmallRng::seed_from_u64(99);
        for _ in 0..500 {
            let f = FaultSpec::sample(&mut rng, 1000);
            assert!(f.at_instr < 1000);
            assert!((f.reg as usize) < NUM_IREGS && f.reg != SP.index());
            assert!(f.bit < 64);
            let at = check.gen_range(0, 1000);
            let reg = *check.choose(&INJECTABLE_REGS);
            let bit = check.gen_range(0, 64) as u8;
            assert_eq!(
                f,
                FaultSpec {
                    at_instr: at,
                    reg,
                    bit
                }
            );
        }
        // A zero-length run clamps the slot range instead of panicking.
        assert_eq!(FaultSpec::sample(&mut rng, 0).at_instr, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_64_is_rejected() {
        let _ = FaultSpec::new(0, 2, 64);
    }

    #[test]
    fn gen_fault_round_trips_the_legacy_spec() {
        let spec = FaultSpec::new(17, 5, 63);
        let gen = GenFault::from(spec);
        assert_eq!(gen.at_instr, 17);
        assert_eq!(
            gen.effect,
            FaultEffect::RegXor {
                reg: 5,
                mask: 1u64 << 63
            }
        );
        assert_eq!(gen.as_spec(), Some(spec));
        // Multi-bit masks are not SEU specs.
        let multi = GenFault::new(0, FaultEffect::RegXor { reg: 5, mask: 0b11 });
        assert_eq!(multi.as_spec(), None);
        assert_eq!(
            GenFault::new(0, FaultEffect::PcXor { mask: 4 }).as_spec(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "stack pointer")]
    fn gen_fault_rejects_sp() {
        let _ = GenFault::new(
            0,
            FaultEffect::RegXor {
                reg: SP.index(),
                mask: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn gen_fault_rejects_empty_mask() {
        let _ = GenFault::new(0, FaultEffect::AluXor { mask: 0 });
    }
}

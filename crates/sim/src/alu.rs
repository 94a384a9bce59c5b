//! Shared scalar semantics: ALU, compare and load-extension evaluation.
//!
//! Both execution engines — the legacy tree-matching interpreter in
//! [`crate::Machine`] and the predecoded micro-op engine in
//! [`crate::DecodedProg`] — must agree bit-for-bit on every operation, so
//! the width-sensitive arithmetic lives here, in exactly one place. The
//! historical implementation carried twin `match width` ladders (one full
//! opcode ladder per width); this module replaces them with a single
//! ladder over width-normalized values: operands are truncated to the
//! operation width up front, signed operations sign-extend through `i64`,
//! and the result is truncated back. The equivalence with the twin-ladder
//! semantics is pinned by the exhaustive op × width tests below.

use sor_ir::{AluOp, CmpOp, Width};

/// Truncates `v` to the value bits of `width` (zero-extending register
/// representation).
#[inline]
pub(crate) fn trunc(width: Width, v: u64) -> u64 {
    v & width.mask()
}

/// Reads `v` (already truncated) as a signed value of `width`, extended to
/// `i64`.
#[inline]
pub(crate) fn sext(width: Width, v: u64) -> i64 {
    match width {
        Width::W32 => v as u32 as i32 as i64,
        Width::W64 => v as i64,
    }
}

/// Evaluates an ALU operation at `width`; `None` signals a division fault.
///
/// Inputs may carry garbage above the operation width — they are truncated
/// first — and the result is returned zero-extended, matching the
/// machine's register representation of narrow values.
#[inline]
pub(crate) fn alu_eval(op: AluOp, width: Width, a: u64, b: u64) -> Option<u64> {
    let (a, b) = (trunc(width, a), trunc(width, b));
    let r = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::DivU => {
            if b == 0 {
                return None;
            }
            a / b
        }
        AluOp::DivS => {
            if b == 0 {
                return None;
            }
            sext(width, a).wrapping_div(sext(width, b)) as u64
        }
        AluOp::RemU => {
            if b == 0 {
                return None;
            }
            a % b
        }
        AluOp::RemS => {
            if b == 0 {
                return None;
            }
            sext(width, a).wrapping_rem(sext(width, b)) as u64
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b % width.bits() as u64) as u32),
        AluOp::ShrL => a.wrapping_shr((b % width.bits() as u64) as u32),
        AluOp::ShrA => sext(width, a).wrapping_shr((b % width.bits() as u64) as u32) as u64,
    };
    Some(trunc(width, r))
}

/// Evaluates an integer comparison at `width`, truncating the operands
/// first and interpreting them per the relation's signedness.
#[inline]
pub(crate) fn cmp_eval(op: CmpOp, width: Width, a: u64, b: u64) -> bool {
    let (a, b) = (trunc(width, a), trunc(width, b));
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::LtU => a < b,
        CmpOp::LeU => a <= b,
        CmpOp::LtS => sext(width, a) < sext(width, b),
        CmpOp::LeS => sext(width, a) <= sext(width, b),
    }
}

/// Sign-extends a raw little-endian load of `width` bytes to 64 bits.
#[cfg(any(test, feature = "legacy"))]
#[inline]
pub(crate) fn sign_extend(raw: u64, width: sor_ir::MemWidth) -> u64 {
    match width {
        sor_ir::MemWidth::B1 => raw as u8 as i8 as i64 as u64,
        sor_ir::MemWidth::B2 => raw as u16 as i16 as i64 as u64,
        sor_ir::MemWidth::B4 => raw as u32 as i32 as i64 as u64,
        sor_ir::MemWidth::B8 => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::MemWidth;

    /// The historical twin-ladder implementation, transliterated verbatim
    /// from the pre-refactor `machine.rs`, kept only as the equivalence
    /// oracle for the unified ladder.
    fn twin_ladder(op: AluOp, width: Width, a: u64, b: u64) -> Option<u64> {
        match width {
            Width::W64 => {
                let r = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::DivU => {
                        if b == 0 {
                            return None;
                        }
                        a / b
                    }
                    AluOp::DivS => {
                        if b == 0 {
                            return None;
                        }
                        (a as i64).wrapping_div(b as i64) as u64
                    }
                    AluOp::RemU => {
                        if b == 0 {
                            return None;
                        }
                        a % b
                    }
                    AluOp::RemS => {
                        if b == 0 {
                            return None;
                        }
                        (a as i64).wrapping_rem(b as i64) as u64
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Shl => a.wrapping_shl((b % 64) as u32),
                    AluOp::ShrL => a.wrapping_shr((b % 64) as u32),
                    AluOp::ShrA => ((a as i64).wrapping_shr((b % 64) as u32)) as u64,
                };
                Some(r)
            }
            Width::W32 => {
                let x = a as u32;
                let y = b as u32;
                let r = match op {
                    AluOp::Add => x.wrapping_add(y),
                    AluOp::Sub => x.wrapping_sub(y),
                    AluOp::Mul => x.wrapping_mul(y),
                    AluOp::DivU => {
                        if y == 0 {
                            return None;
                        }
                        x / y
                    }
                    AluOp::DivS => {
                        if y == 0 {
                            return None;
                        }
                        (x as i32).wrapping_div(y as i32) as u32
                    }
                    AluOp::RemU => {
                        if y == 0 {
                            return None;
                        }
                        x % y
                    }
                    AluOp::RemS => {
                        if y == 0 {
                            return None;
                        }
                        (x as i32).wrapping_rem(y as i32) as u32
                    }
                    AluOp::And => x & y,
                    AluOp::Or => x | y,
                    AluOp::Xor => x ^ y,
                    AluOp::Shl => x.wrapping_shl(y % 32),
                    AluOp::ShrL => x.wrapping_shr(y % 32),
                    AluOp::ShrA => ((x as i32).wrapping_shr(y % 32)) as u32,
                };
                Some(r as u64)
            }
        }
    }

    /// Interesting operand values: zeros, small values, every signedness
    /// and width boundary, shift-count wrap cases.
    const GRID: [u64; 18] = [
        0,
        1,
        2,
        5,
        31,
        32,
        33,
        63,
        64,
        65,
        0x7F,
        i32::MAX as u64,
        0x8000_0000,
        u32::MAX as u64,
        0x1_0000_0000,
        i64::MAX as u64,
        0x8000_0000_0000_0000,
        u64::MAX,
    ];

    /// The satellite pin: the unified ladder equals the historical twin
    /// ladders on every op × width combination over the value grid,
    /// including division faults, overflow wrap (`i64::MIN / -1`) and
    /// shift-amount reduction.
    #[test]
    fn unified_ladder_matches_twin_ladders_for_every_op_and_width() {
        for op in AluOp::ALL {
            for width in [Width::W32, Width::W64] {
                for &a in &GRID {
                    for &b in &GRID {
                        assert_eq!(
                            alu_eval(op, width, a, b),
                            twin_ladder(op, width, a, b),
                            "{op:?} {width} a={a:#x} b={b:#x}"
                        );
                    }
                }
            }
        }
    }

    /// Compare semantics: truncation happens before the relation, and the
    /// signed relations read the truncated value's sign bit.
    #[test]
    fn cmp_eval_matches_the_machine_semantics_for_every_op_and_width() {
        for op in CmpOp::ALL {
            for width in [Width::W32, Width::W64] {
                for &a in &GRID {
                    for &b in &GRID {
                        let (x, y) = (trunc(width, a), trunc(width, b));
                        // The historical inline semantics: truncate, then
                        // W32 signed relations compare as i32, everything
                        // else goes through `CmpOp::eval`.
                        let expected = match (width, op) {
                            (Width::W32, CmpOp::LtS) => (x as u32 as i32) < (y as u32 as i32),
                            (Width::W32, CmpOp::LeS) => (x as u32 as i32) <= (y as u32 as i32),
                            _ => op.eval(x, y),
                        };
                        assert_eq!(
                            cmp_eval(op, width, a, b),
                            expected,
                            "{op:?} {width} a={a:#x} b={b:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn division_by_zero_faults_at_both_widths() {
        for op in [AluOp::DivU, AluOp::DivS, AluOp::RemU, AluOp::RemS] {
            assert_eq!(alu_eval(op, Width::W64, 5, 0), None);
            assert_eq!(alu_eval(op, Width::W32, 5, 0), None);
            // A zero that only exists above the operation width still
            // faults the narrow division.
            assert_eq!(alu_eval(op, Width::W32, 5, 0x1_0000_0000), None);
        }
    }

    #[test]
    fn signed_overflow_division_wraps() {
        let min64 = i64::MIN as u64;
        let minus_one = u64::MAX;
        assert_eq!(
            alu_eval(AluOp::DivS, Width::W64, min64, minus_one),
            Some(min64)
        );
        assert_eq!(alu_eval(AluOp::RemS, Width::W64, min64, minus_one), Some(0));
        let min32 = i32::MIN as u32 as u64;
        assert_eq!(
            alu_eval(AluOp::DivS, Width::W32, min32, minus_one),
            Some(min32)
        );
        assert_eq!(alu_eval(AluOp::RemS, Width::W32, min32, minus_one), Some(0));
    }

    #[test]
    fn sign_extension_covers_every_memory_width() {
        assert_eq!(sign_extend(0xFF, MemWidth::B1), u64::MAX);
        assert_eq!(sign_extend(0x7F, MemWidth::B1), 0x7F);
        assert_eq!(sign_extend(0x8000, MemWidth::B2), (-32768i64) as u64);
        assert_eq!(sign_extend(0x7FFF, MemWidth::B2), 0x7FFF);
        assert_eq!(sign_extend(0xFFFF_FFFF, MemWidth::B4), u64::MAX);
        assert_eq!(sign_extend(0x7FFF_FFFF, MemWidth::B4), 0x7FFF_FFFF);
        assert_eq!(sign_extend(u64::MAX, MemWidth::B8), u64::MAX);
    }
}

//! Randomized property tests: random straight-line programs through the
//! whole pipeline, driven by the in-tree deterministic [`sor_rng::SmallRng`]
//! (the build is offline, so fixed seeds replace proptest shrinking — every
//! failure names its case index, which reproduces it exactly).
//!
//! The central invariant of every transform is *semantic transparency*: with
//! no faults injected, the protected program must produce exactly the
//! original output. The generator below builds arbitrary (but memory-safe)
//! integer dataflow over a scratch global, which exercises duplication,
//! AN-shadow arithmetic, check/vote insertion, the range and known-bits
//! analyses, register allocation under pressure, and the simulator.

use software_only_recovery::prelude::*;
use software_only_recovery::recovery::Technique as T;
use sor_ir::{AluOp, CmpOp, FuncId, Module, ModuleBuilder};
use sor_rng::SmallRng;

/// One step of the generated program.
#[derive(Debug, Clone)]
enum Step {
    Alu(AluOp, Width, usize, usize),
    Cmp(CmpOp, usize, usize),
    Select(usize, usize, usize),
    Assume(usize, u64),
    LoadSlot(usize),
    StoreSlot(usize, usize),
    Emit(usize),
}

const SLOTS: u64 = 8;

fn random_step(rng: &mut SmallRng) -> Step {
    match rng.gen_range(0, 7) {
        0 => Step::Alu(
            *rng.choose(&AluOp::ALL),
            if rng.gen_bool() {
                Width::W64
            } else {
                Width::W32
            },
            rng.gen_range(0, 16) as usize,
            rng.gen_range(0, 16) as usize,
        ),
        1 => Step::Cmp(
            *rng.choose(&CmpOp::ALL),
            rng.gen_range(0, 16) as usize,
            rng.gen_range(0, 16) as usize,
        ),
        2 => Step::Select(
            rng.gen_range(0, 16) as usize,
            rng.gen_range(0, 16) as usize,
            rng.gen_range(0, 16) as usize,
        ),
        3 => Step::Assume(rng.gen_range(0, 16) as usize, rng.gen_range(1, 1_000_000)),
        4 => Step::LoadSlot(rng.gen_range(0, SLOTS) as usize),
        5 => Step::StoreSlot(
            rng.gen_range(0, SLOTS) as usize,
            rng.gen_range(0, 16) as usize,
        ),
        _ => Step::Emit(rng.gen_range(0, 16) as usize),
    }
}

fn random_steps(rng: &mut SmallRng, lo: u64, hi: u64) -> Vec<Step> {
    let n = rng.gen_range(lo, hi);
    (0..n).map(|_| random_step(rng)).collect()
}

fn random_seeds(rng: &mut SmallRng, lo: i64, hi: i64) -> [i64; 4] {
    std::array::from_fn(|_| rng.gen_range_i64(lo, hi))
}

/// Builds a module from the step list. Values live in a rolling window of
/// 16 registers; slot addresses are always in-bounds so the program is
/// fault-free by construction.
fn build_program(seeds: &[i64; 4], steps: &[Step]) -> Module {
    let mut mb = ModuleBuilder::new("random");
    let scratch = mb.alloc_global("scratch", SLOTS * 8);
    let mut f = mb.function("main");
    let base = f.movi(scratch as i64);
    let mut vals: Vec<sor_ir::Vreg> = seeds.iter().map(|s| f.movi(*s)).collect();
    let pick = |vals: &[sor_ir::Vreg], i: usize| vals[i % vals.len()];
    for step in steps {
        let v = match step {
            Step::Alu(op, w, a, b) => f.alu(*op, *w, pick(&vals, *a), pick(&vals, *b)),
            Step::Cmp(op, a, b) => f.cmp(*op, Width::W64, pick(&vals, *a), pick(&vals, *b)),
            Step::Select(c, a, b) => {
                let cond = pick(&vals, *c);
                f.select(cond, pick(&vals, *a), pick(&vals, *b))
            }
            Step::Assume(v, hi) => {
                // Keep the assumption truthful: clamp the value first.
                let m = f.alu(
                    AluOp::RemU,
                    Width::W64,
                    pick(&vals, *v),
                    (*hi as i64).max(1),
                );
                f.assume(m, 0, hi - 1)
            }
            Step::LoadSlot(s) => f.load(MemWidth::B8, base, (*s as i64) * 8),
            Step::StoreSlot(s, v) => {
                f.store(MemWidth::B8, base, (*s as i64) * 8, pick(&vals, *v));
                continue;
            }
            Step::Emit(v) => {
                f.emit(Operand::reg(pick(&vals, *v)));
                continue;
            }
        };
        vals.push(v);
        if vals.len() > 16 {
            vals.remove(0);
        }
    }
    for (i, v) in vals.iter().rev().take(4).enumerate() {
        let _ = i;
        f.emit(Operand::reg(*v));
    }
    f.ret(&[]);
    let id: FuncId = f.finish();
    mb.finish(id)
}

fn run(module: &Module) -> (RunStatus, Vec<u64>) {
    let p = lower(module, &LowerConfig::default()).expect("lowering succeeds");
    let r = Machine::new(&p, &MachineConfig::default()).run(None);
    (r.status, r.output)
}

/// No-fault transparency for every technique on arbitrary programs.
#[test]
fn transforms_preserve_semantics() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xA11CE ^ (case << 24));
        let seeds = random_seeds(&mut rng, -1000, 1000);
        let steps = random_steps(&mut rng, 1, 60);
        let module = build_program(&seeds, &steps);
        assert!(sor_ir::verify(&module).is_ok(), "case {case}");
        let (status, expected) = run(&module);
        // Division by a generated zero may legitimately fault; transforms
        // must preserve *that* too, but output comparison needs completion.
        for t in T::ALL {
            let transformed = t.apply(&module);
            assert!(
                sor_ir::verify(&transformed).is_ok(),
                "case {case}: {t} verifies"
            );
            let (s2, out2) = run(&transformed);
            assert_eq!(s2, status, "case {case}: {t} changed the exit status");
            if status == RunStatus::Completed {
                assert_eq!(out2, expected, "case {case}: {t} changed the output");
            }
        }
    }
}

/// The printer/parser round trip is lossless on arbitrary programs and
/// their transformed versions.
#[test]
fn printer_parser_round_trip() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x50C1A1 ^ (case << 24));
        let seeds = random_seeds(&mut rng, -50, 50);
        let steps = random_steps(&mut rng, 1, 30);
        let module = build_program(&seeds, &steps);
        for t in [T::Noft, T::SwiftR, T::Trump] {
            let m = t.apply(&module);
            let text = m.to_string();
            let parsed = sor_ir::parse_module(&text)
                .unwrap_or_else(|e| panic!("case {case} {t}: {e}\n{text}"));
            assert_eq!(parsed, m, "case {case} {t}");
        }
    }
}

/// SWIFT-R bounds silent corruption: faults land in the §3.2 windows of
/// vulnerability only, so across a batch of random injections the silent
/// corruption rate stays small. (Asserting *zero* would be wrong — the
/// paper is explicit that the windows cannot be eliminated, and a random
/// search will find them; a gross bound still catches broken voting, which
/// corrupts a large fraction.)
#[test]
fn swiftr_bounds_silent_corruption() {
    for case in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED5 ^ (case << 24));
        let seeds = random_seeds(&mut rng, -100, 100);
        let steps = random_steps(&mut rng, 4, 40);
        let module = build_program(&seeds, &steps);
        let transformed = T::SwiftR.apply(&module);
        let p = lower(&transformed, &LowerConfig::default()).unwrap();
        let golden = Machine::new(&p, &MachineConfig::default()).run(None);
        if golden.status != RunStatus::Completed {
            continue; // a generated division fault: nothing to compare
        }
        let mut corrupt = 0u32;
        const SHOTS: u32 = 30;
        for _ in 0..SHOTS {
            let reg = {
                let r = rng.gen_range(0, 28) as u8;
                if r == 1 {
                    2 // never the SP
                } else {
                    r
                }
            };
            let f = FaultSpec::new(
                rng.gen_range(0, golden.dyn_instrs.max(1)),
                reg,
                rng.gen_range(0, 64) as u8,
            );
            let r = Machine::new(&p, &MachineConfig::default()).run(Some(f.into()));
            if r.status == RunStatus::Completed && r.output != golden.output {
                corrupt += 1;
            }
        }
        assert!(
            corrupt <= SHOTS / 5,
            "case {case}: {corrupt}/{SHOTS} random faults silently corrupted SWIFT-R output"
        );
    }
}

//! Seeded randomized-**program** fuzz for the native superblock JIT.
//!
//! Where the differential matrix (`differential.rs`) injects seeded faults
//! into curated workloads, this fuzz randomizes the **program itself**:
//! seeded modules drawn from the full builder surface — every [`AluOp`] at
//! both widths (div/rem with guarded divisors, since a zero divisor is a
//! machine fault), every [`CmpOp`] as both `cmp` and `fcmp`, selects,
//! zero/sign-extending loads and stores at every [`MemWidth`], float
//! arithmetic including division, int↔float conversions, counted loops
//! and data-dependent diamonds — then pins golden runs and seeded fault
//! batteries (in-run and past-end slots) bit-for-bit across all three
//! engines. The point is to exercise superblock shapes no curated
//! workload contains: the JIT's side-exit stubs (div/rem, `CvtFI`) abut
//! random neighbours, spans begin and end at arbitrary ops, and the
//! span-edge contract has to hold for all of them.

use sor_core::{Pipeline, Technique, TransformConfig};
use sor_ir::{
    AluOp, CmpOp, FpOp, FunctionBuilder, MemWidth, Module, ModuleBuilder, Operand, Vreg, Width,
};
use sor_regalloc::{lower, LowerConfig};
use sor_rng::SmallRng;
use sor_sim::{DecodedProg, ExecEngine, FaultSpec, MachineConfig, Runner};
use std::sync::Arc;

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::DivU,
    AluOp::DivS,
    AluOp::RemU,
    AluOp::RemS,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::ShrL,
    AluOp::ShrA,
];
const WIDTHS: [Width; 2] = [Width::W32, Width::W64];
const MEM_WIDTHS: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
const FP_OPS: [FpOp; 4] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div];

/// Live value pools the generator draws operands from and feeds results
/// back into. Only straight-line regions may grow the pools: values
/// defined inside a diamond arm would be undefined on the other path.
struct Pools {
    ints: Vec<Vreg>,
    floats: Vec<Vreg>,
}

impl Pools {
    fn int(&self, rng: &mut SmallRng) -> Vreg {
        *rng.choose(&self.ints)
    }
    fn float(&self, rng: &mut SmallRng) -> Vreg {
        *rng.choose(&self.floats)
    }
    /// Replaces a random pool slot so later ops consume earlier results.
    fn put_int(&mut self, rng: &mut SmallRng, v: Vreg) {
        let slot = rng.gen_range(0, self.ints.len() as u64) as usize;
        self.ints[slot] = v;
    }
    fn put_float(&mut self, rng: &mut SmallRng, v: Vreg) {
        let slot = rng.gen_range(0, self.floats.len() as u64) as usize;
        self.floats[slot] = v;
    }
}

/// Either a pooled register or a random immediate.
fn int_operand(rng: &mut SmallRng, p: &Pools) -> Operand {
    if rng.gen_bool() {
        Operand::reg(p.int(rng))
    } else {
        Operand::imm(rng.next_u64() as i64)
    }
}

/// Appends one random straight-line op to the current block, feeding the
/// result (if any) back into the pools.
fn random_op(f: &mut FunctionBuilder, rng: &mut SmallRng, p: &mut Pools, ibase: Vreg, fbase: Vreg) {
    match rng.gen_range(0, 12) {
        // Integer ALU over the full op table, both widths. Division and
        // remainder guard the divisor with `| 1`: a zero divisor is a
        // SEGV-class machine fault and the golden run must complete.
        0..=2 => {
            let op = *rng.choose(&ALU_OPS);
            let width = *rng.choose(&WIDTHS);
            let a = int_operand(rng, p);
            let b = if matches!(op, AluOp::DivU | AluOp::DivS | AluOp::RemU | AluOp::RemS) {
                let raw = int_operand(rng, p);
                Operand::reg(f.or(width, raw, 1i64))
            } else if matches!(op, AluOp::Shl | AluOp::ShrL | AluOp::ShrA) && rng.gen_bool() {
                Operand::imm(rng.gen_range(0, 64) as i64)
            } else {
                int_operand(rng, p)
            };
            let v = f.alu(op, width, a, b);
            p.put_int(rng, v);
        }
        // Compare + select: every CmpOp, both widths.
        3 => {
            let op = *rng.choose(&CmpOp::ALL);
            let width = *rng.choose(&WIDTHS);
            let (a, b) = (int_operand(rng, p), int_operand(rng, p));
            let c = f.cmp(op, width, a, b);
            let (t, e) = (int_operand(rng, p), int_operand(rng, p));
            let v = f.select(c, t, e);
            p.put_int(rng, v);
        }
        // Zero- or sign-extending load at every width, aligned in-bounds.
        4 | 5 => {
            let k = rng.gen_range(0, MEM_WIDTHS.len() as u64) as usize;
            let bytes = [1u64, 2, 4, 8][k];
            let off = (rng.gen_range(0, INT_WORDS * 8 / bytes) * bytes) as i64;
            let v = if rng.gen_bool() {
                f.load(MEM_WIDTHS[k], ibase, off)
            } else {
                f.loads(MEM_WIDTHS[k], ibase, off)
            };
            p.put_int(rng, v);
        }
        // Store at every width, aligned in-bounds; later loads observe it.
        6 => {
            let k = rng.gen_range(0, MEM_WIDTHS.len() as u64) as usize;
            let bytes = [1u64, 2, 4, 8][k];
            let off = (rng.gen_range(0, INT_WORDS * 8 / bytes) * bytes) as i64;
            let src = int_operand(rng, p);
            f.store(MEM_WIDTHS[k], ibase, off, src);
        }
        // Float arithmetic, including division (IEEE: inf/NaN propagate
        // identically on every engine; the assert below is the proof).
        7 | 8 => {
            let op = *rng.choose(&FP_OPS);
            let (a, b) = (p.float(rng), p.float(rng));
            let v = f.fpu(op, a, b);
            p.put_float(rng, v);
        }
        // Float compare feeds the int pool; conversions cross back.
        9 => {
            let op = *rng.choose(&CmpOp::ALL);
            let (a, b) = (p.float(rng), p.float(rng));
            let v = f.fcmp(op, a, b);
            p.put_int(rng, v);
        }
        10 => {
            if rng.gen_bool() {
                let v = f.cvt_if(p.int(rng));
                p.put_float(rng, v);
            } else {
                // CvtFI side-exits in the JIT (x86 indefinite vs. Rust
                // saturation); random huge floats land here on purpose.
                let v = f.cvt_fi(p.float(rng));
                p.put_int(rng, v);
            }
        }
        // Float memory traffic plus the occasional mid-loop observation.
        _ => {
            let off = (rng.gen_range(0, FLOAT_WORDS) * 8) as i64;
            if rng.gen_bool() {
                let v = f.fload(fbase, off);
                p.put_float(rng, v);
            } else {
                f.fstore(fbase, off, p.float(rng));
            }
            if rng.gen_bool() {
                f.emit(Operand::reg(p.int(rng)));
            }
        }
    }
}

const INT_WORDS: u64 = 32;
const FLOAT_WORDS: u64 = 8;
const LOOP_TRIPS: i64 = 3;

/// Builds a seeded random module: global int/float arrays, a counted
/// loop whose body is a run of random ops followed by a data-dependent
/// diamond, and a tail that emits every live pool value.
fn random_module(seed: u64, body_ops: usize) -> Module {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mb = ModuleBuilder::new(format!("jit-fuzz-{seed:#x}"));
    let ints: Vec<u64> = (0..INT_WORDS).map(|_| rng.next_u64()).collect();
    let floats: Vec<f64> = (0..FLOAT_WORDS)
        .map(|_| rng.gen_range_i64(-4096, 4096) as f64 / 16.0)
        .collect();
    let g_ints = mb.alloc_global_u64s("ints", &ints);
    let g_floats = mb.alloc_global_f64s("floats", &floats);

    let mut f = mb.function("main");
    let ibase = f.movi(g_ints as i64);
    let fbase = f.movi(g_floats as i64);
    let mut pools = Pools {
        ints: (0..6).map(|_| f.movi(rng.next_u64() as i64)).collect(),
        floats: (0..4)
            .map(|_| f.fmovi(rng.gen_range_i64(-256, 256) as f64 / 8.0))
            .collect(),
    };
    let acc = f.movi(0);
    let trip = f.movi(0);

    let header = f.block();
    let body = f.block();
    let then_b = f.block();
    let else_b = f.block();
    let latch = f.block();
    let exit = f.block();
    f.jump(header);

    f.switch_to(header);
    let c = f.cmp(CmpOp::LtS, Width::W64, trip, LOOP_TRIPS);
    f.branch(c, body, exit);

    f.switch_to(body);
    for _ in 0..body_ops {
        random_op(&mut f, &mut rng, &mut pools, ibase, fbase);
    }
    // Data-dependent diamond: which arm runs varies per trip, so the
    // superblock boundary at the branch is crossed both ways.
    let parity = f.and(Width::W64, pools.int(&mut rng), 1i64);
    f.branch(parity, then_b, else_b);

    f.switch_to(then_b);
    let t_add = f.add(Width::W64, acc, pools.int(&mut rng));
    f.mov_to(acc, t_add);
    f.jump(latch);

    f.switch_to(else_b);
    let e_xor = f.xor(Width::W64, acc, pools.int(&mut rng));
    f.mov_to(acc, e_xor);
    f.jump(latch);

    f.switch_to(latch);
    let next = f.add(Width::W64, trip, 1i64);
    f.mov_to(trip, next);
    f.jump(header);

    f.switch_to(exit);
    f.emit(Operand::reg(acc));
    for k in 0..pools.ints.len() {
        f.emit(Operand::reg(pools.ints[k]));
    }
    for k in 0..pools.floats.len() {
        f.emitf(pools.floats[k]);
    }
    // Read stored bytes back so store corruption is observable output.
    let rb = f.load(MemWidth::B8, ibase, 0);
    f.emit(Operand::reg(rb));
    let frb = f.fload(fbase, 0);
    f.emitf(frb);
    f.ret(&[]);
    let id = f.finish();
    mb.finish(id)
}

/// One fuzz cell: build the random module, run it through `technique`'s
/// pipeline, lower, then pin the golden run and a seeded fault battery
/// (in-run, boundary and past-end slots) across legacy, decoded and jit.
fn fuzz_jit_cell(seed: u64, technique: Technique, interval: u64) {
    let module = random_module(seed, 48);
    let out = Pipeline::for_technique(technique)
        .run(&module, &TransformConfig::default())
        .expect("verification disabled; passes are infallible");
    let program = lower(&out.module, &LowerConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed:#x}/{technique}: {e}"));
    let decoded = Arc::new(DecodedProg::new(&program));
    let cfg = |engine| MachineConfig {
        engine,
        checkpoint_interval: interval,
        ..MachineConfig::default()
    };
    let legacy = Runner::new(&program, &cfg(ExecEngine::Legacy));
    let dec = Runner::with_images(
        &program,
        &cfg(ExecEngine::Decoded),
        Some(Arc::clone(&decoded)),
        None,
    );
    let jit = Runner::with_images(&program, &cfg(ExecEngine::Jit), Some(decoded), None);
    let label = format!("seed {seed:#x}/{technique}/interval {interval}");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    assert!(
        jit.jit().is_some(),
        "{label}: random program must compile natively"
    );

    assert_eq!(legacy.golden(), dec.golden(), "{label}: golden (legacy)");
    assert_eq!(dec.golden(), jit.golden(), "{label}: golden (jit)");
    let golden_len = jit.golden().dyn_instrs;

    let mut rng = SmallRng::seed_from_u64(seed ^ golden_len);
    let (mut l, mut d, mut j) = (legacy.replayer(), dec.replayer(), jit.replayer());
    let mut battery: Vec<FaultSpec> = (0..30)
        // Head room past golden_len draws never-fired faults too: they
        // must classify unACE on all three engines.
        .map(|_| FaultSpec::sample(&mut rng, golden_len + 8))
        .collect();
    // Deterministic boundary slots: the very first and very last
    // fault-eligible instructions, and one just past the end.
    battery.push(FaultSpec::new(0, 3, 62));
    battery.push(FaultSpec::new(golden_len - 1, 4, 1));
    battery.push(FaultSpec::new(golden_len, 5, 0));

    for fault in &battery {
        let (l_rec, l_res) = l.run_fault_record(*fault);
        let (d_rec, d_res) = d.run_fault_record(*fault);
        let (j_rec, j_res) = j.run_fault_record(*fault);
        assert_eq!(l_rec, d_rec, "{label}: {fault} record (legacy vs decoded)");
        assert_eq!(l_res, d_res, "{label}: {fault} result (legacy vs decoded)");
        assert_eq!(d_rec, j_rec, "{label}: {fault} record (decoded vs jit)");
        assert_eq!(d_res, j_res, "{label}: {fault} result (decoded vs jit)");
    }
}

#[test]
fn fuzzed_raw_programs_match_across_engines() {
    fuzz_jit_cell(0x1A57, Technique::Noft, 0);
    fuzz_jit_cell(0x2B58, Technique::Noft, 7);
    fuzz_jit_cell(0x3C59, Technique::Noft, 5);
}

#[test]
fn fuzzed_protected_programs_match_across_engines() {
    fuzz_jit_cell(0xD1CE, Technique::SwiftR, 7);
    fuzz_jit_cell(0xFACE, Technique::SwiftR, 0);
    fuzz_jit_cell(0xC0DE, Technique::Cfcss, 9);
}

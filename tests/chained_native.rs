//! The chained-native execution contract (DESIGN.md §17).
//!
//! The jit engine compiles `Jump` and `Branch` natively and chains from
//! one superblock to the next while the counted-instruction budget covers
//! each target run, charging runs up front and refunding them at side
//! exits. These tests pin that every observation point still lands where
//! the decoded interpreter and the legacy core put it, on small looping
//! programs with calls, div/rem side exits and data-dependent branches
//! inside the loop bodies.

use sor_harness::{CampaignConfig, CertifyConfig};
use sor_ir::{AluOp, CmpOp, MemWidth, ModuleBuilder, Operand, Program, RegClass, Width};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{
    ExecEngine, FaultEffect, GenFault, Machine, MachineConfig, RunResult, RunStatus,
    INJECTABLE_REGS,
};

const ENGINES: [ExecEngine; 3] = [ExecEngine::Legacy, ExecEngine::Decoded, ExecEngine::Jit];
const W: Width = Width::W64;

/// A counted outer loop of `trips` iterations. Each body loads a table
/// word, divides and takes a remainder (side exits in the middle of a
/// run), calls a helper, branches on the helper's low bit into a diamond
/// whose arms again divide or multiply, runs an inner loop of 1–4 trips,
/// stores the accumulator back and emits it every eighth iteration.
fn looping_program(trips: i64) -> Program {
    let mut mb = ModuleBuilder::new("chained");
    let table: Vec<u64> = (0..16u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234)
        .collect();
    let g = mb.alloc_global_u64s("table", &table);
    let mix = mb.declare("mix");

    let mut f = mb.function("main");
    let base = f.movi(g as i64);
    let n = f.movi(trips);
    let acc = f.movi(1);
    let i = f.movi(0);
    let j = f.movi(0);
    let header = f.block();
    let body = f.block();
    let odd = f.block();
    let even = f.block();
    let inner_init = f.block();
    let inner_head = f.block();
    let inner_body = f.block();
    let latch = f.block();
    let emit = f.block();
    let next = f.block();
    let exit = f.block();
    f.jump(header);

    f.switch_to(header);
    let more = f.cmp(CmpOp::LtS, W, i, n);
    f.branch(more, body, exit);

    f.switch_to(body);
    let slot = f.and(W, i, 15i64);
    let off = f.shl(W, slot, 3i64);
    let addr = f.add(W, base, off);
    let x = f.load(MemWidth::B8, addr, 0);
    let q = f.alu(AluOp::DivU, W, x, 7i64);
    let r = f.alu(AluOp::RemS, W, acc, 13i64);
    let y = f.add(W, q, r);
    let m = f.call(mix, &[Operand::reg(y), Operand::reg(i)], &[RegClass::Int])[0];
    let low = f.and(W, m, 1i64);
    f.branch(low, odd, even);

    f.switch_to(odd);
    f.alu_to(acc, AluOp::Mul, W, acc, 3i64);
    f.alu_to(acc, AluOp::Add, W, acc, m);
    f.jump(inner_init);

    f.switch_to(even);
    f.alu_to(acc, AluOp::Xor, W, acc, m);
    f.alu_to(acc, AluOp::DivU, W, acc, 5i64);
    f.jump(inner_init);

    f.switch_to(inner_init);
    f.mov_to(j, 0i64);
    let k = f.and(W, i, 3i64);
    let trips_in = f.add(W, k, 1i64);
    f.jump(inner_head);

    f.switch_to(inner_head);
    let go = f.cmp(CmpOp::LtS, W, j, trips_in);
    f.branch(go, inner_body, latch);

    f.switch_to(inner_body);
    let sh = f.shrl(W, acc, 7i64);
    f.alu_to(acc, AluOp::Xor, W, acc, sh);
    f.alu_to(acc, AluOp::Add, W, acc, j);
    f.alu_to(j, AluOp::Add, W, j, 1i64);
    f.jump(inner_head);

    f.switch_to(latch);
    f.store(MemWidth::B8, addr, 0, acc);
    let phase = f.and(W, i, 7i64);
    let due = f.cmp(CmpOp::Eq, W, phase, 7i64);
    f.branch(due, emit, next);

    f.switch_to(emit);
    f.emit(Operand::reg(acc));
    f.jump(next);

    f.switch_to(next);
    f.alu_to(i, AluOp::Add, W, i, 1i64);
    f.jump(header);

    f.switch_to(exit);
    f.emit(Operand::reg(acc));
    f.ret(&[]);
    let main = f.finish();

    let mut h = mb.define(mix, "mix");
    let a = h.param(RegClass::Int);
    let b = h.param(RegClass::Int);
    h.set_ret_count(1);
    let t = h.mul(W, a, 0x5851_F42D_4C95_7F2Di64);
    let u = h.xor(W, t, b);
    let v = h.shrl(W, u, 29i64);
    let w = h.xor(W, u, v);
    h.ret(&[Operand::reg(w)]);
    h.finish();

    lower(&mb.finish(main), &LowerConfig::default()).unwrap()
}

fn config(engine: ExecEngine, fuel: u64) -> MachineConfig {
    MachineConfig {
        engine,
        fuel,
        ..MachineConfig::default()
    }
}

/// One full (never early-exiting) run of `fault` on every engine; all
/// three results must agree, and the shared one is returned.
fn run_everywhere(p: &Program, fuel: u64, fault: GenFault) -> RunResult {
    let results = ENGINES.map(|engine| Machine::new(p, &config(engine, fuel)).run(Some(fault)));
    for (e, r) in ENGINES.iter().zip(&results).skip(1) {
        assert_eq!(*r, results[0], "{fault}: {e:?} differs from legacy");
    }
    results.into_iter().next().expect("three engines")
}

/// Builds the program for `trips` and returns it with its golden length.
fn program_and_len(trips: i64) -> (Program, u64) {
    let p = looping_program(trips);
    let golden = Machine::new(&p, &config(ExecEngine::Legacy, 1_000_000)).run(None);
    assert_eq!(golden.status, RunStatus::Completed);
    assert_eq!(
        golden.output.len() as i64,
        trips / 8 + 1,
        "every eighth trip emits"
    );
    (p, golden.dyn_instrs)
}

/// Golden checkpoints at every interval 1..=K are the same states at the
/// same boundaries on every engine: each budget edge inside a chained loop
/// stops native code exactly where the interpreter stops.
#[test]
fn checkpoints_match_at_every_interval() {
    let (p, len) = program_and_len(24);
    for interval in 1..=48 {
        let runs = ENGINES.map(|engine| {
            let mut m = Machine::new(&p, &config(engine, 1_000_000));
            m.enable_reuse();
            let (res, cps) = m.run_golden_with_checkpoints(interval);
            let prints: Vec<u64> = cps.iter().map(|c| c.fingerprint()).collect();
            (res, prints)
        });
        assert_eq!(runs[0].0.dyn_instrs, len);
        assert_eq!(runs[0].1.len() as u64, len.div_ceil(interval), "{interval}");
        for (e, run) in ENGINES.iter().zip(&runs).skip(1) {
            assert_eq!(*run, runs[0], "interval {interval}: {e:?}");
        }
    }
}

/// A flip that makes the outer loop spin ends in the same out-of-fuel
/// `RunResult` on every engine: chained native loops spend fuel one
/// counted instruction at a time and stop exactly when it runs out.
#[test]
fn spinning_loops_run_out_of_fuel_identically() {
    let (p, len) = program_and_len(24);
    // Fuel just past the golden length: a spinning run stops a few
    // iterations in, after chaining round the loop many times.
    let fuel = len + 777;
    let mut hangs = 0;
    for at in (0..len).step_by(29) {
        for reg in INJECTABLE_REGS {
            let fault = GenFault::new(at, FaultEffect::RegXor { reg, mask: 1 << 62 });
            let r = run_everywhere(&p, fuel, fault);
            if r.status == RunStatus::OutOfFuel {
                assert_eq!(r.dyn_instrs, fuel, "{fault}");
                hangs += 1;
            }
        }
    }
    assert!(hangs > 0, "no flip made the loop spin");
}

/// A fault at every dynamic slot gives the same `RunResult` on every
/// engine. Each slot is a budget edge, so native code stops before, inside
/// and after the div/rem side exits and calls of a chained run; a refund
/// off by one would move the fault and change `fault_pc` and the result.
#[test]
fn faults_at_every_slot_match_the_interpreters() {
    let (p, len) = program_and_len(12);
    for at in 0..len {
        let reg = INJECTABLE_REGS[at as usize % INJECTABLE_REGS.len()];
        let mask = 1 << (at % 64);
        run_everywhere(
            &p,
            1_000_000,
            GenFault::new(at, FaultEffect::RegXor { reg, mask }),
        );
    }
}

/// Every production entry point runs the jit engine unless a test asks
/// for an oracle: the machine, campaign and certification defaults all
/// select it, and on x86-64 Linux a default runner really holds a native
/// image whose golden and fault results equal the legacy core's.
#[test]
fn production_defaults_run_native() {
    assert_eq!(MachineConfig::default().engine, ExecEngine::Jit);
    assert_eq!(CampaignConfig::default().engine, ExecEngine::Jit);
    assert_eq!(CertifyConfig::default().engine, ExecEngine::Jit);

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let (p, len) = program_and_len(24);
        let native = sor_sim::Runner::new(&p, &MachineConfig::default());
        assert!(
            native.jit().is_some(),
            "the default runner compiles natively"
        );
        let legacy = sor_sim::Runner::new(
            &p,
            &MachineConfig {
                engine: ExecEngine::Legacy,
                ..MachineConfig::default()
            },
        );
        assert_eq!(native.golden(), legacy.golden());
        let (mut rn, mut rl) = (native.replayer(), legacy.replayer());
        for at in (0..len).step_by(13) {
            for reg in INJECTABLE_REGS {
                let fault = GenFault::new(at, FaultEffect::RegXor { reg, mask: 1 << 17 });
                assert_eq!(rn.run_fault(fault), rl.run_fault(fault), "{fault}");
            }
        }
    }
}

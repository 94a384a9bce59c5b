//! Machine-semantics integration tests: the call/return protocol, stack
//! frames, MMIO output, fault classes and the FP pipeline, exercised
//! through real lowered programs.

use sor_ir::{layout, CmpOp, FpOp, MemWidth, ModuleBuilder, Operand, RegClass, Width};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{Machine, MachineConfig, RunStatus};

fn run(module: &sor_ir::Module) -> sor_sim::RunResult {
    let p = lower(module, &LowerConfig::default()).unwrap();
    Machine::new(&p, &MachineConfig::default()).run(None)
}

#[test]
fn nested_internal_calls_pass_arguments_and_returns() {
    // main -> outer(a, b) -> inner(a) twice, mixing int and float.
    let mut mb = ModuleBuilder::new("calls");
    let inner = mb.declare("inner");
    let outer = mb.declare("outer");

    let mut main = mb.function("main");
    let r = main.call(outer, &[Operand::imm(5), Operand::imm(7)], &[RegClass::Int]);
    main.emit(Operand::reg(r[0]));
    main.ret(&[]);
    let main_id = main.finish();

    let mut o = mb.define(outer, "outer");
    let a = o.param(RegClass::Int);
    let b = o.param(RegClass::Int);
    o.set_ret_count(1);
    let ra = o.call(inner, &[Operand::reg(a)], &[RegClass::Int]);
    let rb = o.call(inner, &[Operand::reg(b)], &[RegClass::Int]);
    let sum = o.add(Width::W64, ra[0], rb[0]);
    o.ret(&[Operand::reg(sum)]);
    o.finish();

    let mut i = mb.define(inner, "inner");
    let x = i.param(RegClass::Int);
    i.set_ret_count(1);
    let sq = i.mul(Width::W64, x, x);
    i.ret(&[Operand::reg(sq)]);
    i.finish();

    let m = mb.finish(main_id);
    let r = run(&m);
    assert_eq!(r.status, RunStatus::Completed);
    assert_eq!(r.output, vec![25 + 49]);
}

#[test]
fn recursion_works_and_runaway_recursion_faults() {
    // fib(12) via naive recursion: many frames, caller-save spills.
    let mut mb = ModuleBuilder::new("fib");
    let fib = mb.declare("fib");
    let mut main = mb.function("main");
    let r = main.call(fib, &[Operand::imm(12)], &[RegClass::Int]);
    main.emit(Operand::reg(r[0]));
    main.ret(&[]);
    let main_id = main.finish();

    let mut f = mb.define(fib, "fib");
    let n = f.param(RegClass::Int);
    f.set_ret_count(1);
    let base = f.block();
    let rec = f.block();
    let c = f.cmp(CmpOp::LtS, Width::W64, n, 2i64);
    f.branch(c, base, rec);
    f.switch_to(base);
    f.ret(&[Operand::reg(n)]);
    f.switch_to(rec);
    let n1 = f.sub(Width::W64, n, 1i64);
    let n2 = f.sub(Width::W64, n, 2i64);
    let a = f.call(fib, &[Operand::reg(n1)], &[RegClass::Int]);
    let b = f.call(fib, &[Operand::reg(n2)], &[RegClass::Int]);
    let s = f.add(Width::W64, a[0], b[0]);
    f.ret(&[Operand::reg(s)]);
    f.finish();

    let m = mb.finish(main_id);
    let r = run(&m);
    assert_eq!(r.status, RunStatus::Completed);
    assert_eq!(r.output, vec![144]);

    // Infinite recursion must end in a fault (frame guard or stack
    // exhaustion), not a hang or a crash of the host.
    let mut mb = ModuleBuilder::new("inf");
    let f_id = mb.declare("f");
    let mut main = mb.function("main");
    main.call(f_id, &[], &[]);
    main.ret(&[]);
    let main_id = main.finish();
    let mut f = mb.define(f_id, "f");
    f.call(f_id, &[], &[]);
    f.ret(&[]);
    f.finish();
    let m = mb.finish(main_id);
    let r = run(&m);
    assert_eq!(r.status, RunStatus::Segv, "{:?}", r.status);
}

#[test]
fn mmio_stores_append_to_output_in_order() {
    let mut mb = ModuleBuilder::new("mmio");
    let mut f = mb.function("main");
    let out = f.movi(layout::OUT_BASE as i64);
    f.store(MemWidth::B8, out, 0, 111i64);
    f.store(MemWidth::B4, out, 0, 222i64);
    f.store(MemWidth::B8, out, 8, 333i64); // any offset in the page appends
    f.emit(Operand::imm(444));
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    let r = run(&m);
    assert_eq!(r.output, vec![111, 222, 333, 444]);
}

#[test]
fn loads_from_the_output_page_fault() {
    let mut mb = ModuleBuilder::new("mmio_ld");
    let mut f = mb.function("main");
    let out = f.movi(layout::OUT_BASE as i64);
    let v = f.load(MemWidth::B8, out, 0);
    f.emit(Operand::reg(v));
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    assert_eq!(run(&m).status, RunStatus::Segv);
}

#[test]
fn division_faults_are_segv_class() {
    let mut mb = ModuleBuilder::new("div0");
    let mut f = mb.function("main");
    let z = f.movi(0);
    let x = f.alu(sor_ir::AluOp::DivU, Width::W64, 5i64, z);
    f.emit(Operand::reg(x));
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    assert_eq!(run(&m).status, RunStatus::Segv);
}

#[test]
fn fuel_exhaustion_reports_out_of_fuel() {
    let mut mb = ModuleBuilder::new("spin");
    let mut f = mb.function("main");
    let header = f.block();
    f.jump(header);
    f.switch_to(header);
    f.jump(header);
    let id = f.finish();
    let m = mb.finish(id);
    let p = lower(&m, &LowerConfig::default()).unwrap();
    let r = Machine::new(
        &p,
        &MachineConfig {
            fuel: 10_000,
            ..MachineConfig::default()
        },
    )
    .run(None);
    assert_eq!(r.status, RunStatus::OutOfFuel);
    assert_eq!(r.dyn_instrs, 10_000);
}

#[test]
fn fp_pipeline_and_conversions() {
    let mut mb = ModuleBuilder::new("fp");
    let g = mb.alloc_global_f64s("g", &[1.5, 2.25]);
    let mut f = mb.function("main");
    let base = f.movi(g as i64);
    let a = f.fload(base, 0);
    let b = f.fload(base, 8);
    let s = f.fpu(FpOp::Add, a, b); // 3.75
    let p = f.fpu(FpOp::Mul, s, s); // 14.0625
    let d = f.fpu(FpOp::Div, p, b); // 6.25
    let sub = f.fpu(FpOp::Sub, d, a); // 4.75
    f.emitf(sub);
    let q = f.cvt_fi(sub); // trunc -> 4
    f.emit(Operand::reg(q));
    let back = f.cvt_if(q);
    let cmp = f.fcmp(CmpOp::LtS, back, sub); // 4.0 < 4.75
    f.emit(Operand::reg(cmp));
    f.fstore(base, 0, sub);
    let reread = f.fload(base, 0);
    f.emitf(reread);
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    let r = run(&m);
    assert_eq!(r.status, RunStatus::Completed);
    assert_eq!(r.output[0], 4.75f64.to_bits());
    assert_eq!(r.output[1], 4);
    assert_eq!(r.output[2], 1);
    assert_eq!(r.output[3], 4.75f64.to_bits());
}

#[test]
fn w32_arithmetic_wraps_like_c() {
    let mut mb = ModuleBuilder::new("w32");
    let mut f = mb.function("main");
    let big = f.movi(u32::MAX as i64);
    let wrapped = f.add(Width::W32, big, 2i64); // -> 1
    f.emit(Operand::reg(wrapped));
    let neg = f.sub(Width::W32, 0i64, 5i64); // -> 0xFFFF_FFFB zero-extended
    f.emit(Operand::reg(neg));
    let sh = f.shra(Width::W32, neg, 1i64); // signed shift within 32 bits
    f.emit(Operand::reg(sh));
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    let r = run(&m);
    assert_eq!(r.output, vec![1, 0xFFFF_FFFB, ((-5i32 >> 1) as u32) as u64]);
}

#[test]
fn faults_before_injection_point_do_not_fire() {
    let mut mb = ModuleBuilder::new("short");
    let mut f = mb.function("main");
    f.emit(Operand::imm(9));
    f.ret(&[]);
    let id = f.finish();
    let m = mb.finish(id);
    let p = lower(&m, &LowerConfig::default()).unwrap();
    // Injection point far beyond program end: fault never materializes.
    let r = Machine::new(&p, &MachineConfig::default())
        .run(Some(sor_sim::FaultSpec::new(1_000_000, 5, 5).into()));
    assert_eq!(r.status, RunStatus::Completed);
    assert!(!r.injected);
    assert_eq!(r.output, vec![9]);
}

//! Quickstart: build a tiny program, protect it with SWIFT-R, inject a
//! fault into the middle of its computation, and watch the majority vote
//! repair it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use software_only_recovery::prelude::*;

fn main() {
    // 1. Write a program against the IR builder: sum the numbers 1..=100
    //    out of a table in memory and emit the total.
    let mut mb = ModuleBuilder::new("quickstart");
    let table = mb.alloc_global_u64s("table", &(1..=100u64).collect::<Vec<_>>());
    let mut f = mb.function("main");
    let base = f.movi(table as i64);
    let i = f.movi(0);
    let sum = f.movi(0);
    let header = f.block();
    let body = f.block();
    let exit = f.block();
    f.jump(header);
    f.switch_to(header);
    let c = f.cmp(sor_ir::CmpOp::LtU, Width::W64, i, 100i64);
    f.branch(c, body, exit);
    f.switch_to(body);
    let off = f.shl(Width::W64, i, 3i64);
    let addr = f.add(Width::W64, base, off);
    let x = f.load(MemWidth::B8, addr, 0);
    let s2 = f.add(Width::W64, sum, x);
    f.mov_to(sum, s2);
    let i2 = f.add(Width::W64, i, 1i64);
    f.mov_to(i, i2);
    f.jump(header);
    f.switch_to(exit);
    f.emit(Operand::reg(sum));
    f.ret(&[]);
    let main_fn = f.finish();
    let module = mb.finish(main_fn);

    // 2. Apply the paper's SWIFT-R transform and lower both versions.
    let protected = Technique::SwiftR.apply(&module);
    let plain = lower(&module, &LowerConfig::default()).unwrap();
    let hardened = lower(&protected, &LowerConfig::default()).unwrap();
    println!(
        "static instructions: {} plain -> {} SWIFT-R",
        plain.len(),
        hardened.len()
    );

    // 3. Golden runs agree.
    let golden = Machine::new(&plain, &MachineConfig::default()).run(None);
    println!("plain output    : {:?}", golden.output);
    assert_eq!(golden.output, vec![5050]);

    // 4. Hunt for a fault that actually damages the unprotected build
    //    (most random flips hit dead state — that's the paper's 74% unACE).
    let fault = (0..golden.dyn_instrs)
        .flat_map(|at| FaultSpec::injectable_regs().map(move |r| FaultSpec::new(at, r, 13)))
        .find(|&f| {
            let r = Machine::new(&plain, &MachineConfig::default()).run(Some(f.into()));
            r.status != RunStatus::Completed || r.output != golden.output
        })
        .expect("some fault must damage the unprotected program");
    let hurt = Machine::new(&plain, &MachineConfig::default()).run(Some(fault.into()));
    println!(
        "plain under '{fault}': status {:?}, output {:?}  <- damaged",
        hurt.status, hurt.output
    );

    // 5. The SWIFT-R build shrugs off faults at the same point in its own
    //    execution — sweep the surrounding region to show it.
    let hardened_golden = Machine::new(&hardened, &MachineConfig::default()).run(None);
    let scale = hardened_golden.dyn_instrs as f64 / golden.dyn_instrs as f64;
    let at = (fault.at_instr as f64 * scale) as u64;
    let mut repaired_total = 0u64;
    for delta in 0..16 {
        let f = FaultSpec::new(at + delta, fault.reg, fault.bit);
        let r = Machine::new(&hardened, &MachineConfig::default()).run(Some(f.into()));
        assert_eq!(r.output, vec![5050], "SWIFT-R must still be correct");
        repaired_total += r.probes.vote_repairs;
    }
    println!(
        "SWIFT-R under 16 faults around the same point: all outputs correct, \
         {repaired_total} vote repairs fired"
    );
}

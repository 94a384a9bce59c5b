//! The span loop's timing model against its per-instruction reference.
//!
//! Timed runs execute on the decoded span loop and feed the scheduler
//! per-pc descriptors (DESIGN.md §18). `sor_sim::timing_reference` runs the
//! same program on the legacy core and feeds it one instruction at a time
//! from a `PInst` match, the path the descriptors replaced. The two must
//! agree on every observable — status, output, dynamic instructions,
//! cycles, L1-D hits and misses — for every differential-matrix program
//! and every registry-size kernel under every Figure-8 technique, under
//! timing configurations that stress each part of the model: the default,
//! a taken-branch penalty, a narrow machine with a small reorder buffer,
//! and a small 2-way cache. A hand-built loop adds what the workloads
//! leave out: stores to the output page.

use sor_core::Technique;
use sor_harness::ArtifactStore;
use sor_ir::{
    layout, AluOp, CmpOp, FpOp, MemWidth, ModuleBuilder, Operand, Program, RegClass, Width,
};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{
    timing_reference, CacheConfig, ExecEngine, Machine, MachineConfig, RunResult, RunStatus,
    TimingConfig,
};
use sor_workloads::{all_workloads, AdpcmDec, Art, Mpeg2Dec, Mpeg2Enc, Workload};
use std::sync::Arc;

fn configs() -> [(&'static str, TimingConfig); 4] {
    [
        ("default", TimingConfig::default()),
        (
            "taken-branch penalty 3",
            TimingConfig {
                taken_branch_penalty: 3,
                ..TimingConfig::default()
            },
        ),
        (
            "2-wide, 16-entry ROB",
            TimingConfig {
                issue_width: 2,
                rob_size: 16,
                ..TimingConfig::default()
            },
        ),
        (
            "1 KiB 2-way L1-D",
            TimingConfig {
                cache: CacheConfig {
                    size: 1024,
                    assoc: 2,
                    ..CacheConfig::default()
                },
                ..TimingConfig::default()
            },
        ),
    ]
}

/// The differential matrix's workloads (`crates/harness/tests/differential.rs`).
fn matrix() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AdpcmDec {
            samples: 80,
            seed: 7,
        }),
        Box::new(Mpeg2Dec { blocks: 3, seed: 2 }),
        Box::new(Mpeg2Enc { blocks: 2, seed: 1 }),
        Box::new(Art {
            neurons: 4,
            inputs: 4,
            epochs: 2,
            seed: 3,
        }),
    ]
}

fn timed(timing: TimingConfig) -> MachineConfig {
    MachineConfig {
        timing: Some(timing),
        ..MachineConfig::default()
    }
}

/// The timed runs of `prog` under every config equal the reference's;
/// returns the reference under the default config.
fn check_program(prog: &Program, name: &str) -> RunResult {
    let mut default = None;
    for (label, timing) in configs() {
        let cfg = timed(timing);
        let reference = timing_reference(prog, &cfg);
        assert_eq!(reference.status, RunStatus::Completed, "{name} [{label}]");
        assert!(reference.cycles.is_some_and(|c| c > 0), "{name} [{label}]");
        assert_eq!(
            Machine::new(prog, &cfg).run(None),
            reference,
            "{name} [{label}]: span loop vs per-instruction reference"
        );
        default.get_or_insert(reference);
    }
    default.expect("at least one config")
}

/// A loop whose body loads a table word, selects between it and the
/// running sum (so the `Select` waits on whichever arm is slower), divides,
/// stores the sum to the output page and back to the table, converts and
/// divides in floating point and stores that to the output page too, and
/// calls a helper. Output-page stores must touch no cache line.
fn quirks_program(trips: i64) -> Program {
    const W: Width = Width::W64;
    let mut mb = ModuleBuilder::new("timing_quirks");
    let table: Vec<u64> = (0..512u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8)
        .collect();
    let g = mb.alloc_global_u64s("table", &table);
    let mix = mb.declare("mix");

    let mut f = mb.function("main");
    let base = f.movi(g as i64);
    let out = f.movi(layout::OUT_BASE as i64);
    let n = f.movi(trips);
    let acc = f.movi(1);
    let i = f.movi(0);
    let three = f.fmovi(3.0);
    let header = f.block();
    let body = f.block();
    let exit = f.block();
    f.jump(header);

    f.switch_to(header);
    let more = f.cmp(CmpOp::LtS, W, i, n);
    f.branch(more, body, exit);

    f.switch_to(body);
    let scaled = f.mul(W, i, 37i64);
    let slot = f.and(W, scaled, 511i64);
    let off = f.shl(W, slot, 3i64);
    let addr = f.add(W, base, off);
    let x = f.load(MemWidth::B8, addr, 0);
    let odd = f.and(W, i, 1i64);
    let pick = f.select(odd, x, acc);
    let q = f.alu(AluOp::DivU, W, pick, 7i64);
    f.alu_to(acc, AluOp::Add, W, acc, q);
    f.store(MemWidth::B8, out, 0, acc);
    f.store(MemWidth::B8, addr, 0, acc);
    let fv = f.cvt_if(acc);
    let fq = f.fpu(FpOp::Div, fv, three);
    f.fstore(out, 8, fq);
    let m = f.call(mix, &[Operand::reg(acc), Operand::reg(i)], &[RegClass::Int])[0];
    f.alu_to(acc, AluOp::Xor, W, acc, m);
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
    let t = h.shrl(W, a, 3i64);
    let u = h.xor(W, t, b);
    h.ret(&[Operand::reg(u)]);
    h.finish();

    lower(&mb.finish(main), &LowerConfig::default()).unwrap()
}

/// Checks the timed runs of `w` under `technique` against the reference,
/// and the harness path once more: the artifact's shared decoded image,
/// with a compiled native image on offer that a timed run must leave
/// alone.
fn check(store: &ArtifactStore, w: &dyn Workload, technique: Technique) {
    let art = store.get(w, technique, &Default::default(), &LowerConfig::default());
    let name = format!("{}/{technique}", w.name());
    let reference = check_program(&art.program, &name);
    assert_eq!(reference.output, w.reference_output(), "{name}: output");
    let shared = Machine::with_images(
        &art.program,
        &timed(TimingConfig::default()),
        Arc::clone(&art.decoded),
        art.jit_for(ExecEngine::Jit),
    );
    assert_eq!(shared.run(None), reference, "{name}: shared images");
}

#[test]
fn differential_matrix_programs_time_like_the_reference() {
    let store = ArtifactStore::new();
    for w in &matrix() {
        for technique in Technique::ALL {
            check(&store, w.as_ref(), technique);
        }
    }
}

#[test]
fn figure_nine_programs_time_like_the_reference() {
    let store = ArtifactStore::new();
    for w in &all_workloads() {
        for technique in Technique::FIGURE8 {
            check(&store, w.as_ref(), technique);
        }
    }
}

#[test]
fn output_page_stores_and_selects_time_like_the_reference() {
    let prog = quirks_program(300);
    let r = check_program(&prog, "timing_quirks");
    assert_eq!(r.output.len(), 601, "two output-page stores per trip");
}

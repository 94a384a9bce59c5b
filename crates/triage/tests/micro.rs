//! Micro-workload triage tests: adaptive sampling vs exhaustive ground
//! truth, and role attribution of voter faults under SWIFT-R.

use sor_ace::DefUseTrace;
use sor_core::{Technique, TransformConfig};
use sor_ir::{
    CmpOp, MemWidth, Module, ModuleBuilder, Operand, PArg, PInst, POperand, Preg, ProtectionRole,
    Width,
};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{FaultEffect, FaultSpec, GenFault, MachineConfig, Outcome, Runner};
use sor_triage::{adaptive_profile, AdaptiveConfig, VulnerabilityProfile};
use std::collections::{BTreeMap, BTreeSet};

/// A straight-line "staircase" whose live-register count ramps from 0 up
/// to 5 and back down: five values are built (each kept live until the
/// reduction), then folded pairwise into a sum that is emitted. Per-site
/// SDC rates over a fixed 8-register/bit grid are therefore tiered in
/// steps of one live register (12.5%), with a single peak and symmetric
/// pairs below it — so the top-5 most-vulnerable sites (the peak plus two
/// pairs) are separated from rank 6 by a full step, a well-posed ranking
/// for the adaptive-vs-exhaustive comparison, unlike a homogeneous loop
/// body where every site ties.
fn staircase_module() -> Module {
    let mut mb = ModuleBuilder::new("stair");
    let mut f = mb.function("main");
    let b = f.movi(21);
    let c = f.add(Width::W64, b, 11i64);
    let d = f.add(Width::W64, c, 5i64);
    let e = f.mul(Width::W64, d, 3i64);
    let ff = f.add(Width::W64, e, 9i64);
    let t1 = f.add(Width::W64, b, c);
    let t2 = f.add(Width::W64, t1, d);
    let t3 = f.add(Width::W64, t2, e);
    let t4 = f.add(Width::W64, t3, ff);
    f.emit(Operand::reg(t4));
    f.ret(&[]);
    let id = f.finish();
    mb.finish(id)
}

/// A small loop with a clear vulnerability structure: a multiply-accumulate
/// over 12 iterations whose accumulator, index and base address all live in
/// registers the whole time, then one store through the base.
fn micro_module() -> Module {
    let mut mb = ModuleBuilder::new("micro");
    let g = mb.alloc_global("g", 16);
    let mut f = mb.function("main");
    let base = f.movi(g as i64);
    let acc = f.movi(1);
    let i = f.movi(0);
    let header = f.block();
    let body = f.block();
    let exit = f.block();
    f.jump(header);
    f.switch_to(header);
    let c = f.cmp(CmpOp::LtU, Width::W64, i, 12i64);
    f.branch(c, body, exit);
    f.switch_to(body);
    let scaled = f.mul(Width::W64, acc, 3i64);
    let bumped = f.add(Width::W64, scaled, i);
    f.mov_to(acc, bumped);
    let next = f.add(Width::W64, i, 1i64);
    f.mov_to(i, next);
    f.jump(header);
    f.switch_to(exit);
    f.store(MemWidth::B8, base, 0, acc);
    f.emit(Operand::reg(acc));
    f.ret(&[]);
    let id = f.finish();
    mb.finish(id)
}

/// Exhaustive ground truth over a fixed (slot x register x bit) grid.
fn exhaustive(runner: &Runner, regs: &[u8], bits: &[u8]) -> (VulnerabilityProfile, u64) {
    let golden_len = runner.golden().dyn_instrs;
    let mut profile = VulnerabilityProfile::new();
    let mut replayer = runner.replayer();
    let mut injections = 0u64;
    for at in 0..golden_len {
        for &reg in regs {
            for &bit in bits {
                let (rec, res) = replayer.run_fault_record(FaultSpec::new(at, reg, bit));
                profile.record(&rec, res.probes.vote_repairs + res.probes.trump_recovers);
                injections += 1;
            }
        }
    }
    (profile, injections)
}

/// The adaptive-sampling acceptance pin: on the staircase micro-workload,
/// the sampler identifies the same top-5 most-vulnerable static
/// instructions as exhaustive injection while spending at most a quarter
/// of the exhaustive budget.
#[test]
fn adaptive_finds_exhaustive_top5_within_quarter_budget() {
    let module = staircase_module();
    let program = lower(&module, &LowerConfig::default()).unwrap();
    let runner = Runner::new(&program, &MachineConfig::default());

    let regs: Vec<u8> = vec![0, 2, 3, 4, 5, 6, 7, 8];
    let bits: Vec<u8> = (0..64).collect();
    let (truth, exhaustive_budget) = exhaustive(&runner, &regs, &bits);
    let mut expected: Vec<usize> = truth
        .top_vulnerable(5)
        .into_iter()
        .map(|(pc, _)| pc)
        .collect();

    // The sampler draws from the same (register, bit) space as the
    // exhaustive grid, so both estimate the same per-site SDC rate. The
    // question under test is a ranking, so the whole post-pilot budget
    // goes to the rank-5 membership race (threshold 100 can never
    // straddle a 95% interval, disabling threshold refinement): the race
    // spends every leftover injection on exactly the sites that decide
    // top-5 membership.
    let budget = exhaustive_budget / 4;
    let result = adaptive_profile(
        &runner,
        &AdaptiveConfig {
            pilot: budget / 6,
            batch: 12,
            threshold_pct: 100.0,
            budget,
            seed: 0xBEEF,
            regs: regs.clone(),
            bits: bits.clone(),
            rank_k: 5,
        },
    );
    assert!(
        result.injections <= exhaustive_budget / 4,
        "adaptive spent {} of {} allowed",
        result.injections,
        exhaustive_budget / 4
    );
    let mut found: Vec<usize> = result
        .profile
        .top_vulnerable(5)
        .into_iter()
        .map(|(pc, _)| pc)
        .collect();
    expected.sort_unstable();
    found.sort_unstable();
    assert_eq!(
        found,
        expected,
        "adaptive top-5 diverged from exhaustive ground truth\n{:?}\nvs\n{:?}",
        result.profile.top_vulnerable(5),
        truth.top_vulnerable(5)
    );
}

/// Whether `inst` reads integer register `reg` as a source operand
/// (including store/load address bases and call/return argument registers).
fn reads_int_reg(inst: &PInst, reg: u8) -> bool {
    let r = |p: Preg| p.is_int() && p.index() == reg;
    let o = |p: &POperand| matches!(p, POperand::Reg(q) if r(*q));
    let a = |p: &PArg| matches!(p, PArg::Reg(q) if r(*q));
    match inst {
        PInst::Alu { a: x, b: y, .. } | PInst::Cmp { a: x, b: y, .. } => o(x) || o(y),
        PInst::Select { cond, t, f, .. } => r(*cond) || o(t) || o(f),
        PInst::Mov { src, .. } => o(src),
        PInst::Load { base, .. } | PInst::FLoad { base, .. } => r(*base),
        PInst::Store { base, src, .. } => r(*base) || o(src),
        PInst::FStore { base, .. } => r(*base),
        PInst::Branch { cond, .. } => r(*cond),
        PInst::CvtIF { src, .. } => r(*src),
        PInst::CallInt { args, .. } | PInst::CallExt { args, .. } => args.iter().any(a),
        PInst::Ret { vals, .. } => vals.iter().any(a),
        _ => false,
    }
}

/// Role-attribution soundness under SWIFT-R: exhaustive injection over a
/// register/bit grid. A fault landing on a voter-tagged instruction is
/// either recovered/detected, or it is a *vote-to-use window* escape: the
/// flip corrupted a register whose vote had already compared but whose
/// protected use had not yet executed — in which case the flipped register
/// must be a source operand of the next original-role instruction. No
/// voter-site fault escapes silently by any other mechanism, and escapes
/// are a small minority of voter-site faults.
#[test]
fn swiftr_voter_faults_recover_or_escape_through_vote_to_use_window() {
    let module = micro_module();
    let protected = Technique::SwiftR.apply_with(&module, &TransformConfig::default());
    let program = lower(&protected, &LowerConfig::default()).unwrap();
    assert!(
        program.roles.contains(&ProtectionRole::Voter),
        "SWIFT-R image must contain voter-tagged instructions"
    );
    let runner = Runner::new(&program, &MachineConfig::default());
    let golden_len = runner.golden().dyn_instrs;
    let mut replayer = runner.replayer();
    let mut voter_hits = 0u64;
    let mut escapes = 0u64;
    let mut repairs_seen = 0u64;
    for at in 0..golden_len {
        for reg in [2u8, 3, 4, 5, 6, 7] {
            for bit in [0u8, 31, 62] {
                let (rec, res) = replayer.run_fault_record(FaultSpec::new(at, reg, bit));
                if rec.role != ProtectionRole::Voter {
                    continue;
                }
                voter_hits += 1;
                repairs_seen += res.probes.vote_repairs;
                if !matches!(rec.outcome, Outcome::Sdc | Outcome::Hang) {
                    continue;
                }
                escapes += 1;
                let pc = rec.static_inst.expect("voter record must carry its pc");
                let next_use = (pc..program.len())
                    .find(|&p| program.roles[p] == ProtectionRole::Original)
                    .expect("voter sequence must precede a protected use");
                assert!(
                    reads_int_reg(&program.insts[next_use], reg),
                    "voter-site fault {} produced {:?} but r{reg} is not consumed \
                     by the next protected use `{}` at pc {next_use} — a silent \
                     escape outside the vote-to-use window",
                    rec.fault,
                    rec.outcome,
                    program.insts[next_use]
                );
            }
        }
    }
    assert!(
        voter_hits > 0,
        "no fault ever landed on a voter instruction"
    );
    assert!(repairs_seen > 0, "voter faults must exercise vote repair");
    assert!(
        escapes * 5 <= voter_hits,
        "window escapes ({escapes}) should be a small minority of \
         voter-site faults ({voter_hits})"
    );
}

/// Maximal-block partition of a lowered image: every Jump/Branch target,
/// every fall-through after a terminator, and every function `Enter`
/// starts a block.
fn block_starts(program: &sor_ir::Program) -> BTreeSet<usize> {
    let mut starts = BTreeSet::new();
    starts.insert(0);
    for (pc, inst) in program.insts.iter().enumerate() {
        match inst {
            PInst::Jump(t) => {
                starts.insert(*t);
                starts.insert(pc + 1);
            }
            PInst::Branch { t, f, .. } => {
                starts.insert(*t);
                starts.insert(*f);
                starts.insert(pc + 1);
            }
            PInst::Ret { .. } | PInst::Trap(_) => {
                starts.insert(pc + 1);
            }
            PInst::Enter { .. } => {
                starts.insert(pc);
            }
            _ => {}
        }
    }
    starts.retain(|&s| s < program.len());
    starts
}

/// The detection guarantee CFCSS is built on, pinned exhaustively — the
/// control-flow analogue of the SWIFT-R vote-to-use escape-window test
/// above: at every dynamic control-transfer slot, redirecting the pc to
/// *any* signature-checked block head other than the transfer's own legal
/// successors and the current block's own head is caught by the `G == s_j`
/// check, deterministically.
///
/// The two exclusions are exactly CFCSS's documented blind spots for this
/// fault shape: landing on a legal successor replays the intended edge
/// (the run-time signature already matches), and landing back on the
/// current block's own head re-passes the check that block already
/// satisfied (re-executing its body — detectable only by data-flow
/// schemes, not signatures). Everything else must trap, because the
/// signature register G holds the current block's (injective) signature
/// and every checked head compares against its own.
#[test]
fn cfcss_detects_every_wrong_successor_pc_corruption() {
    let module = micro_module();
    let protected = Technique::Cfcss.apply_with(&module, &TransformConfig::default());
    let program = lower(&protected, &LowerConfig::default()).unwrap();
    let runner = Runner::new(&program, &MachineConfig::default());
    let trace = DefUseTrace::record(&runner);

    let starts = block_starts(&program);
    // Checked heads are block starts holding a CFCSS signature check: a
    // voter-tagged `Cmp::Ne` against G followed by the det/fall branch.
    // The branch's false edge is the fall block continuing the *same*
    // original block, so it inherits the head's signature identity.
    let mut heads: Vec<usize> = Vec::new();
    let mut fall_of: BTreeMap<usize, usize> = BTreeMap::new();
    for &s in &starts {
        let is_check = matches!(program.insts[s], PInst::Cmp { op: CmpOp::Ne, .. })
            && program.roles[s] == ProtectionRole::Voter;
        if is_check {
            if let PInst::Branch { f, .. } = program.insts[s + 1] {
                heads.push(s);
                fall_of.insert(f, s);
            }
        }
    }
    assert!(
        heads.len() >= 3,
        "micro loop (header/body/exit) must yield at least 3 checked heads, got {heads:?}"
    );

    // Which checked head owns the block a given pc sits in, if any: the
    // check region itself, or a fall region continuing it. Entry, edge and
    // trap blocks have no head — no same-block exclusion applies there.
    let owner_head = |pc: usize| -> Option<usize> {
        let region = *starts.range(..=pc).next_back().expect("pc 0 is a start");
        if heads.contains(&region) {
            Some(region)
        } else {
            fall_of.get(&region).copied()
        }
    };

    let mut replayer = runner.replayer();
    let mut wrong_landings = 0u64;
    let mut same_block_skips = 0u64;
    for slot in 0..trace.len() {
        let pc = trace.check_pc(slot);
        let legal: Vec<usize> = match program.insts[pc] {
            PInst::Jump(t) => vec![t],
            PInst::Branch { t, f, .. } => vec![t, f],
            _ => continue,
        };
        let own = owner_head(pc);
        for &h in &heads {
            if legal.contains(&h) {
                continue;
            }
            if own == Some(h) {
                same_block_skips += 1;
                continue;
            }
            let fault = GenFault::new(
                slot,
                FaultEffect::PcXor {
                    mask: (pc ^ h) as u64,
                },
            );
            let (rec, _) = replayer.run_fault_record_gen(fault);
            wrong_landings += 1;
            assert_eq!(
                rec.outcome,
                Outcome::Detected,
                "pc corruption at dyn slot {slot} (pc {pc}, `{}`) redirected to \
                 checked head {h} (`{}`) escaped the signature check with {:?}",
                program.insts[pc],
                program.insts[h],
                rec.outcome
            );
        }
    }
    assert!(
        wrong_landings > 50,
        "exhaustive grid collapsed: only {wrong_landings} wrong-successor injections ran"
    );
    assert!(
        same_block_skips > 0,
        "the same-block blind spot never occurred — the exclusion logic is dead code"
    );
}

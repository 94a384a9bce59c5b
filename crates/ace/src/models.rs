//! Per-fault-model certification planning.
//!
//! The read-window pruning of [`CertPlan`](crate::CertPlan) is an argument
//! about *register* faults: a full-width write clobbers any earlier flip of
//! that register, and a window of slots sharing one first reader collapses
//! to one representative. Other fault models need their own soundness
//! arguments, and this module states them explicitly — per the project
//! rule, a model either gets a documented analytic pruning or an
//! exhaustive plan; never a silently-reused register argument.
//!
//! * **`seu-reg`** — the existing [`CertPlan`]: live read windows execute
//!   64 single-bit flips at the representative, dead windows are provably
//!   unACE (DESIGN.md §11). The generalized plan reproduces it verbatim
//!   (one `RegXor { mask: 1 << bit }` effect per bit), which is how
//!   monolithic `seu-reg` certification executes; the sectional store
//!   path keeps the [`CertPlan`] shape its records encode.
//! * **`multi-bit`** — the window equivalence holds for *any* XOR mask of
//!   a register, not just single bits: the clobber/first-read argument
//!   never inspects which bits differ. The same windows are reused with
//!   the model's 186 adjacent-burst masks (widths 2–4) per register; dead
//!   windows are analytically unACE for every mask.
//! * **`transient-alu`** — an ALU-result corruption at slot *s* commits
//!   `dst ^= trunc(width, mask)` *after* the slot's instruction executes,
//!   so it is state-equivalent to a register flip of `dst` injected at
//!   slot *s + 1*. Each ALU slot writes `dst`, so its post-state window is
//!   its own equivalence class — there is no cross-slot collapse, but
//!   liveness still prunes: if `dst` is dead at *s + 1* the fault is
//!   provably unACE, and a `W32` op truncates mask bits 32–63 to nothing
//!   (also unACE). Non-ALU slots latch nothing and replay the golden run.
//! * **`pc-corrupt`** — no register argument applies at all (the corrupted
//!   resource is control flow), so the plan is the exhaustive fallback:
//!   every slot executes every single-bit pc mask. Out-of-image targets
//!   are provably SEGV, but they are still executed — cheaply, since the
//!   run ends at the injection slot — because the *recovery-probe prefix*
//!   at each slot is not recoverable from the def-use trace, and the
//!   report's recovery attribution must match brute force exactly.
//! * **`mem-bit`** — not certifiable: the fault space (every mapped byte ×
//!   8 bits × every slot) has no analytic pruning over the def-use trace,
//!   which records register accesses only. Planning returns an error;
//!   memory faults remain a sampled-campaign model.

use crate::liveness::{CertPlan, LivenessIndex, SiteFate};
use crate::report::{CertifiedCoverage, Window};
use crate::trace::DefUseTrace;
use sor_ir::{PInst, Program};
use sor_models::{FaultModel, SampleCtx};
use sor_sim::{FaultEffect, GenFault, INJECTABLE_REGS};
use sor_stats::OutcomeCounts;
use std::fmt;

/// Why a model has no certification plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelPlanError {
    /// The model's fault space admits no sound analytic or exhaustive
    /// plan over a def-use trace (currently: `mem-bit`).
    NotCertifiable(FaultModel),
}

impl fmt::Display for ModelPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelPlanError::NotCertifiable(m) => write!(
                f,
                "fault model `{m}` is not certifiable: its fault space has no \
                 sound pruning over the def-use trace (use a sampled campaign)"
            ),
        }
    }
}

impl std::error::Error for ModelPlanError {}

/// One executed equivalence class of a generalized plan: every effect in
/// `effects` is injected at slot `rep`, and the resulting histogram
/// certifies slots `lo..=hi` (window models) or just `rep` itself
/// (per-slot models, where `lo == hi == rep`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenClass {
    /// First slot the class certifies (inclusive).
    pub lo: u64,
    /// Last slot the class certifies (inclusive).
    pub hi: u64,
    /// The slot the representatives are injected at.
    pub rep: u64,
    /// The fault effects to execute at `rep`.
    pub effects: Vec<FaultEffect>,
}

impl GenClass {
    /// Number of slots the class certifies.
    pub fn span(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Fault sites the class accounts for (`span * effects`).
    pub fn sites(&self) -> u64 {
        self.span() * self.effects.len() as u64
    }

    /// The executed representative injections.
    pub fn faults(&self) -> impl Iterator<Item = GenFault> + '_ {
        let rep = self.rep;
        self.effects.iter().map(move |&e| GenFault::new(rep, e))
    }
}

/// A window of slots whose un-executed sites are provably unACE: each
/// injection replays the golden run bit-identically (clobbered register
/// flip, truncated-away ALU mask, or a latch-nothing non-ALU slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticWindow {
    /// First slot (inclusive).
    pub lo: u64,
    /// Last slot (inclusive).
    pub hi: u64,
    /// Provably-unACE sites per slot in the window.
    pub per_slot: u64,
}

impl AnalyticWindow {
    /// Sites the window proves unACE.
    pub fn sites(&self) -> u64 {
        (self.hi - self.lo + 1) * self.per_slot
    }
}

/// The certification plan of one fault model over one golden trace: the
/// model's full fault space partitioned into executed classes and
/// analytically-unACE windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCertPlan {
    /// The fault model the plan certifies.
    pub model: FaultModel,
    /// Golden run length (dynamic instructions).
    pub golden_len: u64,
    /// Fault sites per dynamic slot in this model's space.
    pub sites_per_slot: u64,
    /// Executed equivalence classes.
    pub classes: Vec<GenClass>,
    /// Analytically-unACE windows, never executed.
    pub analytic: Vec<AnalyticWindow>,
}

/// The model's burst masks for `multi-bit`: every run of 2–4 adjacent set
/// bits that fits in 64, in deterministic (width, start) order — 186 masks.
pub fn burst_masks() -> Vec<u64> {
    let mut masks = Vec::with_capacity(186);
    for width in 2..=4u32 {
        let burst = (1u64 << width) - 1;
        for start in 0..=(64 - width) {
            masks.push(burst << start);
        }
    }
    debug_assert_eq!(masks.len(), 186);
    masks
}

impl GenCertPlan {
    /// Builds the plan for `model` over one golden trace of `program`.
    ///
    /// Errors when the model is not certifiable (`mem-bit`).
    pub fn build(
        model: FaultModel,
        program: &Program,
        trace: &DefUseTrace,
    ) -> Result<GenCertPlan, ModelPlanError> {
        match model {
            FaultModel::SeuReg => {
                let bits: Vec<u64> = (0..64).map(|b| 1u64 << b).collect();
                Ok(Self::from_windows(model, trace, &bits))
            }
            FaultModel::MultiBitUpset => Ok(Self::from_windows(model, trace, &burst_masks())),
            FaultModel::TransientAlu => Ok(Self::build_transient_alu(program, trace)),
            FaultModel::PcCorrupt => Ok(Self::build_pc_corrupt(program, trace)),
            FaultModel::MemBit => Err(ModelPlanError::NotCertifiable(model)),
        }
    }

    /// Window-reuse plan for register-mask models (`seu-reg`,
    /// `multi-bit`): the read-window equivalence classes of [`CertPlan`]
    /// with `masks` injected per register at each live representative.
    fn from_windows(model: FaultModel, trace: &DefUseTrace, masks: &[u64]) -> GenCertPlan {
        let plan = CertPlan::build(trace);
        let classes = plan
            .classes
            .iter()
            .map(|r| GenClass {
                lo: r.lo,
                hi: r.hi,
                rep: r.hi,
                effects: masks
                    .iter()
                    .map(|&mask| FaultEffect::RegXor { reg: r.reg, mask })
                    .collect(),
            })
            .collect();
        let analytic = plan
            .dead
            .iter()
            .map(|r| AnalyticWindow {
                lo: r.lo,
                hi: r.hi,
                per_slot: masks.len() as u64,
            })
            .collect();
        GenCertPlan {
            model,
            golden_len: plan.golden_len,
            sites_per_slot: INJECTABLE_REGS.len() as u64 * masks.len() as u64,
            classes,
            analytic,
        }
    }

    /// Per-ALU-slot plan for `transient-alu`: 64 single-bit result masks
    /// per slot, pruned by width truncation and by post-commit liveness of
    /// the destination register.
    fn build_transient_alu(program: &Program, trace: &DefUseTrace) -> GenCertPlan {
        let index = LivenessIndex::build(trace);
        let golden_len = trace.len();
        let mut classes = Vec::new();
        let mut analytic: Vec<AnalyticWindow> = Vec::new();
        let mut push_analytic = |slot: u64, per_slot: u64| {
            if per_slot == 0 {
                return;
            }
            match analytic.last_mut() {
                Some(w) if w.hi + 1 == slot && w.per_slot == per_slot => w.hi = slot,
                _ => analytic.push(AnalyticWindow {
                    lo: slot,
                    hi: slot,
                    per_slot,
                }),
            }
        };
        for slot in 0..golden_len {
            // The slot's counted instruction: probes at the check pc are
            // free and step through, so scan past them.
            let mut pc = trace.check_pc(slot);
            while matches!(program.insts[pc], PInst::Probe(_)) {
                pc += 1;
            }
            let (width, dst) = match program.insts[pc] {
                PInst::Alu { width, dst, .. } => (width, dst),
                // A non-ALU slot latches nothing: all 64 masks replay the
                // golden run.
                _ => {
                    push_analytic(slot, 64);
                    continue;
                }
            };
            // Mask bits at or above the op width truncate to nothing.
            let truncated = 64 - width.bits() as u64;
            // The committed corruption is a flip of `dst` in the post-slot
            // state, i.e. a register fault injected before slot + 1.
            match index.classify(dst.index(), slot + 1) {
                SiteFate::Dead => push_analytic(slot, 64),
                SiteFate::Live { .. } => {
                    push_analytic(slot, truncated);
                    classes.push(GenClass {
                        lo: slot,
                        hi: slot,
                        rep: slot,
                        effects: (0..width.bits() as u64)
                            .map(|b| FaultEffect::AluXor { mask: 1 << b })
                            .collect(),
                    });
                }
            }
        }
        GenCertPlan {
            model: FaultModel::TransientAlu,
            golden_len,
            sites_per_slot: 64,
            classes,
            analytic,
        }
    }

    /// Exhaustive plan for `pc-corrupt`: every slot executes every
    /// single-bit pc mask below the image's address width. Out-of-image
    /// targets end at the injection slot, so they cost one checkpoint
    /// prefix each; in-image targets run to termination.
    fn build_pc_corrupt(program: &Program, trace: &DefUseTrace) -> GenCertPlan {
        let golden_len = trace.len();
        let ctx = SampleCtx::for_program(program, golden_len);
        let pc_bits = ctx.pc_bits() as u64;
        let effects: Vec<FaultEffect> = (0..pc_bits)
            .map(|b| FaultEffect::PcXor { mask: 1 << b })
            .collect();
        let classes = (0..golden_len)
            .map(|slot| GenClass {
                lo: slot,
                hi: slot,
                rep: slot,
                effects: effects.clone(),
            })
            .collect();
        GenCertPlan {
            model: FaultModel::PcCorrupt,
            golden_len,
            sites_per_slot: pc_bits,
            classes,
            analytic: Vec::new(),
        }
    }

    /// Total fault sites in the model's space.
    pub fn total_sites(&self) -> u64 {
        self.golden_len * self.sites_per_slot
    }

    /// Sites pruned analytically as provably unACE.
    pub fn analytic_sites(&self) -> u64 {
        self.analytic.iter().map(|w| w.sites()).sum()
    }

    /// Sites covered by executed class representatives.
    pub fn live_sites(&self) -> u64 {
        self.classes.iter().map(|c| c.sites()).sum()
    }

    /// Injections an exhaustive certification actually executes.
    pub fn injections(&self) -> u64 {
        self.classes.iter().map(|c| c.effects.len() as u64).sum()
    }

    /// Assembles the exact report from the executed class histograms.
    ///
    /// `class_results[i]` must aggregate exactly one classified run per
    /// effect of `classes[i]`; `golden_recoveries` is credited to every
    /// analytically-pruned site (its injection replays the golden run).
    ///
    /// # Panics
    ///
    /// Panics if `class_results` does not line up with the plan, or if the
    /// plan does not tile the model's fault space.
    pub fn assemble(
        &self,
        workload: &str,
        technique: &str,
        program: &Program,
        trace: &DefUseTrace,
        class_results: &[OutcomeCounts],
        golden_recoveries: u64,
    ) -> CertifiedCoverage {
        assert_eq!(
            class_results.len(),
            self.classes.len(),
            "one executed histogram per class"
        );
        let executed = self
            .classes
            .iter()
            .zip(class_results)
            .map(|(c, &agg)| Window::executed(c.lo, c.hi, c.effects.len() as u64, agg));
        let analytic = self
            .analytic
            .iter()
            .map(|w| Window::golden(w.lo, w.hi, w.per_slot, golden_recoveries));
        CertifiedCoverage::walk(
            workload,
            technique,
            program,
            trace,
            self.total_sites(),
            executed,
            analytic,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::Technique;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, RegClass, Width};
    use sor_regalloc::{lower, LowerConfig};
    use sor_rng::SmallRng;
    use sor_sim::{MachineConfig, Outcome, Runner};

    /// A small SWIFT-R kernel whose trace has ALU ops of both widths,
    /// loads, stores, a loop and a call.
    fn program() -> Program {
        let mut mb = ModuleBuilder::new("modelspot");
        let g = mb.alloc_global_u64s("g", &[5, 0]);

        let mut callee = mb.function("mix");
        let p = callee.param(RegClass::Int);
        let d = callee.mul(Width::W32, p, p);
        callee.set_ret_count(1);
        callee.ret(&[Operand::reg(d)]);
        let callee_id = callee.finish();

        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let n = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(3);
        for i in 0..3 {
            let sq = f.call(callee_id, &[Operand::reg(acc)], &[RegClass::Int]);
            acc = f.add(Width::W64, sq[0], i as i64);
            f.store(MemWidth::B8, base, 8, acc);
        }
        let back = f.load(MemWidth::B8, base, 8);
        let sum = f.add(Width::W64, back, n);
        f.emit(Operand::reg(sum));
        f.ret(&[]);
        let id = f.finish();
        let module = Technique::SwiftR.apply(&mb.finish(id));
        lower(&module, &LowerConfig::default()).unwrap()
    }

    /// Runs every executed class of a plan and assembles the report.
    fn certify(
        plan: &GenCertPlan,
        prog: &Program,
        runner: &Runner,
        trace: &DefUseTrace,
    ) -> CertifiedCoverage {
        let mut replayer = runner.replayer();
        let results: Vec<OutcomeCounts> = plan
            .classes
            .iter()
            .map(|class| {
                let mut agg = OutcomeCounts::default();
                for fault in class.faults() {
                    let (outcome, res) = replayer.run_fault(fault);
                    agg.record(outcome, res.probes.vote_repairs + res.probes.trump_recovers);
                }
                agg
            })
            .collect();
        plan.assemble(
            "spot",
            "SWIFT-R",
            prog,
            trace,
            &results,
            runner.golden().probes.vote_repairs + runner.golden().probes.trump_recovers,
        )
    }

    #[test]
    fn seu_reg_gen_plan_reproduces_the_cert_plan() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let _ = &runner;
        let legacy = CertPlan::build(&trace);
        let gen = GenCertPlan::build(FaultModel::SeuReg, &program(), &trace).unwrap();
        assert_eq!(gen.classes.len(), legacy.classes.len());
        assert_eq!(gen.total_sites(), legacy.total_sites());
        assert_eq!(gen.analytic_sites(), legacy.dead_sites());
        assert_eq!(gen.live_sites(), legacy.live_sites());
        assert_eq!(gen.injections(), legacy.injections());
        for (g, l) in gen.classes.iter().zip(&legacy.classes) {
            assert_eq!((g.lo, g.hi, g.rep), (l.lo, l.hi, l.hi));
            assert_eq!(g.effects.len(), 64);
            assert!(g.effects.iter().enumerate().all(|(b, e)| *e
                == FaultEffect::RegXor {
                    reg: l.reg,
                    mask: 1 << b
                }));
        }
    }

    #[test]
    fn every_plan_tiles_its_fault_space() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let _ = &runner;
        for model in FaultModel::ALL {
            match GenCertPlan::build(model, &prog, &trace) {
                Ok(plan) => {
                    assert_eq!(
                        plan.live_sites() + plan.analytic_sites(),
                        plan.total_sites(),
                        "{model}: classes + analytic windows must tile the space"
                    );
                }
                Err(e) => {
                    assert_eq!(model, FaultModel::MemBit);
                    assert!(e.to_string().contains("not certifiable"));
                }
            }
        }
    }

    /// Brute-force oracle for `transient-alu`: inject every mask bit at
    /// every slot and compare against the assembled certified report.
    #[test]
    fn transient_alu_report_matches_brute_force() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = GenCertPlan::build(FaultModel::TransientAlu, &prog, &trace).unwrap();
        assert!(
            plan.analytic_sites() > 0,
            "kernel must have pruned ALU sites"
        );
        let report = certify(&plan, &prog, &runner, &trace);

        let mut brute = OutcomeCounts::default();
        let mut replayer = runner.replayer();
        for slot in 0..trace.len() {
            for bit in 0..64 {
                let fault = GenFault::new(slot, FaultEffect::AluXor { mask: 1 << bit });
                let (outcome, res) = replayer.run_fault(fault);
                brute.record(outcome, res.probes.vote_repairs + res.probes.trump_recovers);
            }
        }
        assert_eq!(
            report.counts, brute,
            "certified report diverged from brute force"
        );
    }

    /// Brute-force oracle for `pc-corrupt`: the exhaustive plan must equal
    /// injecting every pc bit at every slot directly.
    #[test]
    fn pc_corrupt_report_matches_brute_force() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = GenCertPlan::build(FaultModel::PcCorrupt, &prog, &trace).unwrap();
        let pc_bits = SampleCtx::for_program(&prog, trace.len()).pc_bits() as u64;
        assert_eq!(plan.sites_per_slot, pc_bits);
        let report = certify(&plan, &prog, &runner, &trace);

        let mut brute = OutcomeCounts::default();
        let mut replayer = runner.replayer();
        for slot in 0..trace.len() {
            for bit in 0..pc_bits {
                let fault = GenFault::new(slot, FaultEffect::PcXor { mask: 1 << bit });
                let (outcome, res) = replayer.run_fault(fault);
                brute.record(outcome, res.probes.vote_repairs + res.probes.trump_recovers);
            }
        }
        assert_eq!(
            report.counts, brute,
            "certified report diverged from brute force"
        );
    }

    /// Sampled oracle for `multi-bit`: the window argument must hold for
    /// burst masks — any site's outcome equals its class representative's,
    /// and analytically-pruned sites really replay golden.
    #[test]
    fn multi_bit_windows_match_point_injections() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = GenCertPlan::build(FaultModel::MultiBitUpset, &prog, &trace).unwrap();
        let masks = burst_masks();
        let mut rng = SmallRng::seed_from_u64(0xB025);
        let mut replayer = runner.replayer();
        for _ in 0..120 {
            let class = &plan.classes[rng.gen_range(0, plan.classes.len() as u64) as usize];
            let i = rng.gen_range(0, masks.len() as u64) as usize;
            let at = rng.gen_range(class.lo, class.hi + 1);
            let (rep_outcome, rep_res) =
                replayer.run_fault(GenFault::new(class.rep, class.effects[i]));
            let (outcome, res) = replayer.run_fault(GenFault::new(at, class.effects[i]));
            assert_eq!(
                outcome, rep_outcome,
                "window slot diverged from representative"
            );
            assert_eq!(res.probes, rep_res.probes, "recovery probes diverged");
        }
        for _ in 0..60 {
            let w = plan.analytic[rng.gen_range(0, plan.analytic.len() as u64) as usize];
            let at = rng.gen_range(w.lo, w.hi + 1);
            // Recover the register of the dead window from the legacy plan.
            let legacy = CertPlan::build(&trace);
            let reg = legacy
                .dead
                .iter()
                .find(|d| d.lo == w.lo && d.hi == w.hi)
                .expect("analytic windows mirror the dead windows")
                .reg;
            let mask = masks[rng.gen_range(0, masks.len() as u64) as usize];
            let (outcome, res) =
                replayer.run_fault(GenFault::new(at, FaultEffect::RegXor { reg, mask }));
            assert_eq!(outcome, Outcome::UnAce, "pruned burst site was not unACE");
            assert_eq!(
                res.probes,
                runner.golden().probes,
                "pruned site diverged from golden"
            );
        }
    }

    #[test]
    fn mem_bit_is_rejected_with_a_clear_error() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let _ = &runner;
        let err = GenCertPlan::build(FaultModel::MemBit, &prog, &trace).unwrap_err();
        assert_eq!(err, ModelPlanError::NotCertifiable(FaultModel::MemBit));
        assert!(err.to_string().contains("sampled campaign"));
    }

    #[test]
    fn burst_masks_are_the_models_sample_space() {
        let masks = burst_masks();
        assert_eq!(masks.len(), 186);
        let unique: std::collections::BTreeSet<_> = masks.iter().collect();
        assert_eq!(unique.len(), 186, "burst masks must be distinct");
        for &m in &masks {
            let w = m.count_ones();
            assert!((2..=4).contains(&w));
            // Adjacent bits: the mask is a contiguous run.
            assert_eq!(m >> m.trailing_zeros(), (1u64 << w) - 1);
        }
    }
}

//! # sor-ace — exhaustive fault-space certification
//!
//! Sampled campaigns (sor-harness, sor-triage) estimate coverage with
//! Wilson intervals; this crate makes the *exact* question tractable:
//! classify every single (dynamic instruction, register, bit) fault site
//! of a golden run, so "SWIFT-R recovers 100% of single faults on this
//! kernel" becomes a certificate instead of an estimate.
//!
//! * [`DefUseTrace`] — the golden run's per-slot integer-register def-use
//!   record, captured through `sor-sim`'s [`sor_sim::TraceSink`] hook.
//! * [`LivenessIndex`] / [`SiteFate`] — per-register dynamic liveness:
//!   each site is **dead** (written or never accessed before the flip can
//!   be read — provably unACE, pruned analytically) or **live** (the flip
//!   reaches a first reader).
//! * [`CertPlan`] — the full cube partitioned into dead windows and live
//!   read-window equivalence classes ([`SlotRange`]); one injection per
//!   bit at each class representative certifies the whole window.
//! * [`CertifiedCoverage`] — the assembled exact report: outcome
//!   histogram, per-static-instruction and per-[`ProtectionRole`]
//!   attribution over *all* sites, bit-for-bit equal to brute force (the
//!   harness oracle test pins this).
//! * [`CertSections`] / [`SectionKey`] — the plan partitioned into
//!   contiguous content-addressed sections for incremental
//!   re-certification: each section's executed class histograms are keyed
//!   by `(program digest, def-use slice digest, fault-model digest)` so a
//!   persistent store can serve them back exactly (soundness argument in
//!   the `incremental` module docs and DESIGN.md §14).
//!
//! [`ProtectionRole`]: sor_ir::ProtectionRole
//!
//! The execution side — running class representatives through
//! checkpoint-and-replay across worker threads — lives in
//! `sor_harness::certify_resumable`; this crate holds the analysis
//! and the exactness argument (see DESIGN.md §11).

mod incremental;
mod liveness;
mod models;
mod report;
mod trace;

pub use incremental::{
    fault_config_digest, fault_model_config_digest, CertSection, CertSections, ClassOutcome,
    SectionKey, SectionOutcomes, CERT_SEMANTICS_VERSION,
};
pub use liveness::{CertPlan, LivenessIndex, SiteFate, SlotRange};
pub use models::{burst_masks, AnalyticWindow, GenCertPlan, GenClass, ModelPlanError};
pub use report::CertifiedCoverage;
pub use trace::DefUseTrace;

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::Technique;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, Width};
    use sor_regalloc::{lower, LowerConfig};
    use sor_rng::SmallRng;
    use sor_sim::{FaultSpec, MachineConfig, Outcome, Runner};

    /// A small kernel with loads, stores, a loop and a call, transformed
    /// with SWIFT-R so the trace crosses voters and redundant copies.
    fn program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("spot");
        let g = mb.alloc_global_u64s("g", &[7, 0]);

        let mut callee = mb.function("sq");
        let p = callee.param(sor_ir::RegClass::Int);
        let d = callee.mul(Width::W64, p, p);
        callee.set_ret_count(1);
        callee.ret(&[Operand::reg(d)]);
        let callee_id = callee.finish();

        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let n = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(1);
        for i in 0..4 {
            let sq = f.call(callee_id, &[Operand::reg(acc)], &[sor_ir::RegClass::Int]);
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

    /// The differential spot check (independent of the harness oracle
    /// test): sample dead-pruned sites, actually inject each, and require
    /// unACE with a run bit-identical to golden.
    #[test]
    fn dead_pruned_sites_really_are_unace() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = CertPlan::build(&trace);
        assert!(!plan.dead.is_empty(), "kernel must have dead windows");

        let mut rng = SmallRng::seed_from_u64(0xDEAD);
        let mut replayer = runner.replayer();
        for _ in 0..300 {
            let range = plan.dead[rng.gen_range(0, plan.dead.len() as u64) as usize];
            let at = rng.gen_range(range.lo, range.hi + 1);
            let bit = rng.gen_range(0, 64) as u8;
            let fault = FaultSpec::new(at, range.reg, bit);
            let (outcome, res) = replayer.run_fault(fault);
            assert_eq!(outcome, Outcome::UnAce, "{fault} pruned dead but not unACE");
            assert!(res.injected, "{fault} never fired");
            assert_eq!(
                (res.dyn_instrs, res.probes),
                (runner.golden().dyn_instrs, runner.golden().probes),
                "{fault}: dead run diverged from golden"
            );
        }
    }

    /// The class-collapse property, checked directly: every slot of a live
    /// window produces the same outcome as its representative, bit held
    /// fixed.
    #[test]
    fn window_slots_match_their_representative() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        let plan = CertPlan::build(&trace);
        let mut rng = SmallRng::seed_from_u64(0x11FE);
        let mut replayer = runner.replayer();
        let wide: Vec<_> = plan.classes.iter().filter(|c| c.span() > 1).collect();
        assert!(!wide.is_empty(), "kernel must have multi-slot windows");
        for _ in 0..40 {
            let range = wide[rng.gen_range(0, wide.len() as u64) as usize];
            let bit = rng.gen_range(0, 64) as u8;
            let rep = FaultSpec::new(range.hi, range.reg, bit);
            let (rep_outcome, rep_res) = replayer.run_fault(rep);
            let at = rng.gen_range(range.lo, range.hi + 1);
            let f = FaultSpec::new(at, range.reg, bit);
            let (outcome, res) = replayer.run_fault(f);
            assert_eq!(outcome, rep_outcome, "{f} vs representative {rep}");
            assert_eq!(
                res.probes, rep_res.probes,
                "{f}: recovery probes diverged from representative"
            );
        }
    }

    /// The plan's site arithmetic is consistent on a real program.
    #[test]
    fn plan_accounts_for_every_site() {
        let prog = program();
        let runner = Runner::new(&prog, &MachineConfig::default());
        let trace = DefUseTrace::record(&runner);
        assert_eq!(trace.len(), runner.golden().dyn_instrs);
        let plan = CertPlan::build(&trace);
        assert_eq!(plan.dead_sites() + plan.live_sites(), plan.total_sites());
        assert!(
            plan.injections() * 5 <= plan.total_sites(),
            "liveness pruning should cut the space at least 5x: {} of {}",
            plan.injections(),
            plan.total_sites()
        );
    }
}

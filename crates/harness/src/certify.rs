//! Exhaustive certified campaigns (the `sor-ace` execution driver).
//!
//! A certified campaign classifies *every* fault site of the cube
//! `golden_len x injectable registers x 64 bits` — no sampling, no
//! confidence interval. The `sor-ace` analysis prunes sites whose flip is
//! provably clobbered before it can be read and collapses the rest into
//! read-window equivalence classes; only one injection per bit per class
//! is executed, riding the same checkpoint-and-replay machines and
//! work-stealing worker pool as the sampled campaigns. The assembled
//! [`CertifiedCoverage`] is bit-for-bit what brute-force injection of
//! every single site would report (outcome histogram, per-site and
//! per-role attribution) — the oracle tests below pin exactly that.

use crate::artifact::ArtifactStore;
use crate::ctrl::{Progress, RunCtrl, Status};
use crate::pool;
use crate::store::ResultStore;
use sor_ace::{
    CertPlan, CertSections, CertifiedCoverage, ClassOutcome, DefUseTrace, GenCertPlan,
    ModelPlanError, SectionOutcomes,
};
use sor_core::Technique;
use sor_ir::Program;
use sor_models::FaultModel;
use sor_regalloc::LowerConfig;
use sor_sim::{DecodedProg, ExecEngine, FaultSpec, GenFault, GenFaultRecord, JitProg, RunResult};
use sor_stats::OutcomeCounts;
use sor_workloads::Workload;
use std::sync::Arc;

/// Certified-campaign parameters.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Transform configuration.
    pub transform: sor_core::TransformConfig,
    /// Contiguous dynamic-slot sections [`certify_resumable`] splits the
    /// plan into — the granularity of [`ResultStore`] reuse and of
    /// pausing. Results are bit-identical for every value (the
    /// incremental tests pin this); more sections = finer partial reuse,
    /// slightly more store records.
    pub sections: usize,
    /// Fault model to certify (see [`FaultModel`]). The sectional store
    /// path serves the default, [`FaultModel::SeuReg`], only (its record
    /// format encodes the SEU plan shape, and a wrong reuse would be
    /// silent); other models certify in one monolithic pass through
    /// [`sor_ace::GenCertPlan`] and bypass the store.
    /// [`FaultModel::MemBit`] is not certifiable (no per-address liveness
    /// argument) and panics with [`ModelPlanError::NotCertifiable`]'s
    /// message; use a sampled campaign for it.
    pub fault_model: FaultModel,
    /// Execution engine for the golden run and every injection (see
    /// [`ExecEngine`]): [`ExecEngine::Jit`] by default, degrading to the
    /// decoded interpreter where native compilation is unavailable. All
    /// three engines are bit-identical by contract (the differential
    /// tests pin it), so the field is the oracle/test hook those tests
    /// use, not a throughput knob.
    pub engine: ExecEngine,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            threads: 0,
            transform: sor_core::TransformConfig::default(),
            sections: 8,
            fault_model: FaultModel::SeuReg,
            engine: ExecEngine::default(),
        }
    }
}

/// Certifies one lowered program's full `seu-reg` fault space in one
/// monolithic pass with the default engine.
///
/// This is the *reference* the sectional driver ([`certify_resumable`])
/// is pinned against in tests — production certification never calls
/// it. Results are independent of `threads`: workers fill a per-class
/// result slot, and assembly walks classes in plan order.
pub fn certify_program(
    program: &Program,
    workload: &str,
    technique: &str,
    threads: usize,
) -> CertifiedCoverage {
    let cfg = CertifyConfig {
        threads,
        ..CertifyConfig::default()
    };
    certify_program_model(program, None, None, workload, technique, &cfg)
        .expect("seu-reg is certifiable")
}

/// Certifies one lowered program's full fault space under
/// `cfg.fault_model` in one monolithic pass: records the def-use trace,
/// builds the model's [`GenCertPlan`] (per-model unACE arguments — see
/// `sor_ace::models` and DESIGN.md §16), executes every class effect
/// across the work-stealing pool, and assembles the exact coverage
/// report. Reuses the predecoded program and (under [`ExecEngine::Jit`])
/// the compiled native image when given. `Err(ModelPlanError::NotCertifiable)`
/// for models with no sound pruning argument ([`FaultModel::MemBit`]).
///
/// Two roles: it is [`certify_resumable`]'s branch for non-default
/// models (which the sectional store cannot hold), and, under `seu-reg`,
/// the monolithic reference tests compare the sectional driver against
/// (see [`certify_program`]). `cfg.sections` is ignored.
///
/// Results are independent of thread count: workers fold
/// into per-class result slots, and assembly walks classes in plan order.
pub fn certify_program_model(
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
) -> Result<CertifiedCoverage, ModelPlanError> {
    let runner = pool::build_runner(program, decoded, jit, cfg.engine);
    let trace = DefUseTrace::record(&runner);
    let plan = GenCertPlan::build(cfg.fault_model, program, &trace)?;
    let golden_recoveries =
        runner.golden().probes.vote_repairs + runner.golden().probes.trump_recovers;

    // The plan flattens to each class's effects at its representative
    // slot, with a parallel class-index map (classes carry model-specific
    // effect lists). The shared pool work-steals them. Folding by class
    // index keeps per-class slots exact, so the report is identical for
    // any thread count — windows
    // ending late in the run replay long suffixes, so classes, like
    // sampled faults, have wildly variable costs and still want stealing.
    let mut faults: Vec<GenFault> = Vec::new();
    let mut class_of: Vec<usize> = Vec::new();
    for (ci, class) in plan.classes.iter().enumerate() {
        faults.extend(class.faults());
        class_of.extend(std::iter::repeat_n(ci, class.effects.len()));
    }
    let mut class_results: Vec<OutcomeCounts> = pool::inject_faults(
        &runner,
        faults,
        cfg.threads,
        |acc: &mut Vec<OutcomeCounts>, i, rec, res| {
            let class = class_of[i];
            if acc.len() <= class {
                acc.resize(class + 1, OutcomeCounts::default());
            }
            acc[class].record(
                rec.outcome,
                res.probes.vote_repairs + res.probes.trump_recovers,
            );
        },
    );
    class_results.resize(plan.classes.len(), OutcomeCounts::default());

    Ok(plan.assemble(
        workload,
        technique,
        program,
        &trace,
        &class_results,
        golden_recoveries,
    ))
}

/// An incrementally assembled certification: the exact coverage report
/// plus how much of it came from the [`ResultStore`].
#[derive(Debug, Clone)]
pub struct IncrementalCertification {
    /// The assembled report — bit-identical to what the monolithic
    /// [`certify_program`] returns for the same program.
    pub coverage: CertifiedCoverage,
    /// Sections the plan was split into.
    pub sections_total: usize,
    /// Sections served from the store without executing anything.
    pub sections_hit: usize,
    /// Injections actually executed by *this* run (0 on a fully warm
    /// store; `coverage.injections_executed` counts the whole plan).
    pub fresh_injections: u64,
}

/// Transforms and lowers `workload` under `technique` (served from
/// `artifacts`), then certifies its entire fault space exactly through
/// [`certify_incremental`], with executed section results served from
/// (and inserted into) `results`. The certify bin's `--no-store` passes a
/// [`ResultStore::in_memory`] that is never persisted.
pub fn run_certified_campaign_stored(
    artifacts: &ArtifactStore,
    results: &ResultStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CertifyConfig,
) -> IncrementalCertification {
    let artifact = artifacts.get(workload, technique, &cfg.transform, &LowerConfig::default());
    certify_incremental(
        results,
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        workload.name(),
        &technique.to_string(),
        cfg,
    )
}

/// [`certify_resumable`] run to completion: certifies a program's full
/// fault space, reusing previously executed sections from `results` and
/// executing only the rest.
#[allow(clippy::too_many_arguments)]
pub fn certify_incremental(
    results: &ResultStore,
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
) -> IncrementalCertification {
    match certify_resumable(
        results,
        program,
        decoded,
        jit,
        workload,
        technique,
        cfg,
        None,
        &mut |_| {},
    ) {
        Status::Done(inc) => inc,
        Status::Paused => unreachable!("no control, so the driver never pauses"),
    }
}

/// The one certification driver: certifies a program's full fault
/// space section by section, reusing sections stored in `results`,
/// pausable at section boundaries.
///
/// The golden run, def-use trace and pruning plan are always recomputed
/// fresh — they are cheap (one fault-free pass) and they are what the
/// cached results are validated *against*: the plan is partitioned into
/// [`CertSections`] whose keys digest the program, each section's def-use
/// slice and the fault model, and only a section whose key matches a
/// stored entry (and whose stored class tags line up with the fresh plan)
/// skips execution. Labels (`workload`, `technique`) are applied at
/// assembly and never cached, so renames cannot poison the store.
///
/// Missing sections execute one at a time, each persisted to `results`
/// the moment it completes, with `on_progress` fired after every resolved
/// section. When `ctrl` requests a stop the driver returns
/// [`Status::Paused`] before starting the next section — nothing in
/// flight is lost, and calling again with the same store picks up
/// exactly where it left off (the finished sections come back as hits).
/// The composed report is bit-identical to the monolithic
/// [`certify_program`] whatever mix of cached and fresh sections, and
/// however many pause/resume cycles, it took.
///
/// Non-default fault models take the driver's one monolithic branch
/// ([`certify_program_model`], one all-or-nothing "section") and never
/// touch the store.
#[allow(clippy::too_many_arguments)]
pub fn certify_resumable(
    results: &ResultStore,
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<JitProg>>,
    workload: &str,
    technique: &str,
    cfg: &CertifyConfig,
    ctrl: Option<&RunCtrl>,
    on_progress: &mut dyn FnMut(&Progress),
) -> Status<IncrementalCertification> {
    if !cfg.fault_model.is_default() {
        // The sectional record format encodes the SEU plan's class shape
        // only, and serving a generalized plan from it would be a silent
        // mismatch. One all-or-nothing "section", no pause grain.
        let coverage = certify_program_model(program, decoded, jit, workload, technique, cfg)
            .unwrap_or_else(|e| panic!("{e}"));
        on_progress(&Progress {
            done: 1,
            total: 1,
            hits: 0,
            fresh_injections: coverage.injections_executed,
            counts: coverage.counts,
        });
        return Status::Done(IncrementalCertification {
            fresh_injections: coverage.injections_executed,
            coverage,
            sections_total: 1,
            sections_hit: 0,
        });
    }
    let runner = pool::build_runner(program, decoded, jit, cfg.engine);
    let trace = DefUseTrace::record(&runner);
    let plan = CertPlan::build(&trace);
    let golden_recoveries =
        runner.golden().probes.vote_repairs + runner.golden().probes.trump_recovers;
    let sections = CertSections::partition(program, &trace, &plan, cfg.sections);

    // Probe the store section by section. A cached entry must mirror the
    // freshly built plan exactly — same class count, same (register,
    // representative) tags — or it is discarded as a collision/drift
    // casualty and recomputed.
    let mut per_section: Vec<Option<Arc<SectionOutcomes>>> = sections
        .sections
        .iter()
        .map(|sec| {
            results.get_cert(&sec.key, |cached| {
                cached.classes.len() == sec.classes.len()
                    && sec.classes.iter().zip(&cached.classes).all(|(&idx, out)| {
                        let class = &plan.classes[idx];
                        class.reg == out.reg && class.hi == out.rep
                    })
            })
        })
        .collect();

    let mut progress = Progress {
        total: sections.sections.len() as u64,
        ..Progress::default()
    };
    for resolved in per_section.iter().flatten() {
        progress.done += 1;
        progress.hits += 1;
        absorb_section(&mut progress, resolved);
    }
    on_progress(&progress);

    // Execute the missing sections one at a time on one worker set,
    // persisting each as it completes — the pause grain, and a
    // well-defined point that loses no work.
    let most = per_section
        .iter()
        .zip(&sections.sections)
        .filter(|(slot, _)| slot.is_none())
        .map(|(_, sec)| sec.classes.len() * 64)
        .max()
        .unwrap_or(0);
    let fold = |acc: &mut Vec<OutcomeCounts>, i: usize, rec: &GenFaultRecord, res: &RunResult| {
        let class = i / 64;
        if acc.len() <= class {
            acc.resize(class + 1, OutcomeCounts::default());
        }
        acc[class].record(
            rec.outcome,
            res.probes.vote_repairs + res.probes.trump_recovers,
        );
    };
    let finished = pool::with_workers(&runner, cfg.threads, most, fold, |workers| {
        for (si, slot) in per_section.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if ctrl.is_some_and(|c| c.stop_requested()) {
                return false;
            }
            let sec = &sections.sections[si];
            let faults: Vec<GenFault> = sec
                .classes
                .iter()
                .map(|&idx| plan.classes[idx])
                .flat_map(|range| {
                    (0..64).map(move |bit| FaultSpec::new(range.hi, range.reg, bit).into())
                })
                .collect();
            progress.fresh_injections += faults.len() as u64;
            let mut fresh = workers.inject(faults);
            fresh.resize(sec.classes.len(), OutcomeCounts::default());
            let classes: Vec<ClassOutcome> = sec
                .classes
                .iter()
                .zip(fresh)
                .map(|(&idx, counts)| ClassOutcome {
                    reg: plan.classes[idx].reg,
                    rep: plan.classes[idx].hi,
                    counts,
                })
                .collect();
            let stored = results.put_cert(sec.key, SectionOutcomes { classes });
            progress.done += 1;
            absorb_section(&mut progress, &stored);
            *slot = Some(stored);
            on_progress(&progress);
        }
        true
    });
    if !finished {
        return Status::Paused;
    }

    let resolved: Vec<SectionOutcomes> = per_section
        .into_iter()
        .map(|s| (*s.expect("every section cached or freshly executed")).clone())
        .collect();
    let class_results = sections
        .scatter(&plan, &resolved)
        .expect("validated sections always scatter");
    let coverage = CertifiedCoverage::assemble(
        workload,
        technique,
        program,
        &trace,
        &plan,
        &class_results,
        golden_recoveries,
    );
    Status::Done(IncrementalCertification {
        coverage,
        sections_total: sections.sections.len(),
        sections_hit: progress.hits as usize,
        fresh_injections: progress.fresh_injections,
    })
}

/// Folds one resolved section's class histograms into a progress snapshot.
fn absorb_section(progress: &mut Progress, section: &SectionOutcomes) {
    for class in &section.classes {
        progress.counts += class.counts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, ProtectionRole, Width};
    use sor_regalloc::lower;
    use sor_sim::{MachineConfig, Runner, INJECTABLE_REGS};
    use std::collections::BTreeMap;

    /// Micro workload 1: a pure arithmetic chain — registers carry live
    /// values across several instructions.
    fn chain_program(technique: Technique) -> Program {
        let mut mb = ModuleBuilder::new("chain");
        let mut f = mb.function("main");
        let a = f.movi(11);
        let b = f.mul(Width::W64, a, 3i64);
        let c = f.add(Width::W64, b, a);
        let d = f.xor(Width::W64, c, 0x5Ai64);
        f.emit(Operand::reg(d));
        f.ret(&[]);
        let id = f.finish();
        lower(&technique.apply(&mb.finish(id)), &LowerConfig::default()).unwrap()
    }

    /// Micro workload 2: memory traffic and control flow — a global
    /// round-trip plus a select, so faults can turn into SEGVs.
    fn mem_program(technique: Technique) -> Program {
        let mut mb = ModuleBuilder::new("memsel");
        let g = mb.alloc_global_u64s("g", &[9, 0]);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let x = f.load(MemWidth::B8, base, 0);
        let y = f.add(Width::W64, x, 5i64);
        f.store(MemWidth::B8, base, 8, y);
        let back = f.load(MemWidth::B8, base, 8);
        let cond = f.cmp(sor_ir::CmpOp::LtS, Width::W64, back, 100i64);
        let z = f.select(cond, back, x);
        f.emit(Operand::reg(z));
        f.ret(&[]);
        let id = f.finish();
        lower(&technique.apply(&mb.finish(id)), &LowerConfig::default()).unwrap()
    }

    /// Injects every single (slot, register, bit) site on a runner with
    /// the given checkpoint interval (`0` = every run from scratch),
    /// aggregating exactly what `CertifiedCoverage` reports.
    fn brute_force(
        program: &Program,
        checkpoint_interval: u64,
    ) -> (
        OutcomeCounts,
        BTreeMap<usize, OutcomeCounts>,
        BTreeMap<ProtectionRole, OutcomeCounts>,
        u64,
    ) {
        let mcfg = MachineConfig {
            checkpoint_interval,
            ..MachineConfig::default()
        };
        let runner = Runner::new(program, &mcfg);
        let golden_len = runner.golden().dyn_instrs;
        let mut replayer = runner.replayer();
        let mut counts = OutcomeCounts::default();
        let mut sites: BTreeMap<usize, OutcomeCounts> = BTreeMap::new();
        let mut roles: BTreeMap<ProtectionRole, OutcomeCounts> = BTreeMap::new();
        for at in 0..golden_len {
            for &reg in &INJECTABLE_REGS {
                for bit in 0..64 {
                    let (rec, res) = replayer.run_fault_record(FaultSpec::new(at, reg, bit));
                    let recov = res.probes.vote_repairs + res.probes.trump_recovers;
                    counts.record(rec.outcome, recov);
                    let pc = rec.static_inst.expect("in-range faults always fire");
                    sites.entry(pc).or_default().record(rec.outcome, recov);
                    roles
                        .entry(rec.role)
                        .or_default()
                        .record(rec.outcome, recov);
                }
            }
        }
        (counts, sites, roles, golden_len)
    }

    /// The acceptance-criteria oracle: on two micro-workloads x three
    /// techniques, plus a one-sample `adpcmdec` under SWIFT-R (260 golden
    /// instructions, 515,840 sites), the pruned + class-collapsed
    /// certification equals brute-force all-sites injection bit-for-bit —
    /// the whole outcome histogram (recoveries included), the per-site map
    /// and the per-role map — while executing >= 5x fewer injections.
    #[test]
    fn certification_equals_brute_force_bit_for_bit() {
        for technique in [Technique::SwiftR, Technique::Trump, Technique::Swift] {
            let mut programs = vec![
                ("chain", chain_program(technique)),
                ("memsel", mem_program(technique)),
            ];
            if technique == Technique::SwiftR {
                let adpcm = sor_workloads::AdpcmDec {
                    samples: 1,
                    seed: 1,
                };
                let module = technique.apply(&adpcm.build());
                programs.push(("adpcmdec", lower(&module, &LowerConfig::default()).unwrap()));
            }
            for (name, program) in programs {
                let certified = certify_program(&program, name, &technique.to_string(), 2);
                let (counts, sites, roles, golden_len) =
                    brute_force(&program, MachineConfig::AUTO_CHECKPOINT);
                let label = format!("{name}/{technique}");
                assert_eq!(certified.golden_instrs, golden_len, "{label}");
                assert_eq!(
                    certified.total_sites,
                    golden_len * INJECTABLE_REGS.len() as u64 * 64,
                    "{label}"
                );
                assert_eq!(certified.counts, counts, "{label}: histogram diverged");
                assert_eq!(certified.sites, sites, "{label}: per-site map diverged");
                assert_eq!(certified.roles, roles, "{label}: per-role map diverged");
                assert!(
                    certified.injections_executed * 5 <= certified.total_sites,
                    "{label}: only {}x pruning",
                    certified.pruning_factor()
                );
            }
        }
    }

    /// Certified reports are a pure function of the program: no thread
    /// count changes a single field, and checkpoint-and-replay changes
    /// nothing either — every count equals replaying every site on
    /// runners that checkpoint at an awkward interval or not at all.
    #[test]
    fn certification_is_execution_strategy_independent() {
        let program = mem_program(Technique::SwiftR);
        let reference = certify_program(&program, "memsel", "SWIFT-R", 1);
        for threads in [3, 4] {
            let r = certify_program(&program, "memsel", "SWIFT-R", threads);
            assert_eq!(r, reference, "{threads} threads");
        }
        for interval in [0, 5] {
            let (counts, sites, roles, golden_len) = brute_force(&program, interval);
            assert_eq!(reference.golden_instrs, golden_len, "interval {interval}");
            assert_eq!(reference.counts, counts, "interval {interval}");
            assert_eq!(reference.sites, sites, "interval {interval}");
            assert_eq!(reference.roles, roles, "interval {interval}");
        }
    }

    /// Model-aware certification through the driver equals brute-force
    /// injection of the model's whole fault space, bit for bit — PC
    /// corruption on a register-recovery technique and on the
    /// control-flow checker it was built to exercise.
    #[test]
    fn pc_corruption_certification_equals_brute_force() {
        for technique in [Technique::SwiftR, Technique::Cfcss] {
            let program = mem_program(technique);
            let cfg = CertifyConfig {
                threads: 2,
                fault_model: FaultModel::PcCorrupt,
                ..CertifyConfig::default()
            };
            let certified =
                certify_program_model(&program, None, None, "memsel", &technique.to_string(), &cfg)
                    .unwrap();
            let runner = Runner::new(&program, &MachineConfig::default());
            let golden_len = runner.golden().dyn_instrs;
            let pc_bits = sor_models::SampleCtx::for_program(&program, golden_len).pc_bits();
            let mut replayer = runner.replayer();
            let mut counts = OutcomeCounts::default();
            for at in 0..golden_len {
                for bit in 0..pc_bits {
                    let (o, res) = replayer.run_fault(GenFault::new(
                        at,
                        sor_sim::FaultEffect::PcXor { mask: 1u64 << bit },
                    ));
                    counts.record(o, res.probes.vote_repairs + res.probes.trump_recovers);
                }
            }
            let label = format!("memsel/{technique}");
            assert_eq!(
                certified.total_sites,
                golden_len * pc_bits as u64,
                "{label}"
            );
            assert_eq!(certified.counts, counts, "{label}: histogram diverged");
        }
    }

    /// The acceptance-criteria coordinate: `certify --fault-model
    /// pc-corrupt` on adpcmdec under SWIFT-R and CFCSS produces an exact,
    /// thread-count-independent certified report through the workload
    /// driver, without touching the result store, and CFCSS converts PC
    /// upsets into detections.
    #[test]
    fn adpcmdec_pc_corruption_certifies_exactly() {
        let w = sor_workloads::AdpcmDec {
            samples: 4,
            seed: 1,
        };
        let store = ArtifactStore::new();
        for technique in [Technique::SwiftR, Technique::Cfcss] {
            let cfg = CertifyConfig {
                threads: 2,
                fault_model: FaultModel::PcCorrupt,
                ..CertifyConfig::default()
            };
            let results = ResultStore::in_memory();
            let run = |cfg: &CertifyConfig| {
                run_certified_campaign_stored(&store, &results, &w, technique, cfg).coverage
            };
            let r = run(&cfg);
            assert_eq!(r.workload, "adpcmdec");
            assert_eq!(r.counts.total(), r.total_sites, "{technique}");
            assert_eq!(r.dead_sites + r.live_sites, r.total_sites, "{technique}");
            let single = run(&CertifyConfig { threads: 1, ..cfg });
            assert_eq!(r, single, "{technique}: thread count changed the report");
            assert!(
                results.is_empty(),
                "{technique}: pc-corrupt touched the store"
            );
            if technique == Technique::Cfcss {
                assert!(r.counts.detected > 0, "CFCSS must detect wild jumps");
            }
        }
    }

    /// MemBit has no sound per-address liveness argument, so certification
    /// refuses it with actionable guidance instead of guessing.
    #[test]
    fn mem_bit_certification_is_rejected_with_guidance() {
        let program = chain_program(Technique::SwiftR);
        let cfg = CertifyConfig {
            threads: 1,
            fault_model: FaultModel::MemBit,
            ..CertifyConfig::default()
        };
        let err =
            certify_program_model(&program, None, None, "chain", "SWIFT-R", &cfg).unwrap_err();
        assert!(err.to_string().contains("sampled campaign"), "{err}");
    }

    /// End-to-end workload entry point: totals tile the cube, the store
    /// serves the artifact, and protection roles appear in the
    /// attribution.
    #[test]
    fn certified_campaign_runs_on_a_workload() {
        let w = sor_workloads::AdpcmDec {
            samples: 4,
            seed: 1,
        };
        let store = ArtifactStore::new();
        let cfg = CertifyConfig {
            threads: 2,
            ..CertifyConfig::default()
        };
        let r = run_certified_campaign_stored(
            &store,
            &ResultStore::in_memory(),
            &w,
            Technique::SwiftR,
            &cfg,
        )
        .coverage;
        assert_eq!(r.workload, "adpcmdec");
        assert_eq!(r.technique, "SWIFT-R");
        assert_eq!(r.counts.total(), r.total_sites);
        assert_eq!(r.dead_sites + r.live_sites, r.total_sites);
        assert_eq!(r.injections_executed, r.classes * 64);
        assert!(r.pruning_factor() >= 5.0, "only {}x", r.pruning_factor());
        let role_total: u64 = r.roles.values().map(|c| c.total()).sum();
        assert_eq!(role_total, r.total_sites);
        assert!(
            r.roles
                .keys()
                .any(|role| matches!(role, ProtectionRole::Redundant { .. })),
            "SWIFT-R sites must attribute to redundant copies"
        );
    }
}

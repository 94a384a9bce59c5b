//! Sampled fault-injection campaigns (paper §7.1).

use crate::artifact::ArtifactStore;
use crate::pool;
use sor_core::Technique;
use sor_ir::Program;
use sor_models::{FaultModel, SampleCtx};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{DecodedProg, ExecEngine, GenFault};
use sor_stats::OutcomeCounts;
use sor_workloads::Workload;
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Injections per (workload, technique) pair — the paper used 250.
    pub runs: u64,
    /// RNG seed for fault-point selection.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Interpreter core the injection machines run on (see
    /// [`ExecEngine`]): the native jit engine by default, which degrades
    /// to the decoded interpreter where it cannot compile. The decoded
    /// and legacy cores are the differential-testing oracles; this field
    /// is their test hook, not a throughput knob (all three engines give
    /// bit-identical results).
    pub engine: ExecEngine,
    /// Transform configuration.
    pub transform: sor_core::TransformConfig,
    /// Fault model injections are drawn from (see [`FaultModel`]). The
    /// default, [`FaultModel::SeuReg`], draws the paper's SEU — fault
    /// sequences, histograms and artifacts are bit-identical to
    /// configurations that predate the field. Every model injects
    /// through the same pool.
    pub fault_model: FaultModel,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 250,
            seed: 0x5EED,
            threads: 0,
            engine: ExecEngine::default(),
            transform: sor_core::TransformConfig::default(),
            fault_model: FaultModel::SeuReg,
        }
    }
}

/// The result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Workload name.
    pub workload: String,
    /// Technique.
    pub technique: Technique,
    /// Outcome distribution.
    pub counts: OutcomeCounts,
    /// Golden dynamic instruction count of the transformed program.
    pub golden_instrs: u64,
}

/// Pre-draws the campaign's full fault list from the per-cell seed, so the
/// distribution is a pure function of (config, workload, technique) —
/// independent of thread count, and shared verbatim between plain and
/// triaged campaigns. Each draw is delegated to the configured
/// [`FaultModel`]'s sampler; under the default `SeuReg` model that is
/// [`sor_sim::FaultSpec::sample`], the sampling routine shared with the
/// adaptive triage sampler (pinned draw-for-draw below).
pub(crate) fn draw_gen_faults(
    cfg: &CampaignConfig,
    wl_name: &str,
    technique: Technique,
    program: &Program,
    golden_len: u64,
) -> Vec<GenFault> {
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed ^ (wl_name.len() as u64) ^ ((technique.letter() as u64) << 32),
    );
    let ctx = SampleCtx::for_program(program, golden_len);
    (0..cfg.runs)
        .map(|_| cfg.fault_model.sample(&mut rng, &ctx))
        .collect()
}

/// Transforms, lowers and verifies a workload under `technique`, asserting
/// output correctness against the native reference, then runs the
/// campaign. Program preparation is served from `store`: repeated
/// (workload, technique, config) coordinates — e.g. the same cell
/// appearing in both a Figure 8 matrix and a headline run — transform and
/// lower exactly once. A one-off campaign passes `&ArtifactStore::new()`.
///
/// ```
/// use sor_core::Technique;
/// use sor_harness::{run_campaign_in, ArtifactStore, CampaignConfig};
/// use sor_workloads::AdpcmDec;
///
/// let workload = AdpcmDec { samples: 40, seed: 1 };
/// let cfg = CampaignConfig { runs: 10, threads: 1, ..Default::default() };
/// let result = run_campaign_in(&ArtifactStore::new(), &workload, Technique::SwiftR, &cfg);
/// assert_eq!(result.counts.total(), 10);
/// ```
///
/// # Panics
///
/// Panics if the transformed program's fault-free output does not match the
/// workload's native reference (that would invalidate the whole campaign).
pub fn run_campaign_in(
    store: &ArtifactStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CampaignConfig,
) -> CampaignResult {
    let artifact = store.get(workload, technique, &cfg.transform, &LowerConfig::default());
    let counts = inject(
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        cfg,
        workload.name(),
        technique,
    );
    CampaignResult {
        workload: workload.name().to_string(),
        technique,
        counts: counts.0,
        golden_instrs: counts.1,
    }
}

fn inject(
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<sor_sim::JitProg>>,
    cfg: &CampaignConfig,
    wl_name: &str,
    technique: Technique,
) -> (OutcomeCounts, u64) {
    let runner = pool::build_runner(program, decoded, jit, cfg.engine);
    let golden_len = runner.golden().dyn_instrs;
    let faults = draw_gen_faults(cfg, wl_name, technique, program, golden_len);
    // Work-stealing over the shared pool (see `pool::inject_faults`):
    // fault runs have wildly variable lengths, so workers steal faults as
    // they finish. Summing is commutative, so `counts` is exactly the same
    // whatever the thread count or interleaving — the determinism
    // invariant the campaign tests pin.
    let total: OutcomeCounts = pool::inject_faults(
        &runner,
        faults,
        cfg.threads,
        |acc: &mut OutcomeCounts, _, rec, res| {
            acc.record(
                rec.outcome,
                res.probes.vote_repairs + res.probes.trump_recovers,
            );
        },
    );
    (total, golden_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_sim::{MachineConfig, Runner};
    use sor_workloads::AdpcmDec;

    /// A campaign on a fresh artifact store, as a one-off caller runs it.
    fn run_campaign(
        workload: &dyn Workload,
        technique: Technique,
        cfg: &CampaignConfig,
    ) -> CampaignResult {
        run_campaign_in(&ArtifactStore::new(), workload, technique, cfg)
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            runs: 60,
            seed: 42,
            threads: 2,
            ..Default::default()
        }
    }

    /// The sampling pin: under the default model the campaign draws the
    /// exact sequence the historical hand-rolled code drew (slot, then
    /// register via `choose`, then bit), so recorded campaign results stay
    /// reproducible.
    #[test]
    fn default_model_draws_are_pinned_to_the_historical_draws() {
        let w = AdpcmDec {
            samples: 40,
            seed: 1,
        };
        let cfg = CampaignConfig {
            runs: 300,
            seed: 0x5EED,
            ..Default::default()
        };
        let artifact = ArtifactStore::new().get(
            &w,
            Technique::SwiftR,
            &cfg.transform,
            &LowerConfig::default(),
        );
        let golden_len = 12_345;
        let faults = draw_gen_faults(
            &cfg,
            w.name(),
            Technique::SwiftR,
            &artifact.program,
            golden_len,
        );
        // The historical inline implementation, re-derived verbatim.
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ ("adpcmdec".len() as u64) ^ ((Technique::SwiftR.letter() as u64) << 32),
        );
        let expected: Vec<GenFault> = (0..cfg.runs)
            .map(|_| {
                let at = rng.gen_range(0, golden_len.max(1));
                let reg = *rng.choose(&sor_sim::INJECTABLE_REGS);
                let bit = rng.gen_range(0, 64) as u8;
                sor_sim::FaultSpec::new(at, reg, bit).into()
            })
            .collect();
        assert_eq!(faults, expected);
    }

    /// Every non-default model runs a full campaign: all injections
    /// classified, deterministic across thread counts.
    #[test]
    fn generalized_model_campaigns_classify_everything_deterministically() {
        let w = AdpcmDec {
            samples: 60,
            seed: 7,
        };
        for model in FaultModel::ALL {
            if model.is_default() {
                continue;
            }
            let mut c1 = small_cfg();
            c1.runs = 30;
            c1.fault_model = model;
            c1.threads = 1;
            let mut c4 = c1.clone();
            c4.threads = 4;
            let a = run_campaign(&w, Technique::SwiftR, &c1);
            let b = run_campaign(&w, Technique::SwiftR, &c4);
            assert_eq!(a.counts.total(), 30, "{model}");
            assert_eq!(a.counts, b.counts, "{model}: thread count changed results");
        }
    }

    #[test]
    fn noft_campaign_classifies_everything() {
        let w = AdpcmDec {
            samples: 150,
            seed: 7,
        };
        let r = run_campaign(&w, Technique::Noft, &small_cfg());
        assert_eq!(r.counts.total(), 60);
        assert!(r.counts.unace > 0, "some faults must be benign");
        assert!(r.golden_instrs > 1000);
    }

    #[test]
    fn swiftr_campaign_beats_noft() {
        let w = AdpcmDec {
            samples: 150,
            seed: 7,
        };
        let noft = run_campaign(&w, Technique::Noft, &small_cfg());
        let swiftr = run_campaign(&w, Technique::SwiftR, &small_cfg());
        assert!(
            swiftr.counts.pct_unace() >= noft.counts.pct_unace(),
            "SWIFT-R {} !>= NOFT {}",
            swiftr.counts.pct_unace(),
            noft.counts.pct_unace()
        );
        assert!(swiftr.counts.recoveries > 0, "votes must have repaired");
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        let mut c1 = small_cfg();
        c1.threads = 1;
        let mut c4 = small_cfg();
        c4.threads = 4;
        let a = run_campaign(&w, Technique::Trump, &c1);
        let b = run_campaign(&w, Technique::Trump, &c4);
        assert_eq!(a.counts, b.counts);
    }

    /// Serving the program from a shared artifact store must not change
    /// campaign results: the store memoizes preparation, not injection.
    #[test]
    fn shared_store_preserves_campaign_results() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        let fresh = run_campaign(&w, Technique::SwiftR, &small_cfg());
        let store = ArtifactStore::new();
        let first = run_campaign_in(&store, &w, Technique::SwiftR, &small_cfg());
        let second = run_campaign_in(&store, &w, Technique::SwiftR, &small_cfg());
        assert_eq!(store.hits(), 1, "second campaign must reuse the artifact");
        assert_eq!(first.counts, fresh.counts);
        assert_eq!(second.counts, fresh.counts);
        assert_eq!(first.golden_instrs, fresh.golden_instrs);
    }

    /// Checkpoint-and-replay must not change campaign results at all: at
    /// any thread count, the campaign's histogram equals replaying its
    /// exact fault list on runners with checkpointing disabled, forced to
    /// an awkward interval, or auto-sized.
    #[test]
    fn checkpointing_never_changes_campaign_results() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        let cfg = small_cfg();
        let artifact = ArtifactStore::new().get(
            &w,
            Technique::SwiftR,
            &cfg.transform,
            &LowerConfig::default(),
        );
        let campaigns: Vec<CampaignResult> = [1, 4]
            .into_iter()
            .map(|threads| {
                run_campaign(
                    &w,
                    Technique::SwiftR,
                    &CampaignConfig {
                        threads,
                        ..small_cfg()
                    },
                )
            })
            .collect();
        for interval in [0, 777, MachineConfig::AUTO_CHECKPOINT] {
            let mcfg = MachineConfig {
                checkpoint_interval: interval,
                ..MachineConfig::default()
            };
            let runner = Runner::new(&artifact.program, &mcfg);
            let golden_len = runner.golden().dyn_instrs;
            let mut replayer = runner.replayer();
            let mut counts = OutcomeCounts::default();
            for fault in draw_gen_faults(
                &cfg,
                w.name(),
                Technique::SwiftR,
                &artifact.program,
                golden_len,
            ) {
                let (rec, res) = replayer.run_fault_record_gen(fault);
                counts.record(
                    rec.outcome,
                    res.probes.vote_repairs + res.probes.trump_recovers,
                );
            }
            for r in &campaigns {
                assert_eq!(r.counts, counts, "interval {interval} replay diverged");
                assert_eq!(r.golden_instrs, golden_len);
            }
        }
    }
}

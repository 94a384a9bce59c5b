//! Triage-enabled campaigns and residual-SDC attribution.
//!
//! A triaged campaign runs the exact same pre-drawn fault list as
//! [`run_campaign_in`](crate::run_campaign_in) — same seed derivation,
//! same work-stealing workers — but each worker records provenance-annotated
//! [`sor_sim::GenFaultRecord`]s into a local [`VulnerabilityProfile`], and the
//! per-worker profiles are merged (commutatively, so results are
//! thread-count independent) into the campaign profile. The aggregate
//! outcome counts of the profile are identical to the plain campaign's.

use crate::artifact::ArtifactStore;
use crate::campaign::{draw_gen_faults, CampaignConfig, CampaignResult};
use crate::ctrl::{Progress, RunCtrl, Status};
use crate::pool;
use crate::store::{triage_section_key, ResultStore};
use sor_core::Technique;
use sor_ir::{Digest, Program, ProtectionRole};
use sor_regalloc::LowerConfig;
use sor_sim::{DecodedProg, FaultSpec, GenFault, GenFaultRecord, RunResult};
use sor_triage::{SectionalTriage, VulnerabilityProfile};
use sor_workloads::Workload;
use std::sync::Arc;

/// A campaign result plus its per-site vulnerability profile.
#[derive(Debug, Clone)]
pub struct TriagedCampaign {
    /// The campaign summary; `result.counts == profile.totals()`.
    pub result: CampaignResult,
    /// Per-site / per-role / per-register attribution of every injection.
    pub profile: VulnerabilityProfile,
}

/// The triage driver run to completion: program preparation served from
/// `artifacts`, section profiles served from (and inserted into)
/// `results`. The triage bin's `--no-store` passes a
/// [`ResultStore::in_memory`] that is never persisted.
pub fn run_triaged_campaign_stored(
    artifacts: &ArtifactStore,
    results: &ResultStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CampaignConfig,
    nsections: usize,
) -> TriagedCampaign {
    match run_triaged_campaign_resumable(
        artifacts,
        results,
        workload,
        technique,
        cfg,
        nsections,
        None,
        &mut |_| {},
    ) {
        Status::Done(t) => t,
        Status::Paused => unreachable!("no control, so the driver never pauses"),
    }
}

/// The one triage driver: runs [`run_campaign_in`](crate::run_campaign_in)'s
/// exact pre-drawn fault list with per-fault-site attribution, section by
/// section, pausable at section boundaries.
///
/// The fault list is partitioned into [`SectionalTriage`] sections and
/// each section's profile is served from `results` when its content key
/// — program digest, section bounds + exact fault list, fault model (see
/// [`triage_section_key`]) — matches a stored entry; only missing
/// sections inject. The composed profile is bit-identical to injecting
/// the whole list at once, whatever the section count, because the fault
/// list is drawn identically (seed-pinned) and each fault's outcome is a
/// pure function of `(program, fault)`.
///
/// Same pause contract as [`crate::certify_resumable`]: missing sections
/// inject one at a time, each persisted to `results` as it completes,
/// `on_progress` fires after every resolved section, and a stop request
/// returns [`Status::Paused`] before the next section starts — a later
/// identical call re-serves the finished sections as hits and executes
/// only the remainder.
///
/// Non-default fault models take the driver's one monolithic branch (one
/// all-or-nothing "section") and never touch the store.
#[allow(clippy::too_many_arguments)]
pub fn run_triaged_campaign_resumable(
    artifacts: &ArtifactStore,
    results: &ResultStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &CampaignConfig,
    nsections: usize,
    ctrl: Option<&RunCtrl>,
    on_progress: &mut dyn FnMut(&Progress),
) -> Status<TriagedCampaign> {
    let artifact = artifacts.get(workload, technique, &cfg.transform, &LowerConfig::default());
    if !cfg.fault_model.is_default() {
        // `triage_section_key` digests legacy `FaultSpec` lists, which
        // cannot represent generalized effects — a silent alias would be
        // worse than a recompute.
        let (profile, golden_instrs) = inject_profiled(
            &artifact.program,
            Some(Arc::clone(&artifact.decoded)),
            artifact.jit_for(cfg.engine),
            cfg,
            workload.name(),
            technique,
        );
        on_progress(&Progress {
            done: 1,
            total: 1,
            hits: 0,
            fresh_injections: profile.injections(),
            counts: profile.totals(),
        });
        let result = CampaignResult {
            workload: workload.name().to_string(),
            technique,
            counts: profile.totals(),
            golden_instrs,
        };
        return Status::Done(TriagedCampaign { result, profile });
    }
    let runner = pool::build_runner(
        &artifact.program,
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(cfg.engine),
        cfg.engine,
    );
    let golden_instrs = runner.golden().dyn_instrs;
    let faults: Vec<FaultSpec> = draw_gen_faults(
        cfg,
        workload.name(),
        technique,
        &artifact.program,
        golden_instrs,
    )
    .iter()
    .map(|f| {
        f.as_spec()
            .expect("seu-reg draws single-bit register upsets")
    })
    .collect();
    let triage = SectionalTriage::partition(&faults, nsections);
    let program_digest = artifact.program.content_digest();

    let mut progress = Progress {
        total: triage.sections.len() as u64,
        ..Progress::default()
    };
    let keys: Vec<_> = triage
        .sections
        .iter()
        .map(|sec| triage_section_key(program_digest, sec.start, sec.end, &sec.faults))
        .collect();
    let cached: Vec<Option<_>> = triage
        .sections
        .iter()
        .zip(&keys)
        .map(|(sec, key)| results.get_triage(key, |p| p.injections() == sec.faults.len() as u64))
        .collect();
    // The missing sections run one at a time on one worker set.
    let most = cached
        .iter()
        .zip(&triage.sections)
        .filter(|(hit, _)| hit.is_none())
        .map(|(_, sec)| sec.faults.len())
        .max()
        .unwrap_or(0);
    let fold = |acc: &mut VulnerabilityProfile, _, rec: &GenFaultRecord, res: &RunResult| {
        acc.record(rec, res.probes.vote_repairs + res.probes.trump_recovers);
    };
    let mut profile = VulnerabilityProfile::new();
    let finished = pool::with_workers(&runner, cfg.threads, most, fold, |workers| {
        for ((section, key), hit) in triage.sections.iter().zip(keys).zip(cached) {
            let fresh = hit.is_none();
            if fresh && ctrl.is_some_and(|c| c.stop_requested()) {
                return false;
            }
            let section_profile = hit.unwrap_or_else(|| {
                let faults: Vec<GenFault> = section.faults.iter().map(|&f| f.into()).collect();
                results.put_triage(key, workers.inject(faults))
            });
            profile.merge(&section_profile);
            progress.done += 1;
            if fresh {
                progress.fresh_injections += section.faults.len() as u64;
            } else {
                progress.hits += 1;
            }
            progress.counts = profile.totals();
            on_progress(&progress);
        }
        true
    });
    if !finished {
        return Status::Paused;
    }

    let result = CampaignResult {
        workload: workload.name().to_string(),
        technique,
        counts: profile.totals(),
        golden_instrs,
    };
    Status::Done(TriagedCampaign { result, profile })
}

/// Injects the campaign's whole fault list in one pass into a single
/// profile: the driver's branch for non-default models.
fn inject_profiled(
    program: &Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<sor_sim::JitProg>>,
    cfg: &CampaignConfig,
    wl_name: &str,
    technique: Technique,
) -> (VulnerabilityProfile, u64) {
    let runner = pool::build_runner(program, decoded, jit, cfg.engine);
    let golden_len = runner.golden().dyn_instrs;
    let faults = draw_gen_faults(cfg, wl_name, technique, program, golden_len);
    // Same shared worker pool as the plain campaign; profile merge is
    // commutative and associative, so the merged profile is independent of
    // thread count and interleaving.
    let whole: VulnerabilityProfile = pool::inject_faults(
        &runner,
        faults,
        cfg.threads,
        |acc: &mut VulnerabilityProfile, _, rec, res| {
            acc.record(rec, res.probes.vote_repairs + res.probes.trump_recovers);
        },
    );
    (whole, golden_len)
}

/// Renders the residual-SDC attribution table: for each triaged campaign,
/// how that technique's surviving SDCs (hangs folded in) distribute over
/// the protection roles the faults landed on. A markdown table, one row
/// per campaign, one column per role.
pub fn residual_sdc_table(campaigns: &[TriagedCampaign]) -> String {
    let mut out = String::from("| workload | technique | total SDC |");
    for role in ProtectionRole::ALL {
        out.push_str(&format!(" {role} |"));
    }
    out.push('\n');
    out.push_str("|---|---|---:|");
    for _ in ProtectionRole::ALL {
        out.push_str("---:|");
    }
    out.push('\n');
    for c in campaigns {
        let total_sdc = c.result.counts.sdc + c.result.counts.hang;
        out.push_str(&format!(
            "| {} | {} | {} |",
            c.result.workload, c.result.technique, total_sdc
        ));
        for role in ProtectionRole::ALL {
            let rc = c.profile.role_counts(role);
            let sdc = rc.sdc + rc.hang;
            if total_sdc == 0 {
                out.push_str(&format!(" {sdc} |"));
            } else {
                out.push_str(&format!(
                    " {sdc} ({:.0}%) |",
                    100.0 * sdc as f64 / total_sdc as f64
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_in;
    use sor_sim::{MachineConfig, Runner};
    use sor_triage::SectionalTriage;
    use sor_workloads::{AdpcmDec, Mpeg2Enc, Workload};

    /// The driver on fresh stores, as the triage bin's `--no-store` runs it.
    fn triage(w: &dyn Workload, technique: Technique, cfg: &CampaignConfig) -> TriagedCampaign {
        let results = ResultStore::in_memory();
        run_triaged_campaign_stored(&ArtifactStore::new(), &results, w, technique, cfg, 4)
    }

    /// The monolithic reference: the campaign's whole fault list injected
    /// in one pass into one profile.
    fn monolithic(
        w: &dyn Workload,
        technique: Technique,
        cfg: &CampaignConfig,
    ) -> VulnerabilityProfile {
        let artifact =
            ArtifactStore::new().get(w, technique, &cfg.transform, &LowerConfig::default());
        inject_profiled(&artifact.program, None, None, cfg, w.name(), technique).0
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            runs: 60,
            seed: 42,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn triaged_campaign_matches_plain_campaign_counts() {
        let w = AdpcmDec {
            samples: 150,
            seed: 7,
        };
        let plain = run_campaign_in(&ArtifactStore::new(), &w, Technique::SwiftR, &small_cfg());
        let triaged = triage(&w, Technique::SwiftR, &small_cfg());
        assert_eq!(triaged.result.counts, plain.counts);
        assert_eq!(triaged.result.golden_instrs, plain.golden_instrs);
        assert_eq!(triaged.profile.totals(), plain.counts);
        assert!(triaged.profile.sites().count() > 0);
    }

    #[test]
    fn triaged_campaign_is_deterministic_across_thread_counts() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        let mut c1 = small_cfg();
        c1.threads = 1;
        let mut c4 = small_cfg();
        c4.threads = 4;
        let a = triage(&w, Technique::Trump, &c1);
        let b = triage(&w, Technique::Trump, &c4);
        assert_eq!(a.profile, b.profile);
    }

    /// The sectional driver composes exactly the profile a monolithic
    /// one-pass injection of the same fault list records, at every
    /// section count.
    #[test]
    fn sectional_driver_matches_monolithic_injection() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        for technique in [Technique::SwiftR, Technique::Noft] {
            let reference = monolithic(&w, technique, &small_cfg());
            for nsections in [1, 3, 8] {
                let t = run_triaged_campaign_stored(
                    &ArtifactStore::new(),
                    &ResultStore::in_memory(),
                    &w,
                    technique,
                    &small_cfg(),
                    nsections,
                );
                assert_eq!(t.profile, reference, "{technique}/{nsections} sections");
            }
        }
    }

    /// The sectional-triage exactness pin: composing independently
    /// profiled sections reproduces the monolithic profile bit-for-bit,
    /// across two workloads and three techniques.
    #[test]
    fn sectional_composition_matches_monolithic_bit_for_bit() {
        let store = ArtifactStore::new();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(AdpcmDec {
                samples: 120,
                seed: 7,
            }),
            Box::new(Mpeg2Enc { blocks: 2, seed: 1 }),
        ];
        let cfg = CampaignConfig {
            runs: 40,
            seed: 11,
            threads: 1,
            ..Default::default()
        };
        for w in &workloads {
            for technique in [Technique::SwiftR, Technique::Trump, Technique::Swift] {
                let artifact = store.get(
                    w.as_ref(),
                    technique,
                    &cfg.transform,
                    &LowerConfig::default(),
                );
                let runner = Runner::new(&artifact.program, &MachineConfig::default());
                let faults: Vec<FaultSpec> = draw_gen_faults(
                    &cfg,
                    w.name(),
                    technique,
                    &artifact.program,
                    runner.golden().dyn_instrs,
                )
                .iter()
                .map(|f| f.as_spec().unwrap())
                .collect();

                let monolithic = SectionalTriage::run(&runner, &faults, 1).compose();
                let mut sectional = SectionalTriage::run(&runner, &faults, 4);
                assert_eq!(
                    sectional.compose(),
                    monolithic,
                    "{}/{technique}: sectional composition diverged",
                    w.name()
                );
                // Re-injecting sections is idempotent: same faults, same
                // deterministic machine, same composed profile.
                sectional.reinject(&runner, &[1, 3]);
                assert_eq!(
                    sectional.compose(),
                    monolithic,
                    "{}/{technique}: re-injection changed the composition",
                    w.name()
                );
            }
        }
    }

    /// Generalized-model triage aggregates exactly the campaign's counts,
    /// and the driver degrades to the monolithic profile without touching
    /// the store (the store is SEU-sectional only).
    #[test]
    fn generalized_model_triage_matches_its_campaign_counts() {
        let w = AdpcmDec {
            samples: 100,
            seed: 3,
        };
        let mut cfg = small_cfg();
        cfg.runs = 30;
        cfg.fault_model = sor_models::FaultModel::TransientAlu;
        let plain = run_campaign_in(&ArtifactStore::new(), &w, Technique::SwiftR, &cfg);
        let store = ResultStore::in_memory();
        let stored = run_triaged_campaign_stored(
            &ArtifactStore::new(),
            &store,
            &w,
            Technique::SwiftR,
            &cfg,
            4,
        );
        assert_eq!(stored.result.counts, plain.counts);
        assert_eq!(stored.profile.totals(), plain.counts);
        assert_eq!(stored.profile, monolithic(&w, Technique::SwiftR, &cfg));
        assert!(store.is_empty(), "generalized triage must bypass the store");
    }

    #[test]
    fn attribution_table_lists_roles_and_techniques() {
        let w = AdpcmDec {
            samples: 120,
            seed: 7,
        };
        let results: Vec<TriagedCampaign> = [Technique::Noft, Technique::SwiftR]
            .iter()
            .map(|&t| triage(&w, t, &small_cfg()))
            .collect();
        let table = residual_sdc_table(&results);
        assert!(table.contains("| adpcmdec | NOFT |"), "{table}");
        assert!(table.contains("SWIFT-R"), "{table}");
        for role in ProtectionRole::ALL {
            assert!(table.contains(&role.to_string()), "{table}");
        }
        // NOFT programs carry no protection instructions, so nothing can
        // be attributed to voter or redundant roles.
        let noft = &results[0];
        assert_eq!(noft.profile.role_counts(ProtectionRole::Voter).total(), 0);
        // SWIFT-R faults do land on transform-introduced instructions.
        let swiftr = &results[1];
        let protected = swiftr
            .profile
            .role_counts(ProtectionRole::Redundant { copy: 1 })
            .total()
            + swiftr
                .profile
                .role_counts(ProtectionRole::Redundant { copy: 2 })
                .total()
            + swiftr.profile.role_counts(ProtectionRole::Voter).total();
        assert!(protected > 0, "no faults attributed to SWIFT-R roles");
    }
}

//! # sor-harness — fault campaigns and figure regeneration
//!
//! Reproduces the paper's evaluation methodology (§7). Every entry point
//! takes an explicit [`ArtifactStore`], the shared program-artifact
//! store that memoizes the transform + lower preparation behind a
//! `(source digest, technique, TransformConfig, LowerConfig)` key (so
//! `fig8` + `fig9` + `headline` prepare each program once instead of
//! three times); a one-off run passes `&ArtifactStore::new()`.
//!
//! * [`run_campaign_in`] — for one (workload, technique) pair: transform,
//!   lower, run the golden execution, then inject `runs` SEUs at uniformly
//!   random (dynamic instruction, integer register, bit) points and classify
//!   each run as unACE / SDC / SEGV (plus hang and detected, folded per the
//!   paper's three-bucket taxonomy). Runs are spread across threads.
//! * [`FigureEight::run_in`] — the full reliability matrix of Figure 8:
//!   six techniques x ten benchmarks plus the Average column.
//! * [`measure_perf_in`] / [`FigureNine::run_in`] — normalized execution
//!   time (timing model cycles, normalized to NOFT) per benchmark plus
//!   the GeoMean, Figure 9.
//! * [`headline`] — the paper's summary numbers (§1/§9): average unACE per
//!   technique, SDC+SEGV reduction vs NOFT, mean normalized runtime.
//! * [`certify_resumable`] — the one certification driver, the
//!   exhaustive, exact counterpart to the sampled campaign: `sor_ace`
//!   liveness analysis prunes provably-unACE sites and collapses the rest
//!   into read-window equivalence classes, and only the class
//!   representatives are executed (same checkpoint-and-replay +
//!   work-stealing machinery), section by section. The resulting
//!   [`CertifiedCoverage`](sor_ace::CertifiedCoverage) covers *every*
//!   (slot, register, bit) site with exact unACE/SDC/DUE fractions and
//!   per-role attribution — no Wilson interval.
//!   [`certify_incremental`] runs it to completion on a program and
//!   [`run_certified_campaign_stored`] on a workload.
//! * [`run_triaged_campaign_resumable`] — the one triage driver: the
//!   sampled campaign with per-fault attribution, section by section.
//!   Every injection also feeds a `sor_triage::VulnerabilityProfile` keyed
//!   by the static instruction's provenance (pc, `ProtectionRole`).
//!   [`run_triaged_campaign_stored`] runs it to completion;
//!   [`residual_sdc_table`] renders the cross-technique residual-SDC-by-role
//!   markdown table used by the `triage` report binary.
//! * [`ResultStore`] — the two-tier (memory + on-disk) content-addressed
//!   *result* store both drivers read and fill: certification and triage
//!   outcomes keyed by `(program digest, section digest, fault-model
//!   digest)` section keys (see [`sor_ace::SectionKey`]), so
//!   re-certification after an edit re-executes only the sections whose
//!   inputs actually changed; [`ResultStore::in_memory`] is the
//!   never-persisted store of a `--no-store` run. The composed results
//!   are bit-identical to a monolithic pass (DESIGN.md §14 gives the
//!   soundness argument); [`certify_program`] and
//!   [`certify_program_model`] keep that monolithic pass as the reference
//!   tests compare against (and as the driver's branch for non-default
//!   fault models).
//! * [`Progress`], [`Status`] and [`RunCtrl`] — what the drivers report
//!   after each section, how a run ended, and the stop flag that pauses
//!   one at a section boundary (`sor-server`'s pause/resume).

mod artifact;
mod campaign;
mod certify;
mod ctrl;
mod figures;
mod perf;
mod pool;
mod render;
mod report;
mod store;
mod triage;

pub use artifact::{Artifact, ArtifactKey, ArtifactStore};
pub use campaign::{run_campaign_in, CampaignConfig, CampaignResult};
pub use certify::{
    certify_incremental, certify_program, certify_program_model, certify_resumable,
    run_certified_campaign_stored, CertifyConfig, IncrementalCertification,
};
pub use ctrl::{Progress, RunCtrl, Status};
pub use figures::{FigureEight, FigureNine};
pub use perf::{measure_perf_in, PerfConfig, PerfResult};
pub use pool::resolve_threads;
pub use render::{
    certified_json, certified_json_model, result_name, technique_slug, triage_json,
    triage_json_model,
};
pub use report::{headline, Headline};
pub use sor_models::{FaultModel, SampleCtx};
pub use sor_sim::{ExecEngine, JitProg};
pub use sor_stats::{wilson_ci, OutcomeCounts};
pub use store::{triage_section_key, ResultStore, STORE_FORMAT_VERSION};
pub use triage::{
    residual_sdc_table, run_triaged_campaign_resumable, run_triaged_campaign_stored,
    TriagedCampaign,
};

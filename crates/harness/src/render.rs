//! Shared JSON renderers for campaign artifacts.
//!
//! The `certify` / `triage` / `fig8` batch bins and the `sor-server` job
//! executor must emit **byte-identical** `results/*.json` files under the
//! same names for the same logical result — that pin is what keeps the
//! service honest against the batch oracle. The only way to guarantee it
//! is to name and render through one function each, so the exact
//! `format!` strings live here and both consumers call them.

use sor_ace::CertifiedCoverage;
use sor_core::Technique;
use sor_ir::Program;
use sor_models::FaultModel;
use std::fmt::Display;

use crate::triage::TriagedCampaign;

/// The optional `"fault_model"` JSON line: empty under the default model
/// — keeping every legacy document byte-identical — and one
/// slug-carrying line for generalized models, so downstream consumers
/// can never mistake a pc-corrupt sweep for a register-SEU one.
fn model_tag(model: FaultModel) -> String {
    if model.is_default() {
        String::new()
    } else {
        format!("  \"fault_model\": \"{}\",\n", model.slug())
    }
}

/// Lowercase filename slug for a technique ("TRUMP/SWIFT-R" → "trump-swift-r").
pub fn technique_slug(technique: impl Display) -> String {
    technique
        .to_string()
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// The file name of a result artifact:
/// `<stem>[_<model>][_<technique slug>].<ext>`. Default-model artifacts
/// keep their legacy names (`certified_swift-r.json`, `fig8.csv`);
/// generalized models insert their slug (`certified_pc-corrupt_swift-r.json`,
/// `fig8_pc-corrupt.csv`), so one model's sweep never overwrites
/// another's. The bins and the `sor-server` job executor both name their
/// artifacts here.
pub fn result_name(
    stem: &str,
    model: FaultModel,
    technique: Option<Technique>,
    ext: &str,
) -> String {
    let mut name = stem.to_string();
    if !model.is_default() {
        name = format!("{name}_{}", model.slug());
    }
    if let Some(t) = technique {
        name = format!("{name}_{}", technique_slug(t));
    }
    format!("{name}.{ext}")
}

/// Renders a certified-coverage report as the `certified_<slug>.json`
/// document the `certify` bin writes (default fault model).
pub fn certified_json(r: &CertifiedCoverage) -> String {
    certified_json_model(r, FaultModel::SeuReg)
}

/// [`certified_json`] with an explicit fault model: non-default models
/// add a `"fault_model"` tag after `"technique"`; the default renders
/// byte-identically to the legacy document.
pub fn certified_json_model(r: &CertifiedCoverage, model: FaultModel) -> String {
    let roles: Vec<String> = r
        .roles
        .iter()
        .map(|(role, c)| {
            format!(
                "    {{\"role\": \"{role}\", \"sites\": {}, \"unace\": {}, \
                 \"sdc\": {}, \"segv\": {}, \"detected\": {}, \"hang\": {}, \
                 \"recoveries\": {}}}",
                c.total(),
                c.unace,
                c.sdc,
                c.segv,
                c.detected,
                c.hang,
                c.recoveries,
            )
        })
        .collect();
    let c = r.counts;
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"technique\": \"{}\",\n{}  \
         \"golden_instrs\": {},\n  \"total_sites\": {},\n  \
         \"dead_sites\": {},\n  \"live_sites\": {},\n  \"classes\": {},\n  \
         \"injections_executed\": {},\n  \"pruning_factor\": {:.2},\n  \
         \"counts\": {{\"unace\": {}, \"sdc\": {}, \"segv\": {}, \
         \"detected\": {}, \"hang\": {}, \"recoveries\": {}}},\n  \
         \"unace_pct\": {:.4},\n  \"segv_pct\": {:.4},\n  \"sdc_pct\": {:.4},\n  \
         \"roles\": [\n{}\n  ]\n}}\n",
        r.workload,
        r.technique,
        model_tag(model),
        r.golden_instrs,
        r.total_sites,
        r.dead_sites,
        r.live_sites,
        r.classes,
        r.injections_executed,
        r.pruning_factor(),
        c.unace,
        c.sdc,
        c.segv,
        c.detected,
        c.hang,
        c.recoveries,
        c.pct_unace(),
        c.pct_segv(),
        c.pct_sdc(),
        roles.join(",\n"),
    )
}

/// Renders a triaged campaign as the `triage_<slug>.json` document the
/// `triage` bin writes (default fault model). `program` supplies the
/// disassembly for each fault site; `runs` is the configured injection
/// budget.
pub fn triage_json(t: &TriagedCampaign, program: &Program, runs: u64) -> String {
    triage_json_model(t, program, runs, FaultModel::SeuReg)
}

/// [`triage_json`] with an explicit fault model; same tagging contract as
/// [`certified_json_model`].
pub fn triage_json_model(
    t: &TriagedCampaign,
    program: &Program,
    runs: u64,
    model: FaultModel,
) -> String {
    let mut sites = String::new();
    for (i, (pc, s)) in t.profile.top_vulnerable(usize::MAX).into_iter().enumerate() {
        let (lo, hi) = s.counts.sdc_ci95();
        if i > 0 {
            sites.push_str(",\n");
        }
        sites.push_str(&format!(
            "    {{\"pc\": {pc}, \"inst\": \"{}\", \"role\": \"{}\", \
             \"injections\": {}, \"sdc\": {}, \"sdc_pct\": {:.2}, \
             \"ci_lo\": {lo:.2}, \"ci_hi\": {hi:.2}}}",
            program.insts[pc],
            s.role,
            s.counts.total(),
            s.counts.sdc + s.counts.hang,
            s.counts.pct_sdc(),
        ));
    }
    let c = t.result.counts;
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"technique\": \"{}\",\n{}  \
         \"runs\": {runs},\n  \"golden_instrs\": {},\n  \
         \"counts\": {{\"unace\": {}, \"sdc\": {}, \"segv\": {}, \
         \"detected\": {}, \"hang\": {}, \"recoveries\": {}}},\n  \
         \"sites\": [\n{sites}\n  ]\n}}\n",
        t.result.workload,
        t.result.technique,
        model_tag(model),
        t.result.golden_instrs,
        c.unace,
        c.sdc,
        c.segv,
        c.detected,
        c.hang,
        c.recoveries,
    )
}

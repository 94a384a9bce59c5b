//! One driver per campaign kind: `seu-reg` certification and triage run
//! through the same sectional driver whatever store backs it — the
//! never-persisted `ResultStore::in_memory()` of a `--no-store` run, a
//! cold on-disk store, or that store warm. All three must render the same
//! bytes, the certification must equal the monolithic reference pass, and
//! the warm run must be served entirely from the store. Generalized fault
//! models take the drivers' monolithic branch and never touch a store.

use sor_core::Technique;
use sor_harness::{
    certified_json, certify_program, run_certified_campaign_stored, run_triaged_campaign_stored,
    triage_json, ArtifactStore, CampaignConfig, CertifyConfig, FaultModel, ResultStore,
};
use sor_regalloc::LowerConfig;
use sor_workloads::{AdpcmDec, Workload};
use std::path::PathBuf;

const WORKLOAD: AdpcmDec = AdpcmDec {
    samples: 4,
    seed: 1,
};
const SECTIONS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sor-one-driver-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn certify_cfg(fault_model: FaultModel) -> CertifyConfig {
    CertifyConfig {
        threads: 2,
        sections: SECTIONS,
        fault_model,
        ..CertifyConfig::default()
    }
}

fn triage_cfg(fault_model: FaultModel) -> CampaignConfig {
    CampaignConfig {
        runs: 48,
        threads: 2,
        fault_model,
        ..CampaignConfig::default()
    }
}

/// One certify and one triage run against `results`: the rendered bytes
/// of each plus the sections each served from the store.
fn run_both(
    artifacts: &ArtifactStore,
    results: &ResultStore,
    technique: Technique,
) -> (String, String, usize, usize) {
    let cert = run_certified_campaign_stored(
        artifacts,
        results,
        &WORKLOAD,
        technique,
        &certify_cfg(FaultModel::SeuReg),
    );
    assert_eq!(cert.sections_total, SECTIONS);
    let cfg = triage_cfg(FaultModel::SeuReg);
    let hits_before = results.hits();
    let triaged =
        run_triaged_campaign_stored(artifacts, results, &WORKLOAD, technique, &cfg, SECTIONS);
    let program = &artifacts
        .get(
            &WORKLOAD,
            technique,
            &cfg.transform,
            &LowerConfig::default(),
        )
        .program;
    (
        certified_json(&cert.coverage),
        triage_json(&triaged, program, cfg.runs),
        cert.sections_hit,
        (results.hits() - hits_before) as usize,
    )
}

#[test]
fn in_memory_cold_and_warm_stores_render_identical_bytes() {
    let dir = temp_dir("modes");
    let artifacts = ArtifactStore::new();
    for technique in [Technique::SwiftR, Technique::Trump] {
        let (mem_cert, mem_triage, mem_hits, mem_triage_hits) =
            run_both(&artifacts, &ResultStore::in_memory(), technique);
        assert_eq!(
            (mem_hits, mem_triage_hits),
            (0, 0),
            "{technique}: fresh store hit"
        );

        let program = &artifacts
            .get(
                &WORKLOAD,
                technique,
                &Default::default(),
                &LowerConfig::default(),
            )
            .program;
        let reference = certify_program(program, WORKLOAD.name(), &technique.to_string(), 2);
        assert_eq!(
            mem_cert,
            certified_json(&reference),
            "{technique}: the driver diverged from the monolithic reference"
        );

        let cold = run_both(&artifacts, &ResultStore::open(&dir), technique);
        assert_eq!((cold.2, cold.3), (0, 0), "{technique}: cold store hit");
        assert_eq!(cold.0, mem_cert, "{technique}: cold certify bytes diverged");
        assert_eq!(
            cold.1, mem_triage,
            "{technique}: cold triage bytes diverged"
        );

        let warm = run_both(&artifacts, &ResultStore::open(&dir), technique);
        assert_eq!(
            warm.2, SECTIONS,
            "{technique}: warm certify missed a section"
        );
        assert_eq!(
            warm.3, SECTIONS,
            "{technique}: warm triage missed a section"
        );
        assert_eq!(warm.0, mem_cert, "{technique}: warm certify bytes diverged");
        assert_eq!(
            warm.1, mem_triage,
            "{technique}: warm triage bytes diverged"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn generalized_models_leave_the_store_empty() {
    let dir = temp_dir("models");
    let artifacts = ArtifactStore::new();
    for results in [ResultStore::in_memory(), ResultStore::open(&dir)] {
        let cert = run_certified_campaign_stored(
            &artifacts,
            &results,
            &WORKLOAD,
            Technique::SwiftR,
            &certify_cfg(FaultModel::PcCorrupt),
        );
        assert_eq!(cert.coverage.counts.total(), cert.coverage.total_sites);
        let triaged = run_triaged_campaign_stored(
            &artifacts,
            &results,
            &WORKLOAD,
            Technique::SwiftR,
            &triage_cfg(FaultModel::TransientAlu),
            SECTIONS,
        );
        assert_eq!(triaged.result.counts.total(), 48);
        assert!(results.is_empty(), "a generalized model filled the store");
        assert_eq!(results.hits() + results.misses(), 0, "the store was probed");
    }
    assert!(ResultStore::open(&dir).is_empty(), "a record reached disk");
    std::fs::remove_dir_all(&dir).unwrap();
}

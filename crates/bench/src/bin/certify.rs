//! Exhaustive fault-space certification (extension experiment E9): for
//! every technique, certifies the *entire* `golden x register x bit` cube
//! of one workload via `sor-ace` dynamic-liveness pruning and writes
//! `results/certified_<technique>.json` — exact unACE/SDC/SEGV fractions
//! with per-protection-role attribution, no sampling and no confidence
//! interval.
//!
//! Flags: `--samples N` workload size (default 40; the fault space is
//! quadratic-ish in it, but only live equivalence classes are executed),
//! `--threads N` (default all cores), `--fault-model M` (default
//! `seu-reg`; generalized models certify monolithically and bypass the
//! store; `mem-bit` has no exhaustive plan and is rejected with
//! guidance), `--store DIR` persistent result store directory (default
//! `results/store`), `--no-store` to keep the result store in memory and
//! never persist it, `--sections N` incremental-reuse granularity
//! (default 8; results are bit-identical for every value). Every run goes
//! through the same sectional driver, store or no store, and finishes by
//! printing the store's `hits= misses= warnings=` counters — a re-run
//! over an unchanged workload and a persisted store reports all sections
//! as hits and executes zero injections.

use sor_core::Technique;
use sor_harness::{
    certified_json_model, result_name, run_certified_campaign_stored, ArtifactStore, CertifyConfig,
    FaultModel,
};
use sor_workloads::{AdpcmDec, Workload};

fn main() {
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(40);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let sections: usize = sor_bench::parsed_arg("--sections").unwrap_or(8);
    let model = sor_bench::fault_model_arg();
    if model == FaultModel::MemBit {
        eprintln!(
            "certify: mem-bit has no exhaustive certification plan; \
             use a sampled campaign (fig8/triage) instead"
        );
        std::process::exit(2);
    }
    if !model.is_default() {
        eprintln!("certify: generalized model {model} runs monolithically (store bypassed)");
    }
    let results = sor_bench::result_store(model);

    let workload = AdpcmDec { samples, seed: 1 };
    let cfg = CertifyConfig {
        threads,
        sections,
        fault_model: model,
        ..CertifyConfig::default()
    };
    let store = ArtifactStore::new();

    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>11} {:>8} {:>8} {:>8} {:>8}",
        "technique",
        "total-sites",
        "dead-sites",
        "classes",
        "injections",
        "pruning",
        "unACE%",
        "SEGV%",
        "SDC%"
    );
    for technique in Technique::ALL {
        let start = std::time::Instant::now();
        let inc = run_certified_campaign_stored(&store, &results, &workload, technique, &cfg);
        eprintln!(
            "{technique}: {}/{} sections from store, {} fresh injections",
            inc.sections_hit, inc.sections_total, inc.fresh_injections
        );
        let r = inc.coverage;
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<14} {:>12} {:>12} {:>9} {:>11} {:>7.1}x {:>8.2} {:>8.2} {:>8.2}",
            technique.to_string(),
            r.total_sites,
            r.dead_sites,
            r.classes,
            r.injections_executed,
            r.pruning_factor(),
            r.counts.pct_unace(),
            r.counts.pct_segv(),
            r.counts.pct_sdc(),
        );
        eprintln!(
            "certified {} / {technique} in {secs:.2}s ({} injections for {} sites)",
            workload.name(),
            r.injections_executed,
            r.total_sites
        );

        let json = certified_json_model(&r, model);
        let name = result_name("certified", model, Some(technique), "json");
        match sor_bench::write_results(&name, &json) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}: {e}"),
        }
    }
    println!("store: {}", results.summary());
}

//! Per-fault-site triage report: runs provenance-annotated campaigns for
//! every technique on one workload, then writes
//! `results/triage_<technique>.json` (per-site vulnerability profiles with
//! Wilson intervals) and `results/triage_heatmap.md` (the top-N most
//! vulnerable static instructions per technique, with disassembly, plus
//! the residual-SDC attribution table across protection roles).
//!
//! Flags: `--runs N` injections per technique (default 400), `--threads N`
//! (default all cores), `--samples N` workload size (default 200),
//! `--fault-model M` (default `seu-reg`; generalized models run
//! monolithically, bypassing the store), `--engine decoded|jit`
//! (execution engine — results are bit-identical, so this only changes
//! throughput; default `decoded`),
//! `--top N` heatmap rows per technique (default 10), `--store DIR`
//! persistent result store directory (default `results/store`),
//! `--no-store` to disable the store, `--sections N` section granularity
//! for store reuse (default 8). With the store enabled the run finishes by
//! printing its `hits= misses= warnings=` counters.

use sor_core::Technique;
use sor_harness::{
    residual_sdc_table, run_triaged_campaign_in, run_triaged_campaign_stored, technique_slug,
    triage_json_model, ArtifactStore, CampaignConfig, ResultStore, TriagedCampaign,
};
use sor_regalloc::LowerConfig;
use sor_workloads::{AdpcmDec, Workload};

fn main() {
    let runs = sor_bench::runs_arg(400);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(200);
    let top: usize = sor_bench::parsed_arg("--top").unwrap_or(10);
    let sections: usize = sor_bench::parsed_arg("--sections").unwrap_or(8);
    let model = sor_bench::fault_model_arg();
    let results = if sor_bench::flag("--no-store") || !model.is_default() {
        if !model.is_default() {
            eprintln!("triage: generalized model {model} runs monolithically (store bypassed)");
        }
        None
    } else {
        let dir = sor_bench::arg_value("--store").unwrap_or_else(|| "results/store".to_string());
        Some(ResultStore::open(&dir))
    };

    let workload = AdpcmDec { samples, seed: 1 };
    let cfg = CampaignConfig {
        runs,
        threads,
        fault_model: model,
        engine: sor_bench::engine_arg(),
        ..CampaignConfig::default()
    };
    let store = ArtifactStore::new();
    let mut campaigns: Vec<TriagedCampaign> = Vec::new();
    let mut heatmap = format!(
        "# Per-fault-site triage heatmap\n\nWorkload `{}`, {runs} injections per technique.\n",
        workload.name()
    );

    for technique in Technique::ALL {
        eprintln!(
            "triage: {} / {technique}, {runs} injections",
            workload.name()
        );
        let t = match &results {
            Some(rs) => {
                run_triaged_campaign_stored(&store, rs, &workload, technique, &cfg, sections)
            }
            None => run_triaged_campaign_in(&store, &workload, technique, &cfg),
        };
        let artifact = store.get(
            &workload,
            technique,
            &cfg.transform,
            &LowerConfig::default(),
        );

        let json = triage_json_model(&t, &artifact.program, runs, model);
        let name = if model.is_default() {
            format!("triage_{}.json", technique_slug(technique))
        } else {
            format!("triage_{}_{}.json", model.slug(), technique_slug(technique))
        };
        match sor_bench::write_results(&name, &json) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}: {e}"),
        }

        heatmap.push_str(&format!(
            "\n## {technique}\n\n| rank | pc | instruction | role | injections | SDC% | 95% CI |\n\
             |---:|---:|---|---|---:|---:|---|\n"
        ));
        for (rank, (pc, s)) in t.profile.top_vulnerable(top).into_iter().enumerate() {
            let (lo, hi) = s.counts.sdc_ci95();
            heatmap.push_str(&format!(
                "| {} | {pc} | `{}` | {} | {} | {:.1} | [{lo:.1}, {hi:.1}] |\n",
                rank + 1,
                artifact.program.insts[pc],
                s.role,
                s.counts.total(),
                s.counts.pct_sdc(),
            ));
        }
        campaigns.push(t);
    }

    heatmap.push_str("\n## Residual SDC by protection role\n\n");
    heatmap.push_str(&residual_sdc_table(&campaigns));
    match sor_bench::write_results("triage_heatmap.md", &heatmap) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write triage_heatmap.md: {e}"),
    }
    print!("{heatmap}");
    if let Some(rs) = &results {
        println!("store: {}", rs.summary());
    }
}

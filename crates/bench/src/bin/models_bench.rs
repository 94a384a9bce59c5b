//! Fault-model sweep throughput: every generalized fault model against
//! every model-sensitive technique on one workload.
//!
//! For each (model, technique) cell this runs a sampled campaign and
//! reports injections/second plus the outcome histogram, writing the
//! whole matrix to `BENCH_models.json`. The point is twofold: a smoke
//! test that every model executes end-to-end (CI runs this with tiny
//! `--runs`), and a throughput baseline showing what the scalar
//! fallback for generalized models costs relative to the lane-batched
//! `seu-reg` path.
//!
//! Flags: `--runs N` injections per cell (default 500), `--threads N`
//! (default all cores), `--samples N` workload size (default 100).

use sor_core::Technique;
use sor_harness::{resolve_threads, run_campaign, CampaignConfig, FaultModel};
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

fn main() {
    let runs = sor_bench::runs_arg(500);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(100);

    let workload = AdpcmDec { samples, seed: 1 };
    let techniques = [Technique::SwiftR, Technique::Cfcss];

    println!(
        "{:<14} {:<14} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "model", "technique", "unACE%", "SDC%", "det%", "secs", "runs/s"
    );
    let mut rows: Vec<String> = Vec::new();
    for model in FaultModel::ALL {
        for technique in techniques {
            let cfg = CampaignConfig {
                runs,
                seed: 0x5EED,
                threads,
                fault_model: model,
                ..CampaignConfig::default()
            };
            let start = Instant::now();
            let r = run_campaign(&workload, technique, &cfg);
            let secs = start.elapsed().as_secs_f64();
            let rps = runs as f64 / secs;
            println!(
                "{:<14} {:<14} {:>8.2} {:>8.2} {:>8.2} {:>10.3} {:>12.0}",
                model.slug(),
                technique.to_string(),
                r.counts.pct_unace(),
                r.counts.pct_sdc(),
                100.0 * r.counts.detected as f64 / r.counts.total().max(1) as f64,
                secs,
                rps,
            );
            rows.push(format!(
                "  {{\"fault_model\": \"{}\", \"technique\": \"{}\", \"runs\": {}, \
                 \"unace\": {}, \"sdc\": {}, \"segv\": {}, \"detected\": {}, \
                 \"hang\": {}, \"recoveries\": {}, \"secs\": {:.4}, \
                 \"runs_per_sec\": {:.1}}}",
                model.slug(),
                technique,
                r.counts.total(),
                r.counts.unace,
                r.counts.sdc,
                r.counts.segv,
                r.counts.detected,
                r.counts.hang,
                r.counts.recoveries,
                secs,
                rps,
            ));
        }
    }

    let json = format!(
        "{{\n\"workload\": \"{}\",\n\"threads\": {},\n\"cells\": [\n{}\n]\n}}\n",
        workload.name(),
        resolve_threads(threads),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_models.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_models.json"),
        Err(e) => eprintln!("could not write BENCH_models.json: {e}"),
    }
    print!("{json}");
}

//! Triage overhead bench: how much per-fault-site provenance profiling
//! costs on top of a plain SEU campaign.
//!
//! Runs the same pre-drawn fault list twice — once through the plain
//! campaign (outcome counting only) and once through the triaged campaign
//! (per-site/per-role/per-register attribution) — and writes the measured
//! overhead to `BENCH_triage.json`. The aggregate outcome distributions
//! are asserted identical first: triage that changed the science would be
//! worthless.
//!
//! Flags: `--runs N` (default 2000), `--threads N` (default all cores),
//! `--samples N` workload size (default 400), `--lanes L` SPMD lane width
//! for both passes (default 1, scalar).

use sor_core::Technique;
use sor_harness::{resolve_threads, run_campaign, run_triaged_campaign, CampaignConfig};
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

fn main() {
    let runs = sor_bench::runs_arg(2000);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(400);
    let lanes: usize = sor_bench::parsed_arg("--lanes").unwrap_or(1);

    let workload = AdpcmDec { samples, seed: 1 };
    let technique = Technique::SwiftR;
    let cfg = CampaignConfig {
        runs,
        threads,
        lanes,
        ..CampaignConfig::default()
    };

    eprintln!(
        "triage bench: {} / {technique}, {runs} injections per pass",
        workload.name()
    );

    // Warm-up so page-cache and allocator effects hit both timed runs
    // equally.
    let warm = run_campaign(&workload, technique, &cfg);

    let start = Instant::now();
    let plain = run_campaign(&workload, technique, &cfg);
    let plain_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let triaged = run_triaged_campaign(&workload, technique, &cfg);
    let triaged_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        triaged.result.counts, plain.counts,
        "triage changed campaign results"
    );
    assert_eq!(plain.counts, warm.counts);

    let overhead = triaged_secs / plain_secs;
    let plain_rps = runs as f64 / plain_secs;
    let triaged_rps = runs as f64 / triaged_secs;
    let sites = triaged.profile.sites().count();
    eprintln!("plain:   {plain_secs:.3}s ({plain_rps:.0} runs/s)");
    eprintln!("triaged: {triaged_secs:.3}s ({triaged_rps:.0} runs/s), {sites} sites profiled");
    eprintln!("overhead: {overhead:.3}x");

    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("runs", runs)
        .num("threads", resolve_threads(threads))
        .num("lanes", lanes)
        .num("golden_instrs", plain.golden_instrs)
        .num("sites_profiled", sites)
        .num("plain_secs", format!("{plain_secs:.4}"))
        .num("plain_runs_per_sec", format!("{plain_rps:.1}"))
        .num("triaged_secs", format!("{triaged_secs:.4}"))
        .num("triaged_runs_per_sec", format!("{triaged_rps:.1}"))
        .num("overhead", format!("{overhead:.3}"))
        .write("BENCH_triage.json");
}

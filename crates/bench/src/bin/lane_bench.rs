//! Lane-parallel SPMD batching throughput: lockstep lane groups vs. the
//! scalar decoded engine.
//!
//! Runs the same checkpointed, decoded-engine SEU campaign twice — once
//! scalar (`lanes = 1`, exactly the decoded baseline `decode_bench`
//! records in `BENCH_decode.json`) and once with `--lanes` injections
//! batched into lockstep packs — and writes the measured end-to-end
//! speedup to `BENCH_lanes.json`. The outcome distributions are asserted
//! identical first: lane batching that changed the science would be
//! worthless (the full bit-for-bit matrix lives in the `sor-harness`
//! differential and fuzz tests; this assert is the bench's own sanity
//! gate). The acceptance floor for the recorded speedup is 3x.
//!
//! Flags: `--runs N` (default 2000), `--threads N` (default all cores),
//! `--samples N` workload size (default 400), `--lanes L` pack width for
//! the batched pass (default 16).

use sor_core::Technique;
use sor_harness::{resolve_threads, run_campaign, CampaignConfig};
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

fn main() {
    let runs = sor_bench::runs_arg(2000);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(400);
    let lanes: usize = sor_bench::parsed_arg("--lanes").unwrap_or(16);

    let workload = AdpcmDec { samples, seed: 1 };
    let technique = Technique::SwiftR;
    let cfg = |lanes: usize| CampaignConfig {
        runs,
        seed: 0x5EED,
        threads,
        lanes,
        ..CampaignConfig::default()
    };

    eprintln!(
        "lane bench: {} / {technique}, {runs} injections per pass, {lanes}-wide packs vs scalar",
        workload.name()
    );

    // Warm-up pass so page-cache and allocator effects hit both timed runs
    // equally.
    let warm = run_campaign(&workload, technique, &cfg(1));

    let start = Instant::now();
    let scalar = run_campaign(&workload, technique, &cfg(1));
    let scalar_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let laned = run_campaign(&workload, technique, &cfg(lanes));
    let laned_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        scalar.counts, laned.counts,
        "lane batching changed campaign results"
    );
    assert_eq!(scalar.counts, warm.counts);

    let speedup = scalar_secs / laned_secs;
    let scalar_rps = runs as f64 / scalar_secs;
    let laned_rps = runs as f64 / laned_secs;
    eprintln!("scalar:        {scalar_secs:.3}s ({scalar_rps:.0} runs/s)");
    eprintln!("{lanes}-lane packs:  {laned_secs:.3}s ({laned_rps:.0} runs/s)");
    eprintln!("speedup: {speedup:.2}x");

    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("runs", runs)
        .num("threads", resolve_threads(threads))
        .num("lanes", lanes)
        .num("golden_instrs", scalar.golden_instrs)
        .num("scalar_secs", format!("{scalar_secs:.4}"))
        .num("scalar_runs_per_sec", format!("{scalar_rps:.1}"))
        .num("laned_secs", format!("{laned_secs:.4}"))
        .num("laned_runs_per_sec", format!("{laned_rps:.1}"))
        .num("speedup", format!("{speedup:.3}"))
        .write("BENCH_lanes.json");
}

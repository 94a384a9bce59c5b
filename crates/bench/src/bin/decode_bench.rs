//! Predecoded micro-op engine throughput: decoded vs. legacy interpreter.
//!
//! Runs the same checkpointed SEU campaign twice — once on the legacy
//! per-step decode interpreter and once on the predecoded micro-op engine
//! with superblock dispatch — and writes the measured end-to-end speedup
//! to `BENCH_decode.json`. The outcome distributions are asserted
//! identical first: an engine that changed the science would be worthless
//! (the full bit-for-bit matrix lives in the `sor-harness` differential
//! tests; this assert is the bench's own sanity gate).
//!
//! Flags: `--runs N` (default 2000), `--threads N` (default all cores),
//! `--samples N` workload size (default 400).

use sor_core::Technique;
use sor_harness::{resolve_threads, run_campaign, CampaignConfig};
use sor_sim::ExecEngine;
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

fn main() {
    let runs = sor_bench::runs_arg(2000);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(400);

    let workload = AdpcmDec { samples, seed: 1 };
    let technique = Technique::SwiftR;
    let cfg = |engine: ExecEngine| CampaignConfig {
        runs,
        seed: 0x5EED,
        threads,
        engine,
        ..CampaignConfig::default()
    };

    eprintln!(
        "decode bench: {} / {technique}, {runs} injections per pass, checkpointed replay on both",
        workload.name()
    );

    // Warm-up pass so page-cache and allocator effects hit both timed runs
    // equally.
    let warm = run_campaign(&workload, technique, &cfg(ExecEngine::Decoded));

    let start = Instant::now();
    let legacy = run_campaign(&workload, technique, &cfg(ExecEngine::Legacy));
    let legacy_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let decoded = run_campaign(&workload, technique, &cfg(ExecEngine::Decoded));
    let decoded_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        legacy.counts, decoded.counts,
        "the decoded engine changed campaign results"
    );
    assert_eq!(legacy.counts, warm.counts);

    let speedup = legacy_secs / decoded_secs;
    let legacy_rps = runs as f64 / legacy_secs;
    let decoded_rps = runs as f64 / decoded_secs;
    eprintln!("legacy:  {legacy_secs:.3}s ({legacy_rps:.0} runs/s)");
    eprintln!("decoded: {decoded_secs:.3}s ({decoded_rps:.0} runs/s)");
    eprintln!("speedup: {speedup:.2}x");

    // Both passes run scalar (lanes = 1): the legacy engine cannot lane,
    // and the decoded column is the lane_bench baseline.
    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("runs", runs)
        .num("threads", resolve_threads(threads))
        .num("lanes", 1)
        .num("golden_instrs", legacy.golden_instrs)
        .num("legacy_secs", format!("{legacy_secs:.4}"))
        .num("legacy_runs_per_sec", format!("{legacy_rps:.1}"))
        .num("decoded_secs", format!("{decoded_secs:.4}"))
        .num("decoded_runs_per_sec", format!("{decoded_rps:.1}"))
        .num("speedup", format!("{speedup:.3}"))
        .write("BENCH_decode.json");
}

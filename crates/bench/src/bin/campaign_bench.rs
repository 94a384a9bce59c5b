//! Fault-injection campaign throughput: checkpoint-and-replay on vs. off.
//!
//! Runs the same SEU campaign twice — once with every injection executed
//! from scratch (`checkpoint_interval = 0`) and once resuming from the
//! golden run's checkpoints (the default auto-sized interval) — and writes
//! the measured speedup to `BENCH_campaign.json`. The outcome distributions
//! are asserted identical first; a speedup that changed the science would
//! be worthless.
//!
//! Flags: `--runs N` (default 2000), `--threads N` (default all cores),
//! `--samples N` workload size (default 400), `--lanes L` SPMD lane width
//! for both passes (default 1, scalar).

use sor_core::Technique;
use sor_harness::{resolve_threads, run_campaign, CampaignConfig};
use sor_sim::MachineConfig;
use sor_workloads::{AdpcmDec, Workload};
use std::time::Instant;

fn main() {
    let runs = sor_bench::runs_arg(2000);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(400);
    let lanes: usize = sor_bench::parsed_arg("--lanes").unwrap_or(1);

    let workload = AdpcmDec { samples, seed: 1 };
    let technique = Technique::SwiftR;
    let cfg = |interval: u64| CampaignConfig {
        runs,
        seed: 0x5EED,
        threads,
        checkpoint_interval: interval,
        lanes,
        ..CampaignConfig::default()
    };

    eprintln!(
        "campaign bench: {} / {technique}, {runs} injections per pass",
        workload.name()
    );

    // Warm-up pass so page-cache and allocator effects hit both timed runs
    // equally.
    let warm = run_campaign(&workload, technique, &cfg(0));

    let start = Instant::now();
    let baseline = run_campaign(&workload, technique, &cfg(0));
    let baseline_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let replayed = run_campaign(&workload, technique, &cfg(MachineConfig::AUTO_CHECKPOINT));
    let replay_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        baseline.counts, replayed.counts,
        "checkpoint-and-replay changed campaign results"
    );
    assert_eq!(baseline.counts, warm.counts);

    let speedup = baseline_secs / replay_secs;
    let base_rps = runs as f64 / baseline_secs;
    let replay_rps = runs as f64 / replay_secs;
    eprintln!("from-scratch: {baseline_secs:.3}s ({base_rps:.0} runs/s)");
    eprintln!("checkpointed: {replay_secs:.3}s ({replay_rps:.0} runs/s)");
    eprintln!("speedup: {speedup:.2}x");

    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("runs", runs)
        .num("threads", resolve_threads(threads))
        .num("lanes", lanes)
        .num("golden_instrs", baseline.golden_instrs)
        .num("baseline_secs", format!("{baseline_secs:.4}"))
        .num("baseline_runs_per_sec", format!("{base_rps:.1}"))
        .num("checkpointed_secs", format!("{replay_secs:.4}"))
        .num("checkpointed_runs_per_sec", format!("{replay_rps:.1}"))
        .num("speedup", format!("{speedup:.3}"))
        .write("BENCH_campaign.json");
}

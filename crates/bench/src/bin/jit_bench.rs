//! Native superblock JIT throughput: jit vs. decoded micro-op engine.
//!
//! Runs the same checkpointed SEU campaign twice — once on the predecoded
//! micro-op interpreter and once on the native x86-64 superblock JIT —
//! and writes the measured end-to-end speedup to `BENCH_jit.json`. The
//! outcome distributions are asserted identical first: a compiler that
//! changed the science would be worthless (the full bit-for-bit matrix
//! lives in the `sor-harness` differential tests; this assert is the
//! bench's own sanity gate). On native x86-64/Linux the bench further
//! asserts the >= 5x acceptance floor over the decoded baseline; where
//! the JIT is unavailable it records the degraded (decoded-fallback)
//! timing instead of failing, so the bench stays runnable everywhere.
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
    let jit_native = cfg!(all(target_arch = "x86_64", target_os = "linux"));

    eprintln!(
        "jit bench: {} / {technique}, {runs} injections per pass, checkpointed replay on both",
        workload.name()
    );

    // Warm-up pass so page-cache and allocator effects hit both timed runs
    // equally.
    let warm = run_campaign(&workload, technique, &cfg(ExecEngine::Decoded));

    let start = Instant::now();
    let decoded = run_campaign(&workload, technique, &cfg(ExecEngine::Decoded));
    let decoded_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let jit = run_campaign(&workload, technique, &cfg(ExecEngine::Jit));
    let jit_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        decoded.counts, jit.counts,
        "the jit engine changed campaign results"
    );
    assert_eq!(decoded.counts, warm.counts);

    let speedup = decoded_secs / jit_secs;
    let decoded_rps = runs as f64 / decoded_secs;
    let jit_rps = runs as f64 / jit_secs;
    eprintln!("decoded: {decoded_secs:.3}s ({decoded_rps:.0} runs/s)");
    eprintln!("jit:     {jit_secs:.3}s ({jit_rps:.0} runs/s)");
    eprintln!("speedup: {speedup:.2}x");
    if jit_native {
        assert!(
            speedup >= 5.0,
            "jit speedup {speedup:.2}x is below the 5x acceptance floor"
        );
    } else {
        eprintln!("jit unavailable on this target; recorded the decoded-fallback timing");
    }

    // Both passes run scalar (lanes = 1) on the decode_bench campaign, so
    // the three BENCH_{decode,lanes,jit}.json baselines compose.
    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("runs", runs)
        .num("threads", resolve_threads(threads))
        .num("lanes", 1)
        .num("jit_native", jit_native)
        .num("golden_instrs", decoded.golden_instrs)
        .num("decoded_secs", format!("{decoded_secs:.4}"))
        .num("decoded_runs_per_sec", format!("{decoded_rps:.1}"))
        .num("jit_secs", format!("{jit_secs:.4}"))
        .num("jit_runs_per_sec", format!("{jit_rps:.1}"))
        .num("speedup", format!("{speedup:.3}"))
        .write("BENCH_jit.json");
}

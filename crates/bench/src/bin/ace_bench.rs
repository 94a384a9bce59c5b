//! Certification efficiency: `sor-ace` pruned certification vs. true
//! brute-force injection of every (slot, register, bit) site.
//!
//! Both passes classify the identical fault space; the outcome histograms
//! are asserted equal before any number is reported (an unsound pruner
//! would make the speedup worthless). Writes `BENCH_ace.json` with the
//! injection-count reduction (the acceptance floor is 5x) and the measured
//! wall-clock speedup.
//!
//! Flags: `--samples N` workload size (default 4 — brute force executes
//! the whole cube, so keep it small), `--threads N` (default all cores),
//! `--lanes L` SPMD lane width for the certified pass (default 1).

use sor_core::Technique;
use sor_harness::{run_certified_campaign_in, ArtifactStore, CertifyConfig, OutcomeCounts};
use sor_regalloc::LowerConfig;
use sor_sim::{FaultSpec, MachineConfig, Runner, INJECTABLE_REGS};
use sor_workloads::{AdpcmDec, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Injects every single site of the cube, work-stealing over dynamic
/// slots, and returns the aggregate histogram.
fn brute_force(runner: &Runner, threads: usize) -> OutcomeCounts {
    let golden_len = runner.golden().dyn_instrs;
    let next = AtomicU64::new(0);
    let mut total = OutcomeCounts::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads.max(1) {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut replayer = runner.replayer();
                let mut counts = OutcomeCounts::default();
                loop {
                    let at = next.fetch_add(1, Ordering::Relaxed);
                    if at >= golden_len {
                        break;
                    }
                    for &reg in &INJECTABLE_REGS {
                        for bit in 0..64 {
                            let (outcome, res) = replayer.run_fault(FaultSpec::new(at, reg, bit));
                            counts.record(
                                outcome,
                                res.probes.vote_repairs + res.probes.trump_recovers,
                            );
                        }
                    }
                }
                counts
            }));
        }
        for h in handles {
            total += h.join().expect("brute-force worker panicked");
        }
    });
    total
}

fn main() {
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(4);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });

    let lanes: usize = sor_bench::parsed_arg("--lanes").unwrap_or(1);

    let workload = AdpcmDec { samples, seed: 1 };
    let technique = Technique::SwiftR;
    let store = ArtifactStore::new();
    let cfg = CertifyConfig {
        threads,
        lanes,
        ..CertifyConfig::default()
    };

    eprintln!(
        "ace bench: {} / {technique}, exhaustive certification vs brute force",
        workload.name()
    );

    // Warm-up: prepare the artifact outside both timed regions.
    let artifact = store.get(
        &workload,
        technique,
        &cfg.transform,
        &LowerConfig::default(),
    );

    let start = Instant::now();
    let certified = run_certified_campaign_in(&store, &workload, technique, &cfg);
    let certified_secs = start.elapsed().as_secs_f64();

    let runner = Runner::new(&artifact.program, &MachineConfig::default());
    let start = Instant::now();
    let brute = brute_force(&runner, threads);
    let brute_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        certified.counts, brute,
        "certification diverged from brute force"
    );
    assert!(
        certified.injections_executed * 5 <= certified.total_sites,
        "pruning floor missed: {} injections for {} sites",
        certified.injections_executed,
        certified.total_sites
    );

    let reduction = certified.total_sites as f64 / certified.injections_executed.max(1) as f64;
    let speedup = brute_secs / certified_secs;
    eprintln!(
        "brute force: {} injections in {brute_secs:.3}s",
        certified.total_sites
    );
    eprintln!(
        "certified:   {} injections in {certified_secs:.3}s",
        certified.injections_executed
    );
    eprintln!("injection reduction: {reduction:.1}x, wall-clock speedup: {speedup:.2}x");

    sor_bench::BenchReport::new()
        .str("workload", workload.name())
        .str("technique", technique)
        .num("threads", sor_harness::resolve_threads(threads))
        .num("lanes", lanes)
        .num("golden_instrs", certified.golden_instrs)
        .num("total_sites", certified.total_sites)
        .num("dead_sites", certified.dead_sites)
        .num("classes", certified.classes)
        .num("brute_injections", certified.total_sites)
        .num("certified_injections", certified.injections_executed)
        .num("injection_reduction", format!("{reduction:.2}"))
        .num("brute_secs", format!("{brute_secs:.4}"))
        .num("certified_secs", format!("{certified_secs:.4}"))
        .num("speedup", format!("{speedup:.3}"))
        .write("BENCH_ace.json");
}

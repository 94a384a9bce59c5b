//! Transform + lower throughput through the pass pipeline, and the
//! artifact-store speedup on the figure-preparation request stream
//! (`BENCH_pipeline.json`).
//!
//! Two measurements:
//!
//! 1. Per-technique transform + lower latency on one workload — the
//!    pipeline path every consumer now uses.
//! 2. The figure-prep request stream: every (workload, technique) pair is
//!    requested three times, once each for the Figure 8 campaign, the
//!    Figure 9 timing run and the headline summary. The baseline replays
//!    the pre-refactor path (a fresh transform + lower per request); the
//!    store path serves repeats from a shared `ArtifactStore`. Outputs are
//!    asserted identical before anything is timed — a speedup that changed
//!    the prepared programs would be worthless.
//!
//! Flags: `--samples N` workload size (default 400), `--reps N` timed
//! repetitions per path, best taken (default 3).

use sor_core::{Technique, TransformConfig};
use sor_harness::ArtifactStore;
use sor_regalloc::{lower, LowerConfig};
use sor_workloads::{AdpcmDec, AdpcmEnc, Workload};
use std::time::Instant;

/// fig8 + fig9 + headline each request every key once.
const REQUESTS_PER_KEY: usize = 3;

fn main() {
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(400);
    let reps: usize = sor_bench::parsed_arg("--reps").unwrap_or(3);
    let tc = TransformConfig::default();
    let lc = LowerConfig::default();

    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(AdpcmDec { samples, seed: 1 }),
        Box::new(AdpcmEnc { samples, seed: 2 }),
    ];
    eprintln!(
        "pipeline bench: {} workloads x {{technique}} ({samples} samples), {reps} reps",
        workloads.len()
    );

    // 1. Per-technique transform + lower latency.
    let module = workloads[0].build();
    let mut tech_ns = Vec::new();
    for t in Technique::ALL {
        let ns = sor_bench::report("transform+lower", t.name(), || {
            lower(&t.apply_with(&module, &tc), &lc).unwrap()
        });
        tech_ns.push((t, ns));
    }

    // 2. Request streams: the hybrids (the acceptance target — their
    // two-pass pipelines are the most expensive to redo) and the full
    // Figure 8 technique set for context.
    let hybrids = [Technique::TrumpMask, Technique::TrumpSwiftR];
    let (hyb_base, hyb_store) = stream(&workloads, &hybrids, &tc, &lc, reps);
    let (full_base, full_store) = stream(&workloads, &Technique::FIGURE8, &tc, &lc, reps);
    let hyb_speedup = hyb_base / hyb_store;
    let full_speedup = full_base / full_store;
    eprintln!(
        "hybrid stream:  fresh {:.4}s, store {:.4}s, speedup {hyb_speedup:.2}x",
        hyb_base, hyb_store
    );
    eprintln!(
        "figure8 stream: fresh {:.4}s, store {:.4}s, speedup {full_speedup:.2}x",
        full_base, full_store
    );

    let mut tech_json = String::new();
    for (i, (t, ns)) in tech_ns.iter().enumerate() {
        if i > 0 {
            tech_json.push_str(",\n    ");
        }
        tech_json.push_str(&format!("\"{}\": {ns:.0}", t.name()));
    }
    let json = format!(
        "{{\n  \"samples\": {samples},\n  \"reps\": {reps},\n  \
         \"requests_per_key\": {REQUESTS_PER_KEY},\n  \
         \"transform_lower_ns\": {{\n    {tech_json}\n  }},\n  \
         \"hybrid_stream\": {{\n    \
         \"baseline_secs\": {hyb_base:.4},\n    \
         \"store_secs\": {hyb_store:.4},\n    \
         \"speedup\": {hyb_speedup:.3}\n  }},\n  \
         \"figure8_stream\": {{\n    \
         \"baseline_secs\": {full_base:.4},\n    \
         \"store_secs\": {full_store:.4},\n    \
         \"speedup\": {full_speedup:.3}\n  }}\n}}\n"
    );
    match std::fs::write("BENCH_pipeline.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_pipeline.json"),
        Err(e) => eprintln!("could not write BENCH_pipeline.json: {e}"),
    }
    print!("{json}");
}

/// Replays the request stream (every key, [`REQUESTS_PER_KEY`] times)
/// through both preparation paths, `reps` times each, and returns
/// best-of-reps wall seconds as `(fresh, store)`.
fn stream(
    workloads: &[Box<dyn Workload>],
    techniques: &[Technique],
    tc: &TransformConfig,
    lc: &LowerConfig,
    reps: usize,
) -> (f64, f64) {
    // Correctness first: both paths must prepare identical programs.
    let guard = ArtifactStore::new();
    for w in workloads {
        for &t in techniques {
            let fresh = lower(&t.apply_with(&w.build(), tc), lc).unwrap();
            let a = guard.get(w.as_ref(), t, tc, lc);
            assert_eq!(
                a.program,
                fresh,
                "store artifact diverged for {}/{t}",
                w.name()
            );
        }
    }

    let mut fresh_best = f64::INFINITY;
    let mut store_best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..REQUESTS_PER_KEY {
            for w in workloads {
                for &t in techniques {
                    std::hint::black_box(lower(&t.apply_with(&w.build(), tc), lc).unwrap());
                }
            }
        }
        fresh_best = fresh_best.min(t0.elapsed().as_secs_f64());

        let store = ArtifactStore::new();
        let t0 = Instant::now();
        for _ in 0..REQUESTS_PER_KEY {
            for w in workloads {
                for &t in techniques {
                    std::hint::black_box(store.get(w.as_ref(), t, tc, lc));
                }
            }
        }
        store_best = store_best.min(t0.elapsed().as_secs_f64());
    }
    (fresh_best, store_best)
}

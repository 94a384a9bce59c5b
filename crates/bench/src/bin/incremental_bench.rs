//! Incremental re-certification economics (extension experiment E12):
//! measures what the content-addressed [`sor_harness::ResultStore`] buys
//! on a certification sweep — cold (empty store), warm (nothing changed)
//! and incremental (one workload's parameters bumped, standing in for an
//! edited workload function) — and writes `BENCH_incremental.json`.
//!
//! The sweep is 2 workloads x 3 techniques. Cold executes every section
//! and persists it; warm re-runs the identical sweep and must serve every
//! section from the store (zero fresh injections); incremental mutates
//! one workload, whose program digest (and hence every one of its section
//! keys) changes — its cells re-execute while the untouched workload's
//! cells still hit. Every phase's reports are asserted bit-identical to
//! the phase-appropriate reference before any timing is written, and the
//! warm-vs-cold speedup is asserted >= 10x (the acceptance floor; the
//! measured figure is far higher because warm runs skip *all*
//! injections).
//!
//! Flags: `--samples N` AdpcmDec workload size (default 40), `--threads N`
//! (default all cores), `--sections N` store granularity (default 8).

use sor_core::Technique;
use sor_harness::{
    resolve_threads, run_certified_campaign_stored, ArtifactStore, CertifyConfig,
    IncrementalCertification, ResultStore,
};
use sor_workloads::{AdpcmDec, Mpeg2Enc, Workload};

const TECHNIQUES: [Technique; 3] = [Technique::SwiftR, Technique::Trump, Technique::Swift];

/// Runs the full 2-workload x 3-technique sweep against one store,
/// returning per-cell results in a fixed order.
fn sweep(
    results: &ResultStore,
    workloads: &[&dyn Workload],
    cfg: &CertifyConfig,
) -> Vec<IncrementalCertification> {
    let artifacts = ArtifactStore::new();
    let mut out = Vec::new();
    for w in workloads {
        for technique in TECHNIQUES {
            out.push(run_certified_campaign_stored(
                &artifacts, results, *w, technique, cfg,
            ));
        }
    }
    out
}

fn main() {
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(40);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(0);
    let sections: usize = sor_bench::parsed_arg("--sections").unwrap_or(8);
    let cfg = CertifyConfig {
        threads,
        sections,
        ..CertifyConfig::default()
    };

    let dir = std::path::Path::new("results/store_bench");
    let _ = std::fs::remove_dir_all(dir); // a genuinely cold phase 1
    let adpcm = AdpcmDec { samples, seed: 1 };
    let adpcm_bumped = AdpcmDec {
        samples: samples + 4,
        seed: 1,
    };
    let mpeg = Mpeg2Enc { blocks: 2, seed: 1 };

    // Phase 1 — cold: every section executes and is persisted.
    eprintln!("phase 1/3: cold sweep ({samples} samples, {sections} sections)");
    let store = ResultStore::open(dir);
    let t = std::time::Instant::now();
    let cold = sweep(&store, &[&adpcm, &mpeg], &cfg);
    let cold_secs = t.elapsed().as_secs_f64();
    let cold_injections: u64 = cold.iter().map(|c| c.fresh_injections).sum();
    drop(store);

    // Phase 2 — warm: reopen from disk, nothing changed; every section
    // must hit and the reports must be bit-identical to cold's.
    eprintln!("phase 2/3: warm sweep (reopened store)");
    let store = ResultStore::open(dir);
    let t = std::time::Instant::now();
    let warm = sweep(&store, &[&adpcm, &mpeg], &cfg);
    let warm_secs = t.elapsed().as_secs_f64();
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            w.coverage, c.coverage,
            "warm report diverged from cold for {}/{}",
            c.coverage.workload, c.coverage.technique
        );
        assert_eq!(w.fresh_injections, 0, "warm run executed injections");
        assert_eq!(w.sections_hit, w.sections_total);
    }
    let (warm_hits, warm_misses) = (store.hits(), store.misses());
    drop(store);

    // Phase 3 — incremental: adpcmdec's parameters bump, so its program
    // digest (hence all its section keys) changes and its cells
    // re-execute; mpeg2enc's cells still hit.
    eprintln!(
        "phase 3/3: incremental sweep (adpcmdec {samples} -> {} samples)",
        samples + 4
    );
    let store = ResultStore::open(dir);
    let t = std::time::Instant::now();
    let incr = sweep(&store, &[&adpcm_bumped, &mpeg], &cfg);
    let incr_secs = t.elapsed().as_secs_f64();
    for (i, r) in incr.iter().enumerate() {
        if i < TECHNIQUES.len() {
            assert_eq!(
                r.sections_hit, 0,
                "mutated workload served stale sections ({})",
                r.coverage.technique
            );
        } else {
            assert_eq!(
                (r.fresh_injections, &r.coverage),
                (0, &cold[i].coverage),
                "untouched workload re-executed or diverged ({})",
                r.coverage.technique
            );
        }
    }
    let (incr_hits, incr_misses) = (store.hits(), store.misses());

    let warm_speedup = cold_secs / warm_secs.max(1e-9);
    let incr_speedup = cold_secs / incr_secs.max(1e-9);
    assert!(
        warm_speedup >= 10.0,
        "warm-vs-cold speedup {warm_speedup:.1}x is below the 10x floor"
    );

    sor_bench::BenchReport::new()
        .str("workloads", "adpcmdec+mpeg2enc")
        .num("samples", samples)
        .num("techniques", TECHNIQUES.len())
        .num("threads", resolve_threads(threads))
        .num("sections", sections)
        .num("cold_secs", format!("{cold_secs:.4}"))
        .num("cold_injections", cold_injections)
        .num("warm_secs", format!("{warm_secs:.4}"))
        .num("warm_hits", warm_hits)
        .num("warm_misses", warm_misses)
        .num("warm_speedup", format!("{warm_speedup:.2}"))
        .num("incremental_secs", format!("{incr_secs:.4}"))
        .num("incremental_hits", incr_hits)
        .num("incremental_misses", incr_misses)
        .num("incremental_speedup", format!("{incr_speedup:.2}"))
        .num("bit_identical", "true")
        .write("BENCH_incremental.json");
}

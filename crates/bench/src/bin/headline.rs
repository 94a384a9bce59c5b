//! Regenerates the paper's headline numbers (§1/§7/§9): average unACE /
//! SEGV / SDC per technique, the SDC+SEGV reduction relative to NOFT
//! (paper: 89.39% for SWIFT-R, 52.48% for TRUMP), and the geometric-mean
//! normalized execution time (paper: 1.99x SWIFT-R, 1.36x TRUMP, ~1.00x
//! MASK, 1.37x TRUMP/MASK, 1.98x TRUMP/SWIFT-R).
//!
//! Flags: `--runs N` injections per cell (default 250), `--seed S`
//! campaign seed (default `0x5EED`), `--json` to additionally write
//! `results/headline.json`.

use sor_core::Technique;
use sor_harness::{headline, ArtifactStore, CampaignConfig, FigureEight, FigureNine, PerfConfig};
use sor_workloads::all_workloads;

fn main() {
    let runs = sor_bench::runs_arg(250);
    let seed = sor_bench::parsed_arg("--seed").unwrap_or(0x5EED);
    let want_json = std::env::args().any(|a| a == "--json");
    let suite = all_workloads();
    let cfg = CampaignConfig {
        runs,
        seed,
        ..CampaignConfig::default()
    };
    // One artifact store for both figures: the timing runs reuse every
    // transformed + lowered program the reliability campaigns prepared.
    let store = ArtifactStore::new();
    eprintln!("reliability campaigns ({runs} injections per cell)...");
    let fig8 = FigureEight::run_in(&store, &suite, &Technique::FIGURE8, &cfg);
    eprintln!("performance runs...");
    let fig9 = FigureNine::run_in(&store, &suite, &PerfConfig::default());
    eprintln!(
        "artifact store: {} programs prepared, {} reused",
        store.misses(),
        store.hits()
    );
    let h = headline(&fig8, &fig9);
    println!("{h}");
    println!("paper reference points: SWIFT-R 89.39% reduction @1.99x; TRUMP 52.48% @1.36x;");
    println!("MASK ~0% @1.00x; TRUMP/MASK @1.37x; TRUMP/SWIFT-R @1.98x; NOFT unACE 74.18%.");
    let mut csv =
        String::from("technique,unace_pct,segv_pct,sdc_pct,bad_reduction_pct,norm_time\n");
    for r in h.rows() {
        csv.push_str(&format!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.3}\n",
            r.technique, r.unace_pct, r.segv_pct, r.sdc_pct, r.bad_reduction_pct, r.norm_time
        ));
    }
    match sor_bench::write_results("headline.csv", &csv) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    if want_json {
        match sor_bench::write_results("headline.json", &h.to_json()) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
}

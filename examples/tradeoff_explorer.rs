//! The reliability/performance trade-off frontier (the paper's central
//! claim: the techniques form "a wide spectrum of viable options").
//!
//! Runs a three-benchmark mini-suite through every technique, measuring
//! both axes, and prints the frontier so a designer can pick a point —
//! exactly the §7 narrative.
//!
//! ```sh
//! cargo run --release --example tradeoff_explorer
//! ```

use software_only_recovery::harness::measure_perf_in;
use software_only_recovery::prelude::*;
use software_only_recovery::recovery::Technique as T;
use software_only_recovery::workloads::{AdpcmDec, Mcf, Mpeg2Enc};

fn main() {
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(AdpcmDec::default()),
        Box::new(Mpeg2Enc::default()),
        Box::new(Mcf::default()),
    ];
    let campaign = CampaignConfig {
        runs: 200,
        ..CampaignConfig::default()
    };
    let perf = PerfConfig::default();
    // One artifact store: each program is prepared once and shared by its
    // campaign and its timing runs.
    let store = ArtifactStore::new();

    println!(
        "{:<14} {:>10} {:>12} {:>18}",
        "technique", "unACE%", "norm-time", "damage-reduction%"
    );
    let mut noft_bad = 0.0f64;
    for t in T::FIGURE8 {
        let mut unace = 0.0;
        let mut bad = 0.0;
        let mut norm = 1.0f64;
        for w in &suite {
            let r = run_campaign_in(&store, w.as_ref(), t, &campaign);
            unace += r.counts.pct_unace();
            bad += r.counts.pct_bad();
            let base = measure_perf_in(&store, w.as_ref(), T::Noft, &perf).cycles;
            let mine = measure_perf_in(&store, w.as_ref(), t, &perf).cycles;
            norm *= mine as f64 / base as f64;
        }
        unace /= suite.len() as f64;
        bad /= suite.len() as f64;
        norm = norm.powf(1.0 / suite.len() as f64);
        if t == T::Noft {
            noft_bad = bad;
        }
        let reduction = if noft_bad > 0.0 {
            100.0 * (noft_bad - bad) / noft_bad
        } else {
            0.0
        };
        println!(
            "{:<14} {:>10.1} {:>12.2} {:>18.1}",
            t.to_string(),
            unace,
            norm,
            reduction
        );
    }
    println!("\nPick your point: MASK is ~free, TRUMP is the middle ground,");
    println!("SWIFT-R buys near-total recovery for ~2x runtime (paper §9).");
}

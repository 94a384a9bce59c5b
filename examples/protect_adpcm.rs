//! Protecting a realistic codec: runs the `adpcmdec` kernel (the paper's
//! MASK motivating benchmark) under every technique and reports how a batch
//! of injected faults fares — a miniature of Figure 8, plus the MASK story
//! of §5 in action.
//!
//! ```sh
//! cargo run --release --example protect_adpcm
//! ```

use software_only_recovery::prelude::*;
use software_only_recovery::recovery::Technique as T;

fn main() {
    let workload = sor_workloads_handle();
    let cfg = CampaignConfig {
        runs: 400,
        ..CampaignConfig::default()
    };
    let store = ArtifactStore::new();
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>12}",
        "technique", "unACE%", "SEGV%", "SDC%", "recoveries"
    );
    for t in [
        T::Noft,
        T::Mask,
        T::Trump,
        T::TrumpMask,
        T::TrumpSwiftR,
        T::SwiftR,
        T::Swift,
    ] {
        let r = run_campaign_in(&store, workload.as_ref(), t, &cfg);
        println!(
            "{:<14} {:>8.1} {:>8.1} {:>8.1} {:>12}",
            t.to_string(),
            r.counts.pct_unace(),
            r.counts.pct_segv(),
            r.counts.pct_sdc(),
            r.counts.recoveries
        );
    }
    println!("\n(SWIFT is detection-only: its non-unACE runs end in a detected trap,");
    println!(" folded into the SEGV column, rather than silent corruption.)");
}

fn sor_workloads_handle() -> Box<dyn Workload> {
    Box::new(software_only_recovery::workloads::AdpcmDec::default())
}

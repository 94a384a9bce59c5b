//! Regenerates **Figure 9**: execution time normalized to NOFT under the
//! PPC970-calibrated out-of-order timing model (paper §7.2).
//!
//! Flags: `--json` to additionally write `results/fig9.json`. The timing
//! model is deterministic, so there is no `--runs` or `--seed`.

use sor_harness::{ArtifactStore, FigureNine, PerfConfig};
use sor_workloads::all_workloads;

fn main() {
    let want_json = std::env::args().any(|a| a == "--json");
    eprintln!("running Figure 9: 10 benchmarks x 6 techniques, timed, fault-free...");
    let start = std::time::Instant::now();
    let fig = FigureNine::run_in(
        &ArtifactStore::new(),
        &all_workloads(),
        &PerfConfig::default(),
    );
    eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
    println!("{fig}");
    let mut outputs = vec![("fig9.csv", fig.to_csv()), ("fig9.txt", fig.to_string())];
    if want_json {
        outputs.push(("fig9.json", fig.to_json()));
    }
    for (name, contents) in outputs {
        match sor_bench::write_results(name, &contents) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
}

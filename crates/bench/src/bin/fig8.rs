//! Regenerates **Figure 8**: reliability percentage (unACE/SEGV/SDC) for
//! NOFT, MASK, TRUMP, TRUMP/MASK, TRUMP/SWIFT-R and SWIFT-R over the ten
//! benchmark kernels, 250 SEU injections per cell (paper §7.1).
//!
//! Flags: `--runs N` injections per cell (default 250), `--seed S`
//! campaign seed (default `0x5EED`), `--fault-model M` (default
//! `seu-reg`; non-default models write model-suffixed result files and
//! tag every JSON row), `--json` to additionally write
//! `results/fig8.json`.

use sor_core::Technique;
use sor_harness::{result_name, ArtifactStore, CampaignConfig, FigureEight};
use sor_workloads::all_workloads;

fn main() {
    let runs = sor_bench::runs_arg(250);
    let seed = sor_bench::parsed_arg("--seed").unwrap_or(0x5EED);
    let model = sor_bench::fault_model_arg();
    let want_json = std::env::args().any(|a| a == "--json");
    let cfg = CampaignConfig {
        runs,
        seed,
        fault_model: model,
        ..CampaignConfig::default()
    };
    eprintln!(
        "running Figure 8: 10 benchmarks x {} techniques x {runs} injections ({model})...",
        Technique::FIGURE8.len()
    );
    let start = std::time::Instant::now();
    let fig = FigureEight::run_in(
        &ArtifactStore::new(),
        &all_workloads(),
        &Technique::FIGURE8,
        &cfg,
    );
    eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
    println!("{fig}");
    println!("{}", fig.to_chart());
    let name = |ext| result_name("fig8", model, None, ext);
    let mut outputs = vec![
        (name("csv"), fig.to_csv()),
        (name("txt"), format!("{fig}\n{}", fig.to_chart())),
    ];
    if want_json {
        outputs.push((name("json"), fig.to_json_model(model)));
    }
    for (name, contents) in outputs {
        match sor_bench::write_results(&name, &contents) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
}

//! Extension experiment E5: static TRUMP coverage per benchmark — the
//! quantified version of the paper's §7 instruction-mix discussion
//! (arithmetic-dominated benchmarks are TRUMP-friendly, logic-dominated
//! ones are not).
//!
//! Alongside the analysis-side numbers, each row reports what the
//! TRUMP/SWIFT-R pass pipeline actually *emitted* for that benchmark
//! (encodes, votes, fuses, instructions added) — the two views must tell
//! the same story: high TRUMP value coverage means encodes displace votes.
//!
//! Pass `--json` to additionally write `results/coverage.json` for
//! machine consumption. `--fault-model M` is accepted for flag parity
//! with the injection bins: the static coverage split is
//! model-independent, so the numbers never change, but non-default
//! models tag each JSON row with the model slug so downstream tooling
//! can join coverage rows against model-tagged campaign results.

use sor_core::{coverage, Pipeline, Technique, TransformConfig};
use sor_workloads::all_workloads;

fn main() {
    let model = sor_bench::fault_model_arg();
    if !model.is_default() {
        eprintln!(
            "coverage: static analysis is fault-model-independent; tagging rows with {model}"
        );
    }
    let model_tag = if model.is_default() {
        String::new()
    } else {
        format!("\"fault_model\": \"{}\", ", model.slug())
    };
    let want_json = std::env::args().any(|a| a == "--json");
    let mut json_rows: Vec<String> = Vec::new();
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>12} {:>8} {:>7} {:>7} {:>8}",
        "benchmark",
        "int-values",
        "TRUMP(pure)",
        "TRUMP(hybrid)",
        "value-frac",
        "encodes",
        "votes",
        "fuses",
        "added"
    );
    let mut csv = String::from(
        "benchmark,int_values,trump_pure,trump_hybrid,value_frac,encodes,votes,fuses,insts_added\n",
    );
    let tc = TransformConfig::default();
    for w in all_workloads() {
        let module = w.build();
        let cov = coverage(&module);
        let c = &cov.funcs[0];
        let out = Pipeline::for_technique(Technique::TrumpSwiftR)
            .run(&module, &tc)
            .expect("verification disabled; passes are infallible");
        let t = out.report.totals();
        let added: usize = out.report.passes.iter().map(|p| p.added()).sum();
        println!(
            "{:<12} {:>10} {:>12} {:>14} {:>12.2} {:>8} {:>7} {:>7} {:>8}",
            w.name(),
            c.int_values,
            c.trump_pure,
            c.trump_hybrid,
            cov.trump_value_fraction(),
            t.encodes,
            t.votes,
            t.fuses,
            added
        );
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{},{},{},{}\n",
            w.name(),
            c.int_values,
            c.trump_pure,
            c.trump_hybrid,
            cov.trump_value_fraction(),
            t.encodes,
            t.votes,
            t.fuses,
            added
        ));
        json_rows.push(format!(
            "  {{\"benchmark\": \"{}\", {model_tag}\"int_values\": {}, \"trump_pure\": {}, \
             \"trump_hybrid\": {}, \"value_frac\": {:.4}, \"encodes\": {}, \
             \"votes\": {}, \"fuses\": {}, \"insts_added\": {}}}",
            w.name(),
            c.int_values,
            c.trump_pure,
            c.trump_hybrid,
            cov.trump_value_fraction(),
            t.encodes,
            t.votes,
            t.fuses,
            added
        ));
    }
    match sor_bench::write_results("coverage.csv", &csv) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    if want_json {
        let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
        match sor_bench::write_results("coverage.json", &json) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
}

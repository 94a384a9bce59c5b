//! # sor-bench — figure and science-artifact regeneration
//!
//! Binaries (run with `--release`):
//!
//! * `fig8` — the Figure 8 reliability matrix (`--runs N` to override the
//!   paper's 250 injections per cell, `--seed S`, `--json`; results also
//!   written to `results/fig8.csv`).
//! * `fig9` — the Figure 9 normalized execution times (`results/fig9.csv`;
//!   `--json`).
//! * `headline` — the paper's §1/§9 summary numbers, derived from both
//!   figures (`--runs N`, `--seed S`, `--json`).
//! * `coverage` — the per-benchmark TRUMP/SWIFT-R protection split behind
//!   the §7 instruction-mix discussion (extension experiment E5; `--json`
//!   additionally writes `results/coverage.json`).
//! * `ablation` — design-choice sweeps: check-placement density and issue
//!   width (DESIGN.md §7).
//! * `triage` — per-fault-site vulnerability profiles for every technique:
//!   `results/triage_<technique>.json` plus the `results/triage_heatmap.md`
//!   top-N table and residual-SDC role attribution.
//! * `certify` — exhaustive `sor-ace` certification of one workload's
//!   entire fault space per technique, exact fractions with per-role
//!   attribution (`results/certified_<technique>.json`; extension
//!   experiment E9).
//!
//! All bins spell their common flags the same way: `--runs N`, `--seed S`,
//! `--threads N`, `--samples N`, `--json`. The injecting bins run on the
//! native jit engine, which falls back to the decoded interpreter on its
//! own where it cannot compile (off x86-64 Linux, or when the kernel
//! refuses an executable mapping); results are bit-identical either way.
//! `certify` and `triage` additionally take `--store DIR` / `--no-store`
//! / `--sections N` for the result store (see `sor_harness::ResultStore`;
//! `--no-store` keeps it in memory, unpersisted — the driver is the same).
//!
//! Performance is measured by the standalone `perfbench/` package, not by
//! these bins: it times the Figure-8 campaigns, incremental
//! re-certification, the Figure-9 timing runs and the job server
//! repeatedly under noise bounds (see `perfbench/README.md`).

/// Parses a `--flag value` style argument from the command line.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` (no value) is present on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses `--fault-model M` (default `seu-reg`), exiting with the known
/// model list on an unrecognized spelling. Every injection-driving bin
/// spells the flag the same way.
pub fn fault_model_arg() -> sor_harness::FaultModel {
    use sor_harness::FaultModel;
    match arg_value("--fault-model") {
        None => FaultModel::SeuReg,
        Some(v) => FaultModel::parse(&v).unwrap_or_else(|| {
            let known: Vec<&str> = FaultModel::ALL.iter().map(|m| m.slug()).collect();
            eprintln!(
                "unknown --fault-model {v:?}; known models: {}",
                known.join(", ")
            );
            std::process::exit(2);
        }),
    }
}

/// The result store `certify` and `triage` run against: `--no-store` —
/// or a generalized fault model, which the sectional store cannot hold —
/// keeps it in memory and never persists it; otherwise `--store DIR`
/// (default `results/store`) opens the persistent store.
pub fn result_store(model: sor_harness::FaultModel) -> sor_harness::ResultStore {
    use sor_harness::ResultStore;
    if flag("--no-store") || !model.is_default() {
        ResultStore::in_memory()
    } else {
        ResultStore::open(arg_value("--store").unwrap_or_else(|| "results/store".to_string()))
    }
}

/// Parses `--runs N` with a default.
pub fn runs_arg(default: u64) -> u64 {
    parsed_arg("--runs").unwrap_or(default)
}

/// Parses the value of `--flag value` as a `T`: `None` when the flag is
/// absent; a value that does not parse exits with status 2, naming the
/// flag, instead of silently running with the default.
pub fn parsed_arg<T>(name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let v = arg_value(name)?;
    match v.parse() {
        Ok(x) => Some(x),
        Err(e) => {
            eprintln!("invalid {name} {v:?}: {e}");
            std::process::exit(2);
        }
    }
}

/// Writes a results file under `results/`, creating the directory.
pub fn write_results(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_arg_defaults() {
        assert_eq!(super::runs_arg(123), 123);
    }
}

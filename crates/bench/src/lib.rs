//! # sor-bench — figure regeneration and engineering benches
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
//! * `campaign_bench` — fault-injection campaign throughput with
//!   checkpoint-and-replay on vs. off (`BENCH_campaign.json`).
//! * `triage` — per-fault-site vulnerability profiles for every technique:
//!   `results/triage_<technique>.json` plus the `results/triage_heatmap.md`
//!   top-N table and residual-SDC role attribution.
//! * `triage_bench` — provenance-profiling overhead vs. the plain campaign
//!   (`BENCH_triage.json`).
//! * `certify` — exhaustive `sor-ace` certification of one workload's
//!   entire fault space per technique, exact fractions with per-role
//!   attribution (`results/certified_<technique>.json`; extension
//!   experiment E9).
//! * `ace_bench` — certification efficiency vs. true brute-force injection
//!   of every site: asserts identical histograms, then reports the
//!   injection-count reduction and wall-clock speedup (`BENCH_ace.json`).
//! * `incremental_bench` — what the persistent content-addressed result
//!   store buys: cold vs. warm vs. one-workload-changed certification
//!   sweeps, bit-identity asserted before timing (`BENCH_incremental.json`;
//!   extension experiment E12).
//!
//! All bins spell their common flags the same way: `--runs N`, `--seed S`,
//! `--threads N`, `--samples N`, `--json`. The injection-driving bins
//! (`fig8`, `certify`, `triage`, `coverage`) also take `--engine
//! legacy|decoded|jit` — a pure throughput knob (all engines are
//! bit-identical by contract; `jit` degrades to `decoded` off
//! x86-64/Linux), defaulting to `decoded` so existing outputs stay
//! byte-identical. `certify` and `triage`
//! additionally take `--store DIR` / `--no-store` / `--sections N` for the
//! persistent result store (see `sor_harness::ResultStore`).
//!
//! Engineering benches (`cargo bench`): transform throughput, simulator
//! throughput, end-to-end per-technique cost on a small kernel. They use
//! the self-contained [`bench_ns`] timer (the offline build has no
//! Criterion) and print one `group/name: time /iter` line each.

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

/// The one JSON serializer every `*_bench` bin shares, so the
/// `BENCH_*.json` schemas stay aligned: same envelope (workload,
/// technique, runs where applicable, the *resolved* worker-thread count —
/// never the ambiguous `0` meaning "all cores" — the lane width, golden
/// instruction count) followed by bin-specific measurements in insertion
/// order.
#[derive(Default)]
pub struct BenchReport {
    fields: Vec<(String, String)>,
}

impl BenchReport {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a JSON string field.
    pub fn str(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// Appends a raw (numeric/pre-rendered) JSON field; pass formatted
    /// strings like `format!("{secs:.4}")` for controlled precision.
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Renders the whole report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Writes the rendered report to `path` (also printing it to stdout)
    /// and logs the outcome to stderr.
    pub fn write(&self, path: &str) -> String {
        let json = self.render();
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        print!("{json}");
        json
    }
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

/// Parses `--engine E` (default [`sor_harness::ExecEngine::default`],
/// i.e. `decoded`), exiting with the known engine list on an
/// unrecognized spelling. Every injection-driving bin spells the flag
/// the same way; the default keeps existing outputs byte-identical.
pub fn engine_arg() -> sor_harness::ExecEngine {
    parsed_arg("--engine").unwrap_or_default()
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

/// Minimal wall-clock micro-bench: doubles the iteration count until one
/// pass takes at least ~40 ms, then runs three measured passes and returns
/// the best (lowest) mean nanoseconds per iteration. Best-of-N discards
/// scheduler noise, which only ever slows a pass down.
pub fn bench_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    use std::time::{Duration, Instant};
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if t.elapsed() >= Duration::from_millis(40) || iters >= 1 << 24 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Renders a nanosecond figure with a readable unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Times `f` and prints the standard one-line report.
pub fn report<T>(group: &str, name: &str, f: impl FnMut() -> T) -> f64 {
    let ns = bench_ns(f);
    println!("{group}/{name}: {} /iter", fmt_ns(ns));
    ns
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_arg_defaults() {
        assert_eq!(super::runs_arg(123), 123);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(super::fmt_ns(512.0), "512 ns");
        assert_eq!(super::fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(super::fmt_ns(2_000_000.0), "2.00 ms");
        assert_eq!(super::fmt_ns(3.2e9), "3.200 s");
    }

    #[test]
    fn bench_report_renders_ordered_json() {
        let json = super::BenchReport::new()
            .str("workload", "adpcmdec")
            .num("runs", 2000)
            .num("speedup", format!("{:.3}", 4.24681))
            .render();
        assert_eq!(
            json,
            "{\n  \"workload\": \"adpcmdec\",\n  \"runs\": 2000,\n  \"speedup\": 4.247\n}\n"
        );
    }

    #[test]
    fn bench_ns_measures_something() {
        let ns = super::bench_ns(|| std::hint::black_box(1u64).wrapping_mul(3));
        assert!(ns.is_finite() && ns >= 0.0);
    }
}

//! # sor-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|recertify|server|timing --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. One run executes one workload (see each
//! module's docs and `perfbench/README.md`) in this process with one pool
//! thread (two client connections on `server`). Every op's output is
//! checked; a mismatch or a panic counts as a failed op and the run goes
//! on.
//!
//! * `--trace 0` measures for `--seconds` seconds (at least 100 ops, and
//!   whole rounds of the workload's mix) and reports the end-to-end
//!   metrics: `setup_s`, `throughput_per_s`, `latency_p50_ms`,
//!   `latency_p90_ms`, `peak_rss_mb`. Ops and set-ups are timed in
//!   process CPU time (`util::Stopwatch`), and throughput and latency are
//!   medians over rounds (`util::OpLog::summary`); the same figures by
//!   wall clock are printed above the envelope.
//! * `--trace 1` runs a fixed number of ops twice, first through the same
//!   public API as `--trace 0` and then re-executed single-threaded
//!   through each layer's public functions with a span around every call,
//!   and reports the per-layer metrics, a self-time table and the tracing
//!   overhead. Spans are written to `perfbench-spans-<workload>.jsonl`
//!   next to the benchmark executable.
//! * `--emit-digests` prints the result digests of the first ops, the
//!   reference committed under `perfbench/digests/` for the default seed.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run envelope (git revision, CPU model, nproc, threads, seed, op,
//! round and sample counts). Stores and server state live in a scratch
//! directory next to the executable, removed at exit; nothing in the
//! source tree is written.

mod campaign;
mod recertify;
mod server;
mod timing;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{Ctx, OpLog, CLIENTS, DEFAULT_SEED, THREADS};

/// Per-layer metric values of a traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

const WORKLOADS: [&str; 4] = ["campaign", "recertify", "server", "timing"];

/// Ops in a traced run and in the committed digest lists.
const FIXED_OPS: usize = 100;

/// Every per-layer metric a traced run reports, with its unit. Layers a
/// workload bypasses report 0.
const PER_LAYER: [(&str, &str); 68] = [
    ("workloads.build_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("regalloc.lower_ms", "ms"),
    ("sim.decode_ms", "ms"),
    ("sim.jit_compile_ms", "ms"),
    ("harness.artifact_get_ms", "ms"),
    ("harness.artifact_hits", "count"),
    ("harness.artifact_misses", "count"),
    ("sim.golden_ms", "ms"),
    ("sim.golden_instrs", "count"),
    ("sim.checkpoints", "count"),
    ("sim.checkpoint_pages", "count"),
    ("sim.fault_run_us.p50", "us"),
    ("sim.fault_run_us.p90", "us"),
    ("sim.replay_minstr_per_s", "Minstr/s"),
    ("sim.faults", "count"),
    ("sim.outcome.unace", "count"),
    ("sim.outcome.sdc", "count"),
    ("sim.outcome.segv", "count"),
    ("sim.outcome.detected", "count"),
    ("sim.outcome.hang", "count"),
    ("harness.pool_efficiency", "ratio"),
    ("ace.trace_ms", "ms"),
    ("ace.plan_ms", "ms"),
    ("ace.assemble_ms", "ms"),
    ("ace.sites", "count"),
    ("ace.dead_sites", "count"),
    ("ace.classes", "count"),
    ("ace.injections", "count"),
    ("ace.pruning", "ratio"),
    ("store.cold_member_ms", "ms"),
    ("store.warm_member_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.warnings", "count"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.file_bytes", "bytes"),
    ("server.spawn_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.poll_ms", "ms"),
    ("server.result_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.http_requests", "count"),
    ("server.registry_bytes", "bytes"),
    ("server.store_hits", "count"),
    ("server.store_misses", "count"),
    ("timing.run_ms", "ms"),
    ("timing.host_ns_per_instr", "ns"),
    ("timing.cycles", "count"),
    ("timing.ipc", "ratio"),
    ("timing.l1_miss_ratio", "ratio"),
    ("self_ms.workloads", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.regalloc", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.harness", "ms"),
    ("self_ms.ace", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.server", "ms"),
    ("self_ms.timing", "ms"),
    ("self_ms.unattributed", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metrics that are the summed duration of every span of one name.
const SPAN_TOTALS: [(&str, &str); 13] = [
    ("workloads.build_ms", "workloads.build"),
    ("core.transform_ms", "core.transform"),
    ("regalloc.lower_ms", "regalloc.lower"),
    ("sim.decode_ms", "sim.decode"),
    ("sim.jit_compile_ms", "sim.jit_compile"),
    ("harness.artifact_get_ms", "harness.artifact_get"),
    ("sim.golden_ms", "sim.golden"),
    ("ace.trace_ms", "ace.trace"),
    ("ace.plan_ms", "ace.plan"),
    ("ace.assemble_ms", "ace.assemble"),
    ("store.get_ms", "store.get"),
    ("store.put_ms", "store.put"),
    ("store.flush_ms", "store.flush"),
];

const USAGE: &str = "usage: perfbench --workload campaign|recertify|server|timing \
                     [--seed N] [--seconds S] [--trace 0|1] [--emit-digests]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-digests" {
            args.emit = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| bad("a workload"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The scratch directory next to the executable, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = exe_dir()?.join(format!("perfbench-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe
        .parent()
        .map_or_else(|| PathBuf::from("."), |p| p.to_path_buf()))
}

/// The committed per-op result digests of `workload` at the default seed.
fn committed_digests(workload: &str) -> Vec<u64> {
    let text = match workload {
        "campaign" => include_str!("../digests/campaign.txt"),
        "recertify" => include_str!("../digests/recertify.txt"),
        "server" => include_str!("../digests/server.txt"),
        _ => include_str!("../digests/timing.txt"),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("digest files hold hex lines"))
        .collect()
}

/// The revision of the checkout, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .map_or_else(|| "unknown".to_string(), |r| r.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Prints the run envelope and the final result line.
fn finish(args: &Args, log: &OpLog, samples: usize, metrics: &[(&str, f64, &str)]) -> ExitCode {
    // `+ 0.0` turns the -0 of an empty float sum into 0.
    let metrics: Vec<_> = metrics
        .iter()
        .map(|&(n, v, u)| (n, if v.is_finite() { v + 0.0 } else { 0.0 }, u))
        .collect();
    for (name, value, unit) in &metrics {
        let n = match (name.starts_with("latency_p"), log.rounds.len()) {
            (false, _) => String::new(),
            (true, 0) => format!(" (n={samples})"),
            (true, rounds) => format!(" (n={samples}, median over {rounds} rounds)"),
        };
        println!("{name:<28} {value:>16.6} {unit}{n}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = if args.workload == "server" {
        CLIENTS
    } else {
        THREADS
    };
    println!(
        "{{\"envelope\": {{\"workload\": {}, \"git_rev\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"threads\": {threads}, \"engine\": \"jit\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"ops\": {}, \"rounds\": {}, \"latency_samples\": {samples}}}}}",
        json_str(args.workload),
        json_str(&git_rev()),
        json_str(&cpu_model()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        log.attempted,
        log.rounds.len(),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        log.failed == 0,
        log.attempted.max(1),
        log.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// `--trace 0`: the end-to-end metrics.
fn timed(args: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let (log, setup_s) = match args.workload {
        "campaign" => campaign::run(ctx),
        "recertify" => recertify::run(ctx),
        "server" => server::run(ctx)?,
        _ => timing::run(ctx),
    };
    let (throughput, p50_s, p90_s) = log.summary(&log.lat_s);
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", throughput, "1/s"),
        ("latency_p50_ms", p50_s * 1e3, "ms"),
        ("latency_p90_ms", p90_s * 1e3, "ms"),
        (
            "peak_rss_mb",
            log.rss_mb.unwrap_or_else(util::peak_rss_mb),
            "MiB",
        ),
    ];
    let (wall_throughput, wall_p50_s, wall_p90_s) = log.summary(&log.wall_lat_s);
    println!(
        "ops {} (failed {}) in {} rounds; by wall clock: throughput {wall_throughput:.6} 1/s, \
         p50 {:.6} ms, p90 {:.6} ms",
        log.attempted,
        log.failed,
        log.rounds.len(),
        wall_p50_s * 1e3,
        wall_p90_s * 1e3,
    );
    Ok(finish(args, &log, log.lat_s.len(), &metrics))
}

/// `--trace 1`: the per-layer metrics, self-time table and overhead.
fn traced(args: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let mut layers = Layers::new();
    let (mut untraced, traced) = match args.workload {
        "campaign" => campaign::traced(ctx, FIXED_OPS, &mut layers),
        "recertify" => recertify::traced(ctx, FIXED_OPS, &mut layers),
        "server" => server::traced(ctx, FIXED_OPS, &mut layers)?,
        _ => timing::traced(ctx, FIXED_OPS, &mut layers),
    };
    for (metric, span) in SPAN_TOTALS {
        layers
            .entry(metric)
            .or_insert_with(|| trace::total_ms(span));
    }

    // The traced ops must reproduce the untraced results exactly.
    let diverged: Vec<String> = (untraced.digests.iter().zip(&traced.digests).enumerate())
        .filter(|(_, (a, b))| **a != 0 && **b != 0 && a != b)
        .map(|(i, (a, b))| format!("op {i}: traced result {b:016x} != untraced {a:016x}"))
        .collect();
    for e in diverged {
        untraced.fail(e);
    }
    let by_name = trace::self_by_name();
    let op_ms: f64 = by_name.values().sum();
    println!(
        "self time per span over {} traced ops ({op_ms:.1} ms of op time):",
        traced.attempted
    );
    for (name, ms) in &by_name {
        let label = if *name == "op" { "unattributed" } else { name };
        println!(
            "  {label:<24} {ms:>12.3} ms  {:>6.2}%",
            100.0 * ms / op_ms.max(1e-9)
        );
    }
    for layer in trace::LAYERS {
        let ms = by_name
            .iter()
            .filter(|(n, _)| trace::layer_of(n) == layer)
            .map(|(_, ms)| ms)
            .sum();
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
            .expect("every layer has a self-time metric")
            .0;
        layers.insert(key, ms);
    }
    let (plain_ms, traced_ms) = (
        util::mean_ms(&untraced.wall_lat_s),
        util::mean_ms(&traced.wall_lat_s),
    );
    layers.insert("trace.untraced_op_ms", plain_ms);
    layers.insert("trace.traced_op_ms", traced_ms);
    layers.insert(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms.max(1e-9),
    );

    let spans_file = exe_dir()
        .map_err(|e| e.to_string())?
        .join(format!("perfbench-spans-{}.jsonl", args.workload));
    match trace::write_spans(&spans_file) {
        Ok(n) => println!("{n} spans written to {}", spans_file.display()),
        Err(e) => eprintln!("could not write {}: {e}", spans_file.display()),
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        metrics.push((name, layers.remove(name).unwrap_or(0.0), unit));
    }
    assert!(
        layers.is_empty(),
        "unlisted per-layer metrics: {:?}",
        layers.keys()
    );
    let samples = traced.lat_s.len();
    untraced.merge(traced);
    Ok(finish(args, &untraced, samples, &metrics))
}

fn emit(args: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let log = match args.workload {
        "campaign" => campaign::emit(ctx, FIXED_OPS),
        "recertify" => recertify::emit(ctx, FIXED_OPS),
        "server" => server::emit(ctx, FIXED_OPS)?,
        _ => timing::emit(ctx, FIXED_OPS),
    };
    for d in log.digests.iter().take(FIXED_OPS) {
        println!("{d:016x}");
    }
    Ok(if log.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tmp: scratch.0.clone(),
        expected: if args.seed == DEFAULT_SEED && !args.emit {
            committed_digests(args.workload)
        } else {
            Vec::new()
        },
    };
    let result = if args.emit {
        emit(&args, &ctx)
    } else if args.trace {
        traced(&args, &ctx)
    } else {
        timed(&args, &ctx)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

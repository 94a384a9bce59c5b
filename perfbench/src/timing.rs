//! `timing`: Figure-9 runs through `measure_perf_in`, single-threaded.
//!
//! Every (kernel, Figure-8 technique) pair is one program, its kernel
//! scaled up (`SCALE`) so the timing run takes ~35 ms whatever the pair;
//! set-up runs transform and lower on all 80 programs. Ops come in rounds
//! of 80, every program once in seeded order, and a run measures whole
//! rounds, so every run's mix is the same.

use crate::trace::span;
use crate::util::{self, Ctx, Done, Fnv, Kernel, OpLog, Stopwatch, KERNELS};
use crate::Layers;
use sor_core::{Technique, TransformConfig};
use sor_harness::{measure_perf_in, ArtifactStore, PerfConfig};
use sor_regalloc::LowerConfig;
use sor_sim::{Machine, MachineConfig, RunStatus};

/// Multiplier of each kernel's registry-size dynamic length, by kernel
/// (Figure 8 order) and technique (`Technique::FIGURE8` order), so each
/// timing run takes ~35 ms (measured 0.4-18 ms at registry size).
const SCALE: [[u64; 8]; KERNELS] = [
    [20, 18, 16, 12, 4, 5, 15, 3],    // art
    [5, 4, 3, 4, 4, 3, 5, 2],         // mcf
    [18, 11, 8, 9, 5, 5, 12, 2],      // equake
    [20, 17, 13, 13, 5, 4, 13, 2],    // parser
    [28, 24, 13, 13, 8, 8, 22, 3],    // vortex
    [15, 10, 7, 4, 5, 5, 12, 2],      // twolf
    [39, 35, 27, 22, 6, 6, 19, 4],    // adpcmdec
    [26, 29, 36, 34, 9, 9, 25, 5],    // adpcmenc
    [25, 19, 20, 18, 5, 5, 21, 2],    // mpeg2dec
    [60, 57, 32, 34, 18, 19, 97, 11], // mpeg2enc
];

const TECHNIQUES: usize = Technique::FIGURE8.len();

/// Ops per round: every program once.
const ROUND: usize = KERNELS * TECHNIQUES;

/// Op `i`: the program index (`kernel * 8 + technique`) of the seeded op
/// list.
fn run_of(seed: u64, i: usize) -> usize {
    let mut order: Vec<usize> = (0..ROUND).collect();
    util::shuffle(
        &mut util::rng(seed, 0x7100_0000 + (i / ROUND) as u64),
        &mut order,
    );
    order[i % ROUND]
}

fn technique(program: usize) -> Technique {
    Technique::FIGURE8[program % TECHNIQUES]
}

/// The 80 programs' kernels (indexed like `run_of`) and the prepared
/// store.
pub struct Prepared {
    kernels: Vec<Kernel>,
    store: ArtifactStore,
}

fn setup(seed: u64, traced: bool) -> Prepared {
    let kernels: Vec<Kernel> = (0..ROUND)
        .map(|p| {
            let (k, t) = (p / TECHNIQUES, p % TECHNIQUES);
            util::kernel(
                k,
                SCALE[k][t],
                util::rng(seed, 0x7EED_0000 + k as u64).next_u64(),
            )
        })
        .collect();
    let store = ArtifactStore::new();
    for (p, w) in kernels.iter().enumerate() {
        util::prepare(&store, w.as_ref(), technique(p), false, traced);
    }
    Prepared { kernels, store }
}

fn digest(cycles: u64, instrs: u64, miss_ratio: f64) -> u64 {
    Fnv::default()
        .u64(cycles)
        .u64(instrs)
        .u64(miss_ratio.to_bits())
        .0
}

fn op(p: &Prepared, seed: u64, i: usize) -> Result<Done, String> {
    let prog = run_of(seed, i);
    let cfg = PerfConfig::default();
    let t = Stopwatch::start();
    let r = measure_perf_in(&p.store, p.kernels[prog].as_ref(), technique(prog), &cfg);
    let (secs, wall_s) = t.stop();
    Ok(Done {
        secs,
        wall_s,
        work: r.dyn_instrs as f64,
        digest: digest(r.cycles, r.dyn_instrs, r.miss_ratio),
    })
}

/// Every op's output equals its kernel's native reference; checked once
/// per distinct program used (a fault-free run is a pure function of the
/// program).
fn check_outputs(p: &Prepared, seed: u64, ops: usize, log: &mut OpLog) {
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..ops {
        let prog = run_of(seed, i);
        if !seen.insert(prog) {
            continue;
        }
        let (w, t) = (p.kernels[prog].as_ref(), technique(prog));
        let art = p
            .store
            .get(w, t, &TransformConfig::default(), &LowerConfig::default());
        let r = Machine::new(&art.program, &MachineConfig::default()).run(None);
        if r.status != RunStatus::Completed || r.output != w.reference_output() {
            for j in (0..ops).filter(|&j| run_of(seed, j) == prog) {
                log.fail(format!(
                    "op {j}: output of {}/{t} differs from the native reference",
                    w.name()
                ));
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> (OpLog, f64) {
    let (p, first_setup_s) = util::timed_setup(|| setup(ctx.seed, false));
    let again = || util::timed_setup(|| setup(ctx.seed, false)).1;
    let (mut log, setup_s) =
        util::timed_ops(ctx, ROUND, first_setup_s, again, |i| op(&p, ctx.seed, i));
    let ops = log.attempted as usize;
    check_outputs(&p, ctx.seed, ops, &mut log);
    (log, setup_s)
}

pub fn emit(ctx: &Ctx, n: usize) -> OpLog {
    let p = setup(ctx.seed, false);
    util::fixed_ops(ctx, n, |i| op(&p, ctx.seed, i))
}

#[derive(Default)]
struct TimingStats {
    cycles: u64,
    instrs: u64,
    hits: u64,
    misses: u64,
}

/// The traced op: `measure_perf_in`'s two steps, each in a span.
fn traced_op(
    p: &Prepared,
    references: &[Vec<u64>],
    seed: u64,
    i: usize,
    stats: &mut TimingStats,
) -> Result<Done, String> {
    let prog = run_of(seed, i);
    let (w, t) = (p.kernels[prog].as_ref(), technique(prog));
    let cfg = PerfConfig::default();
    let (r, (secs, wall_s)) = crate::trace::op(i as u64, || {
        let art = span("harness.artifact_get", || {
            p.store.get(w, t, &cfg.transform, &LowerConfig::default())
        });
        let mcfg = MachineConfig {
            timing: Some(cfg.timing.clone()),
            ..MachineConfig::default()
        };
        span("timing.run", || Machine::new(&art.program, &mcfg).run(None))
    });
    if r.status != RunStatus::Completed || r.output != references[prog] {
        return Err(format!(
            "output of {}/{t} differs from the native reference",
            w.name()
        ));
    }
    let cycles = r.cycles.ok_or("timing model reported no cycles")?;
    let (hits, misses) = (r.cache_hits.unwrap_or(0), r.cache_misses.unwrap_or(0));
    stats.cycles += cycles;
    stats.instrs += r.dyn_instrs;
    stats.hits += hits;
    stats.misses += misses;
    let miss_ratio = misses as f64 / (hits + misses).max(1) as f64;
    Ok(Done {
        secs,
        wall_s,
        work: r.dyn_instrs as f64,
        digest: digest(cycles, r.dyn_instrs, miss_ratio),
    })
}

pub fn traced(ctx: &Ctx, n: usize, layers: &mut Layers) -> (OpLog, OpLog) {
    let p = setup(ctx.seed, true);
    let untraced = util::fixed_ops(ctx, n, |i| op(&p, ctx.seed, i));
    let references: Vec<Vec<u64>> = p.kernels.iter().map(|w| w.reference_output()).collect();
    let mut stats = TimingStats::default();
    let traced = util::fixed_ops(ctx, n, |i| {
        traced_op(&p, &references, ctx.seed, i, &mut stats)
    });
    let run_ms = crate::trace::total_ms("timing.run");
    layers.insert("timing.run_ms", run_ms);
    layers.insert(
        "timing.host_ns_per_instr",
        run_ms * 1e6 / stats.instrs.max(1) as f64,
    );
    layers.insert("timing.cycles", stats.cycles as f64);
    layers.insert(
        "timing.ipc",
        stats.instrs as f64 / stats.cycles.max(1) as f64,
    );
    layers.insert(
        "timing.l1_miss_ratio",
        stats.misses as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    layers.insert("harness.artifact_hits", p.store.hits() as f64);
    layers.insert("harness.artifact_misses", p.store.misses() as f64);
    (untraced, traced)
}

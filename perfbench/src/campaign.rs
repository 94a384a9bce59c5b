//! `campaign`: Figure-8 cells through `run_campaign_in`.
//!
//! Every cell is (kernel at registry size, technique, fault model) on one
//! shared `ArtifactStore` with `threads: 1` and the jit engine. Cells come
//! in rounds of 100: every (kernel, `Technique::ALL`) pair once, in seeded
//! order. Within a round each kernel runs six of its techniques under
//! `seu-reg` and one each under `pc-corrupt`, `mem-bit`, `multi-bit` and
//! `transient-alu`, assigned by seed. The number of injections per cell
//! depends on (kernel, technique), sized so every cell costs about the
//! same. Whole rounds keep every run's mix the same whatever the seed, so
//! throughput and latency percentiles compare across seeds.

use crate::trace::span;
use crate::util::{self, Ctx, Done, Fnv, Kernel, OpLog, ReplayStats, Stopwatch, KERNELS, THREADS};
use crate::Layers;
use sor_core::{Technique, TransformConfig};
use sor_harness::{run_campaign_in, ArtifactStore, CampaignConfig, FaultModel, SampleCtx};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{ExecEngine, MachineConfig, Runner};
use sor_stats::OutcomeCounts;
use std::time::Instant;

/// Injections per cell by kernel (Figure 8 order) and technique
/// (`Technique::ALL` order): ~30 ms of single-threaded `seu-reg` fault runs
/// per cell, measured at 8-1330 us per fault depending on the pair.
const RUNS: [[u64; 10]; KERNELS] = [
    [420, 410, 360, 520, 140, 180, 370, 280, 340, 60], // art
    [140, 140, 80, 80, 70, 70, 80, 70, 80, 20],        // mcf
    [500, 400, 180, 190, 160, 150, 340, 260, 280, 40], // equake
    [400, 320, 260, 280, 120, 100, 200, 160, 200, 40], // parser
    [740, 660, 360, 360, 220, 230, 440, 360, 460, 80], // vortex
    [250, 220, 80, 80, 100, 110, 180, 240, 140, 20],   // twolf
    [920, 560, 500, 520, 250, 240, 620, 500, 600, 100], // adpcmdec
    [1140, 1180, 770, 750, 160, 180, 360, 700, 940, 120], // adpcmenc
    [820, 680, 580, 810, 160, 140, 180, 320, 660, 40], // mpeg2dec
    [3750, 3940, 720, 1600, 450, 320, 920, 2750, 3030, 140], // mpeg2enc
];

/// Cells per round: every (kernel, technique) pair.
const ROUND: usize = KERNELS * Technique::ALL.len();

const NON_DEFAULT: [FaultModel; 4] = [
    FaultModel::PcCorrupt,
    FaultModel::MemBit,
    FaultModel::MultiBitUpset,
    FaultModel::TransientAlu,
];

#[derive(Debug, Clone, Copy)]
struct Cell {
    kernel: usize,
    /// Index into `Technique::ALL`.
    technique: usize,
    model: FaultModel,
    fault_seed: u64,
}

impl Cell {
    fn technique(&self) -> Technique {
        Technique::ALL[self.technique]
    }
}

/// Cell `i` of the seeded op list.
fn cell(seed: u64, i: usize) -> Cell {
    let round = (i / ROUND) as u64;
    let mut order: Vec<usize> = (0..ROUND).collect();
    util::shuffle(&mut util::rng(seed, 0xCA00_0000 + round), &mut order);
    let pair = order[i % ROUND];
    let (kernel, technique) = (pair / Technique::ALL.len(), pair % Technique::ALL.len());
    // This kernel's techniques in seeded order; the first four take the
    // non-default models.
    let mut techniques: Vec<usize> = (0..Technique::ALL.len()).collect();
    let salt = 0xC0DE_0000_0000 + round * KERNELS as u64 + kernel as u64;
    util::shuffle(&mut util::rng(seed, salt), &mut techniques);
    let model = techniques[..NON_DEFAULT.len()]
        .iter()
        .position(|&t| t == technique)
        .map_or(FaultModel::SeuReg, |m| NON_DEFAULT[m]);
    Cell {
        kernel,
        technique,
        model,
        fault_seed: util::rng(seed, 0xCAFE_0000_0000 + i as u64).next_u64(),
    }
}

/// Everything set-up leaves behind: the kernels and the prepared store.
pub struct Prepared {
    kernels: Vec<Kernel>,
    store: ArtifactStore,
}

/// Prepares and JIT-compiles all 100 (kernel, technique) programs.
fn setup(seed: u64, traced: bool) -> Prepared {
    let kernels: Vec<Kernel> = (0..KERNELS)
        .map(|k| util::kernel(k, 1, util::rng(seed, 0x5EED_0000 + k as u64).next_u64()))
        .collect();
    let store = ArtifactStore::new();
    for w in &kernels {
        for t in Technique::ALL {
            util::prepare(&store, w.as_ref(), t, true, traced);
        }
    }
    Prepared { kernels, store }
}

fn config(c: &Cell) -> CampaignConfig {
    CampaignConfig {
        runs: RUNS[c.kernel][c.technique],
        seed: c.fault_seed,
        threads: THREADS,
        engine: ExecEngine::Jit,
        fault_model: c.model,
        ..CampaignConfig::default()
    }
}

fn digest(counts: &OutcomeCounts, golden_instrs: u64) -> u64 {
    Fnv::default().counts(counts).u64(golden_instrs).0
}

/// The untraced op: one cell through the public campaign API.
fn op(p: &Prepared, seed: u64, i: usize) -> Result<Done, String> {
    let c = cell(seed, i);
    let cfg = config(&c);
    let t = Stopwatch::start();
    let r = run_campaign_in(&p.store, p.kernels[c.kernel].as_ref(), c.technique(), &cfg);
    let (secs, wall_s) = t.stop();
    if r.counts.total() != cfg.runs {
        return Err(format!(
            "{} of {} injections classified",
            r.counts.total(),
            cfg.runs
        ));
    }
    Ok(Done {
        secs,
        wall_s,
        work: cfg.runs as f64,
        digest: digest(&r.counts, r.golden_instrs),
    })
}

/// Every op's golden output equals its kernel's native reference. The
/// golden run is a pure function of the program, so one check per
/// distinct program used covers every op that used it.
fn check_goldens(p: &Prepared, seed: u64, ops: usize, log: &mut OpLog) {
    let mut seen = std::collections::BTreeSet::new();
    let references: Vec<Vec<u64>> = p.kernels.iter().map(|w| w.reference_output()).collect();
    for i in 0..ops {
        let c = cell(seed, i);
        if !seen.insert((c.kernel, c.technique)) {
            continue;
        }
        let w = p.kernels[c.kernel].as_ref();
        let art = p.store.get(
            w,
            c.technique(),
            &TransformConfig::default(),
            &LowerConfig::default(),
        );
        let runner = Runner::with_images(
            &art.program,
            &machine_config(),
            Some(art.decoded.clone()),
            art.jit_for(ExecEngine::Jit),
        );
        if runner.golden().output != references[c.kernel] {
            let users = (0..ops).filter(|&j| {
                let o = cell(seed, j);
                (o.kernel, o.technique) == (c.kernel, c.technique)
            });
            for j in users {
                log.fail(format!(
                    "op {j}: golden output of {}/{} differs from the native reference",
                    w.name(),
                    c.technique()
                ));
            }
        }
    }
}

fn machine_config() -> MachineConfig {
    MachineConfig {
        engine: ExecEngine::Jit,
        ..MachineConfig::default()
    }
}

/// The timed run.
pub fn run(ctx: &Ctx) -> (OpLog, f64) {
    let (p, first_setup_s) = util::timed_setup(|| setup(ctx.seed, false));
    let again = || util::timed_setup(|| setup(ctx.seed, false)).1;
    let (mut log, setup_s) =
        util::timed_ops(ctx, ROUND, first_setup_s, again, |i| op(&p, ctx.seed, i));
    let ops = log.attempted as usize;
    check_goldens(&p, ctx.seed, ops, &mut log);
    (log, setup_s)
}

/// Untraced ops `0..n`, for committing result digests.
pub fn emit(ctx: &Ctx, n: usize) -> OpLog {
    let p = setup(ctx.seed, false);
    util::fixed_ops(ctx, n, |i| op(&p, ctx.seed, i))
}

/// The traced op: the same cell re-executed single-threaded through the
/// layers' public functions, with a span around each call.
fn traced_op(
    p: &Prepared,
    references: &[Vec<u64>],
    seed: u64,
    i: usize,
    stats: &mut ReplayStats,
) -> Result<Done, String> {
    let c = cell(seed, i);
    let cfg = config(&c);
    let w = p.kernels[c.kernel].as_ref();
    let ((counts, golden_instrs, golden_ok), (secs, wall_s)) = crate::trace::op(i as u64, || {
        let art = span("harness.artifact_get", || {
            p.store
                .get(w, c.technique(), &cfg.transform, &LowerConfig::default())
        });
        let jit = span("sim.jit_compile", || art.jit_for(ExecEngine::Jit));
        let runner = span("sim.golden", || {
            Runner::with_images(
                &art.program,
                &machine_config(),
                Some(art.decoded.clone()),
                jit,
            )
        });
        let golden = runner.golden();
        stats.golden(&runner);
        let golden_len = golden.dyn_instrs;
        // The campaign's per-cell fault seed derivation.
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ (w.name().len() as u64) ^ ((c.technique().letter() as u64) << 32),
        );
        let sample_ctx = SampleCtx::for_program(&art.program, golden_len);
        let faults: Vec<_> = span("harness.draw_faults", || {
            (0..cfg.runs)
                .map(|_| c.model.sample(&mut rng, &sample_ctx))
                .collect()
        });
        let counts = span("sim.replay", || {
            let mut replayer = runner.replayer();
            let mut counts = OutcomeCounts::default();
            for &fault in &faults {
                let t = Instant::now();
                let (outcome, recoveries, instrs) = match fault.as_spec() {
                    Some(spec) if c.model.is_default() => {
                        let (rec, res) = replayer.run_fault_record(spec);
                        (
                            rec.outcome,
                            res.probes.vote_repairs + res.probes.trump_recovers,
                            res.dyn_instrs,
                        )
                    }
                    _ => {
                        let (rec, res) = replayer.run_fault_record_gen(fault);
                        (
                            rec.outcome,
                            res.probes.vote_repairs + res.probes.trump_recovers,
                            res.dyn_instrs,
                        )
                    }
                };
                stats.note(&runner, fault.at_instr, t.elapsed().as_secs_f64(), instrs);
                counts.record(outcome, recoveries);
            }
            counts
        });
        (counts, golden_len, golden.output == references[c.kernel])
    });
    if !golden_ok {
        return Err(format!(
            "golden output of {}/{} differs from the native reference",
            w.name(),
            c.technique()
        ));
    }
    if counts.total() != cfg.runs {
        return Err(format!(
            "{} of {} injections classified",
            counts.total(),
            cfg.runs
        ));
    }
    stats.counts += counts;
    Ok(Done {
        secs,
        wall_s,
        work: cfg.runs as f64,
        digest: digest(&counts, golden_instrs),
    })
}

/// The traced run over ops `0..n`: the untraced ops first (for the
/// overhead and pool-efficiency baselines), then the traced ones.
pub fn traced(ctx: &Ctx, n: usize, layers: &mut Layers) -> (OpLog, OpLog) {
    let p = setup(ctx.seed, true);
    let untraced = util::fixed_ops(ctx, n, |i| op(&p, ctx.seed, i));
    let references: Vec<Vec<u64>> = p.kernels.iter().map(|w| w.reference_output()).collect();
    let mut stats = ReplayStats::default();
    let traced = util::fixed_ops(ctx, n, |i| {
        traced_op(&p, &references, ctx.seed, i, &mut stats)
    });

    let serial_replay_s = crate::trace::total_ms("sim.replay") / 1e3;
    layers.insert(
        "harness.pool_efficiency",
        serial_replay_s / (THREADS as f64 * untraced.wall_s),
    );
    layers.insert("harness.artifact_hits", p.store.hits() as f64);
    layers.insert("harness.artifact_misses", p.store.misses() as f64);
    stats.into_layers(layers);
    (untraced, traced)
}

//! `recertify`: the incremental-certification edit loop (DESIGN.md §14).
//!
//! Set-up opens a fresh on-disk `ResultStore` and cold-certifies a suite
//! of small kernel variants x techniques through
//! `run_certified_campaign_stored` (`threads: 1`, jit engine). Each op
//! "edits" one member, swapping in a variant with a new workload seed (a
//! new program digest, so every section misses), then re-certifies the
//! whole suite: one cold member and the rest served entirely from the
//! store, then flushes the store. Rounds of `MEMBERS.len()` ops edit each
//! member once, in seeded order. Member sizes are chosen so every cold
//! certification costs about the same, which keeps each op the
//! same shape.

use crate::trace::span;
use crate::util::{self, Ctx, Done, Fnv, OpLog, ReplayStats, Stopwatch, THREADS};
use crate::Layers;
use sor_ace::{
    CertPlan, CertSections, CertifiedCoverage, ClassOutcome, DefUseTrace, SectionOutcomes,
};
use sor_core::Technique;
use sor_harness::{
    certified_json, run_certified_campaign_stored, ArtifactStore, CertifyConfig, ResultStore,
};
use sor_regalloc::LowerConfig;
use sor_sim::{ExecEngine, FaultSpec, MachineConfig, Runner};
use sor_stats::OutcomeCounts;
use sor_workloads::{AdpcmDec, AdpcmEnc, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The suite: (kernel, samples, technique). Seven members, so the op-time
/// median and p90 fall inside one member's cluster rather than on the
/// boundary between two.
const MEMBERS: [(&str, u64, Technique); 7] = [
    ("adpcmdec", 11, Technique::Noft),
    ("adpcmdec", 8, Technique::Trump),
    ("adpcmdec", 7, Technique::Swift),
    ("adpcmdec", 4, Technique::SwiftR),
    ("adpcmenc", 11, Technique::Noft),
    ("adpcmenc", 10, Technique::Trump),
    ("adpcmenc", 7, Technique::Swift),
];

fn variant(member: usize, wseed: u64) -> Box<dyn Workload> {
    match MEMBERS[member] {
        ("adpcmdec", samples, _) => Box::new(AdpcmDec {
            samples,
            seed: wseed,
        }),
        (_, samples, _) => Box::new(AdpcmEnc {
            samples,
            seed: wseed,
        }),
    }
}

fn technique(member: usize) -> Technique {
    MEMBERS[member].2
}

fn config() -> CertifyConfig {
    CertifyConfig {
        threads: THREADS,
        engine: ExecEngine::Jit,
        ..CertifyConfig::default()
    }
}

/// Op `i`: which member it edits and the edited variant's workload seed.
fn edit(seed: u64, i: usize) -> (usize, u64) {
    let k = MEMBERS.len();
    let mut order: Vec<usize> = (0..k).collect();
    util::shuffle(
        &mut util::rng(seed, 0xED00_0000 + (i / k) as u64),
        &mut order,
    );
    (
        order[i % k],
        util::rng(seed, 0xED17_0000_0000 + i as u64).next_u64(),
    )
}

/// The suite's state: stores, current variants and each current
/// variant's cold-certified coverage.
pub struct Suite {
    dir: PathBuf,
    artifacts: ArtifactStore,
    results: ResultStore,
    wseeds: Vec<u64>,
    cold: Vec<CertifiedCoverage>,
}

fn setup(seed: u64, dir: &Path, traced: bool) -> Suite {
    let _ = std::fs::remove_dir_all(dir);
    let artifacts = ArtifactStore::new();
    let results = ResultStore::open(dir);
    let wseeds: Vec<u64> = (0..MEMBERS.len())
        .map(|m| util::rng(seed, 0xBA5E_0000 + m as u64).next_u64())
        .collect();
    let cold = (0..MEMBERS.len())
        .map(|m| {
            let w = variant(m, wseeds[m]);
            util::prepare(&artifacts, w.as_ref(), technique(m), true, traced);
            run_certified_campaign_stored(&artifacts, &results, w.as_ref(), technique(m), &config())
                .coverage
        })
        .collect();
    results.flush();
    Suite {
        dir: dir.to_path_buf(),
        artifacts,
        results,
        wseeds,
        cold,
    }
}

/// Checks one member's re-certification and folds it into the op digest.
fn check_member(
    suite: &mut Suite,
    m: usize,
    edited: bool,
    coverage: CertifiedCoverage,
    hit: (usize, usize),
    digest: Fnv,
) -> Result<Fnv, String> {
    let (sections_hit, sections_total) = hit;
    if coverage.counts.total() != coverage.total_sites {
        return Err(format!(
            "member {m}: {} outcomes for {} sites",
            coverage.counts.total(),
            coverage.total_sites
        ));
    }
    if edited {
        if sections_hit != 0 {
            return Err(format!(
                "edited member {m} hit {sections_hit} stale sections"
            ));
        }
    } else if sections_hit != sections_total || coverage != suite.cold[m] {
        return Err(format!(
            "warm member {m}: {sections_hit}/{sections_total} sections hit, coverage {} its cold certification",
            if coverage == suite.cold[m] { "equal to" } else { "differs from" }
        ));
    }
    let digest = digest.bytes(certified_json(&coverage).as_bytes());
    suite.cold[m] = coverage;
    Ok(digest)
}

/// The untraced op: edit one member, re-certify the suite, flush.
fn op(suite: &mut Suite, seed: u64, i: usize) -> Result<Done, String> {
    let (edited, wseed) = edit(seed, i);
    suite.wseeds[edited] = wseed;
    let cfg = config();
    let t = Stopwatch::start();
    let runs: Vec<_> = (0..MEMBERS.len())
        .map(|m| {
            let w = variant(m, suite.wseeds[m]);
            run_certified_campaign_stored(
                &suite.artifacts,
                &suite.results,
                w.as_ref(),
                technique(m),
                &cfg,
            )
        })
        .collect();
    suite.results.flush();
    let (secs, wall_s) = t.stop();
    let mut digest = Fnv::default();
    let mut sites = 0;
    for (m, inc) in runs.into_iter().enumerate() {
        sites += inc.coverage.total_sites;
        let hit = (inc.sections_hit, inc.sections_total);
        digest = check_member(suite, m, m == edited, inc.coverage, hit, digest)?;
    }
    Ok(Done {
        secs,
        wall_s,
        work: sites as f64,
        digest: digest.0,
    })
}

/// The timed run.
pub fn run(ctx: &Ctx) -> (OpLog, f64) {
    let (mut suite, first_setup_s) =
        util::timed_setup(|| setup(ctx.seed, &ctx.tmp.join("recertify"), false));
    let again = || {
        let spare = ctx.tmp.join("recertify-spare");
        let setup_s = util::timed_setup(|| setup(ctx.seed, &spare, false)).1;
        let _ = std::fs::remove_dir_all(&spare);
        setup_s
    };
    util::timed_ops(ctx, MEMBERS.len(), first_setup_s, again, |i| {
        op(&mut suite, ctx.seed, i)
    })
}

/// Untraced ops `0..n`, for committing result digests.
pub fn emit(ctx: &Ctx, n: usize) -> OpLog {
    let mut suite = setup(ctx.seed, &ctx.tmp.join("recertify-emit"), false);
    util::fixed_ops(ctx, n, |i| op(&mut suite, ctx.seed, i))
}

/// Counts the traced ops collect.
#[derive(Default)]
struct CertStats {
    replay: ReplayStats,
    cold_member_s: Vec<f64>,
    warm_member_s: Vec<f64>,
    sites: u64,
    dead_sites: u64,
    classes: u64,
    injections: u64,
}

/// One member certified single-threaded through the layers' public
/// functions — the steps of `certify_resumable`, each in a span.
/// Returns the coverage and (sections hit, sections total).
fn traced_member(
    suite: &Suite,
    m: usize,
    stats: &mut CertStats,
) -> (CertifiedCoverage, (usize, usize)) {
    let w = variant(m, suite.wseeds[m]);
    let t = technique(m);
    let cfg = config();
    let art = span("harness.artifact_get", || {
        suite
            .artifacts
            .get(w.as_ref(), t, &cfg.transform, &LowerConfig::default())
    });
    let jit = span("sim.jit_compile", || art.jit_for(ExecEngine::Jit));
    let mcfg = MachineConfig {
        engine: ExecEngine::Jit,
        ..MachineConfig::default()
    };
    let runner = span("sim.golden", || {
        Runner::with_images(&art.program, &mcfg, Some(art.decoded.clone()), jit)
    });
    stats.replay.golden(&runner);
    let trace = span("ace.trace", || DefUseTrace::record(&runner));
    let (plan, sections) = span("ace.plan", || {
        let plan = CertPlan::build(&trace);
        let sections = CertSections::partition(&art.program, &trace, &plan, cfg.sections);
        (plan, sections)
    });
    stats.sites += plan.total_sites();
    stats.dead_sites += plan.dead_sites();
    stats.classes += plan.classes.len() as u64;
    stats.injections += plan.injections();
    let mut resolved: Vec<Option<SectionOutcomes>> = span("store.get", || {
        sections
            .sections
            .iter()
            .map(|sec| {
                suite
                    .results
                    .get_cert(&sec.key, |cached| {
                        cached.classes.len() == sec.classes.len()
                            && sec.classes.iter().zip(&cached.classes).all(|(&idx, out)| {
                                let class = &plan.classes[idx];
                                class.reg == out.reg && class.hi == out.rep
                            })
                    })
                    .map(|s| (*s).clone())
            })
            .collect()
    });
    let hits = resolved.iter().filter(|s| s.is_some()).count();
    for (si, slot) in resolved.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let sec = &sections.sections[si];
        let classes: Vec<ClassOutcome> = span("sim.replay", || {
            let mut replayer = runner.replayer();
            sec.classes
                .iter()
                .map(|&idx| {
                    let range = plan.classes[idx];
                    let mut counts = OutcomeCounts::default();
                    for bit in 0..64 {
                        let ft = Instant::now();
                        let (rec, res) =
                            replayer.run_fault_record(FaultSpec::new(range.hi, range.reg, bit));
                        stats.replay.note(
                            &runner,
                            range.hi,
                            ft.elapsed().as_secs_f64(),
                            res.dyn_instrs,
                        );
                        stats.replay.counts.record(
                            rec.outcome,
                            res.probes.vote_repairs + res.probes.trump_recovers,
                        );
                        counts.record(
                            rec.outcome,
                            res.probes.vote_repairs + res.probes.trump_recovers,
                        );
                    }
                    ClassOutcome {
                        reg: range.reg,
                        rep: range.hi,
                        counts,
                    }
                })
                .collect()
        });
        let stored = span("store.put", || {
            suite.results.put_cert(sec.key, SectionOutcomes { classes })
        });
        *slot = Some((*stored).clone());
    }
    let coverage = span("ace.assemble", || {
        let resolved: Vec<SectionOutcomes> = resolved
            .into_iter()
            .map(|s| s.expect("every section cached or freshly executed"))
            .collect();
        let class_results = sections
            .scatter(&plan, &resolved)
            .expect("validated sections always scatter");
        let golden = runner.golden();
        CertifiedCoverage::assemble(
            w.name(),
            &t.to_string(),
            &art.program,
            &trace,
            &plan,
            &class_results,
            golden.probes.vote_repairs + golden.probes.trump_recovers,
        )
    });
    (coverage, (hits, sections.sections.len()))
}

fn traced_op(
    suite: &mut Suite,
    seed: u64,
    i: usize,
    stats: &mut CertStats,
) -> Result<Done, String> {
    let (edited, wseed) = edit(seed, i);
    suite.wseeds[edited] = wseed;
    let (members, (secs, wall_s)) = crate::trace::op(i as u64, || {
        let members: Vec<_> = (0..MEMBERS.len())
            .map(|m| {
                let t = Instant::now();
                let out = span("harness.certify_member", || traced_member(suite, m, stats));
                let member_s = t.elapsed().as_secs_f64();
                if m == edited {
                    stats.cold_member_s.push(member_s);
                } else {
                    stats.warm_member_s.push(member_s);
                }
                out
            })
            .collect();
        span("store.flush", || suite.results.flush());
        members
    });
    let mut digest = Fnv::default();
    let mut sites = 0;
    for (m, (coverage, hit)) in members.into_iter().enumerate() {
        sites += coverage.total_sites;
        digest = check_member(suite, m, m == edited, coverage, hit, digest)?;
    }
    Ok(Done {
        secs,
        wall_s,
        work: sites as f64,
        digest: digest.0,
    })
}

/// The traced run over ops `0..n`: untraced on one suite, then traced on
/// a second suite set up the same way.
pub fn traced(ctx: &Ctx, n: usize, layers: &mut Layers) -> (OpLog, OpLog) {
    let mut plain = setup(ctx.seed, &ctx.tmp.join("recertify-untraced"), false);
    let untraced = util::fixed_ops(ctx, n, |i| op(&mut plain, ctx.seed, i));
    drop(plain);

    let mut suite = setup(ctx.seed, &ctx.tmp.join("recertify-traced"), true);
    let (h0, m0, w0) = (
        suite.results.hits(),
        suite.results.misses(),
        suite.results.warnings(),
    );
    let (a0, am0) = (suite.artifacts.hits(), suite.artifacts.misses());
    let mut stats = CertStats::default();
    let traced = util::fixed_ops(ctx, n, |i| traced_op(&mut suite, ctx.seed, i, &mut stats));

    layers.insert("store.hits", (suite.results.hits() - h0) as f64);
    layers.insert("store.misses", (suite.results.misses() - m0) as f64);
    layers.insert("store.warnings", (suite.results.warnings() - w0) as f64);
    layers.insert(
        "harness.artifact_hits",
        (suite.artifacts.hits() - a0) as f64,
    );
    layers.insert(
        "harness.artifact_misses",
        (suite.artifacts.misses() - am0) as f64,
    );
    layers.insert("store.cold_member_ms", util::mean_ms(&stats.cold_member_s));
    layers.insert("store.warm_member_ms", util::mean_ms(&stats.warm_member_s));
    let file = suite.dir.join("sections.bin");
    let dir = suite.dir.clone();
    drop(suite);
    let t = Instant::now();
    let reopened = ResultStore::open(&dir);
    layers.insert("store.open_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(reopened);
    layers.insert(
        "store.file_bytes",
        std::fs::metadata(&file).map_or(0, |m| m.len()) as f64,
    );
    layers.insert("ace.sites", stats.sites as f64);
    layers.insert("ace.dead_sites", stats.dead_sites as f64);
    layers.insert("ace.classes", stats.classes as f64);
    layers.insert("ace.injections", stats.injections as f64);
    layers.insert(
        "ace.pruning",
        1.0 - stats.injections as f64 / stats.sites.max(1) as f64,
    );
    stats.replay.into_layers(layers);
    (untraced, traced)
}

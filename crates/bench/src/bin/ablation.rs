//! Design-choice ablations (DESIGN.md §7):
//!
//! 1. **check-placement density** — SWIFT-R with the paper's full policy vs
//!    addresses-only checks: how much reliability do branch/store-value
//!    checks buy and what do they cost?
//! 2. **issue width** — how the normalized SWIFT-R/TRUMP overheads react to
//!    2/4/5/8-wide machines (the paper's "unused ILP resources" argument
//!    made quantitative).
//! 3. **SWIFT-R/MASK** — the hybrid the paper *declines* to evaluate
//!    (§6.3), arguing MASK cannot close any of SWIFT-R's windows of
//!    vulnerability. Composing the two passes here confirms the negative
//!    result: reliability within noise of plain SWIFT-R, at extra cost.

use sor_core::{apply_mask, apply_swiftr, Technique, TransformConfig};
use sor_harness::{
    measure_perf_in, run_campaign_in, ArtifactStore, CampaignConfig, OutcomeCounts, PerfConfig,
};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{FaultSpec, MachineConfig, Runner, TimingConfig};
use sor_workloads::{AdpcmDec, Mpeg2Enc, Parser, Workload};

fn main() {
    let runs = sor_bench::runs_arg(150);
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(AdpcmDec::default()),
        Box::new(Mpeg2Enc::default()),
        Box::new(Parser::default()),
    ];
    // One artifact store for every sweep: each (workload, technique,
    // transform) program is prepared once and reused across the timing
    // and campaign runs.
    let store = ArtifactStore::new();

    println!("== ablation 1: check-placement density (SWIFT-R, {runs} injections) ==");
    println!(
        "{:<12} {:<16} {:>8} {:>8} {:>8} {:>10}",
        "benchmark", "policy", "unACE%", "SEGV%", "SDC%", "norm-time"
    );
    for w in &suite {
        for (label, tc) in [
            ("paper (full)", TransformConfig::paper()),
            ("addresses-only", TransformConfig::addresses_only()),
        ] {
            let cfg = CampaignConfig {
                runs,
                transform: tc.clone(),
                ..CampaignConfig::default()
            };
            let rel = run_campaign_in(&store, w.as_ref(), Technique::SwiftR, &cfg);
            let pc = PerfConfig {
                transform: tc,
                ..PerfConfig::default()
            };
            let noft = measure_perf_in(&store, w.as_ref(), Technique::Noft, &pc);
            let perf = measure_perf_in(&store, w.as_ref(), Technique::SwiftR, &pc);
            println!(
                "{:<12} {:<16} {:>8.1} {:>8.1} {:>8.1} {:>10.2}",
                w.name(),
                label,
                rel.counts.pct_unace(),
                rel.counts.pct_segv(),
                rel.counts.pct_sdc(),
                perf.cycles as f64 / noft.cycles as f64
            );
        }
    }

    println!("\n== ablation 2: issue width sensitivity (normalized time) ==");
    println!(
        "{:<12} {:>6} {:>10} {:>10}",
        "benchmark", "width", "TRUMP", "SWIFT-R"
    );
    for w in &suite {
        for width in [2u32, 4, 5, 8] {
            let pc = PerfConfig {
                timing: TimingConfig {
                    issue_width: width,
                    ..TimingConfig::default()
                },
                ..PerfConfig::default()
            };
            let noft = measure_perf_in(&store, w.as_ref(), Technique::Noft, &pc);
            let trump = measure_perf_in(&store, w.as_ref(), Technique::Trump, &pc);
            let swiftr = measure_perf_in(&store, w.as_ref(), Technique::SwiftR, &pc);
            println!(
                "{:<12} {:>6} {:>10.2} {:>10.2}",
                w.name(),
                width,
                trump.cycles as f64 / noft.cycles as f64,
                swiftr.cycles as f64 / noft.cycles as f64
            );
        }
    }

    println!("\n== ablation 3: the SWIFT-R/MASK non-hybrid (paper §6.3) ==");
    println!(
        "{:<12} {:<16} {:>8} {:>12}",
        "benchmark", "variant", "unACE%", "dyn-instrs"
    );
    let tc = TransformConfig::default();
    for w in &suite {
        let module = w.build();
        for (label, m) in [
            ("SWIFT-R", apply_swiftr(&module, &tc)),
            ("SWIFT-R+MASK", apply_swiftr(&apply_mask(&module, &tc), &tc)),
        ] {
            let prog = lower(&m, &LowerConfig::default()).unwrap();
            let runner = Runner::new(&prog, &MachineConfig::default());
            let len = runner.golden().dyn_instrs;
            let mut counts = OutcomeCounts::default();
            let mut state = 0xD15Eu64;
            let regs: Vec<u8> = FaultSpec::injectable_regs().collect();
            for _ in 0..runs {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let f = FaultSpec::new(
                    state % len,
                    regs[(state >> 32) as usize % regs.len()],
                    (state >> 48) as u8 % 64,
                );
                let (o, r) = runner.run_fault(f);
                counts.record(o, r.probes.vote_repairs);
            }
            println!(
                "{:<12} {:<16} {:>8.1} {:>12}",
                w.name(),
                label,
                counts.pct_unace(),
                len
            );
        }
    }
    println!("(the paper's argument: MASK closes none of SWIFT-R's windows, so the");
    println!(" combination only adds instructions — the rows above should agree on");
    println!(" unACE% within noise while SWIFT-R+MASK executes more instructions)");
}

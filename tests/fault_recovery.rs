//! Targeted fault-injection integration tests: the recovery mechanisms, the
//! windows of vulnerability (§3.2) and the figure pipeline.

use software_only_recovery::harness::{FaultModel, OutcomeCounts};
use software_only_recovery::prelude::*;
use software_only_recovery::recovery::Technique as T;
use software_only_recovery::workloads::{AdpcmDec, Mpeg2Enc, Parser};

/// Sweep stride multiplier: debug builds interpret ~10x slower, so stride
/// the exhaustive sweeps wider there (coverage shrinks, semantics do not).
const STRIDE: usize = if cfg!(debug_assertions) { 8 } else { 1 };

fn adpcm_small() -> AdpcmDec {
    AdpcmDec {
        samples: 120,
        seed: 42,
    }
}

/// Exhaustively sweep one register across all injection times on the
/// unprotected and SWIFT-R builds: SWIFT-R must strictly dominate.
#[test]
fn swiftr_dominates_noft_under_exhaustive_single_register_sweep() {
    let w = adpcm_small();
    let module = w.build();
    let count_bad = |t: T| {
        let p = lower(&t.apply(&module), &LowerConfig::default()).unwrap();
        let runner = sor_sim::Runner::new(&p, &MachineConfig::default());
        let len = runner.golden().dyn_instrs;
        let mut bad = 0u64;
        let mut total = 0u64;
        for at in (0..len).step_by(17 * STRIDE) {
            for bit in [3u8, 33, 62] {
                let (o, _) = runner.run_fault(FaultSpec::new(at, 4, bit));
                total += 1;
                if o != Outcome::UnAce {
                    bad += 1;
                }
            }
        }
        (bad, total)
    };
    let (noft_bad, noft_total) = count_bad(T::Noft);
    let (swiftr_bad, swiftr_total) = count_bad(T::SwiftR);
    let noft_rate = noft_bad as f64 / noft_total as f64;
    let swiftr_rate = swiftr_bad as f64 / swiftr_total as f64;
    assert!(
        swiftr_rate < noft_rate * 0.5,
        "SWIFT-R rate {swiftr_rate:.3} should be far below NOFT {noft_rate:.3}"
    );
}

/// TRUMP recovery actually executes its Figure 4 sequence: both repair
/// directions (original struck vs shadow struck) are reachable.
#[test]
fn trump_recovery_fires_in_both_directions() {
    let w = Mpeg2Enc { blocks: 3, seed: 9 };
    let module = w.build();
    let p = lower(&T::Trump.apply(&module), &LowerConfig::default()).unwrap();
    let runner = sor_sim::Runner::new(&p, &MachineConfig::default());
    let len = runner.golden().dyn_instrs;
    let mut recovered_runs = 0;
    let mut still_correct = 0;
    for at in (0..len).step_by(7 * STRIDE) {
        for reg in [0u8, 2, 3, 4, 5, 6, 8, 10] {
            let (o, res) = runner.run_fault(FaultSpec::new(at, reg, 7));
            if res.probes.trump_recovers > 0 {
                recovered_runs += 1;
                if o == Outcome::UnAce {
                    still_correct += 1;
                }
            }
        }
    }
    assert!(recovered_runs > 3, "recoveries: {recovered_runs}");
    // Recovery should overwhelmingly lead to correct completion.
    assert!(
        still_correct as f64 >= recovered_runs as f64 * 0.9,
        "{still_correct}/{recovered_runs} recoveries ended correct"
    );
}

/// The SWIFT detection baseline turns would-be corruption into detections.
#[test]
fn swift_detects_instead_of_corrupting() {
    let w = adpcm_small();
    let module = w.build();
    let p = lower(&T::Swift.apply(&module), &LowerConfig::default()).unwrap();
    let runner = sor_sim::Runner::new(&p, &MachineConfig::default());
    let len = runner.golden().dyn_instrs;
    let (mut detected, mut sdc) = (0u64, 0u64);
    for at in (0..len).step_by(13 * STRIDE) {
        for reg in [0u8, 3, 6] {
            match runner.run_fault(FaultSpec::new(at, reg, 21)).0 {
                Outcome::Detected => detected += 1,
                Outcome::Sdc => sdc += 1,
                _ => {}
            }
        }
    }
    assert!(detected > 0, "detection must fire");
    assert!(
        sdc * 10 < detected.max(1),
        "SDC ({sdc}) should be rare relative to detections ({detected})"
    );
}

/// Campaign determinism across repeated invocations (same seed), pinned
/// to literal histograms so a change to fault drawing or injection shows
/// up here: the paper's SEU model and the transient-ALU model.
#[test]
fn campaigns_are_reproducible() {
    let w = Parser {
        text_len: 120,
        seed: 5,
    };
    let cfg = CampaignConfig {
        runs: 40,
        threads: 3,
        ..CampaignConfig::default()
    };
    let seu = OutcomeCounts {
        unace: 32,
        sdc: 3,
        segv: 5,
        detected: 0,
        hang: 0,
        recoveries: 0,
    };
    let alu = OutcomeCounts {
        unace: 28,
        sdc: 11,
        segv: 1,
        detected: 0,
        hang: 0,
        recoveries: 4,
    };
    let transient = CampaignConfig {
        fault_model: FaultModel::TransientAlu,
        ..cfg.clone()
    };
    for (config, expected) in [(&cfg, seu), (&cfg, seu), (&transient, alu)] {
        let r = run_campaign_in(&ArtifactStore::new(), &w, T::TrumpMask, config);
        assert_eq!(r.counts, expected, "{}", config.fault_model);
    }
}

/// The reliability ordering that is the paper's whole point, on one
/// benchmark with enough runs to be statistically stable.
#[test]
fn reliability_ordering_noft_trump_swiftr() {
    let w = adpcm_small();
    let cfg = CampaignConfig {
        runs: if cfg!(debug_assertions) { 120 } else { 300 },
        ..CampaignConfig::default()
    };
    let store = ArtifactStore::new();
    let unace = |t| run_campaign_in(&store, &w, t, &cfg).counts.pct_unace();
    let (noft, trump, swiftr) = (unace(T::Noft), unace(T::Trump), unace(T::SwiftR));
    assert!(
        noft < trump && trump < swiftr,
        "ordering violated: NOFT {noft:.1} TRUMP {trump:.1} SWIFT-R {swiftr:.1}"
    );
    assert!(swiftr > 95.0, "SWIFT-R {swiftr:.1} must be near-total");
}

/// Windows of vulnerability exist (§3.2): with enough of a hammer, even
/// SWIFT-R shows a handful of non-unACE outcomes — it is *not* magically
/// perfect, matching the paper's residual 1.93% SEGV / 0.81% SDC.
#[test]
fn swiftr_windows_of_vulnerability_are_real_but_small() {
    let w = adpcm_small();
    let module = w.build();
    let p = lower(&T::SwiftR.apply(&module), &LowerConfig::default()).unwrap();
    let runner = sor_sim::Runner::new(&p, &MachineConfig::default());
    let len = runner.golden().dyn_instrs;
    let mut bad = 0u64;
    let mut total = 0u64;
    // Hammer every 3rd instruction across several registers and bits.
    for at in (0..len).step_by(3 * STRIDE) {
        for (reg, bit) in [(0u8, 13u8), (2, 40), (3, 5), (4, 60), (5, 25)] {
            let (o, _) = runner.run_fault(FaultSpec::new(at, reg, bit));
            total += 1;
            if o != Outcome::UnAce {
                bad += 1;
            }
        }
    }
    let rate = bad as f64 / total as f64;
    assert!(rate < 0.04, "residual damage rate {rate:.4} too high");
}

/// The dead-flip early exit is invisible: on adpcmdec under NOFT and
/// SWIFT-R, strided seu-reg, multi-bit and transient-ALU faults give the
/// same full `RunResult` on the decoded and jit replayers (which stop a
/// run once its flip is provably dead) as on the legacy one (which runs
/// every fault to the end), and the shortcut actually fires.
#[test]
fn dead_flip_early_exit_is_invisible() {
    use sor_sim::{ExecEngine, FaultEffect, GenFault, Runner, INJECTABLE_REGS};
    let module = adpcm_small().build();
    for t in [T::Noft, T::SwiftR] {
        let p = lower(&t.apply(&module), &LowerConfig::default()).unwrap();
        let runner = |engine| {
            Runner::new(
                &p,
                &MachineConfig {
                    engine,
                    ..MachineConfig::default()
                },
            )
        };
        let (legacy, decoded, jit) = (
            runner(ExecEngine::Legacy),
            runner(ExecEngine::Decoded),
            runner(ExecEngine::Jit),
        );
        let (mut rl, mut rd, mut rj) = (legacy.replayer(), decoded.replayer(), jit.replayer());
        let len = legacy.golden().dyn_instrs;
        for (i, at) in (0..len).step_by(11 * STRIDE).enumerate() {
            let reg = INJECTABLE_REGS[i % INJECTABLE_REGS.len()];
            let bit = (i * 7 % 62) as u8;
            let effects = [
                FaultEffect::RegXor {
                    reg,
                    mask: 1 << bit,
                },
                FaultEffect::RegXor {
                    reg: INJECTABLE_REGS[(i * 5 + 3) % INJECTABLE_REGS.len()],
                    mask: 0b111 << bit,
                },
                FaultEffect::AluXor { mask: 1 << bit },
            ];
            for effect in effects {
                let f = GenFault::new(at, effect);
                let expected = rl.run_fault(f);
                assert_eq!(rd.run_fault(f), expected, "{t} {f}: decoded");
                assert_eq!(rj.run_fault(f), expected, "{t} {f}: jit");
            }
        }
        assert_eq!(rl.early_exits().total(), 0, "{t}: legacy runs in full");
        assert!(rd.early_exits().total() > 0, "{t}: no early exit");
        assert_eq!(rd.early_exits(), rj.early_exits(), "{t}");
    }
}

//! The fault runs' early exits against their oracles (DESIGN.md §11,
//! "Early exit and rejoin"). On the differential-matrix programs:
//!
//! * every run the jit or decoded replayer ends early — at a statically
//!   dead flip, an unlatched ALU transient or a rejoin with the golden run
//!   — equals its full rerun on the legacy core, which never stops early,
//!   under all five fault models;
//! * rejoined runs carry the probes they counted beyond the golden run;
//! * the static live mask at every golden slot covers the dynamic live
//!   set of `sor-ace`'s liveness index, so no flip it calls dead is read;
//! * the checkpoint-recording run, which runners use as their golden run,
//!   equals a plain run on every engine.

use sor_ace::{DefUseTrace, LivenessIndex, SiteFate};
use sor_core::Technique;
use sor_harness::{ArtifactStore, FaultModel, SampleCtx};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{ExecEngine, FaultEffect, GenFault, Machine, MachineConfig, Runner};
use sor_workloads::{AdpcmDec, Art, Mpeg2Dec, Mpeg2Enc, Workload};
use std::sync::Arc;

/// The differential matrix's workloads (`crates/harness/tests/differential.rs`).
fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AdpcmDec {
            samples: 80,
            seed: 7,
        }),
        Box::new(Mpeg2Dec { blocks: 3, seed: 2 }),
        Box::new(Mpeg2Enc { blocks: 2, seed: 1 }),
        Box::new(Art {
            neurons: 4,
            inputs: 4,
            epochs: 2,
            seed: 3,
        }),
    ]
}

/// Faults drawn per (program, model).
const FAULTS: u64 = 24;

fn engine(engine: ExecEngine) -> MachineConfig {
    MachineConfig {
        engine,
        ..MachineConfig::default()
    }
}

#[test]
fn every_early_exit_equals_its_full_legacy_rerun() {
    let store = ArtifactStore::new();
    let mut rejoined = [0; FaultModel::ALL.len()];
    for w in &workloads() {
        for technique in Technique::ALL {
            let art = store.get(
                w.as_ref(),
                technique,
                &Default::default(),
                &LowerConfig::default(),
            );
            let prog = &art.program;
            let jit = Runner::with_images(
                prog,
                &engine(ExecEngine::Jit),
                Some(Arc::clone(&art.decoded)),
                art.jit_for(ExecEngine::Jit),
            );
            let decoded = Runner::with_images(
                prog,
                &engine(ExecEngine::Decoded),
                Some(Arc::clone(&art.decoded)),
                None,
            );
            let legacy = Runner::new(prog, &engine(ExecEngine::Legacy));
            let ctx = SampleCtx::for_program(prog, legacy.golden().dyn_instrs);
            for (m, model) in FaultModel::ALL.into_iter().enumerate() {
                let label = format!("{}/{technique}/{model}", w.name());
                let mut rng = SmallRng::seed_from_u64(0x5E70 ^ (m as u64) << 16);
                let (mut rj, mut rd, mut rl) =
                    (jit.replayer(), decoded.replayer(), legacy.replayer());
                for _ in 0..FAULTS {
                    let f = model.sample(&mut rng, &ctx);
                    for r in [&mut rj, &mut rd] {
                        let before = r.early_exits().total();
                        let got = r.run_fault(f);
                        if r.early_exits().total() > before {
                            assert_eq!(got, rl.run_fault(f), "{label}: {f} ended early wrongly");
                        }
                    }
                }
                assert_eq!(rj.early_exits(), rd.early_exits(), "{label}");
                assert_eq!(rl.early_exits().total(), 0, "{label}: legacy runs in full");
                rejoined[m] += rj.early_exits().rejoined;
            }
        }
    }
    for (model, n) in FaultModel::ALL.into_iter().zip(rejoined) {
        if matches!(
            model,
            FaultModel::SeuReg | FaultModel::MultiBitUpset | FaultModel::TransientAlu
        ) {
            assert!(n > 0, "{model}: no run rejoined");
        }
    }
}

#[test]
fn static_liveness_covers_the_dynamic_trace() {
    let store = ArtifactStore::new();
    for w in &workloads() {
        for technique in Technique::ALL {
            let art = store.get(
                w.as_ref(),
                technique,
                &Default::default(),
                &LowerConfig::default(),
            );
            let runner = Runner::with_images(
                &art.program,
                &MachineConfig::default(),
                Some(Arc::clone(&art.decoded)),
                art.jit_for(ExecEngine::Jit),
            );
            let masks = runner.static_live_masks().expect("span engine");
            let index = LivenessIndex::build(&DefUseTrace::record(&runner));
            assert_eq!(masks.len() as u64, index.golden_len());
            for (slot, &live) in masks.iter().enumerate() {
                for reg in 0..32u8 {
                    if let SiteFate::Live { .. } = index.classify(reg, slot as u64) {
                        assert!(
                            live & 1 << reg != 0,
                            "{}/{technique}: r{reg} read after slot {slot} but statically dead",
                            w.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn the_recording_run_is_the_golden_run() {
    let store = ArtifactStore::new();
    for w in &workloads() {
        for technique in Technique::ALL {
            let art = store.get(
                w.as_ref(),
                technique,
                &Default::default(),
                &LowerConfig::default(),
            );
            for e in ExecEngine::ALL {
                let plain = Machine::new(&art.program, &engine(e)).run(None);
                let mut m = Machine::new(&art.program, &engine(e));
                m.enable_reuse();
                let (recorded, _) = m.run_golden_with_checkpoints(97);
                assert_eq!(plain, recorded, "{}/{technique}/{e:?}", w.name());
            }
        }
    }
}

/// Rejoined runs report the golden probe counts plus the fault run's
/// excess at the boundary. A pc corruption that runs into a SWIFT-R vote's
/// repair path and back rejoins with an extra repair: those runs must
/// match the legacy core too.
#[test]
fn rejoined_runs_carry_their_extra_probes() {
    let store = ArtifactStore::new();
    let w = &workloads()[0];
    let art = store.get(
        w.as_ref(),
        Technique::SwiftR,
        &Default::default(),
        &LowerConfig::default(),
    );
    let jit = Runner::with_images(
        &art.program,
        &MachineConfig::default(),
        Some(Arc::clone(&art.decoded)),
        art.jit_for(ExecEngine::Jit),
    );
    let legacy = Runner::new(&art.program, &engine(ExecEngine::Legacy));
    let (mut rj, mut rl) = (jit.replayer(), legacy.replayer());
    let golden = jit.golden();
    let mut extra = 0;
    for at in 0..golden.dyn_instrs {
        let f = GenFault::new(at, FaultEffect::PcXor { mask: 3 });
        let before = rj.early_exits().rejoined;
        let got = rj.run_fault(f);
        if rj.early_exits().rejoined > before {
            assert_eq!(got, rl.run_fault(f), "{f}");
            extra += (got.1.probes != golden.probes) as u32;
        }
    }
    assert!(
        extra > 0,
        "no rejoined run counted a probe beyond the golden run"
    );
}

//! Seeded randomized divergence fuzz for lane-batched injection.
//!
//! The lanes differential matrix pins curated fault batteries; this fuzz
//! pins *randomly grouped* ones: groups of random size (1..=width) with
//! uniformly sampled `FaultSpec`s — slots deliberately drawn past the end
//! of the run as well as inside it — executed at every lane width over
//! several checkpoint intervals, each compared bit-for-bit against the
//! scalar decoded replayer (full `GenFaultRecord` plus raw `RunResult`, which
//! subsumes outcome histograms). Two engineered edge shapes ride along in
//! every cell:
//!
//! * **zero divergence** — a whole group of past-end slots: no lane ever
//!   injects, the pack runs the entire program in lockstep and every lane
//!   finishes via the shared-terminal eviction at the outermost return;
//! * **maximum divergence** — all lanes flip bit 63 of different
//!   registers at the same early slot: the lanes that survive to the
//!   first branch or address use scatter immediately, draining the pack
//!   through the divergence-eviction path one anomaly at a time.

use sor_core::Technique;
use sor_harness::{ArtifactStore, FaultModel, SampleCtx};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{ExecEngine, FaultSpec, GenFault, MachineConfig, Runner, INJECTABLE_REGS};
use sor_workloads::{AdpcmDec, Art, Mpeg2Enc, Workload};
use std::sync::Arc;

fn fuzz_cell(w: &dyn Workload, technique: Technique, interval: u64, seed: u64) {
    let store = ArtifactStore::new();
    let artifact = store.get(w, technique, &Default::default(), &LowerConfig::default());
    let runner = Runner::with_decoded(
        &artifact.program,
        &MachineConfig {
            engine: ExecEngine::Decoded,
            checkpoint_interval: interval,
            ..MachineConfig::default()
        },
        Some(Arc::clone(&artifact.decoded)),
    );
    let golden_len = runner.golden().dyn_instrs;
    let label = format!("{}/{technique}/interval {interval}", w.name());
    let mut rng = SmallRng::seed_from_u64(seed ^ golden_len);
    let mut scalar = runner.replayer();

    for lanes in [2usize, 4, 8, 16] {
        let mut lane_replayer = runner.lane_replayer(lanes);
        let mut groups: Vec<Vec<FaultSpec>> = Vec::new();
        for _ in 0..12 {
            let size = 1 + (rng.gen_range(0, lanes as u64) as usize);
            groups.push(
                (0..size)
                    // Head room above golden_len draws past-end slots too:
                    // faults that never fire must also batch exactly.
                    .map(|_| FaultSpec::sample(&mut rng, golden_len + 8))
                    .collect(),
            );
        }
        // Zero-divergence edge: nobody injects, full-run lockstep.
        groups.push(
            (0..lanes)
                .map(|k| FaultSpec::new(golden_len + 1 + k as u64, 3, 5))
                .collect(),
        );
        // Maximum-divergence edge: every lane takes a high-bit hit on a
        // different register at the same early slot.
        let slot = rng.gen_range(0, golden_len.clamp(1, 50));
        groups.push(
            INJECTABLE_REGS
                .iter()
                .take(lanes)
                .map(|&reg| FaultSpec::new(slot, reg, 63))
                .collect(),
        );

        for group in &groups {
            let got = lane_replayer.run_fault_group_records(group);
            assert_eq!(got.len(), group.len(), "{label}");
            for (k, lane_out) in got.iter().enumerate() {
                let scalar_out = scalar.run_fault_record(group[k]);
                assert_eq!(
                    *lane_out, scalar_out,
                    "{label}: {} diverged at {lanes} lanes (group {group:?})",
                    group[k]
                );
            }
        }
    }
}

/// The fault-model column of the fuzz: randomized draws from every
/// generalized fault model — including slots pushed past the end of the
/// run — replayed on the decoded and legacy engines and pinned
/// bit-for-bit (record and raw result). Lane batching is deliberately
/// absent here: generalized effects take the scalar path by design, and
/// the campaign-level scalar-fallback equivalence is pinned in the
/// differential matrix; this fuzz pins the scalar replay itself.
fn fuzz_models_cell(w: &dyn Workload, technique: Technique, seed: u64) {
    let store = ArtifactStore::new();
    let artifact = store.get(w, technique, &Default::default(), &LowerConfig::default());
    let decoded = Runner::with_decoded(
        &artifact.program,
        &MachineConfig {
            engine: ExecEngine::Decoded,
            checkpoint_interval: 7,
            ..MachineConfig::default()
        },
        Some(Arc::clone(&artifact.decoded)),
    );
    let legacy = Runner::new(
        &artifact.program,
        &MachineConfig {
            engine: ExecEngine::Legacy,
            checkpoint_interval: 7,
            ..MachineConfig::default()
        },
    );
    let golden_len = legacy.golden().dyn_instrs;
    let ctx = SampleCtx::for_program(&artifact.program, golden_len);
    let mut rng = SmallRng::seed_from_u64(seed ^ golden_len);
    let mut d_replayer = decoded.replayer();
    let mut l_replayer = legacy.replayer();
    for model in FaultModel::ALL {
        let label = format!("{}/{technique}/{model}", w.name());
        for i in 0..10u64 {
            let mut fault = model.sample(&mut rng, &ctx);
            // Every third draw is shifted past the end of the run: faults
            // that never fire must classify unACE on both engines too.
            if i % 3 == 2 {
                fault = GenFault::new(golden_len + 1 + i, fault.effect);
            }
            let (d_rec, d_res) = d_replayer.run_fault_record_gen(fault);
            let (l_rec, l_res) = l_replayer.run_fault_record_gen(fault);
            assert_eq!(d_rec, l_rec, "{label}: record diverged across engines");
            assert_eq!(d_res, l_res, "{label}: result diverged across engines");
        }
    }
}

#[test]
fn fuzzed_generalized_models_match_across_engines() {
    let w = AdpcmDec {
        samples: 80,
        seed: 7,
    };
    fuzz_models_cell(&w, Technique::SwiftR, 0x90DE1);
    fuzz_models_cell(&w, Technique::Cfcss, 0x90DE2);
    let w2 = Mpeg2Enc { blocks: 2, seed: 1 };
    fuzz_models_cell(&w2, Technique::Ceda, 0x90DE3);
}

#[test]
fn fuzzed_lane_groups_match_scalar_on_integer_dsp() {
    let w = AdpcmDec {
        samples: 80,
        seed: 7,
    };
    for (interval, seed) in [(0u64, 0xF00D), (11, 0xBEEF)] {
        fuzz_cell(&w, Technique::SwiftR, interval, seed);
    }
    fuzz_cell(&w, Technique::Trump, 7, 0x7007);
}

#[test]
fn fuzzed_lane_groups_match_scalar_on_block_transform() {
    let w = Mpeg2Enc { blocks: 2, seed: 1 };
    fuzz_cell(&w, Technique::Swift, 0, 0xA11CE);
    fuzz_cell(&w, Technique::SwiftR, 9, 0xB0B);
}

#[test]
fn fuzzed_lane_groups_match_scalar_on_float_workload() {
    let w = Art {
        neurons: 4,
        inputs: 4,
        epochs: 2,
        seed: 3,
    };
    fuzz_cell(&w, Technique::SwiftR, 13, 0xF10A7);
    fuzz_cell(&w, Technique::Noft, 0, 0x0F7);
}

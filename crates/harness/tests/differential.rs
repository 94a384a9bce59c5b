//! Decoded-vs-legacy differential matrix: the predecoded micro-op engine
//! must be observationally indistinguishable from the legacy step
//! interpreter. Every cell of `Technique::ALL x workloads` pins, across
//! both engines:
//!
//! * the golden [`RunResult`] (status, output, dynamic count, probes),
//! * the recorded checkpoint sequence, snapshot by snapshot (via
//!   [`Checkpoint::fingerprint`], which digests every architectural field),
//! * the def-use trace event stream (slots, check pcs, read/write masks),
//! * seeded fault injections, as full provenance-annotated
//!   [`GenFaultRecord`]s plus raw results — including `fault_pc`,
//! * whole campaign histograms under identical seeds.
//!
//! The jit column extends the matrix along a third axis: the native x86-64
//! superblock JIT ([`sor_sim::JitProg`]) services fault slots, probes,
//! fuel and checkpoint boundaries only at span edges, so every cell above
//! must also hold with `jit == decoded == legacy` — per-fault records,
//! sampled and triaged campaign histograms, and certified-coverage
//! reports alike. Where native compilation is
//! unavailable the jit engine degrades to the decoded interpreter, and
//! the same assertions pin the fallback instead.

use sor_core::Technique;
use sor_harness::{
    run_campaign_in, run_certified_campaign_stored, run_triaged_campaign_stored, ArtifactStore,
    CampaignConfig, CampaignResult, CertifyConfig, FaultModel, ResultStore, SampleCtx,
    TriagedCampaign,
};
use sor_regalloc::LowerConfig;
use sor_rng::SmallRng;
use sor_sim::{ExecEngine, FaultSpec, GenFault, MachineConfig, Runner, TraceSink};
use sor_workloads::{AdpcmDec, Art, Mpeg2Dec, Mpeg2Enc, Workload};
use std::sync::Arc;

/// Small parameterizations of four structurally different workloads:
/// integer DSP (adpcmdec), block transforms (mpeg2dec/enc) and a
/// float-heavy neural net (art) — enough to exercise every micro-op family
/// including the FPU, conversions and calls.
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

/// A campaign on a fresh artifact store.
fn run_campaign(w: &dyn Workload, technique: Technique, cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_in(&ArtifactStore::new(), w, technique, cfg)
}

/// The triage driver on fresh stores.
fn run_triaged_campaign(
    w: &dyn Workload,
    technique: Technique,
    cfg: &CampaignConfig,
) -> TriagedCampaign {
    let results = ResultStore::in_memory();
    run_triaged_campaign_stored(&ArtifactStore::new(), &results, w, technique, cfg, 4)
}

fn engine_cfg(engine: ExecEngine, checkpoint_interval: u64) -> MachineConfig {
    MachineConfig {
        engine,
        checkpoint_interval,
        ..MachineConfig::default()
    }
}

#[derive(Default, PartialEq, Debug)]
struct VecSink(Vec<(u64, usize, u32, u32)>);

impl TraceSink for VecSink {
    fn record(&mut self, slot: u64, check_pc: usize, reads: u32, writes: u32) {
        self.0.push((slot, check_pc, reads, writes));
    }
}

/// The headline oracle: on every technique x workload cell, golden run,
/// checkpoint stream, trace stream and a seeded battery of fault
/// injections agree bit-for-bit between the two engines.
#[test]
fn decoded_engine_matches_legacy_bit_for_bit() {
    let store = ArtifactStore::new();
    for w in &workloads() {
        for technique in Technique::ALL {
            let artifact = store.get(
                w.as_ref(),
                technique,
                &Default::default(),
                &LowerConfig::default(),
            );
            let label = format!("{}/{technique}", w.name());
            // Interval 7 forces many mid-frame, mid-loop snapshots even on
            // these small runs.
            let decoded = Runner::with_images(
                &artifact.program,
                &engine_cfg(ExecEngine::Decoded, 7),
                Some(Arc::clone(&artifact.decoded)),
                None,
            );
            let legacy = Runner::new(&artifact.program, &engine_cfg(ExecEngine::Legacy, 7));
            let jit = Runner::with_images(
                &artifact.program,
                &engine_cfg(ExecEngine::Jit, 7),
                Some(Arc::clone(&artifact.decoded)),
                artifact.jit_for(ExecEngine::Jit),
            );
            assert!(decoded.decoded().is_some(), "{label}");
            assert!(legacy.decoded().is_none(), "{label}");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            assert!(jit.jit().is_some(), "{label}: jit must compile natively");

            // Golden runs: the whole observable result, field for field.
            assert_eq!(decoded.golden(), legacy.golden(), "{label}: golden run");
            assert_eq!(jit.golden(), legacy.golden(), "{label}: jit golden run");

            // Checkpoints: same capture points, same architectural state.
            let (d_cps, l_cps, j_cps) = (
                decoded.checkpoints(),
                legacy.checkpoints(),
                jit.checkpoints(),
            );
            assert_eq!(d_cps.len(), l_cps.len(), "{label}: checkpoint count");
            assert_eq!(j_cps.len(), l_cps.len(), "{label}: jit checkpoint count");
            assert!(d_cps.len() > 2, "{label}: interval 7 must checkpoint");
            for ((d, l), j) in d_cps
                .as_slice()
                .iter()
                .zip(l_cps.as_slice())
                .zip(j_cps.as_slice())
            {
                assert_eq!(d.at, l.at, "{label}: checkpoint slot");
                assert_eq!(j.at, l.at, "{label}: jit checkpoint slot");
                assert_eq!(
                    d.fingerprint(),
                    l.fingerprint(),
                    "{label}: checkpoint state diverged at slot {}",
                    d.at
                );
                assert_eq!(
                    j.fingerprint(),
                    l.fingerprint(),
                    "{label}: jit checkpoint state diverged at slot {}",
                    j.at
                );
            }

            // Def-use traces: identical event streams, identical results.
            let (mut d_sink, mut l_sink, mut j_sink) =
                (VecSink::default(), VecSink::default(), VecSink::default());
            let d_traced = decoded.trace_golden(&mut d_sink);
            let l_traced = legacy.trace_golden(&mut l_sink);
            let j_traced = jit.trace_golden(&mut j_sink);
            assert_eq!(d_traced, l_traced, "{label}: traced run");
            assert_eq!(j_traced, l_traced, "{label}: jit traced run");
            assert_eq!(d_sink, l_sink, "{label}: trace events");
            assert_eq!(j_sink, l_sink, "{label}: jit trace events");

            // Seeded faults plus targeted boundary slots (first, near-end,
            // past-end): full records and raw results must match, which
            // pins outcome, fault_pc/role attribution, output, dynamic
            // count and probe counters at once.
            let golden_len = legacy.golden().dyn_instrs;
            let mut rng = SmallRng::seed_from_u64(0xD1FF ^ golden_len);
            let mut faults: Vec<FaultSpec> = (0..16)
                .map(|_| FaultSpec::sample(&mut rng, golden_len))
                .collect();
            faults.push(FaultSpec::new(0, 3, 63));
            faults.push(FaultSpec::new(golden_len - 1, 4, 1));
            faults.push(FaultSpec::new(golden_len + 9, 5, 2));
            let mut d_replayer = decoded.replayer();
            let mut l_replayer = legacy.replayer();
            let mut j_replayer = jit.replayer();
            for &f in &faults {
                let (d_rec, d_res) = d_replayer.run_fault_record(f);
                let (l_rec, l_res) = l_replayer.run_fault_record(f);
                let (j_rec, j_res) = j_replayer.run_fault_record(f);
                assert_eq!(d_rec, l_rec, "{label}: {f} record diverged");
                assert_eq!(d_res, l_res, "{label}: {f} result diverged");
                assert_eq!(j_rec, l_rec, "{label}: {f} jit record diverged");
                assert_eq!(j_res, l_res, "{label}: {f} jit result diverged");
            }
        }
    }
}

/// Same-seed campaigns classify identically whichever engine runs them —
/// the whole histogram, not just totals.
#[test]
fn campaign_histograms_agree_across_engines() {
    let w = AdpcmDec {
        samples: 100,
        seed: 3,
    };
    for technique in [Technique::SwiftR, Technique::Trump] {
        let cfg = |engine| CampaignConfig {
            runs: 40,
            seed: 11,
            threads: 2,
            engine,
            ..Default::default()
        };
        let d = run_campaign(&w, technique, &cfg(ExecEngine::Decoded));
        let l = run_campaign(&w, technique, &cfg(ExecEngine::Legacy));
        let j = run_campaign(&w, technique, &cfg(ExecEngine::Jit));
        assert_eq!(d.counts, l.counts, "{technique}: histogram diverged");
        assert_eq!(d.golden_instrs, l.golden_instrs, "{technique}");
        assert_eq!(j.counts, l.counts, "{technique}: jit histogram diverged");
        assert_eq!(j.golden_instrs, l.golden_instrs, "{technique}: jit");
    }
}

/// The jit-vs-decoded campaign matrix: across three techniques and three
/// structurally different workloads, jit campaigns reproduce the decoded
/// histograms exactly — sampled counts and the full triaged
/// vulnerability profile.
#[test]
fn jit_campaigns_match_decoded_across_matrix() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(AdpcmDec {
            samples: 60,
            seed: 7,
        }),
        Box::new(Mpeg2Dec { blocks: 2, seed: 2 }),
        Box::new(Mpeg2Enc { blocks: 2, seed: 1 }),
    ];
    for w in &workloads {
        for technique in [Technique::SwiftR, Technique::Trump, Technique::Swift] {
            let label = format!("{}/{technique}", w.name());
            let cfg = |engine| CampaignConfig {
                runs: 48,
                seed: 11,
                threads: 2,
                engine,
                ..Default::default()
            };
            let decoded = run_campaign(w.as_ref(), technique, &cfg(ExecEngine::Decoded));
            let jit = run_campaign(w.as_ref(), technique, &cfg(ExecEngine::Jit));
            assert_eq!(
                jit.counts, decoded.counts,
                "{label}: jit histogram diverged"
            );
            assert_eq!(jit.golden_instrs, decoded.golden_instrs, "{label}: jit");
            let triaged_decoded =
                run_triaged_campaign(w.as_ref(), technique, &cfg(ExecEngine::Decoded));
            let triaged_jit = run_triaged_campaign(w.as_ref(), technique, &cfg(ExecEngine::Jit));
            assert_eq!(
                triaged_jit.profile, triaged_decoded.profile,
                "{label}: triage profile diverged under jit"
            );
        }
    }
}

/// Certified campaigns — the exhaustive, exact fault-space reports — are
/// unchanged by the jit engine, down to every per-site and per-role count.
#[test]
fn jit_certified_campaigns_match_decoded() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(AdpcmDec {
            samples: 4,
            seed: 1,
        }),
        Box::new(Mpeg2Dec { blocks: 1, seed: 2 }),
        Box::new(Mpeg2Enc { blocks: 1, seed: 1 }),
    ];
    for w in &workloads {
        for technique in [Technique::SwiftR, Technique::Trump, Technique::Swift] {
            let label = format!("{}/{technique}", w.name());
            let cfg = |engine| CertifyConfig {
                threads: 2,
                engine,
                ..Default::default()
            };
            let certify = |engine| {
                let results = ResultStore::in_memory();
                let (artifacts, w) = (ArtifactStore::new(), w.as_ref());
                run_certified_campaign_stored(&artifacts, &results, w, technique, &cfg(engine))
                    .coverage
            };
            let decoded = certify(ExecEngine::Decoded);
            let jit = certify(ExecEngine::Jit);
            assert_eq!(jit, decoded, "{label}: certified report diverged under jit");
        }
    }
}

/// The fault-model column of the matrix: every generalized fault model is
/// pinned decoded == legacy, both per-fault (full provenance records plus
/// raw results over model-sampled batteries) and per-campaign (identical
/// histograms under identical seeds).
#[test]
fn generalized_fault_models_match_across_engines() {
    let store = ArtifactStore::new();
    let w = AdpcmDec {
        samples: 60,
        seed: 7,
    };
    for technique in [Technique::SwiftR, Technique::Cfcss] {
        let artifact = store.get(&w, technique, &Default::default(), &LowerConfig::default());
        let decoded = Runner::with_images(
            &artifact.program,
            &engine_cfg(ExecEngine::Decoded, 7),
            Some(Arc::clone(&artifact.decoded)),
            None,
        );
        let legacy = Runner::new(&artifact.program, &engine_cfg(ExecEngine::Legacy, 7));
        let jit = Runner::with_images(
            &artifact.program,
            &engine_cfg(ExecEngine::Jit, 7),
            Some(Arc::clone(&artifact.decoded)),
            artifact.jit_for(ExecEngine::Jit),
        );
        let golden_len = legacy.golden().dyn_instrs;
        let ctx = SampleCtx::for_program(&artifact.program, golden_len);
        for model in FaultModel::ALL {
            let label = format!("{}/{technique}/{model}", w.name());
            let mut rng = SmallRng::seed_from_u64(0x40DE1 ^ golden_len);
            let mut d_replayer = decoded.replayer();
            let mut l_replayer = legacy.replayer();
            let mut j_replayer = jit.replayer();
            for _ in 0..12 {
                let fault = model.sample(&mut rng, &ctx);
                let (d_rec, d_res) = d_replayer.run_fault_record_gen(fault);
                let (l_rec, l_res) = l_replayer.run_fault_record_gen(fault);
                let (j_rec, j_res) = j_replayer.run_fault_record_gen(fault);
                assert_eq!(d_rec, l_rec, "{label}: record diverged across engines");
                assert_eq!(d_res, l_res, "{label}: result diverged across engines");
                assert_eq!(j_rec, l_rec, "{label}: jit record diverged across engines");
                assert_eq!(j_res, l_res, "{label}: jit result diverged across engines");
            }

            let cfg = |engine| CampaignConfig {
                runs: 32,
                seed: 11,
                threads: 2,
                engine,
                fault_model: model,
                ..Default::default()
            };
            let d = run_campaign(&w, technique, &cfg(ExecEngine::Decoded));
            let l = run_campaign(&w, technique, &cfg(ExecEngine::Legacy));
            assert_eq!(
                d.counts, l.counts,
                "{label}: histogram diverged across engines"
            );
            assert_eq!(d.golden_instrs, l.golden_instrs, "{label}");
            let j = run_campaign(&w, technique, &cfg(ExecEngine::Jit));
            assert_eq!(
                j.counts, l.counts,
                "{label}: jit histogram diverged across engines"
            );
        }
    }
}

/// Seeded per-fault fuzz over every generalized fault model at a short
/// checkpoint interval: decoded, jit and legacy replay agree on full
/// records and raw results, including faults drawn past the end of the
/// run, which must classify unACE on every engine.
fn fuzz_models_cell(w: &dyn Workload, technique: Technique, seed: u64) {
    let store = ArtifactStore::new();
    let artifact = store.get(w, technique, &Default::default(), &LowerConfig::default());
    let decoded = Runner::with_images(
        &artifact.program,
        &engine_cfg(ExecEngine::Decoded, 7),
        Some(Arc::clone(&artifact.decoded)),
        None,
    );
    let legacy = Runner::new(&artifact.program, &engine_cfg(ExecEngine::Legacy, 7));
    let jit = Runner::with_images(
        &artifact.program,
        &engine_cfg(ExecEngine::Jit, 7),
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(ExecEngine::Jit),
    );
    let golden_len = legacy.golden().dyn_instrs;
    let ctx = SampleCtx::for_program(&artifact.program, golden_len);
    let mut rng = SmallRng::seed_from_u64(seed ^ golden_len);
    let mut d_replayer = decoded.replayer();
    let mut l_replayer = legacy.replayer();
    let mut j_replayer = jit.replayer();
    for model in FaultModel::ALL {
        let label = format!("{}/{technique}/{model}", w.name());
        for i in 0..10u64 {
            let mut fault = model.sample(&mut rng, &ctx);
            if i % 3 == 2 {
                fault = GenFault::new(golden_len + 1 + i, fault.effect);
            }
            let (d_rec, d_res) = d_replayer.run_fault_record_gen(fault);
            let (l_rec, l_res) = l_replayer.run_fault_record_gen(fault);
            let (j_rec, j_res) = j_replayer.run_fault_record_gen(fault);
            assert_eq!(d_rec, l_rec, "{label}: record diverged across engines");
            assert_eq!(d_res, l_res, "{label}: result diverged across engines");
            assert_eq!(j_rec, l_rec, "{label}: jit record diverged across engines");
            assert_eq!(j_res, l_res, "{label}: jit result diverged across engines");
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

/// Checkpointing stays an engine-independent pure optimization: decoded
/// replay with checkpoints equals legacy from-scratch execution, the
/// strongest cross-engine x cross-strategy cell of the matrix.
#[test]
fn decoded_checkpointed_replay_matches_legacy_from_scratch() {
    let store = ArtifactStore::new();
    let w = AdpcmDec {
        samples: 60,
        seed: 9,
    };
    let artifact = store.get(
        &w,
        Technique::SwiftR,
        &Default::default(),
        &LowerConfig::default(),
    );
    let decoded = Runner::with_images(
        &artifact.program,
        &engine_cfg(ExecEngine::Decoded, 5),
        Some(Arc::clone(&artifact.decoded)),
        None,
    );
    let jit = Runner::with_images(
        &artifact.program,
        &engine_cfg(ExecEngine::Jit, 5),
        Some(Arc::clone(&artifact.decoded)),
        artifact.jit_for(ExecEngine::Jit),
    );
    let legacy_scratch = Runner::new(&artifact.program, &engine_cfg(ExecEngine::Legacy, 0));
    let golden_len = legacy_scratch.golden().dyn_instrs;
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let mut d_replayer = decoded.replayer();
    let mut j_replayer = jit.replayer();
    let mut l_replayer = legacy_scratch.replayer();
    for _ in 0..24 {
        let f = FaultSpec::sample(&mut rng, golden_len);
        let (d_outcome, d_res) = d_replayer.run_fault(f);
        let (j_outcome, j_res) = j_replayer.run_fault(f);
        let (l_outcome, l_res) = l_replayer.run_fault(f);
        assert_eq!(d_outcome, l_outcome, "{f}");
        assert_eq!(d_res, l_res, "{f}");
        assert_eq!(j_outcome, l_outcome, "{f}: jit");
        assert_eq!(j_res, l_res, "{f}: jit");
    }
}

/// With executable mappings refused, as a W^X policy refuses them
/// (simulated through `sor-sim`'s thread-local test seam, not a kernel
/// setting), native compilation fails with the `mprotect` error and a jit
/// campaign runs on the decoded interpreter instead, with a result equal
/// to the native campaign's.
#[test]
fn refused_exec_mappings_fall_back_to_decoded() {
    let w = AdpcmDec {
        samples: 100,
        seed: 3,
    };
    let cfg = CampaignConfig {
        runs: 60,
        seed: 11,
        threads: 1,
        ..Default::default()
    };
    assert_eq!(cfg.engine, ExecEngine::Jit);
    let lower = LowerConfig::default();
    for technique in [Technique::SwiftR, Technique::Trump] {
        let refused = sor_sim::with_exec_mappings_refused(|| {
            let store = ArtifactStore::new();
            let art = store.get(&w, technique, &Default::default(), &lower);
            let err = sor_sim::JitProg::compile(&art.decoded, &art.program)
                .expect_err("executable mappings are refused");
            if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
                assert_eq!(
                    err,
                    sor_sim::JitError::Sys {
                        call: "mprotect",
                        errno: 13
                    }
                );
            }
            assert!(art.jit_for(ExecEngine::Jit).is_none());
            run_campaign_in(&store, &w, technique, &cfg)
        });
        let store = ArtifactStore::new();
        let native = run_campaign_in(&store, &w, technique, &cfg);
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            let art = store.get(&w, technique, &Default::default(), &lower);
            assert!(art.jit_for(ExecEngine::Jit).is_some(), "{technique}");
        }
        assert_eq!(format!("{refused:?}"), format!("{native:?}"), "{technique}");
    }
}

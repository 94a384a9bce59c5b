//! Performance measurement via the timing model (paper §7.2).

use crate::artifact::ArtifactStore;
use sor_core::Technique;
use sor_regalloc::LowerConfig;
use sor_sim::{Machine, MachineConfig, TimingConfig};
use sor_workloads::Workload;
use std::sync::Arc;

/// Performance-run parameters.
#[derive(Debug, Clone, Default)]
pub struct PerfConfig {
    /// Timing model configuration (issue width, cache, penalties).
    pub timing: TimingConfig,
    /// Transform configuration.
    pub transform: sor_core::TransformConfig,
}

/// One fault-free timed execution.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Workload name.
    pub workload: String,
    /// Technique.
    pub technique: Technique,
    /// Model cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub dyn_instrs: u64,
    /// L1-D miss ratio.
    pub miss_ratio: f64,
}

impl PerfResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.dyn_instrs as f64 / self.cycles.max(1) as f64
    }
}

/// Runs `workload` under `technique` with the timing model, fault-free.
/// Program preparation is served from `store`, so a timing run after a
/// reliability campaign on the same coordinates reuses the campaign's
/// transformed program (a one-off run passes `&ArtifactStore::new()`).
pub fn measure_perf_in(
    store: &ArtifactStore,
    workload: &dyn Workload,
    technique: Technique,
    cfg: &PerfConfig,
) -> PerfResult {
    let artifact = store.get(workload, technique, &cfg.transform, &LowerConfig::default());
    let program = &artifact.program;
    let mcfg = MachineConfig {
        timing: Some(cfg.timing.clone()),
        ..MachineConfig::default()
    };
    let r = Machine::with_images(program, &mcfg, Arc::clone(&artifact.decoded), None).run(None);
    assert_eq!(
        r.status,
        sor_sim::RunStatus::Completed,
        "{}/{technique} did not complete",
        workload.name()
    );
    let hits = r.cache_hits.unwrap_or(0);
    let misses = r.cache_misses.unwrap_or(0);
    PerfResult {
        workload: workload.name().to_string(),
        technique,
        cycles: r.cycles.expect("timing enabled"),
        dyn_instrs: r.dyn_instrs,
        miss_ratio: misses as f64 / (hits + misses).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_workloads::{AdpcmDec, Art, Mcf};

    #[test]
    fn swiftr_costs_more_cycles_than_noft() {
        let w = AdpcmDec {
            samples: 200,
            seed: 1,
        };
        let cfg = PerfConfig::default();
        let store = ArtifactStore::new();
        let noft = measure_perf_in(&store, &w, Technique::Noft, &cfg);
        let swiftr = measure_perf_in(&store, &w, Technique::SwiftR, &cfg);
        let ratio = swiftr.cycles as f64 / noft.cycles as f64;
        assert!(ratio > 1.2, "SWIFT-R ratio {ratio}");
        // But far below the naive 3x, thanks to spare ILP.
        assert!(ratio < 3.2, "SWIFT-R ratio {ratio}");
        assert!(swiftr.dyn_instrs > noft.dyn_instrs * 2);
    }

    #[test]
    fn fp_workload_is_barely_slowed() {
        let w = Art {
            neurons: 6,
            inputs: 24,
            epochs: 2,
            seed: 2,
        };
        let cfg = PerfConfig::default();
        let store = ArtifactStore::new();
        let noft = measure_perf_in(&store, &w, Technique::Noft, &cfg);
        let swiftr = measure_perf_in(&store, &w, Technique::SwiftR, &cfg);
        let ratio = swiftr.cycles as f64 / noft.cycles as f64;
        // The campaign-sized `art` measures ~1.66x (see EXPERIMENTS.md);
        // this reduced instance has proportionally more integer loop
        // machinery around its FP work, so allow a little headroom.
        assert!(ratio < 2.3, "art SWIFT-R ratio {ratio} should be modest");
    }

    #[test]
    fn memory_bound_workload_hides_overhead() {
        let w = Mcf {
            nodes: 8192,
            steps: 1500,
            seed: 2,
        };
        let cfg = PerfConfig::default();
        let store = ArtifactStore::new();
        let noft = measure_perf_in(&store, &w, Technique::Noft, &cfg);
        assert!(noft.miss_ratio > 0.2, "miss ratio {}", noft.miss_ratio);
        let trump = measure_perf_in(&store, &w, Technique::Trump, &cfg);
        let ratio = trump.cycles as f64 / noft.cycles as f64;
        assert!(ratio < 1.9, "mcf TRUMP ratio {ratio}");
    }
}

//! The shared program-artifact store.
//!
//! Every consumer of a transformed program — the Figure 8 reliability
//! campaigns, the Figure 9 timing runs, the headline summary that needs
//! both — starts from the same preparation: build the workload module, run
//! the technique's pass pipeline, lower to an executable [`Program`]. Before
//! this store existed each consumer redid that work; `fig8` + `fig9` +
//! `headline` prepared every (workload, technique) pair three times over.
//!
//! [`ArtifactStore`] memoizes the preparation behind an
//! [`ArtifactKey`] — `(source content digest, technique, TransformConfig,
//! LowerConfig)` — and hands out [`Arc`]-shared [`Artifact`]s holding the
//! transformed module, the lowered program and the pipeline's
//! instrumentation report. The store is `Sync`: campaign drivers and
//! figure runners can share one instance across threads.
//!
//! Workload names do not encode their parameters, so a *name* alone cannot
//! distinguish `AdpcmDec { samples: 40 }` from `AdpcmDec { samples: 400 }`.
//! The store used to keep the source [`Module`] inside each artifact and
//! deep-compare it against a fresh build on every hit; the key now carries
//! the source module's [`ContentHash`] instead, so differently
//! parameterized builds of the same workload occupy distinct cache slots
//! and a hit never needs (or stores) the source module at all.

use sor_core::{Pipeline, PipelineReport, Technique, TransformConfig};
use sor_ir::{ContentHash, Digest, Module, Program};
use sor_regalloc::{lower, LowerConfig};
use sor_sim::{DecodedProg, ExecEngine, JitProg};
use sor_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The coordinates that fully determine a prepared program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Workload name ([`Workload::name`]), kept for diagnostics.
    pub workload: String,
    /// Content digest of the untransformed source module — this is what
    /// actually distinguishes same-name, differently-parameterized
    /// workload builds (see the module docs).
    pub source: ContentHash,
    /// Protection technique.
    pub technique: Technique,
    /// Check-placement policy the pipeline ran under.
    pub transform: TransformConfig,
    /// Lowering options.
    pub lower: LowerConfig,
}

/// One fully prepared program: everything downstream of `workload.build()`.
#[derive(Debug)]
pub struct Artifact {
    /// The module after the technique's pipeline.
    pub module: Module,
    /// The lowered executable image.
    pub program: Program,
    /// The program predecoded for the micro-op engine, translated once
    /// here so every campaign/certify/triage consumer of this artifact
    /// shares one image instead of re-decoding per [`sor_sim::Runner`].
    pub decoded: Arc<DecodedProg>,
    /// The native image for the jit engine, compiled lazily on the first
    /// [`Artifact::jit_for`] request so the decoded/legacy oracles never
    /// pay for it. `Some(None)` records a failed compilation (degraded to the
    /// decoded interpreter) so it is not retried per runner.
    jit: OnceLock<Option<Arc<JitProg>>>,
    /// Per-pass instrumentation from the pipeline run.
    pub report: PipelineReport,
}

impl Artifact {
    /// The shared native image for `engine`: compiles (once, memoized)
    /// under [`ExecEngine::Jit`], the default, and is `None` under the
    /// oracle engines or when native compilation is unavailable (the
    /// runner then degrades to the decoded interpreter). Taking the engine
    /// is the test hook that lets differential tests skip the compile.
    pub fn jit_for(&self, engine: ExecEngine) -> Option<Arc<JitProg>> {
        if engine != ExecEngine::Jit {
            return None;
        }
        self.jit
            .get_or_init(|| JitProg::try_compile(&self.decoded, &self.program))
            .clone()
    }
}

/// A memoized map from [`ArtifactKey`] to shared [`Artifact`]s.
///
/// ```
/// use sor_core::{Technique, TransformConfig};
/// use sor_harness::ArtifactStore;
/// use sor_regalloc::LowerConfig;
/// use sor_workloads::AdpcmDec;
///
/// let store = ArtifactStore::new();
/// let w = AdpcmDec { samples: 40, seed: 1 };
/// let tc = TransformConfig::default();
/// let lc = LowerConfig::default();
/// let a = store.get(&w, Technique::SwiftR, &tc, &lc);
/// let b = store.get(&w, Technique::SwiftR, &tc, &lc);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((store.misses(), store.hits()), (1, 1));
/// ```
#[derive(Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<ArtifactKey, Arc<Artifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Returns the prepared artifact for the given coordinates, building
    /// (and caching) it on first request.
    ///
    /// The workload module is always rebuilt so its content digest can key
    /// the lookup; only the transform + lower work — the expensive part —
    /// is memoized. The map lock is never held while building, so
    /// concurrent first requests for the same key may both build; they
    /// produce identical artifacts and the last insert wins.
    ///
    /// # Panics
    ///
    /// Panics if lowering fails — same contract as the campaign and perf
    /// drivers, whose results would be meaningless without a program.
    pub fn get(
        &self,
        workload: &dyn Workload,
        technique: Technique,
        transform: &TransformConfig,
        lower_cfg: &LowerConfig,
    ) -> Arc<Artifact> {
        let source = workload.build();
        let key = ArtifactKey {
            workload: workload.name().to_string(),
            source: source.content_digest(),
            technique,
            transform: transform.clone(),
            lower: lower_cfg.clone(),
        };
        let cached = self.map.lock().unwrap().get(&key).cloned();
        if let Some(a) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return a;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(build_artifact(source, &key));
        self.map.lock().unwrap().insert(key, Arc::clone(&artifact));
        artifact
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to build (first requests and parameter-mismatch
    /// fallbacks).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn build_artifact(source: Module, key: &ArtifactKey) -> Artifact {
    let out = Pipeline::for_technique(key.technique)
        .run(&source, &key.transform)
        .expect("verification disabled; passes are infallible");
    let program = lower(&out.module, &key.lower)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", key.workload, key.technique));
    let decoded = Arc::new(DecodedProg::new(&program));
    Artifact {
        module: out.module,
        program,
        decoded,
        jit: OnceLock::new(),
        report: out.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_workloads::AdpcmDec;

    #[test]
    fn hit_shares_the_artifact() {
        let store = ArtifactStore::new();
        let w = AdpcmDec {
            samples: 40,
            seed: 1,
        };
        let tc = TransformConfig::default();
        let lc = LowerConfig::default();
        let a = store.get(&w, Technique::Trump, &tc, &lc);
        let b = store.get(&w, Technique::Trump, &tc, &lc);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_coordinates_get_distinct_artifacts() {
        let store = ArtifactStore::new();
        let w = AdpcmDec {
            samples: 40,
            seed: 1,
        };
        let tc = TransformConfig::default();
        let lc = LowerConfig::default();
        let noft = store.get(&w, Technique::Noft, &tc, &lc);
        let swiftr = store.get(&w, Technique::SwiftR, &tc, &lc);
        assert!(swiftr.module.inst_count() > noft.module.inst_count());
        let sparse = store.get(
            &w,
            Technique::SwiftR,
            &TransformConfig::addresses_only(),
            &lc,
        );
        assert!(sparse.module.inst_count() < swiftr.module.inst_count());
        assert_eq!(store.hits(), 0);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn parameter_mismatch_never_serves_the_wrong_program() {
        let store = ArtifactStore::new();
        let tc = TransformConfig::default();
        let lc = LowerConfig::default();
        let small = AdpcmDec {
            samples: 40,
            seed: 1,
        };
        let big = AdpcmDec {
            samples: 200,
            seed: 1,
        };
        let a = store.get(&small, Technique::SwiftR, &tc, &lc);
        // Same name, different workload parameters: the source digest in
        // the key keeps them apart, so this is a miss into its own slot.
        let b = store.get(&big, Technique::SwiftR, &tc, &lc);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 2);
        assert_eq!(store.len(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.program, b.program);
        // Both entries serve hits afterwards — unlike the old deep-compare
        // scheme, which rebuilt the mismatched parameterization every time.
        let c = store.get(&small, Technique::SwiftR, &tc, &lc);
        let d = store.get(&big, Technique::SwiftR, &tc, &lc);
        assert!(Arc::ptr_eq(&a, &c));
        assert!(Arc::ptr_eq(&b, &d));
        assert_eq!(store.hits(), 2);
    }

    #[test]
    fn jit_image_is_memoized_per_artifact() {
        let store = ArtifactStore::new();
        let w = AdpcmDec {
            samples: 40,
            seed: 1,
        };
        let a = store.get(
            &w,
            Technique::SwiftR,
            &TransformConfig::default(),
            &LowerConfig::default(),
        );
        assert!(a.jit_for(ExecEngine::Decoded).is_none());
        assert!(a.jit_for(ExecEngine::Legacy).is_none());
        let j1 = a.jit_for(ExecEngine::Jit);
        let j2 = a.jit_for(ExecEngine::Jit);
        match (j1, j2) {
            (Some(x), Some(y)) => assert!(Arc::ptr_eq(&x, &y), "compiled twice"),
            (None, None) => {} // degraded environment stays degraded
            _ => panic!("jit availability flapped between requests"),
        }
    }

    #[test]
    fn artifact_matches_the_direct_path() {
        let store = ArtifactStore::new();
        let w = AdpcmDec {
            samples: 60,
            seed: 2,
        };
        let tc = TransformConfig::default();
        let lc = LowerConfig::default();
        let a = store.get(&w, Technique::TrumpSwiftR, &tc, &lc);
        let direct = Technique::TrumpSwiftR.apply_with(&w.build(), &tc);
        assert_eq!(a.module, direct);
        assert_eq!(a.program, lower(&direct, &lc).unwrap());
        assert!(a.report.totals().fuses > 0 || a.report.totals().votes > 0);
    }
}

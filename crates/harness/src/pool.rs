//! The shared injection worker pool.
//!
//! Every campaign flavour — sampled ([`crate::run_campaign_in`]), triaged
//! ([`crate::run_triaged_campaign_resumable`]) and certified
//! ([`crate::certify_resumable`]), under every fault model — injects
//! through [`inject_faults`]: resolve the thread count, spawn scoped
//! workers, give each a reusable machine arena, work-steal fault indices
//! off a shared atomic, fold per-worker results, merge commutatively. Its
//! input is a list of [`sor_sim::GenFault`]s; the paper's SEU is the
//! `RegXor { mask: 1 << bit }` case. Each worker drives one scalar
//! [`sor_sim::Replayer`] of the runner's engine. Because every fold target
//! merges commutatively and the fold receives the fault's index, results
//! are bit-identical whatever the thread count or steal order — the matrix
//! the differential tests pin.

use sor_ir::Program;
use sor_sim::{
    DecodedProg, ExecEngine, GenFault, GenFaultRecord, MachineConfig, RunResult, Runner,
};
use sor_stats::OutcomeCounts;
use sor_triage::VulnerabilityProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Resolves a configured worker-thread knob (`0` = all available cores)
/// to the actual pool size.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Builds the injection runner every campaign flavour shares: the golden
/// run plus its auto-sized checkpoint store, optionally reusing
/// predecoded and compiled native images from the artifact store.
pub(crate) fn build_runner<'p>(
    program: &'p Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<sor_sim::JitProg>>,
    engine: ExecEngine,
) -> Runner<'p> {
    let mcfg = MachineConfig {
        engine,
        ..MachineConfig::default()
    };
    Runner::with_images(program, &mcfg, decoded, jit)
}

/// A campaign accumulator: per-worker partial results merge commutatively,
/// so pooled injection is thread-count and steal-order independent.
pub(crate) trait Accumulate: Default + Send {
    fn absorb(&mut self, other: Self);
}

impl Accumulate for OutcomeCounts {
    fn absorb(&mut self, other: Self) {
        *self += other;
    }
}

impl Accumulate for VulnerabilityProfile {
    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }
}

/// Indexed histogram slots (the certified campaign's per-class counts):
/// workers touch disjoint indices, so element-wise summing reassembles
/// the exact per-slot results.
impl Accumulate for Vec<OutcomeCounts> {
    fn absorb(&mut self, other: Self) {
        if self.len() < other.len() {
            self.resize(other.len(), OutcomeCounts::default());
        }
        for (slot, counts) in self.iter_mut().zip(other) {
            *slot += counts;
        }
    }
}

/// Runs every fault in `faults` across a work-stealing worker pool and
/// folds the provenance-annotated results into an [`Accumulate`] target.
///
/// `fold` is called once per fault with the fault's index in `faults`,
/// its [`GenFaultRecord`] and the raw [`RunResult`].
pub(crate) fn inject_faults<A, F>(
    runner: &Runner<'_>,
    faults: &[GenFault],
    threads: usize,
    fold: F,
) -> A
where
    A: Accumulate,
    F: Fn(&mut A, usize, &GenFaultRecord, &RunResult) + Sync,
{
    let next = AtomicUsize::new(0);
    let (fold, next) = (&fold, &next);
    let workers = resolve_threads(threads).max(1).min(faults.len().max(1));
    let mut total = A::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    // One reusable machine arena per worker: registers,
                    // frame stack and memory are recycled across runs.
                    let mut acc = A::default();
                    let mut replayer = runner.replayer();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&fault) = faults.get(i) else { break };
                        let (rec, res) = replayer.run_fault_record_gen(fault);
                        fold(&mut acc, i, &rec, &res);
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("injection worker panicked"));
        }
    });
    total
}

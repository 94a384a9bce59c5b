//! The shared injection worker pool.
//!
//! Every campaign flavour — sampled ([`crate::run_campaign`]), triaged
//! ([`crate::run_triaged_campaign`]) and certified
//! ([`crate::run_certified_campaign`]), under every fault model — injects
//! through [`inject_faults`]: resolve the thread count, spawn scoped
//! workers, give each a reusable machine arena, work-steal fault indices
//! off a shared atomic, fold per-worker results, merge commutatively. Its
//! input is a list of [`sor_sim::GenFault`]s; the paper's SEU is the
//! `RegXor { mask: 1 << bit }` case.
//!
//! It is also where lane batching composes with work-stealing. When lanes
//! are requested and every fault is an SEU, the fault list is stably
//! sorted by injection slot and cut into lane-width groups — a *group*
//! becomes the work-stealing unit, and each worker drives a
//! [`sor_sim::LaneReplayer`] instead of a scalar [`sor_sim::Replayer`].
//! Sorting maximizes the shared lockstep prefix within a group; for
//! certified campaigns, whose flattened fault list is 64 same-slot faults
//! per read-window equivalence class, sorted groups tile the classes
//! exactly (64 is divisible by every supported width). Because every fold
//! target merges commutatively and the fold receives the fault's
//! *original* index, results are bit-identical whatever the thread count,
//! lane width or steal order — the matrix the differential tests pin.

use sor_ir::Program;
use sor_sim::{
    DecodedProg, ExecEngine, FaultSpec, GenFault, GenFaultRecord, MachineConfig, RunResult, Runner,
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

/// Resolves a configured lane knob against what the runner can support:
/// lane execution needs the predecoded image, widths are {2, 4, 8, 16} (a
/// request in between rounds down), and anything below 2 is scalar.
pub fn resolve_lanes(runner: &Runner<'_>, lanes: usize) -> usize {
    if runner.decoded().is_none() || lanes < 2 {
        1
    } else if lanes >= 16 {
        16
    } else if lanes >= 8 {
        8
    } else if lanes >= 4 {
        4
    } else {
        2
    }
}

/// Builds the injection runner every campaign flavour shares: the golden
/// run plus checkpoint store, optionally reusing predecoded and compiled
/// native images from the artifact store.
pub(crate) fn build_runner<'p>(
    program: &'p Program,
    decoded: Option<Arc<DecodedProg>>,
    jit: Option<Arc<sor_sim::JitProg>>,
    checkpoint_interval: u64,
    engine: ExecEngine,
) -> Runner<'p> {
    let mcfg = MachineConfig {
        checkpoint_interval,
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
/// `fold` is called once per fault with the fault's index in `faults`
/// (original order — lane batching reorders execution, not attribution),
/// its [`GenFaultRecord`] and the raw [`RunResult`].
///
/// The SPMD lane engine vectorizes the single-bit register SEU only, so
/// the list runs in lane groups when `lanes` resolves above 1 *and* every
/// fault is an SEU ([`GenFault::as_spec`]); otherwise it runs scalar.
/// Results are bit-identical either way — the choice is an execution
/// strategy read off the input, not a semantic one.
pub(crate) fn inject_faults<A, F>(
    runner: &Runner<'_>,
    faults: &[GenFault],
    threads: usize,
    lanes: usize,
    fold: F,
) -> A
where
    A: Accumulate,
    F: Fn(&mut A, usize, &GenFaultRecord, &RunResult) + Sync,
{
    let lanes = resolve_lanes(runner, lanes);
    let specs: Option<Vec<FaultSpec>> = if lanes > 1 {
        faults.iter().map(GenFault::as_spec).collect()
    } else {
        None
    };
    let width = if specs.is_some() { lanes } else { 1 };
    // The work-stealing unit is one fault, or one lane group cut from the
    // list stably sorted by injection slot so each group shares the
    // longest possible pre-fault lockstep prefix.
    let mut order: Vec<usize> = (0..faults.len()).collect();
    if width > 1 {
        order.sort_by_key(|&i| faults[i].at_instr);
    }
    let next = AtomicUsize::new(0);
    let (fold, specs, order, next) = (&fold, &specs, &order, &next);
    let units = order.len().div_ceil(width);
    let workers = resolve_threads(threads).max(1).min(units.max(1));
    let mut total = A::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    // One reusable machine arena (or lane pack plus its
                    // eviction machines) per worker: registers, frame
                    // stack and memory are recycled across runs.
                    let mut acc = A::default();
                    let steal = || {
                        order
                            .chunks(width)
                            .nth(next.fetch_add(1, Ordering::Relaxed))
                    };
                    match specs {
                        None => {
                            let mut replayer = runner.replayer();
                            while let Some(idxs) = steal() {
                                for &i in idxs {
                                    let (rec, res) = replayer.run_fault_record_gen(faults[i]);
                                    fold(&mut acc, i, &rec, &res);
                                }
                            }
                        }
                        Some(specs) => {
                            let mut replayer = runner.lane_replayer(width);
                            let mut group = Vec::with_capacity(width);
                            while let Some(idxs) = steal() {
                                group.clear();
                                group.extend(idxs.iter().map(|&i| specs[i]));
                                let results = replayer.run_fault_group_records(&group);
                                for (&i, (rec, res)) in idxs.iter().zip(&results) {
                                    fold(&mut acc, i, rec, res);
                                }
                            }
                        }
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

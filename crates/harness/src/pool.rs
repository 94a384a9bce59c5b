//! The shared injection worker pool.
//!
//! Every campaign flavour — sampled ([`crate::run_campaign_in`]), triaged
//! ([`crate::run_triaged_campaign_resumable`]) and certified
//! ([`crate::certify_resumable`]), under every fault model — injects
//! through [`with_workers`]: resolve the thread count, spawn scoped
//! workers once per driver call (the calling thread is one of them),
//! give each a reusable machine arena (one [`sor_sim::Replayer`] of the
//! runner's engine), then feed them
//! batches of [`sor_sim::GenFault`]s one at a time — a driver's sections,
//! or a one-shot campaign's whole list ([`inject_faults`]). Within a
//! batch the workers work-steal fault indices off a shared atomic, fold
//! per-worker results, and the batch's results merge commutatively. The
//! paper's SEU is the `RegXor { mask: 1 << bit }` case. Because every
//! fold target merges commutatively and the fold receives the fault's
//! index within its batch, results are bit-identical whatever the thread
//! count or steal order — the matrix the differential tests pin.

use sor_ir::Program;
use sor_sim::{
    DecodedProg, ExecEngine, GenFault, GenFaultRecord, MachineConfig, Replayer, RunResult, Runner,
};
use sor_stats::OutcomeCounts;
use sor_triage::VulnerabilityProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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
/// folds the provenance-annotated results into an [`Accumulate`] target:
/// [`with_workers`] fed a single batch.
///
/// `fold` is called once per fault with the fault's index in `faults`,
/// its [`GenFaultRecord`] and the raw [`RunResult`].
pub(crate) fn inject_faults<A, F>(
    runner: &Runner<'_>,
    faults: Vec<GenFault>,
    threads: usize,
    fold: F,
) -> A
where
    A: Accumulate,
    F: Fn(&mut A, usize, &GenFaultRecord, &RunResult) + Sync,
{
    let most = faults.len();
    with_workers(runner, threads, most, fold, |w| w.inject(faults))
}

/// One batch of faults the workers share, stolen by index.
struct Batch {
    faults: Vec<GenFault>,
    next: AtomicUsize,
}

impl Batch {
    /// Steals faults until the batch runs dry, folding each into a fresh
    /// accumulator.
    fn steal<A: Accumulate>(
        &self,
        replayer: &mut Replayer<'_, '_>,
        fold: &impl Fn(&mut A, usize, &GenFaultRecord, &RunResult),
    ) -> A {
        let mut acc = A::default();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&fault) = self.faults.get(i) else {
                return acc;
            };
            let (rec, res) = replayer.run_fault_record_gen(fault);
            fold(&mut acc, i, &rec, &res);
        }
    }
}

/// The open worker set of one [`with_workers`] call: the calling thread
/// and the spawned workers each keep one replayer for the whole call.
pub(crate) struct Workers<'r, 'p, A, F> {
    /// The calling thread's replayer, `None` when the pool is empty.
    own: Option<Replayer<'r, 'p>>,
    fold: &'r F,
    /// Per spawned worker: where its batches go, and where its result
    /// comes back.
    links: Vec<(Sender<Arc<Batch>>, Receiver<A>)>,
}

impl<A, F> Workers<'_, '_, A, F>
where
    A: Accumulate,
    F: Fn(&mut A, usize, &GenFaultRecord, &RunResult),
{
    /// Runs one batch across the calling thread and every worker, and
    /// returns the merged fold of its results. `fold` indices count from
    /// the batch's first fault.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked.
    pub(crate) fn inject(&mut self, faults: Vec<GenFault>) -> A {
        let Some(own) = &mut self.own else {
            assert!(
                faults.is_empty(),
                "a batch larger than the pool was opened for"
            );
            return A::default();
        };
        let batch = Arc::new(Batch {
            faults,
            next: AtomicUsize::new(0),
        });
        for (to, _) in &self.links {
            to.send(Arc::clone(&batch))
                .expect("injection worker panicked");
        }
        let mut total: A = batch.steal(own, self.fold);
        for (_, from) in &self.links {
            total.absorb(from.recv().expect("injection worker panicked"));
        }
        total
    }
}

/// Opens the worker pool for `runner` — `threads` workers (`0` = all
/// cores), the calling thread among them, but no more than `most`, the
/// largest batch the caller will feed, so none when there is nothing to
/// inject — and hands it to `body`, which feeds it batches through
/// [`Workers::inject`]. Each worker builds one replayer, so a driver that
/// injects section by section pays for workers and machine arenas once.
/// The spawned workers stop when `body` returns.
pub(crate) fn with_workers<A, F, R>(
    runner: &Runner<'_>,
    threads: usize,
    most: usize,
    fold: F,
    body: impl FnOnce(&mut Workers<'_, '_, A, F>) -> R,
) -> R
where
    A: Accumulate,
    F: Fn(&mut A, usize, &GenFaultRecord, &RunResult) + Sync,
{
    let fold = &fold;
    let n = resolve_threads(threads).min(most);
    std::thread::scope(|scope| {
        let links = (1..n)
            .map(|_| {
                let (to_worker, batches) = channel::<Arc<Batch>>();
                let (results, from_worker) = channel();
                scope.spawn(move || {
                    // One reusable machine arena per worker: registers,
                    // frame stack and memory are recycled across runs and
                    // batches.
                    let mut replayer = runner.replayer();
                    for batch in batches {
                        if results.send(batch.steal(&mut replayer, fold)).is_err() {
                            break;
                        }
                    }
                });
                (to_worker, from_worker)
            })
            .collect();
        let mut workers = Workers {
            own: (n > 0).then(|| runner.replayer()),
            fold,
            links,
        };
        let out = body(&mut workers);
        // Closing the batch channels stops the spawned workers; the scope
        // joins them.
        drop(workers);
        out
    })
}

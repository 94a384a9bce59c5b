//! Golden-run checkpoints for checkpoint-and-replay fault injection.
//!
//! Every injected run is bit-identical to the golden run up to the fault
//! point, so re-executing that prefix is pure waste — ZOFI (Porpodas 2019)
//! builds its "zero overhead" injection on exactly this observation. During
//! the golden run the [`crate::Runner`] captures an architectural snapshot
//! (register files, PC, call stack, output length, probe counters) every K
//! dynamic instructions, with memory captured incrementally as the
//! copy-on-write dirty-page delta since the previous checkpoint. A fault
//! run then restores the nearest checkpoint at or before its injection
//! point and executes only the suffix.

use crate::machine::{Frame, ProbeCounts, Val};
use crate::mem::PageSnapshot;
use sor_ir::{Fnv1a, NUM_FREGS, NUM_IREGS};

/// One architectural snapshot of the golden run, taken at the boundary
/// before the dynamic instruction with index [`Checkpoint::at`] executes.
///
/// Memory is stored as a delta ([`PageSnapshot`]) relative to the previous
/// checkpoint; restoring therefore reads the whole checkpoint prefix,
/// taking each page's newest image (see [`crate::Machine::restore`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Dynamic instruction index at which the state was captured.
    pub at: u64,
    pub(crate) iregs: [u64; NUM_IREGS],
    pub(crate) fregs: [f64; NUM_FREGS],
    pub(crate) pc: usize,
    pub(crate) frames: Vec<Frame>,
    pub(crate) pending_args: Vec<Val>,
    pub(crate) out_len: usize,
    pub(crate) probes: ProbeCounts,
    pub(crate) pages: PageSnapshot,
    /// Integer registers statically live at this boundary under this
    /// call stack (all of them when the run had no predecoded image). A
    /// fault run may differ from this checkpoint in the others and still
    /// rejoin the golden run here (DESIGN.md §11). Derived from `pc` and
    /// `frames`, so it stays out of the fingerprint.
    pub(crate) live: u32,
}

impl Checkpoint {
    /// Order-sensitive FNV-1a digest (the shared [`sor_ir::Fnv1a`] hasher)
    /// over every architectural field, with
    /// floats folded in by bit pattern. Two checkpoints with equal
    /// fingerprints captured the same state at the same boundary; the
    /// differential tests use this to pin snapshot equality across
    /// execution engines without exposing the internals.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.at);
        for r in self.iregs {
            h.u64(r);
        }
        for f in self.fregs {
            h.u64(f.to_bits());
        }
        h.u64(self.pc as u64);
        h.u64(self.frames.len() as u64);
        for frame in &self.frames {
            h.u64(frame.ret_pc as u64);
            let dsts = frame.ret_dsts.as_slice();
            h.u64(dsts.len() as u64);
            for d in dsts {
                std::hash::Hash::hash(d, &mut h);
            }
        }
        h.u64(self.pending_args.len() as u64);
        for v in &self.pending_args {
            match v {
                Val::I(i) => {
                    h.u64(0);
                    h.u64(*i);
                }
                Val::F(f) => {
                    h.u64(1);
                    h.u64(f.to_bits());
                }
            }
        }
        h.u64(self.out_len as u64);
        h.u64(self.probes.vote_repairs);
        h.u64(self.probes.trump_recovers);
        h.u64(self.pages.len() as u64);
        for (page, bytes) in self.pages.entries() {
            h.u64(*page as u64);
            h.bytes(bytes);
        }
        h.finish64()
    }
}

/// The ordered checkpoint sequence of one golden run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    cps: Vec<Checkpoint>,
}

impl CheckpointStore {
    /// Wraps a capture-ordered checkpoint sequence.
    pub fn new(cps: Vec<Checkpoint>) -> Self {
        debug_assert!(cps.windows(2).all(|w| w[0].at < w[1].at));
        CheckpointStore { cps }
    }

    /// An empty store: checkpointing disabled.
    pub fn disabled() -> Self {
        CheckpointStore::default()
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        self.cps.len()
    }

    /// All checkpoints in capture order.
    pub fn as_slice(&self) -> &[Checkpoint] {
        &self.cps
    }

    /// Whether checkpointing is disabled (no checkpoints stored).
    pub fn is_empty(&self) -> bool {
        self.cps.is_empty()
    }

    /// The checkpoint prefix ending at the nearest checkpoint at or before
    /// dynamic instruction `at` — the argument [`crate::Machine::restore`]
    /// expects — or `None` when the store is empty.
    pub fn prefix_for(&self, at: u64) -> Option<&[Checkpoint]> {
        let idx = self.cps.partition_point(|c| c.at <= at);
        if idx == 0 {
            None
        } else {
            Some(&self.cps[..idx])
        }
    }

    /// Total pages held across all checkpoint deltas (memory-footprint
    /// introspection for benches and tests).
    pub fn total_pages(&self) -> usize {
        self.cps.iter().map(|c| c.pages.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use sor_ir::{ModuleBuilder, Operand, Width};

    fn store_for_demo(interval: u64) -> (CheckpointStore, u64) {
        let mut mb = ModuleBuilder::new("ck");
        let mut f = mb.function("main");
        let mut x = f.movi(1);
        for _ in 0..10 {
            x = f.add(Width::W64, x, 3i64);
        }
        f.emit(Operand::reg(x));
        f.ret(&[]);
        let id = f.finish();
        let module = mb.finish(id);
        let program = sor_regalloc::lower(&module, &Default::default()).unwrap();
        let mut m = Machine::new(&program, &MachineConfig::default());
        m.enable_reuse();
        let (golden, cps) = m.run_golden_with_checkpoints(interval);
        (CheckpointStore::new(cps), golden.dyn_instrs)
    }

    #[test]
    fn checkpoints_cover_the_run_at_the_interval() {
        let (store, len) = store_for_demo(4);
        assert!(!store.is_empty());
        assert_eq!(store.cps[0].at, 0, "an instruction-0 checkpoint exists");
        assert!(store.len() as u64 >= len / 4, "{} checkpoints", store.len());
    }

    #[test]
    fn prefix_for_picks_nearest_at_or_before() {
        let (store, len) = store_for_demo(4);
        for at in 0..len {
            let prefix = store.prefix_for(at).expect("checkpoint 0 always covers");
            let last = prefix.last().unwrap();
            assert!(last.at <= at);
            // No later stored checkpoint also satisfies `at`.
            if prefix.len() < store.len() {
                assert!(store.cps[prefix.len()].at > at);
            }
        }
        assert!(store.prefix_for(u64::MAX).is_some());
    }

    #[test]
    fn empty_store_has_no_prefix() {
        assert!(CheckpointStore::disabled().prefix_for(0).is_none());
    }
}

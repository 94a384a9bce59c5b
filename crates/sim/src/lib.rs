//! # sor-sim — the architectural simulator
//!
//! Executes [`sor_ir::Program`] images and injects transient faults,
//! replacing the paper's PPC970 hardware and binary-instrumentation
//! injector.
//!
//! * [`Machine`] — functional execution over 32 integer + 32 float physical
//!   registers and a segmented memory (null guard / globals / stack /
//!   memory-mapped output). Any access outside a mapped segment terminates
//!   the run as a SEGV, division by zero and stack overflow likewise.
//! * [`GenFault`] / [`FaultEffect`] — the one fault type every engine
//!   executes, through one injection loop per engine: register XOR
//!   masks, PC corruption, data-memory bit flips and transient-ALU (SET)
//!   result corruption, each pinned bit-identical across the engines.
//!   Replay results carry their provenance as a [`GenFaultRecord`].
//! * [`FaultSpec`] — the paper's §7.1 fault model as a value: one bit of
//!   one integer register before one dynamic instruction (never the stack
//!   pointer — the paper excluded SP and TOC). It converts losslessly into
//!   the `RegXor { mask: 1 << bit }` [`GenFault`] it injects as, and is
//!   what the SEU sampler draws.
//! * [`DecodedProg`] / [`ExecEngine`] — the predecoded micro-op engine:
//!   programs are translated once into fully-resolved micro-ops grouped
//!   into straight-line superblocks, and the hot loop becomes a dense
//!   array index plus jump-table dispatch with fault/trace/checkpoint
//!   observation hoisted to superblock boundaries at exact dynamic-slot
//!   granularity. It is the span loop the jit engine drives and its
//!   fallback, and the loop every timed run executes;
//!   [`ExecEngine::Decoded`] runs it alone as a differential-testing
//!   oracle. The legacy tree-matching interpreter remains as the
//!   reference oracle, compiled only into tests and under the `legacy`
//!   cargo feature, with the per-instruction timing run
//!   `timing_reference` the span loop's timing is pinned against.
//! * [`JitProg`] — superblocks compiled to native x86-64 by a
//!   dependency-free template emitter ([`ExecEngine::Jit`], the default
//!   [`MachineConfig::engine`]): a compiled span either runs to its edge
//!   or side-exits to the interpreter, so fault slots, probes, fuel,
//!   traces and checkpoints are serviced at span edges exactly as the
//!   decoded engine does and every observable stays bit-identical. Falls
//!   back to the decoded interpreter (with a one-time warning) on targets
//!   the emitter does not cover or where the kernel refuses an executable
//!   mapping.
//! * [`TimingConfig`] — the parameters of the timing model, an
//!   out-of-order dataflow scheduler (issue-width-limited fetch and
//!   issue, finite in-order-retiring ROB) with an L1-D cache model, fed
//!   per-pc descriptors by the decoded span loop. It
//!   reproduces the two effects the paper's performance numbers hinge
//!   on: spare ILP absorbing independent redundant instructions, and
//!   memory-bound code hiding the transform overhead.
//! * [`Runner`] / [`Outcome`] — golden-vs-faulty comparison and the paper's
//!   unACE / SDC / SEGV classification. Fault runs use checkpoint-and-replay
//!   (see [`Checkpoint`]): the golden run's architectural state is
//!   snapshotted every K dynamic instructions with copy-on-write dirty-page
//!   memory deltas, and each injected run resumes from the nearest
//!   checkpoint at or before its fault point instead of re-executing the
//!   deterministic prefix — bit-exact with from-scratch execution, and
//!   roughly halving the architectural work per injection on average.

#![deny(clippy::undocumented_unsafe_blocks)]

mod alu;
mod cache;
mod checkpoint;
mod decode;
mod exec;
mod fault;
mod jit;
#[cfg(any(test, feature = "legacy"))]
mod legacy;
mod liveness;
mod machine;
mod mem;
mod outcome;
mod runner;
mod timing;
mod trace;

pub use cache::{Cache, CacheConfig};
pub use checkpoint::{Checkpoint, CheckpointStore};
pub use decode::DecodedProg;
pub use fault::{FaultEffect, FaultSpec, GenFault, INJECTABLE_REGS};
#[cfg(any(test, feature = "legacy"))]
pub use jit::with_exec_mappings_refused;
pub use jit::{JitError, JitProg};
#[cfg(any(test, feature = "legacy"))]
pub use legacy::timing_reference;
pub use machine::{ExecEngine, Machine, MachineConfig, ProbeCounts, RunResult, RunStatus};
pub use mem::{MemError, Memory, PageSnapshot, PAGE_SIZE};
pub use outcome::{classify, Outcome};
pub use runner::{EarlyExits, GenFaultRecord, Replayer, Runner};
pub use timing::{Latencies, TimingConfig};
pub use trace::TraceSink;

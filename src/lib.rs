//! # software-only-recovery
//!
//! A full reproduction of **"Automatic Instruction-Level Software-Only
//! Recovery"** (Chang, Reis & August, DSN 2006): the SWIFT-R, TRUMP and MASK
//! compiler transforms, their hybrids, and the fault-injection and
//! performance evaluation infrastructure needed to regenerate the paper's
//! Figure 8 (reliability) and Figure 9 (normalized execution time).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`ir`] — the compiler IR (modules, functions, blocks, instructions).
//! * [`analysis`] — CFG, liveness, known-bits and value-range analyses.
//! * [`regalloc`] — linear-scan register allocation and lowering.
//! * [`sim`] — the architectural simulator, SEU fault injection, timing.
//! * [`recovery`] — the paper's contribution: SWIFT, SWIFT-R, TRUMP, MASK
//!   and the TRUMP/SWIFT-R and TRUMP/MASK hybrids.
//! * [`workloads`] — the ten benchmark kernels mirroring the paper's suite.
//! * [`stats`] — outcome counting and confidence intervals.
//! * [`harness`] — fault campaigns, result caching and figure generation.
//!
//! ## Quickstart
//!
//! ```
//! use software_only_recovery::prelude::*;
//!
//! // Build a tiny program, protect it with SWIFT-R, and run it.
//! let mut mb = ModuleBuilder::new("demo");
//! let mut f = mb.function("main");
//! let x = f.movi(2);
//! let y = f.mul(Width::W64, x, 21i64);
//! f.emit(Operand::reg(y));
//! f.ret(&[]);
//! let main = f.finish();
//! let module = mb.finish(main);
//!
//! let protected = Technique::SwiftR.apply(&module);
//! let program = lower(&protected, &LowerConfig::default()).unwrap();
//! let result = Machine::new(&program, &MachineConfig::default()).run(None);
//! assert_eq!(result.output, vec![42]);
//! ```

pub use sor_analysis as analysis;
pub use sor_core as recovery;
pub use sor_harness as harness;
pub use sor_ir as ir;
pub use sor_regalloc as regalloc;
pub use sor_sim as sim;
pub use sor_stats as stats;
pub use sor_workloads as workloads;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use sor_core::{Technique, TransformConfig};
    pub use sor_harness::{
        run_campaign_in, ArtifactStore, CampaignConfig, CampaignResult, FigureEight, FigureNine,
        PerfConfig,
    };
    pub use sor_ir::{layout, MemWidth, Module, ModuleBuilder, Operand, RegClass, Width};
    pub use sor_regalloc::{lower, LowerConfig};
    pub use sor_sim::{FaultSpec, Machine, MachineConfig, Outcome, RunStatus};
    pub use sor_workloads::{all_workloads, Workload};
}

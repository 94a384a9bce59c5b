//! # sor-triage — per-fault-site vulnerability profiling and triage
//!
//! Campaign-level statistics (Figure 8's per-technique unACE / SDC / SEGV
//! percentages) say *whether* a technique works; triage says *where it
//! doesn't*. This crate aggregates provenance-annotated injections
//! ([`sor_sim::GenFaultRecord`]) into a [`VulnerabilityProfile`]: AVF-style
//! per-static-instruction, per-[protection-role](sor_ir::ProtectionRole)
//! and per-register outcome histograms with Wilson confidence intervals,
//! so residual SDCs can be attributed to the instruction and role they
//! slipped through.
//!
//! Two injection-efficiency strategies from the fault-injection literature
//! sit on top of the profile:
//!
//! * [`SectionalTriage`] — FastFlip-style compositional injection: the
//!   dynamic run is split into contiguous sections that are profiled
//!   independently and composed by histogram merge. Composition is exact
//!   (bit-for-bit equal to a monolithic campaign over the same faults),
//!   and when a code change invalidates only some sections, only those are
//!   re-injected.
//! * [`adaptive_profile`] — ZOFI-style adaptive statistical sampling: a
//!   stratified pilot pass locates fault sites, then refinement rounds
//!   spend the remaining budget only on sites whose SDC confidence
//!   interval still straddles the decision threshold, under a fixed-budget
//!   stop rule.
//!
//! [`cross_validate`] closes the loop against `sor-ace`: given a
//! [`CertifiedCoverage`](sor_ace::CertifiedCoverage) for the same program,
//! it checks that each well-sampled site's Wilson interval covers the
//! certified *exact* SDC rate — a calibration check on the sampler that no
//! amount of re-sampling can provide.

mod adaptive;
mod crosscheck;
mod profile;
mod section;

pub use adaptive::{adaptive_profile, AdaptiveConfig, AdaptiveResult};
pub use crosscheck::{cross_validate, CrossCheck, CrossMiss};
pub use profile::{SiteStats, VulnerabilityProfile};
pub use section::{Section, SectionalTriage};

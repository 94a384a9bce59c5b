//! The certified-coverage report: exact outcome fractions over the full
//! fault space, assembled from executed class representatives plus the
//! analytically-pruned dead windows.

use crate::liveness::CertPlan;
use crate::trace::DefUseTrace;
use sor_ir::{Program, ProtectionRole};
use sor_stats::OutcomeCounts;
use std::collections::BTreeMap;

/// Exact (not sampled) coverage of one (workload, technique) pair over
/// *every* fault site of the cube `golden_len x registers x 64 bits`.
///
/// `counts.total() == total_sites`: each site contributes exactly one
/// classified outcome, either expanded from its equivalence-class
/// representative or accounted unACE by the dead-site proof. The per-site
/// and per-role maps attribute every site to the static instruction (and
/// its [`ProtectionRole`]) the injection check lands on, exactly as
/// brute-force injection would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedCoverage {
    /// Workload name.
    pub workload: String,
    /// Technique display name.
    pub technique: String,
    /// Golden dynamic instruction count.
    pub golden_instrs: u64,
    /// Fault sites in the full cube.
    pub total_sites: u64,
    /// Sites pruned analytically as provably unACE.
    pub dead_sites: u64,
    /// Sites covered by executed representatives.
    pub live_sites: u64,
    /// Live read-window equivalence classes.
    pub classes: u64,
    /// Injections actually executed (`classes * 64`).
    pub injections_executed: u64,
    /// Exact outcome histogram over all sites.
    pub counts: OutcomeCounts,
    /// Exact per-static-instruction histograms.
    pub sites: BTreeMap<usize, OutcomeCounts>,
    /// Exact per-protection-role histograms.
    pub roles: BTreeMap<ProtectionRole, OutcomeCounts>,
}

impl CertifiedCoverage {
    /// Assembles the report from the plan and the executed class results.
    ///
    /// `class_results[i]` must be the aggregated histogram of the 64
    /// bit-injections at `plan.classes[i]`'s representative slot;
    /// `golden_recoveries` is the golden run's own recovery-probe count
    /// (what a run identical to golden reports), credited to every dead
    /// site's 64 un-executed injections.
    ///
    /// # Panics
    ///
    /// Panics if `class_results` does not line up with the plan.
    pub fn assemble(
        workload: &str,
        technique: &str,
        program: &Program,
        trace: &DefUseTrace,
        plan: &CertPlan,
        class_results: &[OutcomeCounts],
        golden_recoveries: u64,
    ) -> CertifiedCoverage {
        assert_eq!(
            class_results.len(),
            plan.classes.len(),
            "one executed histogram per live class"
        );
        // Every slot of a live window reaches the representative's read
        // with identical machine state, hence an identical histogram.
        let executed = plan
            .classes
            .iter()
            .zip(class_results)
            .map(|(r, &agg)| Window::executed(r.lo, r.hi, 64, agg));
        let dead = plan
            .dead
            .iter()
            .map(|r| Window::golden(r.lo, r.hi, 64, golden_recoveries));
        Self::walk(
            workload,
            technique,
            program,
            trace,
            plan.total_sites(),
            executed,
            dead,
        )
    }

    /// The window walk every plan shape assembles through: expands each
    /// executed class and each provably-unACE window over its slots,
    /// attributing every slot to the static instruction (and role) its
    /// injection check lands on.
    ///
    /// # Panics
    ///
    /// Panics if the windows do not tile `total_sites`.
    pub(crate) fn walk(
        workload: &str,
        technique: &str,
        program: &Program,
        trace: &DefUseTrace,
        total_sites: u64,
        executed: impl IntoIterator<Item = Window>,
        analytic: impl IntoIterator<Item = Window>,
    ) -> CertifiedCoverage {
        let mut report = CertifiedCoverage {
            workload: workload.to_string(),
            technique: technique.to_string(),
            golden_instrs: trace.len(),
            total_sites,
            dead_sites: 0,
            live_sites: 0,
            classes: 0,
            injections_executed: 0,
            counts: OutcomeCounts::default(),
            sites: BTreeMap::new(),
            roles: BTreeMap::new(),
        };
        let mut add = |w: &Window| {
            for slot in w.lo..=w.hi {
                let pc = trace.check_pc(slot);
                report.counts += w.agg;
                *report.sites.entry(pc).or_default() += w.agg;
                *report.roles.entry(program.role_of(pc)).or_default() += w.agg;
            }
            (w.hi - w.lo + 1) * w.per_slot
        };
        let (mut classes, mut injections, mut live, mut dead) = (0, 0, 0, 0);
        for w in executed {
            classes += 1;
            injections += w.per_slot;
            live += add(&w);
        }
        for w in analytic {
            dead += add(&w);
        }
        report.classes = classes;
        report.injections_executed = injections;
        report.live_sites = live;
        report.dead_sites = dead;
        assert_eq!(
            report.counts.total(),
            report.total_sites,
            "every site of the fault space contributes exactly one outcome"
        );
        report
    }

    /// How many times smaller the executed campaign is than the site cube.
    pub fn pruning_factor(&self) -> f64 {
        self.total_sites as f64 / (self.injections_executed.max(1)) as f64
    }

    /// Whether *every* single-bit fault is certified benign — the claim
    /// sampling can estimate but never prove.
    pub fn fully_unace(&self) -> bool {
        self.counts.unace == self.total_sites
    }
}

/// A run of slots `lo..=hi` whose every slot contributes `per_slot` fault
/// sites with the aggregate outcome histogram `agg`.
pub(crate) struct Window {
    lo: u64,
    hi: u64,
    per_slot: u64,
    agg: OutcomeCounts,
}

impl Window {
    /// An executed class: `agg` aggregates one run per effect injected at
    /// its representative.
    ///
    /// # Panics
    ///
    /// Panics if `agg` does not hold exactly `runs` classified runs.
    pub(crate) fn executed(lo: u64, hi: u64, runs: u64, agg: OutcomeCounts) -> Window {
        assert_eq!(agg.total(), runs, "a class executes one run per effect");
        Window {
            lo,
            hi,
            per_slot: runs,
            agg,
        }
    }

    /// A provably-unACE window: each of its `per_slot` sites per slot
    /// replays the golden run, credited with the golden run's
    /// `golden_recoveries` recovery probes.
    pub(crate) fn golden(lo: u64, hi: u64, per_slot: u64, golden_recoveries: u64) -> Window {
        Window {
            lo,
            hi,
            per_slot,
            agg: OutcomeCounts {
                unace: per_slot,
                recoveries: per_slot * golden_recoveries,
                ..OutcomeCounts::default()
            },
        }
    }
}

//! Per-fault-site outcome aggregation.

use sor_ir::ProtectionRole;
use sor_sim::{FaultEffect, GenFaultRecord};
use sor_stats::OutcomeCounts;
use std::collections::BTreeMap;

/// Aggregated outcomes of every fault that landed on one static
/// instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Protection role of the instruction, from the image's role table.
    pub role: ProtectionRole,
    /// Outcome histogram.
    pub counts: OutcomeCounts,
}

/// AVF-style vulnerability profile: outcome histograms keyed by static
/// instruction, protection role and target register.
///
/// Built by recording [`GenFaultRecord`]s one at a time; profiles built from
/// disjoint record sets [`merge`](VulnerabilityProfile::merge) into exactly
/// the profile a single pass over the union would build, which is what
/// makes both work-stealing campaign workers and sectional triage exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VulnerabilityProfile {
    sites: BTreeMap<usize, SiteStats>,
    roles: BTreeMap<ProtectionRole, OutcomeCounts>,
    regs: BTreeMap<u8, OutcomeCounts>,
    unfired: OutcomeCounts,
}

impl VulnerabilityProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one annotated injection; `recoveries` is the run's observed
    /// recovery-event count (majority votes + AN recoveries). The
    /// per-register histogram only accrues when the effect targets a
    /// register (`RegXor`, which includes every SEU): a PC, memory or ALU
    /// upset has no victim register to attribute to.
    pub fn record(&mut self, rec: &GenFaultRecord, recoveries: u64) {
        match rec.static_inst {
            Some(pc) => {
                let site = self.sites.entry(pc).or_default();
                site.role = rec.role;
                site.counts.record(rec.outcome, recoveries);
                self.roles
                    .entry(rec.role)
                    .or_default()
                    .record(rec.outcome, recoveries);
                if let FaultEffect::RegXor { reg, .. } = rec.fault.effect {
                    self.regs
                        .entry(reg)
                        .or_default()
                        .record(rec.outcome, recoveries);
                }
            }
            // Armed past the end of the run: no site to attribute to.
            None => self.unfired.record(rec.outcome, recoveries),
        }
    }

    /// Folds `other` in. Commutative and associative: per-worker or
    /// per-section profiles merge to the same result in any order.
    pub fn merge(&mut self, other: &VulnerabilityProfile) {
        for (&pc, s) in &other.sites {
            let site = self.sites.entry(pc).or_default();
            site.role = s.role;
            site.counts += s.counts;
        }
        for (&role, &c) in &other.roles {
            *self.roles.entry(role).or_default() += c;
        }
        for (&reg, &c) in &other.regs {
            *self.regs.entry(reg).or_default() += c;
        }
        self.unfired += other.unfired;
    }

    /// Reconstructs a profile from its serialized parts — the inverse of
    /// walking [`sites`](Self::sites) / [`roles`](Self::roles) /
    /// [`regs`](Self::regs) / [`unfired`](Self::unfired). Built for the
    /// harness result store; a round-trip through the four accessors and
    /// back compares equal to the original.
    pub fn from_parts(
        sites: impl IntoIterator<Item = (usize, SiteStats)>,
        roles: impl IntoIterator<Item = (ProtectionRole, OutcomeCounts)>,
        regs: impl IntoIterator<Item = (u8, OutcomeCounts)>,
        unfired: OutcomeCounts,
    ) -> Self {
        VulnerabilityProfile {
            sites: sites.into_iter().collect(),
            roles: roles.into_iter().collect(),
            regs: regs.into_iter().collect(),
            unfired,
        }
    }

    /// The profiled sites in static-instruction order.
    pub fn sites(&self) -> impl Iterator<Item = (usize, &SiteStats)> {
        self.sites.iter().map(|(&pc, s)| (pc, s))
    }

    /// Per-role histograms in role order (only roles some fault landed on).
    pub fn roles(&self) -> impl Iterator<Item = (ProtectionRole, OutcomeCounts)> + '_ {
        self.roles.iter().map(|(&r, &c)| (r, c))
    }

    /// Per-target-register histograms in register order.
    pub fn regs(&self) -> impl Iterator<Item = (u8, OutcomeCounts)> + '_ {
        self.regs.iter().map(|(&r, &c)| (r, c))
    }

    /// Stats for one static instruction, if any fault landed there.
    pub fn site(&self, pc: usize) -> Option<&SiteStats> {
        self.sites.get(&pc)
    }

    /// Aggregate histogram for one protection role (empty when no fault
    /// landed on an instruction of that role).
    pub fn role_counts(&self, role: ProtectionRole) -> OutcomeCounts {
        self.roles.get(&role).copied().unwrap_or_default()
    }

    /// Aggregate histogram for one target register.
    pub fn reg_counts(&self, reg: u8) -> OutcomeCounts {
        self.regs.get(&reg).copied().unwrap_or_default()
    }

    /// Histogram of faults armed past the end of the run (always unACE).
    pub fn unfired(&self) -> OutcomeCounts {
        self.unfired
    }

    /// The whole-campaign histogram: every recorded injection, attributed
    /// or not.
    pub fn totals(&self) -> OutcomeCounts {
        let mut t = self.unfired;
        for s in self.sites.values() {
            t += s.counts;
        }
        t
    }

    /// Total recorded injections.
    pub fn injections(&self) -> u64 {
        self.totals().total()
    }

    /// The `n` most vulnerable sites: descending SDC rate (hangs folded
    /// in), ties broken by more observations, then by lower address — a
    /// total order, so the ranking is deterministic.
    pub fn top_vulnerable(&self, n: usize) -> Vec<(usize, SiteStats)> {
        let mut v: Vec<(usize, SiteStats)> = self.sites.iter().map(|(&pc, &s)| (pc, s)).collect();
        v.sort_by(|a, b| {
            b.1.counts
                .pct_sdc()
                .partial_cmp(&a.1.counts.pct_sdc())
                .expect("SDC rates are finite")
                .then(b.1.counts.total().cmp(&a.1.counts.total()))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_sim::{FaultSpec, GenFault, Outcome};

    fn rec(at: u64, reg: u8, pc: usize, role: ProtectionRole, outcome: Outcome) -> GenFaultRecord {
        GenFaultRecord {
            fault: FaultSpec::new(at, reg, 3).into(),
            outcome,
            static_inst: Some(pc),
            role,
        }
    }

    #[test]
    fn record_attributes_to_site_role_and_reg() {
        let mut p = VulnerabilityProfile::new();
        p.record(&rec(0, 2, 7, ProtectionRole::Voter, Outcome::Sdc), 1);
        p.record(&rec(1, 2, 7, ProtectionRole::Voter, Outcome::UnAce), 0);
        p.record(&rec(2, 4, 9, ProtectionRole::Original, Outcome::Segv), 0);
        let site = p.site(7).unwrap();
        assert_eq!(site.role, ProtectionRole::Voter);
        assert_eq!(site.counts.total(), 2);
        assert_eq!(site.counts.sdc, 1);
        assert_eq!(p.role_counts(ProtectionRole::Voter).recoveries, 1);
        assert_eq!(p.role_counts(ProtectionRole::Original).segv, 1);
        assert_eq!(p.reg_counts(2).total(), 2);
        assert_eq!(p.reg_counts(4).total(), 1);
        assert_eq!(p.injections(), 3);
    }

    #[test]
    fn unfired_faults_do_not_gain_a_site() {
        let mut p = VulnerabilityProfile::new();
        let r = GenFaultRecord {
            fault: FaultSpec::new(1_000_000, 2, 3).into(),
            outcome: Outcome::UnAce,
            static_inst: None,
            role: ProtectionRole::Original,
        };
        p.record(&r, 0);
        assert_eq!(p.sites().count(), 0);
        assert_eq!(p.unfired().unace, 1);
        assert_eq!(p.totals().total(), 1);
    }

    #[test]
    fn merge_equals_single_pass_in_any_order() {
        let records = [
            rec(0, 2, 7, ProtectionRole::Voter, Outcome::Sdc),
            rec(1, 3, 7, ProtectionRole::Voter, Outcome::UnAce),
            rec(2, 4, 9, ProtectionRole::Original, Outcome::Segv),
            rec(3, 2, 11, ProtectionRole::SpillCode, Outcome::Hang),
        ];
        let mut whole = VulnerabilityProfile::new();
        for r in &records {
            whole.record(r, 0);
        }
        let mut a = VulnerabilityProfile::new();
        let mut b = VulnerabilityProfile::new();
        a.record(&records[0], 0);
        a.record(&records[2], 0);
        b.record(&records[1], 0);
        b.record(&records[3], 0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    /// A register-less effect attributes to its site and role but skips
    /// the per-register histogram.
    #[test]
    fn register_less_effects_skip_only_the_reg_histogram() {
        let mut p = VulnerabilityProfile::new();
        p.record(&rec(0, 2, 7, ProtectionRole::Voter, Outcome::Sdc), 1);
        p.record(
            &GenFaultRecord {
                fault: GenFault::new(1, FaultEffect::PcXor { mask: 1 }),
                outcome: Outcome::Detected,
                static_inst: Some(9),
                role: ProtectionRole::Original,
            },
            0,
        );
        assert_eq!(p.site(9).unwrap().counts.detected, 1);
        assert_eq!(p.role_counts(ProtectionRole::Original).detected, 1);
        // No register to attribute the PC upset to.
        assert_eq!(p.regs().map(|(_, c)| c.total()).sum::<u64>(), 1);
        assert_eq!(p.totals().total(), 2);
    }

    #[test]
    fn from_parts_round_trips_a_profile() {
        let mut p = VulnerabilityProfile::new();
        p.record(&rec(0, 2, 7, ProtectionRole::Voter, Outcome::Sdc), 1);
        p.record(&rec(2, 4, 9, ProtectionRole::Original, Outcome::Segv), 0);
        p.record(
            &GenFaultRecord {
                fault: FaultSpec::new(1_000_000, 2, 3).into(),
                outcome: Outcome::UnAce,
                static_inst: None,
                role: ProtectionRole::Original,
            },
            0,
        );
        let rebuilt = VulnerabilityProfile::from_parts(
            p.sites().map(|(pc, s)| (pc, *s)),
            p.roles(),
            p.regs(),
            p.unfired(),
        );
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn top_vulnerable_orders_by_sdc_rate_then_observations_then_pc() {
        let mut p = VulnerabilityProfile::new();
        // pc 5: 2/2 SDC. pc 3: 1/2 SDC. pc 8: 1/1 SDC (same rate as 5,
        // fewer observations). pc 1: 0/1 SDC.
        p.record(&rec(0, 2, 5, ProtectionRole::Original, Outcome::Sdc), 0);
        p.record(&rec(1, 2, 5, ProtectionRole::Original, Outcome::Sdc), 0);
        p.record(&rec(2, 2, 3, ProtectionRole::Original, Outcome::Sdc), 0);
        p.record(&rec(3, 2, 3, ProtectionRole::Original, Outcome::UnAce), 0);
        p.record(&rec(4, 2, 8, ProtectionRole::Original, Outcome::Sdc), 0);
        p.record(&rec(5, 2, 1, ProtectionRole::Original, Outcome::UnAce), 0);
        let top: Vec<usize> = p.top_vulnerable(3).into_iter().map(|(pc, _)| pc).collect();
        assert_eq!(top, vec![5, 8, 3]);
        assert_eq!(p.top_vulnerable(10).len(), 4);
    }
}

//! The paper's headline numbers (§1, §7, §9).

use crate::figures::{FigureEight, FigureNine};
use sor_core::Technique;
use std::fmt;

/// Summary metrics comparable to the paper's quoted numbers.
#[derive(Debug, Clone)]
pub struct Headline {
    rows: Vec<HeadlineRow>,
}

/// One technique's summary.
#[derive(Debug, Clone)]
pub struct HeadlineRow {
    /// Technique.
    pub technique: Technique,
    /// Average unACE percentage across benchmarks.
    pub unace_pct: f64,
    /// 95% Wilson interval for the unACE percentage.
    pub unace_ci95: (f64, f64),
    /// Average SEGV percentage.
    pub segv_pct: f64,
    /// Average SDC percentage.
    pub sdc_pct: f64,
    /// Reduction of (SDC+SEGV) relative to NOFT, in percent.
    pub bad_reduction_pct: f64,
    /// Geometric-mean normalized execution time.
    pub norm_time: f64,
}

/// Derives the headline table from the two figures.
pub fn headline(fig8: &FigureEight, fig9: &FigureNine) -> Headline {
    let noft_bad = fig8.average(Technique::Noft).pct_bad();
    let rows = fig8
        .techniques
        .iter()
        .map(|&t| {
            let avg = fig8.average(t);
            let reduction = if noft_bad > 0.0 {
                100.0 * (noft_bad - avg.pct_bad()) / noft_bad
            } else {
                0.0
            };
            HeadlineRow {
                technique: t,
                unace_pct: avg.pct_unace(),
                unace_ci95: avg.unace_ci95(),
                segv_pct: avg.pct_segv(),
                sdc_pct: avg.pct_sdc(),
                bad_reduction_pct: reduction,
                norm_time: fig9.geomean(t),
            }
        })
        .collect();
    Headline { rows }
}

impl Headline {
    /// Per-technique rows in Figure 8 order.
    pub fn rows(&self) -> &[HeadlineRow] {
        &self.rows
    }

    /// The row for one technique.
    pub fn row(&self, t: Technique) -> Option<&HeadlineRow> {
        self.rows.iter().find(|r| r.technique == t)
    }

    /// JSON form (one object per technique row).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"technique\": \"{}\", \"unace_pct\": {:.2}, \
                     \"unace_ci95\": [{:.2}, {:.2}], \"segv_pct\": {:.2}, \
                     \"sdc_pct\": {:.2}, \"bad_reduction_pct\": {:.2}, \
                     \"norm_time\": {:.3}}}",
                    r.technique,
                    r.unace_pct,
                    r.unace_ci95.0,
                    r.unace_ci95.1,
                    r.segv_pct,
                    r.sdc_pct,
                    r.bad_reduction_pct,
                    r.norm_time,
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>8} {:>17} {:>8} {:>8} {:>14} {:>10}",
            "technique", "unACE%", "(95% CI)", "SEGV%", "SDC%", "bad-reduction%", "norm-time"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>8.2} {:>17} {:>8.2} {:>8.2} {:>14.2} {:>10.2}",
                r.technique.to_string(),
                r.unace_pct,
                format!("[{:.1}, {:.1}]", r.unace_ci95.0, r.unace_ci95.1),
                r.segv_pct,
                r.sdc_pct,
                r.bad_reduction_pct,
                r.norm_time
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactStore;
    use crate::campaign::CampaignConfig;
    use crate::perf::PerfConfig;
    use sor_workloads::{AdpcmDec, Workload};

    #[test]
    fn headline_summarizes_both_figures() {
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(AdpcmDec {
            samples: 80,
            seed: 1,
        })];
        let cfg = CampaignConfig {
            runs: 30,
            threads: 2,
            ..Default::default()
        };
        let store = ArtifactStore::new();
        let fig8 = FigureEight::run_in(&store, &suite, &Technique::FIGURE8, &cfg);
        let fig9 = FigureNine::run_in(&store, &suite, &PerfConfig::default());
        let h = headline(&fig8, &fig9);
        assert_eq!(h.rows().len(), Technique::FIGURE8.len());
        let noft = h.row(Technique::Noft).unwrap();
        assert!((noft.norm_time - 1.0).abs() < 1e-9);
        assert!(noft.bad_reduction_pct.abs() < 1e-9);
        let text = h.to_string();
        assert!(text.contains("SWIFT-R"));
        let json = h.to_json();
        assert_eq!(
            json.matches("\"technique\"").count(),
            Technique::FIGURE8.len(),
            "{json}"
        );
        assert!(json.contains("\"bad_reduction_pct\""), "{json}");
    }
}

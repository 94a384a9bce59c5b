//! Regeneration of the paper's Figure 8 and Figure 9.

use crate::artifact::ArtifactStore;
use crate::campaign::{run_campaign_in, CampaignConfig, CampaignResult};
use crate::perf::{measure_perf_in, PerfConfig, PerfResult};
use sor_core::Technique;
use sor_stats::OutcomeCounts;
use sor_workloads::Workload;
use std::fmt;

/// Figure 8: reliability percentages per benchmark and technique.
#[derive(Debug, Clone)]
pub struct FigureEight {
    /// One campaign result per (workload, technique), workload-major.
    pub cells: Vec<CampaignResult>,
    /// Workload names in row order.
    pub workloads: Vec<String>,
    /// Techniques in column order (the paper's N/M/T/K/R/S).
    pub techniques: Vec<Technique>,
}

impl FigureEight {
    /// Runs the reliability matrix over `workloads` x `techniques` (the
    /// paper's [`Technique::FIGURE8`], or a list that adds e.g. the SWIFT
    /// detection baseline), with program preparation served from a shared
    /// [`ArtifactStore`] — pass the same store to [`FigureNine::run_in`]
    /// and the timing runs reuse every program this matrix prepared.
    pub fn run_in(
        store: &ArtifactStore,
        workloads: &[Box<dyn Workload>],
        techniques: &[Technique],
        cfg: &CampaignConfig,
    ) -> Self {
        let mut cells = Vec::new();
        for w in workloads {
            for &t in techniques {
                cells.push(run_campaign_in(store, w.as_ref(), t, cfg));
            }
        }
        FigureEight {
            cells,
            workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
            techniques: techniques.to_vec(),
        }
    }

    /// The cell for (workload, technique).
    pub fn cell(&self, workload: &str, technique: Technique) -> Option<&CampaignResult> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.technique == technique)
    }

    /// Aggregated counts across all benchmarks for one technique (the
    /// paper's "Average" column).
    pub fn average(&self, technique: Technique) -> OutcomeCounts {
        let mut total = OutcomeCounts::default();
        for c in self.cells.iter().filter(|c| c.technique == technique) {
            total += c.counts;
        }
        total
    }

    /// Renders the paper's stacked-bar chart in text: one bar per
    /// (benchmark, technique), unACE `█`, SEGV `▒`, SDC `░`, 50 columns
    /// per 100%.
    pub fn to_chart(&self) -> String {
        const WIDTH: f64 = 50.0;
        let mut s =
            String::from("Figure 8 (chart): \u{2588} unACE   \u{2592} SEGV   \u{2591} SDC\n");
        for w in &self.workloads {
            s.push('\n');
            for &t in &self.techniques {
                let Some(c) = self.cell(w, t) else { continue };
                let unace = (c.counts.pct_unace() / 100.0 * WIDTH).round() as usize;
                let segv = (c.counts.pct_segv() / 100.0 * WIDTH).round() as usize;
                let sdc = (WIDTH as usize).saturating_sub(unace + segv);
                s.push_str(&format!(
                    "{:<10} {} |{}{}{}| {:>5.1}%\n",
                    w,
                    t.letter(),
                    "█".repeat(unace),
                    "▒".repeat(segv),
                    "░".repeat(sdc),
                    c.counts.pct_unace()
                ));
            }
        }
        s
    }

    /// CSV form (one row per cell).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "workload,technique,runs,unace_pct,sdc_pct,segv_pct,recoveries,golden_instrs\n",
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{},{},{},{:.2},{:.2},{:.2},{},{}\n",
                c.workload,
                c.technique,
                c.counts.total(),
                c.counts.pct_unace(),
                c.counts.pct_sdc(),
                c.counts.pct_segv(),
                c.counts.recoveries,
                c.golden_instrs,
            ));
        }
        s
    }

    /// JSON form (one object per cell), mirroring [`to_csv`](Self::to_csv).
    pub fn to_json(&self) -> String {
        self.to_json_model(sor_models::FaultModel::SeuReg)
    }

    /// [`to_json`](Self::to_json) with an explicit fault model: each cell
    /// gains a `"fault_model"` field for non-default models, while the
    /// default renders byte-identically to the legacy document.
    pub fn to_json_model(&self, model: sor_models::FaultModel) -> String {
        let tag = if model.is_default() {
            String::new()
        } else {
            format!("\"fault_model\": \"{}\", ", model.slug())
        };
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "  {{\"workload\": \"{}\", \"technique\": \"{}\", {}\"runs\": {}, \
                     \"unace_pct\": {:.2}, \"sdc_pct\": {:.2}, \"segv_pct\": {:.2}, \
                     \"recoveries\": {}, \"golden_instrs\": {}}}",
                    c.workload,
                    c.technique,
                    tag,
                    c.counts.total(),
                    c.counts.pct_unace(),
                    c.counts.pct_sdc(),
                    c.counts.pct_segv(),
                    c.counts.recoveries,
                    c.golden_instrs,
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl fmt::Display for FigureEight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: reliability percentage (unACE / SEGV / SDC) per technique"
        )?;
        write!(f, "{:<12}", "benchmark")?;
        for t in &self.techniques {
            write!(f, " | {:^20}", format!("{} ({})", t, t.letter()))?;
        }
        writeln!(f)?;
        let width = 12 + self.techniques.len() * 23;
        writeln!(f, "{}", "-".repeat(width))?;
        for w in &self.workloads {
            write!(f, "{w:<12}")?;
            for &t in &self.techniques {
                if let Some(c) = self.cell(w, t) {
                    write!(
                        f,
                        " | {:>5.1} /{:>5.1} /{:>5.1}",
                        c.counts.pct_unace(),
                        c.counts.pct_segv(),
                        c.counts.pct_sdc()
                    )?;
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "{}", "-".repeat(width))?;
        write!(f, "{:<12}", "Average")?;
        for &t in &self.techniques {
            let a = self.average(t);
            write!(
                f,
                " | {:>5.1} /{:>5.1} /{:>5.1}",
                a.pct_unace(),
                a.pct_segv(),
                a.pct_sdc()
            )?;
        }
        writeln!(f)
    }
}

/// Figure 9: execution time normalized to NOFT.
#[derive(Debug, Clone)]
pub struct FigureNine {
    /// One timing result per (workload, technique), workload-major;
    /// includes NOFT.
    pub cells: Vec<PerfResult>,
    /// Workload names in row order.
    pub workloads: Vec<String>,
    /// Techniques in column order.
    pub techniques: Vec<Technique>,
}

impl FigureNine {
    /// Times every workload under every Figure 9 technique, with program
    /// preparation served from a shared [`ArtifactStore`].
    pub fn run_in(
        store: &ArtifactStore,
        workloads: &[Box<dyn Workload>],
        cfg: &PerfConfig,
    ) -> Self {
        let techniques = Technique::FIGURE8.to_vec();
        let mut cells = Vec::new();
        for w in workloads {
            for &t in &techniques {
                cells.push(measure_perf_in(store, w.as_ref(), t, cfg));
            }
        }
        FigureNine {
            cells,
            workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
            techniques,
        }
    }

    fn cycles(&self, workload: &str, technique: Technique) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.technique == technique)
            .map(|c| c.cycles)
    }

    /// Normalized execution time of (workload, technique) vs NOFT.
    pub fn normalized(&self, workload: &str, technique: Technique) -> Option<f64> {
        let noft = self.cycles(workload, Technique::Noft)?;
        let t = self.cycles(workload, technique)?;
        Some(t as f64 / noft.max(1) as f64)
    }

    /// Geometric mean of the normalized execution time across benchmarks.
    pub fn geomean(&self, technique: Technique) -> f64 {
        let logs: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| self.normalized(w, technique))
            .map(f64::ln)
            .collect();
        if logs.is_empty() {
            return f64::NAN;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// CSV form.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("workload,technique,cycles,dyn_instrs,ipc,normalized\n");
        for c in &self.cells {
            s.push_str(&format!(
                "{},{},{},{},{:.3},{:.3}\n",
                c.workload,
                c.technique,
                c.cycles,
                c.dyn_instrs,
                c.ipc(),
                self.normalized(&c.workload, c.technique).unwrap_or(1.0),
            ));
        }
        s
    }

    /// JSON form (one object per cell), mirroring [`to_csv`](Self::to_csv).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "  {{\"workload\": \"{}\", \"technique\": \"{}\", \"cycles\": {}, \
                     \"dyn_instrs\": {}, \"ipc\": {:.3}, \"normalized\": {:.3}}}",
                    c.workload,
                    c.technique,
                    c.cycles,
                    c.dyn_instrs,
                    c.ipc(),
                    self.normalized(&c.workload, c.technique).unwrap_or(1.0),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl fmt::Display for FigureNine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: execution time normalized to NOFT")?;
        write!(f, "{:<12}", "benchmark")?;
        for t in self.techniques.iter().filter(|&&t| t != Technique::Noft) {
            write!(f, " | {:>13}", t.to_string())?;
        }
        writeln!(f)?;
        let cols = self.techniques.len() - 1;
        writeln!(f, "{}", "-".repeat(12 + cols * 16))?;
        for w in &self.workloads {
            write!(f, "{w:<12}")?;
            for &t in self.techniques.iter().filter(|&&t| t != Technique::Noft) {
                write!(f, " | {:>13.2}", self.normalized(w, t).unwrap_or(f64::NAN))?;
            }
            writeln!(f)?;
        }
        writeln!(f, "{}", "-".repeat(12 + cols * 16))?;
        write!(f, "{:<12}", "GeoMean")?;
        for &t in self.techniques.iter().filter(|&&t| t != Technique::Noft) {
            write!(f, " | {:>13.2}", self.geomean(t))?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_workloads::{AdpcmDec, Mpeg2Enc};

    fn tiny_suite() -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(AdpcmDec {
                samples: 80,
                seed: 1,
            }),
            Box::new(Mpeg2Enc { blocks: 2, seed: 1 }),
        ]
    }

    #[test]
    fn figure8_runs_and_formats() {
        let cfg = CampaignConfig {
            runs: 25,
            threads: 2,
            ..Default::default()
        };
        let fig = FigureEight::run_in(
            &ArtifactStore::new(),
            &tiny_suite(),
            &Technique::FIGURE8,
            &cfg,
        );
        assert_eq!(fig.cells.len(), 2 * Technique::FIGURE8.len());
        let text = fig.to_string();
        assert!(text.contains("Average"), "{text}");
        let csv = fig.to_csv();
        assert!(csv.lines().count() == 1 + fig.cells.len(), "{csv}");
        let avg = fig.average(Technique::Noft);
        assert_eq!(avg.total(), 50);
        let chart = fig.to_chart();
        assert!(chart.contains('█'), "{chart}");
        // One bar per cell.
        assert_eq!(
            chart.lines().filter(|l| l.contains('|')).count(),
            fig.cells.len()
        );
        let json = fig.to_json();
        assert_eq!(
            json.matches("\"workload\"").count(),
            fig.cells.len(),
            "{json}"
        );
        assert!(json.contains("\"unace_pct\""), "{json}");
    }

    /// Both figures through one store: every Figure 9 cell reuses the
    /// program its Figure 8 twin prepared, and nothing changes in either
    /// figure's numbers.
    #[test]
    fn figures_share_one_artifact_store() {
        let cfg = CampaignConfig {
            runs: 25,
            threads: 2,
            ..Default::default()
        };
        let suite = tiny_suite();
        let store = ArtifactStore::new();
        let fig8 = FigureEight::run_in(&store, &suite, &Technique::FIGURE8, &cfg);
        let cells = 2 * Technique::FIGURE8.len() as u64;
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), cells);
        let fig9 = FigureNine::run_in(&store, &suite, &PerfConfig::default());
        assert_eq!(store.hits(), cells, "every fig9 cell must hit");

        let fresh8 = FigureEight::run_in(&ArtifactStore::new(), &suite, &Technique::FIGURE8, &cfg);
        let fresh9 = FigureNine::run_in(&ArtifactStore::new(), &suite, &PerfConfig::default());
        for (a, b) in fig8.cells.iter().zip(&fresh8.cells) {
            assert_eq!(a.counts, b.counts, "{}/{}", a.workload, a.technique);
        }
        for (a, b) in fig9.cells.iter().zip(&fresh9.cells) {
            assert_eq!(a.cycles, b.cycles, "{}/{}", a.workload, a.technique);
        }
    }

    #[test]
    fn figure9_normalizes_to_noft() {
        let fig = FigureNine::run_in(&ArtifactStore::new(), &tiny_suite(), &PerfConfig::default());
        assert!((fig.normalized("adpcmdec", Technique::Noft).unwrap() - 1.0).abs() < 1e-12);
        let s = fig.geomean(Technique::SwiftR);
        assert!(s > 1.0 && s < 4.0, "geomean {s}");
        assert!(fig.to_string().contains("GeoMean"));
    }
}

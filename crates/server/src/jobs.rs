//! Jobs as first-class, persistent objects.
//!
//! A job is a submitted campaign/certify/triage request plus its
//! lifecycle state (`queued → running → done/failed`, with `paused` as a
//! resumable detour) and its latest progress snapshot. The [`Registry`]
//! owns every job, assigns ids, and persists the whole set to
//! `<dir>/jobs.json` (atomic tmp + rename) on **every** transition — so
//! a server killed at any instant restarts with its jobs intact:
//! interrupted `running` jobs come back as `paused` (their completed
//! sections live in the `ResultStore`, so resuming re-executes only the
//! remainder), and `queued` jobs are simply re-enqueued.

use crate::json::{escape, Json};
use sor_core::Technique;
use sor_harness::{CampaignResult, ExecEngine, FaultModel, OutcomeCounts, RunCtrl};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Exhaustive certification of one (workload, technique) — the
    /// `certify` bin's unit of work.
    Certify,
    /// Sampled per-site triage of one (workload, technique) — the
    /// `triage` bin's unit of work.
    Triage,
    /// The Figure-8 sampled reliability matrix over a workload suite.
    Campaign,
}

impl JobKind {
    fn as_str(self) -> &'static str {
        match self {
            JobKind::Certify => "certify",
            JobKind::Triage => "triage",
            JobKind::Campaign => "campaign",
        }
    }

    fn parse(s: &str) -> Option<JobKind> {
        match s {
            "certify" => Some(JobKind::Certify),
            "triage" => Some(JobKind::Triage),
            "campaign" => Some(JobKind::Campaign),
            _ => None,
        }
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Stopped at a section boundary; resumable.
    Paused,
    /// Finished; the result artifact is available.
    Done,
    /// Aborted with an error.
    Failed,
}

impl JobState {
    /// The lowercase wire name (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "paused" => Some(JobState::Paused),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// Parses a technique from any reasonable spelling: the display name
/// ("TRUMP/SWIFT-R"), the file slug ("trump-swift-r"), or the compact
/// form ("trumpswiftr") — all normalize to the same alphanumeric key.
pub fn parse_technique(s: &str) -> Option<Technique> {
    let norm: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    match norm.as_str() {
        "noft" => Some(Technique::Noft),
        "mask" => Some(Technique::Mask),
        "trump" => Some(Technique::Trump),
        "trumpmask" => Some(Technique::TrumpMask),
        "trumpswiftr" => Some(Technique::TrumpSwiftR),
        "swiftr" => Some(Technique::SwiftR),
        "swift" => Some(Technique::Swift),
        "cfcss" => Some(Technique::Cfcss),
        "ceda" => Some(Technique::Ceda),
        "swiftrcfcss" => Some(Technique::SwiftRCfcss),
        _ => None,
    }
}

/// Largest `runs` a job may request. The worker draws every fault up
/// front, so an unbounded count could exhaust memory, and a failed
/// allocation aborts the whole server rather than failing the job.
pub const MAX_RUNS: u64 = 1_000_000;

/// Largest `samples` a job may request (`adpcmdec` builds one input per
/// sample, and the golden run and every fault run grow with it).
pub const MAX_SAMPLES: u64 = 10_000;

/// Largest `sections` a job may request (triage and certification build
/// one section per unit up front).
pub const MAX_SECTIONS: u64 = 4_096;

/// A validated job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Technique for certify/triage jobs.
    pub technique: Technique,
    /// Fault model every injection in the job draws from. The default
    /// (`seu-reg`) keeps the job byte-identical to the legacy service;
    /// generalized models execute monolithically (no store reuse).
    pub fault_model: FaultModel,
    /// Execution engine every run in the job uses. The default keeps
    /// results byte-identical to the legacy service (engines are
    /// bit-identical by contract, so this is purely a throughput knob);
    /// `jit` degrades to the decoded interpreter where native
    /// compilation is unavailable.
    pub engine: ExecEngine,
    /// Workload name for certify/triage jobs.
    pub workload: String,
    /// `adpcmdec` sample count (other kernels run at their defaults).
    pub samples: u64,
    /// `adpcmdec` input seed.
    pub wseed: u64,
    /// Injections per cell (triage/campaign).
    pub runs: u64,
    /// Campaign fault-selection seed.
    pub seed: u64,
    /// Store-reuse section granularity (certify/triage).
    pub sections: usize,
    /// Worker threads per injection pool (`0` = all cores).
    pub threads: usize,
    /// SPMD lane width.
    pub lanes: usize,
    /// Campaign workload suite (empty = the full ten-kernel suite).
    pub workloads: Vec<String>,
    /// Test hook: request a pause once this many sections/cells are
    /// done. Cleared by the executor when the pause lands, so a resumed
    /// job runs to completion.
    pub pause_after: Option<u64>,
    /// Test hook: sleep this long after each section/cell, so an
    /// external pause request has a boundary to land on.
    pub section_delay_ms: u64,
}

impl JobSpec {
    /// Parses and validates a submission body.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind_str = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\" (certify | triage | campaign)")?;
        let kind = JobKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
        let technique = match v.get("technique").and_then(Json::as_str) {
            Some(t) => parse_technique(t).ok_or_else(|| format!("unknown technique {t:?}"))?,
            None => Technique::SwiftR,
        };
        let fault_model = match v.get("fault_model").and_then(Json::as_str) {
            Some(m) => FaultModel::parse(m).ok_or_else(|| format!("unknown fault_model {m:?}"))?,
            None => FaultModel::SeuReg,
        };
        let engine = match v.get("engine").and_then(Json::as_str) {
            Some(e) => e.parse::<ExecEngine>().map_err(|err| err.to_string())?,
            None => ExecEngine::default(),
        };
        let u64_field = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(Json::Null) => Ok(default),
                Some(x) => x
                    .as_u64()
                    .ok_or(format!("\"{key}\" must be a non-negative integer")),
            }
        };
        let bounded = |key: &str, default: u64, max: u64| -> Result<u64, String> {
            let n = u64_field(key, default)?;
            if n > max {
                Err(format!("\"{key}\" must be at most {max}"))
            } else {
                Ok(n)
            }
        };
        let workloads = match v.get("workloads") {
            None => Vec::new(),
            Some(x) => x
                .as_arr()
                .ok_or("\"workloads\" must be an array of names")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "\"workloads\" must be an array of names".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let pause_after = match v.get("pause_after") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_u64().ok_or("\"pause_after\" must be an integer")?),
        };
        let default_runs = match kind {
            JobKind::Campaign => 250,
            _ => 400,
        };
        Ok(JobSpec {
            kind,
            technique,
            fault_model,
            engine,
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("adpcmdec")
                .to_string(),
            samples: bounded("samples", 40, MAX_SAMPLES)?,
            wseed: u64_field("wseed", 1)?,
            runs: bounded("runs", default_runs, MAX_RUNS)?,
            seed: u64_field("seed", 0x5EED)?,
            sections: bounded("sections", 8, MAX_SECTIONS)? as usize,
            threads: u64_field("threads", 0)? as usize,
            lanes: u64_field("lanes", 1)? as usize,
            workloads,
            pause_after,
            section_delay_ms: u64_field("section_delay_ms", 0)?,
        })
    }
}

/// The latest progress snapshot of a job: sections (or campaign cells)
/// resolved, store hits, injections executed, and the aggregated outcome
/// histogram the progress endpoint streams (with its Wilson interval, so
/// clients watch the estimate narrow as the campaign converges).
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Work units (sections or cells) resolved so far.
    pub done: u64,
    /// Total work units.
    pub total: u64,
    /// Units served from the result store without executing.
    pub hits: u64,
    /// Injections executed by the current run.
    pub fresh_injections: u64,
    /// Aggregated outcome histogram over resolved units.
    pub counts: OutcomeCounts,
}

/// One registered job.
#[derive(Debug)]
pub struct Job {
    /// Registry-assigned id.
    pub id: u64,
    /// The validated submission.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Latest progress snapshot.
    pub progress: Progress,
    /// Failure message, for `failed` jobs.
    pub error: Option<String>,
    /// Result artifact filename (what `sor-client` names its local copy;
    /// the server stores it at [`Registry::artifact_path`]), for `done`
    /// jobs.
    pub artifact: Option<String>,
    /// Campaign cells completed so far (the campaign kind's resume
    /// grain; certify/triage resume through the `ResultStore` instead).
    pub cells: Vec<CampaignResult>,
    /// Stop flag shared with the executing driver (not persisted; a
    /// loaded job gets a fresh one).
    pub ctrl: Arc<RunCtrl>,
}

fn counts_json(c: &OutcomeCounts) -> String {
    format!(
        "{{\"unace\": {}, \"sdc\": {}, \"segv\": {}, \"detected\": {}, \
         \"hang\": {}, \"recoveries\": {}}}",
        c.unace, c.sdc, c.segv, c.detected, c.hang, c.recoveries
    )
}

fn counts_from(v: &Json) -> OutcomeCounts {
    let f = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    OutcomeCounts {
        unace: f("unace"),
        sdc: f("sdc"),
        segv: f("segv"),
        detected: f("detected"),
        hang: f("hang"),
        recoveries: f("recoveries"),
    }
}

impl Job {
    /// Renders the job as the JSON document both the API and the
    /// persisted registry use.
    pub fn to_json(&self) -> String {
        let s = &self.spec;
        let workloads: Vec<String> = s
            .workloads
            .iter()
            .map(|w| format!("\"{}\"", escape(w)))
            .collect();
        let pause = match s.pause_after {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let opt_str = |o: &Option<String>| match o {
            Some(v) => format!("\"{}\"", escape(v)),
            None => "null".to_string(),
        };
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"workload\": \"{}\", \"technique\": \"{}\", \"counts\": {}, \
                     \"golden_instrs\": {}}}",
                    escape(&c.workload),
                    c.technique,
                    counts_json(&c.counts),
                    c.golden_instrs
                )
            })
            .collect();
        let p = &self.progress;
        let (ci_lo, ci_hi) = p.counts.sdc_ci95();
        format!(
            "{{\"id\": {}, \"kind\": \"{}\", \"state\": \"{}\", \
             \"technique\": \"{}\", \"fault_model\": \"{}\", \
             \"engine\": \"{}\", \
             \"workload\": \"{}\", \"samples\": {}, \
             \"wseed\": {}, \"runs\": {}, \"seed\": {}, \"sections\": {}, \
             \"threads\": {}, \"lanes\": {}, \"workloads\": [{}], \
             \"pause_after\": {}, \"section_delay_ms\": {}, \
             \"progress\": {{\"done\": {}, \"total\": {}, \"hits\": {}, \
             \"fresh_injections\": {}, \"counts\": {}, \"sdc_pct\": {:.4}, \
             \"sdc_ci_lo\": {:.4}, \"sdc_ci_hi\": {:.4}}}, \
             \"artifact\": {}, \"error\": {}, \"cells\": [{}]}}",
            self.id,
            s.kind.as_str(),
            self.state.as_str(),
            s.technique,
            s.fault_model.slug(),
            s.engine.slug(),
            escape(&s.workload),
            s.samples,
            s.wseed,
            s.runs,
            s.seed,
            s.sections,
            s.threads,
            s.lanes,
            workloads.join(", "),
            pause,
            s.section_delay_ms,
            p.done,
            p.total,
            p.hits,
            p.fresh_injections,
            counts_json(&p.counts),
            p.counts.pct_sdc(),
            ci_lo,
            ci_hi,
            opt_str(&self.artifact),
            opt_str(&self.error),
            cells.join(", "),
        )
    }

    fn from_json(v: &Json) -> Option<Job> {
        let spec = JobSpec::from_json(v).ok()?;
        let id = v.get("id")?.as_u64()?;
        let state = JobState::parse(v.get("state")?.as_str()?)?;
        let progress = match v.get("progress") {
            Some(p) => Progress {
                done: p.get("done").and_then(Json::as_u64).unwrap_or(0),
                total: p.get("total").and_then(Json::as_u64).unwrap_or(0),
                hits: p.get("hits").and_then(Json::as_u64).unwrap_or(0),
                fresh_injections: p
                    .get("fresh_injections")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                counts: p.get("counts").map(counts_from).unwrap_or_default(),
            },
            None => Progress::default(),
        };
        let cells = v
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| {
                Some(CampaignResult {
                    workload: c.get("workload")?.as_str()?.to_string(),
                    technique: parse_technique(c.get("technique")?.as_str()?)?,
                    counts: c.get("counts").map(counts_from)?,
                    golden_instrs: c.get("golden_instrs")?.as_u64()?,
                })
            })
            .collect();
        let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        Some(Job {
            id,
            spec,
            state,
            progress,
            error: opt_str("error"),
            artifact: opt_str("artifact"),
            cells,
            ctrl: Arc::new(RunCtrl::new()),
        })
    }
}

/// The persistent job registry.
pub struct Registry {
    dir: PathBuf,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
}

impl Registry {
    /// Loads the registry from `<dir>/jobs.json`, creating `dir` if
    /// needed. Jobs that were `running` when the previous process died
    /// come back `paused` — their completed sections are already in the
    /// result store, so resuming executes only the remainder.
    pub fn load(dir: impl AsRef<Path>) -> Registry {
        let dir = dir.as_ref().to_path_buf();
        let _ = std::fs::create_dir_all(&dir);
        let mut reg = Registry {
            dir,
            jobs: BTreeMap::new(),
            next_id: 1,
        };
        let Ok(text) = std::fs::read_to_string(reg.path()) else {
            return reg;
        };
        let Ok(doc) = Json::parse(&text) else {
            return reg;
        };
        reg.next_id = doc.get("next_id").and_then(Json::as_u64).unwrap_or(1);
        for item in doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(mut job) = Job::from_json(item) {
                if job.state == JobState::Running {
                    // The previous process died mid-run (no clean pause
                    // transition); treat the job as paused, and drop any
                    // pending pause_after so resuming runs to completion
                    // instead of immediately re-pausing on the probe.
                    job.state = JobState::Paused;
                    job.spec.pause_after = None;
                }
                reg.next_id = reg.next_id.max(job.id + 1);
                reg.jobs.insert(job.id, job);
            }
        }
        reg
    }

    fn path(&self) -> PathBuf {
        self.dir.join("jobs.json")
    }

    /// Where job `id` stores its finished artifact `name`: one file per
    /// job, so two jobs whose artifacts share a name (same kind, technique
    /// and fault model) never serve each other's bytes.
    pub fn artifact_path(&self, id: u64, name: &str) -> PathBuf {
        self.dir.join(format!("job-{id}-{name}"))
    }

    /// Registers a new queued job and persists. Returns its id.
    pub fn create(&mut self, spec: JobSpec) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                state: JobState::Queued,
                progress: Progress::default(),
                error: None,
                artifact: None,
                cells: Vec::new(),
                ctrl: Arc::new(RunCtrl::new()),
            },
        );
        self.persist();
        id
    }

    /// Looks up a job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Mutable lookup; callers must [`persist`](Self::persist) after
    /// changing anything.
    pub fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(&id)
    }

    /// All jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Writes the whole registry atomically (tmp + rename), so a crash
    /// mid-persist leaves the previous intact snapshot.
    pub fn persist(&self) {
        let rows: Vec<String> = self
            .jobs
            .values()
            .map(|j| format!("  {}", j.to_json()))
            .collect();
        let doc = format!(
            "{{\"next_id\": {}, \"jobs\": [\n{}\n]}}\n",
            self.next_id,
            rows.join(",\n")
        );
        let tmp = self.dir.join("jobs.json.tmp");
        if std::fs::write(&tmp, &doc).is_ok() {
            let _ = std::fs::rename(&tmp, self.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sor-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            technique: Technique::TrumpSwiftR,
            fault_model: FaultModel::MemBit,
            engine: ExecEngine::Jit,
            workload: "adpcmdec".to_string(),
            samples: 8,
            wseed: 1,
            runs: 40,
            seed: 7,
            sections: 4,
            threads: 2,
            lanes: 1,
            workloads: vec!["adpcmdec".to_string()],
            pause_after: Some(2),
            section_delay_ms: 0,
        }
    }

    #[test]
    fn technique_parsing_accepts_every_spelling() {
        for t in Technique::ALL {
            assert_eq!(parse_technique(&t.to_string()), Some(t));
            assert_eq!(
                parse_technique(&sor_harness::technique_slug(t)),
                Some(t),
                "{t}"
            );
        }
        assert_eq!(parse_technique("SWIFTR"), Some(Technique::SwiftR));
        assert_eq!(parse_technique("nope"), None);
    }

    #[test]
    fn registry_round_trips_and_marks_interrupted_jobs_paused() {
        let dir = temp_dir("roundtrip");
        let (a, b) = {
            let mut reg = Registry::load(&dir);
            let a = reg.create(spec(JobKind::Certify));
            let b = reg.create(spec(JobKind::Campaign));
            let job = reg.job_mut(a).unwrap();
            job.state = JobState::Running;
            job.progress = Progress {
                done: 2,
                total: 4,
                hits: 1,
                fresh_injections: 64,
                counts: OutcomeCounts {
                    unace: 60,
                    sdc: 4,
                    ..OutcomeCounts::default()
                },
            };
            let job_b = reg.job_mut(b).unwrap();
            job_b.cells.push(CampaignResult {
                workload: "adpcmdec".to_string(),
                technique: Technique::TrumpMask,
                counts: OutcomeCounts {
                    unace: 39,
                    sdc: 1,
                    ..OutcomeCounts::default()
                },
                golden_instrs: 1234,
            });
            reg.persist();
            (a, b)
        };
        let reg = Registry::load(&dir);
        let job = reg.job(a).unwrap();
        assert_eq!(job.state, JobState::Paused, "interrupted running job");
        assert_eq!(job.spec.technique, Technique::TrumpSwiftR);
        assert_eq!(job.spec.fault_model, FaultModel::MemBit);
        assert_eq!(job.spec.engine, ExecEngine::Jit, "engine round-trips");
        // pause_after is dropped on crash recovery so a resume runs to
        // completion instead of instantly re-pausing on the probe.
        assert_eq!(job.spec.pause_after, None);
        assert_eq!((job.progress.done, job.progress.hits), (2, 1));
        assert_eq!(job.progress.counts.unace, 60);
        let job_b = reg.job(b).unwrap();
        assert_eq!(job_b.state, JobState::Queued);
        assert_eq!(job_b.spec.pause_after, Some(2), "kept for clean states");
        assert_eq!(job_b.cells.len(), 1);
        assert_eq!(job_b.cells[0].technique, Technique::TrumpMask);
        assert_eq!(job_b.cells[0].golden_instrs, 1234);
        // A third creation continues the id sequence.
        let mut reg = reg;
        assert_eq!(reg.create(spec(JobKind::Triage)), b + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_parsing_validates_fields() {
        let ok = Json::parse(
            r#"{"kind": "triage", "technique": "trump-swift-r", "runs": 99,
                "workloads": ["mcf"], "pause_after": 3,
                "fault_model": "pc_corrupt", "engine": "jit"}"#,
        )
        .unwrap();
        let s = JobSpec::from_json(&ok).unwrap();
        assert_eq!(s.kind, JobKind::Triage);
        assert_eq!(s.technique, Technique::TrumpSwiftR);
        assert_eq!(s.fault_model, FaultModel::PcCorrupt);
        assert_eq!(s.engine, ExecEngine::Jit);
        assert_eq!(s.runs, 99);
        assert_eq!(s.workloads, vec!["mcf".to_string()]);
        assert_eq!(s.pause_after, Some(3));
        assert_eq!(s.samples, 40, "default");
        let bare = Json::parse(r#"{"kind": "certify", "technique": "cfcss"}"#).unwrap();
        let bare = JobSpec::from_json(&bare).unwrap();
        assert_eq!(bare.technique, Technique::Cfcss);
        assert_eq!(bare.fault_model, FaultModel::SeuReg, "default model");
        assert_eq!(bare.engine, ExecEngine::default(), "default engine");

        for bad in [
            r#"{}"#,
            r#"{"kind": "frobnicate"}"#,
            r#"{"kind": "certify", "technique": "rot13"}"#,
            r#"{"kind": "certify", "samples": -3}"#,
            r#"{"kind": "campaign", "workloads": [7]}"#,
            r#"{"kind": "certify", "fault_model": "cosmic-ray"}"#,
            r#"{"kind": "certify", "engine": "warp"}"#,
            r#"{"kind": "certify", "engine": "legacy"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "accepted {bad}");
        }

        // Sizes are bounded, inclusively, and the refusal names the field.
        for (field, max) in [
            ("runs", MAX_RUNS),
            ("samples", MAX_SAMPLES),
            ("sections", MAX_SECTIONS),
        ] {
            let at = Json::parse(&format!(r#"{{"kind": "triage", "{field}": {max}}}"#)).unwrap();
            assert!(JobSpec::from_json(&at).is_ok(), "{field} = {max}");
            let over =
                Json::parse(&format!(r#"{{"kind": "triage", "{field}": {}}}"#, max + 1)).unwrap();
            let err = JobSpec::from_json(&over).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn registry_drops_persisted_jobs_over_the_limits() {
        let dir = temp_dir("limits");
        {
            let mut reg = Registry::load(&dir);
            reg.create(spec(JobKind::Certify));
            let mut big = spec(JobKind::Campaign);
            big.runs = MAX_RUNS + 1;
            reg.create(big);
            reg.persist();
        }
        let reg = Registry::load(&dir);
        assert!(reg.job(1).is_some(), "in-range job kept");
        assert!(reg.job(2).is_none(), "over-limit job dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

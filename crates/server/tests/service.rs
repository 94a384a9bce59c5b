//! Service-level pinning: jobs submitted over HTTP produce results
//! **byte-identical** to the batch bins' output for the same parameters —
//! including after pause/resume cycles, graceful shutdown + restart, and
//! an outright `kill -9` of the server process. Resumed jobs must
//! re-execute only the unfinished sections (asserted through the
//! progress/hit counters the registry exposes).
//!
//! Workloads are deliberately tiny (`adpcmdec` at 4–8 samples): the
//! fault space is quadratic-ish in the sample count and these run in
//! debug mode.

use sor_core::Technique;
use sor_harness::{
    certified_json, certified_json_model, certify_program, certify_program_model,
    run_triaged_campaign_stored, triage_json, ArtifactStore, CampaignConfig, CertifyConfig,
    FaultModel, FigureEight, ResultStore,
};
use sor_regalloc::LowerConfig;
use sor_server::{Client, Json, Server, ServerConfig};
use sor_workloads::{AdpcmDec, Workload};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sor-server-svc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(dir: &Path) -> (sor_server::ServerHandle, Client) {
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.to_path_buf(),
        workers: 2,
    })
    .expect("spawn");
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

/// What the `certify` batch bin writes for these parameters, computed by
/// the monolithic reference pass (independent of the sectional driver
/// both the bin and the server run; the report is the same for every
/// section count, so `sections` does not enter).
fn certify_oracle(samples: u64, wseed: u64, technique: Technique) -> String {
    let workload = AdpcmDec {
        samples,
        seed: wseed,
    };
    let artifact = ArtifactStore::new().get(
        &workload,
        technique,
        &Default::default(),
        &LowerConfig::default(),
    );
    let r = certify_program(
        &artifact.program,
        workload.name(),
        &technique.to_string(),
        2,
    );
    certified_json(&r)
}

fn progress_field(job: &Json, key: &str) -> u64 {
    job.get("progress")
        .and_then(|p| p.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn certify_job_bytes_match_the_batch_bin() {
    let dir = temp_dir("certify");
    let (handle, client) = spawn(&dir);

    let id = client
        .submit(r#"{"kind": "certify", "technique": "swift-r", "samples": 6, "sections": 4, "threads": 2}"#)
        .expect("submit");
    let job = client.wait(id, &["done"]).expect("wait");
    assert_eq!(
        job.get("state").and_then(Json::as_str),
        Some("done"),
        "{job:?}"
    );
    assert_eq!(
        job.get("artifact").and_then(Json::as_str),
        Some("certified_swift-r.json")
    );

    let bytes = client.result_bytes(id).expect("result");
    assert_eq!(bytes, certify_oracle(6, 1, Technique::SwiftR));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bodies and persisted `jobs.json` records written by builds that still
/// carried a `"lanes"` or `"engine"` job field parse and load; both keys
/// are ignored (whatever their value), so every job's artifact is
/// byte-identical to the same job without them, and the rewritten
/// registry drops them.
#[test]
fn jobs_carrying_a_lanes_key_still_run_byte_identically() {
    let dir = temp_dir("lanes-key");
    let oracle = certify_oracle(4, 1, Technique::SwiftR);
    let body =
        r#"{"kind": "certify", "technique": "swift-r", "samples": 4, "sections": 2, "threads": 2"#;

    // A persisted queued job in the older registry format, `"engine"`,
    // `"lanes"` and all: loading re-enqueues it.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("jobs.json"),
        r#"{"next_id": 2, "jobs": [
  {"id": 1, "kind": "certify", "state": "queued", "technique": "SWIFT-R", "fault_model": "seu-reg", "engine": "decoded", "workload": "adpcmdec", "samples": 4, "wseed": 1, "runs": 400, "seed": 24301, "sections": 2, "threads": 2, "lanes": 8, "workloads": [], "pause_after": null, "section_delay_ms": 0, "progress": {"done": 0, "total": 0, "hits": 0, "fresh_injections": 0, "counts": {"unace": 0, "sdc": 0, "segv": 0, "detected": 0, "hang": 0, "recoveries": 0}, "sdc_pct": 0.0000, "sdc_ci_lo": 0.0000, "sdc_ci_hi": 0.0000}, "artifact": null, "error": null, "cells": []}
]}
"#,
    )
    .unwrap();
    let (handle, client) = spawn(&dir);
    let loaded = client.wait(1, &["done"]).expect("persisted job runs");
    for key in ["lanes", "engine"] {
        assert!(loaded.get(key).is_none(), "{key} is not carried forward");
    }

    let mut ids = vec![1];
    for extra in [
        r#""lanes": 8"#,
        r#""engine": "decoded""#,
        r#""engine": "legacy""#,
        r#""engine": "warp""#,
    ] {
        let id = client
            .submit(&format!("{body}, {extra}}}"))
            .unwrap_or_else(|e| panic!("submit with {extra}: {e}"));
        ids.push(id);
    }
    ids.push(client.submit(&format!("{body}}}")).expect("submit"));
    for id in ids {
        let job = client.wait(id, &["done"]).expect("wait");
        assert!(job.get("engine").is_none(), "job {id}: {job:?}");
        assert_eq!(client.result_bytes(id).expect("result"), oracle, "job {id}");
    }

    handle.shutdown();
    handle.join();
    let registry = std::fs::read_to_string(dir.join("jobs.json")).unwrap();
    for key in ["\"lanes\"", "\"engine\""] {
        assert!(!registry.contains(key), "rewritten registry keeps {key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two finished jobs whose artifacts share a name (same kind and
/// technique, different workload seed) each keep serving their own bytes.
#[test]
fn same_named_artifacts_stay_per_job() {
    let dir = temp_dir("per-job");
    let (handle, client) = spawn(&dir);

    let mut jobs = Vec::new();
    for wseed in [1, 2] {
        let id = client
            .submit(&format!(
                r#"{{"kind": "certify", "technique": "swift", "samples": 4, "wseed": {wseed}, "sections": 2, "threads": 2}}"#
            ))
            .expect("submit");
        let job = client.wait(id, &["done"]).expect("wait");
        assert_eq!(
            job.get("artifact").and_then(Json::as_str),
            Some("certified_swift.json")
        );
        jobs.push((id, certify_oracle(4, wseed, Technique::Swift)));
    }
    assert_ne!(jobs[0].1, jobs[1].1, "the two workloads must differ");
    for (id, oracle) in &jobs {
        assert_eq!(&client.result_bytes(*id).expect("result"), oracle);
    }

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pc_corrupt_certify_job_matches_the_harness_oracle() {
    let dir = temp_dir("pc-corrupt");
    let (handle, client) = spawn(&dir);

    let id = client
        .submit(r#"{"kind": "certify", "technique": "swift-r", "fault_model": "pc-corrupt", "samples": 4, "threads": 2}"#)
        .expect("submit");
    let job = client.wait(id, &["done"]).expect("wait");
    assert_eq!(
        job.get("state").and_then(Json::as_str),
        Some("done"),
        "{job:?}"
    );
    assert_eq!(
        job.get("fault_model").and_then(Json::as_str),
        Some("pc-corrupt"),
        "job document carries the model"
    );
    // Generalized-model artifacts get a model-slug infix so they never
    // clobber a default-model result for the same technique.
    assert_eq!(
        job.get("artifact").and_then(Json::as_str),
        Some("certified_pc-corrupt_swift-r.json")
    );

    let workload = AdpcmDec {
        samples: 4,
        seed: 1,
    };
    let cfg = CertifyConfig {
        threads: 2,
        fault_model: FaultModel::PcCorrupt,
        ..CertifyConfig::default()
    };
    let store = ArtifactStore::new();
    let artifact = store.get(
        &workload,
        Technique::SwiftR,
        &cfg.transform,
        &LowerConfig::default(),
    );
    let coverage = certify_program_model(
        &artifact.program,
        Some(std::sync::Arc::clone(&artifact.decoded)),
        None,
        "adpcmdec",
        "SWIFT-R",
        &cfg,
    )
    .expect("pc-corrupt plan");
    let oracle = certified_json_model(&coverage, FaultModel::PcCorrupt);
    assert_eq!(client.result_bytes(id).expect("result"), oracle);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paused_then_resumed_certify_reexecutes_only_the_remainder() {
    let dir = temp_dir("pause");
    let (handle, client) = spawn(&dir);

    // Cold store + pause_after=2: the job stops at the section boundary
    // right after the trigger fires.
    let id = client
        .submit(r#"{"kind": "certify", "technique": "trump", "samples": 6, "sections": 6, "threads": 2, "pause_after": 2}"#)
        .expect("submit");
    let job = client.wait(id, &["paused"]).expect("wait paused");
    assert_eq!(job.get("state").and_then(Json::as_str), Some("paused"));
    let done_at_pause = progress_field(&job, "done");
    assert!(
        (2..6).contains(&done_at_pause),
        "paused part-way: done={done_at_pause}"
    );
    // Everything executed so far was fresh work.
    assert_eq!(progress_field(&job, "hits"), 0);
    let fresh_before = progress_field(&job, "fresh_injections");
    assert!(fresh_before > 0);

    client.resume(id).expect("resume");
    let job = client.wait(id, &["done"]).expect("wait done");
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(progress_field(&job, "done"), 6);
    // The resumed run's probe found every pre-pause section in the
    // result store — only the remainder was re-executed.
    assert!(
        progress_field(&job, "hits") >= done_at_pause,
        "resume must reuse the {done_at_pause} stored sections: {job:?}"
    );
    let health = client.health().expect("health");
    let store_hits = health
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(store_hits >= done_at_pause, "store hits: {health:?}");

    let bytes = client.result_bytes(id).expect("result");
    assert_eq!(
        bytes,
        certify_oracle(6, 1, Technique::Trump),
        "pause/resume must not change a single byte"
    );

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_to_a_boundary_and_a_restart_resumes() {
    let dir = temp_dir("drain");
    let (handle, client) = spawn(&dir);

    // section_delay_ms keeps the job running long enough to shut down
    // mid-flight.
    let id = client
        .submit(r#"{"kind": "certify", "technique": "mask", "samples": 6, "sections": 6, "threads": 2, "section_delay_ms": 150}"#)
        .expect("submit");
    // Let it make some progress first.
    loop {
        let job = client.job(id).expect("poll");
        if progress_field(&job, "done") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
    handle.join(); // drains the running job to a section boundary

    // A fresh server over the same directory sees a resumable job.
    let (handle, client) = spawn(&dir);
    let job = client.job(id).expect("reloaded job");
    let state = job.get("state").and_then(Json::as_str).unwrap();
    assert!(
        state == "paused" || state == "done",
        "drained job must be resumable or complete, got {state}"
    );
    if state == "paused" {
        let done_before = progress_field(&job, "done");
        client.resume(id).expect("resume");
        let job = client.wait(id, &["done"]).expect("wait done");
        assert!(
            progress_field(&job, "hits") >= done_before,
            "restart must reuse stored sections: {job:?}"
        );
    }
    let bytes = client.result_bytes(id).expect("result");
    assert_eq!(bytes, certify_oracle(6, 1, Technique::Mask));

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_server_restarts_with_the_job_paused_and_finishes_identically() {
    let dir = temp_dir("kill");

    // Run the real daemon binary so we can kill -9 it mid-job.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sor-server"))
        .args(["--addr", "127.0.0.1:0", "--dir"])
        .arg(&dir)
        .args(["--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let addr = {
        use std::io::BufRead;
        let stdout = child.stdout.take().expect("stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let line = lines.next().expect("banner").expect("read banner");
        line.strip_prefix("sor-server listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string()
    };
    let client = Client::new(addr);

    let id = client
        .submit(r#"{"kind": "certify", "technique": "noft", "samples": 6, "sections": 6, "threads": 1, "section_delay_ms": 200}"#)
        .expect("submit");
    loop {
        let job = client.job(id).expect("poll");
        if progress_field(&job, "done") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().expect("kill -9");
    let _ = child.wait();

    // The registry persisted `running`; loading converts that to a
    // resumable `paused`.
    let (handle, client) = spawn(&dir);
    let job = client.job(id).expect("reloaded job");
    assert_eq!(
        job.get("state").and_then(Json::as_str),
        Some("paused"),
        "killed-while-running job must come back paused: {job:?}"
    );
    client.resume(id).expect("resume");
    let job = client.wait(id, &["done"]).expect("wait done");
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));

    let bytes = client.result_bytes(id).expect("result");
    assert_eq!(
        bytes,
        certify_oracle(6, 1, Technique::Noft),
        "a kill -9 must not change a single byte of the result"
    );

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn triage_job_bytes_match_the_batch_bin() {
    let dir = temp_dir("triage");
    let (handle, client) = spawn(&dir);

    let id = client
        .submit(r#"{"kind": "triage", "technique": "trump", "samples": 8, "runs": 40, "sections": 4, "threads": 2}"#)
        .expect("submit");
    let job = client.wait(id, &["done"]).expect("wait");
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        job.get("artifact").and_then(Json::as_str),
        Some("triage_trump.json")
    );

    let workload = AdpcmDec {
        samples: 8,
        seed: 1,
    };
    let cfg = CampaignConfig {
        runs: 40,
        threads: 2,
        ..CampaignConfig::default()
    };
    let store = ArtifactStore::new();
    let results = ResultStore::in_memory();
    let t = run_triaged_campaign_stored(&store, &results, &workload, Technique::Trump, &cfg, 1);
    let artifact = store.get(
        &workload,
        Technique::Trump,
        &cfg.transform,
        &LowerConfig::default(),
    );
    let oracle = triage_json(&t, &artifact.program, 40);

    assert_eq!(client.result_bytes(id).expect("result"), oracle);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_job_bytes_match_the_fig8_bin() {
    let dir = temp_dir("campaign");
    let (handle, client) = spawn(&dir);

    let id = client
        .submit(r#"{"kind": "campaign", "workloads": ["adpcmdec"], "samples": 6, "runs": 8, "threads": 2}"#)
        .expect("submit");
    let job = client.wait(id, &["done"]).expect("wait");
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        job.get("artifact").and_then(Json::as_str),
        Some("fig8.json")
    );
    // 1 workload x the full Figure-8 technique set.
    assert_eq!(
        progress_field(&job, "done"),
        Technique::FIGURE8.len() as u64
    );

    let suite: Vec<Box<dyn Workload>> = vec![Box::new(AdpcmDec {
        samples: 6,
        seed: 1,
    })];
    let cfg = CampaignConfig {
        runs: 8,
        threads: 2,
        ..CampaignConfig::default()
    };
    let oracle =
        FigureEight::run_in(&ArtifactStore::new(), &suite, &Technique::FIGURE8, &cfg).to_json();

    assert_eq!(client.result_bytes(id).expect("result"), oracle);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

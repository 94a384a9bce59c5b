//! The `sor-client` CLI: submit, watch, pause/resume and fetch jobs on a
//! running `sor-server`.
//!
//! Usage: `sor-client <command> --server HOST:PORT [flags]`
//!
//! Commands: `submit` (prints the job id), `status --id N`, `watch --id
//! N` (poll until done/paused/failed), `pause --id N`, `resume --id N`,
//! `fetch --id N` (write the result under `results/`), `run` (submit +
//! watch + fetch — the batch-bin-equivalent one-shot), `shutdown`,
//! `health`.
//!
//! Submission flags: `--kind certify|triage|campaign`, `--technique T`
//! (any spelling: `swiftr`, `swift-r`, `TRUMP/SWIFT-R`), `--fault-model M`
//! (`seu-reg` default, `pc-corrupt`, `mem-bit`, `multi-bit`,
//! `transient-alu`), `--engine decoded|jit` (execution engine;
//! results are bit-identical, `jit` degrades to `decoded` off x86-64),
//! `--workload W`, `--samples N`, `--runs N`,
//! `--seed N`, `--sections N`, `--threads N`, `--lanes N`,
//! `--workloads a,b,c` (campaign suite), `--pause-after N`.

use sor_server::{Client, Json};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fail(msg: &str) -> ! {
    eprintln!("sor-client: {msg}");
    std::process::exit(1);
}

/// Builds the submission document from the command line.
fn spec_from_args() -> String {
    let kind = arg_value("--kind").unwrap_or_else(|| "certify".to_string());
    let mut fields = vec![format!("\"kind\": \"{kind}\"")];
    for (flag, key) in [
        ("--technique", "technique"),
        ("--workload", "workload"),
        ("--fault-model", "fault_model"),
        ("--engine", "engine"),
    ] {
        if let Some(v) = arg_value(flag) {
            fields.push(format!("\"{key}\": \"{v}\""));
        }
    }
    for (flag, key) in [
        ("--samples", "samples"),
        ("--wseed", "wseed"),
        ("--runs", "runs"),
        ("--seed", "seed"),
        ("--sections", "sections"),
        ("--threads", "threads"),
        ("--lanes", "lanes"),
        ("--pause-after", "pause_after"),
        ("--section-delay-ms", "section_delay_ms"),
    ] {
        if let Some(v) = arg_value(flag) {
            let n: u64 = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{flag} wants an integer, got {v:?}")));
            fields.push(format!("\"{key}\": {n}"));
        }
    }
    if let Some(list) = arg_value("--workloads") {
        let names: Vec<String> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| format!("\"{s}\""))
            .collect();
        fields.push(format!("\"workloads\": [{}]", names.join(", ")));
    }
    format!("{{{}}}", fields.join(", "))
}

fn want_id() -> u64 {
    arg_value("--id")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail("--id N is required"))
}

fn progress_line(job: &Json) -> String {
    let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
    let p = job.get("progress");
    let field = |key: &str| {
        p.and_then(|p| p.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    format!(
        "state={state} done={}/{} hits={} fresh_injections={}",
        field("done"),
        field("total"),
        field("hits"),
        field("fresh_injections")
    )
}

/// Polls until the job leaves the active states, echoing progress.
fn watch(client: &Client, id: u64) -> String {
    let mut last = String::new();
    loop {
        let job = client.job(id).unwrap_or_else(|e| fail(&e));
        let line = progress_line(&job);
        if line != last {
            eprintln!("job {id}: {line}");
            last = line;
        }
        let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
        if matches!(state, "done" | "failed" | "paused") {
            if state == "failed" {
                let err = job
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                fail(&format!("job {id} failed: {err}"));
            }
            return state.to_string();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// Writes the finished job's artifact under `results/`, like the batch
/// bins do.
fn fetch(client: &Client, id: u64) {
    let job = client.job(id).unwrap_or_else(|e| fail(&e));
    let name = job
        .get("artifact")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(&format!("job {id} has no artifact (not done?)")))
        .to_string();
    let bytes = client.result_bytes(id).unwrap_or_else(|e| fail(&e));
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("could not create results/: {e}"));
    }
    let path = dir.join(&name);
    match std::fs::write(&path, &bytes) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => fail(&format!("could not write {}: {e}", path.display())),
    }
}

fn main() {
    let command = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: sor-client <submit|status|watch|pause|resume|fetch|run|shutdown|health> --server HOST:PORT"));
    let server = arg_value("--server").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let client = Client::new(server);

    match command.as_str() {
        "submit" => {
            let id = client
                .submit(&spec_from_args())
                .unwrap_or_else(|e| fail(&e));
            println!("{id}");
        }
        "status" => {
            let job = client.job(want_id()).unwrap_or_else(|e| fail(&e));
            println!("{}", job_text(&job));
        }
        "watch" => {
            let state = watch(&client, want_id());
            println!("{state}");
        }
        "pause" => {
            client.pause(want_id()).unwrap_or_else(|e| fail(&e));
            eprintln!("pause requested");
        }
        "resume" => {
            client.resume(want_id()).unwrap_or_else(|e| fail(&e));
            eprintln!("resumed");
        }
        "fetch" => fetch(&client, want_id()),
        "run" => {
            let id = client
                .submit(&spec_from_args())
                .unwrap_or_else(|e| fail(&e));
            eprintln!("submitted job {id}");
            let state = watch(&client, id);
            if state != "done" {
                fail(&format!("job {id} ended {state}, not done"));
            }
            fetch(&client, id);
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(&e));
            eprintln!("shutdown requested");
        }
        "health" => {
            let h = client.health().unwrap_or_else(|e| fail(&e));
            println!("{}", job_text(&h));
        }
        other => fail(&format!("unknown command {other:?}")),
    }
}

/// Re-renders a parsed document compactly for display.
fn job_text(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => format!("\"{}\"", sor_server::json::escape(s)),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(job_text).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, val)| format!("\"{k}\": {}", job_text(val)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

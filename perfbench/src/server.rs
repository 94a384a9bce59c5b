//! `server`: an in-process `Server::spawn` (`workers: 2`) in a fresh
//! directory, driven over localhost by 2 closed-loop clients.
//!
//! Each client submits one job, polls its state every `POLL` until it is
//! done, fetches the result, then submits the next; an op's latency runs
//! from submit to the fetched result. Jobs are a seeded mix of `certify`,
//! `triage` and `campaign` (`threads: 1`, jit engine) on `adpcmdec`
//! variants sized so each kind costs about the same. About a quarter of a
//! client's jobs repeat one of that client's own earlier jobs; the two
//! clients draw workload seeds from disjoint ranges, so which jobs hit
//! the result store is the same in every run. Set-up is what a user pays
//! before the first result: spawning the server and one job's round trip.
//!
//! The result checks fail on the server as it stands: a finished job's
//! artifact is named by kind, technique and fault model only
//! (`certified_<technique>.json`, `triage_<technique>.json`, `fig8.json`)
//! in the one server directory, so once a later job with the same name
//! finishes, `GET /jobs/<id>/result` of the earlier job returns the later
//! job's bytes. With two clients that happens to about one op in a
//! hundred. `--emit-digests` runs the jobs one at a time, which is why its
//! reference results are right.

use crate::trace::span;
use crate::util::{self, Ctx, Done, Fnv, OpLog, CLIENTS, MIN_OPS, SETUP_REPS};
use crate::Layers;
use sor_server::{Client, Json, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The clients' fixed poll interval.
const POLL: Duration = Duration::from_millis(2);

/// Certify jobs: (technique, adpcmdec samples) sized to cost alike.
const CERTIFY: [(&str, u64); 4] = [("noft", 8), ("trump", 6), ("swift", 6), ("swiftr", 3)];
/// Triage jobs: (technique, injections) on `adpcmdec` at `TRIAGE_SAMPLES`.
const TRIAGE: [(&str, u64); 4] = [
    ("noft", 4000),
    ("trump", 3000),
    ("swiftr", 1200),
    ("trumpswiftr", 1200),
];
const TRIAGE_SAMPLES: u64 = 200;
/// Campaign jobs: the 8 Figure-8 cells of one `adpcmdec` variant.
const CAMPAIGN_SAMPLES: u64 = 100;
const CAMPAIGN_RUNS: u64 = 500;

/// Job `k` of client `c`: its submission document.
fn job(seed: u64, c: usize, k: usize) -> String {
    let mut r = util::rng(seed, 0x5E4E_0000_0000 + ((c as u64) << 32) + k as u64);
    if k > 0 && r.gen_range(0, 4) == 0 {
        // Repeat one of this client's own earlier fresh jobs.
        let mut earlier = r.gen_range(0, k as u64) as usize;
        while is_repeat(seed, c, earlier) {
            earlier -= 1;
        }
        return job(seed, c, earlier);
    }
    // Disjoint workload-seed ranges per client; every seed stays below
    // 2^53 so it survives the server's JSON numbers exactly.
    let wseed = (r.next_u64() >> 16) | ((c as u64 + 1) << 48);
    let fault_seed = r.next_u64() >> 11;
    match r.gen_range(0, 3) {
        0 => {
            let (t, samples) = *r.choose(&CERTIFY);
            format!(
                "{{\"kind\": \"certify\", \"technique\": \"{t}\", \"workload\": \"adpcmdec\", \
                 \"samples\": {samples}, \"wseed\": {wseed}, \"threads\": 1, \"engine\": \"jit\"}}"
            )
        }
        1 => {
            let (t, runs) = *r.choose(&TRIAGE);
            format!(
                "{{\"kind\": \"triage\", \"technique\": \"{t}\", \"workload\": \"adpcmdec\", \
                 \"samples\": {TRIAGE_SAMPLES}, \"wseed\": {wseed}, \"runs\": {runs}, \
                 \"seed\": {fault_seed}, \"threads\": 1, \"engine\": \"jit\"}}"
            )
        }
        _ => format!(
            "{{\"kind\": \"campaign\", \"workloads\": [\"adpcmdec\"], \"samples\": {CAMPAIGN_SAMPLES}, \
             \"wseed\": {wseed}, \"runs\": {CAMPAIGN_RUNS}, \"seed\": {fault_seed}, \"threads\": 1, \
             \"engine\": \"jit\"}}"
        ),
    }
}

fn is_repeat(seed: u64, c: usize, k: usize) -> bool {
    k > 0 && util::rng(seed, 0x5E4E_0000_0000 + ((c as u64) << 32) + k as u64).gen_range(0, 4) == 0
}

/// A running server, shut down and joined when dropped.
pub struct Running {
    handle: Option<ServerHandle>,
    dir: PathBuf,
}

impl Running {
    fn client(&self) -> Client {
        Client::new(
            self.handle
                .as_ref()
                .expect("server running")
                .addr()
                .to_string(),
        )
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// Per-job observations of the traced run.
#[derive(Default)]
struct JobStats {
    requests: u64,
    queue_wait_s: Vec<f64>,
    exec_s: Vec<f64>,
}

/// `f()`, inside a span named `name` when `traced`.
fn call<R>(traced: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
    if traced {
        span(name, f)
    } else {
        f()
    }
}

/// Submits `spec`, polls until the job ends, fetches the result. Returns
/// the result bytes and the latency from submit to fetched result.
fn round_trip(
    client: &Client,
    spec: &str,
    stats: Option<&Mutex<JobStats>>,
) -> Result<(String, f64), String> {
    let traced = stats.is_some();
    let t0 = Instant::now();
    let mut requests = 1;
    let id = call(traced, "server.submit", || client.submit(spec))?;
    let submitted = Instant::now();
    let (mut started, mut finished) = (None, None);
    let poll_loop = || -> Result<Json, String> {
        loop {
            std::thread::sleep(POLL);
            requests += 1;
            let doc = call(traced, "server.poll", || client.job(id))?;
            let state = doc
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if state != "queued" && started.is_none() {
                started = Some(Instant::now());
            }
            match state.as_str() {
                "done" => {
                    finished = Some(Instant::now());
                    return Ok(doc);
                }
                "failed" => {
                    let e = doc.get("error").and_then(Json::as_str).unwrap_or("?");
                    return Err(format!("job {id} failed: {e}"));
                }
                _ => {}
            }
        }
    };
    let doc = call(traced, "server.wait", poll_loop)?;
    let progress = doc.get("progress");
    let field = |k: &str| progress.and_then(|p| p.get(k)).and_then(Json::as_u64);
    if field("done") != field("total") {
        return Err(format!(
            "job {id} done at {:?} of {:?} units",
            field("done"),
            field("total")
        ));
    }
    requests += 1;
    let bytes = call(traced, "server.result", || client.result_bytes(id))?;
    let latency = t0.elapsed().as_secs_f64();
    if let Some(stats) = stats {
        let mut s = stats.lock().expect("job stats lock poisoned");
        s.requests += requests;
        let (started, finished) = (started.expect("seen running"), finished.expect("seen done"));
        s.queue_wait_s.push((started - submitted).as_secs_f64());
        s.exec_s.push((finished - started).as_secs_f64());
    }
    Ok((bytes, latency))
}

/// Spawns a server in a fresh `dir` and runs the warm-up job through it.
fn setup(seed: u64, dir: &Path, traced: bool) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.to_path_buf(),
        workers: CLIENTS,
    };
    let spawn = || Server::spawn(cfg.clone()).map_err(|e| format!("spawn: {e}"));
    let handle = call(traced, "server.spawn", spawn)?;
    let running = Running {
        handle: Some(handle),
        dir: dir.to_path_buf(),
    };
    let warmup = format!(
        "{{\"kind\": \"certify\", \"technique\": \"trump\", \"workload\": \"adpcmdec\", \
         \"samples\": 6, \"wseed\": {}, \"threads\": 1, \"engine\": \"jit\"}}",
        util::rng(seed, 0xAAAA).next_u64() >> 16
    );
    round_trip(&running.client(), &warmup, None)?;
    Ok(running)
}

/// Runs both clients against `server`; each client runs its jobs `0, 1,
/// ...` while `more(jobs done by this client)` holds.
fn drive(
    ctx: &Ctx,
    server: &Running,
    more: &(dyn Fn(usize) -> bool + Sync),
    stats: Option<&Mutex<JobStats>>,
) -> OpLog {
    let start = Instant::now();
    let mut log = OpLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut log = OpLog::default();
                    let mut first: Vec<(String, u64)> = Vec::new();
                    let mut k = 0;
                    while more(k) {
                        let op = k * CLIENTS + c;
                        let spec = job(ctx.seed, c, k);
                        let run = || -> Result<Done, String> {
                            let (bytes, secs) = if stats.is_some() {
                                crate::trace::op(op as u64, || round_trip(&client, &spec, stats))
                                    .0?
                            } else {
                                round_trip(&client, &spec, None)?
                            };
                            let digest = Fnv::default().bytes(bytes.as_bytes()).0;
                            if let Some((_, d)) = first.iter().find(|(s, _)| *s == spec) {
                                if *d != digest {
                                    return Err("a repeated job returned a different result".into());
                                }
                            } else {
                                first.push((spec.clone(), digest));
                            }
                            Ok(Done {
                                secs,
                                wall_s: secs,
                                work: 1.0,
                                digest,
                            })
                        };
                        let r = util::attempt(run);
                        log.record(ctx, op, r);
                        k += 1;
                    }
                    log
                })
            })
            .collect();
        for h in handles {
            log.merge(h.join().expect("client thread panicked"));
        }
    });
    log.wall_s = start.elapsed().as_secs_f64();
    log
}

pub fn run(ctx: &Ctx) -> Result<(OpLog, f64), String> {
    let mut n = 0;
    let (server, setup_s) = util::repeated_setup(SETUP_REPS, || {
        n += 1;
        setup(ctx.seed, &ctx.tmp.join(format!("server-{n}")), false)
    });
    let server = server?;
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let per_client = MIN_OPS.div_ceil(CLIENTS);
    let log = drive(
        ctx,
        &server,
        &|k| k < per_client || start.elapsed() < deadline,
        None,
    );
    Ok((log, setup_s))
}

/// The reference results: every client's jobs run one at a time, so no
/// two jobs are ever in flight together.
pub fn emit(ctx: &Ctx, n: usize) -> Result<OpLog, String> {
    let server = setup(ctx.seed, &ctx.tmp.join("server-emit"), false)?;
    let client = server.client();
    let mut log = OpLog::default();
    for c in 0..CLIENTS {
        for k in 0..n.div_ceil(CLIENTS) {
            let spec = job(ctx.seed, c, k);
            let r = util::attempt(|| {
                let (bytes, secs) = round_trip(&client, &spec, None)?;
                let digest = Fnv::default().bytes(bytes.as_bytes()).0;
                Ok(Done {
                    secs,
                    wall_s: secs,
                    work: 1.0,
                    digest,
                })
            });
            log.record(ctx, k * CLIENTS + c, r);
        }
    }
    Ok(log)
}

pub fn traced(ctx: &Ctx, n: usize, layers: &mut Layers) -> Result<(OpLog, OpLog), String> {
    let per_client = n.div_ceil(CLIENTS);
    let plain = setup(ctx.seed, &ctx.tmp.join("server-untraced"), false)?;
    let untraced = drive(ctx, &plain, &|k| k < per_client, None);
    drop(plain);

    let server = setup(ctx.seed, &ctx.tmp.join("server-traced"), true)?;
    let stats = Mutex::new(JobStats::default());
    let traced = drive(ctx, &server, &|k| k < per_client, Some(&stats));
    let health = server.client().health()?;
    let store = |k: &str| {
        health
            .get("store")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let stats = stats.into_inner().expect("job stats lock poisoned");
    let count = |name: &str| crate::trace::count(name).max(1) as f64;
    layers.insert("server.spawn_ms", crate::trace::total_ms("server.spawn"));
    layers.insert(
        "server.submit_ms",
        crate::trace::total_ms("server.submit") / count("server.submit"),
    );
    layers.insert(
        "server.poll_ms",
        crate::trace::total_ms("server.poll") / count("server.poll"),
    );
    layers.insert(
        "server.result_ms",
        crate::trace::total_ms("server.result") / count("server.result"),
    );
    layers.insert("server.queue_wait_ms", util::mean_ms(&stats.queue_wait_s));
    layers.insert("server.exec_ms", util::mean_ms(&stats.exec_s));
    layers.insert("server.http_requests", stats.requests as f64);
    layers.insert("server.store_hits", store("hits"));
    layers.insert("server.store_misses", store("misses"));
    let registry = server.dir.join("jobs.json");
    layers.insert(
        "server.registry_bytes",
        std::fs::metadata(registry).map_or(0, |m| m.len()) as f64,
    );
    Ok((untraced, traced))
}

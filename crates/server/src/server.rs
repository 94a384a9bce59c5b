//! The daemon: listener, router, worker pool, graceful shutdown.
//!
//! One process owns the shared [`ArtifactStore`] and [`ResultStore`];
//! every accepted connection is one request (`Connection: close`), and
//! every submitted job runs on a small worker pool over the shared
//! stores — so concurrent clients submitting overlapping work hit each
//! other's cached sections instead of recomputing them.
//!
//! Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) drains:
//! running jobs stop at their next section boundary and persist as
//! `paused`, queued jobs stay `queued`, the registry and result store
//! are flushed, and a server restarted on the same directory reports
//! every prior job as resumable.

use crate::exec;
use crate::http::{self, error_body, Request};
use crate::jobs::{JobSpec, JobState, Registry};
use crate::json::Json;
use sor_harness::{ArtifactStore, ResultStore};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Directory owning the job registry, the result store
    /// (`<dir>/store/`) and result artifacts.
    pub dir: PathBuf,
    /// Job worker threads.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            dir: PathBuf::from("results/server"),
            workers: 2,
        }
    }
}

/// Process-wide shared state: the two stores, the job registry, and the
/// work queue.
pub struct ServerState {
    /// Memoized transform + lower artifacts, shared by every job.
    pub artifacts: ArtifactStore,
    /// The persistent section-result store, shared by every job.
    pub results: ResultStore,
    /// The job registry (persisted on every transition).
    pub registry: Mutex<Registry>,
    /// Queued job ids awaiting a worker.
    queue: Mutex<VecDeque<u64>>,
    /// Wakes workers for new jobs and for shutdown.
    wake: Condvar,
    /// Set once by shutdown; never cleared.
    shutting_down: AtomicBool,
}

/// Unwraps a lock or condvar-wait result, recovering the guard when a
/// thread panicked while holding the mutex. Every update under the
/// registry and queue mutexes is a field assignment, an insertion or a
/// push, so the data is valid at every step and a panicking holder
/// leaves a usable registry; refusing the poisoned mutex instead would
/// fail every later request of the server.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl ServerState {
    fn enqueue(&self, id: u64) {
        recover(self.queue.lock()).push_back(id);
        self.wake.notify_all();
    }

    /// Whether shutdown has been initiated.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// A running server: its address plus the handles to join on shutdown.
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Builds and starts servers.
pub struct Server;

impl Server {
    /// Binds, loads the registry (re-enqueueing jobs that were queued
    /// when the previous process exited), and starts the accept loop and
    /// worker pool.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::load(&cfg.dir);
        let results = ResultStore::open(cfg.dir.join("store"));
        let state = Arc::new(ServerState {
            artifacts: ArtifactStore::new(),
            results,
            registry: Mutex::new(registry),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        {
            let reg = recover(state.registry.lock());
            let queued: Vec<u64> = reg
                .iter()
                .filter(|j| j.state == JobState::Queued)
                .map(|j| j.id)
                .collect();
            drop(reg);
            recover(state.queue.lock()).extend(queued);
        }
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let st = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&st))
            })
            .collect();
        let accept = {
            let st = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&st, listener))
        };
        Ok(ServerHandle {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection (tests assert on the
    /// store's hit/miss counters through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Initiates a graceful shutdown (idempotent): running jobs drain to
    /// their next section boundary and persist as paused.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state, self.addr);
    }

    /// Waits for the accept loop and every worker to exit, then flushes
    /// the registry and the result store. Call after
    /// [`shutdown`](Self::shutdown) (or after a client posted
    /// `/shutdown`).
    pub fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        recover(self.state.registry.lock()).persist();
        self.state.results.flush();
    }
}

/// Flags shutdown, stops running jobs at their next boundary, wakes the
/// workers, and unblocks the accept loop.
fn initiate_shutdown(state: &ServerState, addr: SocketAddr) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    {
        let reg = recover(state.registry.lock());
        for job in reg.iter() {
            if job.state == JobState::Running {
                job.ctrl.request_stop();
            }
        }
    }
    state.wake.notify_all();
    // The accept loop is blocked in `incoming()`; poke it so it observes
    // the flag.
    let _ = TcpStream::connect(addr);
}

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let id = {
            let mut q = recover(state.queue.lock());
            loop {
                if state.shutting_down() {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                q = recover(state.wake.wait(q));
            }
        };
        // A job can be paused (or deleted by a future API) between
        // enqueue and pop; only queued jobs run.
        let runnable = {
            let reg = recover(state.registry.lock());
            reg.job(id).map(|j| j.state) == Some(JobState::Queued)
        };
        if runnable {
            exec::run_job(state, id);
        }
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: TcpListener) {
    for stream in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let st = Arc::clone(state);
        std::thread::spawn(move || handle_connection(&st, stream));
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    match http::read_request(&mut stream) {
        Ok(req) => route(state, &mut stream, &req),
        Err(e) => http::respond_error(&mut stream, &e),
    }
}

/// Dispatches one parsed request. Every arm answers exactly once; every
/// failure is a structured error, never a panic.
fn route(state: &Arc<ServerState>, stream: &mut TcpStream, req: &Request) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => {
            let jobs = recover(state.registry.lock()).iter().count();
            let body = format!(
                "{{\"status\": \"ok\", \"jobs\": {jobs}, \"store\": {{\"hits\": {}, \
                 \"misses\": {}, \"warnings\": {}}}}}\n",
                state.results.hits(),
                state.results.misses(),
                state.results.warnings()
            );
            http::respond(stream, 200, "OK", &body);
        }
        ("POST", ["jobs"]) => post_job(state, stream, req),
        ("GET", ["jobs"]) => {
            let reg = recover(state.registry.lock());
            let rows: Vec<String> = reg.iter().map(|j| format!("  {}", j.to_json())).collect();
            drop(reg);
            let body = format!("{{\"jobs\": [\n{}\n]}}\n", rows.join(",\n"));
            http::respond(stream, 200, "OK", &body);
        }
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => {
                let body = recover(state.registry.lock()).job(id).map(|j| j.to_json());
                match body {
                    Some(json) => http::respond(stream, 200, "OK", &format!("{json}\n")),
                    None => respond_missing(stream, id),
                }
            }
            None => respond_bad_id(stream, id),
        },
        ("GET", ["jobs", id, "result"]) => match parse_id(id) {
            Some(id) => job_result(state, stream, id),
            None => respond_bad_id(stream, id),
        },
        ("POST", ["jobs", id, "pause"]) => match parse_id(id) {
            Some(id) => pause_job(state, stream, id),
            None => respond_bad_id(stream, id),
        },
        ("POST", ["jobs", id, "resume"]) => match parse_id(id) {
            Some(id) => resume_job(state, stream, id),
            None => respond_bad_id(stream, id),
        },
        ("POST", ["shutdown"]) => {
            http::respond(stream, 200, "OK", "{\"ok\": true}\n");
            // The connection's local address IS the listener's address;
            // `initiate_shutdown` self-connects there to unblock accept.
            let addr = stream
                .local_addr()
                .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)));
            initiate_shutdown(state, addr);
        }
        // Known resources, wrong verb.
        (_, ["health" | "jobs" | "shutdown"]) | (_, ["jobs", ..]) => {
            http::respond(
                stream,
                405,
                "Method Not Allowed",
                &error_body(
                    "method_not_allowed",
                    &format!("{} is not supported on {}", req.method, req.path),
                ),
            );
        }
        _ => {
            http::respond(
                stream,
                404,
                "Not Found",
                &error_body("not_found", &format!("no endpoint at {}", req.path)),
            );
        }
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn respond_bad_id(stream: &mut TcpStream, id: &str) {
    http::respond(
        stream,
        400,
        "Bad Request",
        &error_body("bad_request", &format!("bad job id {id:?}")),
    );
}

fn respond_missing(stream: &mut TcpStream, id: u64) {
    http::respond(
        stream,
        404,
        "Not Found",
        &error_body("not_found", &format!("no job {id}")),
    );
}

fn post_job(state: &Arc<ServerState>, stream: &mut TcpStream, req: &Request) {
    if state.shutting_down() {
        http::respond(
            stream,
            503,
            "Service Unavailable",
            &error_body("unavailable", "server is shutting down"),
        );
        return;
    }
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(Json::parse)
        .and_then(|doc| JobSpec::from_json(&doc));
    match parsed {
        Ok(spec) => {
            let id = recover(state.registry.lock()).create(spec);
            state.enqueue(id);
            http::respond(
                stream,
                200,
                "OK",
                &format!("{{\"id\": {id}, \"state\": \"queued\"}}\n"),
            );
        }
        Err(message) => http::respond(
            stream,
            400,
            "Bad Request",
            &error_body("bad_request", &message),
        ),
    }
}

fn job_result(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) {
    let located = {
        let reg = recover(state.registry.lock());
        reg.job(id).map(|job| {
            (job.state == JobState::Done)
                .then(|| job.artifact.clone())
                .flatten()
                .map(|name| reg.artifact_path(id, &name))
                .ok_or(job.state)
        })
    };
    match located {
        None => respond_missing(stream, id),
        Some(Err(job_state)) => http::respond(
            stream,
            409,
            "Conflict",
            &error_body(
                "conflict",
                &format!("job {id} is {}, not done", job_state.as_str()),
            ),
        ),
        Some(Ok(path)) => match std::fs::read_to_string(&path) {
            Ok(bytes) => http::respond(stream, 200, "OK", &bytes),
            Err(e) => http::respond(
                stream,
                500,
                "Internal Server Error",
                &error_body("internal", &format!("artifact unreadable: {e}")),
            ),
        },
    }
}

fn pause_job(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) {
    let mut reg = recover(state.registry.lock());
    let Some(job) = reg.job_mut(id) else {
        drop(reg);
        respond_missing(stream, id);
        return;
    };
    let answer = match job.state {
        JobState::Running => {
            // Takes effect at the driver's next section boundary; the
            // executor records the transition when it lands.
            job.ctrl.request_stop();
            Ok("pausing")
        }
        JobState::Queued => {
            job.state = JobState::Paused;
            Ok("paused")
        }
        other => Err(other),
    };
    if matches!(answer, Ok("paused")) {
        reg.persist();
    }
    drop(reg);
    match answer {
        Ok(word) => http::respond(
            stream,
            200,
            "OK",
            &format!("{{\"id\": {id}, \"state\": \"{word}\"}}\n"),
        ),
        Err(other) => http::respond(
            stream,
            409,
            "Conflict",
            &error_body(
                "conflict",
                &format!("job {id} is {}, not pausable", other.as_str()),
            ),
        ),
    }
}

fn resume_job(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) {
    if state.shutting_down() {
        http::respond(
            stream,
            503,
            "Service Unavailable",
            &error_body("unavailable", "server is shutting down"),
        );
        return;
    }
    let resumed = {
        let mut reg = recover(state.registry.lock());
        match reg.job_mut(id) {
            None => None,
            Some(job) if job.state == JobState::Paused => {
                job.ctrl.clear();
                job.state = JobState::Queued;
                reg.persist();
                Some(Ok(()))
            }
            Some(job) => Some(Err(job.state)),
        }
    };
    match resumed {
        None => respond_missing(stream, id),
        Some(Ok(())) => {
            state.enqueue(id);
            http::respond(
                stream,
                200,
                "OK",
                &format!("{{\"id\": {id}, \"state\": \"queued\"}}\n"),
            );
        }
        Some(Err(other)) => http::respond(
            stream,
            409,
            "Conflict",
            &error_body(
                "conflict",
                &format!("job {id} is {}, not paused", other.as_str()),
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// A panic while the registry mutex is held poisons it; later
    /// requests, the workers and shutdown still go through.
    #[test]
    fn requests_survive_a_poisoned_registry() {
        let dir = std::env::temp_dir().join(format!("sor-server-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            workers: 1,
        })
        .expect("spawn");
        let state = Arc::clone(handle.state());
        let panicked = std::thread::spawn(move || {
            let _guard = state.registry.lock().unwrap();
            panic!("deliberate panic under the registry lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(handle.state().registry.is_poisoned());

        let client = Client::new(handle.addr().to_string());
        let health = client.health().expect("health answers");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        let id = client
            .submit(r#"{"kind": "certify", "technique": "swift-r", "samples": 4}"#)
            .expect("submit answers");
        let job = client.wait(id, &["done"]).expect("job status answers");
        assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
        client.result_bytes(id).expect("result answers");

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Campaign-as-a-service throughput (extension experiment E13): measures
//! what the shared server buys over clients running the batch path
//! themselves. N client threads each submit the same small certify suite
//! to one in-process `sor-server`; because every job lands in the *same*
//! process-wide result store, each distinct (workload, technique,
//! section) executes exactly once and every other client's copy is a
//! store hit. The baseline runs the identical suite serially with the
//! batch driver and no sharing — the paper-honest cost of N researchers
//! each re-certifying from scratch.
//!
//! Writes `BENCH_server.json`. Flags: `--clients N` concurrent
//! submitters (default 4), `--samples N` workload size (default 8),
//! `--sections N` store granularity (default 4), `--threads N` worker
//! threads per job (default 2).

use sor_core::Technique;
use sor_harness::{run_certified_campaign_in, ArtifactStore, CertifyConfig};
use sor_server::{Client, Json, Server, ServerConfig};
use sor_workloads::AdpcmDec;
use std::time::Instant;

const SUITE: [Technique; 3] = [Technique::SwiftR, Technique::Trump, Technique::Mask];

fn main() {
    let clients: usize = sor_bench::parsed_arg("--clients").unwrap_or(4);
    let samples: u64 = sor_bench::parsed_arg("--samples").unwrap_or(8);
    let sections: usize = sor_bench::parsed_arg("--sections").unwrap_or(4);
    let threads: usize = sor_bench::parsed_arg("--threads").unwrap_or(2);
    let jobs = clients * SUITE.len();

    // Baseline: every client certifies its whole suite from scratch,
    // one after another — no artifact reuse, no result store.
    eprintln!("serial baseline: {jobs} monolithic certifications...");
    let start = Instant::now();
    for _ in 0..clients {
        for technique in SUITE {
            let cfg = CertifyConfig {
                threads,
                sections,
                ..CertifyConfig::default()
            };
            let r = run_certified_campaign_in(
                &ArtifactStore::new(),
                &AdpcmDec { samples, seed: 1 },
                technique,
                &cfg,
            );
            assert!(r.total_sites > 0);
        }
    }
    let serial_secs = start.elapsed().as_secs_f64();

    // Service: the same `jobs` submissions race into one server.
    let dir = std::env::temp_dir().join(format!("sor-server-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.clone(),
        workers: clients.min(4),
    })
    .expect("server spawn");
    let addr = handle.addr().to_string();

    eprintln!(
        "service: {clients} clients x {} certify jobs...",
        SUITE.len()
    );
    let start = Instant::now();
    let submitters: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Client::new(addr);
                // Rotate each client's suite so the first wave of jobs
                // covers distinct techniques; identical jobs racing in
                // the same instant would all miss the store.
                let ids: Vec<u64> = (0..SUITE.len())
                    .map(|j| &SUITE[(i + j) % SUITE.len()])
                    .map(|t| {
                        client
                            .submit(&format!(
                                "{{\"kind\": \"certify\", \"technique\": \"{t}\", \
                                 \"samples\": {samples}, \"sections\": {sections}, \
                                 \"threads\": {threads}}}"
                            ))
                            .expect("submit")
                    })
                    .collect();
                for id in ids {
                    let job = client.wait(id, &["done"]).expect("wait");
                    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("client thread");
    }
    let server_secs = start.elapsed().as_secs_f64();

    let client = Client::new(addr);
    let health = client.health().expect("health");
    let counter = |key: &str| {
        health
            .get("store")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("hits"), counter("misses"));
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = serial_secs / server_secs.max(1e-9);
    // Later waves of the overlapping suites are served from the shared
    // store; demand at least one full job's worth of section hits (jobs
    // still running concurrently with the first computation of their
    // technique can legitimately miss).
    assert!(
        hits >= sections as u64,
        "shared store must deduplicate the overlapping suites: hits={hits} misses={misses}"
    );
    if speedup <= 1.0 {
        // Machine-load dependent, so a warning rather than a hard fail;
        // the store-hit assertion above is the load-independent check.
        eprintln!("warning: shared server did not beat {jobs} from-scratch runs ({speedup:.2}x)");
    }

    sor_bench::BenchReport::new()
        .str("bench", "server")
        .str("workload", "adpcmdec")
        .num("samples", samples)
        .num("clients", clients)
        .num("jobs", jobs)
        .num("sections", sections)
        .num("threads", threads)
        .num("serial_secs", format!("{serial_secs:.4}"))
        .num("server_secs", format!("{server_secs:.4}"))
        .num("speedup", format!("{speedup:.2}"))
        .num("store_hits", hits)
        .num("store_misses", misses)
        .write("BENCH_server.json");
}

//! HTTP-layer robustness: malformed request lines, oversized bodies,
//! unknown endpoints and invalid job documents all come back as
//! structured errors — and the server keeps serving afterwards (a panic
//! in a handler thread would leave later requests hanging).

use sor_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sor-server-http-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends raw bytes, returns the raw response text.
fn raw(addr: &std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("send");
    // Half-close so the server sees EOF even if it expected more bytes.
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response {response:?}"))
}

#[test]
fn hostile_requests_get_structured_errors_and_the_server_survives() {
    let dir = temp_dir("hostile");
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.clone(),
        workers: 1,
    })
    .expect("spawn");
    let addr = handle.addr();

    // Malformed request line.
    let r = raw(&addr, b"this is not http\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");
    assert!(r.contains("\"bad_request\""), "{r}");

    // Missing path slash.
    let r = raw(&addr, b"GET health HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");

    // Wrong protocol.
    let r = raw(&addr, b"GET /health SPDY/99\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");

    // Unknown endpoint.
    let r = raw(&addr, b"GET /frobnicate HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 404, "{r}");
    assert!(r.contains("\"not_found\""), "{r}");

    // Known endpoint, wrong method.
    let r = raw(&addr, b"DELETE /jobs HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 405, "{r}");
    assert!(r.contains("\"method_not_allowed\""), "{r}");

    // Declared body over the cap: rejected before it is read.
    let r = raw(
        &addr,
        format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            sor_server::http::MAX_BODY + 1
        )
        .as_bytes(),
    );
    assert_eq!(status_of(&r), 413, "{r}");
    assert!(r.contains("\"too_large\""), "{r}");

    // Unbounded header stream: capped.
    let mut endless = b"GET /health HTTP/1.1\r\n".to_vec();
    endless.resize(endless.len() + sor_server::http::MAX_HEADER + 64, b'a');
    let r = raw(&addr, &endless);
    assert_eq!(status_of(&r), 431, "{r}");

    // Invalid job JSON → 400 with the parser's message, not a panic. The
    // oversized jobs would each make the worker allocate (or spawn) in
    // proportion and abort the process.
    for body in [
        "{",
        "[]",
        "{\"kind\": \"frobnicate\"}",
        "{\"kind\": 7}",
        "{\"kind\": \"triage\", \"sections\": 1000000000000}",
        "{\"kind\": \"campaign\", \"runs\": 1000000000000}",
        "{\"kind\": \"certify\", \"samples\": 100000000000}",
        "{\"kind\": \"certify\", \"threads\": 257}",
    ] {
        let r = raw(
            &addr,
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        assert_eq!(status_of(&r), 400, "body {body:?}: {r}");
        assert!(r.contains("\"bad_request\""), "body {body:?}: {r}");
    }

    // Bad job ids in the path.
    let r = raw(&addr, b"GET /jobs/notanumber HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");
    let r = raw(&addr, b"GET /jobs/999 HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 404, "{r}");
    let r = raw(&addr, b"GET /jobs/1/result HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 404, "{r}");

    // Truncated body: client hangs up mid-body.
    let r = raw(
        &addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"kind\"",
    );
    assert_eq!(status_of(&r), 400, "{r}");

    // After all of that the server still answers cleanly.
    let r = raw(&addr, b"GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(r.contains("\"status\": \"ok\""), "{r}");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

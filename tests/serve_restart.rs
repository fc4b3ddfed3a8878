//! The root crash-recovery proof: a real `omegaplus serve` subprocess
//! is loaded, killed with SIGKILL, and rebooted on the same data dir —
//! finished results must come back byte-identical from the store, and
//! repeats must be warm-cache hits.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use omega_serve::http::read_response;

struct Daemon {
    child: Child,
    addr: String,
}

fn spawn_daemon(data_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_omegaplus"))
        .args([
            "serve",
            "-addr",
            "127.0.0.1:0",
            "-data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines.next().expect("daemon announces its address").expect("stderr reads");
        if let Some(at) = line.find("listening on http://") {
            break line[at + "listening on http://".len()..].trim().to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

/// One `Connection: close` round-trip.
fn http(addr: &str, request: &str) -> (u16, String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    stream.write_all(request.as_bytes()).expect("write request");
    let response = read_response(&mut stream).expect("read response");
    (response.status, response.body)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
}

fn post_scan(addr: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /scan HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn scan_body() -> String {
    let payload =
        "ms 6 1\n42\n\n//\nsegsites: 8\npositions: 0.05 0.15 0.30 0.45 0.55 0.70 0.85 0.95\n\
                   10110100\n01011010\n11010001\n00101101\n10011010\n01100101\n";
    format!("{{\"format\":\"ms\",\"payload\":{payload:?},\"params\":{{\"grid\":4}}}}")
}

/// The balanced-brace `"result"` object of a job body, byte for byte.
fn result_object(body: &str) -> &str {
    let start = body.find("\"result\":").expect("result field present") + "\"result\":".len();
    let bytes = body.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes[start..].iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'{' if !in_string => depth += 1,
            b'}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return &body[start..start + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced result object");
}

fn counter(addr: &str, name: &str) -> u64 {
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    omega_obs::parse_json(&stats)
        .expect("stats parse")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn sigkilled_daemon_recovers_results_byte_identical() {
    let data_dir = std::env::temp_dir().join(format!("omega-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut daemon = spawn_daemon(&data_dir);

    // Load the daemon: one scan run to completion.
    let body = scan_body();
    let (status, submit) = post_scan(&daemon.addr, &body);
    assert_eq!(status, 202, "{submit}");
    let id = omega_obs::parse_json(&submit)
        .expect("submit parses")
        .get("job")
        .and_then(|v| v.as_str())
        .expect("job id")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    let done_before = loop {
        let (status, poll) = get(&daemon.addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{poll}");
        let state = omega_obs::parse_json(&poll)
            .expect("poll parses")
            .get("state")
            .and_then(|v| v.as_str())
            .expect("state")
            .to_string();
        match state.as_str() {
            "done" => break poll,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job stuck in {state}");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job reached {other}: {poll}"),
        }
    };

    // SIGKILL: no drain, no shutdown hooks — the WAL and store are all
    // that survives.
    daemon.child.kill().expect("SIGKILL lands");
    let _ = daemon.child.wait();

    let mut reborn = spawn_daemon(&data_dir);

    // The finished job answers under its original id with the exact
    // pre-crash result bytes.
    let (status, done_after) = get(&reborn.addr, &format!("/jobs/{id}"));
    assert_eq!(status, 200, "{done_after}");
    assert_eq!(
        omega_obs::parse_json(&done_after)
            .expect("recovered poll parses")
            .get("state")
            .and_then(|v| v.as_str()),
        Some("done"),
        "{done_after}"
    );
    assert_eq!(
        result_object(&done_before),
        result_object(&done_after),
        "recovered result is bit-identical"
    );

    // A repeat submission is a warm-cache hit: inline 200, zero misses
    // in the reborn process.
    let (status, replay) = post_scan(&reborn.addr, &body);
    assert_eq!(status, 200, "warm hit expected: {replay}");
    assert_eq!(result_object(&done_before), result_object(&replay), "bit-identical");
    assert_eq!(counter(&reborn.addr, "serve.cache_misses"), 0, "no cold misses after reboot");
    assert!(counter(&reborn.addr, "serve.store_rehydrated") >= 1, "store primed the cache");

    reborn.child.kill().expect("cleanup kill");
    let _ = reborn.child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}

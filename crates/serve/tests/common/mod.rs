//! Loopback HTTP helpers shared by the serve integration tests.

#![allow(dead_code)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use omega_serve::http::read_response;

/// One raw round-trip on a fresh connection: returns (status, full
/// header block, body). The server holds HTTP/1.1 connections open for
/// reuse, so the response is parsed by its framing (`Content-Length`
/// or chunked) rather than by waiting for EOF.
pub fn raw(addr: SocketAddr, request: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(request).expect("write");
    read_framed(&mut stream)
}

/// Reads one framed response off `stream` with the daemon's own
/// client-side parser; the connection stays usable afterwards if the
/// server kept it alive.
pub fn read_framed(stream: &mut TcpStream) -> (u16, String, String) {
    let response = read_response(stream).expect("framed response");
    (response.status, response.head, response.body)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
}

pub fn post_scan(addr: SocketAddr, body: &str) -> (u16, String, String) {
    raw(
        addr,
        format!("POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .as_bytes(),
    )
}

/// A small deterministic ms payload; `tag` varies the content.
pub fn ms_payload(tag: u64) -> String {
    let rows = ["10110100", "01011010", "11010001", "00101101", "10011010", "01100101"];
    let mut out = format!(
        "ms 6 1\n{tag}\n\n//\nsegsites: 8\npositions: 0.05 0.15 0.30 0.45 0.55 0.70 0.85 0.95\n"
    );
    for (i, row) in rows.iter().enumerate() {
        // Rotate row bits by `tag + i` so distinct tags yield distinct
        // matrices (and therefore distinct payload digests).
        let shift = ((tag as usize) + i) % row.len();
        out.push_str(&row[shift..]);
        out.push_str(&row[..shift]);
        out.push('\n');
    }
    out
}

pub fn scan_body(tag: u64, grid: usize) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":{grid}}}}}",
        ms_payload(tag)
    )
}

/// Extracts the job id from a `POST /scan` / `GET /jobs/<id>` body.
pub fn job_id(body: &str) -> String {
    let v = omega_obs::parse_json(body).expect("job body parses");
    v.get("job").and_then(|x| x.as_str()).expect("job id present").to_string()
}

/// Polls `GET /jobs/<id>` until the job leaves queued/running; returns
/// the final response body.
pub fn poll_done(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "poll {id}: {body}");
        let state = omega_obs::parse_json(&body)
            .expect("job body parses")
            .get("state")
            .and_then(|v| v.as_str())
            .expect("state present")
            .to_string();
        match state.as_str() {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} stuck in {state}");
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => return body,
        }
    }
}

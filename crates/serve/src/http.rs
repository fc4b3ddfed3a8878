//! The workspace's one HTTP/1.1 implementation, over `std::net`: the
//! daemon's server half, the client half its peers speak, and the
//! connection loop every daemon runs. Exactly what the daemons need,
//! and nothing the offline vendor policy would have to grow for.
//!
//! **Framing, shared by both halves.** One bounded head reader and one
//! header scan parse requests and responses alike. Heads are capped at
//! [`MAX_HEAD_BYTES`] and read byte-wise, so the next message on a
//! persistent connection stays unread. Conflicting duplicate
//! `Content-Length` headers are rejected outright: with keep-alive
//! enabled, a parser that silently picks one of two lengths is a
//! request-smuggling primitive. An unparsable `Content-Length` and a
//! header line without a colon are rejected too. `Connection: close` and
//! `Connection: keep-alive` override the version default (HTTP/1.1
//! keeps alive, HTTP/1.0 closes). Parsing is deliberately strict — a
//! strict parser is a smaller attack surface than a lenient one.
//!
//! **Server half.** [`serve_connection`] is the loop both the serve
//! daemon and the cluster coordinator run. It reads requests off one
//! socket (`Content-Length` bodies only, with the limit enforced on the
//! declared length before buffering; chunked request bodies are 501),
//! routes each through the daemon's closure, streams bodies of
//! [`CHUNKED_THRESHOLD_BYTES`] or more with `Transfer-Encoding: chunked`
//! when the request allows it, and keeps the connection alive until the
//! peer or the daemon opts out. A framing error is answered with its
//! status and `Connection: close`, because the next request's start
//! can no longer be trusted.
//!
//! **Client half.** [`read_response`] decodes `Content-Length` and
//! chunked bodies under the same checks; it also rejects a response
//! with neither framing (or both) and bodies over
//! [`MAX_RESPONSE_BYTES`]. [`HttpClient`] keeps a few idle keep-alive
//! connections per peer. A connection that saw any error is dropped,
//! never pooled. A request that fails on a pooled connection is re-sent
//! once on a fresh one only when the peer dropped the connection before
//! any response byte arrived (EOF, reset or broken pipe): that is how a
//! keep-alive socket the peer closed while it idled fails. A timeout is
//! a peer failure and is never re-sent — the peer may still be working
//! on the request.

use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use omega_obs::{Counter, JsonObject};

/// Hard cap on a message's start line + headers block.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a response body the client half accepts (shard reports
/// are bounded by grid size; anything past this is a protocol error,
/// not data).
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Response bodies at or above this size are sent with
/// `Transfer-Encoding: chunked` (when the request allows it) in
/// [`CHUNK_BYTES`] pieces, so a large per-replicate report streams to
/// the peer without one contiguous header+body allocation.
pub const CHUNKED_THRESHOLD_BYTES: usize = 32 * 1024;

/// Chunk size for chunked responses.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Idle keep-alive connections a client keeps per peer: enough for the
/// scatter fan-out, bounded so a burst cannot pin sockets forever.
const MAX_IDLE_CONNECTIONS: usize = 8;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token.
    pub method: String,
    /// Path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Raw `X-Omega-Trace` header value, if the caller sent one.
    pub trace_header: Option<String>,
    /// Whether the connection may serve another request after this one
    /// (HTTP/1.1 default; `Connection: close` or HTTP/1.0 without
    /// `Connection: keep-alive` opt out).
    pub keep_alive: bool,
    /// Whether the request was HTTP/1.1 (chunked responses are legal).
    pub http11: bool,
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The raw head: status line and headers.
    pub head: String,
    /// `Retry-After` header in seconds, when the peer sent one (429).
    pub retry_after: Option<u64>,
    /// Decoded body.
    pub body: String,
    /// Whether the peer will read another request on this connection.
    pub keep_alive: bool,
}

/// Why a message could not be read. Each maps to one response status
/// when the message was a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically broken message (status 400).
    BadRequest(String),
    /// Headers exceeded [`MAX_HEAD_BYTES`] (status 431).
    HeadersTooLarge,
    /// Body exceeded the configured limit (status 413).
    BodyTooLarge {
        /// The configured cap the declared length exceeded.
        limit: usize,
    },
    /// Declared `Transfer-Encoding` we do not implement (status 501).
    UnsupportedTransferEncoding,
    /// The peer sent no byte of the message: it closed, reset or timed
    /// out first (on the client, a failed request write counts too).
    Idle(ErrorKind),
    /// Socket-level failure mid-message (connection is dropped).
    Io(String),
}

impl HttpError {
    /// The response status line for this error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
            HttpError::Idle(_) | HttpError::Io(_) => (400, "Bad Request"),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadersTooLarge => format!("headers exceed {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge { limit } => format!("body exceeds {limit} bytes"),
            HttpError::UnsupportedTransferEncoding => {
                "only Content-Length bodies are supported".to_string()
            }
            HttpError::Idle(kind) => format!("peer sent nothing ({kind})"),
            HttpError::Io(m) => m.clone(),
        }
    }

    /// Whether the peer dropped the connection before a byte of the
    /// response — the one failure a pooled connection may be re-sent on.
    fn is_stale_connection(&self) -> bool {
        matches!(
            self,
            HttpError::Idle(
                ErrorKind::UnexpectedEof
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
            )
        )
    }
}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError::BadRequest(message.into())
}

/// Past a message's first byte, "the peer sent nothing" no longer
/// holds: the failure is a torn message.
fn mid_message(e: HttpError) -> HttpError {
    match e {
        HttpError::Idle(kind) => HttpError::Io(format!("connection ended mid-message ({kind})")),
        e => e,
    }
}

/// Reads byte-wise until `at_end` accepts the buffer, bounded by
/// [`MAX_HEAD_BYTES`]. Byte-wise over a buffered reader, so it never
/// consumes bytes past the terminator.
fn read_until<R: Read>(reader: &mut R, at_end: fn(&[u8]) -> bool) -> Result<Vec<u8>, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Idle(ErrorKind::UnexpectedEof)),
            Ok(0) => return Err(bad("connection closed mid-headers")),
            Ok(_) => buf.push(byte[0]),
            Err(e) if buf.is_empty() => return Err(HttpError::Idle(e.kind())),
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        if at_end(&buf) {
            return Ok(buf);
        }
    }
}

/// Reads one head: start line + headers through the blank line.
fn read_head<R: Read>(reader: &mut R) -> Result<String, HttpError> {
    let head = read_until(reader, |b| b.ends_with(b"\r\n\r\n") || b.ends_with(b"\n\n"))?;
    String::from_utf8(head).map_err(|_| bad("non-UTF-8 headers"))
}

/// What the header scan extracts from one head.
struct Headers<'a> {
    content_length: Option<usize>,
    chunked: bool,
    keep_alive: bool,
    trace: Option<&'a str>,
    retry_after: Option<u64>,
}

/// Scans the header lines after the start line; `http11` is the
/// keep-alive default the `Connection` tokens override.
fn scan_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
    http11: bool,
) -> Result<Headers<'a>, HttpError> {
    let mut headers = Headers {
        content_length: None,
        chunked: false,
        keep_alive: http11,
        trace: None,
        retry_after: None,
    };
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header line {line:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let parsed: usize =
                    value.parse().map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
                // Duplicate headers: identical repeats are tolerated
                // (RFC 9112 §6.3), conflicting ones are the
                // request-smuggling shape and must die here.
                match headers.content_length {
                    Some(prev) if prev != parsed => {
                        return Err(bad(format!(
                            "conflicting Content-Length headers ({prev} then {parsed})"
                        )));
                    }
                    _ => headers.content_length = Some(parsed),
                }
            }
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => headers.chunked = true,
            "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                return Err(HttpError::UnsupportedTransferEncoding);
            }
            "connection" => {
                let tokens = value.to_ascii_lowercase();
                if tokens.split(',').any(|t| t.trim() == "close") {
                    headers.keep_alive = false;
                } else if tokens.split(',').any(|t| t.trim() == "keep-alive") {
                    headers.keep_alive = true;
                }
            }
            "x-omega-trace" => headers.trace = Some(value),
            "retry-after" => headers.retry_after = value.parse().ok(),
            _ => {}
        }
    }
    Ok(headers)
}

/// Reads one request. `Ok(None)` means the peer closed between
/// requests (a clean end of the connection). On a connection, `reader`
/// is one buffered reader kept across requests, so bytes the kernel
/// delivered after one request's body (the start of the next) are not
/// lost between reads.
fn read_request<R: Read>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Option<Request>, HttpError> {
    let head = match read_head(reader) {
        Ok(head) => head,
        // A peer closing, or an idle keep-alive connection timing out,
        // between requests is a clean close, not an error.
        Err(HttpError::Idle(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1") {
        return Err(bad(format!("malformed request line {request_line:?}")));
    }
    if !target.starts_with('/') {
        return Err(bad(format!("target must be absolute, got {target:?}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let http11 = version == "HTTP/1.1";
    let headers = scan_headers(lines, http11)?;
    if headers.chunked {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let content_length = headers.content_length.unwrap_or(0);
    // The limit gates on the *declared* length, before any buffering.
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge { limit: max_body_bytes });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| HttpError::Io(e.to_string()))?;
    Ok(Some(Request {
        method,
        path,
        body,
        trace_header: headers.trace.map(str::to_string),
        keep_alive: headers.keep_alive,
        http11,
    }))
}

/// Reads one response off `reader`. Any error leaves the connection's
/// framing unknown: the caller must drop it.
pub fn read_response<R: Read>(reader: &mut R) -> Result<ClientResponse, HttpError> {
    let head = read_head(reader)?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status = match parts.next().map(str::parse::<u16>) {
        Some(Ok(status)) if version.starts_with("HTTP/1.") => status,
        _ => return Err(bad(format!("malformed status line {status_line:?}"))),
    };
    let headers = scan_headers(lines, version == "HTTP/1.1")?;
    let body = match (headers.content_length, headers.chunked) {
        (Some(len), false) => {
            if len > MAX_RESPONSE_BYTES {
                return Err(HttpError::BodyTooLarge { limit: MAX_RESPONSE_BYTES });
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|e| HttpError::Io(e.to_string()))?;
            body
        }
        (None, true) => read_chunked(reader)?,
        (Some(_), true) => return Err(bad("both Content-Length and chunked framing")),
        (None, false) => {
            return Err(bad("response has neither Content-Length nor chunked framing"))
        }
    };
    let (retry_after, keep_alive) = (headers.retry_after, headers.keep_alive);
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(ClientResponse { status, head, retry_after, body, keep_alive })
}

/// Decodes a chunked body through its last chunk.
fn read_chunked<R: Read>(reader: &mut R) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_until(reader, |b| b.ends_with(b"\r\n")).map_err(mid_message)?;
        let size = String::from_utf8_lossy(&line);
        let len = usize::from_str_radix(size.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size:?}")))?;
        if len > MAX_RESPONSE_BYTES - body.len() {
            return Err(HttpError::BodyTooLarge { limit: MAX_RESPONSE_BYTES });
        }
        let mut chunk = vec![0u8; len + 2]; // data + trailing CRLF
        reader.read_exact(&mut chunk).map_err(|e| HttpError::Io(e.to_string()))?;
        if !chunk.ends_with(b"\r\n") {
            return Err(bad("chunk data not followed by CRLF"));
        }
        if len == 0 {
            return Ok(body);
        }
        body.extend_from_slice(&chunk[..len]);
    }
}

/// One routed response, ready to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, written after `Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: String,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response { status, reason, content_type: "application/json", headers: Vec::new(), body }
    }

    /// A JSON error response: `{"error": message}`.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::json(status, reason, error_body(message))
    }
}

/// The `{"error": message}` body every error response carries.
pub fn error_body(message: &str) -> String {
    JsonObject::new().string("error", message).finish()
}

/// Writes one response and flushes: `Content-Length` framing, or
/// `Transfer-Encoding: chunked` in [`CHUNK_BYTES`] pieces. `keep_alive`
/// sets the `Connection` header; the caller owns the decision to read
/// another request or drop the socket.
fn write_response<W: Write>(
    out: &mut W,
    response: &Response,
    keep_alive: bool,
    chunked: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
        response.status, response.reason, response.content_type
    );
    head.push_str(if keep_alive { "Connection: keep-alive\r\n" } else { "Connection: close\r\n" });
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    let body = response.body.as_bytes();
    if chunked {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        out.write_all(head.as_bytes())?;
        for chunk in body.chunks(CHUNK_BYTES) {
            write!(out, "{:x}\r\n", chunk.len())?;
            out.write_all(chunk)?;
            out.write_all(b"\r\n")?;
        }
        out.write_all(b"0\r\n\r\n")?;
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        out.write_all(head.as_bytes())?;
        // The body goes out from its own buffer, never concatenated
        // into the header allocation.
        out.write_all(body)?;
    }
    out.flush()
}

/// Serves one accepted connection until the peer closes or asks to
/// close, a request fails to parse, or `closing` is set. Each request is
/// answered with `route(&request)`; bodies of
/// [`CHUNKED_THRESHOLD_BYTES`] or more go out chunked to HTTP/1.1 peers.
pub fn serve_connection(
    stream: TcpStream,
    max_body_bytes: usize,
    closing: &AtomicBool,
    mut route: impl FnMut(&Request) -> Response,
) {
    // A stalled peer must not pin a handler thread forever; on an idle
    // keep-alive connection the timeout reads as a clean close.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Nagle + delayed ACK stalls keep-alive round-trips by ~40 ms when
    // a response crosses two writes (head, then body).
    let _ = stream.set_nodelay(true);
    let mut conn = BufReader::new(stream);
    loop {
        match read_request(&mut conn, max_body_bytes) {
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive && !closing.load(Ordering::SeqCst);
                let response = route(&request);
                let chunked = request.http11 && response.body.len() >= CHUNKED_THRESHOLD_BYTES;
                let written = write_response(conn.get_mut(), &response, keep_alive, chunked);
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            // A clean close, or a socket already broken: nothing useful
            // to write.
            Ok(None) | Err(HttpError::Io(_)) => return,
            Err(e) => {
                let (status, reason) = e.status();
                let response = Response::error(status, reason, &e.detail());
                let _ = write_response(conn.get_mut(), &response, false, false);
                return;
            }
        }
    }
}

/// Spawns a daemon's accept loop on a `{role}-accept` thread. Each
/// accepted connection gets its own `{role}-conn` thread running
/// `handle(&shared, stream)`. The loop ends at the first connection
/// accepted after `closing(&shared)` is set, so shutdown sets the flag
/// and then connects once to wake it. Failed accepts are skipped, and a
/// connection whose thread cannot be spawned is dropped: under thread
/// exhaustion the daemon sheds load rather than dies.
pub fn spawn_acceptor<S: Send + Sync + 'static>(
    listener: TcpListener,
    role: &str,
    shared: Arc<S>,
    closing: fn(&S) -> &AtomicBool,
    handle: fn(&S, TcpStream),
) -> io::Result<JoinHandle<()>> {
    let conn_name = format!("{role}-conn");
    std::thread::Builder::new().name(format!("{role}-accept")).spawn(move || {
        for stream in listener.incoming() {
            if closing(&shared).load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&shared);
            // Thread exhaustion: shed this connection rather than die.
            let _ = std::thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || handle(&shared, stream));
        }
    })
}

/// A pooled keep-alive client for one peer address.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    timeout: Duration,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    connections_opened: AtomicU64,
    stale_retries: Option<&'static Counter>,
}

impl HttpClient {
    /// A client for `addr` with a per-IO-operation timeout.
    pub fn new(addr: String, timeout: Duration) -> Self {
        HttpClient {
            addr,
            timeout,
            idle: Mutex::new(Vec::new()),
            connections_opened: AtomicU64::new(0),
            stale_retries: None,
        }
    }

    /// Counts every stale-connection re-send on `counter`.
    pub fn count_stale_retries(mut self, counter: &'static Counter) -> Self {
        self.stale_retries = Some(counter);
        self
    }

    /// The peer address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connections this client has opened so far.
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened.load(Ordering::SeqCst)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> Result<ClientResponse, HttpError> {
        self.request("GET", path, &[], "")
    }

    /// `POST path` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> Result<ClientResponse, HttpError> {
        self.request("POST", path, &[], body)
    }

    /// One round-trip with extra request headers. A pooled connection
    /// the peer closed while it idled gets one re-send on a fresh
    /// connection; every other failure is returned as is.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<ClientResponse, HttpError> {
        if let Some(conn) = self.checkout() {
            match self.round_trip(conn, method, path, headers, body) {
                Err(e) if e.is_stale_connection() => {
                    if let Some(counter) = self.stale_retries {
                        counter.inc();
                    }
                }
                done => return done,
            }
        }
        let conn = self.connect()?;
        self.round_trip(conn, method, path, headers, body)
    }

    fn checkout(&self) -> Option<BufReader<TcpStream>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn checkin(&self, conn: BufReader<TcpStream>) {
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push(conn);
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, HttpError> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| HttpError::Io(format!("connect {}: {e}", self.addr)))?;
        self.connections_opened.fetch_add(1, Ordering::SeqCst);
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    fn round_trip(
        &self,
        mut conn: BufReader<TcpStream>,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<ClientResponse, HttpError> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!(
            "Connection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ));
        let stream = conn.get_mut();
        // No response byte can have arrived while the request is still
        // going out, so a failed write is `Idle`.
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .and_then(|()| stream.flush())
            .map_err(|e| HttpError::Idle(e.kind()))?;
        let response = read_response(&mut conn)?;
        if response.keep_alive {
            self.checkin(conn);
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Instant;

    /// Runs the parser against raw client bytes via a loopback pair.
    fn parse_raw(input: &[u8], max_body: usize) -> Result<Option<Request>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let input = input.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&input).unwrap();
        });
        let (server_side, _) = listener.accept().unwrap();
        let out = read_request(&mut BufReader::new(server_side), max_body);
        client.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /scan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_raw(raw, 1024).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/scan");
        assert_eq!(req.body, b"abcd");
        assert!(req.trace_header.is_none());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.http11);
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let req = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse_raw(b"GET / HTTP/1.0\r\n\r\n", 64).unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        assert!(!req.http11);
        let req =
            parse_raw(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 64).unwrap().unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let raw = b"POST /scan HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        match parse_raw(raw, 1024) {
            Err(HttpError::BadRequest(m)) => assert!(m.contains("conflicting"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Identical duplicates are tolerated (RFC 9112 §6.3).
        let raw = b"POST /scan HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_raw(raw, 1024).unwrap().unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn keep_alive_reads_two_requests_off_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi").unwrap();
            s.write_all(b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        });
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(server_side);
        let first = read_request(&mut conn, 1024).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        assert!(first.keep_alive);
        let second = read_request(&mut conn, 1024).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
        assert!(read_request(&mut conn, 1024).unwrap().is_none(), "peer closed");
        client.join().unwrap();
    }

    #[test]
    fn trace_header_is_captured_case_insensitively() {
        let raw =
            b"GET /stats HTTP/1.1\r\nx-OMEGA-trace: 00000000deadbeef-0000000000000001\r\n\r\n";
        let req = parse_raw(raw, 1024).unwrap().unwrap();
        assert_eq!(req.trace_header.as_deref(), Some("00000000deadbeef-0000000000000001"));
    }

    #[test]
    fn strips_query_and_handles_bare_lf() {
        let raw = b"GET /stats?pretty=1 HTTP/1.1\n\n";
        let req = parse_raw(raw, 1024).unwrap().unwrap();
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(parse_raw(b"TOTAL GARBAGE\r\n\r\n", 1024), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse_raw(b"GET noslash HTTP/1.1\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_read() {
        let raw = b"POST /scan HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(parse_raw(raw, 64).unwrap_err(), HttpError::BodyTooLarge { limit: 64 });
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_raw(&raw, 1024).unwrap_err(), HttpError::HeadersTooLarge);
    }

    #[test]
    fn chunked_request_encoding_is_rejected_as_unimplemented() {
        let raw = b"POST /scan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse_raw(raw, 1024).unwrap_err(), HttpError::UnsupportedTransferEncoding);
        assert_eq!(HttpError::UnsupportedTransferEncoding.status().0, 501);
    }

    #[test]
    fn empty_connection_is_a_clean_none() {
        assert!(parse_raw(b"", 1024).unwrap().is_none());
    }

    #[test]
    fn chunked_response_roundtrips() {
        let body: String = "x".repeat(CHUNK_BYTES * 2 + 100);
        let response = Response::json(200, "OK", body.clone());
        let mut wire = Vec::new();
        write_response(&mut wire, &response, false, true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        let parsed = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(parsed.status, 200);
        assert!(!parsed.keep_alive);
        assert_eq!(parsed.body, body);
    }

    /// What a [`serve_script`] server does with each request it reads.
    #[derive(Clone, Copy)]
    enum Step {
        /// Answer with these bytes and keep the connection.
        Reply(&'static [u8]),
        /// Answer, then close the connection as an idle timeout would.
        ReplyAndClose(&'static [u8]),
        /// Never answer (the connection stays open past any timeout).
        Stall,
    }

    /// A raw loopback server that answers the n-th request it reads,
    /// on whichever connection, with `steps[n]`. Returns its address
    /// and its (connections accepted, requests read) counters.
    fn serve_script(steps: Vec<Step>) -> (String, Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let connections = Arc::new(AtomicUsize::new(0));
        let requests = Arc::new(AtomicUsize::new(0));
        let (conns, reqs) = (Arc::clone(&connections), Arc::clone(&requests));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                conns.fetch_add(1, Ordering::SeqCst);
                let (reqs, steps) = (Arc::clone(&reqs), steps.clone());
                std::thread::spawn(move || {
                    let mut conn = BufReader::new(stream);
                    while let Ok(Some(_)) = read_request(&mut conn, 1 << 20) {
                        let n = reqs.fetch_add(1, Ordering::SeqCst);
                        match steps.get(n).copied().unwrap_or(Step::Stall) {
                            Step::Reply(raw) => conn.get_mut().write_all(raw).unwrap(),
                            Step::ReplyAndClose(raw) => {
                                conn.get_mut().write_all(raw).unwrap();
                                return;
                            }
                            Step::Stall => {
                                std::thread::sleep(Duration::from_secs(2));
                                return;
                            }
                        }
                    }
                });
            }
        });
        (addr, connections, requests)
    }

    /// A raw server answering its one request with `raw`.
    fn serve_raw(raw: &'static [u8]) -> String {
        serve_script(vec![Step::Reply(raw)]).0
    }

    const OK_KEEP_ALIVE: &[u8] =
        b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok";

    /// A response framed as `bad` is an error, and the connection it
    /// arrived on is dropped: the next request opens a fresh one.
    fn assert_rejected_and_not_pooled(bad: &'static [u8], expect: &str) {
        let (addr, connections, _) =
            serve_script(vec![Step::Reply(bad), Step::Reply(OK_KEEP_ALIVE)]);
        let client = HttpClient::new(addr, Duration::from_secs(2));
        match client.get("/x") {
            Err(HttpError::BadRequest(m)) => assert!(m.contains(expect), "{m}"),
            other => panic!("expected a framing error, got {other:?}"),
        }
        let next = client.get("/x").unwrap();
        assert_eq!(next.body, "ok", "next request must not read the torn response's bytes");
        assert_eq!(connections.load(Ordering::SeqCst), 2, "the torn connection was pooled");
    }

    #[test]
    fn parses_content_length_response() {
        let addr = serve_raw(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
              Connection: keep-alive\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        let client = HttpClient::new(addr, Duration::from_secs(2));
        let r = client.get("/healthz").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"a\":1}");
        assert!(r.retry_after.is_none());
    }

    #[test]
    fn parses_chunked_response_and_retry_after() {
        let addr = serve_raw(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\n\
              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
              4\r\nbusy\r\n3\r\nnow\r\n0\r\n\r\n",
        );
        let client = HttpClient::new(addr, Duration::from_secs(2));
        let r = client.get("/x").unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after, Some(3));
        assert_eq!(r.body, "busynow");
    }

    #[test]
    fn connect_failure_is_an_error_not_a_panic() {
        // Reserved port with no listener.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let client = HttpClient::new(addr, Duration::from_millis(200));
        assert!(client.get("/healthz").is_err());
    }

    #[test]
    fn client_rejects_conflicting_content_lengths() {
        assert_rejected_and_not_pooled(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            "conflicting Content-Length",
        );
    }

    #[test]
    fn client_rejects_unparsable_content_length() {
        assert_rejected_and_not_pooled(
            b"HTTP/1.1 200 OK\r\nContent-Length: seven\r\n\r\n{\"a\":1}",
            "bad Content-Length",
        );
    }

    #[test]
    fn client_rejects_response_without_framing() {
        assert_rejected_and_not_pooled(
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n",
            "neither Content-Length nor chunked",
        );
    }

    #[test]
    fn timeout_on_pooled_connection_is_not_re_sent() {
        let timeout = Duration::from_millis(250);
        let (addr, _, requests) = serve_script(vec![Step::Reply(OK_KEEP_ALIVE), Step::Stall]);
        let client = HttpClient::new(addr, timeout);
        assert_eq!(client.get("/x").unwrap().body, "ok");
        let started = Instant::now();
        let err = client.get("/x").unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, HttpError::Idle(_)), "{err:?}");
        assert_eq!(requests.load(Ordering::SeqCst), 2, "a timed-out request was re-sent");
        assert!(elapsed < timeout * 9 / 5, "failed after {elapsed:?}, timeout {timeout:?}");
    }

    #[test]
    fn stale_pooled_connection_is_re_sent_once_on_a_fresh_one() {
        let (addr, connections, requests) = serve_script(vec![
            Step::ReplyAndClose(OK_KEEP_ALIVE),
            Step::Reply(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh"),
        ]);
        let client = HttpClient::new(addr, Duration::from_secs(2));
        assert_eq!(client.get("/x").unwrap().body, "ok");
        assert_eq!(client.get("/x").unwrap().body, "fresh");
        assert_eq!(connections.load(Ordering::SeqCst), 2);
        assert_eq!(requests.load(Ordering::SeqCst), 2);
        assert_eq!(client.connections_opened(), 2);
    }
}

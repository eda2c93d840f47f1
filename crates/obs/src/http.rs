//! Minimal HTTP/1.1 framing for the verification service — the wire
//! sibling of the in-tree JSON layer ([`crate::json`]): std-only,
//! recursive-descent-simple, and strict about what it accepts.
//!
//! This is *framing only*: request/response lines, headers, and
//! `Content-Length` bodies. No chunked encoding, no continuation lines,
//! no transfer negotiation — the verification protocol (DESIGN §12)
//! needs none of them, and every rejected shape is a typed
//! [`HttpError`] the server maps to a distinct error response. Both
//! sides of the conversation live here so the server, the replay
//! client, and the fault-injection tests share one parser.

use std::io::{BufRead, Write};

/// Maximum accepted size of a request/status line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A typed framing failure. Every variant maps to a distinct error
/// response in the server (DESIGN §12), so fault-injection tests can
/// assert that malformed inputs are told apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending a single byte —
    /// the clean end of a keep-alive session, not a fault.
    Closed,
    /// The request/status line or a header violated the grammar.
    Malformed(String),
    /// The head (line + headers) exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The peer promised `expected` body bytes but the stream ended
    /// after `got`.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// An I/O error outside the grammar.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed HTTP: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "declared body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::TruncatedBody { expected, got } => {
                write!(
                    f,
                    "body truncated: Content-Length {expected}, received {got}"
                )
            }
            HttpError::Io(m) => write!(f, "i/o: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, path, headers (in arrival order), body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// The method token (`GET`, `POST`, …), uppercased by the sender.
    pub method: String,
    /// The request target, verbatim.
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True iff the peer asked to close the connection after this
    /// exchange.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parsed response: status code, headers, body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The standard reason phrase for the status codes the service emits.
#[must_use]
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Reads one line terminated by `\r\n` (a bare `\n` is tolerated; the
/// terminator is stripped), charging its length against `budget`.
fn read_line(
    r: &mut impl BufRead,
    budget: &mut usize,
    first: bool,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if first && line.is_empty() {
                    return Ok(None); // clean EOF before any byte
                }
                return Err(HttpError::Malformed("unexpected EOF in head".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let s = String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 head".into()))?;
                    return Ok(Some(s));
                }
                line.push(byte[0]);
                *budget = budget.checked_sub(1).ok_or(HttpError::HeadTooLarge)?;
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Parses headers plus an optional `Content-Length` body (shared between
/// requests and responses). Framing that RFC 7230 §3.3.3 calls invalid is
/// `Malformed`: a `Transfer-Encoding` (no transfer coding is supported),
/// `Content-Length` headers that disagree, or a length that is not all
/// ASCII digits (`usize::from_str` alone would take `+5`).
fn read_head_and_body(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<(Vec<(String, String)>, Vec<u8>), HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget, false)?.unwrap_or_default();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': `{line}`")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "Transfer-Encoding is not supported".into(),
        ));
    }
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v);
    let length = match lengths.next() {
        None => 0,
        Some(v) => {
            if let Some(w) = lengths.find(|w| *w != v) {
                return Err(HttpError::Malformed(format!(
                    "conflicting Content-Length `{v}` and `{w}`"
                )));
            }
            v.parse::<usize>()
                .ok()
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::Malformed(format!("bad Content-Length `{v}`")))?
        }
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(length));
    }
    let mut body = vec![0u8; length];
    let mut got = 0;
    while got < length {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(HttpError::TruncatedBody {
                    expected: length,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    Ok((headers, body))
}

/// Reads one HTTP/1.1 request. Returns [`HttpError::Closed`] on a clean
/// EOF before the first byte (the peer ended a keep-alive session).
///
/// # Errors
///
/// Any framing violation as a typed [`HttpError`].
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_line(r, &mut budget, true)?.ok_or(HttpError::Closed)?;
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(HttpError::Malformed(format!("bad request line `{line}`"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("bad version `{version}`")));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method `{method}`")));
    }
    let (headers, body) = read_head_and_body(r, &mut budget)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Reads one HTTP/1.1 response.
///
/// # Errors
///
/// Any framing violation as a typed [`HttpError`].
pub fn read_response(r: &mut impl BufRead) -> Result<Response, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_line(r, &mut budget, true)?.ok_or(HttpError::Closed)?;
    let mut parts = line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::Malformed(format!("bad status `{line}`")))?,
        _ => return Err(HttpError::Malformed(format!("bad status line `{line}`"))),
    };
    let (headers, body) = read_head_and_body(r, &mut budget)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Sends one message with a single `write_all`: the start line, the
/// headers, the blank line and the body go out as one buffer. Split
/// writes on a socket with Nagle's algorithm on hold the body back
/// until the peer ACKs the head, and a delayed ACK makes that ~40 ms
/// per message.
fn write_message(
    w: &mut impl Write,
    mut head: String,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    w.write_all(&msg)?;
    w.flush()
}

/// Writes one request with a `Content-Length` body, in one write.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n",
        body.len()
    );
    write_message(w, head, extra_headers, body)
}

/// Writes one response with a `Content-Length` body, in one write.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Length: {}\r\nContent-Type: application/json\r\n",
        status_reason(status),
        body.len()
    );
    write_message(w, head, extra_headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.to_vec()))
    }

    #[test]
    fn round_trips_a_request() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "POST",
            "/verify",
            &[("x-test", "1".into())],
            b"{\"case\":\"hvc\"}",
        )
        .unwrap();
        let req = parse(&buf).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/verify");
        assert_eq!(req.header("X-Test"), Some("1"));
        assert_eq!(req.body, b"{\"case\":\"hvc\"}");
        assert!(!req.wants_close());
    }

    #[test]
    fn round_trips_a_response() {
        let mut buf = Vec::new();
        write_response(&mut buf, 404, &[], b"{\"error\":\"unknown-case\"}").unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body_str(), "{\"error\":\"unknown-case\"}");
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write() {
        let headers = [("X-A", "1".to_string()), ("X-B", "2".to_string())];
        let body = b"{\"kind\":\"case\",\"slug\":\"hvc\"}";

        let mut w = CountingWriter::default();
        write_request(&mut w, "POST", "/verify", &headers, body).unwrap();
        assert_eq!(w.writes, 1, "write_request split its message");
        let req = parse(&w.bytes).unwrap();
        assert_eq!(
            (req.header("x-b"), req.body.as_slice()),
            (Some("2"), &body[..])
        );

        let mut w = CountingWriter::default();
        write_response(&mut w, 200, &headers, body).unwrap();
        assert_eq!(w.writes, 1, "write_response split its message");
        assert_eq!(
            w.bytes,
            [
                &b"HTTP/1.1 200 OK\r\nContent-Length: 28\r\n"[..],
                b"Content-Type: application/json\r\nX-A: 1\r\nX-B: 2\r\n\r\n",
                body,
            ]
            .concat()
        );
    }

    #[test]
    fn typed_errors_for_each_fault() {
        assert_eq!(parse(b""), Err(HttpError::Closed));
        assert!(matches!(
            parse(b"BLARG\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let oversized = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse(oversized.as_bytes()),
            Err(HttpError::BodyTooLarge(MAX_BODY_BYTES + 1))
        );
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::TruncatedBody {
                expected: 10,
                got: 3
            })
        );
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde"),
            Err(HttpError::Malformed(m)) if m.contains("conflicting")
        ));
        // Repeating the same length is not a conflict.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc")
            .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn transfer_encoding_is_malformed() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"),
            Err(HttpError::Malformed(m)) if m.contains("Transfer-Encoding")
        ));
        assert!(matches!(
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: identity\r\n\r\nabc"
            ),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn signed_or_empty_content_length_is_malformed() {
        for v in ["+5", "-0", "", " 5 5", "0x5", "5a"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {v}\r\n\r\nabcde");
            assert!(
                matches!(parse(raw.as_bytes()), Err(HttpError::Malformed(_))),
                "Content-Length `{v}` accepted"
            );
        }
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("pad: {}\r\n", "x".repeat(MAX_HEAD_BYTES)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw), Err(HttpError::HeadTooLarge));
    }
}

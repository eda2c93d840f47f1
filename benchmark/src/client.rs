//! The load generator's HTTP/1.1 client.
//!
//! Each request is encoded before the timed region and handed to the
//! socket in one `write_all` on a `TCP_NODELAY` keep-alive connection;
//! the reply is read by `Content-Length`. The client therefore adds no
//! Nagle/delayed-ACK stall of its own, and whatever remains between the
//! server's own wall time and the client's latency is the server's
//! transport cost (`serve.transport_ms`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest reply body the client accepts.
const MAX_BODY: usize = 64 << 20;
/// Longest a reply may take before the run is abandoned as wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Encodes one request. `body` is sent with a `Content-Length`; the
/// connection stays open.
#[must_use]
pub fn encode(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One reply and when its exchange started and ended.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// The server's own wall time for the request (`X-Islaris-Wall-Ns`).
    pub wall_ns: Option<u64>,
    /// The request's trace id (`X-Islaris-Trace-Id`).
    pub trace_id: Option<String>,
    /// Just before the request was handed to the socket.
    pub sent: Instant,
    /// Just after the last body byte was read.
    pub done: Instant,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to the daemon on `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one pre-encoded request and reads its reply.
    ///
    /// # Errors
    ///
    /// I/O failures and replies that break HTTP framing.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        let sent = Instant::now();
        self.writer.write_all(request)?;
        self.read_reply(sent)
    }

    fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        let n = (&mut self.reader).take(16 * 1024).read_line(line)?;
        if n == 0 || !line.ends_with('\n') {
            return Err(bad("connection closed mid-reply"));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(())
    }

    fn read_reply(&mut self, sent: Instant) -> io::Result<Reply> {
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad(&format!("bad status line `{line}`")))?;
        let (mut length, mut wall_ns, mut trace_id) = (0usize, None, None);
        loop {
            self.read_line(&mut line)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(&format!("bad header `{line}`")))?;
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value
                        .parse()
                        .ok()
                        .filter(|&n| n <= MAX_BODY)
                        .ok_or_else(|| bad(&format!("bad Content-Length `{value}`")))?;
                }
                "x-islaris-wall-ns" => wall_ns = value.parse().ok(),
                "x-islaris-trace-id" => trace_id = Some(value.to_string()),
                _ => {}
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            wall_ns,
            trace_id,
            sent,
            done: Instant::now(),
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback responder that, like the client, answers each request
    /// in one write on a `TCP_NODELAY` socket.
    fn responder(listener: TcpListener, requests: usize) {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let body = b"{\"ok\":true}";
        let reply = [
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Islaris-Wall-Ns: 1000\r\n\r\n",
                body.len()
            )
            .as_bytes(),
            body,
        ]
        .concat();
        for _ in 0..requests {
            let mut length = 0;
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).expect("request head");
                let l = line.trim_end();
                if l.is_empty() {
                    break;
                }
                if let Some(v) = l.strip_prefix("Content-Length: ") {
                    length = v.parse().expect("length");
                }
            }
            let mut body = vec![0; length];
            reader.read_exact(&mut body).expect("request body");
            writer.write_all(&reply).expect("reply");
        }
    }

    #[test]
    fn client_adds_no_transport_stall() {
        const N: usize = 2000;
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let server = std::thread::spawn(move || responder(listener, N));
        let mut conn = Conn::connect(port).expect("connect");
        let request = encode("POST", "/verify", "{\"kind\":\"case\",\"slug\":\"hvc\"}");
        let mut lat = Vec::with_capacity(N);
        for _ in 0..N {
            let reply = conn.send(&request).expect("exchange");
            assert_eq!((reply.status, reply.wall_ns), (200, Some(1000)));
            assert_eq!(reply.body, b"{\"ok\":true}");
            lat.push(u64::try_from((reply.done - reply.sent).as_nanos()).expect("fits"));
        }
        server.join().expect("responder");
        let p50 = crate::stats::Dist::new(lat).ms(1, 2);
        assert!(p50 < 0.5, "client round trip p50 {p50} ms");
    }

    #[test]
    fn encode_frames_the_body() {
        let req = encode("GET", "/health", "");
        assert_eq!(
            req,
            b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n"
        );
    }
}

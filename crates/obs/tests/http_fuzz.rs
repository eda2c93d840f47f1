//! Seeded byte-stream fuzzing of the daemon's request parser,
//! [`read_request`].
//!
//! Random valid requests are rendered with [`write_request`] and fed back
//! through a reader that hands them out in short reads, split at random
//! points; a share of them first gets random byte mutations (flips,
//! insertions, deletions, truncation). Every input must either parse or
//! fail with a typed [`HttpError`] — never panic — and:
//!
//! * the verdict does not depend on where the stream was split (it equals
//!   the verdict over one contiguous buffer);
//! * an unmutated request parses back equal to what was written;
//! * a mutated input that still parses is a request the writer can
//!   render: writing it again and re-reading it gives it back.
//!
//! 256 cases by default (`ISLARIS_PT_CASES` overrides); a failure prints
//! a seed replayable with `ISLARIS_PT_SEED`.

use std::io::{BufRead, Cursor, Read};

use islaris_obs::http::{read_request, write_request, HttpError, Request};
use islaris_testkit::{forall, Rng, TestResult};

const CASES: u32 = 256;

/// One fuzz input: the rendered bytes (possibly mutated), the request
/// they were rendered from, and the stream's split points.
#[derive(Debug)]
struct Input {
    sent: Request,
    bytes: Vec<u8>,
    mutated: bool,
    /// Ascending offsets at which the reader ends a short read.
    cuts: Vec<usize>,
}

/// A reader that never returns more than the bytes up to the next cut.
struct ShortReads<'a> {
    data: &'a [u8],
    pos: usize,
    cuts: &'a [usize],
}

impl ShortReads<'_> {
    fn chunk_end(&self) -> usize {
        self.cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.data.len())
            .min(self.data.len())
    }
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk_end() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for ShortReads<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.data[self.pos..self.chunk_end()])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

fn gen_token(r: &mut Rng, alphabet: &[u8], min: u32, max: u32) -> String {
    (0..r.range_u32(min, max))
        .map(|_| char::from(*r.choose(alphabet)))
        .collect()
}

fn gen_request(r: &mut Rng) -> Request {
    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const PATH: &[u8] = b"abcxyz0189/-_.?=&%";
    const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCXYZ0189-";
    const VALUE: &[u8] = b"abcXYZ0189 -_/:;,.=\"'()";
    let method = gen_token(r, UPPER, 1, 7);
    let path = format!("/{}", gen_token(r, PATH, 0, 24));
    let mut headers = vec![];
    for _ in 0..r.range_u32(0, 4) {
        let name = gen_token(r, NAME, 1, 12);
        if name.eq_ignore_ascii_case("content-length")
            || name.eq_ignore_ascii_case("transfer-encoding")
        {
            continue;
        }
        // The parser trims values, so generate them trimmed.
        let value = gen_token(r, VALUE, 0, 16).trim().to_string();
        headers.push((name, value));
    }
    let body = r.bytes(0, 64);
    Request {
        method,
        path,
        headers,
        body,
    }
}

fn render(req: &Request) -> Vec<u8> {
    let extra: Vec<(&str, String)> = req
        .headers
        .iter()
        .filter(|(k, _)| !k.eq_ignore_ascii_case("content-length"))
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let mut buf = Vec::new();
    write_request(&mut buf, &req.method, &req.path, &extra, &req.body).expect("vec write");
    buf
}

fn mutate(r: &mut Rng, bytes: &mut Vec<u8>) {
    for _ in 0..r.range_u32(1, 4) {
        let at = r.index(bytes.len() + 1);
        match r.range_u32(0, 3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << r.range_u32(0, 7),
            1 => bytes.insert(at, *r.choose(b"\r\n :+-0159AaZz\t\x00\xff")),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
}

fn gen_input(r: &mut Rng) -> Input {
    let sent = gen_request(r);
    let mut bytes = render(&sent);
    let mutated = r.range_u32(0, 2) == 0;
    if mutated {
        mutate(r, &mut bytes);
    }
    let mut cuts: Vec<usize> = (0..r.range_u32(0, 12))
        .map(|_| r.index(bytes.len() + 1))
        .collect();
    cuts.sort_unstable();
    Input {
        sent,
        bytes,
        mutated,
        cuts,
    }
}

/// The request as the parser reports it: names lowercased, the
/// `Content-Length` the writer adds in front.
fn as_parsed(req: &Request) -> Request {
    let mut headers = vec![("content-length".to_string(), req.body.len().to_string())];
    headers.extend(
        req.headers
            .iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), v.clone())),
    );
    Request {
        headers,
        ..req.clone()
    }
}

/// Drops every `Content-Length` header: the writer sets its own.
fn without_length(req: &Request) -> Request {
    Request {
        headers: req
            .headers
            .iter()
            .filter(|(k, _)| k != "content-length")
            .cloned()
            .collect(),
        ..req.clone()
    }
}

fn check(input: &Input) -> Result<(), String> {
    let mut reader = ShortReads {
        data: &input.bytes,
        pos: 0,
        cuts: &input.cuts,
    };
    let split: Result<Request, HttpError> = read_request(&mut reader);
    let whole = read_request(&mut Cursor::new(&input.bytes));
    if split != whole {
        return Err(format!(
            "split reads gave {split:?}, one buffer gave {whole:?}"
        ));
    }
    match split {
        Ok(got) if !input.mutated => {
            let want = as_parsed(&input.sent);
            if got != want {
                return Err(format!("parsed {got:?}, sent {want:?}"));
            }
        }
        Ok(got) => {
            let again = read_request(&mut Cursor::new(render(&got)))
                .map_err(|e| format!("re-rendered {got:?} fails to parse: {e}"))?;
            if without_length(&again) != without_length(&got) {
                return Err(format!("re-rendered {got:?} parses as {again:?}"));
            }
        }
        Err(e) if !input.mutated => return Err(format!("valid request rejected: {e}")),
        Err(_) => {}
    }
    Ok(())
}

#[test]
fn fuzz_read_request_over_short_reads_and_mutations() {
    forall(
        "fuzz_read_request_over_short_reads_and_mutations",
        CASES,
        gen_input,
        |input| match check(input) {
            Ok(()) => TestResult::Pass,
            Err(e) => TestResult::Fail(e),
        },
    );
}

//! Fault-injection suite for the `--serve` daemon.
//!
//! Every row injects one fault and asserts two things: the fault maps to
//! its *distinct typed* error response (status + machine-readable
//! `error` kind), and the server keeps serving afterwards — no panic, no
//! poisoned worker, the very next request succeeds.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

use islaris_bench::replay::scrape_metrics;
use islaris_bench::serve::{ServeConfig, Server};
use islaris_obs::http::{read_response, write_request};
use islaris_obs::json::{parse_json, Json};
use islaris_obs::metrics::{family_deltas, sample_delta};

fn start() -> Server {
    Server::start(&ServeConfig::default()).expect("server starts")
}

/// One request over a fresh connection; returns `(status, body)`.
fn rpc(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request(&mut writer, method, path, &[], body.as_bytes()).expect("send");
    let resp = read_response(&mut reader).expect("response");
    (
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    )
}

/// Sends raw bytes (closing the write side) and returns the raw reply.
fn raw(port: u16, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

/// The machine-readable `error` kind of a typed error body.
fn error_kind(body: &str) -> String {
    parse_json(body)
        .ok()
        .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("not a typed error body: {body}"))
}

/// Asserts the server still answers after a fault.
fn assert_alive(port: u16) {
    let (status, body) = rpc(port, "GET", "/health", "");
    assert_eq!((status, body.contains("true")), (200, true));
}

/// One parsed `/metrics` scrape.
fn metrics(port: u16) -> BTreeMap<String, u64> {
    scrape_metrics(&format!("127.0.0.1:{port}")).expect("scrape /metrics")
}

/// The per-kind error-counter delta between two scrapes.
fn kind_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, kind: &str) -> u64 {
    sample_delta(
        before,
        after,
        &format!("islaris_errors_total{{kind=\"{kind}\"}}"),
    )
}

#[test]
fn each_fault_gets_its_own_typed_error_and_the_server_survives() {
    let server = start();
    let port = server.port();

    // Table: (fault label, request, expected status, expected kind).
    let table: &[(&str, &str, &str, &str, u16, &str)] = &[
        (
            "invalid JSON body",
            "POST",
            "/verify",
            "{not json",
            400,
            "invalid-json",
        ),
        (
            "non-object JSON body",
            "POST",
            "/verify",
            "[1,2]",
            400,
            "bad-request",
        ),
        (
            "missing kind",
            "POST",
            "/verify",
            "{\"slug\":\"hvc\"}",
            400,
            "bad-request",
        ),
        (
            "unknown kind",
            "POST",
            "/verify",
            "{\"kind\":\"frobnicate\"}",
            400,
            "bad-request",
        ),
        (
            "unknown case slug",
            "POST",
            "/verify",
            "{\"kind\":\"case\",\"slug\":\"no-such-case\"}",
            404,
            "unknown-case",
        ),
        (
            "opcode too short",
            "POST",
            "/verify",
            "{\"kind\":\"trace\",\"arch\":\"arm\",\"opcode\":\"0x91\"}",
            400,
            "bad-opcode",
        ),
        (
            "opcode not hex",
            "POST",
            "/verify",
            "{\"kind\":\"trace\",\"arch\":\"arm\",\"opcode\":\"0xzzzzzzzz\"}",
            400,
            "bad-opcode",
        ),
        (
            "check spec over a register the path never touches",
            "POST",
            "/verify",
            "{\"kind\":\"check\",\"arch\":\"riscv\",\"opcode\":\"0x00150513\",\
             \"spec\":\"(= (final x9) #x0000000000000000)\"}",
            400,
            "bad-request",
        ),
        (
            "unknown arch",
            "POST",
            "/verify",
            "{\"kind\":\"trace\",\"arch\":\"mips\",\"opcode\":\"0x00000013\"}",
            400,
            "bad-request",
        ),
        (
            "spec does not parse",
            "POST",
            "/verify",
            "{\"kind\":\"check\",\"arch\":\"riscv\",\"opcode\":\"0x00000013\",\"spec\":\"(((\"}",
            400,
            "bad-request",
        ),
        (
            "expired deadline",
            "POST",
            "/verify",
            "{\"kind\":\"case\",\"slug\":\"hvc\",\"deadline_ms\":0}",
            504,
            "deadline-exceeded",
        ),
        (
            "negative deadline",
            "POST",
            "/verify",
            "{\"kind\":\"case\",\"slug\":\"hvc\",\"deadline_ms\":-1}",
            400,
            "bad-request",
        ),
        ("unknown path", "GET", "/nope", "", 404, "unknown-path"),
        (
            "wrong method on /verify",
            "GET",
            "/verify",
            "",
            405,
            "method-not-allowed",
        ),
        (
            "wrong method on /health",
            "DELETE",
            "/health",
            "",
            405,
            "method-not-allowed",
        ),
    ];
    for (label, method, path, body, want_status, want_kind) in table {
        let before = metrics(port);
        let (status, reply) = rpc(port, method, path, body);
        assert_eq!(status, *want_status, "{label}: body {reply}");
        assert_eq!(error_kind(&reply), *want_kind, "{label}");
        // Exactly this fault's counter moved, by exactly one.
        let after = metrics(port);
        assert_eq!(
            kind_delta(&before, &after, want_kind),
            1,
            "{label}: /metrics counter for `{want_kind}`"
        );
        assert_eq!(
            family_deltas(&before, &after, "islaris_errors_total"),
            vec![(want_kind.to_string(), 1)],
            "{label}: no other error kind may move"
        );
        assert_alive(port);
    }

    // The workers are not poisoned: a real job still succeeds.
    let (status, reply) = rpc(
        port,
        "POST",
        "/verify",
        "{\"kind\":\"trace\",\"arch\":\"riscv\",\"opcode\":\"0x00150513\"}",
    );
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"kind\":\"trace\""));

    server.stop();
    server.join();
}

#[test]
fn framing_faults_are_typed_and_scoped_to_their_connection() {
    let server = start();
    let port = server.port();

    // Malformed request line.
    let before = metrics(port);
    let reply = raw(port, b"GARBAGE\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("malformed-request"), "{reply}");
    assert_eq!(kind_delta(&before, &metrics(port), "malformed-request"), 1);
    assert_alive(port);

    // Lowercase method (not a valid token per our framing).
    let before = metrics(port);
    let reply = raw(port, b"get /health HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert_eq!(kind_delta(&before, &metrics(port), "malformed-request"), 1);
    assert_alive(port);

    // Oversized head: one header row larger than the 16 KiB budget.
    let mut big = Vec::from(&b"GET /health HTTP/1.1\r\nx-pad: "[..]);
    big.extend(std::iter::repeat(b'a').take(20 * 1024));
    big.extend(b"\r\n\r\n");
    let before = metrics(port);
    let reply = raw(port, &big);
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
    assert!(reply.contains("head-too-large"), "{reply}");
    assert_eq!(kind_delta(&before, &metrics(port), "head-too-large"), 1);
    assert_alive(port);

    // Declared body over the 4 MiB budget (no need to send it).
    let before = metrics(port);
    let reply = raw(
        port,
        b"POST /verify HTTP/1.1\r\ncontent-length: 8388608\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    assert!(reply.contains("body-too-large"), "{reply}");
    assert_eq!(kind_delta(&before, &metrics(port), "body-too-large"), 1);
    assert_alive(port);

    // Truncated body: promise 100 bytes, deliver 9, close.
    let before = metrics(port);
    let reply = raw(
        port,
        b"POST /verify HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"kind\":1",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("truncated-body"), "{reply}");
    assert_eq!(kind_delta(&before, &metrics(port), "truncated-body"), 1);
    assert_alive(port);

    server.stop();
    server.join();
}

#[test]
fn faulted_requests_never_take_a_trace_journal_slot() {
    let server = start();
    let port = server.port();
    let journal_entries = |port: u16| -> Vec<Json> {
        let (status, body) = rpc(port, "GET", "/trace", "");
        assert_eq!(status, 200, "{body}");
        parse_json(&body)
            .expect("journal index parses")
            .get("entries")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .expect("journal index has entries")
    };
    assert!(journal_entries(port).is_empty());

    // Framing and validation faults: typed answers, no journal slots.
    let _ = raw(port, b"GARBAGE\r\n\r\n");
    let _ = rpc(port, "POST", "/verify", "{not json");
    let _ = rpc(
        port,
        "POST",
        "/verify",
        "{\"kind\":\"case\",\"slug\":\"no-such-case\"}",
    );
    let _ = rpc(port, "GET", "/nope", "");
    let _ = rpc(port, "GET", "/trace/not-hex-at-all", "");
    assert!(
        journal_entries(port).is_empty(),
        "faults must not journal — the journal records work, not noise"
    );

    // A pool job journals, and its trace serves as valid Chrome JSON
    // including the pool-recorded queue-wait span.
    let (status, _) = rpc(
        port,
        "POST",
        "/verify",
        "{\"kind\":\"trace\",\"arch\":\"riscv\",\"opcode\":\"0x00150513\"}",
    );
    assert_eq!(status, 200);
    let entries = journal_entries(port);
    assert_eq!(entries.len(), 1);
    let id = entries[0]
        .get("trace")
        .and_then(Json::as_str)
        .expect("index rows carry the trace id")
        .to_string();
    let (status, body) = rpc(port, "GET", &format!("/trace/{id}"), "");
    assert_eq!(status, 200, "{body}");
    islaris_obs::parse_json(&body).expect("chrome trace is valid JSON");
    assert!(body.contains("\"queue-wait\""), "{body}");
    assert!(body.contains("\"exec\""), "{body}");
    assert!(
        body.contains("\"label\":\"trace:rv64i:0x00150513\""),
        "{body}"
    );

    // An unknown (but well-formed) id is a typed 404.
    let (status, body) = rpc(port, "GET", "/trace/ffffffffffffffff", "");
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind(&body), "unknown-path");

    server.stop();
    server.join();
}

/// Regression: the pool's deadline check used to fire only at dequeue,
/// so a deadline that lapsed *during* a long case ran the case to
/// completion anyway. Now the intra-case scheduler re-checks the
/// deadline between block jobs: a deadline that survives dequeue but
/// lapses mid-case must yield a 504 whose body names the mid-case
/// path, without skewing the pool's gauges — and the very next
/// full-size job must succeed.
#[test]
fn deadline_lapsing_mid_case_interrupts_between_block_jobs() {
    let server = start();
    let port = server.port();
    let before = metrics(port);

    // memcpy_riscv runs tens of milliseconds per block-set even in
    // release, so a 5ms deadline always lapses between its early block
    // jobs (never after the last one, which would let the case finish);
    // the retry loop only absorbs the (rare) run where the dequeue
    // itself took >5ms and the pre-existing dequeue check answered
    // first.
    let mut mid_case = false;
    for _ in 0..5 {
        let (status, body) = rpc(
            port,
            "POST",
            "/verify",
            "{\"kind\":\"case\",\"slug\":\"memcpy_riscv\",\"deadline_ms\":5}",
        );
        assert_eq!(status, 504, "body: {body}");
        assert_eq!(error_kind(&body), "deadline-exceeded");
        if body.contains("mid-case") {
            mid_case = true;
            break;
        }
    }
    assert!(mid_case, "deadline never lapsed between block jobs");

    // The interrupted job retired cleanly: nothing left in flight or
    // queued, no worker panicked, and the error was counted under its
    // kind like any dequeue-time expiry. The 504 is written from inside
    // the pool job, a moment before the worker decrements the in-flight
    // gauge, so quiescence is polled rather than asserted on the first
    // scrape.
    let mut after = metrics(port);
    for _ in 0..200 {
        if after["islaris_in_flight"] == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        after = metrics(port);
    }
    assert_eq!(after["islaris_in_flight"], 0);
    assert_eq!(after["islaris_queue_depth"], 0);
    assert_eq!(after["islaris_job_panics"], before["islaris_job_panics"]);
    assert!(kind_delta(&before, &after, "deadline-exceeded") >= 1);

    // And the same slug verifies normally once the deadline pressure is
    // gone — the pool was not wedged by the mid-case abort.
    let (status, body) = rpc(
        port,
        "POST",
        "/verify",
        "{\"kind\":\"case\",\"slug\":\"hvc\"}",
    );
    assert_eq!(status, 200, "{body}");

    server.stop();
    server.join();
}

#[test]
fn saturation_answers_overloaded_and_recovers() {
    // One worker, one queue slot: a burst of concurrent case jobs must
    // answer every request with either a verdict or a typed 503 — and
    // the server must be fully healthy afterwards.
    let server = Server::start(&ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let port = server.port();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                rpc(
                    port,
                    "POST",
                    "/verify",
                    "{\"kind\":\"case\",\"slug\":\"hvc\"}",
                )
            })
        })
        .collect();
    let mut oks = 0;
    for h in handles {
        let (status, body) = h.join().expect("client thread");
        match status {
            200 => {
                assert!(body.contains("\"verdict\":\"proved\""), "{body}");
                oks += 1;
            }
            503 => assert_eq!(error_kind(&body), "overloaded"),
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(oks >= 1, "at least one job must get through");
    assert_alive(port);

    // After the burst the queue drains and full-size jobs succeed again.
    let (status, _) = rpc(
        port,
        "POST",
        "/verify",
        "{\"kind\":\"case\",\"slug\":\"hvc\"}",
    );
    assert_eq!(status, 200);

    server.stop();
    server.join();
}

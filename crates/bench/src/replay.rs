//! Deterministic load-replay bench for the `--serve` daemon.
//!
//! `fig12 --replay REQS.json --addr HOST:PORT [--clients N]` fires a
//! recorded request list at a running server and reports
//!
//! * a **stable report** — per-request status codes and FNV-1a body
//!   digests, in request order — which is byte-identical across client
//!   counts and cache states (that is the determinism contract the
//!   server keeps, and the test suite asserts), and
//! * **latency telemetry** — throughput plus min/median/p90/max/MAD in
//!   `islaris-bench/v1` style (informational: wall-clock is the one
//!   thing that may vary run to run).
//!
//! Requests are partitioned deterministically: client `c` of `N` sends
//! exactly the requests whose index `i` satisfies `i % N == c`, in
//! index order, on one keep-alive connection. Reordering across clients
//! cannot leak into the report because results are keyed by index.
//!
//! `fig12 --gen-requests PATH [--count N]` writes a mixed request file
//! (`islaris-replay/v1`) cycling case / trace / check / error-path jobs
//! over the bundled Fig. 12 corpus — the input for the ci.sh smoke and
//! the committed bench baselines.

use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use islaris_cases::ALL_CASES;
use islaris_obs::fnv1a;
use islaris_obs::http::{read_response, write_request};
use islaris_obs::json::{obj, parse_json, Json};
use islaris_obs::metrics::{
    family_deltas, histogram_delta, parse_exposition, quantile_from_counts, sample_delta,
};
use islaris_obs::store::u64_json;

use crate::summarize;

/// Schema tag of a request file.
pub const REPLAY_SCHEMA: &str = "islaris-replay/v1";

/// One recorded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReq {
    /// Request method (`GET` / `POST`).
    pub method: String,
    /// Request path (`/verify`, `/stats`, …).
    pub path: String,
    /// Request body (empty for `GET`).
    pub body: String,
}

/// One replayed result, keyed by request index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayResult {
    /// Index into the request list.
    pub index: usize,
    /// HTTP status code.
    pub status: u16,
    /// FNV-1a digest of the response body.
    pub digest: u64,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Wall-clock latency in nanoseconds (telemetry only).
    pub wall_ns: u64,
    /// Response headers as received (telemetry only — the server's
    /// `X-Islaris-Wall-Ns` lives here; excluded from the stable report
    /// and the body dump, which must stay byte-comparable across runs).
    pub headers: Vec<(String, String)>,
}

/// The full outcome of one replay run.
pub struct ReplayOutcome {
    /// Results in request order (every index present exactly once).
    pub results: Vec<ReplayResult>,
    /// Total wall-clock of the run in nanoseconds.
    pub wall_ns: u64,
    /// Clients used.
    pub clients: usize,
}

/// Parses an `islaris-replay/v1` file.
///
/// # Errors
///
/// Describes the first schema violation.
pub fn parse_requests(text: &str) -> Result<Vec<ReplayReq>, String> {
    let j = parse_json(text).map_err(|(off, msg)| format!("byte {off}: {msg}"))?;
    if j.get("schema").and_then(Json::as_str) != Some(REPLAY_SCHEMA) {
        return Err(format!("not an `{REPLAY_SCHEMA}` file"));
    }
    let Some(reqs) = j.get("requests").and_then(Json::as_array) else {
        return Err("missing `requests` array".to_string());
    };
    let mut out = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let field = |k: &str| -> Result<String, String> {
            r.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("request {i}: missing `{k}`"))
        };
        out.push(ReplayReq {
            method: field("method")?,
            path: field("path")?,
            body: r
                .get("body")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        });
    }
    Ok(out)
}

/// Renders a request list as an `islaris-replay/v1` file.
#[must_use]
pub fn render_requests(reqs: &[ReplayReq]) -> String {
    let rows: Vec<Json> = reqs
        .iter()
        .map(|r| {
            obj(vec![
                ("method", Json::Str(r.method.clone())),
                ("path", Json::Str(r.path.clone())),
                ("body", Json::Str(r.body.clone())),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Json::Str(REPLAY_SCHEMA.to_string())),
        ("requests", Json::Arr(rows)),
    ])
    .render()
}

/// A deterministic mixed request list over the bundled corpus: every
/// Fig. 12 case, trace and check jobs on known-good opcodes, health and
/// stats probes, and a sprinkling of typed-error probes (the error paths
/// must be deterministic too). `count` requests, cycling.
#[must_use]
pub fn gen_requests(count: usize) -> Vec<ReplayReq> {
    let post = |body: String| ReplayReq {
        method: "POST".to_string(),
        path: "/verify".to_string(),
        body,
    };
    let get = |path: &str| ReplayReq {
        method: "GET".to_string(),
        path: path.to_string(),
        body: String::new(),
    };
    let mut menu: Vec<ReplayReq> = Vec::new();
    for c in ALL_CASES {
        menu.push(post(format!(
            "{{\"kind\":\"case\",\"slug\":\"{}\"}}",
            c.slug
        )));
    }
    // `add sp, sp, #0x10` (arm) and `addi a0, a0, 1` (riscv): cheap,
    // always-traceable single instructions.
    menu.push(post(
        "{\"kind\":\"trace\",\"arch\":\"arm\",\"opcode\":\"0x910043ff\"}".to_string(),
    ));
    menu.push(post(
        "{\"kind\":\"trace\",\"arch\":\"riscv\",\"opcode\":\"0x00150513\"}".to_string(),
    ));
    menu.push(post(
        "{\"kind\":\"check\",\"arch\":\"riscv\",\"opcode\":\"0x00150513\",\
         \"spec\":\"(= (final x10) (bvadd (init x10) #x0000000000000001))\"}"
            .to_string(),
    ));
    menu.push(get("/health"));
    // Error paths: each exercises one typed error deterministically.
    menu.push(post(
        "{\"kind\":\"case\",\"slug\":\"no-such-case\"}".to_string(),
    ));
    menu.push(post("{not json".to_string()));
    menu.push(post(
        "{\"kind\":\"trace\",\"arch\":\"arm\",\"opcode\":\"0xzz\"}".to_string(),
    ));
    (0..count).map(|i| menu[i % menu.len()].clone()).collect()
}

/// Replays `reqs` against `addr` with `clients` concurrent connections.
///
/// # Errors
///
/// Connection failures or mid-stream transport errors (a typed error
/// *response* is a result, not an error).
pub fn replay(addr: &str, reqs: &[ReplayReq], clients: usize) -> io::Result<ReplayOutcome> {
    let clients = clients.max(1);
    let reqs: Arc<[ReplayReq]> = reqs.to_vec().into();
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let reqs = Arc::clone(&reqs);
        let addr = addr.to_string();
        handles.push(std::thread::spawn(move || {
            client_loop(&addr, &reqs, c, clients)
        }));
    }
    let mut results: Vec<ReplayResult> = Vec::with_capacity(reqs.len());
    for h in handles {
        results.extend(
            h.join()
                .map_err(|_| io::Error::new(io::ErrorKind::Other, "replay client panicked"))??,
        );
    }
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    results.sort_by_key(|r| r.index);
    Ok(ReplayOutcome {
        results,
        wall_ns,
        clients,
    })
}

fn client_loop(
    addr: &str,
    reqs: &[ReplayReq],
    client: usize,
    clients: usize,
) -> io::Result<Vec<ReplayResult>> {
    let stream = TcpStream::connect(addr)?;
    // Each request is one write (`write_request`): nodelay sends it at
    // once instead of waiting on the server's delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Vec::new();
    for (i, req) in reqs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % clients == client)
    {
        let t0 = Instant::now();
        write_request(
            &mut writer,
            &req.method,
            &req.path,
            &[],
            req.body.as_bytes(),
        )?;
        let resp = read_response(&mut reader)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        out.push(ReplayResult {
            index: i,
            status: resp.status,
            digest: fnv1a(&resp.body),
            wall_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            body: resp.body,
            headers: resp.headers,
        });
    }
    Ok(out)
}

impl ReplayOutcome {
    /// The deterministic report: per-request `index status digest`
    /// lines, byte-identical across client counts and cache states.
    #[must_use]
    pub fn stable_report(&self) -> String {
        let mut s = String::new();
        for r in &self.results {
            s.push_str(&format!("{:>5} {} {:016x}\n", r.index, r.status, r.digest));
        }
        s
    }

    /// Latency telemetry in `islaris-bench/v1` spirit: throughput plus
    /// min/median/p90/max/MAD over per-request wall-clock. Informational.
    #[must_use]
    pub fn telemetry(&self) -> Json {
        let times: Vec<u64> = self.results.iter().map(|r| r.wall_ns).collect();
        let (min, median, p90, max, mad) = summarize(&times);
        let secs = self.wall_ns as f64 / 1e9;
        let rps = if secs > 0.0 {
            self.results.len() as f64 / secs
        } else {
            0.0
        };
        obj(vec![
            ("requests", u64_json(self.results.len() as u64)),
            ("clients", u64_json(self.clients as u64)),
            ("wall_ns", u64_json(self.wall_ns)),
            ("throughput_rps", Json::Num((rps * 100.0).round() / 100.0)),
            (
                "latency_ns",
                obj(vec![
                    ("min", u64_json(min)),
                    ("median", u64_json(median)),
                    ("p90", u64_json(p90)),
                    ("max", u64_json(max)),
                    ("mad", u64_json(mad)),
                ]),
            ),
        ])
    }
}

/// Scrapes `GET /metrics` from a running server and parses the text
/// exposition into `sample-name -> value`.
///
/// # Errors
///
/// Connection or framing failures, a non-200 answer, or an exposition
/// the parser rejects.
pub fn scrape_metrics(addr: &str) -> io::Result<BTreeMap<String, u64>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    write_request(&mut writer, "GET", "/metrics", &[], b"")?;
    let resp = read_response(&mut reader)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    if resp.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("GET /metrics answered {}", resp.status),
        ));
    }
    let text = String::from_utf8(resp.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "exposition is not UTF-8"))?;
    parse_exposition(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The server-side delta between two `/metrics` scrapes bracketing a
/// replay: requests and responses-by-status, error kinds that fired,
/// and the request-latency histogram's quantiles over exactly the
/// bracketed interval. The p50/p90 here use the same nearest-rank rule
/// as [`summarize`], so they agree with the client-side telemetry up to
/// bucket resolution (`max` is the delta's `+Inf`-aware upper bound).
#[must_use]
pub fn metrics_delta_report(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Json {
    let fam = |name: &str| -> Json {
        Json::Obj(
            family_deltas(before, after, name)
                .into_iter()
                .map(|(k, v)| (k, u64_json(v)))
                .collect(),
        )
    };
    let hist = histogram_delta(before, after, "islaris_request_wall_ns");
    let q = |num, den| match quantile_from_counts(&hist, num, den) {
        Some(v) => u64_json(v),
        None => Json::Null,
    };
    obj(vec![
        (
            "requests",
            u64_json(sample_delta(before, after, "islaris_requests_total")),
        ),
        ("responses", fam("islaris_responses_total")),
        ("errors", fam("islaris_errors_total")),
        (
            "request_wall_ns",
            obj(vec![
                ("count", u64_json(hist.iter().sum())),
                ("p50_le", q(1, 2)),
                ("p90_le", q(9, 10)),
                ("max_le", q(1, 1)),
            ]),
        ),
        // Per-request-kind execution medians (pool execute stage only,
        // queue wait excluded) from the per-kind histograms the daemon
        // keeps alongside the aggregate. A kind that did not run in the
        // bracketed interval reports null rather than 0 so "no traffic"
        // and "instant" stay distinguishable.
        (
            "p50_exec_ns",
            Json::Obj(
                [("case", "case"), ("trace", "trace"), ("check", "check")]
                    .into_iter()
                    .map(|(key, kind)| {
                        let h =
                            histogram_delta(before, after, &format!("islaris_exec_{kind}_wall_ns"));
                        let p50 = match quantile_from_counts(&h, 1, 2) {
                            Some(v) => u64_json(v),
                            None => Json::Null,
                        };
                        (key.to_string(), p50)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_files_round_trip() {
        let reqs = gen_requests(17);
        let parsed = parse_requests(&render_requests(&reqs)).unwrap();
        assert_eq!(parsed, reqs);
    }

    #[test]
    fn gen_requests_cycles_the_menu() {
        let reqs = gen_requests(40);
        assert_eq!(reqs.len(), 40);
        // The menu is longer than ALL_CASES alone; the first request is
        // the first registry case.
        assert!(reqs[0].body.contains(ALL_CASES[0].slug));
        // Error probes are present in a 40-request mix.
        assert!(reqs.iter().any(|r| r.body.contains("no-such-case")));
        assert!(reqs.iter().any(|r| r.body == "{not json"));
    }

    #[test]
    fn metrics_delta_report_subtracts_scrapes() {
        let before = parse_exposition(
            "islaris_requests_total 10\n\
             islaris_responses_total{status=\"200\"} 8\n\
             islaris_errors_total{kind=\"invalid-json\"} 2\n\
             islaris_request_wall_ns_bucket{le=\"100\"} 10\n\
             islaris_request_wall_ns_bucket{le=\"+Inf\"} 10\n",
        )
        .unwrap();
        let after = parse_exposition(
            "islaris_requests_total 14\n\
             islaris_responses_total{status=\"200\"} 11\n\
             islaris_responses_total{status=\"404\"} 1\n\
             islaris_errors_total{kind=\"invalid-json\"} 2\n\
             islaris_errors_total{kind=\"unknown-case\"} 1\n\
             islaris_request_wall_ns_bucket{le=\"100\"} 13\n\
             islaris_request_wall_ns_bucket{le=\"500\"} 14\n\
             islaris_request_wall_ns_bucket{le=\"+Inf\"} 14\n\
             islaris_exec_case_wall_ns_bucket{le=\"1000\"} 2\n\
             islaris_exec_case_wall_ns_bucket{le=\"+Inf\"} 3\n\
             islaris_exec_trace_wall_ns_bucket{le=\"200\"} 1\n\
             islaris_exec_trace_wall_ns_bucket{le=\"+Inf\"} 1\n",
        )
        .unwrap();
        let d = metrics_delta_report(&before, &after);
        assert_eq!(d.get("requests").and_then(Json::as_u64), Some(4));
        let resp = d.get("responses").unwrap();
        assert_eq!(resp.get("200").and_then(Json::as_u64), Some(3));
        assert_eq!(resp.get("404").and_then(Json::as_u64), Some(1));
        let errs = d.get("errors").unwrap();
        assert_eq!(errs.get("invalid-json"), None, "zero delta skipped");
        assert_eq!(errs.get("unknown-case").and_then(Json::as_u64), Some(1));
        let h = d.get("request_wall_ns").unwrap();
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(4));
        // 4 samples: ranks 2/4/4 -> buckets 100/500/500.
        assert_eq!(h.get("p50_le").and_then(Json::as_u64), Some(100));
        assert_eq!(h.get("p90_le").and_then(Json::as_u64), Some(500));
        assert_eq!(h.get("max_le").and_then(Json::as_u64), Some(500));
        // Per-kind exec medians: case has 3 samples (rank 2 -> le=1000),
        // trace has 1 (its only bucket), check saw no traffic -> null.
        let p50 = d.get("p50_exec_ns").unwrap();
        assert_eq!(p50.get("case").and_then(Json::as_u64), Some(1000));
        assert_eq!(p50.get("trace").and_then(Json::as_u64), Some(200));
        assert_eq!(p50.get("check"), Some(&Json::Null));
    }

    #[test]
    fn parse_requests_rejects_other_schemas() {
        assert!(parse_requests("{\"schema\":\"islaris-bench/v1\"}").is_err());
        assert!(parse_requests("{\"requests\":[]}").is_err());
        let min = "{\"schema\":\"islaris-replay/v1\",\"requests\":[]}";
        assert_eq!(parse_requests(min).unwrap(), Vec::new());
    }

    #[test]
    fn stable_report_is_sorted_by_index() {
        let outcome = ReplayOutcome {
            results: vec![
                ReplayResult {
                    index: 0,
                    status: 200,
                    digest: 7,
                    body: Vec::new(),
                    wall_ns: 10,
                    headers: Vec::new(),
                },
                ReplayResult {
                    index: 1,
                    status: 404,
                    digest: 9,
                    body: Vec::new(),
                    wall_ns: 20,
                    headers: Vec::new(),
                },
            ],
            wall_ns: 30,
            clients: 2,
        };
        let report = outcome.stable_report();
        assert_eq!(
            report,
            "    0 200 0000000000000007\n    1 404 0000000000000009\n"
        );
        let t = outcome.telemetry();
        assert_eq!(t.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(
            t.get("latency_ns")
                .and_then(|l| l.get("min"))
                .and_then(Json::as_u64),
            Some(10)
        );
    }
}

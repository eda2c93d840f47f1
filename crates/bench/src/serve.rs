//! Verification-as-a-service: the `fig12 --serve` daemon.
//!
//! A std-only TCP server speaking the in-tree HTTP/1.1 framing
//! ([`islaris_obs::http`]) and JSON ([`islaris_obs::json`]). Requests are
//! scheduled on the long-lived [`islaris_core::WorkerPool`] with bounded
//! backpressure (a saturated queue is an immediate `503 overloaded`) and
//! per-request deadlines (a deadline that lapses while the job is queued
//! is a `504 deadline-exceeded` — the expensive work is skipped).
//!
//! ## Wire protocol (DESIGN §12, §13)
//!
//! * `POST /verify` — one job, JSON body, dispatched on `"kind"`:
//!   * `{"kind":"case","slug":S}` — run the named Fig. 12 case; replies
//!     with the stable verdict row, every rendered certificate, and the
//!     deterministic per-stage profile.
//!   * `{"kind":"trace","arch":"arm"|"riscv","opcode":"0x…"}` — trace one
//!     opcode; replies with the printed trace and its effort counters.
//!   * `{"kind":"check","arch":…,"opcode":…,"spec":SEXPR}` — prove a
//!     post-state spec about one opcode: the s-expression may use
//!     `(init R)` / `(final R)` for a register's initial / final value,
//!     resolved per enumerated path and checked by entailment.
//!   * any job may carry `"deadline_ms": N` (`0` = already expired — the
//!     deterministic way to exercise the `504`).
//! * `GET /health`, `GET /stats` — liveness and counters.
//! * `GET /metrics` — Prometheus-style text exposition
//!   ([`islaris_obs::metrics`]): lifecycle-stage counters, per-error-kind
//!   counters for every kind in [`ERROR_KINDS`], responses by status,
//!   queue-depth / in-flight gauges, log-linear latency histograms, and
//!   cache + disk-store gauges.
//! * `GET /trace` — index of the bounded ring journal (the last N pool
//!   jobs); `GET /trace/<id>` — one request's spans as Chrome
//!   trace-event JSON ([`islaris_obs::trace`]).
//! * `POST /shutdown` — graceful stop.
//!
//! Every response carries an `X-Islaris-Trace-Id` header: the FNV-1a
//! digest of the request's sequence number, 16 lowercase hex digits.
//! With `--log PATH` the server appends one JSONL record per lifecycle
//! event (`request` / `enqueue` / `dequeue` / `execute` / `respond`,
//! plus `accept`, `server-start`, `server-stop`); wall-clock fields are
//! quarantined in the `*_wall_ns` namespace.
//!
//! Every error is typed: `{"error":KIND,"detail":…}` with a distinct
//! `KIND` per fault class ([`ERROR_KINDS`]), and the server keeps
//! serving after every one of them.
//!
//! ## Determinism
//!
//! Response bodies are byte-deterministic for a given request:
//! wall-clock time travels in the `X-Islaris-Wall-Ns` header, `/metrics`,
//! `/trace/<id>`, and the event log — never in a `/verify` body — and
//! the per-case profile is stripped of its two documented
//! schedule-dependent rows (`cache`, `q.cache`) before rendering. A warm
//! restart over a persistent store therefore answers byte-identically to
//! a cold run — the replay harness asserts exactly that.
//!
//! ## Persistence
//!
//! With a store directory, both caches are disk-backed
//! ([`TraceCache::persistent`], [`QueryCache::persistent`]): restarts are
//! warm, and N server processes can share one store. The server is
//! outside the certificate TCB — whatever the caches replay, certificates
//! still go through the independent checker.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use islaris_cases::{find_case, run_case, CaseCtx, RunOpts, ALL_CASES};
use islaris_core::{render_certificate, JobSlot, SubmitError, WorkerPool};
use islaris_isla::{analyze_path, enumerate_paths, IslaConfig, Opcode, PathView, TraceCache};
use islaris_itl::sexp::{expr_to_sexp, sexp_to_expr};
use islaris_itl::{parse_sexp, print_trace, Event, Sexp};
use islaris_models::{Arch, ARM, RISCV};
use islaris_obs::http::{read_request, write_response, HttpError, Request};
use islaris_obs::json::{obj, parse_json, Json};
use islaris_obs::metrics::{Counter, CounterVec, Gauge, GaugeVec, Histogram, Registry};
use islaris_obs::store::u64_json;
use islaris_obs::trace::{chrome_trace_for, TraceJournal, TraceRecord};
use islaris_obs::{fnv1a, Recorder, StoreMetrics};
use islaris_smt::{entails, Expr, QueryCache, QueryCtx, SolverConfig, Sort, Var};

/// Every typed error kind the daemon can answer with — the exposition
/// pre-registers a counter per kind, so `/metrics` always shows all 13
/// (a kind that never fired renders as `0`).
pub const ERROR_KINDS: [&str; 13] = [
    "malformed-request",
    "head-too-large",
    "body-too-large",
    "truncated-body",
    "invalid-json",
    "bad-request",
    "unknown-case",
    "bad-opcode",
    "deadline-exceeded",
    "overloaded",
    "internal",
    "unknown-path",
    "method-not-allowed",
];

/// Request lifecycle stages instrumented in `/metrics` and the event log.
pub const STAGES: [&str; 6] = [
    "accept", "parse", "enqueue", "dequeue", "execute", "respond",
];

/// Server configuration.
pub struct ServeConfig {
    /// Port to bind on `127.0.0.1` (`0` = ephemeral).
    pub port: u16,
    /// Pool workers (`0` = ask the OS).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue answers `503`.
    pub queue_cap: usize,
    /// Persistent store root (`traces/` and `queries/` subdirectories);
    /// `None` = in-memory caches only.
    pub store_dir: Option<PathBuf>,
    /// Default per-request deadline in ms (`0` = none).
    pub default_deadline_ms: u64,
    /// Structured event log (JSONL, appended); `None` = no log.
    pub log_path: Option<PathBuf>,
    /// Trace-journal ring bound: the last N pool jobs stay inspectable
    /// via `GET /trace/<id>`.
    pub trace_journal: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 0,
            queue_cap: 64,
            store_dir: None,
            default_deadline_ms: 0,
            log_path: None,
            trace_journal: 256,
        }
    }
}

/// The daemon's metric handles, registered once at startup. Stage and
/// error counters are bumped on the serving path; scrape-time gauges
/// (queue depth, cache sizes, store counters) are refreshed by
/// [`metrics_body`] immediately before rendering.
struct Metrics {
    registry: Registry,
    requests: Arc<Counter>,
    responses: Arc<CounterVec>,
    errors: Arc<CounterVec>,
    stages: Arc<CounterVec>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    workers: Arc<Gauge>,
    job_panics: Arc<Gauge>,
    request_ns: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    exec_ns: Arc<Histogram>,
    exec_case_ns: Arc<Histogram>,
    exec_trace_ns: Arc<Histogram>,
    exec_check_ns: Arc<Histogram>,
    blocks_parallel: Arc<Counter>,
    proof_trimmed: Arc<Counter>,
    interned_terms: Arc<Gauge>,
    intern_hits: Arc<Gauge>,
    journal_entries: Arc<Gauge>,
    journal_evicted: Arc<Gauge>,
    tcache_hits: Arc<Gauge>,
    tcache_misses: Arc<Gauge>,
    tcache_unique: Arc<Gauge>,
    qcache_entries: Arc<Gauge>,
    store_disk_hits: Arc<GaugeVec>,
    store_disk_misses: Arc<GaugeVec>,
    store_evictions: Arc<GaugeVec>,
    store_write_errors: Arc<GaugeVec>,
}

impl Metrics {
    fn new() -> Metrics {
        let mut r = Registry::new();
        let statuses = [
            "200", "400", "404", "405", "413", "431", "500", "503", "504",
        ];
        let stores = ["traces", "queries"];
        Metrics {
            requests: r.counter(
                "islaris_requests_total",
                "Requests successfully framed, all paths",
            ),
            responses: r.counter_vec(
                "islaris_responses_total",
                "Responses written, by HTTP status",
                "status",
                &statuses,
            ),
            errors: r.counter_vec(
                "islaris_errors_total",
                "Typed error responses, by machine-readable kind",
                "kind",
                &ERROR_KINDS,
            ),
            stages: r.counter_vec(
                "islaris_stage_total",
                "Request lifecycle events, by stage",
                "stage",
                &STAGES,
            ),
            queue_depth: r.gauge("islaris_queue_depth", "Jobs waiting in the bounded queue"),
            in_flight: r.gauge(
                "islaris_in_flight",
                "Jobs claimed by a worker, not yet done",
            ),
            workers: r.gauge("islaris_workers", "Resident pool workers"),
            job_panics: r.gauge(
                "islaris_job_panics",
                "Jobs whose closure panicked (isolated)",
            ),
            request_ns: r.histogram(
                "islaris_request_wall_ns",
                "Wall-clock per request, framing to response, ns",
            ),
            queue_wait_ns: r.histogram(
                "islaris_queue_wait_wall_ns",
                "Wall-clock a job waited in the queue, ns",
            ),
            exec_ns: r.histogram("islaris_exec_wall_ns", "Wall-clock a job body executed, ns"),
            // Per-kind execution histograms (one metric per request kind:
            // the registry is label-free for histograms by design, and
            // three fixed kinds do not warrant a labelled family).
            exec_case_ns: r.histogram(
                "islaris_exec_case_wall_ns",
                "Wall-clock a case job body executed, ns",
            ),
            exec_trace_ns: r.histogram(
                "islaris_exec_trace_wall_ns",
                "Wall-clock a trace job body executed, ns",
            ),
            exec_check_ns: r.histogram(
                "islaris_exec_check_wall_ns",
                "Wall-clock a check job body executed, ns",
            ),
            blocks_parallel: r.counter(
                "islaris_blocks_parallel_total",
                "Engine blocks scheduled as independent intra-case jobs",
            ),
            proof_trimmed: r.counter(
                "islaris_proof_trimmed_clauses_total",
                "Proof clauses dropped by backward dependency trimming",
            ),
            interned_terms: r.gauge(
                "islaris_interned_terms",
                "Terms interned in the hash-consed arena (process-wide)",
            ),
            intern_hits: r.gauge(
                "islaris_intern_hits",
                "Term constructions answered by an existing arena node",
            ),
            journal_entries: r.gauge(
                "islaris_trace_journal_entries",
                "Requests held in the bounded trace journal",
            ),
            journal_evicted: r.gauge(
                "islaris_trace_journal_evicted",
                "Journal records evicted by the ring bound",
            ),
            tcache_hits: r.gauge("islaris_trace_cache_hits", "Trace-cache lookup hits"),
            tcache_misses: r.gauge("islaris_trace_cache_misses", "Trace-cache lookup misses"),
            tcache_unique: r.gauge("islaris_trace_cache_unique", "Unique traces cached"),
            qcache_entries: r.gauge("islaris_query_cache_entries", "Query-cache entries"),
            store_disk_hits: r.gauge_vec(
                "islaris_store_disk_hits",
                "Persistent-store loads served from disk",
                "store",
                &stores,
            ),
            store_disk_misses: r.gauge_vec(
                "islaris_store_disk_misses",
                "Persistent-store lookups not on disk",
                "store",
                &stores,
            ),
            store_evictions: r.gauge_vec(
                "islaris_store_evictions",
                "Corrupt sealed files evicted at load (sound misses)",
                "store",
                &stores,
            ),
            store_write_errors: r.gauge_vec(
                "islaris_store_write_errors",
                "Persistent-store write failures (cache kept serving)",
                "store",
                &stores,
            ),
            registry: r,
        }
    }
}

/// The structured JSONL event log (`--serve … --log PATH`). One line
/// per lifecycle event, rendered with [`islaris_obs::json`] so every
/// line re-parses with `parse_json`. Wall-clock fields live in the
/// `*_wall_ns` namespace; everything else is deterministic for a given
/// request.
struct EventLog {
    file: Mutex<std::fs::File>,
    epoch: Instant,
}

impl EventLog {
    fn open(path: &Path) -> io::Result<EventLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventLog {
            file: Mutex::new(file),
            epoch: Instant::now(),
        })
    }

    fn event(&self, kind: &str, trace: Option<(u64, u64)>, fields: Vec<(&str, Json)>) {
        let mut all = vec![("kind", Json::Str(kind.to_string()))];
        if let Some((id, seq)) = trace {
            all.push(("trace", Json::Str(format!("{id:016x}"))));
            all.push(("seq", u64_json(seq)));
        }
        all.extend(fields);
        all.push((
            "ts_wall_ns",
            u64_json(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)),
        ));
        let line = obj(all).render();
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A failed log write must never fail the request being served.
        let _ = writeln!(f, "{line}");
    }
}

struct ServerState {
    tcache: TraceCache,
    qcache: Arc<QueryCache>,
    pool: WorkerPool,
    stop: AtomicBool,
    metrics: Metrics,
    journal: TraceJournal,
    log: Option<EventLog>,
    /// Request sequence (1-based); the trace id is its FNV-1a digest.
    seq: AtomicU64,
    /// Connections accepted (event-log identity for `accept` records).
    conns: AtomicU64,
    default_deadline_ms: u64,
    port: u16,
}

impl ServerState {
    fn log_event(&self, kind: &str, trace: Option<(u64, u64)>, fields: Vec<(&str, Json)>) {
        if let Some(log) = &self.log {
            log.event(kind, trace, fields);
        }
    }
}

/// The deterministic trace id of request `seq`: FNV-1a over the
/// sequence number's big-endian bytes, echoed in `X-Islaris-Trace-Id`.
#[must_use]
pub fn trace_id_for_seq(seq: u64) -> u64 {
    fnv1a(&seq.to_be_bytes())
}

/// Per-request trace context: identity plus the span recorder that is
/// threaded through the worker pool.
struct ReqTrace {
    seq: u64,
    id: u64,
    recorder: Arc<Recorder>,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`Server::stop`] (or `POST /shutdown`) then [`Server::join`].
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
    port: u16,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts accepting.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, or I/O errors opening the store or the
    /// event log.
    pub fn start(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let (tcache, qcache) = match &cfg.store_dir {
            Some(dir) => (
                TraceCache::persistent(&dir.join("traces"))?,
                Arc::new(QueryCache::persistent(&dir.join("queries"))?),
            ),
            None => (TraceCache::new(), Arc::new(QueryCache::new())),
        };
        let log = match &cfg.log_path {
            Some(path) => Some(EventLog::open(path)?),
            None => None,
        };
        let state = Arc::new(ServerState {
            tcache,
            qcache,
            pool: WorkerPool::new(cfg.workers, cfg.queue_cap),
            stop: AtomicBool::new(false),
            metrics: Metrics::new(),
            journal: TraceJournal::new(cfg.trace_journal),
            log,
            seq: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            default_deadline_ms: cfg.default_deadline_ms,
            port,
        });
        state.log_event(
            "server-start",
            None,
            vec![
                ("port", u64_json(u64::from(port))),
                ("workers", u64_json(state.pool.workers() as u64)),
            ],
        );
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("islaris-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Server {
            state,
            accept: Some(accept),
            port,
        })
    }

    /// The bound port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests a graceful stop (idempotent) without waiting.
    pub fn stop(&self) {
        request_stop(&self.state);
    }

    /// Blocks until the accept loop exits (after [`Server::stop`] or a
    /// `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn request_stop(state: &ServerState) {
    if !state.stop.swap(true, Ordering::AcqRel) {
        state.log_event("server-stop", None, Vec::new());
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", state.port));
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        state.metrics.stages.inc("accept");
        let conn = state.conns.fetch_add(1, Ordering::Relaxed) + 1;
        state.log_event("accept", None, vec![("conn", u64_json(conn))]);
        let conn_state = Arc::clone(state);
        let _ = std::thread::Builder::new()
            .name("islaris-conn".into())
            .spawn(move || handle_conn(stream, &conn_state));
    }
}

/// A typed error response: status code, machine-readable kind, detail.
struct ApiError {
    status: u16,
    kind: &'static str,
    detail: String,
}

impl ApiError {
    fn new(status: u16, kind: &'static str, detail: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            detail: detail.into(),
        }
    }

    fn body(&self) -> String {
        obj(vec![
            ("error", Json::Str(self.kind.to_string())),
            ("detail", Json::Str(self.detail.clone())),
        ])
        .render()
    }
}

fn deadline_exceeded() -> ApiError {
    ApiError::new(
        504,
        "deadline-exceeded",
        "deadline lapsed before the job was scheduled",
    )
}

/// Maps a framing fault to its typed response. `None` = nothing to say
/// (clean close or transport error).
fn framing_error(e: &HttpError) -> Option<ApiError> {
    match e {
        HttpError::Closed | HttpError::Io(_) => None,
        HttpError::Malformed(d) => Some(ApiError::new(400, "malformed-request", d.clone())),
        HttpError::HeadTooLarge => Some(ApiError::new(
            431,
            "head-too-large",
            "request head exceeds the limit",
        )),
        HttpError::BodyTooLarge(n) => Some(ApiError::new(
            413,
            "body-too-large",
            format!("declared body of {n} bytes exceeds the limit"),
        )),
        HttpError::TruncatedBody { expected, got } => Some(ApiError::new(
            400,
            "truncated-body",
            format!("Content-Length promised {expected} bytes, received {got}"),
        )),
    }
}

/// One routed response.
struct Reply {
    status: u16,
    body: String,
    shutdown: bool,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            body,
            shutdown: false,
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call read and write timeout on an accepted socket.
const CONN_IO_TIMEOUT: Duration = Duration::from_secs(60);

fn handle_conn(stream: TcpStream, state: &Arc<ServerState>) {
    // A parked keep-alive connection, or a peer that stops reading a
    // large body, must not pin a thread forever; the timeouts bound each
    // blocking read or write, not request handling. Every response is
    // one write (`write_response`), so nodelay sends it at once instead
    // of waiting on the peer's delayed ACK.
    let _ = stream.set_read_timeout(Some(CONN_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONN_IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        match read_request(&mut reader) {
            Ok(req) => {
                let t0 = Instant::now();
                state.metrics.requests.inc();
                state.metrics.stages.inc("parse");
                let seq = state.seq.fetch_add(1, Ordering::Relaxed) + 1;
                let rt = ReqTrace {
                    seq,
                    id: trace_id_for_seq(seq),
                    recorder: Arc::new(Recorder::new()),
                };
                state.log_event(
                    "request",
                    Some((rt.id, rt.seq)),
                    vec![
                        ("method", Json::Str(req.method.clone())),
                        ("path", Json::Str(req.path.clone())),
                        ("body_bytes", u64_json(req.body.len() as u64)),
                    ],
                );
                let (reply, err_kind) = match dispatch(state, &req, &rt) {
                    Ok(r) => (r, None),
                    Err(api) => (
                        Reply {
                            status: api.status,
                            body: api.body(),
                            shutdown: false,
                        },
                        Some(api.kind),
                    ),
                };
                if let Some(kind) = err_kind {
                    state.metrics.errors.inc(kind);
                }
                state.metrics.responses.inc(&reply.status.to_string());
                let wall_ns = elapsed_ns(t0);
                state.metrics.request_ns.observe(wall_ns);
                let headers = [
                    ("X-Islaris-Wall-Ns", format!("{wall_ns}")),
                    ("X-Islaris-Trace-Id", format!("{:016x}", rt.id)),
                ];
                if write_response(&mut writer, reply.status, &headers, reply.body.as_bytes())
                    .is_err()
                {
                    return;
                }
                state.metrics.stages.inc("respond");
                let mut fields = vec![("status", u64_json(u64::from(reply.status)))];
                if let Some(kind) = err_kind {
                    fields.push(("error", Json::Str(kind.to_string())));
                }
                fields.push(("dur_wall_ns", u64_json(wall_ns)));
                state.log_event("respond", Some((rt.id, rt.seq)), fields);
                if reply.shutdown {
                    request_stop(state);
                    return;
                }
                if req.wants_close() {
                    return;
                }
            }
            Err(e) => {
                // The byte stream is unsynchronized after a framing
                // fault: answer (when there is an answer) and close this
                // connection. The server itself keeps serving. Framing
                // faults never allocate a trace id or a journal slot —
                // there is no request to trace.
                if let Some(api) = framing_error(&e) {
                    state.metrics.errors.inc(api.kind);
                    state.metrics.responses.inc(&api.status.to_string());
                    state.log_event(
                        "respond",
                        None,
                        vec![
                            ("status", u64_json(u64::from(api.status))),
                            ("error", Json::Str(api.kind.to_string())),
                        ],
                    );
                    let _ = write_response(&mut writer, api.status, &[], api.body().as_bytes());
                }
                return;
            }
        }
    }
}

/// Routes one request.
fn dispatch(state: &Arc<ServerState>, req: &Request, rt: &ReqTrace) -> Result<Reply, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Ok(Reply::ok(obj(vec![("ok", Json::Bool(true))]).render())),
        ("GET", "/stats") => Ok(Reply::ok(stats_body(state))),
        ("GET", "/metrics") => Ok(Reply::ok(metrics_body(state))),
        ("GET", "/trace") => Ok(Reply::ok(state.journal.index_json().render())),
        ("GET", p) if p.starts_with("/trace/") => {
            trace_body(state, &p["/trace/".len()..]).map(Reply::ok)
        }
        ("POST", "/shutdown") => Ok(Reply {
            status: 200,
            body: obj(vec![
                ("ok", Json::Bool(true)),
                ("stopping", Json::Bool(true)),
            ])
            .render(),
            shutdown: true,
        }),
        ("POST", "/verify") => verify(state, &req.body, rt).map(Reply::ok),
        (_, "/health" | "/stats" | "/metrics" | "/shutdown" | "/verify" | "/trace") => {
            Err(ApiError::new(
                405,
                "method-not-allowed",
                format!("{} not allowed on {}", req.method, req.path),
            ))
        }
        (_, p) if p.starts_with("/trace/") => Err(ApiError::new(
            405,
            "method-not-allowed",
            format!("{} not allowed on {}", req.method, req.path),
        )),
        (_, path) => Err(ApiError::new(
            404,
            "unknown-path",
            format!("no such path `{path}`"),
        )),
    }
}

/// The `GET /trace/<id>` body: one journaled request as Chrome
/// trace-event JSON.
fn trace_body(state: &Arc<ServerState>, id_hex: &str) -> Result<String, ApiError> {
    let id = u64::from_str_radix(id_hex, 16).map_err(|_| {
        ApiError::new(
            400,
            "bad-request",
            format!("`{id_hex}` is not a hex trace id"),
        )
    })?;
    match state.journal.get(id) {
        Some(rec) => Ok(chrome_trace_for(&rec)),
        None => Err(ApiError::new(
            404,
            "unknown-path",
            format!(
                "no trace `{id_hex}` in the journal (bounded ring of the last {})",
                state.journal.capacity()
            ),
        )),
    }
}

fn stats_body(state: &Arc<ServerState>) -> String {
    let store = |m: Option<StoreMetrics>| match m {
        None => Json::Null,
        Some(m) => obj(vec![
            ("disk_hits", u64_json(m.disk_hits)),
            ("disk_misses", u64_json(m.disk_misses)),
            ("evictions", u64_json(m.evictions)),
            ("write_errors", u64_json(m.write_errors)),
        ]),
    };
    let tstats = state.tcache.stats();
    obj(vec![
        ("requests", u64_json(state.metrics.requests.get())),
        ("errors", u64_json(state.metrics.errors.total())),
        ("workers", u64_json(state.pool.workers() as u64)),
        ("queued", u64_json(state.pool.queued() as u64)),
        ("in_flight", u64_json(state.pool.in_flight() as u64)),
        ("job_panics", u64_json(state.pool.panics() as u64)),
        (
            "trace_journal",
            obj(vec![
                ("entries", u64_json(state.journal.len() as u64)),
                ("capacity", u64_json(state.journal.capacity() as u64)),
                ("evicted", u64_json(state.journal.evicted())),
            ]),
        ),
        (
            "trace_cache",
            obj(vec![
                ("hits", u64_json(tstats.hits)),
                ("misses", u64_json(tstats.misses)),
                ("unique", u64_json(state.tcache.unique_traces() as u64)),
                ("store", store(state.tcache.store_metrics())),
            ]),
        ),
        (
            "query_cache",
            obj(vec![
                ("entries", u64_json(state.qcache.len() as u64)),
                ("store", store(state.qcache.store_metrics())),
            ]),
        ),
        (
            "solver",
            obj(vec![
                (
                    "blocks_parallel",
                    u64_json(state.metrics.blocks_parallel.get()),
                ),
                (
                    "proof_trimmed_clauses",
                    u64_json(state.metrics.proof_trimmed.get()),
                ),
                ("interned_terms", u64_json(islaris_smt::interner_stats().0)),
                ("intern_hits", u64_json(islaris_smt::interner_stats().1)),
            ]),
        ),
    ])
    .render()
}

/// Refreshes scrape-time gauges from the live state, then renders the
/// registry's text exposition.
fn metrics_body(state: &Arc<ServerState>) -> String {
    let m = &state.metrics;
    m.queue_depth.set(state.pool.queued() as u64);
    m.in_flight.set(state.pool.in_flight() as u64);
    m.workers.set(state.pool.workers() as u64);
    m.job_panics.set(state.pool.panics() as u64);
    m.journal_entries.set(state.journal.len() as u64);
    m.journal_evicted.set(state.journal.evicted());
    let tstats = state.tcache.stats();
    m.tcache_hits.set(tstats.hits);
    m.tcache_misses.set(tstats.misses);
    m.tcache_unique.set(state.tcache.unique_traces() as u64);
    m.qcache_entries.set(state.qcache.len() as u64);
    let (interned, hits) = islaris_smt::interner_stats();
    m.interned_terms.set(interned);
    m.intern_hits.set(hits);
    for (name, sm) in [
        ("traces", state.tcache.store_metrics()),
        ("queries", state.qcache.store_metrics()),
    ] {
        let sm = sm.unwrap_or_default();
        m.store_disk_hits.set(name, sm.disk_hits);
        m.store_disk_misses.set(name, sm.disk_misses);
        m.store_evictions.set(name, sm.evictions);
        m.store_write_errors.set(name, sm.write_errors);
    }
    m.registry.render()
}

/// Parses and schedules one `/verify` job; blocks until its slot fills.
/// Only validated jobs reach the pool — and only pool jobs allocate a
/// trace-journal slot.
fn verify(state: &Arc<ServerState>, body: &[u8], rt: &ReqTrace) -> Result<String, ApiError> {
    let t_parse = Instant::now();
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "invalid-json", "body is not UTF-8"))?;
    let j = parse_json(text)
        .map_err(|(off, msg)| ApiError::new(400, "invalid-json", format!("byte {off}: {msg}")))?;
    let job = parse_job(&j)?;
    rt.recorder
        .record_between("parse", "serve", t_parse, Instant::now());
    let deadline_ms = match j.get("deadline_ms") {
        None => state.default_deadline_ms,
        Some(v) => v.as_u64().ok_or_else(|| {
            ApiError::new(
                400,
                "bad-request",
                "deadline_ms must be a non-negative integer",
            )
        })?,
    };
    let has_deadline = j.get("deadline_ms").is_some() || state.default_deadline_ms > 0;
    let deadline = has_deadline.then(|| Instant::now() + Duration::from_millis(deadline_ms));

    let label = job.label();
    let slot: JobSlot<Result<String, ApiError>> = JobSlot::new();
    let job_slot = slot.clone();
    let job_state = Arc::clone(state);
    let recorder = Arc::clone(&rt.recorder);
    let (id, seq) = (rt.id, rt.seq);
    let job_label = label.clone();
    let enqueued_at = Instant::now();
    let submitted = state.pool.try_submit(
        deadline,
        Some(Arc::clone(&rt.recorder)),
        move |expired, claim| {
            job_state.metrics.stages.inc("dequeue");
            let queue_wait = elapsed_ns(enqueued_at);
            job_state.metrics.queue_wait_ns.observe(queue_wait);
            job_state.log_event(
                "dequeue",
                Some((id, seq)),
                vec![
                    ("expired", Json::Bool(expired)),
                    ("queue_wait_wall_ns", u64_json(queue_wait)),
                ],
            );
            let result = if expired {
                Err(deadline_exceeded())
            } else {
                job_state.metrics.stages.inc("execute");
                let t_exec = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| run_job(&job_state, &job, deadline)))
                    .unwrap_or_else(|_| {
                        Err(ApiError::new(
                            500,
                            "internal",
                            "job panicked; worker recovered",
                        ))
                    });
                let exec_ns = elapsed_ns(t_exec);
                job_state.metrics.exec_ns.observe(exec_ns);
                match job.kind() {
                    "case" => job_state.metrics.exec_case_ns.observe(exec_ns),
                    "trace" => job_state.metrics.exec_trace_ns.observe(exec_ns),
                    _ => job_state.metrics.exec_check_ns.observe(exec_ns),
                }
                recorder.record_between("exec", "pool", t_exec, Instant::now());
                job_state.log_event(
                    "execute",
                    Some((id, seq)),
                    vec![
                        ("ok", Json::Bool(r.is_ok())),
                        ("exec_wall_ns", u64_json(exec_ns)),
                    ],
                );
                r
            };
            // Journal and retire from the in-flight count before
            // filling the slot, so a reader woken by the answer always
            // finds the complete record and never counts this job as
            // still running.
            let (status, profile) = match &result {
                Ok(out) => (200, out.profile.clone()),
                Err(api) => (api.status, None),
            };
            job_state.journal.push(TraceRecord {
                trace_id: id,
                seq,
                label: job_label,
                status,
                spans: recorder.spans(),
                profile,
            });
            drop(claim);
            job_slot.fill(result.map(|out| out.body));
        },
    );
    match submitted {
        Ok(()) => {
            state.metrics.stages.inc("enqueue");
            state.log_event(
                "enqueue",
                Some((rt.id, rt.seq)),
                vec![("label", Json::Str(label))],
            );
            slot.wait()
        }
        Err(SubmitError::Saturated) => Err(ApiError::new(
            503,
            "overloaded",
            "work queue saturated; retry later",
        )),
        Err(SubmitError::ShuttingDown) => {
            Err(ApiError::new(503, "overloaded", "server is shutting down"))
        }
    }
}

/// A fully validated verification job (validation happens on the
/// connection thread so typed errors never consume a pool slot).
enum Job {
    Case {
        slug: String,
    },
    Trace {
        arch: &'static Arch,
        opcode: u32,
    },
    Check {
        arch: &'static Arch,
        opcode: u32,
        spec: Sexp,
    },
}

impl Job {
    /// The request kind ("case" / "trace" / "check") — keys the per-kind
    /// execution histograms.
    fn kind(&self) -> &'static str {
        match self {
            Job::Case { .. } => "case",
            Job::Trace { .. } => "trace",
            Job::Check { .. } => "check",
        }
    }

    /// The journal / event-log label.
    fn label(&self) -> String {
        match self {
            Job::Case { slug } => format!("case:{slug}"),
            Job::Trace { arch, opcode } => format!("trace:{}:{opcode:#010x}", arch.name),
            Job::Check { arch, opcode, .. } => format!("check:{}:{opcode:#010x}", arch.name),
        }
    }
}

/// A finished job: the response body plus, for case jobs, the
/// deterministic per-stage profile attached to the trace journal.
struct JobOutput {
    body: String,
    profile: Option<Json>,
}

fn parse_arch(j: &Json) -> Result<&'static Arch, ApiError> {
    match j.get("arch").and_then(Json::as_str) {
        Some("arm") => Ok(&ARM),
        Some("riscv") => Ok(&RISCV),
        Some(other) => Err(ApiError::new(
            400,
            "bad-request",
            format!("unknown arch `{other}` (want `arm` or `riscv`)"),
        )),
        None => Err(ApiError::new(400, "bad-request", "missing `arch`")),
    }
}

fn parse_opcode(j: &Json) -> Result<u32, ApiError> {
    let Some(text) = j.get("opcode").and_then(Json::as_str) else {
        return Err(ApiError::new(400, "bad-request", "missing `opcode`"));
    };
    let digits = text.strip_prefix("0x").unwrap_or(text);
    if digits.len() != 8 {
        return Err(ApiError::new(
            400,
            "bad-opcode",
            format!("`{text}` is not 4 opcode bytes (want 8 hex digits)"),
        ));
    }
    u32::from_str_radix(digits, 16)
        .map_err(|_| ApiError::new(400, "bad-opcode", format!("`{text}` is not hexadecimal")))
}

fn parse_job(j: &Json) -> Result<Job, ApiError> {
    match j.get("kind").and_then(Json::as_str) {
        Some("case") => {
            let Some(slug) = j.get("slug").and_then(Json::as_str) else {
                return Err(ApiError::new(400, "bad-request", "missing `slug`"));
            };
            if find_case(slug).is_none() {
                let slugs: Vec<&str> = ALL_CASES.iter().map(|c| c.slug).collect();
                return Err(ApiError::new(
                    404,
                    "unknown-case",
                    format!("no case `{slug}`; known: {}", slugs.join(" ")),
                ));
            }
            Ok(Job::Case {
                slug: slug.to_string(),
            })
        }
        Some("trace") => Ok(Job::Trace {
            arch: parse_arch(j)?,
            opcode: parse_opcode(j)?,
        }),
        Some("check") => {
            let Some(spec_text) = j.get("spec").and_then(Json::as_str) else {
                return Err(ApiError::new(400, "bad-request", "missing `spec`"));
            };
            let spec = parse_sexp(spec_text).map_err(|e| {
                ApiError::new(400, "bad-request", format!("spec does not parse: {e}"))
            })?;
            Ok(Job::Check {
                arch: parse_arch(j)?,
                opcode: parse_opcode(j)?,
                spec,
            })
        }
        Some(other) => Err(ApiError::new(
            400,
            "bad-request",
            format!("unknown kind `{other}` (want case, trace, or check)"),
        )),
        None => Err(ApiError::new(400, "bad-request", "missing `kind`")),
    }
}

fn run_job(
    state: &ServerState,
    job: &Job,
    deadline: Option<Instant>,
) -> Result<JobOutput, ApiError> {
    match job {
        Job::Case { slug } => run_case_job(state, slug, deadline),
        Job::Trace { arch, opcode } => run_trace_job(state, arch, *opcode),
        Job::Check { arch, opcode, spec } => run_check_job(state, arch, *opcode, spec),
    }
}

/// Strips the two documented schedule-dependent profile rows (`cache`,
/// `q.cache`) so response bodies are byte-identical across cache states.
fn stripped_profile(profile: Json) -> Json {
    match profile {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "cache" && k != "q.cache")
                .collect(),
        ),
        other => other,
    }
}

/// Intra-case fan-out width for a case job on one of `workers` pool
/// workers while `in_flight` jobs run, this one included: the idle
/// workers plus the calling one, so a lone request on an idle pool uses
/// every worker and a busy pool runs each case at width 1. A fixed
/// width of `workers` would oversubscribe the cores under concurrent
/// case jobs and spread their allocations over more malloc arenas,
/// raising peak RSS. `in_flight` is read without a lock and other jobs
/// come and go meanwhile, so the result is clamped to `1..=workers`.
fn fanout_width(workers: usize, in_flight: usize) -> usize {
    (workers + 1).saturating_sub(in_flight).min(workers).max(1)
}

fn run_case_job(
    state: &ServerState,
    slug: &str,
    deadline: Option<Instant>,
) -> Result<JobOutput, ApiError> {
    let def = find_case(slug)
        .ok_or_else(|| ApiError::new(404, "unknown-case", format!("no case `{slug}`")))?;
    // Intra-case parallelism: one request fans its per-instruction
    // tracing, engine blocks, and certificate replays out over scoped
    // worker threads, as many as there are idle pool workers plus this
    // one (`fanout_width`). The scoped threads are independent of the
    // pool (re-submitting to the pool from inside a pool job could
    // deadlock a full queue); results merge in block order so the
    // response body is byte-identical to jobs = 1.
    let jobs = fanout_width(state.pool.workers(), state.pool.in_flight());
    let ctx = CaseCtx::new(&state.tcache, jobs);
    let art = (def.build)(&ctx);
    let opts = RunOpts {
        qcache: Some(state.qcache.clone()),
        jobs,
        deadline,
        ..RunOpts::default()
    };
    let (outcome, report) = run_case(&art, &opts).map_err(|_| {
        ApiError::new(
            504,
            "deadline-exceeded",
            "deadline lapsed mid-case between block jobs",
        )
    })?;
    state
        .metrics
        .blocks_parallel
        .add(outcome.profile.engine.blocks_parallel);
    state.metrics.proof_trimmed.add(
        outcome.profile.isla_smt.trimmed
            + outcome.profile.engine_smt.trimmed
            + outcome.profile.cert.solver.trimmed,
    );
    let certs: Vec<Json> = report
        .blocks
        .iter()
        .map(|b| Json::Str(render_certificate(&b.cert)))
        .collect();
    let profile = stripped_profile(outcome.profile.to_json(slug));
    let body = obj(vec![
        ("kind", Json::Str("case".into())),
        ("slug", Json::Str(slug.to_string())),
        ("verdict", Json::Str("proved".into())),
        ("row", Json::Str(outcome.stable_row())),
        ("certs", Json::Arr(certs)),
        ("profile", profile.clone()),
    ])
    .render();
    Ok(JobOutput {
        body,
        profile: Some(profile),
    })
}

fn lookup_trace(
    state: &ServerState,
    arch: &'static Arch,
    opcode: u32,
) -> Result<Arc<islaris_isla::CachedTrace>, ApiError> {
    let cfg = IslaConfig::new(*arch);
    state
        .tcache
        .lookup(&cfg, &Opcode::Concrete(opcode))
        .map(|(entry, _)| entry)
        .map_err(|e| {
            ApiError::new(
                400,
                "bad-opcode",
                format!("opcode {opcode:#010x} does not trace: {e}"),
            )
        })
}

fn run_trace_job(
    state: &ServerState,
    arch: &'static Arch,
    opcode: u32,
) -> Result<JobOutput, ApiError> {
    let entry = lookup_trace(state, arch, opcode)?;
    // Only the deterministic counters go in the body (no wall time).
    let s = &entry.stats;
    let body = obj(vec![
        ("kind", Json::Str("trace".into())),
        ("arch", Json::Str(arch.name.to_string())),
        ("opcode", Json::Str(format!("{opcode:#010x}"))),
        ("trace", Json::Str(print_trace(&entry.trace))),
        ("params", u64_json(entry.params.len() as u64)),
        (
            "stats",
            obj(vec![
                ("runs", u64_json(s.runs)),
                ("smt_queries", u64_json(s.smt_queries)),
                ("events", u64_json(s.events as u64)),
                ("branches_explored", u64_json(s.branches_explored)),
                ("branches_pruned", u64_json(s.branches_pruned)),
            ]),
        ),
    ])
    .render();
    Ok(JobOutput {
        body,
        profile: None,
    })
}

/// Resolves `(init R)` / `(final R)` atoms against one analyzed path.
fn resolve_spec(spec: &Sexp, events: &[Event], view: &PathView) -> Result<Sexp, ApiError> {
    let reg_expr = |which: &str, name: &str| -> Result<Expr, ApiError> {
        let init = view
            .reg_inits
            .iter()
            .find(|(r, _)| r.to_string() == name)
            .map(|(_, e)| e.clone());
        if which == "final" {
            for ev in events.iter().rev() {
                if let Event::WriteReg(r, v) = ev {
                    if r.to_string() == name {
                        return Ok(v.clone());
                    }
                }
            }
        }
        init.ok_or_else(|| {
            ApiError::new(
                400,
                "bad-request",
                format!("register `{name}` is not accessed on this path"),
            )
        })
    };
    match spec {
        Sexp::List(items) => {
            if let [Sexp::Atom(which), Sexp::Atom(name)] = items.as_slice() {
                if which == "init" || which == "final" {
                    return Ok(expr_to_sexp(&reg_expr(which, name)?));
                }
            }
            let resolved: Result<Vec<Sexp>, ApiError> = items
                .iter()
                .map(|s| resolve_spec(s, events, view))
                .collect();
            Ok(Sexp::List(resolved?))
        }
        Sexp::Atom(_) => Ok(spec.clone()),
    }
}

fn run_check_job(
    state: &ServerState,
    arch: &'static Arch,
    opcode: u32,
    spec: &Sexp,
) -> Result<JobOutput, ApiError> {
    let entry = lookup_trace(state, arch, opcode)?;
    let paths = enumerate_paths(&entry.trace);
    let cfg = SolverConfig::default();
    let mut ctx = QueryCtx {
        cache: Some(&*state.qcache),
        ..QueryCtx::default()
    };
    let mut failed = Vec::new();
    for (i, events) in paths.iter().enumerate() {
        let view = analyze_path(events, &entry.params);
        let goal_sexp = resolve_spec(spec, events, &view)?;
        let goal = sexp_to_expr(&goal_sexp).map_err(|e| {
            ApiError::new(
                400,
                "bad-request",
                format!("resolved spec is not a valid expression: {e}"),
            )
        })?;
        let sorts = |v: Var| -> Option<Sort> { view.sorts.get(&v).copied() };
        if !entails(&view.constraints, &goal, &sorts, &cfg, &mut ctx) {
            failed.push(u64_json(i as u64));
        }
    }
    let verdict = if failed.is_empty() {
        "proved"
    } else {
        "refuted"
    };
    let body = obj(vec![
        ("kind", Json::Str("check".into())),
        ("arch", Json::Str(arch.name.to_string())),
        ("opcode", Json::Str(format!("{opcode:#010x}"))),
        ("verdict", Json::Str(verdict.into())),
        ("paths", u64_json(paths.len() as u64)),
        ("failed", Json::Arr(failed)),
    ])
    .render();
    Ok(JobOutput {
        body,
        profile: None,
    })
}

#[cfg(test)]
mod tests {
    use super::fanout_width;

    #[test]
    fn fanout_width_is_the_idle_workers_plus_the_caller() {
        // Idle pool: the caller is the only job in flight. (Zero in
        // flight cannot reach a pool job; the width still stays in
        // range.)
        assert_eq!(fanout_width(4, 1), 4);
        assert_eq!(fanout_width(4, 0), 4);
        // Partly busy: the idle workers plus the caller.
        assert_eq!(fanout_width(4, 2), 3);
        // Fully busy, and a racy read past the worker count.
        assert_eq!(fanout_width(4, 4), 1);
        assert_eq!(fanout_width(4, 9), 1);
        // One worker never fans out.
        assert_eq!(fanout_width(1, 0), 1);
        assert_eq!(fanout_width(1, 1), 1);
        assert_eq!(fanout_width(1, 3), 1);
    }
}

//! The daemon workloads: `serve_warm` (a closed loop over a request menu
//! against warm caches) and `serve_cold` (an open loop of distinct
//! requests against a fresh daemon's empty caches). Both drive a child
//! `fig12 --serve` over the HTTP wire protocol from at most two threads
//! with one keep-alive connection each.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use islaris_cases::ALL_CASES;
use islaris_isla::{trace_opcode, IslaConfig, Opcode};
use islaris_obs::json::{obj, parse_json, Json};

use crate::client::{encode, Conn, Reply};
use crate::gen::{check_job, cold_requests, poisson_schedule, ColdReq, Isa, OpcodeGen, SplitMix64};
use crate::golden::Goldens;
use crate::report::{Metrics, Tally, CASE_SLUGS};
use crate::stats::Dist;
use crate::{Phase, PhaseCfg};

/// Daemon pool workers, and load-generator connections (`nproc` = 2).
pub const WORKERS: usize = 2;
/// `serve_cold` arrival rate. A request stalls on the daemon's
/// Nagle/delayed-ACK interaction when its connection is in delayed-ACK
/// ping-pong mode, i.e. when it follows the previous reply within the ACK
/// timeout; at 15 rps about one in six does, so the median and the
/// 95th percentile sit clear of the boundary between the two modes (at
/// 25 rps about half stall and the median flips between runs; above 30
/// rps stalls feed on the queue they build).
const COLD_RATE: f64 = 15.0;
/// How long before a request's due time `serve_cold` stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_millis(1);
/// How long a daemon may take to start or stop.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);
/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// A child `fig12 --serve` process, stopped (or killed) on drop.
pub struct Daemon {
    child: Child,
    /// Its listening port.
    pub port: u16,
}

impl Daemon {
    /// Spawns the daemon and waits for its port file.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early exit, or no port within the timeout.
    pub fn spawn(cfg: &PhaseCfg, log: Option<&Path>) -> Result<Daemon, String> {
        let port_file = cfg.run_dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(&cfg.fig12);
        cmd.args([
            "--serve",
            "0",
            "--workers",
            &WORKERS.to_string(),
            "--port-file",
        ])
        .arg(&port_file);
        if let Some(path) = log {
            cmd.arg("--log").arg(path);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfg.fig12.display()))?;
        let mut daemon = Daemon { child, port: 0 };
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(&port_file).unwrap_or_default();
            if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                daemon.port = port;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited ({status}) before listening"));
            }
            if Instant::now() > deadline {
                return Err("daemon wrote no port file in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The shutdown request failed or the daemon did not exit cleanly in
    /// time (it is then killed by drop).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.port)
            .and_then(|mut c| c.send(&encode("POST", "/shutdown", "")))
            .map_err(|e| format!("shutdown request: {e}"))?;
        if asked.status != 200 {
            return Err(format!("shutdown answered {}", asked.status));
        }
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `utime + stime` of a process, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// What a reply must be.
#[derive(Debug, Clone)]
enum Expect {
    /// A proved case whose certificates equal the goldens.
    Case(&'static str),
    /// A trace of this opcode.
    Trace(Isa, u32),
    /// A check with this verdict (`true` = `proved`).
    Check(bool),
    /// `GET /health`.
    Health,
    /// A typed error: status and kind.
    Error(u16, &'static str),
}

impl Expect {
    fn status(&self) -> u16 {
        match self {
            Expect::Error(status, _) => *status,
            _ => 200,
        }
    }
}

/// One request the load generator can send.
struct Item {
    kind: String,
    request: Vec<u8>,
    expect: Expect,
}

fn verify_request(fields: Vec<(&str, Json)>) -> Vec<u8> {
    encode("POST", "/verify", &obj(fields).render())
}

fn case_item(slug: &'static str) -> Item {
    Item {
        kind: format!("case:{slug}"),
        request: verify_request(vec![
            ("kind", Json::Str("case".into())),
            ("slug", Json::Str(slug.into())),
        ]),
        expect: Expect::Case(slug),
    }
}

fn trace_item(isa: Isa, opcode: u32) -> Item {
    Item {
        kind: format!("trace:{}", isa.wire_name()),
        request: verify_request(vec![
            ("kind", Json::Str("trace".into())),
            ("arch", Json::Str(isa.wire_name().into())),
            ("opcode", Json::Str(format!("{opcode:#010x}"))),
        ]),
        expect: Expect::Trace(isa, opcode),
    }
}

fn check_item(opcode: u32, spec: &str, holds: bool) -> Item {
    Item {
        kind: "check".into(),
        request: verify_request(vec![
            ("kind", Json::Str("check".into())),
            ("arch", Json::Str("riscv".into())),
            ("opcode", Json::Str(format!("{opcode:#010x}"))),
            ("spec", Json::Str(spec.into())),
        ]),
        expect: Expect::Check(holds),
    }
}

/// The `serve_warm` menu: the nine Fig. 12 cases, one Arm and one RISC-V
/// trace, one true `addi` check, `/health`, and three typed-error probes.
fn menu(seed: u64) -> Vec<Item> {
    let mut rng = SplitMix64::stream(seed, 20);
    let mut ops = OpcodeGen::new(SplitMix64::stream(seed, 21));
    let mut items: Vec<Item> = ALL_CASES.iter().map(|c| case_item(c.slug)).collect();
    for isa in [Isa::Arm, Isa::Riscv] {
        let s = ops.next_of(isa);
        items.push(trace_item(isa, s.opcode));
    }
    let job = check_job(&mut rng, &mut ops, true);
    items.push(check_item(job.opcode, &job.spec, true));
    items.push(Item {
        kind: "health".into(),
        request: encode("GET", "/health", ""),
        expect: Expect::Health,
    });
    let tag = rng.next_u32();
    items.push(Item {
        kind: "probe:unknown-case".into(),
        request: verify_request(vec![
            ("kind", Json::Str("case".into())),
            ("slug", Json::Str(format!("no-such-case-{tag:08x}"))),
        ]),
        expect: Expect::Error(404, "unknown-case"),
    });
    items.push(Item {
        kind: "probe:invalid-json".into(),
        request: encode(
            "POST",
            "/verify",
            &format!("{{\"kind\":\"case\",\"slug\":\"{tag:08x}"),
        ),
        expect: Expect::Error(400, "invalid-json"),
    });
    items.push(Item {
        kind: "probe:bad-opcode".into(),
        request: verify_request(vec![
            ("kind", Json::Str("trace".into())),
            ("arch", Json::Str("riscv".into())),
            ("opcode", Json::Str(format!("0x{:07x}", tag >> 4))),
        ]),
        expect: Expect::Error(400, "bad-opcode"),
    });
    items
}

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key).ok_or_else(|| format!("reply lacks `{key}`"))
}

fn str_field<'j>(j: &'j Json, key: &str) -> Result<&'j str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is `{got}`, want `{want}`"))
    }
}

/// The known-answer check of one reply.
fn check_reply(expect: &Expect, status: u16, body: &[u8], goldens: &Goldens) -> Result<(), String> {
    if status != expect.status() {
        return Err(format!("status {status}, want {}", expect.status()));
    }
    let text = std::str::from_utf8(body).map_err(|_| "reply body is not UTF-8".to_string())?;
    let j = parse_json(text).map_err(|(off, msg)| format!("reply byte {off}: {msg}"))?;
    match expect {
        Expect::Case(slug) => {
            expect_eq("kind", str_field(&j, "kind")?, "case")?;
            expect_eq("slug", str_field(&j, "slug")?, slug)?;
            expect_eq("verdict", str_field(&j, "verdict")?, "proved")?;
            let certs: Vec<&str> = field(&j, "certs")?
                .as_array()
                .ok_or("`certs` is not an array")?
                .iter()
                .map(|c| c.as_str().ok_or("certificate is not a string"))
                .collect::<Result<_, _>>()?;
            goldens.check(slug, &certs)
        }
        Expect::Trace(isa, opcode) => {
            expect_eq("kind", str_field(&j, "kind")?, "trace")?;
            expect_eq("arch", str_field(&j, "arch")?, isa.arch().name)?;
            expect_eq(
                "opcode",
                str_field(&j, "opcode")?,
                &format!("{opcode:#010x}"),
            )?;
            if str_field(&j, "trace")?.is_empty() {
                return Err("empty trace".into());
            }
            Ok(())
        }
        Expect::Check(holds) => {
            expect_eq("kind", str_field(&j, "kind")?, "check")?;
            let want = if *holds { "proved" } else { "refuted" };
            expect_eq("verdict", str_field(&j, "verdict")?, want)
        }
        Expect::Health => match j.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err("health reply is not ok".into()),
        },
        Expect::Error(_, kind) => expect_eq("error", str_field(&j, "error")?, kind),
    }
}

/// A trace reply's effort counters must equal an in-process trace of the
/// same opcode: the daemon's cache path changes nothing.
fn check_trace_stats(isa: Isa, opcode: u32, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply body is not UTF-8".to_string())?;
    let j = parse_json(text).map_err(|(off, msg)| format!("reply byte {off}: {msg}"))?;
    let stats = field(&j, "stats")?;
    let r = trace_opcode(&IslaConfig::new(isa.arch()), &Opcode::Concrete(opcode))
        .map_err(|e| format!("in-process trace of {opcode:#010x}: {e}"))?;
    let s = &r.stats;
    for (key, want) in [
        ("runs", s.runs),
        ("smt_queries", s.smt_queries),
        ("events", s.events as u64),
        ("branches_explored", s.branches_explored),
        ("branches_pruned", s.branches_pruned),
    ] {
        let got = stats.get(key).and_then(Json::as_u64);
        if got != Some(want) {
            return Err(format!(
                "trace {opcode:#010x}: `{key}` is {got:?}, in-process trace gives {want}"
            ));
        }
    }
    Ok(())
}

/// One completed exchange.
struct OpRec {
    item: usize,
    due: Instant,
    slept: bool,
    reply: Reply,
    body_key: u64,
}

fn body_key(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// The `/stats` counters the ledger reads, as a flat map.
fn fetch_stats(conn: &mut Conn) -> HashMap<&'static str, u64> {
    let mut out = HashMap::new();
    let Ok(reply) = conn.send(&encode("GET", "/stats", "")) else {
        return out;
    };
    let Ok(j) = parse_json(&String::from_utf8_lossy(&reply.body)) else {
        return out;
    };
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&j, |node, key| node.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    out.insert("hits", get(&["trace_cache", "hits"]));
    out.insert("misses", get(&["trace_cache", "misses"]));
    out.insert("entries", get(&["query_cache", "entries"]));
    out
}

/// The event log's per-request timings, by trace id.
#[derive(Default)]
struct LogRec {
    label: Option<String>,
    queue_ns: u64,
    exec_ns: u64,
}

fn read_log(path: &Path) -> HashMap<String, LogRec> {
    let mut out: HashMap<String, LogRec> = HashMap::new();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for line in text.lines() {
        let Ok(j) = parse_json(line) else { continue };
        let Some(id) = j.get("trace").and_then(Json::as_str) else {
            continue;
        };
        let rec = out.entry(id.to_string()).or_default();
        let num = |key| j.get(key).and_then(Json::as_u64).unwrap_or(0);
        match j.get("kind").and_then(Json::as_str) {
            Some("enqueue") => rec.label = j.get("label").and_then(Json::as_str).map(String::from),
            Some("dequeue") => rec.queue_ns = num("queue_wait_wall_ns"),
            Some("execute") => rec.exec_ns = num("exec_wall_ns"),
            _ => {}
        }
    }
    out
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Server-side accounting around a measured window.
struct ServerTotals {
    cpu_ticks: u64,
    stats_before: HashMap<&'static str, u64>,
    stats_after: HashMap<&'static str, u64>,
}

/// The parts of one request's latency, in ledger order.
const LEDGER: [&str; 5] = [
    "client.conn_wait_ms",
    "serve.transport_ms",
    "serve.handler_ms",
    "pool.queue_wait_ms",
    "exec_ms",
];

/// The serve ledger: per request, client latency (from its due time) =
/// connection wait + transport + handler + queue wait + execution, where
/// transport = client round trip − the server's own wall time and
/// handler = server wall − queue wait − execution.
fn serve_layers(
    ops: &[OpRec],
    kinds: &[String],
    log: &HashMap<String, LogRec>,
    window_s: f64,
    totals: &ServerTotals,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let mut d: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut exec_case: HashMap<String, Vec<u64>> = HashMap::new();
    let mut late = Vec::new();
    // Per request: latency, then its parts in `LEDGER` order.
    let mut rows: Vec<[u64; 6]> = Vec::with_capacity(ops.len());
    for op in ops {
        let r = &op.reply;
        let rt = ns(r.done - r.sent);
        let wall = r.wall_ns.unwrap_or(0).min(rt);
        let rec = r.trace_id.as_ref().and_then(|id| log.get(id));
        let (queue, exec) = rec.map_or((0, 0), |l| (l.queue_ns, l.exec_ns.min(wall)));
        let queue = queue.min(wall - exec);
        let conn_wait = ns(r.sent - op.due);
        if op.slept {
            late.push(conn_wait);
        }
        let row = [
            ns(r.done - op.due),
            conn_wait,
            rt - wall,
            wall - queue - exec,
            queue,
            exec,
        ];
        rows.push(row);
        for (name, v) in LEDGER.into_iter().zip(&row[1..]) {
            d.entry(name).or_default().push(*v);
        }
        let (lat_name, exec_name) = match kinds[op.item].split(':').next() {
            Some("case") => ("lat.case_ms", Some("exec.case_ms")),
            Some("trace") => ("lat.trace_ms", Some("exec.trace_ms")),
            Some("check") => ("lat.check_ms", Some("exec.check_ms")),
            Some("probe") => ("lat.error_ms", None),
            _ => ("lat.other", None),
        };
        d.entry(lat_name).or_default().push(ns(r.done - op.due));
        if let (Some(name), Some(l)) = (exec_name, rec) {
            d.entry(name).or_default().push(l.exec_ns);
            if let Some(slug) = l.label.as_deref().and_then(|s| s.strip_prefix("case:")) {
                exec_case
                    .entry(slug.to_string())
                    .or_default()
                    .push(l.exec_ns);
            }
        }
    }
    let dist = |name: &str| Dist::new(d.get(name).cloned().unwrap_or_default());
    for name in [
        "serve.transport_ms",
        "serve.handler_ms",
        "pool.queue_wait_ms",
        "client.conn_wait_ms",
        "lat.error_ms",
        "exec.case_ms",
        "exec.trace_ms",
        "exec.check_ms",
        "lat.case_ms",
        "lat.trace_ms",
        "lat.check_ms",
    ] {
        let x = dist(name);
        m.set(format!("{name}.p50"), x.ms(1, 2));
        m.set(format!("{name}.p90"), x.ms(9, 10));
    }
    for slug in CASE_SLUGS {
        let x = Dist::new(exec_case.get(slug).cloned().unwrap_or_default());
        m.set(format!("exec.case.{slug}_ms"), x.ms(1, 2));
    }
    // The p50 decomposition: each part averaged over the requests whose
    // latency lies in the middle twentieth. The parts of every request sum
    // to its latency, so these sum to the band's mean latency; per-part
    // medians need not add up to the median of the sum.
    rows.sort_unstable_by_key(|r| r[0]);
    let lo = rows.len() * 19 / 40;
    let band = &rows[lo..(rows.len() * 21 / 40).max(lo + 1).min(rows.len())];
    let band_ms =
        |i: usize| band.iter().map(|r| r[i] as f64).sum::<f64>() / band.len().max(1) as f64 / 1e6;
    let lat = Dist::new(rows.iter().map(|r| r[0]).collect()).ms(1, 2);
    let sum: f64 = (1..=LEDGER.len()).map(band_ms).sum();
    m.set("serve.ledger_residual_pct", 100.0 * (sum - lat) / lat);
    notes.push(format!(
        "p50 ledger: lat_p50_ms {lat:.3} = {} = {sum:.3} ms ({:+.2}%)",
        LEDGER
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{} {:.3}", n.trim_end_matches("_ms"), band_ms(i + 1)))
            .collect::<Vec<_>>()
            .join(" + "),
        100.0 * (sum - lat) / lat
    ));
    m.set("gen.late_p99_ms", Dist::new(late).ms(99, 100));
    let stat = |map: &HashMap<&str, u64>, key| map.get(key).copied().unwrap_or(0);
    let delta =
        |key| stat(&totals.stats_after, key).saturating_sub(stat(&totals.stats_before, key));
    let (hits, misses) = (delta("hits"), delta("misses"));
    m.set(
        "tcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("tcache.misses", misses as f64);
    m.set("qcache.entries", delta("entries") as f64);
    let cpu_s = totals.cpu_ticks as f64 / TICKS_PER_S;
    m.set("server.cpu_util", cpu_s / window_s / WORKERS as f64);
    m.set(
        "server.cpu_ms_per_op",
        1e3 * cpu_s / ops.len().max(1) as f64,
    );
    m
}

/// Sends every item of `order` once on `conn`, checking each reply.
/// Returns the replies' bodies by item.
fn menu_pass(
    conn: &mut Conn,
    items: &[Item],
    order: &[usize],
    goldens: &Goldens,
    tally: &mut Tally,
) -> Vec<Option<Vec<u8>>> {
    let mut bodies = vec![None; items.len()];
    for &i in order {
        let check = conn
            .send(&items[i].request)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                check_reply(&items[i].expect, r.status, &r.body, goldens)?;
                bodies[i] = Some(r.body);
                Ok(())
            });
        tally.record(check.map_err(|e| format!("set-up {}: {e}", items[i].kind)));
    }
    bodies
}

fn connect_pair(port: u16) -> Result<[Conn; WORKERS], String> {
    let c = || Conn::connect(port).map_err(|e| format!("connecting: {e}"));
    Ok([c()?, c()?])
}

/// `serve_warm`: two connections each loop over seeded shuffles of the
/// menu against a daemon with in-memory caches warmed by one set-up pass;
/// one op is one request, first byte written to last byte read.
pub fn serve_warm(cfg: &PhaseCfg, goldens: &Goldens) -> Phase {
    let mut tally = Tally::default();
    let items = menu(cfg.seed);
    let mut order: Vec<usize> = (0..items.len()).collect();
    SplitMix64::stream(cfg.seed, 22).shuffle(&mut order);
    let log = cfg.fresh_log();

    let t_setup = Instant::now();
    let daemon = match Daemon::spawn(cfg, log.as_deref()) {
        Ok(d) => d,
        Err(e) => return Phase::failed(e, tally),
    };
    let mut conns = match connect_pair(daemon.port) {
        Ok(c) => c,
        Err(e) => return Phase::failed(e, tally),
    };
    let reference = menu_pass(&mut conns[0], &items, &order, goldens, &mut tally);
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cfg.setup_only {
        drop(conns);
        if let Err(e) = daemon.stop() {
            tally.fail(e);
        }
        return Phase::setup_only(setup_s, tally);
    }

    let stats_before = fetch_stats(&mut conns[0]);
    let cpu0 = cpu_ticks(daemon.pid());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let per_conn: Vec<WarmOut> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let items = &items;
                let seed = cfg.seed;
                s.spawn(move || warm_loop(conn, items, seed, t as u64, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = per_conn
        .iter()
        .flat_map(|(ops, _, _)| ops.iter().map(|o| o.reply.done))
        .max()
        .unwrap_or(start);
    let cpu_ticks = cpu_ticks(daemon.pid()).saturating_sub(cpu0);
    let rss_mb = crate::vm_hwm_mb(daemon.pid());
    let stats_after = fetch_stats(&mut conns[0]);
    drop(conns);
    if let Err(e) = daemon.stop() {
        tally.fail(e);
    }

    // Known answers: every distinct body of an item must equal the
    // set-up pass's body, which was itself checked (goldens included).
    let mut ops = Vec::new();
    let mut bad: HashMap<(usize, u64), String> = HashMap::new();
    for (recs, bodies, error) in per_conn {
        if let Some(e) = error {
            tally.record(Err(e));
        }
        for ((item, key), body) in bodies {
            if reference[item].as_ref() != Some(&body) {
                let e = check_reply(&items[item].expect, 200, &body, goldens)
                    .err()
                    .unwrap_or_else(|| "differs from the set-up pass reply".into());
                bad.insert((item, key), e);
            }
        }
        ops.extend(recs);
    }
    let mut correct = 0;
    for op in &ops {
        let want = items[op.item].expect.status();
        let check = if op.reply.status != want {
            Err(format!("status {}, want {want}", op.reply.status))
        } else {
            bad.get(&(op.item, op.body_key))
                .map_or(Ok(()), |e| Err(e.clone()))
        };
        correct += u64::from(check.is_ok());
        tally.record(check.map_err(|e| format!("{}: {e}", items[op.item].kind)));
    }
    let kinds = items.iter().map(|i| i.kind.clone()).collect();
    let mut phase = finish(
        cfg,
        ops,
        kinds,
        correct,
        (end - start).as_secs_f64(),
        setup_s,
        rss_mb,
        tally,
        ServerTotals {
            cpu_ticks,
            stats_before,
            stats_after,
        },
    );
    if cfg.traced {
        // Certificate replay effort per nine-case suite, from the case
        // replies' deterministic profiles.
        let (mut replayed, mut conflicts) = (0, 0);
        for (item, body) in items.iter().zip(&reference) {
            let (Expect::Case(_), Some(body)) = (&item.expect, body) else {
                continue;
            };
            let Ok(j) = parse_json(&String::from_utf8_lossy(body)) else {
                continue;
            };
            let get = |row: &str, key: &str| {
                j.get("profile")
                    .and_then(|p| p.get(row))
                    .and_then(|r| r.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            replayed += get("cert", "replayed");
            conflicts += get("cert.smt", "conflicts");
        }
        phase.layers.set("cert.replayed", replayed as f64);
        phase.layers.set("cert.smt_conflicts", conflicts as f64);
    }
    phase
}

type WarmOut = (Vec<OpRec>, HashMap<(usize, u64), Vec<u8>>, Option<String>);

/// One closed-loop connection of `serve_warm`: bodies are kept once per
/// distinct content, so memory stays bounded however fast the daemon is.
fn warm_loop(
    conn: &mut Conn,
    items: &[Item],
    seed: u64,
    thread: u64,
    deadline: Instant,
) -> WarmOut {
    let mut rng = SplitMix64::stream(seed, 23 + thread);
    let mut round: Vec<usize> = (0..items.len()).collect();
    let mut ops = Vec::new();
    let mut bodies = HashMap::new();
    let mut next = round.len();
    while Instant::now() < deadline {
        if next == round.len() {
            rng.shuffle(&mut round);
            next = 0;
        }
        let item = round[next];
        next += 1;
        match conn.send(&items[item].request) {
            Ok(mut reply) => {
                let body = std::mem::take(&mut reply.body);
                let key = body_key(&body);
                bodies.entry((item, key)).or_insert(body);
                ops.push(OpRec {
                    item,
                    due: reply.sent,
                    slept: false,
                    reply,
                    body_key: key,
                });
            }
            Err(e) => return (ops, bodies, Some(format!("{}: {e}", items[item].kind))),
        }
    }
    (ops, bodies, None)
}

/// `serve_cold`: distinct trace and check requests on a seeded Poisson
/// schedule against a fresh daemon, so every trace misses the cache and
/// runs Isla; a request waits for the first free of two connections, and
/// one op is one request, timed from when it was due to its last byte
/// read. The daemon runs without `--store`: the store's files sit on the
/// host's shared root filesystem, where one create-and-rename after an
/// idle gap took 0.25 to 1 ms depending on what else the host was
/// writing, more than the rest of the request, so it moved the median by
/// a third between runs of one commit.
pub fn serve_cold(cfg: &PhaseCfg) -> Phase {
    let mut tally = Tally::default();
    let count = ((COLD_RATE * cfg.seconds).round() as usize).max(1);
    let offsets = poisson_schedule(&mut SplitMix64::stream(cfg.seed, 30), count, cfg.seconds);
    let items: Vec<Item> = cold_requests(cfg.seed, count)
        .into_iter()
        .map(|req| match req {
            ColdReq::Trace(s) => trace_item(s.isa, s.opcode),
            ColdReq::Check(job) => check_item(job.opcode, &job.spec, job.holds),
        })
        .collect();
    let log = cfg.fresh_log();

    let t_setup = Instant::now();
    let daemon = match Daemon::spawn(cfg, log.as_deref()) {
        Ok(d) => d,
        Err(e) => return Phase::failed(e, tally),
    };
    let mut conns = match connect_pair(daemon.port) {
        Ok(c) => c,
        Err(e) => return Phase::failed(e, tally),
    };
    let health = [Item {
        kind: "health".into(),
        request: encode("GET", "/health", ""),
        expect: Expect::Health,
    }];
    menu_pass(
        &mut conns[0],
        &health,
        &[0],
        &Goldens::default(),
        &mut tally,
    );
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cfg.setup_only {
        drop(conns);
        if let Err(e) = daemon.stop() {
            tally.fail(e);
        }
        return Phase::setup_only(setup_s, tally);
    }

    let stats_before = fetch_stats(&mut conns[0]);
    let cpu0 = cpu_ticks(daemon.pid());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<ColdOut> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (items, offsets, next) = (&items, &offsets, &next);
                s.spawn(move || cold_loop(conn, items, offsets, next, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let end = per_conn
        .iter()
        .flat_map(|(ops, _)| ops.iter().map(|o| o.0.reply.done))
        .max()
        .unwrap_or(start);
    let cpu_ticks = cpu_ticks(daemon.pid()).saturating_sub(cpu0);
    let rss_mb = crate::vm_hwm_mb(daemon.pid());
    let stats_after = fetch_stats(&mut conns[0]);
    drop(conns);
    if let Err(e) = daemon.stop() {
        tally.fail(e);
    }

    let mut ops = Vec::new();
    let mut correct = 0;
    for (recs, error) in per_conn {
        if let Some(e) = error {
            tally.record(Err(e));
        }
        for (op, body) in recs {
            let item = &items[op.item];
            let check = check_reply(&item.expect, op.reply.status, &body, &Goldens::default())
                .and_then(|()| match item.expect {
                    Expect::Trace(isa, opcode) => check_trace_stats(isa, opcode, &body),
                    _ => Ok(()),
                })
                .map_err(|e| format!("{} #{}: {e}", item.kind, op.item));
            correct += u64::from(check.is_ok());
            tally.record(check);
            ops.push(op);
        }
    }
    if ops.len() < count {
        tally.fail(format!(
            "{} of {count} scheduled requests completed",
            ops.len()
        ));
    }
    // Ops refer to schedule positions; regroup them by kind.
    let kinds = ["trace:arm", "trace:riscv", "check"];
    for op in &mut ops {
        op.item = kinds
            .iter()
            .position(|k| *k == items[op.item].kind)
            .expect("every request has a kind");
    }
    let kinds = kinds.iter().map(|k| (*k).to_string()).collect();
    finish(
        cfg,
        ops,
        kinds,
        correct,
        (end - start).as_secs_f64(),
        setup_s,
        rss_mb,
        tally,
        ServerTotals {
            cpu_ticks,
            stats_before,
            stats_after,
        },
    )
}

type ColdOut = (Vec<(OpRec, Vec<u8>)>, Option<String>);

/// One open-loop connection of `serve_cold`: takes the next scheduled
/// request when free, waits until it is due if it is early, then sends.
/// The wait sleeps to [`SPIN`] short of the due time and spins the rest,
/// since a sleep alone overshoots by a scheduler wake-up that would count
/// as the request's latency.
fn cold_loop(
    conn: &mut Conn,
    items: &[Item],
    offsets: &[f64],
    next: &AtomicUsize,
    start: Instant,
) -> ColdOut {
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            return (out, None);
        }
        let due = start + Duration::from_secs_f64(offsets[i]);
        let now = Instant::now();
        let slept = now < due;
        if slept {
            if let Some(nap) = due.checked_duration_since(now + SPIN) {
                std::thread::sleep(nap);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        match conn.send(&items[i].request) {
            Ok(mut reply) => {
                let body = std::mem::take(&mut reply.body);
                out.push((
                    OpRec {
                        item: i,
                        due,
                        slept,
                        reply,
                        body_key: 0,
                    },
                    body,
                ));
            }
            Err(e) => return (out, Some(format!("{} #{i}: {e}", items[i].kind))),
        }
    }
}

/// Assembles a serve phase: latencies by kind and, when traced, the
/// ledger joined from the daemon's event log.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &PhaseCfg,
    ops: Vec<OpRec>,
    kinds: Vec<String>,
    correct: u64,
    window_s: f64,
    setup_s: f64,
    rss_mb: f64,
    tally: Tally,
    totals: ServerTotals,
) -> Phase {
    let mut notes = vec![format!(
        "{} requests over {window_s:.2} s on {WORKERS} connections",
        ops.len()
    )];
    let layers = match cfg.log_path() {
        Some(path) => serve_layers(
            &ops,
            &kinds,
            &read_log(&path),
            window_s,
            &totals,
            &mut notes,
        ),
        None => Metrics::default(),
    };
    let walls = Dist::new(ops.iter().filter_map(|op| op.reply.wall_ns).collect());
    Phase {
        setup_s,
        ops_per_s: correct as f64 / window_s.max(1e-9),
        rate_basis: format!("{correct} correct requests in {window_s:.3} s"),
        server_wall_ms: walls.mean_ms(),
        geomean_kinds: (0..kinds.len()).collect(),
        lat: ops
            .iter()
            .map(|op| (op.item, ns(op.reply.done - op.due)))
            .collect(),
        kinds,
        rss_mb,
        tally,
        layers,
        notes,
    }
}

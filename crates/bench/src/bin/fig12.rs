//! Regenerates the paper's Figure 12 ("Example sizes and times").
//!
//! Modes:
//!
//! * no flags — the classic sequential table. Columns: asm =
//!   instructions; ITL = trace events; Spec = spec atoms; Proof =
//!   annotations + pure hints; Isla(s) = trace generation; Auto(s) =
//!   proof automation; Qed(s) = certificate re-check; SMT = solver
//!   queries during verification; Oblig = logged obligations.
//! * `--jobs N` — the parallel pipeline measurement: a sequential
//!   uncached baseline, then a cold and a warm parallel run over one
//!   shared trace cache, reporting per-case wall times, cache hit rates,
//!   and speedups. The stable (non-timing) columns are asserted
//!   byte-identical across all three runs.
//! * `--bench [ITERS] [--warmup W] [--json PATH] [--jobs N]` — the
//!   statistical benchmarks: every case's two pipeline halves
//!   (`trace/<slug>`, `verify/<slug>`) plus the stage micro-benchmarks,
//!   measured over W warm-up + ITERS iterations with
//!   min/median/p90/max/MAD, optionally exported as versioned
//!   `islaris-bench/v1` JSON. `--jobs N` verifies each case's blocks over
//!   N intra-case workers (verdicts unchanged, wall-clock only).
//! * `--bench-compare OLD.json NEW.json [--threshold PCT]` — the
//!   perf-regression gate: diffs two `--json` exports by median and exits
//!   nonzero if any benchmark's median grew more than PCT percent
//!   (default 25).
//! * `--trace-proof SLUG` — builds one case with proof-search tracing on
//!   and prints the structured automation trace: one line per proof rule
//!   fired, obligation opened/discharged, and backtrack, tagged with the
//!   solver-query digest it triggered. Deterministic: byte-identical
//!   across reruns, worker counts, and cache states.
//! * `--profile [--jobs N] [--profile-out PATH] [--profile-json PATH]
//!   [--hot-queries K]` — the observability export: runs all nine cases
//!   through a fresh shared cache with span recording on, prints the
//!   stable table plus the per-case per-stage *counter* profile
//!   (deterministic: byte-identical across worker counts and cache
//!   states) and, with `--hot-queries K`, the top-K hottest solver
//!   queries per case and pipeline-wide; emits the wall-clock spans as
//!   Chrome trace-event JSON and the counter profiles as JSON (both
//!   self-validated; written when the PATHs are given).
//! * `--difftest [--seed S] [--budget N] [--jobs N]` — the differential
//!   fuzzer: generates N opcodes from the decoder grammar (plus
//!   mutations of known-good encodings), checks every symbolic trace
//!   path against a concrete replay, and prints the deterministic
//!   coverage/metrics table. Exits nonzero on any divergence, printing
//!   each counterexample report. Output is byte-identical for a given
//!   (seed, budget) across reruns and `--jobs` values.

use std::process::exit;
use std::sync::Arc;

use islaris_bench::replay::{
    gen_requests, metrics_delta_report, parse_requests, render_requests, replay, scrape_metrics,
};
use islaris_bench::serve::{ServeConfig, Server};
use islaris_bench::{compare, parse_bench_json, samples_to_json, BenchEnv, BenchOpts};
use islaris_cases::{
    find_case, run_case, run_cases, CaseCtx, CaseOutcome, PipelineOpts, RunOpts, ALL_CASES,
};
use islaris_isla::TraceCache;
use islaris_obs::json::parse_json;
use islaris_obs::{profiles_to_json, render_profiles, render_proof_trace, Recorder};
use islaris_smt::QueryCache;

fn usage() -> ! {
    eprintln!(
        "usage: fig12 [--jobs N] \
         [--bench [ITERS] [--warmup W] [--json PATH] [--solver-cache on|off] [--jobs N]] \
         [--bench-compare OLD.json NEW.json [--threshold PCT]] [--trace-proof SLUG] \
         [--profile [--jobs N] [--profile-out PATH] [--profile-json PATH] [--hot-queries K] \
         [--solver-cache on|off]] \
         [--difftest [--seed S] [--budget N] [--jobs N]] \
         [--serve PORT [--store DIR] [--workers N] [--queue-cap N] [--deadline-ms N] \
         [--port-file PATH] [--log PATH] [--trace-journal N]] \
         [--replay REQS.json --addr HOST:PORT [--clients N] [--json PATH] [--dump DIR] \
         [--dump-headers DIR] [--metrics-delta]] \
         [--gen-requests PATH [--count N]] \
         [--check-log PATH] [--check-json PATH]"
    );
    exit(2);
}

/// Parses a `--solver-cache` operand (`on` / `off`).
fn parse_solver_cache(arg: Option<&String>) -> bool {
    match arg.map(String::as_str) {
        Some("on") => true,
        Some("off") => false,
        _ => usage(),
    }
}

fn parallel(jobs: usize) {
    let run = islaris_cases::run_all_parallel(jobs);

    // Determinism check: the size/effort columns must not depend on the
    // worker count or the cache state.
    let baseline = run.sequential.stable_rows();
    for (label, report) in [("cold", &run.cold), ("warm", &run.warm)] {
        assert_eq!(
            baseline,
            report.stable_rows(),
            "{label} parallel table differs from the sequential baseline"
        );
    }

    println!("sequential baseline (uncached, 1 worker):");
    print!("{}", run.sequential.render());
    println!("\ncold parallel run ({jobs} workers, shared cache starts empty):");
    print!("{}", run.cold.render());
    println!("\nwarm parallel run ({jobs} workers, cache primed):");
    print!("{}", run.warm.render());

    let (cold_cache, warm_cache) = (run.cold.cache_totals(), run.warm.cache_totals());
    println!("\nstable rows: identical across all three runs");
    println!(
        "cache: {} unique traces; cold {}/{} hits ({}), warm {}/{} hits ({})",
        run.unique_traces,
        cold_cache.hits,
        cold_cache.lookups(),
        cold_cache.hit_rate_str(),
        warm_cache.hits,
        warm_cache.lookups(),
        warm_cache.hit_rate_str(),
    );
    println!(
        "wall: sequential {:.3}s, cold {:.3}s ({:.2}x), warm {:.3}s ({:.2}x)",
        run.sequential.wall.as_secs_f64(),
        run.cold.wall.as_secs_f64(),
        run.speedup_cold(),
        run.warm.wall.as_secs_f64(),
        run.speedup_warm(),
    );
    println!(
        "trace stage: sequential {:.4}s, warm {:.4}s ({:.1}x with cache)",
        run.sequential.isla_total().as_secs_f64(),
        run.warm.isla_total().as_secs_f64(),
        run.trace_stage_speedup(),
    );
    if !(run.sequential.all_ok() && run.cold.all_ok() && run.warm.all_ok()) {
        eprintln!("some cases FAILED");
        exit(1);
    }
}

fn profile(
    jobs: usize,
    out_path: Option<&str>,
    json_path: Option<&str>,
    hot_queries: usize,
    solver_cache: bool,
) {
    let recorder = Recorder::new();
    let cache = TraceCache::new();
    let report = run_cases(
        ALL_CASES,
        &PipelineOpts {
            jobs,
            cache: Some(&cache),
            recorder: Some(&recorder),
            qcache: solver_cache.then(|| Arc::new(QueryCache::new())),
            ..PipelineOpts::default()
        },
    );

    println!("{}", CaseOutcome::stable_header());
    for row in report.stable_rows() {
        println!("{row}");
    }
    println!("\nper-stage counters ({} workers; deterministic):", jobs);
    print!("{}", render_profiles(&report.profiles()));
    if hot_queries > 0 {
        println!("\nsolver-query attribution (verification half; deterministic):");
        print!("{}", report.render_hot_queries(hot_queries));
        // The solver micro-benchmarks (`solver/*` in `--bench`) are not
        // part of the verification half; replay them logged so their
        // digests are attributable too (a `solver/ult_transitivity_64`
        // regression is diagnosable from this table).
        println!("\nsolver micro-bench attribution (solver/*; deterministic):");
        print!(
            "{}",
            islaris_bench::solver_bench_query_table().render_top("solver benches", hot_queries)
        );
    }
    if let Some(path) = json_path {
        let json = profiles_to_json(&report.profiles());
        if let Err((off, msg)) = parse_json(&json) {
            eprintln!("emitted profile JSON is invalid at byte {off}: {msg}");
            exit(1);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("writing {path}: {e}");
            exit(1);
        }
        println!("\nprofile json: valid JSON, written to {path}");
    }

    let trace = recorder.chrome_trace();
    if let Err((off, msg)) = parse_json(&trace) {
        eprintln!("emitted chrome trace is not valid JSON at byte {off}: {msg}");
        exit(1);
    }
    let spans = recorder.spans().len();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &trace) {
                eprintln!("writing {path}: {e}");
                exit(1);
            }
            println!("\nchrome trace: {spans} spans, valid JSON, written to {path}");
        }
        None => {
            println!("\nchrome trace: {spans} spans, valid JSON (pass --profile-out PATH to write)")
        }
    }
    if !report.all_ok() {
        eprintln!("some cases FAILED");
        exit(1);
    }
}

fn bench_mode(opts: &BenchOpts, json_path: Option<&str>) {
    let env = BenchEnv::capture(opts.warmup, opts.iters);
    println!("{}", env.row());
    let samples = islaris_bench::all_benches(opts);
    for s in &samples {
        println!("{}", s.row());
    }
    if let Some(path) = json_path {
        let text = samples_to_json(&env, &samples);
        if let Err((off, msg)) = parse_json(&text) {
            eprintln!("emitted bench JSON is invalid at byte {off}: {msg}");
            exit(1);
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("writing {path}: {e}");
            exit(1);
        }
        println!(
            "bench json: {} samples, valid JSON, written to {path}",
            samples.len()
        );
    }
}

fn bench_compare(old_path: &str, new_path: &str, threshold_pct: f64) {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            exit(2);
        });
        parse_bench_json(&text).unwrap_or_else(|e| {
            eprintln!("parsing {path}: {e}");
            exit(2);
        })
    };
    let (old_env, old_samples) = load(old_path);
    let (new_env, new_samples) = load(new_path);
    println!("old {}", old_env.row());
    println!("new {}", new_env.row());
    let report = compare(&old_samples, &new_samples, threshold_pct);
    print!("{}", report.render());
    if report.regressions() > 0 {
        exit(1);
    }
}

fn trace_proof(slug: &str) {
    let Some(def) = find_case(slug) else {
        let slugs: Vec<&str> = ALL_CASES.iter().map(|c| c.slug).collect();
        eprintln!("unknown case `{slug}`; known slugs: {}", slugs.join(" "));
        exit(2);
    };
    let art = (def.build)(&CaseCtx::default());
    let traced = RunOpts {
        trace: true,
        ..RunOpts::default()
    };
    let (_, report) = run_case(&art, &traced).expect("no deadline set");
    for block in &report.blocks {
        println!(
            "block {:#x} spec `{}` ({} events):",
            block.addr,
            block.spec,
            block.ptrace.len()
        );
        print!("{}", render_proof_trace(&block.ptrace));
    }
}

fn difftest(cfg: &islaris_difftest::FuzzConfig) {
    let report = islaris_difftest::run_fuzz(cfg);
    print!("{}", report.render());
    if !report.divergences.is_empty() {
        for d in &report.divergences {
            eprint!("{}", d.render());
        }
        eprintln!("{} divergence(s) found", report.divergences.len());
        exit(1);
    }
}

fn serve(args: &[String]) {
    let mut cfg = ServeConfig::default();
    cfg.port = args
        .get(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| usage());
    let mut port_file: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                cfg.store_dir = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()).into());
                i += 2;
            }
            "--workers" => {
                cfg.workers = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--queue-cap" => {
                cfg.queue_cap = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--port-file" => {
                port_file = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--log" => {
                cfg.log_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()).into());
                i += 2;
            }
            "--trace-journal" => {
                cfg.trace_journal = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    let server = Server::start(&cfg).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        exit(1);
    });
    eprintln!("fig12 --serve listening on 127.0.0.1:{}", server.port());
    if let Some(path) = port_file {
        // Written last so a waiting client never sees the port before
        // the server accepts.
        if let Err(e) = std::fs::write(&path, format!("{}\n", server.port())) {
            eprintln!("writing {path}: {e}");
            exit(1);
        }
    }
    server.join();
    eprintln!("fig12 --serve stopped");
}

fn replay_mode(args: &[String]) {
    let Some(reqs_path) = args.get(1) else {
        usage()
    };
    let mut addr: Option<String> = None;
    let mut clients = 1;
    let mut json_path: Option<String> = None;
    let mut dump_dir: Option<String> = None;
    let mut dump_headers_dir: Option<String> = None;
    let mut metrics_delta = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--metrics-delta" => {
                metrics_delta = true;
                i += 1;
            }
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--dump" => {
                dump_dir = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--dump-headers" => {
                dump_headers_dir = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let text = std::fs::read_to_string(reqs_path).unwrap_or_else(|e| {
        eprintln!("reading {reqs_path}: {e}");
        exit(2);
    });
    let reqs = parse_requests(&text).unwrap_or_else(|e| {
        eprintln!("parsing {reqs_path}: {e}");
        exit(2);
    });
    let before = metrics_delta.then(|| {
        scrape_metrics(&addr).unwrap_or_else(|e| {
            eprintln!("scraping {addr}/metrics before the replay: {e}");
            exit(1);
        })
    });
    let outcome = replay(&addr, &reqs, clients).unwrap_or_else(|e| {
        eprintln!("replay against {addr}: {e}");
        exit(1);
    });
    print!("{}", outcome.stable_report());
    let telemetry = outcome.telemetry().render();
    println!("{telemetry}");
    if let Some(before) = before {
        let after = scrape_metrics(&addr).unwrap_or_else(|e| {
            eprintln!("scraping {addr}/metrics after the replay: {e}");
            exit(1);
        });
        println!("{}", metrics_delta_report(&before, &after).render());
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, &telemetry) {
            eprintln!("writing {path}: {e}");
            exit(1);
        }
    }
    if let Some(dir) = dump_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("creating {dir}: {e}");
            exit(1);
        }
        for r in &outcome.results {
            let path = format!("{dir}/{:04}.body", r.index);
            if let Err(e) = std::fs::write(&path, &r.body) {
                eprintln!("writing {path}: {e}");
                exit(1);
            }
        }
    }
    // Headers go to their own directory: they carry wall-clock values
    // (`X-Islaris-Wall-Ns`), so mixing them into the body dump would
    // break the byte-identical `diff -r` contract ci.sh relies on.
    if let Some(dir) = dump_headers_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("creating {dir}: {e}");
            exit(1);
        }
        for r in &outcome.results {
            let path = format!("{dir}/{:04}.headers", r.index);
            let text: String = r
                .headers
                .iter()
                .map(|(k, v)| format!("{k}: {v}\n"))
                .collect();
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("writing {path}: {e}");
                exit(1);
            }
        }
    }
}

fn gen_requests_mode(args: &[String]) {
    let Some(path) = args.get(1) else { usage() };
    let mut count = 100;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--count" => {
                count = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    let text = render_requests(&gen_requests(count));
    if let Err((off, msg)) = parse_json(&text) {
        eprintln!("emitted request file is invalid at byte {off}: {msg}");
        exit(1);
    }
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("writing {path}: {e}");
        exit(1);
    }
    println!("wrote {count} requests to {path}");
}

/// Validates a `--log` JSONL file: every non-empty line must re-parse
/// with the in-tree JSON parser and carry a `kind` field.
fn check_log(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        exit(2);
    });
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let j = parse_json(line).unwrap_or_else(|(off, msg)| {
            eprintln!("{path}:{}: byte {off}: {msg}", i + 1);
            exit(1);
        });
        if j.get("kind").is_none() {
            eprintln!("{path}:{}: event has no `kind` field", i + 1);
            exit(1);
        }
        n += 1;
    }
    println!("{path}: {n} JSONL event(s), all parse");
}

/// Validates that a file is one well-formed JSON document (used by the
/// CI smoke on `GET /trace/<id>` bodies).
fn check_json(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        exit(2);
    });
    if let Err((off, msg)) = parse_json(&text) {
        eprintln!("{path}: invalid JSON at byte {off}: {msg}");
        exit(1);
    }
    println!("{path}: valid JSON");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            let outcomes = islaris_bench::all_cases();
            println!("{}", islaris_bench::fig12_table(&outcomes));
        }
        Some("--jobs") => {
            let jobs = args
                .get(1)
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or_else(|| usage());
            parallel(jobs);
        }
        Some("--bench") => {
            let mut iters = 5;
            let mut warmup = 1;
            let mut json_path: Option<String> = None;
            let mut solver_cache = false;
            let mut jobs = 1;
            let mut i = 1;
            if let Some(v) = args.get(1).and_then(|s| s.parse::<usize>().ok()) {
                iters = v;
                i = 2;
            }
            while i < args.len() {
                match args[i].as_str() {
                    "--jobs" => {
                        jobs = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--warmup" => {
                        warmup = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--json" => {
                        json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--solver-cache" => {
                        solver_cache = parse_solver_cache(args.get(i + 1));
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let opts = BenchOpts {
                warmup,
                iters,
                solver_cache,
                jobs,
            };
            bench_mode(&opts, json_path.as_deref());
        }
        Some("--bench-compare") => {
            let (Some(old_path), Some(new_path)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let mut threshold = 25.0;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--threshold" => {
                        threshold = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<f64>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            bench_compare(old_path, new_path, threshold);
        }
        Some("--trace-proof") => {
            let Some(slug) = args.get(1) else { usage() };
            if args.len() > 2 {
                usage();
            }
            trace_proof(slug);
        }
        Some("--profile") => {
            let mut jobs = 1;
            let mut out_path: Option<String> = None;
            let mut json_path: Option<String> = None;
            let mut hot_queries = 0;
            let mut solver_cache = true;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--jobs" => {
                        jobs = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--profile-out" => {
                        out_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--profile-json" => {
                        json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--hot-queries" => {
                        hot_queries = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--solver-cache" => {
                        solver_cache = parse_solver_cache(args.get(i + 1));
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            profile(
                jobs,
                out_path.as_deref(),
                json_path.as_deref(),
                hot_queries,
                solver_cache,
            );
        }
        Some("--difftest") => {
            let mut cfg = islaris_difftest::FuzzConfig::default();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => {
                        cfg.seed = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<u64>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--budget" => {
                        cfg.budget = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<u64>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--jobs" => {
                        cfg.jobs = args
                            .get(i + 1)
                            .and_then(|s| s.parse::<usize>().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            difftest(&cfg);
        }
        Some("--serve") => serve(&args),
        Some("--replay") => replay_mode(&args),
        Some("--gen-requests") => gen_requests_mode(&args),
        Some("--check-log") => {
            let Some(path) = args.get(1) else { usage() };
            check_log(path);
        }
        Some("--check-json") => {
            let Some(path) = args.get(1) else { usage() };
            check_json(path);
        }
        Some(_) => usage(),
    }
}

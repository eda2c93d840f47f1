//! The islaris-rs benchmark: four workloads measured from outside the
//! program, through public library entry points and the daemon's HTTP
//! wire protocol only.
//!
//! * `fig12_cold` — the paper's Fig. 12 suite, every stage from scratch;
//! * `isla_sweep` — uncached trace generation of grammar-sampled opcodes;
//! * `serve_warm` — closed-loop daemon traffic over warm caches;
//! * `serve_cold` — open-loop daemon traffic of distinct requests against
//!   a fresh daemon's empty caches.
//!
//! Usage (from the repository root, after `benchmark/run.sh` built it):
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! benchmark [--seed N] [--seconds S] [--repeat K] [--out F]  every workload
//! benchmark --compare A.json B.json                         regression gate
//! ```
//!
//! A single run prints a human-readable report and ends with one JSON
//! line: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). It exits nonzero
//! if any output failed its known-answer check.

mod client;
mod gen;
mod golden;
mod inproc;
mod report;
mod serve;
mod stats;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

use islaris_obs::json::parse_json;

use golden::Goldens;
use report::{Metrics, Results, RunRecord, Tally};
use stats::{geomean, median, Dist};

/// Every workload, in report order.
const WORKLOADS: [&str; 4] = ["fig12_cold", "isla_sweep", "serve_warm", "serve_cold"];
/// Set-ups measured per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 7;
/// Where runs keep daemon port files, event logs and Chrome traces.
const RUN_DIR: &str = ".bench_run";

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n       \
         benchmark [--seed N] [--seconds S] [--repeat K] [--out PATH]\n       \
         benchmark --compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    exit(2);
}

/// The settings of one measured phase of one workload.
#[derive(Clone)]
pub struct PhaseCfg {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record the per-layer ledger.
    pub traced: bool,
    /// Stop after set-up (the extra `setup_s` samples).
    pub setup_only: bool,
    /// Scratch directory of this workload.
    pub run_dir: PathBuf,
    /// The `fig12` binary the serve workloads start.
    pub fig12: PathBuf,
}

impl PhaseCfg {
    /// The daemon event log of a traced serve phase.
    fn log_path(&self) -> Option<PathBuf> {
        self.traced
            .then(|| self.run_dir.join(format!("events-{}.jsonl", self.workload)))
    }

    /// The event log path, with any log of an earlier run removed (the
    /// daemon appends).
    fn fresh_log(&self) -> Option<PathBuf> {
        let path = self.log_path()?;
        let _ = std::fs::remove_file(&path);
        Some(path)
    }

    /// Writes the phase's Chrome trace-event JSON.
    fn write_trace(&self, json: &str) {
        let path = self.run_dir.join(format!("trace-{}.json", self.workload));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
}

/// What one measured phase produced.
pub struct Phase {
    /// Seconds from phase start to the first timed operation.
    pub setup_s: f64,
    /// Correct operations per second.
    pub ops_per_s: f64,
    /// How `ops_per_s` was measured.
    pub rate_basis: String,
    /// Operation kinds (cases, decoder classes, request kinds).
    pub kinds: Vec<String>,
    /// The kinds `kind_geomean_ms` averages over.
    pub geomean_kinds: Vec<usize>,
    /// Per operation: kind and latency in ns.
    pub lat: Vec<(usize, u64)>,
    /// Peak resident memory of the measured process, MB.
    pub rss_mb: f64,
    /// Mean daemon wall time per request (`X-Islaris-Wall-Ns`), ms: where
    /// the daemon's own tracing cost lands (serve workloads).
    pub server_wall_ms: f64,
    /// Known-answer checks.
    pub tally: Tally,
    /// The per-layer ledger (traced phases).
    pub layers: Metrics,
    /// Report lines.
    pub notes: Vec<String>,
}

impl Phase {
    /// A phase stopped after set-up.
    fn setup_only(setup_s: f64, tally: Tally) -> Phase {
        Phase {
            setup_s,
            ops_per_s: 0.0,
            rate_basis: String::new(),
            kinds: Vec::new(),
            geomean_kinds: Vec::new(),
            lat: Vec::new(),
            rss_mb: 0.0,
            server_wall_ms: 0.0,
            tally,
            layers: Metrics::default(),
            notes: Vec::new(),
        }
    }

    /// A phase that could not run.
    fn failed(msg: String, mut tally: Tally) -> Phase {
        tally.record(Err(msg));
        Phase::setup_only(0.0, tally)
    }
}

/// Peak resident set (`VmHWM`) of a process, MB.
fn vm_hwm_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn in_process(workload: &str) -> bool {
    workload == "fig12_cold" || workload == "isla_sweep"
}

fn phase(cfg: &PhaseCfg, goldens: &Goldens) -> Phase {
    match cfg.workload {
        "fig12_cold" => inproc::fig12_cold(cfg),
        "isla_sweep" => inproc::isla_sweep(cfg),
        "serve_warm" => serve::serve_warm(cfg, goldens),
        _ => serve::serve_cold(cfg),
    }
}

/// Measures an in-process workload's set-up in a fresh process, so that
/// lazy initialisation is paid as a user pays it.
fn setup_probe(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", workload, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().and_then(|l| l.strip_prefix("setup_s ")) {
        Some(v) if out.status.success() => v.parse().map_err(|_| format!("bad probe output `{v}`")),
        _ => Err(format!("set-up probe failed ({})", out.status)),
    }
}

fn end_to_end(main: &Phase, setups: &[f64], notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let all = Dist::new(main.lat.iter().map(|l| l.1).collect());
    let by_kind: Vec<Dist> = (0..main.kinds.len())
        .map(|k| Dist::new(main.lat.iter().filter(|l| l.0 == k).map(|l| l.1).collect()))
        .collect();
    let kind_medians: Vec<f64> = main
        .geomean_kinds
        .iter()
        .map(|&k| by_kind[k].ms(1, 2))
        .filter(|&v| v > 0.0)
        .collect();
    let values = [
        (
            "setup_s",
            median(setups),
            format!("median of {} set-ups", setups.len()),
        ),
        ("ops_per_s", main.ops_per_s, main.rate_basis.clone()),
        ("lat_p50_ms", all.ms(1, 2), format!("n={}", all.len())),
        (
            "lat_p95_ms",
            all.ms(95, 100),
            format!("n={}, {} beyond", all.len(), all.len() / 20),
        ),
        (
            "kind_geomean_ms",
            if kind_medians.is_empty() {
                0.0
            } else {
                geomean(&kind_medians)
            },
            format!("{} kinds", kind_medians.len()),
        ),
        ("rss_peak_mb", main.rss_mb, "VmHWM".to_string()),
    ];
    for (name, value, note) in values {
        let unit = report::END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        notes.push(format!("  {name:<18} {value:>14.6} {unit:<4} {note}"));
        m.set(name, value);
    }
    notes.push("  per kind: n, p50 ms, p95 ms, p99 ms".into());
    for (kind, d) in main.kinds.iter().zip(&by_kind) {
        notes.push(format!(
            "    {kind:<28} {:>7} {:>10.4} {:>10.4} {:>10.4}",
            d.len(),
            d.ms(1, 2),
            d.ms(95, 100),
            d.ms(99, 100)
        ));
    }
    m
}

/// One run of one workload. Returns the exit code.
fn run_single(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> i32 {
    let run_dir = PathBuf::from(RUN_DIR).join(workload);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("creating {}: {e}", run_dir.display());
        return 2;
    }
    let fig12 = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("fig12"),
        Err(e) => {
            eprintln!("locating the benchmark: {e}");
            return 2;
        }
    };
    if !in_process(workload) && !fig12.is_file() {
        eprintln!(
            "{} not found: build it with benchmark/run.sh",
            fig12.display()
        );
        return 2;
    }
    let cfg = PhaseCfg {
        workload,
        seed,
        seconds,
        traced,
        setup_only: false,
        run_dir,
        fig12,
    };
    let goldens = if workload == "serve_warm" {
        match Goldens::load_all() {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else {
        Goldens::default()
    };

    let mut tally = Tally::default();
    let mut notes = vec![format!(
        "{workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    )];
    let (metrics, catalogue) = if traced {
        // In-process workloads interleave traced and untraced operations
        // themselves; the daemon logs all or nothing, so a serve run first
        // measures an untraced segment for the overhead baseline.
        let calibration = (!in_process(workload)).then(|| {
            phase(
                &PhaseCfg {
                    seconds: seconds / 4.0,
                    traced: false,
                    ..cfg.clone()
                },
                &goldens,
            )
        });
        let main = phase(&cfg, &goldens);
        let mut layers = main.layers;
        if let Some(calibration) = calibration {
            let overhead = 100.0 * (main.server_wall_ms / calibration.server_wall_ms - 1.0);
            layers.set("tracing_overhead_pct", overhead);
            notes.push(format!(
                "tracing overhead {overhead:+.2}% (mean daemon wall time, logged vs an unlogged {:.1} s segment)",
                seconds / 4.0
            ));
            tally.absorb(calibration.tally);
        }
        notes.extend(main.notes);
        tally.absorb(main.tally);
        (layers, report::per_layer())
    } else {
        let mut setups = Vec::new();
        for _ in 1..SETUP_RUNS {
            if in_process(workload) {
                match setup_probe(workload, seed) {
                    Ok(s) => setups.push(s),
                    Err(e) => tally.fail(e),
                }
            } else {
                let p = phase(
                    &PhaseCfg {
                        setup_only: true,
                        ..cfg.clone()
                    },
                    &goldens,
                );
                tally.absorb(p.tally);
                setups.push(p.setup_s);
            }
        }
        let main = phase(&cfg, &goldens);
        setups.push(main.setup_s);
        notes.extend(main.notes.iter().cloned());
        let m = end_to_end(&main, &setups, &mut notes);
        tally.absorb(main.tally);
        (m, report::end_to_end())
    };

    for line in &notes {
        println!("{line}");
    }
    if traced {
        for (name, unit) in &catalogue {
            if let Some((_, v)) = metrics.0.iter().find(|(n, _)| n == name) {
                if *v != 0.0 {
                    println!("  {name:<32} {v:>14.6} {unit}");
                }
            }
        }
    }
    println!(
        "  checks: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for f in &tally.first {
        println!("  FAILED: {f}");
    }
    println!("{}", report::result_line(&tally, &metrics, &catalogue));
    i32::from(tally.failed > 0)
}

/// Runs one workload as a child process, echoing its report; returns
/// its parsed result line and whether it succeeded.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let mut last = String::new();
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    let result = parse_json(&last).map_err(|_| format!("{workload}: no result line ({status})"))?;
    if !status.success() {
        return Err(format!("{workload} seed {seed} failed ({status})"));
    }
    Ok(RunRecord {
        workload: workload.to_string(),
        seed,
        traced,
        result,
    })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every workload: `repeat` untraced runs on consecutive seeds, then one
/// traced run; prints the summary and writes the results file.
fn run_all(seed: u64, seconds: u64, repeat: u64, out: Option<&str>) -> i32 {
    let mut results = Results {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        git_rev: git_rev(),
        seconds,
        runs: Vec::new(),
    };
    let mut failures = Vec::new();
    for w in WORKLOADS {
        for (s, traced) in (0..repeat)
            .map(|r| (seed + r, false))
            .chain(std::iter::once((seed, true)))
        {
            match run_child(w, s, seconds, traced) {
                Ok(r) => results.runs.push(r),
                Err(e) => failures.push(e),
            }
        }
    }
    println!(
        "\nsummary: nproc={} git_rev={} seconds={seconds} seeds {seed}..{}",
        results.nproc,
        results.git_rev,
        seed + repeat - 1
    );
    for w in WORKLOADS {
        println!("{w}");
        for (name, unit) in report::END_TO_END {
            let v = results.values(w, name);
            if v.is_empty() {
                continue;
            }
            println!(
                "  {name:<18} {:>14.6} {unit:<4} median of {} runs, spread {:.1}%",
                median(&v),
                v.len(),
                100.0 * stats::spread(&v)
            );
        }
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, results.render()) {
            failures.push(format!("writing {path}: {e}"));
        } else {
            println!("results written to {path}");
        }
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    i32::from(!failures.is_empty())
}

fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|t| Results::parse(&t).map_err(|e| format!("parsing {path}: {e}")))
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|t| report::parse_bounds(&t));
    let (a, b, bounds) = match (load(a_path), load(b_path), bounds) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (a, b, bounds) => {
            for e in [a.err(), b.err(), bounds.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    if a.nproc != b.nproc {
        eprintln!(
            "refusing to compare runs from hosts with nproc {} and {}",
            a.nproc, b.nproc
        );
        return 2;
    }
    let (table, regressions, _) = report::compare(&a, &b, &bounds);
    print!("{table}");
    i32::from(regressions > 0)
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut probe) = (None, None);
    let (mut seed, mut seconds, mut trace, mut repeat) = (1u64, 25u64, 0u8, 5u64);
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--compare" => match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) if i == 0 && args.len() == 3 => exit(compare(a, b)),
                _ => usage(),
            },
            "--workload" => workload = Some(parse::<String>(value)),
            "--setup-probe" => probe = Some(parse::<String>(value)),
            "--seed" => seed = parse(value),
            "--seconds" => seconds = parse(value),
            "--trace" => trace = parse(value),
            "--repeat" => repeat = parse(value),
            "--out" => out = Some(parse(value)),
            _ => usage(),
        }
        i += 2;
    }
    let known = |w: &str| WORKLOADS.iter().copied().find(|k| *k == w);
    if seconds == 0 || trace > 1 || repeat == 0 {
        usage();
    }
    if let Some(w) = probe {
        let Some(w) = known(&w).filter(|w| in_process(w)) else {
            usage()
        };
        let cfg = PhaseCfg {
            workload: w,
            seed,
            seconds: 0.0,
            traced: false,
            setup_only: true,
            run_dir: PathBuf::from(RUN_DIR).join(w),
            fig12: PathBuf::new(),
        };
        let p = phase(&cfg, &Goldens::default());
        for f in &p.tally.first {
            eprintln!("set-up probe: {f}");
        }
        println!("setup_s {}", p.setup_s);
        exit(i32::from(p.tally.failed > 0));
    }
    match workload {
        Some(w) => {
            let Some(w) = known(&w) else { usage() };
            exit(run_single(w, seed, seconds as f64, trace == 1));
        }
        None => exit(run_all(seed, seconds, repeat, out.as_deref())),
    }
}

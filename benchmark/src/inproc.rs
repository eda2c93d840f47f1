//! The in-process workloads: `fig12_cold` (the paper's Fig. 12 suite,
//! every stage from scratch) and `isla_sweep` (trace generation alone).
//! Both are closed loops on one thread that stop after the first pass or
//! operation that takes the timed total past the run length; every known
//! answer is checked between timed calls.

use std::time::{Duration, Instant};

use islaris_cases::{CaseArtifacts, CaseCtx, ALL_CASES};
use islaris_core::{check_certificate, render_certificate, Report, Verifier};
use islaris_difftest::Oracle;
use islaris_isla::{trace_opcode, IslaConfig, IslaStats, Opcode};
use islaris_obs::Recorder;

use crate::gen::{Isa, OpcodeGen, Sampled, SplitMix64};
use crate::golden::Goldens;
use crate::report::{Metrics, Overhead, Tally, CASE_SLUGS};
use crate::stats::Dist;
use crate::{Phase, PhaseCfg};

/// Distinct opcodes in one `isla_sweep` list; the run cycles through it.
/// Fixing the list (not the op count) keeps the class mix independent of
/// how fast tracing is.
const SWEEP_OPS: usize = 16_384;
/// Untimed warm-up traces at the end of `isla_sweep` set-up. Enough that
/// set-up lasts tens of milliseconds: with a few traces it lasts a few,
/// and scheduler and page-fault jitter alone moves it by half.
const SWEEP_WARMUP: usize = 1024;
/// A class enters `kind_geomean_ms` when the list holds at least this many
/// of its opcodes (single-encoding classes like `nop` would make it one
/// sample's noise).
const MIN_CLASS_OPS: usize = 16;
/// One opcode in this many (seeded) also goes through the difftest oracle.
const ORACLE_ONE_IN: usize = 16;

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One case's timed run: build, verify, replay.
struct CaseRun {
    index: usize,
    art: ArtInfo,
    report: Result<Report, String>,
    replay: Result<(), String>,
    times: [Instant; 4],
}

/// What the checks need of a case's artefacts after verification moved
/// the program spec away.
struct ArtInfo {
    name: &'static str,
    isa: &'static str,
    isla: IslaStats,
}

fn run_case(index: usize) -> CaseRun {
    let t0 = Instant::now();
    let art: CaseArtifacts = (ALL_CASES[index].build)(&CaseCtx::default());
    let t1 = Instant::now();
    let info = ArtInfo {
        name: art.name,
        isa: art.isa,
        isla: art.isla_stats,
    };
    let report = Verifier::new(art.prog_spec, art.protocol)
        .verify_all()
        .map_err(|e| e.to_string());
    let t2 = Instant::now();
    let replay = match &report {
        Ok(r) => r
            .blocks
            .iter()
            .try_for_each(|b| check_certificate(&b.cert))
            .map_err(|e| e.to_string()),
        Err(_) => Ok(()),
    };
    let t3 = Instant::now();
    CaseRun {
        index,
        art: info,
        report,
        replay,
        times: [t0, t1, t2, t3],
    }
}

/// The known answer for one case: proved, replayed, golden certificates.
fn check_case(run: &CaseRun, goldens: &mut Goldens) -> Result<(), String> {
    let slug = ALL_CASES[run.index].slug;
    let report = run
        .report
        .as_ref()
        .map_err(|e| format!("`{slug}` not proved: {e}"))?;
    run.replay
        .as_ref()
        .map_err(|e| format!("`{slug}` certificate replay failed: {e}"))?;
    goldens.load(slug, run.art.name, run.art.isa)?;
    let rendered: Vec<String> = report
        .blocks
        .iter()
        .map(|b| render_certificate(&b.cert))
        .collect();
    let rendered: Vec<&str> = rendered.iter().map(String::as_str).collect();
    goldens.check(slug, &rendered)
}

/// Per-suite effort counters, summed over the nine cases of one pass.
#[derive(Default)]
struct SuiteCounts {
    isla_runs: u64,
    isla_smt: u64,
    model_steps: u64,
    engine_smt: u64,
    engine_lia: u64,
    obligations: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    cnf_clauses: u64,
    assumption_solves: u64,
    fallback_solves: u64,
    replayed: u64,
}

impl SuiteCounts {
    fn add(&mut self, run: &CaseRun) {
        self.isla_runs += run.art.isla.runs;
        self.isla_smt += run.art.isla.smt_queries;
        self.model_steps += run.art.isla.model_steps;
        if let Ok(report) = &run.report {
            for b in &report.blocks {
                let s = &b.stats;
                self.engine_smt += s.smt_queries;
                self.engine_lia += s.lia_queries;
                self.obligations += s.obligations;
                self.decisions += s.solver.decisions;
                self.conflicts += s.solver.conflicts;
                self.propagations += s.solver.propagations;
                self.cnf_clauses += s.solver.cnf_clauses;
                self.assumption_solves += s.session.assumption_solves;
                self.fallback_solves += s.session.fallback_solves;
                self.replayed += b.cert.obligations.len() as u64;
            }
        }
    }
}

/// `fig12_cold`: each pass runs all nine Fig. 12 cases in a seeded
/// order, each built without a trace cache, verified, and its
/// certificates replayed; one op is one case's time to a checked verdict.
pub fn fig12_cold(cfg: &PhaseCfg) -> Phase {
    let mut goldens = Goldens::default();
    let mut tally = Tally::default();
    let mut rng = SplitMix64::stream(cfg.seed, 1);
    let mut order: Vec<usize> = (0..ALL_CASES.len()).collect();

    // Set-up: one untimed pass, which also pays lazy model initialisation.
    let t_setup = Instant::now();
    for i in 0..ALL_CASES.len() {
        let run = run_case(i);
        tally.record(check_case(&run, &mut goldens).map_err(|e| format!("set-up pass: {e}")));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cfg.setup_only {
        return Phase::setup_only(setup_s, tally);
    }

    let recorder = cfg.traced.then(Recorder::new);
    let mut lat: Vec<(usize, u64)> = Vec::new();
    let (mut build, mut verify, mut replay, mut pass, mut unattributed) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut counts = SuiteCounts::default();
    let mut overhead = Overhead::default();
    let mut timed = Duration::ZERO;
    let mut ops = 0;
    let mut passes = 0u64;
    while timed.as_secs_f64() < cfg.seconds {
        // A traced run records spans on every other pass only, so the
        // passes without are its untraced baseline.
        let spans = recorder.as_ref().filter(|_| passes.is_multiple_of(2));
        rng.shuffle(&mut order);
        let p0 = Instant::now();
        let runs: Vec<CaseRun> = order.iter().map(|&i| run_case(i)).collect();
        let p1 = Instant::now();
        timed += p1 - p0;

        // Untimed from here: bookkeeping and known-answer checks.
        let mut seg = [0u64; 3];
        for run in &runs {
            let [t0, t1, t2, t3] = run.times;
            seg[0] += ns(t1 - t0);
            seg[1] += ns(t2 - t1);
            seg[2] += ns(t3 - t2);
            lat.push((run.index, ns(t3 - t0)));
            if let Some(rec) = spans {
                let slug = ALL_CASES[run.index].slug;
                rec.record_between(format!("build:{slug}"), "case", t0, t1);
                rec.record_between(format!("verify:{slug}"), "case", t1, t2);
                rec.record_between(format!("replay:{slug}"), "case", t2, t3);
            }
            if passes == 0 {
                counts.add(run);
            }
            let check = check_case(run, &mut goldens);
            if check.is_ok() {
                ops += 1;
            }
            tally.record(check);
        }
        if let Some(rec) = spans {
            rec.record_between("pass", "fig12", p0, p1);
        }
        overhead.add(spans.is_some(), ns(p1 - p0));
        build.push(seg[0]);
        verify.push(seg[1]);
        replay.push(seg[2]);
        pass.push(ns(p1 - p0));
        unattributed.push(ns(p1 - p0).saturating_sub(seg.iter().sum()));
        passes += 1;
    }

    let ops_per_s = ops as f64 / timed.as_secs_f64();
    let rate_basis = format!("{ops} correct cases in {:.3} s", timed.as_secs_f64());

    let mut layers = Metrics::default();
    if let Some(rec) = &recorder {
        cfg.write_trace(&rec.chrome_trace());
        let c = &counts;
        for (name, v) in [
            ("isla.runs", c.isla_runs),
            ("isla.smt_queries", c.isla_smt),
            ("sail.model_steps", c.model_steps),
            ("engine.smt_queries", c.engine_smt),
            ("engine.lia_queries", c.engine_lia),
            ("engine.obligations", c.obligations),
            ("smt.decisions", c.decisions),
            ("smt.conflicts", c.conflicts),
            ("smt.propagations", c.propagations),
            ("smt.cnf_clauses", c.cnf_clauses),
            ("sess.assumption_solves", c.assumption_solves),
            ("sess.fallback_solves", c.fallback_solves),
            ("cert.replayed", c.replayed),
        ] {
            layers.set(name, v as f64);
        }
        for (name, samples) in [
            ("isla.build_ms", build),
            ("engine.verify_ms", verify),
            ("cert.replay_ms", replay),
        ] {
            let d = Dist::new(samples);
            layers.set(format!("{name}.p50"), d.ms(1, 2));
            layers.set(format!("{name}.p90"), d.ms(9, 10));
        }
        for (i, slug) in CASE_SLUGS.iter().enumerate() {
            let d = Dist::new(lat.iter().filter(|o| o.0 == i).map(|o| o.1).collect());
            layers.set(format!("case.{slug}_ms"), d.ms(1, 2));
        }
        let pass_ms = Dist::new(pass).ms(1, 2);
        let un_ms = Dist::new(unattributed).ms(1, 2);
        layers.set("fig12.pass_ms", pass_ms);
        layers.set("fig12.unattributed_ms", un_ms);
        layers.set("fig12.unattributed_pct", 100.0 * un_ms / pass_ms);
        layers.set("tracing_overhead_pct", overhead.pct());
    }

    Phase {
        setup_s,
        ops_per_s,
        rate_basis,
        kinds: ALL_CASES.iter().map(|c| c.slug.to_string()).collect(),
        geomean_kinds: (0..ALL_CASES.len()).collect(),
        lat,
        rss_mb: crate::vm_hwm_mb(std::process::id()),
        server_wall_ms: 0.0,
        tally,
        layers,
        notes: vec![format!("{passes} passes of {} cases", ALL_CASES.len())],
    }
}

/// Per-op effort counters of the sweep's first cycle through its list.
#[derive(Default)]
struct SweepCounts {
    ops: u64,
    runs: u64,
    explored: u64,
    pruned: u64,
    smt: u64,
    conflicts: u64,
    steps: u64,
    errors: u64,
    checked: u64,
    divergences: u64,
}

/// `isla_sweep`: `trace_opcode` on a seeded list of distinct
/// grammar-sampled opcodes (half Arm, half RISC-V), cycled until the run
/// length is reached; one op is one uncached trace.
pub fn isla_sweep(cfg: &PhaseCfg) -> Phase {
    let mut tally = Tally::default();

    // Set-up: the opcode list, the configurations, and warm-up traces
    // (which pay lazy model initialisation).
    let t_setup = Instant::now();
    let mut gen = OpcodeGen::new(SplitMix64::stream(cfg.seed, 2));
    let list: Vec<Sampled> = (0..SWEEP_OPS).map(|_| gen.next()).collect();
    let configs = [
        IslaConfig::new(Isa::Arm.arch()),
        IslaConfig::new(Isa::Riscv.arch()),
    ];
    let config = |isa: Isa| &configs[usize::from(isa == Isa::Riscv)];
    for op in &list[..SWEEP_WARMUP] {
        let traced = trace_opcode(config(op.isa), &Opcode::Concrete(op.opcode));
        tally.record(
            traced
                .map(drop)
                .map_err(|e| format!("set-up trace {:#010x}: {e}", op.opcode)),
        );
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cfg.setup_only {
        return Phase::setup_only(setup_s, tally);
    }

    // Kinds are `isa/class`; the geomean set is fixed by the list alone.
    let mut kinds: Vec<String> = Vec::new();
    let kind_of: Vec<usize> = list
        .iter()
        .map(|op| {
            let k = format!("{}/{}", op.isa.wire_name(), op.class);
            kinds.iter().position(|x| *x == k).unwrap_or_else(|| {
                kinds.push(k);
                kinds.len() - 1
            })
        })
        .collect();
    let geomean_kinds: Vec<usize> = (0..kinds.len())
        .filter(|&k| kind_of.iter().filter(|&&x| x == k).count() >= MIN_CLASS_OPS)
        .collect();
    let mut sample_rng = SplitMix64::stream(cfg.seed, 3);
    let oracle_pick: Vec<bool> = (0..list.len())
        .map(|_| sample_rng.below(ORACLE_ONE_IN) == 0)
        .collect();
    let oracles = [
        Oracle::shipped(Isa::Arm.arch()),
        Oracle::shipped(Isa::Riscv.arch()),
    ];
    let mut events = vec![0usize; list.len()];

    let recorder = cfg.traced.then(Recorder::new);
    let mut lat: Vec<(usize, u64)> = Vec::new();
    let (mut arm_ns, mut riscv_ns) = (Vec::new(), Vec::new());
    let mut counts = SweepCounts::default();
    let mut overhead = Overhead::default();
    let mut timed = Duration::ZERO;
    let mut ops = 0;
    let mut done = 0usize;
    while timed.as_secs_f64() < cfg.seconds {
        let i = done % list.len();
        let first_cycle = done < list.len();
        // Spans on alternate blocks of 64 ops (both ISAs in each block).
        let spans = recorder.as_ref().filter(|_| (done / 64).is_multiple_of(2));
        done += 1;
        let op = &list[i];
        let t0 = Instant::now();
        let result = trace_opcode(config(op.isa), &Opcode::Concrete(op.opcode));
        let t1 = Instant::now();
        timed += t1 - t0;

        // Untimed from here.
        let took = ns(t1 - t0);
        lat.push((kind_of[i], took));
        match op.isa {
            Isa::Arm => arm_ns.push(took),
            Isa::Riscv => riscv_ns.push(took),
        }
        if let Some(rec) = spans {
            rec.record_between(format!("trace:{}", kinds[kind_of[i]]), "isla", t0, t1);
        }
        overhead.add(spans.is_some(), took);
        let check = match result {
            Err(e) => {
                counts.errors += u64::from(first_cycle);
                Err(format!(
                    "trace {:#010x} ({}): {e}",
                    op.opcode, kinds[kind_of[i]]
                ))
            }
            Ok(r) if first_cycle => {
                let s = &r.stats;
                counts.ops += 1;
                counts.runs += s.runs;
                counts.explored += s.branches_explored;
                counts.pruned += s.branches_pruned;
                counts.smt += s.smt_queries;
                counts.conflicts += s.solver.conflicts;
                counts.steps += s.model_steps;
                events[i] = s.events;
                if oracle_pick[i] {
                    counts.checked += 1;
                    let oracle = &oracles[usize::from(op.isa == Isa::Riscv)];
                    let outcome = oracle.check_opcode(op.opcode, &r, op.class, cfg.seed);
                    counts.divergences += outcome.divergences.len() as u64;
                    match outcome.divergences.first() {
                        None => Ok(()),
                        Some(d) => Err(format!(
                            "difftest divergence on {:#010x}: {}",
                            op.opcode,
                            d.render()
                        )),
                    }
                } else {
                    Ok(())
                }
            }
            // Later cycles re-trace the same opcode: it must give the
            // same trace again.
            Ok(r) if r.stats.events == events[i] => Ok(()),
            Ok(r) => Err(format!(
                "trace {:#010x} changed between cycles: {} events, first cycle {}",
                op.opcode, r.stats.events, events[i]
            )),
        };
        if check.is_ok() {
            ops += 1;
        }
        tally.record(check);
    }

    let ops_per_s = ops as f64 / timed.as_secs_f64();
    let rate_basis = format!("{ops} correct traces in {:.3} s", timed.as_secs_f64());

    let mut layers = Metrics::default();
    if let Some(rec) = &recorder {
        cfg.write_trace(&rec.chrome_trace());
        for (name, samples) in [
            ("isla.trace_arm_ms", arm_ns),
            ("isla.trace_riscv_ms", riscv_ns),
        ] {
            let d = Dist::new(samples);
            layers.set(format!("{name}.p50"), d.ms(1, 2));
            layers.set(format!("{name}.p90"), d.ms(9, 10));
        }
        let c = &counts;
        let per_op = |v: u64| v as f64 / c.ops.max(1) as f64;
        for (name, v) in [
            ("isla.runs_per_op", per_op(c.runs)),
            ("isla.branches_explored_per_op", per_op(c.explored)),
            ("isla.branches_pruned_per_op", per_op(c.pruned)),
            ("isla.smt_queries_per_op", per_op(c.smt)),
            ("isla.smt_conflicts_per_op", per_op(c.conflicts)),
            ("sail.model_steps_per_op", per_op(c.steps)),
            ("isla.trace_errors", c.errors as f64),
            ("difftest.checked", c.checked as f64),
            ("difftest.divergences", c.divergences as f64),
            ("tracing_overhead_pct", overhead.pct()),
        ] {
            layers.set(name, v);
        }
    }

    Phase {
        setup_s,
        ops_per_s,
        rate_basis,
        kinds,
        geomean_kinds,
        lat,
        rss_mb: crate::vm_hwm_mb(std::process::id()),
        server_wall_ms: 0.0,
        tally,
        layers,
        notes: vec![format!(
            "{done} traces over a list of {} distinct opcodes; {} oracle-checked",
            list.len(),
            counts.checked
        )],
    }
}

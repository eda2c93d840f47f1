//! A shared, thread-safe memo table for symbolic traces.
//!
//! Tracing an opcode is the expensive half of the pipeline (symbolic
//! execution plus SMT feasibility pruning), yet it is a pure function of
//! the *(opcode, architecture, configuration constraints)* triple: the
//! same `ldrb`/`strb` pair recurs across memcpy-style loops, and the
//! `movz`/`movk` relocation family recurs across pKVM-style handlers. The
//! cache executes each distinct triple once and replays the simplified
//! trace — **including its statistics**, so aggregated per-case numbers
//! (runs, SMT queries, events) are identical whether a trace was computed
//! or replayed, and parallel pipelines report byte-identical tables.
//!
//! The key is a rendered fingerprint:
//!
//! * the opcode bytes (or, for partially symbolic opcodes, the printed
//!   opcode expression, parameter sorts, and assumption set);
//! * the ISA (architecture name);
//! * the configuration constraints: concrete register assumptions,
//!   predicate constraints (printed applied to a probe variable), and the
//!   solver configuration (its budget changes which branches prune).
//!
//! Concurrent requests for the same key are coalesced: the first claims
//! the slot and traces; the rest block on a condvar and count as hits, so
//! hit/miss totals are deterministic for a fixed workload regardless of
//! worker count or interleaving.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use islaris_itl::Trace;
use islaris_smt::{Expr, Sort, Var, SAT_IDENTITY};

use crate::driver::{trace_opcode, IslaStats, Opcode};
use crate::exec::{IslaConfig, IslaError};
use crate::store::TraceStore;

/// A memoised trace: the simplified tree plus the metadata of the run
/// that produced it.
#[derive(Debug, Clone)]
pub struct CachedTrace {
    /// The simplified trace.
    pub trace: Arc<Trace>,
    /// Free parameter variables (for symbolic opcodes).
    pub params: Vec<(Var, Sort)>,
    /// Statistics of the original (cold) run. Replayed on hits so
    /// aggregate counts are independent of cache state.
    pub stats: IslaStats,
}

/// Hit/miss counters of a cache — the shared
/// [`islaris_obs::CacheMetrics`] record, re-exported under the name this
/// module has always used so existing struct literals keep working.
pub use islaris_obs::CacheMetrics as CacheStats;

enum Slot {
    /// Someone is tracing this key; wait on the condvar.
    Pending,
    /// Done.
    Ready(Arc<CachedTrace>),
}

/// The shared trace memo table. Cheap to share via `&` across a thread
/// scope or via `Arc` across owners. Optionally backed by a persistent
/// [`TraceStore`] ([`TraceCache::persistent`]): a key absent from memory
/// is looked up on disk before tracing, and cold traces are written back,
/// so restarts are warm and N processes can share one store directory.
#[derive(Default)]
pub struct TraceCache {
    map: Mutex<HashMap<String, Slot>>,
    cv: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    store: Option<TraceStore>,
}

/// Renders the configuration part of the cache key. Predicate
/// constraints are closures, so they are fingerprinted by printing their
/// predicate applied to a reserved probe variable.
#[must_use]
pub fn config_fingerprint(cfg: &IslaConfig) -> String {
    let probe = Expr::var(Var(u32::MAX));
    let mut out = String::new();
    let _ = write!(out, "arch={};", cfg.arch.name);
    for (name, val) in &cfg.reg_values {
        let _ = write!(out, "reg {name}={val};");
    }
    for (name, mk) in &cfg.reg_constraints {
        let _ = write!(out, "con {name}:{};", mk(&probe));
    }
    let _ = write!(
        out,
        "solver max_conflicts={} check_proofs={} sat={SAT_IDENTITY}",
        cfg.solver.max_conflicts, cfg.solver.check_proofs
    );
    out
}

/// Renders the opcode part of the cache key.
#[must_use]
pub fn opcode_fingerprint(opcode: &Opcode) -> String {
    match opcode {
        Opcode::Concrete(op) => format!("op={op:#010x}"),
        Opcode::Symbolic {
            expr,
            params,
            assumptions,
        } => {
            let mut out = String::new();
            let _ = write!(out, "sym={expr};params=");
            for (v, s) in params {
                let _ = write!(out, "v{}:{s},", v.0);
            }
            let _ = write!(out, ";assume=");
            for a in assumptions {
                let _ = write!(out, "{a},");
            }
            out
        }
    }
}

fn cache_key(cfg: &IslaConfig, opcode: &Opcode) -> String {
    format!(
        "{}\u{1}{}",
        config_fingerprint(cfg),
        opcode_fingerprint(opcode)
    )
}

/// Removes a Pending slot if tracing unwinds, so waiters are not stranded.
struct PendingGuard<'a> {
    cache: &'a TraceCache,
    key: &'a str,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.lock().remove(self.key);
            self.cache.cv.notify_all();
        }
    }
}

impl TraceCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// An empty in-memory cache backed by the persistent store at `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the store directory.
    pub fn persistent(dir: &std::path::Path) -> std::io::Result<Self> {
        Ok(TraceCache {
            store: Some(TraceStore::open(dir)?),
            ..TraceCache::default()
        })
    }

    /// Disk-side counters of the backing store, if any.
    #[must_use]
    pub fn store_metrics(&self) -> Option<islaris_obs::StoreMetrics> {
        self.store.as_ref().map(TraceStore::metrics)
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        // A panic while holding the map lock only happens between plain
        // HashMap operations, which cannot leave it inconsistent.
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up (or computes) the trace for `(cfg, opcode)`. Returns the
    /// entry and whether this lookup was a hit.
    ///
    /// # Errors
    ///
    /// Propagates [`IslaError`] from tracing; failed keys are not cached,
    /// so a later retry re-traces.
    pub fn lookup(
        &self,
        cfg: &IslaConfig,
        opcode: &Opcode,
    ) -> Result<(Arc<CachedTrace>, bool), IslaError> {
        let key = cache_key(cfg, opcode);
        let mut map = self.lock();
        loop {
            match map.get(&key) {
                Some(Slot::Ready(entry)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((entry.clone(), true));
                }
                Some(Slot::Pending) => {
                    map = self
                        .cv
                        .wait(map)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                None => {
                    map.insert(key.clone(), Slot::Pending);
                    break;
                }
            }
        }
        drop(map);
        let mut guard = PendingGuard {
            cache: self,
            key: &key,
            armed: true,
        };
        // Not in memory: consult the persistent store before tracing. A
        // verified disk entry counts as a hit (the work was not redone);
        // any defect was already treated as a sound miss by the store.
        if let Some(entry) = self.store.as_ref().and_then(|s| s.load(&key)) {
            guard.armed = false;
            drop(guard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            let mut map = self.lock();
            map.insert(key, Slot::Ready(entry.clone()));
            self.cv.notify_all();
            return Ok((entry, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = trace_opcode(cfg, opcode);
        guard.armed = false;
        drop(guard);
        match result {
            Ok(r) => {
                let entry = Arc::new(CachedTrace {
                    trace: Arc::new(r.trace),
                    params: r.params,
                    stats: r.stats,
                });
                // Persist outside the map lock; waiters stay parked on
                // the Pending slot until the Ready insert below.
                if let Some(store) = &self.store {
                    store.save(&key, &entry);
                }
                let mut map = self.lock();
                map.insert(key, Slot::Ready(entry.clone()));
                self.cv.notify_all();
                Ok((entry, false))
            }
            Err(e) => {
                let mut map = self.lock();
                map.remove(&key);
                self.cv.notify_all();
                Err(e)
            }
        }
    }

    /// [`TraceCache::lookup`] without the hit flag.
    ///
    /// # Errors
    ///
    /// Propagates [`IslaError`] from tracing.
    pub fn trace_opcode(
        &self,
        cfg: &IslaConfig,
        opcode: &Opcode,
    ) -> Result<Arc<CachedTrace>, IslaError> {
        self.lookup(cfg, opcode).map(|(entry, _)| entry)
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct memoised traces.
    ///
    /// # Panics
    ///
    /// Never; lock poisoning is absorbed.
    #[must_use]
    pub fn unique_traces(&self) -> usize {
        self.lock().len()
    }

    /// Resets the hit/miss counters (the memo table is kept). Used
    /// between measurement phases that share one warm cache.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_models::ARM;

    const ADD_SP: u32 = 0x9101_03ff; // add sp, sp, #0x40

    fn cfg() -> IslaConfig {
        IslaConfig::new(ARM)
            .assume_reg("PSTATE.EL", islaris_bv::Bv::new(2, 0b10))
            .assume_reg("PSTATE.SP", islaris_bv::Bv::new(1, 0b1))
    }

    #[test]
    fn second_lookup_hits_and_replays_stats() {
        let cache = TraceCache::new();
        let (a, hit_a) = cache.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        let (b, hit_b) = cache.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(*a.trace, *b.trace);
        assert_eq!(a.stats.smt_queries, b.stats.smt_queries);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.unique_traces(), 1);
    }

    #[test]
    fn cached_trace_equals_fresh_trace() {
        let cache = TraceCache::new();
        let entry = cache
            .trace_opcode(&cfg(), &Opcode::Concrete(ADD_SP))
            .unwrap();
        let fresh = trace_opcode(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert_eq!(*entry.trace, fresh.trace);
        assert_eq!(entry.stats.runs, fresh.stats.runs);
        assert_eq!(entry.stats.smt_queries, fresh.stats.smt_queries);
        assert_eq!(entry.stats.events, fresh.stats.events);
    }

    #[test]
    fn different_configs_do_not_collide() {
        let cache = TraceCache::new();
        let unconstrained = IslaConfig::new(ARM);
        let t1 = cache
            .trace_opcode(&cfg(), &Opcode::Concrete(ADD_SP))
            .unwrap();
        let t2 = cache
            .trace_opcode(&unconstrained, &Opcode::Concrete(ADD_SP))
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        // The constrained trace is linear over SP_EL2; the unconstrained
        // one keeps the banked-SP Cases split, so they must differ.
        assert_ne!(*t1.trace, *t2.trace);
    }

    #[test]
    fn constraint_closures_are_fingerprinted_by_predicate() {
        let c1 = IslaConfig::new(ARM)
            .constrain_reg("SPSR_EL2", |e| Expr::eq(e.clone(), Expr::bv(64, 5)));
        let c2 = IslaConfig::new(ARM)
            .constrain_reg("SPSR_EL2", |e| Expr::eq(e.clone(), Expr::bv(64, 9)));
        assert_ne!(config_fingerprint(&c1), config_fingerprint(&c2));
        let c3 = IslaConfig::new(ARM)
            .constrain_reg("SPSR_EL2", |e| Expr::eq(e.clone(), Expr::bv(64, 5)));
        assert_eq!(config_fingerprint(&c1), config_fingerprint(&c3));
    }

    /// Pins the configuration half of the trace-cache key: existing
    /// `--store` directories stay warm only while it renders unchanged.
    #[test]
    fn config_fingerprint_is_pinned() {
        let c = cfg().constrain_reg("SPSR_EL2", |e| Expr::eq(e.clone(), Expr::bv(64, 5)));
        assert_eq!(
            config_fingerprint(&c),
            concat!(
                "arch=armv8-a;reg PSTATE.EL=#b10;reg PSTATE.SP=#b1;",
                "con SPSR_EL2:(= v4294967295 #x0000000000000005);",
                "solver max_conflicts=2000000 check_proofs=false sat=Sat",
                "Config { vsids: true, phase_saving: true, luby_restarts: true, ",
                "db_reduction: true, minimize: true, fold: true }",
            )
        );
    }

    #[test]
    fn concurrent_lookups_coalesce() {
        let cache = TraceCache::new();
        let config = cfg();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    cache
                        .trace_opcode(&config, &Opcode::Concrete(ADD_SP))
                        .unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one cold trace");
        assert_eq!(stats.hits, 3, "everyone else coalesces onto it");
        assert_eq!(cache.unique_traces(), 1);
    }

    #[test]
    fn persistent_cache_is_warm_after_a_restart() {
        let dir = std::env::temp_dir().join(format!("islaris-pcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold process: miss, compute, persist.
        let cold = TraceCache::persistent(&dir).unwrap();
        let (a, hit_a) = cold.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert!(!hit_a);
        let m = cold.store_metrics().unwrap();
        assert_eq!((m.disk_hits, m.disk_misses), (0, 1));

        // "Restarted" process: same store, empty memory — disk hit, and
        // the entry (trace + replayed stats) is identical to the cold one.
        let warm = TraceCache::persistent(&dir).unwrap();
        let (b, hit_b) = warm.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert!(hit_b, "a warm restart must hit on disk");
        assert_eq!(*a.trace, *b.trace);
        assert_eq!(a.params, b.params);
        assert_eq!(a.stats.smt_queries, b.stats.smt_queries);
        assert_eq!(a.stats.solver, b.stats.solver);
        assert_eq!(warm.stats(), CacheStats { hits: 1, misses: 0 });
        let m = warm.store_metrics().unwrap();
        assert_eq!((m.disk_hits, m.disk_misses), (1, 0));

        // Second lookup in the warm process stays in memory.
        let (_, hit_c) = warm.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert!(hit_c);
        assert_eq!(warm.store_metrics().unwrap().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entry_recomputes_and_heals() {
        let dir = std::env::temp_dir().join(format!("islaris-pcache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = TraceCache::persistent(&dir).unwrap();
        let cold_entry = cold
            .trace_opcode(&cfg(), &Opcode::Concrete(ADD_SP))
            .unwrap();

        // Truncate the on-disk entry, then restart.
        let key = cache_key(&cfg(), &Opcode::Concrete(ADD_SP));
        let store = TraceStore::open(&dir).unwrap();
        let path = store.path_for(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let warm = TraceCache::persistent(&dir).unwrap();
        let (entry, hit) = warm.lookup(&cfg(), &Opcode::Concrete(ADD_SP)).unwrap();
        assert!(!hit, "a corrupt entry is a sound miss");
        assert_eq!(*entry.trace, *cold_entry.trace, "recompute matches cold");
        let m = warm.store_metrics().unwrap();
        assert_eq!(m.evictions, 1, "the corrupt file was evicted");
        // The recompute re-persisted a good entry.
        let healed = TraceStore::open(&dir).unwrap();
        assert!(healed.load(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_traces_are_not_cached() {
        let cache = TraceCache::new();
        // A symbolic opcode with a symbolic register index cannot trace:
        // an unknown entry function is simulated by an opcode whose
        // assumptions are fine but whose tracing hits the path explosion
        // guard is hard to build cheaply, so instead use an undecodable
        // config: RISC-V model fed an Arm-only opcode still decodes (both
        // models are total), so force an error with a symbolic opcode
        // that leaves the register index symbolic.
        let sym = Opcode::Symbolic {
            expr: Expr::var(Var(0)),
            params: vec![(Var(0), Sort::BitVec(32))],
            assumptions: vec![],
        };
        let r = cache.lookup(&IslaConfig::new(ARM), &sym);
        if r.is_err() {
            assert_eq!(cache.unique_traces(), 0, "errors are not memoised");
            assert_eq!(cache.stats().misses, 1);
        }
    }
}

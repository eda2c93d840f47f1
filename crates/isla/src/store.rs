//! A persistent, content-addressed store for memoised symbolic traces.
//!
//! [`crate::TraceCache`] makes tracing a pure function of *(opcode,
//! architecture, configuration)* — this module gives that function a
//! disk-backed memo so the expensive analysis survives the process. The
//! address of an entry is the same rendered fingerprint the in-memory
//! cache uses ([`crate::cache::config_fingerprint`] ×
//! [`crate::cache::opcode_fingerprint`]); the file name is the FNV-1a
//! hash of that key, and the full key is stored *inside* the entry and
//! compared on load, so a hash collision degrades to a miss, never to a
//! wrong trace.
//!
//! Soundness does not rest on the disk: every entry is sealed with a
//! checksum header ([`islaris_obs::store`]) and re-verified on load —
//! bad magic, truncation, a flipped bit, an unparseable payload, or a
//! key mismatch all count as a **sound miss**: the corrupt file is
//! evicted and the trace recomputed from the ISA model. Even a
//! maliciously consistent entry can only change *performance*, not
//! *verdicts*: downstream proofs re-check everything and certificates
//! are replayed by the independent checker.
//!
//! Writes are atomic (`tmp` + `rename`), so N processes can share one
//! store directory; the worst race is two processes computing the same
//! trace and one overwriting the other's identical entry.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use islaris_itl::{parse_trace, print_trace};
use islaris_obs::json::{obj, Json};
use islaris_obs::store::{
    solver_metrics_from_json, solver_metrics_to_json, u64_json, Decoded, SealedDir,
};
use islaris_obs::StoreMetrics;
use islaris_smt::{Sort, Var};

use crate::cache::CachedTrace;
use crate::driver::IslaStats;

/// Magic line of a sealed trace entry.
pub const TRACE_MAGIC: &str = "islaris-store/v1 trace";

/// A directory of sealed trace entries, one file per cache key.
pub struct TraceStore(SealedDir);

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: &Path) -> io::Result<TraceStore> {
        SealedDir::open(dir, TRACE_MAGIC, "trace").map(TraceStore)
    }

    /// The on-disk file holding `key`'s entry.
    #[must_use]
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.0.path_for(key)
    }

    /// Loads and verifies the entry for `key`. Any defect — missing
    /// file, bad seal, unparseable payload, key mismatch — is a miss;
    /// defective files (except benign key collisions) are evicted.
    pub fn load(&self, key: &str) -> Option<Arc<CachedTrace>> {
        self.0
            .load(key, |j| match j.get("key").and_then(Json::as_str) {
                Some(stored) if stored == key => {
                    entry_from_json(j).map_or(Decoded::Corrupt, |e| Decoded::Entry(Arc::new(e)))
                }
                Some(_) => Decoded::OtherKey,
                None => Decoded::Corrupt,
            })
    }

    /// Seals and atomically writes `entry` under `key`. Write failures
    /// are counted, not propagated.
    pub fn save(&self, key: &str, entry: &CachedTrace) {
        let params = entry
            .params
            .iter()
            .map(|(v, s)| Json::Arr(vec![Json::Num(f64::from(v.0)), Json::Str(s.to_string())]))
            .collect();
        let payload = obj(vec![
            ("key", Json::Str(key.to_string())),
            ("params", Json::Arr(params)),
            ("stats", stats_to_json(&entry.stats)),
            ("trace", Json::Str(print_trace(&entry.trace))),
        ]);
        self.0.save(key, &payload);
    }

    /// Disk-side traffic counters.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        self.0.metrics()
    }
}

fn entry_from_json(j: &Json) -> Option<CachedTrace> {
    let trace = parse_trace(j.get("trace")?.as_str()?).ok()?;
    let mut params = Vec::new();
    for p in j.get("params")?.as_array()? {
        let pair = p.as_array()?;
        let [v, s] = pair else { return None };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let var = Var(v.as_u64()? as u32);
        params.push((var, parse_sort(s.as_str()?)?));
    }
    Some(CachedTrace {
        trace: Arc::new(trace),
        params,
        stats: stats_from_json(j.get("stats")?)?,
    })
}

/// Inverse of `Sort`'s `Display` (`Bool` / `(_ BitVec n)`).
fn parse_sort(s: &str) -> Option<Sort> {
    if s == "Bool" {
        return Some(Sort::Bool);
    }
    let n = s.strip_prefix("(_ BitVec ")?.strip_suffix(')')?;
    Some(Sort::BitVec(n.parse().ok()?))
}

fn stats_to_json(s: &IslaStats) -> Json {
    #[allow(clippy::cast_possible_truncation)]
    let time_ns = s.time.as_nanos() as u64;
    obj(vec![
        ("runs", u64_json(s.runs)),
        ("smt_queries", u64_json(s.smt_queries)),
        ("time_ns", u64_json(time_ns)),
        ("events", u64_json(s.events as u64)),
        ("branches_explored", u64_json(s.branches_explored)),
        ("branches_pruned", u64_json(s.branches_pruned)),
        ("model_steps", u64_json(s.model_steps)),
        ("model_calls", u64_json(s.model_calls)),
        ("solver", solver_metrics_to_json(&s.solver)),
    ])
}

fn stats_from_json(j: &Json) -> Option<IslaStats> {
    let field = |k: &str| j.get(k).and_then(Json::as_u64);
    Some(IslaStats {
        runs: field("runs")?,
        smt_queries: field("smt_queries")?,
        time: Duration::from_nanos(field("time_ns")?),
        events: usize::try_from(field("events")?).ok()?,
        branches_explored: field("branches_explored")?,
        branches_pruned: field("branches_pruned")?,
        model_steps: field("model_steps")?,
        model_calls: field("model_calls")?,
        solver: solver_metrics_from_json(j.get("solver")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{trace_opcode, Opcode};
    use crate::exec::IslaConfig;
    use islaris_models::ARM;
    use std::fs;

    const ADD_SP: u32 = 0x9101_03ff; // add sp, sp, #0x40

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("islaris-tstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample() -> (String, CachedTrace) {
        let cfg = IslaConfig::new(ARM);
        let r = trace_opcode(&cfg, &Opcode::Concrete(ADD_SP)).unwrap();
        (
            "test-key".to_string(),
            CachedTrace {
                trace: Arc::new(r.trace),
                params: r.params,
                stats: r.stats,
            },
        )
    }

    #[test]
    fn save_then_load_round_trips_trace_params_and_stats() {
        let dir = tmp_dir("rt");
        let store = TraceStore::open(&dir).unwrap();
        let (key, entry) = sample();
        store.save(&key, &entry);
        let got = store.load(&key).expect("saved entry loads");
        assert_eq!(*got.trace, *entry.trace);
        assert_eq!(got.params, entry.params);
        assert_eq!(got.stats.runs, entry.stats.runs);
        assert_eq!(got.stats.smt_queries, entry.stats.smt_queries);
        assert_eq!(got.stats.time, entry.stats.time);
        assert_eq!(got.stats.solver, entry.stats.solver);
        let m = store.metrics();
        assert_eq!((m.disk_hits, m.disk_misses, m.evictions), (1, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_evicted_as_a_sound_miss() {
        let dir = tmp_dir("trunc");
        let store = TraceStore::open(&dir).unwrap();
        let (key, entry) = sample();
        store.save(&key, &entry);
        let path = store.path_for(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(&key).is_none(), "truncation must miss");
        assert!(!path.exists(), "corrupt entry must be evicted");
        let m = store.metrics();
        assert_eq!((m.disk_hits, m.evictions), (0, 1));
        // Recompute-and-save heals the store.
        store.save(&key, &entry);
        assert!(store.load(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_entry_is_evicted_as_a_sound_miss() {
        let dir = tmp_dir("flip");
        let store = TraceStore::open(&dir).unwrap();
        let (key, entry) = sample();
        store.save(&key, &entry);
        let path = store.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() * 3 / 4;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_none(), "bit flip must miss");
        assert!(!path.exists(), "corrupt entry must be evicted");
        assert_eq!(store.metrics().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_key_misses_without_evicting_the_resident_entry() {
        let dir = tmp_dir("collide");
        let store = TraceStore::open(&dir).unwrap();
        let (key, entry) = sample();
        store.save(&key, &entry);
        let path = store.path_for(&key);
        // Simulate a colliding key by asking for a different key at the
        // same path: rewrite the file under the other key's name.
        let other = store.path_for("other-key");
        fs::rename(&path, &other).unwrap();
        assert!(store.load("other-key").is_none(), "key mismatch is a miss");
        assert!(other.exists(), "a valid foreign entry is not evicted");
        assert_eq!(store.metrics().evictions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pins the on-disk format: existing `--store` directories stay warm
    /// only while the file name and sealed bytes of an entry are
    /// unchanged.
    #[test]
    fn sealed_bytes_and_file_name_are_pinned() {
        let dir = tmp_dir("pin");
        let store = TraceStore::open(&dir).unwrap();
        let entry = CachedTrace {
            trace: Arc::new(
                parse_trace("(trace (declare-const v0 (_ BitVec 64)) (write-reg |R0| nil v0))")
                    .unwrap(),
            ),
            params: vec![(Var(0), Sort::BitVec(64))],
            stats: IslaStats {
                runs: 1,
                smt_queries: 2,
                time: Duration::from_nanos(3),
                events: 4,
                branches_explored: 5,
                branches_pruned: 6,
                model_steps: 7,
                model_calls: 8,
                solver: islaris_smt::SolverMetrics {
                    queries: 9,
                    ..islaris_smt::SolverMetrics::default()
                },
            },
        };
        store.save("pinned-key", &entry);
        let path = store.path_for("pinned-key");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "6228bafaee84a69d.trace"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            concat!(
                "islaris-store/v1 trace\n",
                "sum 50420d55d2de6616\n",
                "len 466\n",
                r#"{"key":"pinned-key","params":[[0,"(_ BitVec 64)"]],"stats":{"runs":1,"#,
                r#""smt_queries":2,"time_ns":3,"events":4,"branches_explored":5,"#,
                r#""branches_pruned":6,"model_steps":7,"model_calls":8,"#,
                r#""solver":{"queries":9,"sat":0,"unsat":0,"unknown":0,"model_verifies":0,"#,
                r#""cnf_vars":0,"cnf_clauses":0,"propagations":0,"decisions":0,"#,
                r#""conflicts":0,"restarts":0,"reduced":0,"minimized":0,"folded":0,"#,
                r#""trimmed":0}},"#,
                r#""trace":"(trace (declare-const v0 (_ BitVec 64)) (write-reg |R0| nil v0))"}"#,
            )
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sort_rendering_round_trips() {
        for s in [Sort::Bool, Sort::BitVec(1), Sort::BitVec(64)] {
            assert_eq!(parse_sort(&s.to_string()), Some(s));
        }
        assert_eq!(parse_sort("(_ BitVec x)"), None);
        assert_eq!(parse_sort("Int"), None);
    }
}

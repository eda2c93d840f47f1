//! A persistent, content-addressed store for memoised solver queries.
//!
//! The disk-side sibling of [`crate::QueryCache`]: each entry persists
//! one from-scratch query result — verdict, model (for `Sat`), and the
//! effort deltas a hit replays — addressed by the *full* cache identity
//! (rendered query text plus every verdict-relevant configuration knob:
//! `check_proofs`, `max_conflicts`, and the SAT feature flags). The file
//! name is the FNV-1a hash of that rendered identity; the identity is
//! also stored inside the entry and compared on load, so collisions
//! degrade to misses, never to wrong answers.
//!
//! The soundness story is layered:
//!
//! 1. the seal ([`islaris_obs::store`]) rejects truncated or bit-flipped
//!    files — they are evicted and recomputed (a **sound miss**);
//! 2. the stored key must equal the requested key, so a hash collision
//!    or a swapped file cannot alias a different query;
//! 3. a well-formed, wrong `Sat` entry cannot flip a verdict: `Sat`
//!    models are re-verified by evaluation on every cache hit (disk or
//!    memory) by `QueryCache::hit_is_trusted`, and a failing model
//!    forces a recompute that overwrites the bad entry. A well-formed,
//!    wrong `Unsat` entry *is* trusted — it carries no evidence to
//!    re-check — so the store directory is inside the trust base.
//!
//! Writes are atomic (`tmp` + `rename`), so N processes can share one
//! store directory.

use std::io;
use std::path::{Path, PathBuf};

use islaris_bv::Bv;
use islaris_obs::json::{obj, Json};
use islaris_obs::store::{
    query_stats_from_json, query_stats_to_json, solver_metrics_from_json, solver_metrics_to_json,
    u64_json, Decoded, SealedDir,
};
use islaris_obs::StoreMetrics;

use crate::expr::{Value, Var};
use crate::sat::SatConfig;
use crate::session::{CacheEntry, CacheKey};
use crate::solver::{Model, SmtResult};

/// Magic line of a sealed query entry.
pub const QUERY_MAGIC: &str = "islaris-store/v1 query";

/// A directory of sealed query entries, one file per cache identity.
pub struct QueryStore(SealedDir);

/// The rendered on-disk identity of a query (every field of the
/// in-memory `CacheKey`, in a stable textual form).
pub(crate) fn key_render(key: &CacheKey) -> String {
    format!(
        "proofs={};conflicts={};sat={:?};text={}",
        key.check_proofs, key.max_conflicts, key.sat, key.text
    )
}

impl QueryStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: &Path) -> io::Result<QueryStore> {
        SealedDir::open(dir, QUERY_MAGIC, "query").map(QueryStore)
    }

    /// The on-disk file holding the entry for a rendered identity.
    #[must_use]
    pub fn path_for_render(&self, render: &str) -> PathBuf {
        self.0.path_for(render)
    }

    pub(crate) fn load(&self, key: &CacheKey) -> Option<CacheEntry> {
        self.0.load(&key_render(key), |j| match key_from_json(j) {
            None => Decoded::Corrupt,
            Some(stored) if stored != *key => Decoded::OtherKey,
            Some(_) => entry_from_json(j).map_or(Decoded::Corrupt, Decoded::Entry),
        })
    }

    /// Seals and atomically writes `entry`. Failures are counted, not
    /// propagated: persistence must never fail a query.
    pub(crate) fn save(&self, key: &CacheKey, entry: &CacheEntry) {
        let payload = obj(vec![
            (
                "key",
                obj(vec![
                    ("check_proofs", Json::Bool(key.check_proofs)),
                    ("max_conflicts", u64_json(key.max_conflicts)),
                    ("sat", sat_to_json(&key.sat)),
                    ("text", Json::Str(key.text.clone())),
                ]),
            ),
            ("result", result_to_json(&entry.result)),
            ("solver_delta", solver_metrics_to_json(&entry.solver_delta)),
            ("query_delta", query_stats_to_json(&entry.query_delta)),
        ]);
        self.0.save(&key_render(key), &payload);
    }

    /// Disk-side traffic counters.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        self.0.metrics()
    }
}

fn sat_to_json(s: &SatConfig) -> Json {
    obj(vec![
        ("vsids", Json::Bool(s.vsids)),
        ("phase_saving", Json::Bool(s.phase_saving)),
        ("luby_restarts", Json::Bool(s.luby_restarts)),
        ("db_reduction", Json::Bool(s.db_reduction)),
        ("minimize", Json::Bool(s.minimize)),
        ("fold", Json::Bool(s.fold)),
    ])
}

fn sat_from_json(j: &Json) -> Option<SatConfig> {
    let field = |k: &str| j.get(k).and_then(Json::as_bool);
    Some(SatConfig {
        vsids: field("vsids")?,
        phase_saving: field("phase_saving")?,
        luby_restarts: field("luby_restarts")?,
        db_reduction: field("db_reduction")?,
        minimize: field("minimize")?,
        fold: field("fold")?,
    })
}

fn result_to_json(r: &SmtResult) -> Json {
    match r {
        SmtResult::Unsat => obj(vec![("kind", Json::Str("unsat".into()))]),
        SmtResult::Unknown(reason) => obj(vec![
            ("kind", Json::Str("unknown".into())),
            ("reason", Json::Str(reason.clone())),
        ]),
        SmtResult::Sat(model) => {
            let pairs = model
                .iter()
                .map(|(v, val)| {
                    Json::Arr(vec![Json::Num(f64::from(v.0)), Json::Str(val.to_string())])
                })
                .collect();
            obj(vec![
                ("kind", Json::Str("sat".into())),
                ("model", Json::Arr(pairs)),
            ])
        }
    }
}

/// Inverse of `Value`'s `Display`: `true`/`false`, or a `#x…`/`#b…`
/// bitvector literal (whose digit count pins the width).
fn parse_value(s: &str) -> Option<Value> {
    match s {
        "true" => Some(Value::Bool(true)),
        "false" => Some(Value::Bool(false)),
        _ => s.parse::<Bv>().ok().map(Value::Bits),
    }
}

fn result_from_json(j: &Json) -> Option<SmtResult> {
    match j.get("kind")?.as_str()? {
        "unsat" => Some(SmtResult::Unsat),
        "unknown" => Some(SmtResult::Unknown(j.get("reason")?.as_str()?.to_string())),
        "sat" => {
            let mut pairs = Vec::new();
            for p in j.get("model")?.as_array()? {
                let [v, val] = p.as_array()? else { return None };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let var = Var(v.as_u64()? as u32);
                pairs.push((var, parse_value(val.as_str()?)?));
            }
            Some(SmtResult::Sat(Model::from_pairs(pairs)))
        }
        _ => None,
    }
}

fn key_from_json(j: &Json) -> Option<CacheKey> {
    let k = j.get("key")?;
    Some(CacheKey {
        check_proofs: k.get("check_proofs")?.as_bool()?,
        max_conflicts: k.get("max_conflicts")?.as_u64()?,
        sat: sat_from_json(k.get("sat")?)?,
        text: k.get("text")?.as_str()?.to_string(),
    })
}

fn entry_from_json(j: &Json) -> Option<CacheEntry> {
    Some(CacheEntry {
        result: result_from_json(j.get("result")?)?,
        solver_delta: solver_metrics_from_json(j.get("solver_delta")?)?,
        query_delta: query_stats_from_json(j.get("query_delta")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_obs::{QueryStats, SolverMetrics};
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("islaris-qstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_key(text: &str) -> CacheKey {
        CacheKey {
            check_proofs: true,
            max_conflicts: 10_000,
            sat: SatConfig::default(),
            text: text.to_string(),
        }
    }

    fn sample_entry(result: SmtResult) -> CacheEntry {
        CacheEntry {
            result,
            solver_delta: SolverMetrics {
                queries: 1,
                unsat: 1,
                cnf_clauses: 17,
                propagations: 23,
                ..SolverMetrics::default()
            },
            query_delta: QueryStats {
                count: 1,
                cnf_clauses: 17,
                propagations: 23,
                ..QueryStats::default()
            },
        }
    }

    fn assert_entry_eq(a: &CacheEntry, b: &CacheEntry) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.solver_delta, b.solver_delta);
        assert_eq!(a.query_delta, b.query_delta);
    }

    #[test]
    fn every_verdict_kind_round_trips() {
        let dir = tmp_dir("rt");
        let store = QueryStore::open(&dir).unwrap();
        let model = Model::from_pairs([
            (Var(0), Value::Bits(Bv::new(64, 42))),
            (Var(3), Value::Bool(true)),
            (Var(7), Value::Bits(Bv::new(1, 1))),
        ]);
        let cases = [
            SmtResult::Unsat,
            SmtResult::Unknown("conflict budget".to_string()),
            SmtResult::Sat(model),
        ];
        for (i, result) in cases.into_iter().enumerate() {
            let key = sample_key(&format!("(assert q{i})"));
            let entry = sample_entry(result);
            store.save(&key, &entry);
            let got = store.load(&key).expect("saved entry loads");
            assert_entry_eq(&got, &entry);
        }
        let m = store.metrics();
        assert_eq!((m.disk_hits, m.disk_misses, m.evictions), (3, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_entries_are_evicted() {
        for (tag, corrupt) in [
            (
                "trunc",
                (|b: &mut Vec<u8>| b.truncate(b.len() / 2)) as fn(&mut Vec<u8>),
            ),
            ("flip", |b: &mut Vec<u8>| {
                let mid = b.len() * 2 / 3;
                b[mid] ^= 0x08;
            }),
        ] {
            let dir = tmp_dir(tag);
            let store = QueryStore::open(&dir).unwrap();
            let key = sample_key("(assert false)");
            let entry = sample_entry(SmtResult::Unsat);
            store.save(&key, &entry);
            let path = store.path_for_render(&key_render(&key));
            let mut bytes = fs::read(&path).unwrap();
            corrupt(&mut bytes);
            fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_none(), "{tag}: corrupt must miss");
            assert!(!path.exists(), "{tag}: corrupt entry must be evicted");
            assert_eq!(store.metrics().evictions, 1, "{tag}");
            // Recompute-and-save heals.
            store.save(&key, &entry);
            assert_entry_eq(&store.load(&key).unwrap(), &entry);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn foreign_valid_entry_is_a_miss_without_eviction() {
        let dir = tmp_dir("foreign");
        let store = QueryStore::open(&dir).unwrap();
        let key = sample_key("(assert a)");
        store.save(&key, &sample_entry(SmtResult::Unsat));
        let other = sample_key("(assert b)");
        // Plant key-a's valid entry at key-b's path (simulated collision).
        fs::rename(
            store.path_for_render(&key_render(&key)),
            store.path_for_render(&key_render(&other)),
        )
        .unwrap();
        assert!(store.load(&other).is_none(), "key mismatch is a miss");
        assert!(
            store.path_for_render(&key_render(&other)).exists(),
            "a valid foreign entry is not evicted"
        );
        assert_eq!(store.metrics().evictions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pins the on-disk format: existing `--store` directories stay warm
    /// only while the file name and sealed bytes of an entry are
    /// unchanged.
    #[test]
    fn sealed_bytes_and_file_name_are_pinned() {
        let dir = tmp_dir("pin");
        let store = QueryStore::open(&dir).unwrap();
        let key = sample_key("(bvult v0 #x0000000000000005)");
        let model = Model::from_pairs([(Var(0), Value::Bits(Bv::new(64, 4)))]);
        store.save(&key, &sample_entry(SmtResult::Sat(model)));
        let path = store.path_for_render(&key_render(&key));
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "430a83f23c8ccd8d.query"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            concat!(
                "islaris-store/v1 query\n",
                "sum 168d9778ca07f123\n",
                "len 573\n",
                r##"{"key":{"check_proofs":true,"max_conflicts":10000,"sat":{"vsids":true,"##,
                r##""phase_saving":true,"luby_restarts":true,"db_reduction":true,"##,
                r##""minimize":true,"fold":true},"text":"(bvult v0 #x0000000000000005)"},"##,
                r##""result":{"kind":"sat","model":[[0,"#x0000000000000004"]]},"##,
                r##""solver_delta":{"queries":1,"sat":0,"unsat":1,"unknown":0,"##,
                r##""model_verifies":0,"cnf_vars":0,"cnf_clauses":17,"propagations":23,"##,
                r##""decisions":0,"conflicts":0,"restarts":0,"reduced":0,"minimized":0,"##,
                r##""folded":0,"trimmed":0},"query_delta":{"count":1,"cnf_clauses":17,"##,
                r##""propagations":23,"decisions":0,"conflicts":0,"hits":0}}"##,
            )
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_configurations_have_distinct_addresses() {
        let a = sample_key("(assert x)");
        let mut b = a.clone();
        b.check_proofs = false;
        let mut c = a.clone();
        c.sat = c.sat.without("vsids").unwrap();
        assert_ne!(key_render(&a), key_render(&b));
        assert_ne!(key_render(&a), key_render(&c));
    }
}

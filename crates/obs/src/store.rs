//! Checksummed, atomically-written on-disk entries for the persistent
//! caches.
//!
//! Both persistent stores (symbolic traces in `islaris-isla`, SMT query
//! results in `islaris-smt`) share one sealing discipline so that
//! *verify-on-load* is a single, auditable policy:
//!
//! ```text
//! <magic line>            e.g. "islaris-store/v1 trace"
//! sum <16 hex digits>     FNV-1a over the payload bytes
//! len <decimal>           payload length in bytes
//! <payload>               one self-describing document
//! ```
//!
//! `open` re-derives the checksum and length before a caller ever
//! parses the payload; any mismatch — wrong magic, truncation, a flipped
//! bit — is a `StoreError`, which callers treat as a **sound miss**:
//! the entry is evicted and the answer recomputed from scratch. Nothing
//! read from disk is ever trusted without passing this gate *and* the
//! caller's own semantic checks (key equality, payload parse).
//!
//! [`SealedDir`] wraps the policy for a whole directory of entries of
//! one kind (file naming, eviction, traffic counters), so a store crate
//! supplies only its payload codec.
//!
//! Writes go through `write_atomic`: the sealed bytes land in a
//! process-unique `*.tmp` sibling first and are `rename`d into place, so
//! concurrent processes sharing a store directory never observe a
//! half-written entry — they see the old entry or the new one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::{obj, parse_json, Json};
use crate::{fnv1a, QueryStats, SolverMetrics, StoreMetrics};

/// Why an on-disk entry was rejected. Every variant is handled the same
/// way by callers (evict + recompute); the distinctions exist for tests
/// and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StoreError {
    /// The first line was not the expected magic string.
    BadMagic,
    /// The `sum`/`len` header lines were missing or unparseable.
    BadHeader,
    /// The payload hashed to a different value than the header claims.
    BadChecksum,
    /// The payload was shorter or longer than the header claims
    /// (truncated or garbage-appended entry).
    BadLength,
}

/// Seals `payload` under `magic` into the bytes written to disk.
#[must_use]
fn seal(magic: &str, payload: &str) -> String {
    format!(
        "{magic}\nsum {:016x}\nlen {}\n{payload}",
        fnv1a(payload.as_bytes()),
        payload.len()
    )
}

/// Verifies a sealed entry and returns its payload.
///
/// # Errors
///
/// `StoreError` when the magic, header, checksum, or length do not
/// check out. Callers must treat any error as a sound cache miss.
fn open(magic: &str, data: &str) -> Result<String, StoreError> {
    let rest = data.strip_prefix(magic).ok_or(StoreError::BadMagic)?;
    let rest = rest.strip_prefix('\n').ok_or(StoreError::BadMagic)?;
    let (sum_line, rest) = rest.split_once('\n').ok_or(StoreError::BadHeader)?;
    let (len_line, payload) = rest.split_once('\n').ok_or(StoreError::BadHeader)?;
    let sum = sum_line
        .strip_prefix("sum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(StoreError::BadHeader)?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|d| d.parse().ok())
        .ok_or(StoreError::BadHeader)?;
    if payload.len() != len {
        return Err(StoreError::BadLength);
    }
    if fnv1a(payload.as_bytes()) != sum {
        return Err(StoreError::BadChecksum);
    }
    Ok(payload.to_string())
}

/// Writes `bytes` to `path` atomically: a process-unique temporary
/// sibling is written, flushed, and renamed into place. Readers of a
/// shared store directory see either the previous entry or this one,
/// never a prefix.
///
/// # Errors
///
/// Any underlying I/O error; the temporary file is removed on failure.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "store path has no file name")
    })?;
    let tmp = path.with_file_name(format!("{file_name}.tmp-{}", std::process::id()));
    let write = fs::write(&tmp, bytes);
    match write.and_then(|()| fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// What a payload codec made of an entry that passed the seal.
pub enum Decoded<T> {
    /// The entry for the requested key.
    Entry(T),
    /// A valid entry for a different key whose rendering hashes to the
    /// same file name: a miss, but not corrupt, so it is kept.
    OtherKey,
    /// Unparseable or incomplete: a miss, and the file is evicted.
    Corrupt,
}

/// A directory of sealed JSON entries of one kind: the file for a key is
/// `{fnv1a(key):016x}.{ext}`, every entry is sealed under `magic`, and
/// disk traffic is counted. Persistent stores keep only their payload
/// codec and delegate the rest here, so verify-on-load is one policy.
pub struct SealedDir {
    dir: PathBuf,
    magic: &'static str,
    ext: &'static str,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    evictions: AtomicU64,
    write_errors: AtomicU64,
}

impl SealedDir {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: &Path, magic: &'static str, ext: &'static str) -> io::Result<SealedDir> {
        fs::create_dir_all(dir)?;
        Ok(SealedDir {
            dir: dir.to_path_buf(),
            magic,
            ext,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The on-disk file holding the entry for the rendered key `key`.
    #[must_use]
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{}", fnv1a(key.as_bytes()), self.ext))
    }

    /// Loads and verifies the entry for `key`. Any defect — missing file,
    /// bad seal, unparseable payload, or a `decode` verdict other than
    /// [`Decoded::Entry`] — is a miss; defective files (except benign
    /// key collisions) are evicted.
    pub fn load<T>(&self, key: &str, decode: impl FnOnce(&Json) -> Decoded<T>) -> Option<T> {
        let path = self.path_for(key);
        let Ok(data) = fs::read_to_string(&path) else {
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let decoded = match open(self.magic, &data).map(|payload| parse_json(&payload)) {
            Ok(Ok(j)) => decode(&j),
            _ => Decoded::Corrupt,
        };
        match decoded {
            Decoded::Entry(entry) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Decoded::OtherKey => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Decoded::Corrupt => {
                let _ = fs::remove_file(&path);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Seals and atomically writes `payload` under `key`. Write failures
    /// are counted, not propagated: persistence is an optimisation and
    /// must never fail a verification.
    pub fn save(&self, key: &str, payload: &Json) {
        let sealed = seal(self.magic, &payload.render());
        if write_atomic(&self.path_for(key), sealed.as_bytes()).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Disk-side traffic counters.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// A `u64` counter as a JSON number (exact below 2^53, which every
/// metric in practice is).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn u64_json(n: u64) -> Json {
    Json::Num(n as f64)
}

/// [`SolverMetrics`] as a JSON object. Decoding reads by field name, so
/// appending fields keeps old readers working; entries missing a field
/// decode as corrupt and are recomputed.
#[must_use]
pub fn solver_metrics_to_json(m: &SolverMetrics) -> Json {
    obj(vec![
        ("queries", u64_json(m.queries)),
        ("sat", u64_json(m.sat)),
        ("unsat", u64_json(m.unsat)),
        ("unknown", u64_json(m.unknown)),
        ("model_verifies", u64_json(m.model_verifies)),
        ("cnf_vars", u64_json(m.cnf_vars)),
        ("cnf_clauses", u64_json(m.cnf_clauses)),
        ("propagations", u64_json(m.propagations)),
        ("decisions", u64_json(m.decisions)),
        ("conflicts", u64_json(m.conflicts)),
        ("restarts", u64_json(m.restarts)),
        ("reduced", u64_json(m.reduced)),
        ("minimized", u64_json(m.minimized)),
        ("folded", u64_json(m.folded)),
        ("trimmed", u64_json(m.trimmed)),
    ])
}

/// Inverse of [`solver_metrics_to_json`]; `None` on any missing or
/// mistyped field.
#[must_use]
pub fn solver_metrics_from_json(j: &Json) -> Option<SolverMetrics> {
    let field = |k: &str| j.get(k).and_then(Json::as_u64);
    Some(SolverMetrics {
        queries: field("queries")?,
        sat: field("sat")?,
        unsat: field("unsat")?,
        unknown: field("unknown")?,
        model_verifies: field("model_verifies")?,
        cnf_vars: field("cnf_vars")?,
        cnf_clauses: field("cnf_clauses")?,
        propagations: field("propagations")?,
        decisions: field("decisions")?,
        conflicts: field("conflicts")?,
        restarts: field("restarts")?,
        reduced: field("reduced")?,
        minimized: field("minimized")?,
        folded: field("folded")?,
        trimmed: field("trimmed")?,
    })
}

/// [`QueryStats`] as a JSON object (same schema discipline as
/// [`solver_metrics_to_json`]).
#[must_use]
pub fn query_stats_to_json(q: &QueryStats) -> Json {
    obj(vec![
        ("count", u64_json(q.count)),
        ("cnf_clauses", u64_json(q.cnf_clauses)),
        ("propagations", u64_json(q.propagations)),
        ("decisions", u64_json(q.decisions)),
        ("conflicts", u64_json(q.conflicts)),
        ("hits", u64_json(q.hits)),
    ])
}

/// Inverse of [`query_stats_to_json`].
#[must_use]
pub fn query_stats_from_json(j: &Json) -> Option<QueryStats> {
    let field = |k: &str| j.get(k).and_then(Json::as_u64);
    Some(QueryStats {
        count: field("count")?,
        cnf_clauses: field("cnf_clauses")?,
        propagations: field("propagations")?,
        decisions: field("decisions")?,
        conflicts: field("conflicts")?,
        hits: field("hits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &str = "islaris-store/v1 test";

    #[test]
    fn seal_open_round_trips() {
        let sealed = seal(MAGIC, "{\"answer\":42}");
        assert_eq!(open(MAGIC, &sealed).unwrap(), "{\"answer\":42}");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let sealed = seal(MAGIC, "x");
        assert_eq!(
            open("islaris-store/v1 other", &sealed),
            Err(StoreError::BadMagic)
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let sealed = seal(MAGIC, "a longer payload with some body to it");
        let cut = &sealed[..sealed.len() - 5];
        assert_eq!(open(MAGIC, cut), Err(StoreError::BadLength));
    }

    #[test]
    fn bit_flip_is_rejected() {
        let sealed = seal(MAGIC, "a longer payload with some body to it");
        let mut bytes = sealed.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // keeps the length, breaks the sum
        let flipped = String::from_utf8(bytes).unwrap();
        assert_eq!(open(MAGIC, &flipped), Err(StoreError::BadChecksum));
    }

    #[test]
    fn missing_header_lines_are_rejected() {
        assert_eq!(open(MAGIC, MAGIC), Err(StoreError::BadMagic));
        assert_eq!(
            open(MAGIC, &format!("{MAGIC}\nsum zz\nlen 1\nx")),
            Err(StoreError::BadHeader)
        );
        assert_eq!(
            open(MAGIC, &format!("{MAGIC}\nlen 1\nsum 0\nx")),
            Err(StoreError::BadHeader)
        );
    }

    #[test]
    fn metric_codecs_round_trip() {
        let m = SolverMetrics {
            queries: 1,
            sat: 2,
            unsat: 3,
            unknown: 4,
            model_verifies: 5,
            cnf_vars: 6,
            cnf_clauses: 7,
            propagations: 8,
            decisions: 9,
            conflicts: 10,
            restarts: 11,
            reduced: 12,
            minimized: 13,
            folded: 14,
            trimmed: 15,
        };
        assert_eq!(
            solver_metrics_from_json(&solver_metrics_to_json(&m)),
            Some(m)
        );
        let q = QueryStats {
            count: 21,
            cnf_clauses: 22,
            propagations: 23,
            decisions: 24,
            conflicts: 25,
            hits: 26,
        };
        assert_eq!(query_stats_from_json(&query_stats_to_json(&q)), Some(q));
        assert_eq!(solver_metrics_from_json(&Json::Null), None);
        assert_eq!(
            query_stats_from_json(&obj(vec![("count", u64_json(1))])),
            None
        );
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("islaris-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

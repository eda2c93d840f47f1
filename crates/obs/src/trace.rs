//! Per-request tracing for the verification service: a bounded ring
//! journal of the last N handled jobs, each holding the request's
//! wall-clock span records (parse, queue-wait, exec) and — for case
//! jobs — the deterministic per-stage counter profile.
//!
//! The export format is the same Chrome trace-event JSON the `--profile`
//! mode emits ([`crate::Recorder::chrome_trace`]): `GET /trace/<id>`
//! answers one request's spans as complete `X` events, with the trace
//! id, job label, response status, and profile carried in `otherData`
//! (the documented metadata slot of the "JSON Object Format"). Requests
//! that never become pool jobs — malformed framing, validation errors —
//! **never allocate a journal slot**; the journal records work, not
//! noise, and the fault suite pins that.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{obj, Json};
use crate::{chrome_trace_events, SpanRecord};

/// One journaled request: identity, outcome, and its span records.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id (sequence-FNV; rendered as 16 lowercase hex digits).
    pub trace_id: u64,
    /// Request sequence number (1-based, assignment order).
    pub seq: u64,
    /// Job label, e.g. `case:hvc` or `trace:arm:0x910043ff`.
    pub label: String,
    /// Response status the job produced.
    pub status: u16,
    /// Wall-clock spans, timestamped relative to the request's own epoch.
    pub spans: Vec<SpanRecord>,
    /// The deterministic per-stage counter profile (case jobs only).
    pub profile: Option<Json>,
}

/// A bounded ring of the last `cap` [`TraceRecord`]s. Pushing beyond
/// capacity evicts the oldest record and counts the eviction.
#[derive(Debug)]
pub struct TraceJournal {
    cap: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
    evicted: AtomicU64,
}

impl TraceJournal {
    /// A journal holding at most `cap` records (`cap == 0` keeps one).
    #[must_use]
    pub fn new(cap: usize) -> TraceJournal {
        let cap = cap.max(1);
        TraceJournal {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            evicted: AtomicU64::new(0),
        }
    }

    /// The bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a record, evicting the oldest at capacity.
    pub fn push(&self, rec: TraceRecord) {
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() == self.cap {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    /// Looks up a record by trace id (newest wins on the astronomically
    /// unlikely collision).
    #[must_use]
    pub fn get(&self, trace_id: u64) -> Option<TraceRecord> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .rev()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// Records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when no record has been journaled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring bound so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// An index of the journal, oldest first: one summary object per
    /// record (`trace`, `seq`, `label`, `status`) — the body of
    /// `GET /trace`.
    #[must_use]
    pub fn index_json(&self) -> Json {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entries: Vec<Json> = ring
            .iter()
            .map(|r| {
                obj(vec![
                    ("trace", Json::Str(format!("{:016x}", r.trace_id))),
                    ("seq", Json::Num(r.seq as f64)),
                    ("label", Json::Str(r.label.clone())),
                    ("status", Json::Num(f64::from(r.status))),
                ])
            })
            .collect();
        obj(vec![
            ("capacity", Json::Num(self.cap as f64)),
            ("evicted", Json::Num(self.evicted() as f64)),
            ("entries", Json::Arr(entries)),
        ])
    }
}

/// Renders one journaled request as Chrome trace-event JSON ("JSON
/// Object Format"): the span records as complete `X` events (the same
/// shape as [`crate::Recorder::chrome_trace`]) plus `otherData` with
/// the trace identity and, when present, the per-stage profile.
#[must_use]
pub fn chrome_trace_for(rec: &TraceRecord) -> String {
    let mut other = vec![
        ("trace_id", Json::Str(format!("{:016x}", rec.trace_id))),
        ("seq", Json::Num(rec.seq as f64)),
        ("label", Json::Str(rec.label.clone())),
        ("status", Json::Num(f64::from(rec.status))),
    ];
    if let Some(p) = &rec.profile {
        other.push(("profile", p.clone()));
    }
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("otherData", obj(other)),
        ("traceEvents", chrome_trace_events(&rec.spans)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    fn rec(id: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            trace_id: id,
            seq,
            label: format!("case:c{seq}"),
            status: 200,
            spans: vec![SpanRecord {
                name: "exec".into(),
                cat: "pool",
                ts_us: 3,
                dur_us: 14,
                tid: 1,
            }],
            profile: Some(obj(vec![("sail", Json::Num(2.0))])),
        }
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts() {
        let j = TraceJournal::new(2);
        j.push(rec(1, 1));
        j.push(rec(2, 2));
        j.push(rec(3, 3));
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 1);
        assert!(j.get(1).is_none(), "oldest evicted");
        assert_eq!(j.get(3).unwrap().seq, 3);
        let idx = j.index_json().render();
        assert!(idx.contains("\"evicted\":1"), "{idx}");
        assert!(idx.contains("0000000000000002"), "{idx}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_identity_and_profile() {
        let r = rec(0xdead_beef, 7);
        let out = chrome_trace_for(&r);
        parse_json(&out).expect("valid chrome trace");
        assert!(out.contains("\"trace_id\":\"00000000deadbeef\""), "{out}");
        assert!(out.contains("\"ph\":\"X\""), "{out}");
        assert!(out.contains("\"profile\":{\"sail\":2}"), "{out}");
        assert!(out.contains("\"label\":\"case:c7\""), "{out}");
    }
}

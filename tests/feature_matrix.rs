//! Per-feature differential matrix over the Fig. 12 cases: every
//! `SatConfig` feature flag is switched off individually and the full
//! case registry re-verified — both halves of each case (trace
//! generation and proof automation) run under the altered configuration.
//! Verdict rows and rendered certificates must be byte-identical to the
//! all-features-on run; only effort counters and wall time may differ.
//! This is what makes the solver heuristics safe to ship: a heuristic
//! can only change how fast a verdict is reached, never which verdict
//! (or which certificate) is produced.

use islaris::logic::{render_certificate, Report};
use islaris_cases::{run_case, CaseCtx, RunOpts, ALL_CASES};
use islaris_smt::SatConfig;

/// Renders every block certificate of a report (the golden-test format,
/// minus comments: block order is the comparison key already).
fn render_certs(report: &Report) -> String {
    let mut out = String::new();
    for b in &report.blocks {
        out.push_str(&format!("; block {:#x} spec {}\n", b.addr, b.spec));
        out.push_str(&render_certificate(&b.cert));
        out.push('\n');
    }
    out
}

/// One full-registry run under `sat`: per-case `(slug, stable verdict
/// row, rendered certificates)`.
fn snapshot(sat: SatConfig) -> Vec<(&'static str, String, String)> {
    ALL_CASES
        .iter()
        .map(|def| {
            let art = (def.build)(&CaseCtx::default().with_sat(sat));
            let (outcome, report) = run_case(&art, &RunOpts::default()).expect("no deadline set");
            (def.slug, outcome.stable_row(), render_certs(&report))
        })
        .collect()
}

#[test]
fn every_feature_flag_preserves_verdicts_and_certificates() {
    let baseline = snapshot(SatConfig::default());
    for feature in SatConfig::FEATURES {
        let cfg = SatConfig::default()
            .without(feature)
            .expect("FEATURES entries are valid");
        let alt = snapshot(cfg);
        assert_eq!(baseline.len(), alt.len());
        for ((slug, base_row, base_certs), (_, alt_row, alt_certs)) in baseline.iter().zip(&alt) {
            assert_eq!(
                base_row, alt_row,
                "case `{slug}`: verdict row changed with `{feature}` off"
            );
            assert_eq!(
                base_certs, alt_certs,
                "case `{slug}`: certificates changed with `{feature}` off"
            );
        }
    }
}

/// The reference configuration (everything off) must also reproduce the
/// default run's verdicts and certificates — the differential fuzzer's
/// baseline is itself pinned to the shipped behaviour.
#[test]
fn all_features_off_preserves_verdicts_and_certificates() {
    let baseline = snapshot(SatConfig::default());
    let reference = snapshot(SatConfig::all_off());
    for ((slug, base_row, base_certs), (_, alt_row, alt_certs)) in baseline.iter().zip(&reference) {
        assert_eq!(
            base_row, alt_row,
            "case `{slug}`: verdict row changed with all features off"
        );
        assert_eq!(
            base_certs, alt_certs,
            "case `{slug}`: certificates changed with all features off"
        );
    }
}

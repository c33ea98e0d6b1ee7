//! Replays every committed counterexample under `regressions/` through
//! the oracle and checks it still produces the violation named in its
//! `# expect:` header (`clean` for positive controls).
//!
//! The corpus is how explorer-found bugs stay fixed: when the explorer
//! minimizes a failing schedule, its trace text goes into a `.trace`
//! file, and from then on every CI run re-verifies that the oracle still
//! rejects that execution. See `regressions/README.md` for the format.

use causal_core::check::Violation;
use causal_verify::{check_trace, OracleConfig, OracleViolation, Trace};
use std::path::PathBuf;

fn regressions_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../regressions")
}

/// The stable kind name for a violation, matched against `# expect:`.
fn kind(v: &OracleViolation) -> &'static str {
    match v {
        OracleViolation::Core(Violation::DependencyAfterMessage { .. }) => {
            "dependency-after-message"
        }
        OracleViolation::Core(Violation::DifferentMessageSets { .. }) => "different-message-sets",
        OracleViolation::Core(Violation::StablePointMismatch { .. }) => "stable-point-mismatch",
        OracleViolation::Core(Violation::ActivityContentMismatch { .. }) => {
            "activity-content-mismatch"
        }
        OracleViolation::Core(Violation::CausalInversion { .. }) => "causal-inversion",
        OracleViolation::DuplicateDelivery { .. } => "duplicate-delivery",
        OracleViolation::UndeliveredMessage { .. } => "undelivered-message",
        OracleViolation::PotentialCausalityInversion { .. } => "potential-causality-inversion",
        OracleViolation::StableSequenceMismatch { .. } => "stable-sequence-mismatch",
        OracleViolation::SnapshotMismatch { .. } => "snapshot-mismatch",
        OracleViolation::ViewMismatch { .. } => "view-mismatch",
    }
}

/// Directives parsed from a regression file's comment header.
struct Directives {
    expect: String,
    quiescent: bool,
}

fn directives(text: &str, name: &str) -> Directives {
    let mut expect = None;
    let mut quiescent = true;
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix('#') else {
            continue;
        };
        let rest = rest.trim();
        if let Some(v) = rest.strip_prefix("expect:") {
            expect = Some(v.trim().to_string());
        } else if let Some(v) = rest.strip_prefix("quiescent:") {
            quiescent = match v.trim() {
                "false" => false,
                "true" => true,
                other => panic!("{name}: bad `# quiescent:` value `{other}`"),
            };
        }
    }
    Directives {
        expect: expect.unwrap_or_else(|| panic!("{name}: missing `# expect:` header")),
        quiescent,
    }
}

#[test]
fn every_regression_trace_still_resolves_as_expected() {
    let dir = regressions_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "trace")).then_some(path)
        })
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "regression corpus went missing: only {} .trace files in {}",
        paths.len(),
        dir.display()
    );

    for path in paths {
        let name = path
            .file_name()
            .expect("file has a name")
            .to_string_lossy()
            .into_owned();
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let d = directives(&text, &name);
        let trace = Trace::parse(&text).unwrap_or_else(|e| panic!("{name}: malformed trace: {e}"));
        let cfg = OracleConfig {
            expect_quiescent: d.quiescent,
        };
        match (check_trace(&trace, &cfg), d.expect.as_str()) {
            (Ok(_), "clean") => {}
            (Ok(report), expected) => {
                panic!("{name}: expected `{expected}` but the oracle passed the trace ({report:?})")
            }
            (Err(v), "clean") => panic!("{name}: positive control failed the oracle: {v}"),
            (Err(v), expected) => assert_eq!(
                kind(&v),
                expected,
                "{name}: oracle found a different violation: {v}"
            ),
        }
    }
}

/// The corpus must round-trip: re-serializing a parsed file reproduces
/// the same trace (so new files can be produced with `Trace::to_text`).
#[test]
fn regression_traces_round_trip() {
    for entry in std::fs::read_dir(regressions_dir()).expect("regressions dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "trace") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let trace = Trace::parse(&text).expect("parses");
        let reparsed = Trace::parse(&trace.to_text()).expect("re-parses");
        assert_eq!(trace, reparsed, "{}", path.display());
    }
}

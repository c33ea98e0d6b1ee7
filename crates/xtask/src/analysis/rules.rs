//! Determinism rule: the sans-IO protocol crates must not read wall
//! clocks or entropy.
//!
//! The protocol stack, the logical clocks, and the membership machine
//! are pure state machines driven by injected events — that is what
//! makes the DPOR explorer's schedules replayable and the trace oracle's
//! verdicts meaningful. A stray `Instant::now()` or `thread_rng()` in
//! those crates silently re-introduces real time and breaks replay, so
//! any mention of the banned time/entropy APIs inside [`SCOPES`] fails
//! the gate. Matching is on the token stream: identifiers and `::` paths
//! only, so comments, strings, and `#[cfg(test)]` code never trip it —
//! the precise failure mode of the old text scanner this replaces.

use crate::analysis::{Finding, Workspace};

/// The rule id.
pub const RULE: &str = "determinism";

/// Path prefixes that must stay deterministic.
///
/// The simulator crate is listed file by file: its event core — the
/// calendar queue, the message arena, the scratch-buffered command
/// path, and both simulation engines — must replay bit-for-bit from a
/// seed, but `runner.rs` and `threaded.rs` are the real-time drivers
/// that bridge the same actors onto wall clocks *by design* and are
/// deliberately exempt.
pub const SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/clocks/src/",
    "crates/membership/src/",
    "crates/simnet/src/actor.rs",
    "crates/simnet/src/arena.rs",
    "crates/simnet/src/event.rs",
    "crates/simnet/src/fault.rs",
    "crates/simnet/src/latency.rs",
    "crates/simnet/src/metrics.rs",
    "crates/simnet/src/reference.rs",
    "crates/simnet/src/sim.rs",
    "crates/simnet/src/time.rs",
    "crates/simnet/src/trace.rs",
    "crates/simnet/src/wheel.rs",
];

/// Banned identifiers (any position).
const BANNED_IDENTS: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock time"),
    ("thread_rng", "OS entropy"),
    ("from_entropy", "OS entropy"),
];

/// Banned `a::b` path pairs.
const BANNED_PATHS: &[(&str, &str, &str)] = &[
    ("Instant", "now", "monotonic wall-clock time"),
    ("std", "time", "wall-clock time"),
    ("rand", "random", "OS entropy"),
];

/// Runs the determinism rule over library (non-test) code in [`SCOPES`].
pub fn determinism(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !SCOPES.iter().any(|s| file.path.starts_with(s)) {
            continue;
        }
        let lexed = &file.lexed;
        for i in file.prod_idents() {
            let name = lexed.text(i);
            let hit = BANNED_IDENTS
                .iter()
                .find(|(b, _)| *b == name)
                .map(|(b, what)| (format!("`{b}`"), *what))
                .or_else(|| {
                    BANNED_PATHS
                        .iter()
                        .find(|(a, b, _)| {
                            *a == name && lexed.is_path_sep(i + 1) && lexed.text_at(i + 3) == *b
                        })
                        .map(|(a, b, what)| (format!("`{a}::{b}`"), *what))
                });
            if let Some((path, what)) = hit {
                findings.push(Finding::at(
                    RULE,
                    file,
                    i,
                    format!(
                        "{path} pulls {what} into a sans-IO protocol crate; inject time/randomness \
                         through the event interface so schedules stay replayable"
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[(path, src)]);
        determinism(&ws)
    }

    #[test]
    fn instant_now_in_core_flagged() {
        let f = findings(
            "crates/core/src/stack.rs",
            "fn tick(&mut self) { let t = Instant::now(); self.last = t; }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "determinism");
        assert!(f[0].detail.contains("Instant::now"));
    }

    #[test]
    fn same_code_outside_scope_is_fine() {
        let src = "fn tick() { let _ = Instant::now(); }";
        assert!(findings("crates/net/src/conn.rs", src).is_empty());
        assert!(findings("crates/xtask/src/main.rs", src).is_empty());
    }

    #[test]
    fn comments_strings_and_tests_do_not_trip() {
        let src = "// uses Instant::now for timing\n\
                   const DOC: &str = \"SystemTime is banned\";\n\
                   #[cfg(test)] mod tests { fn t() { let _ = SystemTime::now(); } }\n";
        assert!(findings("crates/clocks/src/lamport.rs", src).is_empty());
    }

    #[test]
    fn ident_substrings_do_not_trip() {
        // `InstantLike::now` and `my_thread_rng_seed` share substrings
        // with banned names but are different identifiers.
        let src = "fn f() { InstantLike::now(); let my_thread_rng_seed = 3; }";
        assert!(findings("crates/membership/src/detector.rs", src).is_empty());
    }

    #[test]
    fn std_time_path_flagged() {
        let f = findings("crates/core/src/delivery.rs", "use std::time::Duration;\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("std::time"));
    }

    #[test]
    fn simnet_event_core_is_in_scope() {
        let src = "fn jitter() -> u64 { SystemTime::now().elapsed().unwrap().as_micros() as u64 }";
        for file in [
            "crates/simnet/src/wheel.rs",
            "crates/simnet/src/arena.rs",
            "crates/simnet/src/sim.rs",
        ] {
            assert_eq!(findings(file, src).len(), 1, "{file} must be gated");
        }
    }

    #[test]
    fn simnet_realtime_drivers_are_exempt() {
        let src = "fn deadline() { let _ = Instant::now(); }";
        assert!(findings("crates/simnet/src/runner.rs", src).is_empty());
        assert!(findings("crates/simnet/src/threaded.rs", src).is_empty());
    }
}

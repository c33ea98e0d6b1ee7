//! Workspace automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! Commands:
//! - `lint [--json|--github] [--timings]` — the static-analysis gate
//!   (see [`xtask::analysis`] for the rules, and
//!   [`xtask::analysis::RULES`] for the machine-readable inventory).
//!   Applies the `lint-allow.toml` baseline and exits nonzero on any
//!   finding, so CI can use it directly. `--json` also emits the
//!   unsafe-FFI inventory (schema: `docs/lint-json-schema.md`).
//!   `--timings` prints per-pass wall-clock lines
//!   (`timing pass=<name> ms=<n>`) to stderr so CI can hold each pass
//!   to a budget instead of averaging a slow one away.
//! - `lint --list-rules` — prints one `id<TAB>summary` line per rule
//!   and exits; CI consumes this instead of a hand-maintained list.

use std::process::ExitCode;
use xtask::analysis::{self, allow::AllowList, report};

fn run_lint(format: report::Format, timings: bool) -> ExitCode {
    let root = analysis::workspace_root();
    let baseline = match AllowList::load(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ws = match analysis::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = analysis::run(&ws, &baseline);
    if timings {
        // Stderr, so `--json`/`--github` stdout stays machine-clean.
        for t in &run.timings {
            eprintln!("timing pass={} ms={}", t.name, t.elapsed.as_millis());
        }
    }
    print!("{}", report::render(&run.findings, &run.inventory, format));
    if run.findings.is_empty() {
        if format == report::Format::Human {
            let rules: Vec<&str> = analysis::RULES.iter().map(|r| r.id).collect();
            println!(
                "rules: {} ({} files, {} baseline entries, {} audited unsafe blocks)",
                rules.join(", "),
                ws.files.len(),
                baseline.entries.len(),
                run.inventory.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list_rules() -> ExitCode {
    for rule in analysis::RULES {
        println!("{}\t{}", rule.id, rule.summary);
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: cargo xtask lint [--json|--github] [--timings] | lint --list-rules";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut format = report::Format::Human;
            let mut timings = false;
            for flag in &args[1..] {
                match flag.as_str() {
                    "--json" => format = report::Format::Json,
                    "--github" => format = report::Format::Github,
                    "--timings" => timings = true,
                    "--list-rules" => return list_rules(),
                    other => {
                        eprintln!("{USAGE} (unknown flag: {other})");
                        return ExitCode::FAILURE;
                    }
                }
            }
            run_lint(format, timings)
        }
        other => {
            eprintln!(
                "{USAGE}{}",
                other
                    .map(|o| format!(" (unknown command: {o})"))
                    .unwrap_or_default()
            );
            ExitCode::FAILURE
        }
    }
}

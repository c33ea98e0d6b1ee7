//! End-to-end benchmark of the full Figure-4 protocol stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--rustc <version>] [--commit <sha>]
//! ```
//!
//! Runs one named workload (see `workload.rs`) and prints every metric by
//! name and unit, one provenance line, and — as the last line — the JSON
//! result `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics of an untraced run; `--trace 1` the
//! per-layer metrics of a traced run. Exits non-zero on bad arguments.

mod app;
mod gate;
mod hist;
mod probe;
mod procfs;
mod replay;
mod report;
mod sim;
mod tcp;
mod workload;

use app::BenchOp;
use causal_core::delivery::{GraphDelivery, PcEngine};
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workload::{Engine, Shape, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rustc = "unknown".to_string();
    let mut commit = "unknown".to_string();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--rustc" => rustc = value,
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        rustc,
        commit,
    })
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The host and build this run measured.
fn provenance(a: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"params\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \
         \"commit\": {}}}}}",
        json_str(a.workload.name),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.workload.params_json(),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&a.rustc),
        json_str(&a.commit),
    )
}

fn run(a: &Args) -> Report {
    let w = &a.workload;
    match (w.shape, w.engine, a.trace) {
        (Shape::Tcp(_), _, false) => tcp::run(w, a.seed, a.seconds),
        (Shape::Tcp(_), _, true) => tcp::run_traced(w, a.seed, a.seconds),
        (Shape::Sim { .. }, Engine::Pc, false) => {
            sim::run::<PcEngine<BenchOp>>(w, a.seed, a.seconds)
        }
        (Shape::Sim { .. }, Engine::Pc, true) => {
            sim::run_traced::<PcEngine<BenchOp>>(w, a.seed, a.seconds)
        }
        (Shape::Sim { .. }, _, false) => sim::run::<GraphDelivery<BenchOp>>(w, a.seed, a.seconds),
        (Shape::Sim { .. }, _, true) => {
            sim::run_traced::<GraphDelivery<BenchOp>>(w, a.seed, a.seconds)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--rustc <version>] [--commit <sha>]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", provenance(&args));
    print!(
        "{}",
        report.render(if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(argv(
            "--workload wide32-pc-sim --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.name, "wide32-pc-sim");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(parse(argv("--workload nope --seed 4 --seconds 10 --trace 0")).is_err());
        assert!(parse(argv("--workload wide32-pc-sim --seconds 10")).is_err());
        assert!(parse(argv(
            "--workload wide32-pc-sim --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
    }
}

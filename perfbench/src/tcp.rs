//! The TCP workload (`flood3-vector-tcp`): a closed loop over the
//! `causal-net` reactor on loopback sockets.
//!
//! Set-up (spawn the cluster, connect it, and see one op of every member
//! delivered everywhere) is timed 31 times and reported as a median;
//! the last cluster then runs the timed phase, sampled in windows. Every
//! member's generator lives inside its probe, on its own driver thread.

use crate::app::{BenchApp, BenchOp, Order, Window};
use crate::gate::{self, MemberOutcome};
use crate::hist::{median, quantile_f64, LatencyHist};
use crate::probe::{Clock, Probe};
use crate::procfs;
use crate::replay::{replay, Layer};
use crate::report::{Report, Traced};
use crate::sim::FAST_QUANTILE;
use crate::workload::{Shape, TcpShape, Workload};
use causal_clocks::ProcessId;
use causal_core::delivery::CbcastEngine;
use causal_core::stack::ProtocolStack;
use causal_net::stats::NetSnapshot;
use causal_net::{LoopbackCluster, TcpConfig};
use causal_simnet::SimDuration;
use causal_verify::{check_trace, OracleConfig, Trace};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Member = Probe<CbcastEngine<BenchOp>>;

/// Set-ups per run (the last one is kept for the timed phase).
const SETUPS: usize = 31;
/// Sampling period of the timed phase.
const WINDOW: Duration = Duration::from_millis(250);
/// How long a cluster may take to connect or to drain.
const DEADLINE: Duration = Duration::from_secs(20);
const SHARD_THREADS: &str = "causal-net-shar";
const DRIVER_THREADS: &str = "causal-net-node";

fn params(w: &Workload) -> TcpShape {
    match w.shape {
        Shape::Tcp(p) => p,
        Shape::Sim { .. } => panic!("{} is not a TCP workload", w.name),
    }
}

/// A live cluster and its closed-loop window.
struct Cluster {
    nodes: LoopbackCluster<Member>,
    window: Arc<Window>,
}

fn spawn(w: &Workload, seed: u64, base: Instant, limit: u64, traced: bool) -> Cluster {
    let p = params(w);
    let n = w.n;
    let window = Arc::new(Window::new(n, p.window));
    let members: Vec<Member> = (0..n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let mut app = BenchApp::new(me, n, Order::Fifo).with_window(Arc::clone(&window));
            if traced {
                app = app.keep_log().timed();
            }
            let mut stack = ProtocolStack::new(me, n, app)
                .with_gc(n, w.report_every)
                .with_retransmit_every(SimDuration::from_millis(p.retransmit_ms));
            if traced {
                stack = stack.with_tracing();
            }
            let probe =
                Probe::new(stack, Clock::Wall(base)).generating(Arc::clone(&window), seed, limit);
            if traced {
                probe.traced()
            } else {
                probe
            }
        })
        .collect();
    let config = TcpConfig {
        poller_shards: p.shards,
        ..TcpConfig::default()
    };
    let nodes = LoopbackCluster::spawn(members, seed, config).expect("loopback cluster boots");
    Cluster { nodes, window }
}

/// Waits until `done` holds, or panics after [`DEADLINE`].
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn connected(c: &Cluster, n: usize) {
    wait_until("the cluster to connect", || {
        (0..n).all(|o| c.window.completed(o) >= 1)
    });
}

/// Stops the generators, drains, shuts down, and gates the run.
fn finish(c: Cluster, report: &mut Report) -> (Vec<(Member, NetSnapshot)>, Vec<u64>) {
    let n = c.nodes.len();
    c.window.stop.store(true, Ordering::SeqCst);
    let w = Arc::clone(&c.window);
    // A generator that read `stop` just before it was set may still issue
    // a few ops, so the window must stay drained across a grace period.
    let drained_now = || w.total_completed() == w.total_issued();
    let started = Instant::now();
    let mut drained = false;
    while !drained && started.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
        if drained_now() {
            std::thread::sleep(Duration::from_millis(20));
            drained = drained_now();
        }
    }
    let members = c.nodes.shutdown();
    let issued: Vec<u64> = (0..n).map(|o| w.issued(o)).collect();
    let outcomes: Vec<MemberOutcome> = members
        .iter()
        .map(|(m, _)| MemberOutcome {
            log: Vec::new(),
            ..MemberOutcome::from_app(m.stack.app(), None)
        })
        .collect();
    let mut verdict = gate::check(&outcomes, &issued, true);
    if !drained {
        verdict
            .violations
            .push("the cluster did not drain before the deadline".into());
    }
    for (i, (_, s)) in members.iter().enumerate() {
        if s.frame_copies != 0 || s.decode_errors != 0 {
            verdict.violations.push(format!(
                "member {i}: {} frame copies, {} decode errors",
                s.frame_copies, s.decode_errors
            ));
        }
    }
    report.absorb(verdict);
    (members, issued)
}

/// Counters sampled at the edges of a timed phase.
struct Sample {
    at: Instant,
    completed: u64,
    cpu_ns: u64,
    shard_ns: u64,
    driver_ns: u64,
    peak_rss_mb: f64,
    net: Vec<NetSnapshot>,
}

fn sample(c: &Cluster) -> Sample {
    Sample {
        at: Instant::now(),
        completed: c.window.total_completed(),
        cpu_ns: procfs::threads_cpu_ns(""),
        shard_ns: procfs::threads_cpu_ns(SHARD_THREADS),
        driver_ns: procfs::threads_cpu_ns(DRIVER_THREADS),
        peak_rss_mb: procfs::peak_rss_mb(),
        net: (0..c.nodes.len())
            .map(|i| c.nodes.handle(i).stats())
            .collect(),
    }
}

fn net_sum(s: &Sample, f: impl Fn(&NetSnapshot) -> u64) -> u64 {
    s.net.iter().map(f).sum()
}

fn links_sum(s: &NetSnapshot, f: impl Fn(&causal_net::stats::LinkSnapshot) -> u64) -> u64 {
    s.links.iter().map(f).sum()
}

/// Sets up [`SETUPS`] clusters (timing each) and keeps the last.
fn set_up(w: &Workload, seed: u64, base: Instant, report: &mut Report) -> Cluster {
    let mut times = Vec::new();
    for i in 0..SETUPS {
        let started = Instant::now();
        let c = spawn(w, seed.wrapping_add(i as u64), base, u64::MAX, false);
        connected(&c, w.n);
        times.push(started.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            report.set("setup_s", median(&times));
            return c;
        }
        finish(c, report);
    }
    unreachable!("SETUPS is positive")
}

/// Runs the closed loop for `seconds` on a connected cluster, sampling
/// every [`WINDOW`] and advancing the apps' latency window with it.
fn timed_phase(c: &Cluster, seconds: f64) -> Vec<Sample> {
    c.window.measuring.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let mut samples = vec![sample(c)];
    let windows = ((seconds / WINDOW.as_secs_f64()).round() as u32).max(1);
    for i in 1..=windows {
        let due = started + Duration::from_secs_f64(seconds * f64::from(i) / f64::from(windows));
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        samples.push(sample(c));
        if i < windows {
            c.window.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }
    c.window.measuring.store(false, Ordering::SeqCst);
    samples
}

/// Peak RSS once `ops` ops were delivered everywhere, interpolated
/// linearly between the samples around it (extrapolated over the whole
/// phase if the run ended sooner).
fn rss_at_ops(samples: &[Sample], ops: u64) -> f64 {
    let (a, b) = samples
        .windows(2)
        .find(|w| w[1].completed >= ops)
        .map_or((&samples[0], &samples[samples.len() - 1]), |w| {
            (&w[0], &w[1])
        });
    let span = b.completed.saturating_sub(a.completed).max(1) as f64;
    let share = (ops as f64 - a.completed as f64) / span;
    a.peak_rss_mb + (b.peak_rss_mb - a.peak_rss_mb) * share
}

/// Per-window ops/s and CPU µs per op.
fn window_rates(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    samples
        .windows(2)
        .map(|w| {
            let ops = (w[1].completed - w[0].completed).max(1) as f64;
            let rate = ops / (w[1].at - w[0].at).as_secs_f64();
            (rate, (w[1].cpu_ns - w[0].cpu_ns) as f64 / 1e3 / ops)
        })
        .unzip()
}

/// A timed (untraced) run: every end-to-end metric.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let base = Instant::now();
    let mut report = Report::default();
    let c = set_up(w, seed, base, &mut report);
    let samples = timed_phase(&c, seconds);
    let (members, _) = finish(c, &mut report);
    let (rates, cpu) = window_rates(&samples);
    report.set("ops_per_s", quantile_f64(&rates, FAST_QUANTILE));
    report.set("cpu_us_per_op", quantile_f64(&cpu, 1.0 - FAST_QUANTILE));
    let (a, b) = (&samples[0], &samples[samples.len() - 1]);
    let ops = (b.completed - a.completed).max(1) as f64;
    let mut latency = LatencyHist::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for (m, _) in &members {
        latency.merge(m.stack.app().latency());
        for (p50, p99) in m.stack.app().window_quantiles() {
            p50s.push(p50 as f64);
            p99s.push(p99 as f64);
        }
    }
    // Windows do identical work and a busy neighbour only slows them, so
    // like `ops_per_s` the latencies come from the quiet end: the mirror
    // of FAST_QUANTILE over every member's windows.
    if p50s.is_empty() {
        report.set("latency_p50_us", latency.quantile(0.5) as f64);
        report.set("latency_p99_us", latency.quantile(0.99) as f64);
    } else {
        report.set("latency_p50_us", quantile_f64(&p50s, 1.0 - FAST_QUANTILE));
        report.set("latency_p99_us", quantile_f64(&p99s, 1.0 - FAST_QUANTILE));
    }
    let frames = |s: &Sample| net_sum(s, |n| links_sum(n, |l| l.frames_written));
    report.set("msgs_per_op", (frames(b) - frames(a)) as f64 / ops);
    report.set("peak_rss_mb", rss_at_ops(&samples, params(w).rss_ops));
    report
}

/// A traced run: an untraced timed phase (net counters and the overhead
/// baseline), then a traced cluster capped at `trace_ops` ops per member,
/// replayed member by member.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let base = Instant::now();
    let mut report = Report::default();
    let c = set_up(w, seed, base, &mut report);
    let samples = timed_phase(&c, seconds * 0.6);
    finish(c, &mut report);
    let plain_rate = quantile_f64(&window_rates(&samples).0, FAST_QUANTILE);
    let (a, b) = (&samples[0], &samples[samples.len() - 1]);
    let ops = (b.completed - a.completed).max(1) as f64;
    let reactor = |s: &Sample, f: fn(&causal_net::stats::ReactorSnapshot) -> u64| {
        s.net.first().map_or(0, |n| f(&n.reactor))
    };
    let delta = |f: &dyn Fn(&Sample) -> u64| (f(b) - f(a)) as f64;
    report.set("net.shard_cpu_s", delta(&|s| s.shard_ns) / 1e9);
    report.set("net.driver_cpu_s", delta(&|s| s.driver_ns) / 1e9);
    let writes = delta(&|s| net_sum(s, |n| links_sum(n, |l| l.writes)));
    let frames = delta(&|s| net_sum(s, |n| links_sum(n, |l| l.frames_written)));
    report.set(
        "net.writev_per_op",
        delta(&|s| reactor(s, |r| r.writev_syscalls)) / ops,
    );
    report.set("net.frames_per_write", frames / writes.max(1.0));
    report.set(
        "net.epoll_waits_per_op",
        delta(&|s| reactor(s, |r| r.epoll_waits)) / ops,
    );
    report.set("net.frame_copies", net_sum(b, |n| n.frame_copies) as f64);
    report.set(
        "net.send_drops",
        net_sum(b, |n| links_sum(n, |l| l.send_drops)) as f64,
    );
    report.set("net.decode_errors", net_sum(b, |n| n.decode_errors) as f64);
    report.set(
        "net.reconnects",
        net_sum(b, |n| links_sum(n, |l| l.reconnects)) as f64,
    );
    let bytes = delta(&|s| net_sum(s, |n| links_sum(n, |l| l.bytes_written)));

    let p = params(w);
    let c = spawn(w, seed, base, p.trace_ops, true);
    connected(&c, w.n);
    let start = sample(&c);
    let total = p.trace_ops * w.n as u64;
    wait_until("the traced run", || c.window.total_completed() >= total);
    let end = sample(&c);
    let traced_rate =
        (end.completed - start.completed).max(1) as f64 / (end.at - start.at).as_secs_f64();
    report.set("trace.overhead", plain_rate / traced_rate - 1.0);
    let driver_ns = end.driver_ns;
    let (members, _) = finish(c, &mut report);

    let trace = Trace::new(
        members
            .iter()
            .filter_map(|(m, _)| m.stack.trace().cloned())
            .collect(),
    );
    if let Err(e) = check_trace(&trace, &OracleConfig::default()) {
        report
            .verdict
            .violations
            .push(format!("trace oracle: {e:?}"));
    }
    let mut t = Traced {
        engine: w.engine,
        n: w.n,
        ops: total,
        replays: Vec::new(),
        matches: true,
        app_ns: 0,
        calls: 0,
        retained_peak: 0,
    };
    for (i, (m, _)) in members.into_iter().enumerate() {
        let rec = m.rec.expect("traced probes record");
        t.app_ns += m.stack.app().app_ns();
        t.calls += m.calls;
        t.retained_peak = t.retained_peak.max(rec.retained_peak);
        let r = replay::<CbcastEngine<BenchOp>>(
            ProcessId::new(i as u32),
            w.n,
            w.report_every,
            rec.inputs,
        );
        t.matches &= r.log == m.stack.app().log();
        if r.wire_mismatches > 0 {
            report.verdict.violations.push(format!(
                "member {i}: {} messages did not survive the wire",
                r.wire_mismatches
            ));
        }
        t.replays.push(r);
    }
    t.fill(&mut report);
    // On TCP the real bytes written (headers, acks and retransmissions
    // included) replace the replay's encoded sizes.
    report.set("wire.bytes_per_op", bytes / ops);
    let encode_ns = t.layer_ns(Layer::Encode);
    let covered = t.glue_ns() + t.layers_ns() + t.app_ns + encode_ns;
    report.set("trace.coverage", covered as f64 / driver_ns.max(1) as f64);
    if !t.matches {
        report
            .verdict
            .violations
            .push("the replay did not reproduce a live delivery log".into());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn rss_is_read_at_a_fixed_op_count() {
        let at = Instant::now();
        let s = |completed, peak_rss_mb| Sample {
            at,
            completed,
            cpu_ns: 0,
            shard_ns: 0,
            driver_ns: 0,
            peak_rss_mb,
            net: Vec::new(),
        };
        let samples = [s(0, 10.0), s(100, 20.0), s(300, 30.0)];
        assert_eq!(rss_at_ops(&samples, 200), 25.0);
        assert_eq!(rss_at_ops(&samples, 50), 15.0);
        // Past the end of the phase: extrapolated from its first and last.
        assert_eq!(rss_at_ops(&samples, 600), 50.0);
    }

    #[test]
    fn a_small_traced_cluster_passes_the_gate_and_replays_exactly() {
        let w = by_name("flood3-vector-tcp").expect("known workload");
        let c = spawn(&w, 9, Instant::now(), 200, true);
        wait_until("the small run", || c.window.total_completed() >= 600);
        let mut report = Report::default();
        let (members, issued) = finish(c, &mut report);
        assert_eq!(issued, vec![200; 3]);
        assert!(report.verdict.correct(), "{:?}", report.verdict);
        assert_eq!(report.verdict.failed, 0);
        for (i, (m, _)) in members.into_iter().enumerate() {
            let live = m.stack.app().log().to_vec();
            assert_eq!(live.len(), 600);
            let inputs = m.rec.expect("traced").inputs;
            let r = replay::<CbcastEngine<BenchOp>>(
                ProcessId::new(i as u32),
                w.n,
                w.report_every,
                inputs,
            );
            assert_eq!(r.log, live, "member {i}");
        }
    }
}

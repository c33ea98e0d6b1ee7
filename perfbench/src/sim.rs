//! The simulator workloads (`mix8-graph-sim`, `wide32-pc-sim`).
//!
//! A timed run cycles through [`STREAMS`] fixed, seeded request streams,
//! repeating each in fresh groups until its time is up. Each repetition
//! times its set-up (building the group) and its timed phase (injection in
//! simulated time, then drain) separately. A stream's throughput is a high
//! quantile over its repetitions (see [`FAST_QUANTILE`]), its CPU per op
//! the mirror; the run reports them over all streams' ops, and set-up as
//! the median over every repetition. Repetitions of a stream must
//! reproduce each other exactly: the simulator is deterministic per seed,
//! so any difference is a bug.

use crate::app::{BenchApp, BenchOp, Order};
use crate::gate::{self, MemberOutcome, Verdict};
use crate::hist::{median, quantile_f64, LatencyHist};
use crate::probe::{Clock, Probe};
use crate::procfs;
use crate::replay::replay;
use crate::report::{Report, Traced};
use crate::workload::{generate, Engine, GenOp, Shape, Workload};
use causal_clocks::ProcessId;
use causal_core::delivery::DeliveryEngine;
use causal_core::osend::OccursAfter;
use causal_core::stack::ProtocolStack;
use causal_core::wire::WireEncode;
use causal_replica::frontend::FrontEndManager;
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimTime, Simulation};
use causal_verify::{check_trace, OracleConfig, Trace};
use std::fmt::Debug;
use std::time::Instant;

/// Simulated time allowed after the last request for everything to land.
const DRAIN_US: u64 = 2_000_000;

/// Fewest repetitions a run makes of each stream, however long they take.
const MIN_REPS: usize = 3;

/// Independent request streams per timed run, each with its own seeded
/// inputs and network draws. Simulated latencies, message counts and the
/// work an op costs depend on where losses fall, so one stream's figures
/// vary from seed to seed; several streams average that out, while each
/// repetition stays short enough for [`FAST_QUANTILE`] to pick out the
/// moments a shared host runs at full speed.
pub const STREAMS: u64 = 4;

/// The quantile of a stream's repetition throughput (or of TCP window
/// throughput) a run reports, and its mirror for CPU per op and TCP
/// window latencies. Repetitions do identical work, so a code change
/// moves all of them alike, while on a shared host some are slowed by
/// other tenants for seconds at a time; a high quantile keeps those out.
pub const FAST_QUANTILE: f64 = 0.9;

/// What one repetition produced.
pub struct Rep<D: DeliveryEngine<Op = BenchOp>> {
    /// Set-up time, s.
    pub setup_s: f64,
    /// Timed phase wall time, s.
    pub wall_s: f64,
    /// CPU time of the timed phase, s.
    pub cpu_s: f64,
    /// The gate's verdict.
    pub verdict: Verdict,
    /// Remote-delivery latencies (simulated µs), merged over members.
    pub latency: LatencyHist,
    /// Network messages sent.
    pub msgs: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Peak messages in flight.
    pub peak_in_flight: u64,
    /// Digest of every member's log and value (determinism check).
    pub digest: u64,
    /// The members, for traced repetitions.
    pub probes: Vec<Probe<D>>,
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0100_0000_01b3)
}

/// Runs one repetition of `ops` over a fresh group.
pub fn run_rep<D>(w: &Workload, seed: u64, ops: &[GenOp], traced: bool) -> Rep<D>
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: Debug,
{
    let Shape::Sim {
        interval_us,
        latency_us,
        drop_prob,
        ..
    } = w.shape
    else {
        panic!("{} is not a simulator workload", w.name);
    };
    let n = w.n;
    let order = if w.engine == Engine::Graph {
        Order::Declared
    } else {
        Order::Fifo
    };

    let started = Instant::now();
    let probes: Vec<Probe<D>> = (0..n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let mut app = BenchApp::new(me, n, order).keep_log();
            if traced {
                app = app.timed();
            }
            let mut stack =
                ProtocolStack::<D, BenchApp>::new(me, n, app).with_gc(n, w.report_every);
            if traced {
                stack = stack.with_tracing();
            }
            let mut probe = Probe::new(stack, Clock::Sim);
            if order == Order::Fifo {
                probe = probe.keep_sent_seen();
            }
            if traced {
                probe = probe.traced();
            }
            probe
        })
        .collect();
    let config = NetConfig::with_latency(LatencyModel::uniform_micros(latency_us.0, latency_us.1))
        .faults(FaultPlan::new().with_drop_prob(drop_prob));
    let mut sim = Simulation::new(probes, config, seed);
    let setup_s = started.elapsed().as_secs_f64();

    let cpu0 = procfs::this_thread_cpu_ns();
    let started = Instant::now();
    let mut fe = FrontEndManager::new();
    let mut issued = vec![0u64; n];
    for (i, g) in ops.iter().enumerate() {
        let at = i as u64 * interval_us;
        sim.run_until(SimTime::from_micros(at));
        let class = g.kind.class();
        let after = if order == Order::Declared {
            fe.ordering_for(class)
        } else {
            OccursAfter::none()
        };
        let op = BenchOp {
            kind: g.kind,
            sent_us: at,
            seen: Vec::new(),
        };
        let id = sim
            .poke(ProcessId::new(g.origin as u32), |p, ctx| {
                p.osend(ctx, op, after)
            })
            .expect("static groups never park sends");
        fe.record(id, class);
        issued[g.origin] += 1;
    }
    let last = (ops.len() as u64).saturating_sub(1) * interval_us;
    sim.run_until(SimTime::from_micros(last + DRAIN_US));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::this_thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;

    let members: Vec<MemberOutcome> = sim
        .nodes()
        .iter()
        .map(|p| MemberOutcome::from_app(p.stack.app(), p.sent_seen.clone()))
        .collect();
    let verdict = gate::check(&members, &issued, order == Order::Fifo);
    let mut latency = LatencyHist::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for p in sim.nodes() {
        latency.merge(p.stack.app().latency());
        digest = fnv(digest, p.stack.app().value() as u64);
        for id in p.stack.app().log() {
            digest = fnv(digest, u64::from(id.origin().as_u32()) << 40 ^ id.seq());
        }
    }
    let msgs = sim.metrics().sent;
    let events = sim.events_processed();
    let peak_in_flight = sim.metrics().peak_in_flight;
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        verdict,
        latency,
        msgs,
        events,
        peak_in_flight,
        digest,
        probes: if traced { sim.into_nodes() } else { Vec::new() },
    }
}

/// Moves the calling thread round the CPUs it may use, one repetition
/// per CPU in turn. A single-threaded run otherwise stays on whichever
/// core it started on, and on a shared host one core can be slowed by
/// other tenants for many seconds; rotating lets every run sample every
/// core. Falls back to no pinning where `taskset` is unavailable.
struct CpuRotation {
    cpus: Vec<usize>,
    turns: usize,
    enabled: bool,
}

impl CpuRotation {
    fn new() -> Self {
        let cpus = procfs::allowed_cpus();
        CpuRotation {
            enabled: cpus.len() > 1,
            cpus,
            turns: 0,
        }
    }

    /// Pins the thread to the next CPU.
    fn advance(&mut self) {
        if self.enabled {
            let cpu = self.cpus[self.turns % self.cpus.len()];
            self.enabled = procfs::pin_this_thread(&[cpu]);
            self.turns += 1;
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.turns > 0 {
            procfs::pin_this_thread(&self.cpus);
        }
    }
}

/// One seeded request stream: the simulator seed and the requests.
struct Stream {
    seed: u64,
    ops: Vec<GenOp>,
}

impl Stream {
    /// Stream `k` of the run seeded `seed`; stream 0 uses `seed` itself.
    fn new(w: &Workload, seed: u64, k: u64) -> Self {
        let seed = seed ^ (k << 48);
        Stream {
            seed,
            ops: sim_ops(w, seed),
        }
    }
}

/// Untraced repetitions of every stream in turn until `seconds` of timed
/// phases have passed, after one untimed warm-up repetition; every
/// repetition must reproduce its stream's first. The thread moves to the
/// next CPU once per round, so every stream samples every CPU.
fn timed_reps<D>(w: &Workload, streams: &[Stream], seconds: f64) -> (Vec<Vec<Rep<D>>>, Report)
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: Debug,
{
    run_rep::<D>(w, streams[0].seed, &streams[0].ops, false);
    let mut cpus = CpuRotation::new();
    let mut reps: Vec<Vec<Rep<D>>> = streams.iter().map(|_| Vec::new()).collect();
    let mut report = Report::default();
    let mut spent = 0.0;
    while reps[0].len() < MIN_REPS || spent < seconds {
        cpus.advance();
        for (k, (s, done)) in streams.iter().zip(&mut reps).enumerate() {
            let mut rep = run_rep::<D>(w, s.seed, &s.ops, false);
            spent += rep.wall_s;
            if let Some(first) = done.first() {
                if (rep.digest, rep.msgs) != (first.digest, first.msgs) {
                    report.verdict.violations.push(format!(
                        "repetition {} of stream {k} diverged from its first",
                        done.len()
                    ));
                }
                // Only the first repetition's latencies are reported; the
                // histograms of the rest would add to `peak_rss_mb` with
                // every repetition a faster run fits in.
                rep.latency = LatencyHist::new();
            }
            done.push(rep);
        }
    }
    for done in &reps {
        report.absorb(done[0].verdict.clone());
    }
    (reps, report)
}

/// A timed (untraced) run: every end-to-end metric.
pub fn run<D>(w: &Workload, seed: u64, seconds: f64) -> Report
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: Debug,
{
    let streams: Vec<Stream> = (0..STREAMS).map(|k| Stream::new(w, seed, k)).collect();
    let (reps, mut report) = timed_reps::<D>(w, &streams, seconds);
    let (mut ops, mut wall_s, mut cpu_s, mut msgs) = (0.0, 0.0, 0.0, 0);
    let mut latency = LatencyHist::new();
    for (s, done) in streams.iter().zip(&reps) {
        let n_ops = s.ops.len() as f64;
        let rates: Vec<f64> = done.iter().map(|r| n_ops / r.wall_s).collect();
        let cpu: Vec<f64> = done.iter().map(|r| r.cpu_s / n_ops).collect();
        ops += n_ops;
        wall_s += n_ops / quantile_f64(&rates, FAST_QUANTILE);
        cpu_s += n_ops * quantile_f64(&cpu, 1.0 - FAST_QUANTILE);
        msgs += done[0].msgs;
        latency.merge(&done[0].latency);
    }
    let setups: Vec<f64> = reps.iter().flatten().map(|r| r.setup_s).collect();
    report.set("ops_per_s", ops / wall_s);
    report.set("cpu_us_per_op", cpu_s * 1e6 / ops);
    report.set("latency_p50_us", latency.quantile(0.5) as f64);
    report.set("latency_p99_us", latency.quantile(0.99) as f64);
    report.set("msgs_per_op", msgs as f64 / ops);
    report.set("peak_rss_mb", procfs::peak_rss_mb());
    report.set("setup_s", median(&setups));
    report
}

/// A traced run: untraced and traced repetitions for the overhead, then
/// the replay of the last traced one for every per-layer metric.
pub fn run_traced<D>(w: &Workload, seed: u64, seconds: f64) -> Report
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: WireEncode + PartialEq + Debug,
{
    let streams = [Stream::new(w, seed, 0)];
    let ops = &streams[0].ops;
    let n_ops = ops.len() as f64;
    let (mut plain, mut report) = timed_reps::<D>(w, &streams, seconds * 0.5);
    let plain = plain.remove(0);
    let plain_rate = quantile_f64(
        &plain.iter().map(|r| n_ops / r.wall_s).collect::<Vec<_>>(),
        FAST_QUANTILE,
    );
    let mut rates = Vec::new();
    let mut spent = 0.0;
    let mut last = None;
    let mut cpus = CpuRotation::new();
    while last.is_none() || spent < seconds * 0.4 {
        cpus.advance();
        let rep = run_rep::<D>(w, seed, ops, true);
        spent += rep.wall_s;
        rates.push(n_ops / rep.wall_s);
        if rep.digest != plain[0].digest {
            report
                .verdict
                .violations
                .push("the traced repetition diverged from the untraced ones".into());
        }
        last = Some(rep);
    }
    let rep = last.expect("at least one traced repetition");
    report.set(
        "trace.overhead",
        plain_rate / quantile_f64(&rates, FAST_QUANTILE) - 1.0,
    );

    let trace = Trace::new(
        rep.probes
            .iter()
            .filter_map(|p| p.stack.trace().cloned())
            .collect(),
    );
    if let Err(e) = check_trace(&trace, &OracleConfig::default()) {
        report
            .verdict
            .violations
            .push(format!("trace oracle: {e:?}"));
    }

    let mut stack_ns = 0;
    let mut probe_ns = 0;
    let mut app_ns = 0;
    let mut calls = 0;
    let mut retained_peak = 0;
    let mut replays = Vec::new();
    let mut matches = true;
    for (i, p) in rep.probes.into_iter().enumerate() {
        let rec = p.rec.expect("traced probes record");
        stack_ns += rec.stack_ns;
        probe_ns += rec.probe_ns;
        app_ns += p.stack.app().app_ns();
        calls += p.calls;
        retained_peak = retained_peak.max(rec.retained_peak);
        let r = replay::<D>(ProcessId::new(i as u32), w.n, w.report_every, rec.inputs);
        matches &= r.log == p.stack.app().log();
        if r.wire_mismatches > 0 {
            report.verdict.violations.push(format!(
                "member {i}: {} messages did not survive the wire",
                r.wire_mismatches
            ));
        }
        replays.push(r);
    }
    let traced = Traced {
        engine: w.engine,
        n: w.n,
        ops: ops.len() as u64,
        replays,
        matches,
        app_ns,
        calls,
        retained_peak,
    };
    traced.fill(&mut report);
    let wall_ns = rep.wall_s * 1e9;
    let simnet_ns = (wall_ns - (stack_ns + probe_ns) as f64).max(0.0);
    report.set("simnet.self_s", simnet_ns / 1e9);
    report.set("simnet.events_per_op", rep.events as f64 / n_ops);
    report.set("simnet.peak_in_flight", rep.peak_in_flight as f64);
    let covered = simnet_ns + (traced.glue_ns() + traced.layers_ns() + app_ns) as f64;
    report.set("trace.coverage", covered / wall_ns);
    if !matches {
        report
            .verdict
            .violations
            .push("the replay did not reproduce a live delivery log".into());
    }
    report
}

fn sim_ops(w: &Workload, seed: u64) -> Vec<GenOp> {
    let Shape::Sim { ops, f_bar, .. } = w.shape else {
        panic!("{} is not a simulator workload", w.name);
    };
    generate(w.n, ops, f_bar, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;
    use causal_core::delivery::{GraphDelivery, PcEngine};

    /// `name` shrunk to `ops` requests per repetition.
    fn small(name: &str, ops: usize) -> Workload {
        let mut w = by_name(name).expect("known workload");
        if let Shape::Sim { ops: o, .. } = &mut w.shape {
            *o = ops;
        }
        w
    }

    fn replay_reproduces_live_logs<D>(w: &Workload)
    where
        D: DeliveryEngine<Op = BenchOp>,
        D::Envelope: WireEncode + PartialEq + Debug,
    {
        let ops = sim_ops(w, 11);
        let rep = run_rep::<D>(w, 11, &ops, true);
        assert!(
            rep.verdict.correct() && rep.verdict.failed == 0,
            "{:?}",
            rep.verdict
        );
        for (i, p) in rep.probes.into_iter().enumerate() {
            let live = p.stack.app().log().to_vec();
            assert_eq!(live.len(), ops.len(), "member {i} delivered everything");
            let inputs = p.rec.expect("traced").inputs;
            let r = replay::<D>(ProcessId::new(i as u32), w.n, w.report_every, inputs);
            assert_eq!(
                r.log, live,
                "member {i}: replay log differs from the live log"
            );
            assert_eq!(r.wire_mismatches, 0);
        }
    }

    #[test]
    fn replay_reproduces_the_graph_engine_run() {
        replay_reproduces_live_logs::<GraphDelivery<BenchOp>>(&small("mix8-graph-sim", 400));
    }

    #[test]
    fn replay_reproduces_the_pc_engine_run() {
        replay_reproduces_live_logs::<PcEngine<BenchOp>>(&small("wide32-pc-sim", 150));
    }

    #[test]
    fn repetitions_of_one_seed_are_identical() {
        let w = small("mix8-graph-sim", 300);
        let ops = sim_ops(&w, 5);
        let a = run_rep::<GraphDelivery<BenchOp>>(&w, 5, &ops, false);
        let b = run_rep::<GraphDelivery<BenchOp>>(&w, 5, &ops, false);
        assert_eq!((a.digest, a.msgs, a.events), (b.digest, b.msgs, b.events));
    }

    #[test]
    fn streams_have_their_own_inputs_and_stream_zero_keeps_the_seed() {
        let w = small("mix8-graph-sim", 300);
        let (a, b) = (Stream::new(&w, 5, 0), Stream::new(&w, 5, 1));
        assert_eq!(a.seed, 5);
        assert_eq!(a.ops, sim_ops(&w, 5));
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn the_gate_fails_on_a_dropped_delivery() {
        let w = small("mix8-graph-sim", 300);
        let ops = sim_ops(&w, 3);
        let rep = run_rep::<GraphDelivery<BenchOp>>(&w, 3, &ops, true);
        let mut members: Vec<MemberOutcome> = rep
            .probes
            .iter()
            .map(|p| MemberOutcome::from_app(p.stack.app(), p.sent_seen.clone()))
            .collect();
        let mut issued = vec![0u64; w.n];
        for g in &ops {
            issued[g.origin] += 1;
        }
        let clean = gate::check(&members, &issued, false);
        assert_eq!((clean.failed, clean.correct()), (0, true), "{clean:?}");

        let dropped = members[2].log.remove(100);
        members[2].delivered[dropped.origin().as_usize()] -= 1;
        let v = gate::check(&members, &issued, false);
        assert_eq!(v.failed, 1, "the dropped op is missing at one member");
        assert_eq!(v.attempted, ops.len() as u64);
    }
}

//! Hot-path benchmark baseline: indexed delivery engines vs. the seed
//! reference engines, plus a loopback TCP throughput run exercising the
//! batched writer.
//!
//! Emits two machine-readable artifacts (committed at the workspace root
//! so the speedup claims stay auditable):
//!
//! * `BENCH_delivery.json` — burst / out-of-order delivery scenarios,
//!   each timed on the indexed engine ([`CbcastEngine`], [`GraphDelivery`])
//!   and its pre-indexing reference twin
//!   ([`FlatCbcastEngine`], [`ScanGraphDelivery`]), with the speedup.
//! * `BENCH_net.json` — a two-node loopback TCP flood, reporting
//!   end-to-end message throughput and the writer's coalescing factor
//!   (`frames_per_write` > 1 means batching engaged), plus a
//!   connection-count scaling sweep (PC-broadcast clusters from 8 to
//!   1024 nodes on one shared reactor, reporting setup time, delivery
//!   throughput, and resident thread/FD counts).
//!
//! Usage: `bench_hotpath [--quick] [--out-dir DIR]`. `--quick` shrinks
//! every scenario for CI smoke runs; full mode is the committed baseline.

use causal_bench::json::{array, JsonObject};
use causal_clocks::ProcessId;
use causal_core::delivery::reference::{FlatCbcastEngine, ScanGraphDelivery};
use causal_core::delivery::{CbcastEngine, Delivered, GraphDelivery, VtEnvelope};
use causal_core::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_core::stack::{App, Emitter, PcNode};
use causal_core::statemachine::OpClass;
use causal_net::{spawn_node, LoopbackCluster, NodeHandle, TcpConfig};
use causal_simnet::{Actor, Context, SimDuration};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scenario sizes; `quick` is the CI smoke configuration.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Messages in the single-origin windowed-reverse burst.
    burst_msgs: usize,
    /// Reversal window of the burst (arrival is reversed within each
    /// window, so the buffer repeatedly fills to the window size).
    burst_window: usize,
    /// Messages in the multi-origin causal chain (arrival fully reversed).
    chain_msgs: usize,
    /// Broadcasting origins in the chain scenario.
    chain_origins: usize,
    /// Messages in the wide-dependency graph scenario.
    graph_msgs: usize,
    /// Direct dependencies per message in the graph scenario.
    graph_deps: usize,
    /// Frames pushed through the loopback TCP flood.
    net_msgs: u64,
    /// Cluster sizes of the connection-count scaling sweep.
    scale_ns: &'static [usize],
    /// Timing repetitions per engine (best-of).
    reps: usize,
}

const FULL: Sizes = Sizes {
    burst_msgs: 16_384,
    burst_window: 4_096,
    chain_msgs: 12_000,
    chain_origins: 8,
    graph_msgs: 4_000,
    graph_deps: 64,
    net_msgs: 100_000,
    scale_ns: &[8, 64, 256, 1024],
    reps: 3,
};

const QUICK: Sizes = Sizes {
    burst_msgs: 1_536,
    burst_window: 512,
    chain_msgs: 1_000,
    chain_origins: 4,
    graph_msgs: 600,
    graph_deps: 16,
    net_msgs: 5_000,
    scale_ns: &[8, 32],
    reps: 1,
};

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"));
            }
            other => panic!("unknown argument {other:?} (expected --quick / --out-dir DIR)"),
        }
    }
    let sizes = if quick { QUICK } else { FULL };
    let mode = if quick { "quick" } else { "full" };

    println!("bench_hotpath ({mode} mode)");
    println!();

    let delivery = [
        bench_cbcast_burst(&sizes),
        bench_cbcast_chain(&sizes),
        bench_graph_wide(&sizes),
    ];
    for s in &delivery {
        println!(
            "  {:28} baseline {:>12.0} msg/s   indexed {:>12.0} msg/s   speedup {:.2}x",
            s.name, s.baseline_rate, s.indexed_rate, s.speedup
        );
    }

    let net = bench_tcp_flood(&sizes);
    println!(
        "  {:28} {:>12.0} msg/s   {:.1} frames/write   {:.0} bytes/write",
        net.name, net.rate, net.frames_per_write, net.bytes_per_write
    );

    let scaling = bench_conn_scaling(&sizes);
    for p in &scaling {
        println!(
            "  tcp_conn_scaling n={:<5} setup {:>7.3}s   {:>10.0} msg/s   {:>4} threads   {:>5} fds",
            p.nodes, p.setup_secs, p.rate, p.threads, p.fds
        );
    }

    write_delivery_json(&out_dir, mode, &delivery);
    write_net_json(&out_dir, mode, &net, &scaling);
    println!();
    println!(
        "wrote {} and {}",
        out_dir.join("BENCH_delivery.json").display(),
        out_dir.join("BENCH_net.json").display()
    );
}

// ---------------------------------------------------------------------------
// Delivery scenarios
// ---------------------------------------------------------------------------

/// One head-to-head delivery measurement.
struct DeliveryResult {
    name: &'static str,
    params: Vec<(&'static str, u64)>,
    messages: usize,
    baseline_secs: f64,
    baseline_rate: f64,
    indexed_secs: f64,
    indexed_rate: f64,
    speedup: f64,
}

impl DeliveryResult {
    fn from_times(
        name: &'static str,
        params: Vec<(&'static str, u64)>,
        messages: usize,
        baseline_secs: f64,
        indexed_secs: f64,
    ) -> Self {
        let m = messages as f64;
        DeliveryResult {
            name,
            params,
            messages,
            baseline_secs,
            baseline_rate: m / baseline_secs,
            indexed_secs,
            indexed_rate: m / indexed_secs,
            speedup: baseline_secs / indexed_secs,
        }
    }
}

/// Times `run` `reps` times and returns the best (minimum) duration in
/// seconds — the standard way to strip scheduler noise from a
/// deterministic single-threaded measurement.
fn best_of<F: FnMut() -> usize>(reps: usize, expected: usize, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let delivered = run();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(delivered, expected, "scenario failed to deliver everything");
        best = best.min(secs);
    }
    best
}

/// Reverses `stream` within consecutive windows of `window` elements: the
/// receiver's buffer repeatedly fills to the window size before each
/// cascade, the adversarial shape for a flat rescan drain.
fn windowed_reverse<T: Clone>(stream: &[T], window: usize) -> Vec<T> {
    stream
        .chunks(window)
        .flat_map(|c| c.iter().rev().cloned())
        .collect()
}

/// Single origin bursts `burst_msgs` broadcasts; arrival at the receiver
/// is reversed within `burst_window`-sized windows.
fn bench_cbcast_burst(sizes: &Sizes) -> DeliveryResult {
    let m = sizes.burst_msgs;
    let mut tx = FlatCbcastEngine::new(ProcessId::new(0), 2);
    let stream: Vec<VtEnvelope<u64>> = (0..m as u64).map(|k| tx.broadcast(k)).collect();
    let arrivals = windowed_reverse(&stream, sizes.burst_window);

    let baseline = best_of(sizes.reps, m, || {
        let mut rx = FlatCbcastEngine::new(ProcessId::new(1), 2);
        arrivals
            .iter()
            .map(|e| rx.on_receive(e.clone()).len())
            .sum()
    });
    let indexed = best_of(sizes.reps, m, || {
        let mut rx = CbcastEngine::new(ProcessId::new(1), 2);
        arrivals
            .iter()
            .map(|e| rx.on_receive(e.clone()).len())
            .sum()
    });
    DeliveryResult::from_times(
        "cbcast_burst_reversed",
        vec![("window", sizes.burst_window as u64)],
        m,
        baseline,
        indexed,
    )
}

/// `chain_origins` members take turns broadcasting, each having received
/// everything earlier, so the whole stream is one causal chain across
/// origins; arrival at the observer is fully reversed. Only the oldest
/// message is ever deliverable on arrival, so the final cascade releases
/// the entire buffer through cross-origin wakes.
fn bench_cbcast_chain(sizes: &Sizes) -> DeliveryResult {
    let m = sizes.chain_msgs;
    let origins = sizes.chain_origins;
    let n = origins + 1; // plus the observing receiver
    let mut members: Vec<FlatCbcastEngine<u64>> = (0..origins)
        .map(|i| FlatCbcastEngine::new(ProcessId::new(i as u32), n))
        .collect();
    let mut stream: Vec<VtEnvelope<u64>> = Vec::with_capacity(m);
    for j in 0..m {
        let sender = j % origins;
        let env = members[sender].broadcast(j as u64);
        for (i, member) in members.iter_mut().enumerate() {
            if i != sender {
                let released = member.on_receive(env.clone());
                assert_eq!(released.len(), 1, "chain generation must stay in order");
            }
        }
        stream.push(env);
    }
    stream.reverse();

    let rx_id = ProcessId::new(origins as u32);
    let baseline = best_of(sizes.reps, m, || {
        let mut rx = FlatCbcastEngine::new(rx_id, n);
        stream.iter().map(|e| rx.on_receive(e.clone()).len()).sum()
    });
    let indexed = best_of(sizes.reps, m, || {
        let mut rx = CbcastEngine::new(rx_id, n);
        stream.iter().map(|e| rx.on_receive(e.clone()).len()).sum()
    });
    DeliveryResult::from_times(
        "cbcast_chain_fully_reversed",
        vec![("origins", origins as u64)],
        m,
        baseline,
        indexed,
    )
}

/// Wide AND-dependencies: message `j` occurs after its `graph_deps`
/// predecessors; arrival is fully reversed. The scan engine re-checks
/// every dependency of a waiter each time one of them lands (O(deps²)
/// per message); the indexed engine decrements a missing-count.
fn bench_graph_wide(sizes: &Sizes) -> DeliveryResult {
    let m = sizes.graph_msgs;
    let k = sizes.graph_deps;
    let mut tx = OSender::new(ProcessId::new(0));
    let mut ids = Vec::with_capacity(m);
    let mut stream: Vec<GraphEnvelope<u64>> = Vec::with_capacity(m);
    for j in 0..m {
        let deps = OccursAfter::all(ids[j.saturating_sub(k)..j].iter().copied());
        let env = tx.osend(j as u64, deps);
        ids.push(env.id);
        stream.push(env);
    }
    stream.reverse();

    let baseline = best_of(sizes.reps, m, || {
        let mut rx = ScanGraphDelivery::new();
        stream.iter().map(|e| rx.on_receive(e.clone()).len()).sum()
    });
    let indexed = best_of(sizes.reps, m, || {
        let mut rx = GraphDelivery::new();
        stream.iter().map(|e| rx.on_receive(e.clone()).len()).sum()
    });
    DeliveryResult::from_times(
        "graph_wide_deps_reversed",
        vec![("deps_per_msg", k as u64)],
        m,
        baseline,
        indexed,
    )
}

// ---------------------------------------------------------------------------
// Loopback TCP flood
// ---------------------------------------------------------------------------

/// Results of the loopback flood.
struct NetResult {
    name: &'static str,
    messages: u64,
    secs: f64,
    rate: f64,
    writes: u64,
    frames_written: u64,
    frames_per_write: f64,
    bytes_per_write: f64,
}

/// Node 0 floods `to_send` frames at node 1 from `on_start`; the writer
/// thread drains the backlog into coalesced batches.
struct Flood {
    to_send: u64,
}

impl Actor for Flood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if ctx.me() == ProcessId::new(0) {
            for k in 0..self.to_send {
                ctx.send(ProcessId::new(1), k);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: ProcessId, _msg: u64) {}
}

fn bench_tcp_flood(sizes: &Sizes) -> NetResult {
    let k = sizes.net_msgs;
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();

    let start = Instant::now();
    let handles: Vec<NodeHandle<Flood>> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            spawn_node(
                Flood { to_send: k },
                ProcessId::new(i as u32),
                listener,
                &addrs,
                42,
                TcpConfig::default(),
            )
            .expect("spawn node")
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(120);
    while handles[1].stats().links[0].msgs_recv < k {
        assert!(
            Instant::now() < deadline,
            "flood did not complete: {} of {k} frames arrived",
            handles[1].stats().links[0].msgs_recv
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let secs = start.elapsed().as_secs_f64();

    for h in &handles {
        h.request_stop();
    }
    let mut snaps = handles.into_iter().map(|h| h.join().1);
    let sender = snaps.next().expect("sender snapshot").links[1];
    drop(snaps.next());

    assert_eq!(sender.msgs_sent, k, "sender accounted for every frame");
    NetResult {
        name: "tcp_loopback_flood",
        messages: k,
        secs,
        rate: k as f64 / secs,
        writes: sender.writes,
        frames_written: sender.frames_written,
        frames_per_write: sender.frames_per_write(),
        bytes_per_write: sender.bytes_per_write(),
    }
}

// ---------------------------------------------------------------------------
// Connection-count scaling sweep
// ---------------------------------------------------------------------------

/// At most this many members broadcast per sweep point, so the delivery
/// workload grows linearly in cluster size (`n * min(n, 64)` deliveries)
/// while the connection/thread/FD footprint still scales with `n`.
const SCALE_BROADCASTER_CAP: usize = 64;

/// One cluster size of the scaling sweep.
struct ScalePoint {
    nodes: usize,
    broadcasters: usize,
    deliveries: u64,
    setup_secs: f64,
    total_secs: f64,
    rate: f64,
    threads: usize,
    fds: usize,
}

/// PC-broadcast replica for the sweep: members `0..broadcasters` each
/// broadcast one op at start; every member counts deliveries.
struct ScaleApp {
    broadcasters: usize,
    applied: Arc<AtomicU64>,
}

impl App for ScaleApp {
    type Op = u64;

    fn on_start(&mut self, me: ProcessId, out: &mut Emitter<u64>) {
        if (me.as_u32() as usize) < self.broadcasters {
            out.osend(1, OccursAfter::none());
        }
    }

    fn on_deliver(&mut self, _env: Delivered<'_, u64>, _out: &mut Emitter<u64>) {
        self.applied.fetch_add(1, Ordering::SeqCst);
    }

    fn classify(&self, _op: &u64) -> OpClass {
        OpClass::Commutative
    }
}

/// Runs one PC-broadcast cluster per entry of `scale_ns` on one shared
/// reactor. PC-broadcast's k-ary routed overlay opens only tree-neighbour
/// links, and links are created lazily, so sockets/threads/FDs stay O(n)
/// rather than O(n²) — which is what the recorded `threads`/`fds` columns
/// demonstrate.
fn bench_conn_scaling(sizes: &Sizes) -> Vec<ScalePoint> {
    sizes.scale_ns.iter().map(|&n| scale_point(n)).collect()
}

fn scale_point(n: usize) -> ScalePoint {
    let broadcasters = n.min(SCALE_BROADCASTER_CAP);
    let applied: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes: Vec<PcNode<ScaleApp>> = (0..n)
        .map(|i| {
            PcNode::new(
                ProcessId::new(i as u32),
                n,
                ScaleApp {
                    broadcasters,
                    applied: Arc::clone(&applied[i]),
                },
            )
            // The simulator-scale retransmit sweep is too hot for many
            // wall-clock nodes on one box; acks still prune quickly.
            .with_retransmit_every(SimDuration::from_millis(250))
        })
        .collect();

    // Broadcasts start flowing while later nodes are still spawning, so
    // the honest throughput clock covers cold start → full convergence;
    // `setup_secs` (spawn return) is recorded separately.
    let start = Instant::now();
    let cluster = LoopbackCluster::spawn(nodes, 99, TcpConfig::default()).expect("spawn cluster");
    let setup_secs = start.elapsed().as_secs_f64();

    let per_node = broadcasters as u64;
    let deadline = start + Duration::from_secs(300);
    while applied.iter().any(|a| a.load(Ordering::SeqCst) < per_node) {
        assert!(
            Instant::now() < deadline,
            "scaling point n={n} did not converge: min applied {:?} of {per_node}",
            applied.iter().map(|a| a.load(Ordering::SeqCst)).min()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let total_secs = start.elapsed().as_secs_f64();

    // Footprint while the cluster is still fully up.
    let threads = proc_thread_count();
    let fds = proc_fd_count();
    drop(cluster.shutdown());

    let deliveries = n as u64 * per_node;
    ScalePoint {
        nodes: n,
        broadcasters,
        deliveries,
        setup_secs,
        total_secs,
        rate: deliveries as f64 / total_secs,
        threads,
        fds,
    }
}

/// Current thread count of this process, from `/proc/self/status`.
fn proc_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Current open-FD count of this process, from `/proc/self/fd`.
fn proc_fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Artifact emission
// ---------------------------------------------------------------------------

fn write_delivery_json(out_dir: &Path, mode: &str, results: &[DeliveryResult]) {
    let scenarios: Vec<String> = results
        .iter()
        .map(|r| {
            let mut obj = JsonObject::new()
                .str("name", r.name)
                .u64("messages", r.messages as u64);
            for &(key, value) in &r.params {
                obj = obj.u64(key, value);
            }
            obj.str("baseline_engine", baseline_engine(r.name))
                .str("indexed_engine", indexed_engine(r.name))
                .f64("baseline_secs", r.baseline_secs)
                .f64("baseline_msgs_per_sec", r.baseline_rate)
                .f64("indexed_secs", r.indexed_secs)
                .f64("indexed_msgs_per_sec", r.indexed_rate)
                .f64("speedup", r.speedup)
                .render(2)
        })
        .collect();
    let doc = JsonObject::new()
        .str("bench", "bench_hotpath")
        .str("mode", mode)
        .str(
            "command",
            "cargo run --release -p causal-bench --bin bench_hotpath",
        )
        .raw("scenarios", array(&scenarios, 1))
        .render(0);
    std::fs::write(out_dir.join("BENCH_delivery.json"), doc + "\n").expect("write delivery json");
}

fn baseline_engine(name: &str) -> &'static str {
    if name.starts_with("graph") {
        "ScanGraphDelivery"
    } else {
        "FlatCbcastEngine"
    }
}

fn indexed_engine(name: &str) -> &'static str {
    if name.starts_with("graph") {
        "GraphDelivery"
    } else {
        "CbcastEngine"
    }
}

fn write_net_json(out_dir: &Path, mode: &str, net: &NetResult, scaling: &[ScalePoint]) {
    let flood = JsonObject::new()
        .str("name", net.name)
        .u64("messages", net.messages)
        .f64("secs", net.secs)
        .f64("msgs_per_sec", net.rate)
        .u64("writes", net.writes)
        .u64("frames_written", net.frames_written)
        .f64("frames_per_write", net.frames_per_write)
        .f64("bytes_per_write", net.bytes_per_write)
        .render(2);
    let points: Vec<String> = scaling
        .iter()
        .map(|p| {
            JsonObject::new()
                .u64("nodes", p.nodes as u64)
                .u64("broadcasters", p.broadcasters as u64)
                .u64("deliveries", p.deliveries)
                .f64("setup_secs", p.setup_secs)
                .f64("total_secs", p.total_secs)
                .f64("msgs_per_sec", p.rate)
                .u64("threads", p.threads as u64)
                .u64("fds", p.fds as u64)
                .render(4)
        })
        .collect();
    let sweep = JsonObject::new()
        .str("name", "tcp_conn_scaling")
        .str("engine", "pc_broadcast")
        .u64("broadcaster_cap", SCALE_BROADCASTER_CAP as u64)
        .raw("points", array(&points, 3))
        .render(2);
    let doc = JsonObject::new()
        .str("bench", "bench_hotpath")
        .str("mode", mode)
        .str(
            "command",
            "cargo run --release -p causal-bench --bin bench_hotpath",
        )
        .raw("scenarios", array(&[flood, sweep], 1))
        .render(0);
    std::fs::write(out_dir.join("BENCH_net.json"), doc + "\n").expect("write net json");
}

//! The three named workloads and their seeded operation generators.
//!
//! A workload fixes the engine, runtime, group and load shape; the seed
//! fixes everything random (op mix, values, network draws). The stack
//! only ever receives the generated operations.

use crate::app::Kind;

/// Which delivery engine the group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Explicit `Occurs-After` graphs (`GraphDelivery`).
    Graph,
    /// Vector clocks (`CbcastEngine`).
    Vector,
    /// PC-broadcast over a routed overlay (`PcEngine`).
    Pc,
}

/// Load shape and network of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Open loop on the simulator: one request every `interval_us`
    /// simulated µs from rotating members; each repetition runs the same
    /// `ops` requests.
    Sim {
        /// Simulated µs between requests.
        interval_us: u64,
        /// Requests per repetition.
        ops: usize,
        /// Uniform one-way latency bounds, µs.
        latency_us: (u64, u64),
        /// Per-message loss probability.
        drop_prob: f64,
        /// §6.1 mean commutative ops per cycle; `None` for increments only.
        f_bar: Option<u32>,
    },
    /// Closed loop over loopback TCP.
    Tcp(TcpShape),
}

/// A closed loop over loopback TCP: every member keeps `window` of its
/// own ops in flight until each is delivered at every member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpShape {
    /// Ops in flight per member.
    pub window: usize,
    /// Reliability-layer retransmission period, ms.
    pub retransmit_ms: u64,
    /// Reactor poller shards.
    pub shards: usize,
    /// Ops per member in the traced run.
    pub trace_ops: u64,
    /// Ops delivered everywhere at which `peak_rss_mb` is read: the
    /// stack's delivery logs grow with every op, so memory is compared at
    /// a fixed amount of traffic, not after a fixed time.
    pub rss_ops: u64,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Delivery engine.
    pub engine: Engine,
    /// Group size.
    pub n: usize,
    /// Deliveries between stability reports (GC is always on).
    pub report_every: u64,
    /// Load shape and runtime.
    pub shape: Shape,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mix8-graph-sim",
        engine: Engine::Graph,
        n: 8,
        report_every: 16,
        shape: Shape::Sim {
            interval_us: 50,
            ops: 6_000,
            latency_us: (200, 800),
            drop_prob: 0.01,
            f_bar: Some(20),
        },
    },
    Workload {
        name: "flood3-vector-tcp",
        engine: Engine::Vector,
        n: 3,
        report_every: 16,
        shape: Shape::Tcp(TcpShape {
            window: 16,
            retransmit_ms: 50,
            shards: 1,
            trace_ops: 5_000,
            rss_ops: 1_000_000,
        }),
    },
    Workload {
        name: "wide32-pc-sim",
        engine: Engine::Pc,
        n: 32,
        report_every: 16,
        shape: Shape::Sim {
            interval_us: 20,
            ops: 1_500,
            latency_us: (200, 800),
            drop_prob: 0.01,
            f_bar: None,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Every parameter as a JSON object, for the provenance record.
    pub fn params_json(&self) -> String {
        let engine = match self.engine {
            Engine::Graph => "graph",
            Engine::Vector => "vector",
            Engine::Pc => "pc",
        };
        let shape = match self.shape {
            Shape::Sim {
                interval_us,
                ops,
                latency_us,
                drop_prob,
                f_bar,
            } => format!(
                "\"runtime\": \"simnet\", \"loop\": \"open\", \"interval_us\": {interval_us}, \
                 \"ops_per_rep\": {ops}, \"streams\": {}, \"latency_us\": [{}, {}], \
                 \"drop_prob\": {drop_prob}, \"f_bar\": {}, \"retransmit_ms\": 5",
                crate::sim::STREAMS,
                latency_us.0,
                latency_us.1,
                f_bar.map_or("null".to_string(), |f| f.to_string())
            ),
            Shape::Tcp(TcpShape {
                window,
                retransmit_ms,
                shards,
                trace_ops,
                rss_ops,
            }) => format!(
                "\"runtime\": \"causal-net\", \"loop\": \"closed\", \"window\": {window}, \
                 \"retransmit_ms\": {retransmit_ms}, \"poller_shards\": {shards}, \
                 \"trace_ops_per_member\": {trace_ops}, \"rss_at_ops\": {rss_ops}"
            ),
        };
        format!(
            "{{\"engine\": \"{engine}\", \"n\": {}, \"gc\": true, \"report_every\": {}, {shape}}}",
            self.n, self.report_every
        )
    }
}

/// SplitMix64: a tiny, fixed, seedable generator, so inputs depend on
/// the seed alone and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One generated request: who submits it and what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    /// Submitting member.
    pub origin: usize,
    /// The operation.
    pub kind: Kind,
}

/// A nonzero increment in `-9..=9`.
pub fn increment(rng: &mut SplitMix64) -> Kind {
    let k = rng.range(1, 9) as i64;
    Kind::Inc(if rng.next_u64().is_multiple_of(4) {
        -k
    } else {
        k
    })
}

/// The request stream of a simulator workload: `ops` requests from
/// rotating members (starting at a seeded member). With `f_bar`, the
/// §6.1 cycle shape: each cycle opens with a `Set` or a `Read`, followed
/// by a jittered `f_bar / 2 ..= 3 f_bar / 2` increments.
pub fn generate(n: usize, ops: usize, f_bar: Option<u32>, seed: u64) -> Vec<GenOp> {
    let mut rng = SplitMix64::new(seed);
    let first = rng.range(0, n as u64 - 1) as usize;
    let mut left_in_cycle = 0u64;
    (0..ops)
        .map(|i| {
            let kind = match f_bar {
                Some(f) if left_in_cycle == 0 => {
                    let f = u64::from(f);
                    left_in_cycle = rng.range(f / 2, f + f / 2);
                    if rng.next_u64().is_multiple_of(2) {
                        Kind::Read
                    } else {
                        Kind::Set(rng.range(0, 1_000) as i64)
                    }
                }
                Some(_) => {
                    left_in_cycle -= 1;
                    increment(&mut rng)
                }
                None => increment(&mut rng),
            };
            GenOp {
                origin: (first + i) % n,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in WORKLOADS {
            if let Shape::Sim { ops, f_bar, .. } = w.shape {
                let a = generate(w.n, ops, f_bar, 7);
                assert_eq!(a, generate(w.n, ops, f_bar, 7), "{}", w.name);
                assert_ne!(a, generate(w.n, ops, f_bar, 8), "{}", w.name);
                assert_eq!(a.len(), ops);
            }
        }
    }

    #[test]
    fn mix_has_the_paper_cycle_shape() {
        let ops = generate(8, 20_000, Some(20), 3);
        let nc = ops
            .iter()
            .filter(|g| !matches!(g.kind, Kind::Inc(_)))
            .count();
        let f_mean = (ops.len() - nc) as f64 / nc as f64;
        assert!((18.0..22.0).contains(&f_mean), "mean f = {f_mean}");
        assert!(!matches!(ops[0].kind, Kind::Inc(_)), "a cycle opens first");
        assert!(ops.iter().any(|g| g.kind == Kind::Read));
        assert!(ops.iter().any(|g| matches!(g.kind, Kind::Set(_))));
        let origins: Vec<usize> = ops.iter().take(8).map(|g| g.origin).collect();
        let mut sorted = origins.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "members rotate");
    }

    #[test]
    fn every_workload_is_known_by_name() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }
}

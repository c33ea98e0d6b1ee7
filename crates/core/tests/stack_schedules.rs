//! Random schedules through the whole stack, judged by the oracle checks.
//!
//! Each property generates a schedule — group size, simulation seed,
//! latency range, drop and duplicate rates, and a sequence of operations
//! (sender, payload, chained to the previous operation or not, gap before
//! the next) — runs it on the simulator, and checks what every member
//! must agree on: exactly-once delivery of every operation, declared
//! (graph) or potential (vector) causality in every log, and equal
//! replica values. (Random schedules leave non-commutative operations
//! concurrent, so stable points need not agree across members here; the
//! paper's reproducibility claim is checked on disciplined workloads in
//! `core_props` and `tests/e2e_counter.rs`.) The virtual-synchrony
//! property crashes a member mid-schedule and checks the survivors'
//! views too.

use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_core::check;
use causal_core::delivery::Delivered;
use causal_core::osend::OccursAfter;
use causal_core::stack::{App, CausalNode, CbcastNode, Emitter, VsyncConfig};
use causal_core::statemachine::OpClass;
use causal_core::trace::{MemberTrace, TraceEvent};
use causal_simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

#[derive(Debug, Clone)]
struct Schedule {
    n: usize,
    seed: u64,
    lat_lo: u64,
    lat_hi: u64,
    drop_pct: u8,
    dup_pct: u8,
    /// (sender, payload, chain to the previous op, gap after, µs)
    ops: Vec<(usize, i64, bool, u64)>,
}

impl Schedule {
    fn net(&self) -> NetConfig {
        NetConfig::with_latency(LatencyModel::uniform_micros(self.lat_lo, self.lat_hi)).faults(
            FaultPlan::new()
                .with_drop_prob(f64::from(self.drop_pct) / 100.0)
                .with_dup_prob(f64::from(self.dup_pct) / 100.0),
        )
    }
}

fn arb_schedule(max_ops: usize, max_drop_pct: u8) -> impl Strategy<Value = Schedule> {
    (2usize..=4, 0u64..10_000).prop_flat_map(move |(n, seed)| {
        let ops = proptest::collection::vec((0..n, 1i64..=20, 0u8..2, 0u64..2500), 1..=max_ops);
        (
            Just(n),
            Just(seed),
            10u64..200,
            200u64..4000,
            0u8..=max_drop_pct,
            0u8..=10,
            ops,
        )
            .prop_map(
                |(n, seed, lat_lo, lat_hi, drop_pct, dup_pct, raw)| Schedule {
                    n,
                    seed,
                    lat_lo,
                    lat_hi,
                    drop_pct,
                    dup_pct,
                    ops: raw
                        .into_iter()
                        .map(|(s, v, c, g)| (s, v, c == 1, g))
                        .collect(),
                },
            )
    })
}

/// Counter app: payloads 1..=9 commute, larger ones close stable points.
#[derive(Debug, Default)]
struct Sum {
    value: i64,
}

impl App for Sum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
        self.value += *env.payload;
    }
    fn classify(&self, op: &i64) -> OpClass {
        if (1..=9).contains(op) {
            OpClass::Commutative
        } else {
            OpClass::NonCommutative
        }
    }
}

/// What one member ended with.
#[derive(Debug)]
struct Member {
    value: i64,
    /// `(id, declared deps, vector timestamp)` in delivery order.
    deliveries: Vec<(MsgId, Option<Vec<MsgId>>, Option<VectorClock>)>,
    stable_points: Vec<MsgId>,
    views: Vec<Vec<ProcessId>>,
    pending: usize,
}

fn member(trace: &MemberTrace, value: i64, pending: usize) -> Member {
    let mut m = Member {
        value,
        deliveries: Vec::new(),
        stable_points: Vec::new(),
        views: Vec::new(),
        pending,
    };
    for e in trace.events() {
        match e {
            TraceEvent::Deliver { id, deps, vt, .. } => {
                m.deliveries.push((*id, deps.clone(), vt.clone()))
            }
            TraceEvent::StablePoint { msg, .. } => m.stable_points.push(*msg),
            TraceEvent::ViewInstalled { view } => m.views.push(view.members().to_vec()),
            _ => {}
        }
    }
    m
}

fn after_for(chain: bool, prev: Option<MsgId>) -> OccursAfter {
    match prev {
        Some(id) if chain => OccursAfter::message(id),
        _ => OccursAfter::none(),
    }
}

/// Every member delivered exactly the `sent` operations, once each, and
/// nothing is left buffered.
fn exactly_once(members: &[Member], sent: &BTreeSet<MsgId>) -> Result<(), String> {
    for (i, m) in members.iter().enumerate() {
        let ids: BTreeSet<MsgId> = m.deliveries.iter().map(|d| d.0).collect();
        if ids.len() != m.deliveries.len() {
            return Err(format!("member {i} delivered a message twice"));
        }
        if &ids != sent {
            return Err(format!("member {i} delivered {ids:?}, sent {sent:?}"));
        }
        if m.pending != 0 {
            return Err(format!("member {i} still buffers {}", m.pending));
        }
    }
    Ok(())
}

/// Declared causality in every log, and equal values.
fn graph_agreement(members: &[Member]) -> Result<(), String> {
    for (i, m) in members.iter().enumerate() {
        let with_deps: Vec<(MsgId, Vec<MsgId>)> = m
            .deliveries
            .iter()
            .map(|(id, deps, _)| (*id, deps.clone().unwrap_or_default()))
            .collect();
        check::causal_order_respected(&with_deps, i).map_err(|v| format!("{v:?}"))?;
    }
    let values: Vec<i64> = members.iter().map(|m| m.value).collect();
    if !check::replicas_agree(&values) {
        return Err(format!("values differ: {values:?}"));
    }
    Ok(())
}

fn run_causal(s: &Schedule, gc: bool) -> (Vec<Member>, BTreeSet<MsgId>) {
    let nodes: Vec<CausalNode<Sum>> = (0..s.n)
        .map(|i| {
            let node = CausalNode::new(p(i), s.n, Sum::default()).with_tracing();
            if gc {
                node.with_gc(s.n, 4)
            } else {
                node
            }
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let mut prev: Option<MsgId> = None;
    let mut sent = BTreeSet::new();
    for &(sender, payload, chain, gap) in &s.ops {
        let after = after_for(chain, prev);
        prev = sim.poke(p(sender), move |node, ctx| node.osend(ctx, payload, after));
        sent.extend(prev);
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    let members = (0..s.n)
        .map(|i| {
            let node = sim.node(p(i));
            member(node.trace().unwrap(), node.app().value, node.pending_len())
        })
        .collect();
    (members, sent)
}

fn run_cbcast(s: &Schedule) -> (Vec<Member>, BTreeSet<MsgId>) {
    let nodes: Vec<CbcastNode<Sum>> = (0..s.n)
        .map(|i| CbcastNode::new(p(i), s.n, Sum::default()).with_tracing())
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let mut sent = BTreeSet::new();
    for &(sender, payload, _chain, gap) in &s.ops {
        sent.extend(sim.poke(p(sender), move |node, ctx| node.broadcast(ctx, payload)));
        if gap > 0 {
            let deadline = sim.now() + SimDuration::from_micros(gap);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    let members = (0..s.n)
        .map(|i| {
            let node = sim.node(p(i));
            member(node.trace().unwrap(), node.app().value, node.pending_len())
        })
        .collect();
    (members, sent)
}

/// Runs `s` on a view-synchronous group whose last member crashes before
/// operation `crash_after`; later operations go to survivors. Returns the
/// survivors and what they sent.
fn run_vsync(s: &Schedule, crash_after: usize) -> (Vec<Member>, BTreeSet<MsgId>) {
    let nodes: Vec<CausalNode<Sum>> = (0..s.n)
        .map(|i| {
            CausalNode::with_membership(p(i), s.n, Sum::default(), VsyncConfig::default())
                .with_tracing()
        })
        .collect();
    let mut sim = Simulation::new(nodes, s.net(), s.seed);
    let survivors = s.n - 1;
    let mut sent = BTreeSet::new();
    for (k, &(sender, payload, chain, gap)) in s.ops.iter().enumerate() {
        if k == crash_after {
            sim.node_mut(p(survivors)).crash();
        }
        let sender = if k >= crash_after {
            sender % survivors
        } else {
            sender
        };
        let after = after_for(chain, None);
        let id = sim.poke(p(sender), move |node, ctx| node.osend(ctx, payload, after));
        if k >= crash_after || sender != survivors {
            sent.extend(id);
        }
        let deadline = sim.now() + SimDuration::from_micros(400 + gap);
        sim.run_until(deadline);
    }
    sim.run_until(SimTime::from_millis(150));
    let members = (0..survivors)
        .map(|i| {
            let node = sim.node(p(i));
            member(node.trace().unwrap(), node.app().value, node.pending_len())
        })
        .collect();
    (members, sent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The graph-engine stack delivers every operation exactly once at
    /// every member, in declared causal order, with equal values — under
    /// loss up to 40 % and duplication.
    #[test]
    fn stack_random_schedules_causal_node(s in arb_schedule(24, 40)) {
        let (members, sent) = run_causal(&s, false);
        prop_assert_eq!(exactly_once(&members, &sent), Ok(()), "schedule {:?}", s);
        prop_assert_eq!(graph_agreement(&members), Ok(()), "schedule {:?}", s);
    }

    /// The same with stability gossip and garbage collection on; the
    /// final value equals the GC-off run's.
    #[test]
    fn stack_random_schedules_causal_node_with_gc(s in arb_schedule(24, 30)) {
        let (members, sent) = run_causal(&s, true);
        prop_assert_eq!(exactly_once(&members, &sent), Ok(()), "schedule {:?}", s);
        prop_assert_eq!(graph_agreement(&members), Ok(()), "schedule {:?}", s);
        let (plain, _) = run_causal(&s, false);
        prop_assert_eq!(members[0].value, plain[0].value);
    }

    /// The vector-clock stack delivers every operation exactly once in
    /// potential-causality order, with equal values and no stable points.
    #[test]
    fn stack_random_schedules_cbcast_node(s in arb_schedule(24, 40)) {
        let (members, sent) = run_cbcast(&s);
        prop_assert_eq!(exactly_once(&members, &sent), Ok(()), "schedule {:?}", s);
        let logs: Vec<Vec<(MsgId, VectorClock)>> = members
            .iter()
            .map(|m| m.deliveries.iter().map(|d| (d.0, d.2.clone().unwrap())).collect())
            .collect();
        prop_assert!(check::vt_logs_respect_causality(&logs).is_ok(), "schedule {:?}", s);
        let values: Vec<i64> = members.iter().map(|m| m.value).collect();
        prop_assert!(check::replicas_agree(&values), "values {:?}", values);
        prop_assert!(members.iter().all(|m| m.stable_points.is_empty()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// With membership on, a member crashing mid-schedule is removed by
    /// one view change that every survivor installs; the survivors then
    /// agree on values and on what they delivered, and each delivered
    /// every operation a survivor sent, exactly once.
    #[test]
    fn stack_random_schedules_vsync_node_through_crash(
        s in arb_schedule(12, 15).prop_flat_map(|s| {
            let n_ops = s.ops.len();
            (Just(s), 0..n_ops)
        }),
    ) {
        let (mut s, crash_after) = s;
        // A majority must survive.
        if s.n < 3 {
            s.n = 3;
            for op in &mut s.ops {
                op.0 %= 3;
            }
        }
        let (survivors, sent) = run_vsync(&s, crash_after);
        let expected: Vec<ProcessId> = (0..s.n - 1).map(p).collect();
        for m in &survivors {
            prop_assert_eq!(m.views.last(), Some(&expected), "schedule {:?}", s);
            prop_assert_eq!(&m.views, &survivors[0].views);
            prop_assert_eq!(m.pending, 0);
        }
        let delivered: Vec<BTreeSet<MsgId>> = survivors
            .iter()
            .map(|m| m.deliveries.iter().map(|d| d.0).collect())
            .collect();
        prop_assert!(check::replicas_agree(&delivered), "schedule {:?}", s);
        prop_assert!(sent.is_subset(&delivered[0]), "schedule {:?}", s);
        prop_assert_eq!(graph_agreement(&survivors), Ok(()), "schedule {:?}", s);
        prop_assert!(survivors.iter().all(|m| {
            m.deliveries.len() == m.deliveries.iter().map(|d| d.0).collect::<BTreeSet<_>>().len()
        }));
    }
}

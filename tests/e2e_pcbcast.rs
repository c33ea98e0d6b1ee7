//! End-to-end PC-broadcast: the constant-overhead routed engine running
//! the full stack over the simulated network — static trees under loss,
//! duplication and reordering, then dynamic groups with crashes driving
//! the overlay's quarantine/flush protocol. Every run records per-member
//! traces and replays them through the `causal-verify` oracle.

use causal_broadcast::clocks::{MsgId, ProcessId};
use causal_broadcast::core::delivery::{Delivered, DeliveryEngine};
use causal_broadcast::core::osend::OccursAfter;
use causal_broadcast::core::stack::{App, CbcastNode, Emitter, PcNode};
use causal_broadcast::core::stack::{ProtocolStack, VsyncConfig};
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::membership::GroupView;
use causal_broadcast::simnet::{
    FaultPlan, LatencyModel, NetConfig, SimDuration, SimTime, Simulation,
};
use causal_verify::{check_trace, OracleConfig, OracleReport, Trace};

#[derive(Debug, Default)]
struct Sum {
    value: i64,
    deliveries: Vec<i64>,
}

impl App for Sum {
    type Op = i64;
    fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
        self.value += *env.payload;
        self.deliveries.push(*env.payload);
    }
    fn classify(&self, _op: &i64) -> OpClass {
        OpClass::Commutative
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn static_group(n: usize) -> Vec<PcNode<Sum>> {
    (0..n)
        .map(|i| PcNode::new(p(i as u32), n, Sum::default()).with_tracing())
        .collect()
}

fn vsync_group(n: usize) -> Vec<PcNode<Sum>> {
    (0..n)
        .map(|i| {
            PcNode::with_membership(p(i as u32), n, Sum::default(), VsyncConfig::default())
                .with_tracing()
        })
        .collect()
}

fn assert_oracle_clean<D, A>(
    sim: &Simulation<ProtocolStack<D, A>>,
    n: usize,
    tag: &str,
) -> OracleReport
where
    D: DeliveryEngine,
    A: App<Op = D::Op>,
{
    let trace = Trace::new(
        (0..n)
            .filter_map(|i| sim.node(p(i as u32)).trace().cloned())
            .collect(),
    );
    match check_trace(&trace, &OracleConfig::default()) {
        Ok(report) => report,
        Err(v) => panic!("oracle violation ({tag}): {v}"),
    }
}

#[test]
fn static_tree_converges_under_loss_dup_and_reorder() {
    for seed in 0..5 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3));
        let mut sim = Simulation::new(static_group(9), cfg, seed);
        for k in 0..30u32 {
            sim.poke(p(k % 9), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(500);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        for i in 0..9 {
            assert_eq!(sim.node(p(i)).app().value, 30, "seed {seed} member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0, "seed {seed} member {i}");
        }
        assert!(sim.metrics().dropped > 0, "fault injection must trigger");
        let report = assert_oracle_clean(&sim, 9, &format!("seed {seed}"));
        assert_eq!(report.deliveries, 9 * 30, "seed {seed}");
    }
}

#[test]
fn forwarding_preserves_causal_chains_through_the_tree() {
    // A dependent chain extended by reaction at one member; with fanout 4
    // and 17 members the chain crosses two tree hops, and heavy loss
    // reorders the link streams. Per-link FIFO must still deliver the
    // chain in order at every member.
    #[derive(Debug, Default)]
    struct Chainer {
        me: Option<ProcessId>,
        seen: Vec<i64>,
    }
    impl App for Chainer {
        type Op = i64;
        fn on_start(&mut self, me: ProcessId, _out: &mut Emitter<i64>) {
            self.me = Some(me);
        }
        fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
            self.seen.push(*env.payload);
            if self.me == Some(ProcessId::new(16)) && *env.payload < 8 {
                out.broadcast(*env.payload + 1);
            }
        }
        fn classify(&self, _op: &i64) -> OpClass {
            OpClass::Commutative
        }
    }

    for seed in 0..4 {
        let nodes: Vec<PcNode<Chainer>> = (0..17)
            .map(|i| PcNode::new(p(i), 17, Chainer::default()).with_tracing())
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 4000))
            .faults(FaultPlan::new().with_drop_prob(0.35));
        let mut sim = Simulation::new(nodes, cfg, seed);
        sim.poke(p(0), |node, ctx| {
            node.broadcast(ctx, 0i64);
        });
        sim.run_to_quiescence();
        for i in 0..17 {
            let seen = &sim.node(p(i)).app().seen;
            let positions: Vec<usize> = (0..=8)
                .map(|v| {
                    seen.iter()
                        .position(|&x| x == v)
                        .unwrap_or_else(|| panic!("seed {seed} member {i} missing {v}: {seen:?}"))
                })
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} member {i}: chain inverted: {seen:?}"
            );
        }
        assert_oracle_clean(&sim, 17, &format!("chain seed {seed}"));
    }
}

#[test]
fn crash_relinks_the_overlay_and_survivors_converge() {
    // With fanout 4 and 6 members, member 5 hangs off member 1. Crashing
    // p1 severs p5 from the tree until the view change re-parents it onto
    // p0 through a fresh (quarantined) link, whose pong-triggered flush
    // must recover everything p5 missed — and spread p5's own stranded
    // broadcasts back to the group.
    for seed in 0..4 {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 900));
        let mut sim = Simulation::new(vsync_group(6), cfg, seed);
        for k in 0..12u32 {
            sim.poke(p(k % 6), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_micros(700);
            sim.run_until(deadline);
        }
        sim.node_mut(p(1)).crash();
        sim.run_until(SimTime::from_millis(40));
        // Post-churn traffic, including from the re-parented leaf.
        for k in 0..6u32 {
            let submitter = [0u32, 2, 3, 4, 5, 5][k as usize];
            sim.poke(p(submitter), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            let deadline = sim.now() + SimDuration::from_millis(1);
            sim.run_until(deadline);
        }
        sim.run_until(sim.now() + SimDuration::from_millis(60));

        let expected = GroupView::initial(6).without(p(1));
        let survivors = [0u32, 2, 3, 4, 5];
        for &i in &survivors {
            assert_eq!(sim.node(p(i)).view(), &expected, "seed {seed} member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0, "seed {seed} member {i}");
        }
        let values: Vec<i64> = survivors
            .iter()
            .map(|&i| sim.node(p(i)).app().value)
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: survivors split {values:?}"
        );
        assert_eq!(values[0], 18, "seed {seed}: {values:?}");
        // The fresh link really went through quarantine.
        assert_eq!(sim.node(p(5)).engine().quarantined_links(), 0);
        let report = assert_oracle_clean(&sim, 6, &format!("crash seed {seed}"));
        assert!(report.views_compared > 0, "seed {seed}: view check engaged");
    }
}

#[test]
fn coordinator_crash_is_survived_under_pc() {
    // The tree root doubles as view coordinator here: its crash forces
    // both a membership takeover and a complete re-rooting of the overlay
    // (every surviving inner link was a root link).
    let cfg = NetConfig::with_latency(LatencyModel::constant_micros(300));
    let mut sim = Simulation::new(vsync_group(4), cfg, 2);
    sim.poke(p(1), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(4));
    sim.node_mut(p(0)).crash();
    sim.run_until(SimTime::from_millis(60));
    let expected = GroupView::initial(4).without(p(0));
    for i in 1..4u32 {
        assert_eq!(sim.node(p(i)).view(), &expected, "member {i}");
        assert_eq!(sim.node(p(i)).app().value, 1, "member {i}");
    }
    sim.poke(p(2), |node, ctx| {
        node.osend(ctx, 1, OccursAfter::none());
    });
    sim.run_until(SimTime::from_millis(100));
    for i in 1..4u32 {
        assert_eq!(sim.node(p(i)).app().value, 2, "member {i}");
    }
    assert_oracle_clean(&sim, 4, "pc coordinator takeover");
}

/// What a member ends a run with: its counter and the ids it delivered,
/// sorted.
type FinalState = (i64, Vec<MsgId>);

/// Submits `ops` increments from rotating members under 30 % loss and
/// 30 % duplication, runs to quiescence, and checks the traces with the
/// oracle. Returns every member's final state and the largest
/// `retained_state()` any member held at the end.
fn run_under_faults<D>(
    nodes: Vec<ProtocolStack<D, Sum>>,
    ops: u32,
    seed: u64,
    tag: &str,
) -> (Vec<FinalState>, usize)
where
    D: DeliveryEngine<Op = i64>,
{
    let n = nodes.len();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
        .faults(FaultPlan::new().with_drop_prob(0.3).with_dup_prob(0.3));
    let mut sim = Simulation::new(nodes, cfg, seed);
    for k in 0..ops {
        sim.poke(p(k % n as u32), |node, ctx| {
            node.osend(ctx, 1, OccursAfter::none());
        });
        let deadline = sim.now() + SimDuration::from_micros(300);
        sim.run_until(deadline);
    }
    sim.run_to_quiescence();
    assert!(
        sim.metrics().dropped > 0,
        "{tag}: fault injection must trigger"
    );
    let report = assert_oracle_clean(&sim, n, tag);
    assert_eq!(report.deliveries, n * ops as usize, "{tag}");
    let states = (0..n)
        .map(|i| {
            let node = sim.node(p(i as u32));
            assert_eq!(node.pending_len(), 0, "{tag} member {i}");
            let mut ids = node.log().to_vec();
            ids.sort_unstable();
            (node.app().value, ids)
        })
        .collect();
    let retained = (0..n)
        .map(|i| sim.node(p(i as u32)).retained_state())
        .max()
        .unwrap_or(0);
    (states, retained)
}

/// Runs the same faulty workload on `n` members built by `make` with GC
/// off and on (a report every 4 deliveries), for three seeds: GC must not
/// change any member's final state, and must keep under an eighth of the
/// per-message state the GC-off run keeps.
fn assert_gc_is_invisible_and_bounded<D>(
    n: usize,
    ops: u32,
    make: impl Fn(ProcessId) -> ProtocolStack<D, Sum>,
) where
    D: DeliveryEngine<Op = i64>,
{
    for seed in 0..3 {
        let group = |gc: bool| -> Vec<ProtocolStack<D, Sum>> {
            (0..n)
                .map(|i| {
                    let node = make(p(i as u32)).with_tracing();
                    if gc {
                        node.with_gc(n, 4)
                    } else {
                        node
                    }
                })
                .collect()
        };
        let (off, kept_off) =
            run_under_faults(group(false), ops, seed, &format!("gc off seed {seed}"));
        let (on, kept_on) = run_under_faults(group(true), ops, seed, &format!("gc on seed {seed}"));
        assert_eq!(on, off, "seed {seed}: GC changed a final state");
        assert!(on.iter().all(|(value, _)| *value == ops as i64));
        assert!(
            kept_on * 8 < kept_off,
            "seed {seed}: GC should bound retained state: {kept_on} vs {kept_off}"
        );
    }
}

#[test]
fn static_tree_gc_matches_gc_off_under_loss_and_dup() {
    assert_gc_is_invisible_and_bounded(9, 720, |me| PcNode::new(me, 9, Sum::default()));
}

#[test]
fn vector_engine_gc_matches_gc_off_under_loss_and_dup() {
    assert_gc_is_invisible_and_bounded(4, 480, |me| CbcastNode::new(me, 4, Sum::default()));
}

//! Cross-crate property tests: randomized §6.1 workloads, fault plans,
//! and network seeds through the full stack, with the paper's claims as
//! the properties.

use causal_broadcast::clocks::{MsgId, ProcessId};
use causal_broadcast::core::check;
use causal_broadcast::core::stack::CausalNode;
use causal_broadcast::core::statemachine::OpClass;
use causal_broadcast::replica::counter::{CounterOp, CounterReplica};
use causal_broadcast::replica::frontend::FrontEndManager;
use causal_broadcast::simnet::{FaultPlan, LatencyModel, NetConfig, SimDuration, Simulation};
use proptest::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A randomized workload description for one run.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    /// Cycle descriptions: number of commutative ops in each cycle.
    cycles: Vec<usize>,
    seed: u64,
    drop_prob: f64,
    interval_us: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..6,
        proptest::collection::vec(0usize..8, 1..5),
        any::<u64>(),
        prop_oneof![Just(0.0), Just(0.15), Just(0.35)],
        100u64..1500,
    )
        .prop_map(|(n, cycles, seed, drop_prob, interval_us)| Scenario {
            n,
            cycles,
            seed,
            drop_prob,
            interval_us,
        })
}

fn run_scenario(s: &Scenario) -> Simulation<CausalNode<CounterReplica>> {
    let nodes: Vec<CausalNode<CounterReplica>> = (0..s.n)
        .map(|i| CausalNode::new(p(i as u32), s.n, CounterReplica::new()))
        .collect();
    let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 3000))
        .faults(FaultPlan::new().with_drop_prob(s.drop_prob));
    let mut sim = Simulation::new(nodes, cfg, s.seed);
    let mut fe = FrontEndManager::new();
    let mut submitter = 0usize;
    for (cycle, &width) in s.cycles.iter().enumerate() {
        let after = fe.ordering_for(OpClass::NonCommutative);
        let nc = if cycle % 2 == 0 {
            CounterOp::Set(cycle as i64)
        } else {
            CounterOp::Read
        };
        let id = sim
            .poke(p((submitter % s.n) as u32), move |node, ctx| {
                node.osend(ctx, nc, after)
            })
            .unwrap();
        fe.record(id, OpClass::NonCommutative);
        submitter += 1;
        for k in 0..width {
            let after = fe.ordering_for(OpClass::Commutative);
            let op = CounterOp::Inc(k as i64 + 1);
            let id = sim
                .poke(p((submitter % s.n) as u32), move |node, ctx| {
                    node.osend(ctx, op, after)
                })
                .unwrap();
            fe.record(id, OpClass::Commutative);
            submitter += 1;
            let deadline = sim.now() + SimDuration::from_micros(s.interval_us);
            sim.run_until(deadline);
        }
    }
    sim.run_to_quiescence();
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Everything is delivered everywhere, exactly once.
    #[test]
    fn delivery_is_exactly_once_everywhere(s in arb_scenario()) {
        let sim = run_scenario(&s);
        let total: usize = s.cycles.iter().map(|w| w + 1).sum();
        for i in 0..s.n {
            prop_assert_eq!(sim.node(p(i as u32)).log().len(), total);
            prop_assert_eq!(sim.node(p(i as u32)).pending_len(), 0);
        }
    }

    /// Delivery logs respect the declared causal order and linearize one
    /// common graph.
    #[test]
    fn causality_respected_under_any_faults(s in arb_scenario()) {
        let sim = run_scenario(&s);
        let graph = sim.node(p(0)).graph().clone();
        for i in 0..s.n {
            let log = sim.node(p(i as u32)).log_with_deps();
            prop_assert!(check::causal_order_respected(&log, i).is_ok());
        }
        let logs: Vec<Vec<MsgId>> = (0..s.n)
            .map(|i| sim.node(p(i as u32)).log().to_vec())
            .collect();
        prop_assert!(check::logs_linearize_graph(&graph, &logs).is_ok());
    }

    /// Stable points occur at the same messages with the same activity
    /// contents at every member, and every member agrees on read values
    /// and the final state.
    #[test]
    fn agreement_without_protocol(s in arb_scenario()) {
        let sim = run_scenario(&s);
        let logs: Vec<_> = (0..s.n)
            .map(|i| sim.node(p(i as u32)).log_entries().to_vec())
            .collect();
        prop_assert!(check::stable_points_consistent(&logs).is_ok());

        let values: Vec<i64> = (0..s.n).map(|i| sim.node(p(i as u32)).app().value()).collect();
        prop_assert!(check::replicas_agree(&values));

        let reads: Vec<_> = (0..s.n)
            .map(|i| sim.node(p(i as u32)).app().read_answers().to_vec())
            .collect();
        prop_assert!(check::replicas_agree(&reads));

        // Every nc message closed a stable point at every member.
        for i in 0..s.n {
            prop_assert_eq!(
                sim.node(p(i as u32)).stats().stable_points as usize,
                s.cycles.len()
            );
        }
    }
}

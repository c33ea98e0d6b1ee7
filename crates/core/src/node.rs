//! Engine aliases over the unified [`stack`](crate::stack): static groups
//! running Figure 4 of the paper.
//!
//! [`CausalNode`] hosts an application ([`App`]) on one group member and
//! instantiates [`ProtocolStack`] with the
//! explicit-graph engine — the paper's layering, composed once in
//! `stack.rs`:
//!
//! ```text
//!        application            (App: data-access operations)
//!   ───────────────────────
//!    stable-point detection     (stable::StablePointDetector)
//!   ───────────────────────
//!    causal delivery            (delivery::GraphDelivery — OSend order)
//!   ───────────────────────
//!    reliable broadcast         (rbcast::ReliableBroadcast — ack/rtx)
//!   ───────────────────────
//!    network                    (simnet / threaded runtime / TCP)
//! ```
//!
//! [`CbcastNode`] is the same stack with vector-clock (CBCAST) delivery in
//! place of the explicit graph engine, used by the semantic-vs-potential
//! causality ablation. Because the stack is generic over its
//! [`DeliveryEngine`](crate::delivery::DeliveryEngine), the two nodes share
//! every line of reliability, stability-GC, and stable-point code — they
//! differ only in the engine type parameter.
//!
//! This module re-exports the stack's app-facing vocabulary so protocol
//! call sites keep reading like the paper; the view-synchronous
//! instantiation lives in [`vsync`](crate::vsync).

pub use crate::stack::{
    App, BcastWire, CausalNode, CbcastNode, Emitter, NodeStats, PcNode, PcWire, ProtocolStack,
    StackWire, Timed, WireMsg, DEFAULT_RETRANSMIT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::Delivered;
    use crate::osend::OccursAfter;
    use crate::rbcast::RbMsg;
    use crate::statemachine::OpClass;
    use crate::wire::WireEncode;
    use causal_clocks::{MsgId, ProcessId, VectorClock};
    use causal_simnet::{
        Actor, Command, Context, FaultPlan, LatencyModel, NetConfig, SimTime, Simulation,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Accumulating integer counter: Add(k) sums, no reaction. Payloads
    /// `1..=9` model commutative increments; anything else is a
    /// synchronization (non-commutative) operation.
    #[derive(Debug, Default)]
    struct Sum {
        value: i64,
        seen: Vec<MsgId>,
    }

    impl App for Sum {
        type Op = i64;
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            self.value += *env.payload;
            self.seen.push(env.id);
        }
        fn classify(&self, op: &i64) -> OpClass {
            if (1..=9).contains(op) {
                OpClass::Commutative
            } else {
                OpClass::NonCommutative
            }
        }
    }

    fn group(n: usize) -> Vec<CausalNode<Sum>> {
        (0..n)
            .map(|i| CausalNode::new(ProcessId::new(i as u32), n, Sum::default()))
            .collect()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn broadcast_reaches_every_member() {
        let mut sim = Simulation::new(group(3), NetConfig::new(), 7);
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 5, OccursAfter::none());
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 5);
            assert_eq!(sim.node(p(i)).stats().delivered, 1);
        }
    }

    #[test]
    fn causal_order_enforced_across_members() {
        // p0 sends a; p1, upon delivering a, sends b after a. Every member
        // must deliver a before b regardless of network jitter.
        #[derive(Debug, Default)]
        struct Reactor {
            log: Vec<i64>,
            reacted: bool,
        }
        impl App for Reactor {
            type Op = i64;
            fn on_deliver(&mut self, env: Delivered<'_, i64>, out: &mut Emitter<i64>) {
                self.log.push(*env.payload);
                if *env.payload == 1 && !self.reacted {
                    self.reacted = true;
                    out.osend(2, OccursAfter::message(env.id));
                }
            }
        }
        for seed in 0..20 {
            let nodes: Vec<CausalNode<Reactor>> = (0..4)
                .map(|i| CausalNode::new(p(i), 4, Reactor::default()))
                .collect();
            let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 5000));
            let mut sim = Simulation::new(nodes, cfg, seed);
            sim.poke(p(0), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
            sim.run_to_quiescence();
            for i in 0..4 {
                // Only p1 reacts (the others also see payload 1 but we let
                // them react too — dedupe by `reacted` makes 1 reaction per
                // member; ordering must still hold pairwise).
                let log = &sim.node(p(i)).app().log;
                let pos1 = log.iter().position(|&v| v == 1).unwrap();
                for (j, &v) in log.iter().enumerate() {
                    if v == 2 {
                        assert!(j > pos1, "seed {seed}: 2 delivered before 1");
                    }
                }
            }
        }
    }

    #[test]
    fn lossy_network_still_delivers_everywhere() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 1000))
            .faults(FaultPlan::new().with_drop_prob(0.4).with_dup_prob(0.1));
        let mut sim = Simulation::new(group(4), cfg, 99);
        for k in 0..10 {
            let sender = p(k % 4);
            sim.poke(sender, |node, ctx| {
                node.osend(ctx, 1, OccursAfter::none());
            });
        }
        sim.run_to_quiescence();
        for i in 0..4 {
            assert_eq!(sim.node(p(i)).app().value, 10, "member {i}");
            assert_eq!(sim.node(p(i)).pending_len(), 0);
        }
        // Reliability cost was actually exercised.
        assert!(sim.metrics().dropped > 0);
    }

    #[test]
    fn stable_points_detected_in_simulation() {
        let mut sim = Simulation::new(group(3), NetConfig::new(), 3);
        let nc0 = sim
            .poke(p(0), |node, ctx| node.osend(ctx, 100, OccursAfter::none()))
            .unwrap();
        sim.run_to_quiescence();
        let c1 = sim
            .poke(p(1), |node, ctx| {
                node.osend(ctx, 1, OccursAfter::message(nc0))
            })
            .unwrap();
        let c2 = sim
            .poke(p(2), |node, ctx| {
                node.osend(ctx, 2, OccursAfter::message(nc0))
            })
            .unwrap();
        sim.run_to_quiescence();
        sim.poke(p(0), |node, ctx| {
            node.osend(ctx, 0, OccursAfter::all([c1, c2]))
        });
        sim.run_to_quiescence();
        for i in 0..3 {
            let node = sim.node(p(i));
            assert_eq!(node.stats().stable_points, 2, "member {i}");
            let points: Vec<MsgId> = node.stable_points().iter().map(|sp| sp.msg).collect();
            assert_eq!(points, vec![nc0, sim.node(p(0)).log()[3]]);
            assert_eq!(node.app().value, 103);
        }
    }

    #[test]
    fn logs_are_linearizations_of_a_common_graph() {
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(10, 4000));
        let mut sim = Simulation::new(group(4), cfg, 17);
        let root = sim
            .poke(p(0), |n, ctx| n.osend(ctx, 1, OccursAfter::none()))
            .unwrap();
        sim.run_to_quiescence();
        for i in 1..4 {
            sim.poke(p(i), |n, ctx| n.osend(ctx, 1, OccursAfter::message(root)));
        }
        sim.run_to_quiescence();
        let graph = sim.node(p(0)).graph().clone();
        let logs: Vec<Vec<MsgId>> = (0..4).map(|i| sim.node(p(i)).log().to_vec()).collect();
        assert!(crate::check::logs_linearize_graph(&graph, &logs).is_ok());
        for log in &logs {
            assert_eq!(log.first(), Some(&root));
        }
    }

    /// CBCAST app that just sums — same unified [`App`] trait; the
    /// vector-clock engine hands it `deps: None`.
    #[derive(Debug, Default)]
    struct VtSum {
        value: i64,
    }
    impl App for VtSum {
        type Op = i64;
        fn on_deliver(&mut self, env: Delivered<'_, i64>, _out: &mut Emitter<i64>) {
            assert!(env.deps.is_none(), "cbcast carries no explicit deps");
            self.value += *env.payload;
        }
    }

    #[test]
    fn gc_bounds_retained_state() {
        let n = 3;
        let run = |gc: bool| {
            let nodes: Vec<CausalNode<Sum>> = (0..n)
                .map(|i| {
                    let node = CausalNode::new(p(i as u32), n, Sum::default());
                    if gc {
                        node.with_gc(n, 5)
                    } else {
                        node
                    }
                })
                .collect();
            let mut sim = Simulation::new(nodes, NetConfig::new(), 42);
            for k in 0..200u32 {
                sim.poke(p(k % n as u32), |node, ctx| {
                    node.osend(ctx, 1, OccursAfter::none());
                });
                let deadline = sim.now() + causal_simnet::SimDuration::from_millis(1);
                sim.run_until(deadline);
            }
            sim.run_to_quiescence();
            // Correctness unaffected by GC.
            for i in 0..n {
                assert_eq!(sim.node(p(i as u32)).app().value, 200);
            }
            (0..n)
                .map(|i| sim.node(p(i as u32)).retained_state())
                .max()
                .unwrap()
        };
        let without_gc = run(false);
        let with_gc = run(true);
        assert!(
            with_gc * 4 < without_gc,
            "GC should bound retained state: {with_gc} vs {without_gc}"
        );
    }

    #[test]
    fn gc_preserves_causal_ordering() {
        // Chained sends keep depending on compacted messages; deliveries
        // must still respect the chain.
        let n = 3;
        let nodes: Vec<CausalNode<Sum>> = (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, Sum::default()).with_gc(n, 3))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.2));
        let mut sim = Simulation::new(nodes, cfg, 9);
        let mut prev: Option<MsgId> = None;
        for _ in 0..50 {
            let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
            prev = sim.poke(p(0), move |node, ctx| node.osend(ctx, 1, after));
            let deadline = sim.now() + causal_simnet::SimDuration::from_millis(2);
            sim.run_until(deadline);
        }
        sim.run_to_quiescence();
        for i in 0..n {
            assert_eq!(sim.node(p(i as u32)).app().value, 50);
            // Log order must equal send order (it is a chain).
            let seqs: Vec<u64> = sim
                .node(p(i as u32))
                .log()
                .iter()
                .map(|m| m.seq())
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
    }

    #[test]
    fn cbcast_node_group_converges_under_loss() {
        let nodes: Vec<CbcastNode<VtSum>> = (0..3)
            .map(|i| CbcastNode::new(p(i), 3, VtSum::default()))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(50, 2000))
            .faults(FaultPlan::new().with_drop_prob(0.3));
        let mut sim = Simulation::new(nodes, cfg, 5);
        for k in 0..9 {
            sim.poke(p(k % 3), |node, ctx| {
                node.broadcast(ctx, 1);
            });
        }
        sim.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(sim.node(p(i)).app().value, 9);
            assert_eq!(sim.node(p(i)).pending_len(), 0);
            assert_eq!(sim.node(p(i)).log().len(), 9);
            // The vector-clock engine never closes stable points.
            assert_eq!(sim.node(p(i)).stats().stable_points, 0);
        }
    }

    /// Runs one callback of `node` at time zero and returns the messages
    /// it sent, one `(destination, message)` per copy.
    fn step(
        node: &mut CausalNode<Sum>,
        f: impl FnOnce(&mut CausalNode<Sum>, &mut Context<'_, WireMsg<Sum>>),
    ) -> Vec<(ProcessId, WireMsg<Sum>)> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(node.me(), SimTime::ZERO, 2, &mut rng);
        f(node, &mut ctx);
        let mut sent = Vec::new();
        for cmd in ctx.take_commands() {
            match cmd {
                Command::Send { to, msg } => sent.push((to, msg)),
                Command::Multicast { to, msg } => {
                    sent.extend(to.into_iter().map(|to| (to, msg.clone())));
                }
                Command::SetTimer { .. } => {}
            }
        }
        sent
    }

    #[test]
    fn late_copy_past_stability_is_a_duplicate() {
        // p1 receives p0's message and acks it, but the ack is lost. Both
        // members report, so the message becomes stable and p1 compacts it
        // away. p0's retransmission must then be absorbed as a duplicate
        // (and acked again), not accepted and recorded a second time.
        let mut a = CausalNode::new(p(0), 2, Sum::default()).with_gc(2, 1);
        let mut b = CausalNode::new(p(1), 2, Sum::default()).with_gc(2, 1);
        let from_a = step(&mut a, |n, ctx| {
            n.osend(ctx, 1, OccursAfter::none());
        });
        let data = from_a
            .iter()
            .find(|(_, m)| matches!(m, StackWire::Rb(RbMsg::Data(_))))
            .expect("p0 broadcasts its message")
            .1
            .clone();
        let report = from_a
            .iter()
            .find(|(_, m)| matches!(m, StackWire::StabilityReport(_)))
            .expect("p0 reports after its own delivery")
            .1
            .clone();
        let from_b = step(&mut b, |n, ctx| n.on_message(ctx, p(0), data.clone()));
        assert!(from_b
            .iter()
            .any(|(_, m)| matches!(m, StackWire::Rb(RbMsg::Ack(_)))));
        // The ack is lost; p0's report makes the message stable at p1.
        step(&mut b, |n, ctx| n.on_message(ctx, p(0), report));
        assert_eq!(b.retained_state(), 0);
        // The retransmission arrives after compaction.
        let again = step(&mut b, |n, ctx| n.on_message(ctx, p(0), data));
        assert_eq!(
            again,
            vec![(p(0), StackWire::Rb(RbMsg::Ack(MsgId::new(p(0), 1))))]
        );
        assert_eq!(b.retained_state(), 0, "late copy re-recorded");
        assert_eq!(b.app().value, 1);
        assert_eq!(b.log().len(), 1);
    }

    #[test]
    fn malformed_stability_reports_are_counted_not_fatal() {
        let mut node = CausalNode::new(p(0), 2, Sum::default()).with_gc(2, 1);
        // A report of the wrong width, as decoded off the wire.
        let bytes = WireMsg::<Sum>::StabilityReport(VectorClock::from_entries([1, 2, 3])).to_wire();
        let wide = WireMsg::<Sum>::from_wire(&bytes).expect("well-formed frame");
        step(&mut node, |n, ctx| n.on_message(ctx, p(1), wide));
        // A well-sized report from a sender outside the group.
        let stray = StackWire::StabilityReport(VectorClock::from_entries([1, 1]));
        step(&mut node, |n, ctx| n.on_message(ctx, p(7), stray));
        assert_eq!(node.stats().malformed_reports, 2);
        // A valid report is still accepted.
        let valid = StackWire::StabilityReport(VectorClock::from_entries([0, 0]));
        step(&mut node, |n, ctx| n.on_message(ctx, p(1), valid));
        assert_eq!(node.stats().malformed_reports, 2);
    }
}

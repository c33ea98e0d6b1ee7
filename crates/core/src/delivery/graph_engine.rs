//! Explicit-graph causal delivery: a message waits for its declared
//! dependencies only.

use super::{Delivered, DeliveryEngine};
use crate::graph::MsgGraph;
use crate::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_clocks::{MsgId, ProcessId, VectorClock};
use std::collections::{HashMap, HashSet};

/// Per-member delivery engine for [`GraphEnvelope`]s.
///
/// Messages are released to the application as soon as every id in their
/// `deps` set has been delivered — the delivery rule of the paper's
/// `OSend` model: *"a member of G changes from its current state to a new
/// state by processing Msg in the context of causal relation m → Msg"*
/// (§3.3). Duplicates are absorbed, out-of-order arrivals are buffered,
/// and deliveries cascade (one arrival can release a chain of waiters).
///
/// The engine also maintains the delivered prefix of the dependency graph
/// `R(M)` ([`graph`](GraphDelivery::graph)), which stable-point detection
/// and the validators consume.
///
/// Cascading releases are driven by per-message missing-dependency
/// counters: each delivery decrements the counters of its registered
/// waiters and releases those that reach zero, so a cascade costs
/// O(released + waiter registrations touched) rather than re-checking
/// every dependency of every waiter. The seed full-rescan implementation
/// is preserved as
/// [`reference::ScanGraphDelivery`](crate::delivery::reference::ScanGraphDelivery)
/// and the equivalence proptests pin this engine to its delivery order.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::delivery::GraphDelivery;
/// use causal_core::osend::{OSender, OccursAfter};
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let a = tx.osend("a", OccursAfter::none());
/// let b = tx.osend("b", OccursAfter::message(a.id));
///
/// let mut rx = GraphDelivery::new();
/// assert!(rx.on_receive(b.clone()).is_empty());       // b buffered
/// let released = rx.on_receive(a.clone());            // a releases both
/// let order: Vec<_> = released.iter().map(|e| e.payload).collect();
/// assert_eq!(order, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphDelivery<P> {
    delivered: HashSet<MsgId>,
    log: Vec<MsgId>,
    graph: MsgGraph,
    /// Buffered envelopes keyed by id.
    pending: HashMap<MsgId, GraphEnvelope<P>>,
    /// Reverse index: an undelivered dependency -> messages waiting on it.
    waiters: HashMap<MsgId, Vec<MsgId>>,
    /// Outstanding waiter registrations per pending message; a message is
    /// released when its count reaches zero.
    missing: HashMap<MsgId, usize>,
    /// Ids ever accepted (delivered or pending) for duplicate absorption.
    seen: HashSet<MsgId>,
    duplicates: u64,
    /// Per-origin compaction threshold: ids with `seq <= threshold` are
    /// known delivered-and-stable even though their entries were pruned.
    compacted: Option<VectorClock>,
    /// Whether to maintain the delivered [`MsgGraph`] (analysis aid;
    /// disable for long-running compacted deployments).
    track_graph: bool,
    /// Sending endpoint, present when the engine was built for a member
    /// (see [`DeliveryEngine::for_member`]). Receive-only engines
    /// (validators, tests) have none.
    sender: Option<OSender>,
}

impl<P> GraphDelivery<P> {
    /// Creates a receive-only engine with nothing delivered.
    pub fn new() -> Self {
        GraphDelivery {
            delivered: HashSet::new(),
            log: Vec::new(),
            graph: MsgGraph::new(),
            pending: HashMap::new(),
            waiters: HashMap::new(),
            missing: HashMap::new(),
            seen: HashSet::new(),
            duplicates: 0,
            compacted: None,
            track_graph: true,
            sender: None,
        }
    }

    /// Disables maintenance of the delivered [`MsgGraph`] — an analysis
    /// aid that grows with the run and cannot be compacted (nodes may be
    /// referenced by later dependencies). Long-running deployments that
    /// use [`compact`](Self::compact) should disable it.
    pub fn without_graph(mut self) -> Self {
        self.track_graph = false;
        self
    }

    /// `true` if `id` falls inside the compacted (stable) prefix.
    fn is_compacted(&self, id: MsgId) -> bool {
        self.compacted
            .as_ref()
            .is_some_and(|c| id.seq() <= c.get(id.origin()))
    }

    fn is_satisfied(&self, dep: MsgId) -> bool {
        self.delivered.contains(&dep) || self.is_compacted(dep)
    }

    /// Forgets per-message state for the globally **stable** prefix: ids
    /// with `seq <= stable[origin]` are dropped from the seen/delivered
    /// sets, and future references to them (duplicates, dependencies) are
    /// resolved against the threshold instead.
    ///
    /// Soundness requires `stable` to really be a stable prefix (delivered
    /// at every member — see
    /// [`StabilityTracker`](crate::stability::StabilityTracker)): only
    /// then can no *pending* message be waiting on an id inside it at any
    /// member.
    pub fn compact(&mut self, stable: &VectorClock) {
        let threshold = match &mut self.compacted {
            Some(existing) => {
                existing.merge(stable);
                existing
            }
            None => self.compacted.insert(stable.clone()),
        };
        self.delivered
            .retain(|id| id.seq() > threshold.get(id.origin()));
        self.seen.retain(|id| id.seq() > threshold.get(id.origin()));
    }

    /// Retained per-message bookkeeping entries (the quantity compaction
    /// bounds): delivered + seen + pending.
    pub fn retained_len(&self) -> usize {
        self.delivered.len() + self.seen.len() + self.pending.len()
    }

    /// Accepts an envelope from the transport; returns the envelopes
    /// released for processing, in delivery order (possibly empty, possibly
    /// several when the arrival unblocks buffered waiters).
    pub fn on_receive(&mut self, env: GraphEnvelope<P>) -> Vec<GraphEnvelope<P>> {
        let mut released = Vec::new();
        self.on_receive_into(env, &mut released);
        released
    }

    /// [`on_receive`](Self::on_receive) appending to a caller-owned
    /// buffer — the allocation-free flood-path variant: missing
    /// dependencies are counted in place instead of collected, and
    /// cascades extend `released` directly.
    pub fn on_receive_into(&mut self, env: GraphEnvelope<P>, released: &mut Vec<GraphEnvelope<P>>) {
        if self.is_compacted(env.id) || !self.seen.insert(env.id) {
            self.duplicates += 1;
            return;
        }
        let missing = env.deps.iter().filter(|&&d| !self.is_satisfied(d)).count();
        if missing == 0 {
            let delivered = self.deliver(env);
            released.push(delivered);
            self.cascade(released);
        } else {
            for &d in &env.deps {
                if !self.is_satisfied(d) {
                    self.waiters.entry(d).or_default().push(env.id);
                }
            }
            self.missing.insert(env.id, missing);
            self.pending.insert(env.id, env);
        }
    }

    fn deliver(&mut self, env: GraphEnvelope<P>) -> GraphEnvelope<P> {
        self.delivered.insert(env.id);
        self.log.push(env.id);
        if self.track_graph {
            self.graph
                .add(env.id, &env.deps)
                .expect("dependencies delivered before dependents");
        }
        // Count the delivery against every waiter registered on this id
        // now (registrations are only consumed later, when the cascade
        // reaches this message), so a waiter's counter always reflects the
        // full delivered set — exactly what the reference engine's re-check
        // against `delivered` sees.
        if let Some(waiters) = self.waiters.remove(&env.id) {
            for &w in &waiters {
                if let Some(cnt) = self.missing.get_mut(&w) {
                    *cnt -= 1;
                }
            }
            self.waiters.insert(env.id, waiters);
        }
        env
    }

    /// Releases any pending messages whose last dependency just arrived,
    /// transitively. Counters are decremented in [`deliver`](Self::deliver)
    /// the instant a message lands; this pass walks the released messages
    /// in FIFO order and emits each waiter whose counter has reached zero
    /// at its earliest registration encounter — the same release order as
    /// the reference engine's full dependency re-check, without ever
    /// re-checking a dependency (each registration is touched twice: one
    /// decrement, one readiness glance).
    fn cascade(&mut self, released: &mut Vec<GraphEnvelope<P>>) {
        let mut i = released.len() - 1;
        while i < released.len() {
            let just = released[i].id;
            if let Some(waiters) = self.waiters.remove(&just) {
                for w in waiters {
                    if self.missing.get(&w) == Some(&0) {
                        self.missing.remove(&w);
                        let env = self
                            .pending
                            .remove(&w)
                            .expect("pending entry exists while deps are missing");
                        released.push(self.deliver(env));
                    }
                }
            }
            i += 1;
        }
    }

    /// `true` if `id` has been delivered to the application.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.delivered.contains(&id)
    }

    /// The delivery log: message ids in the order they were released.
    pub fn log(&self) -> &[MsgId] {
        &self.log
    }

    /// The delivered prefix of the dependency graph `R(M)`.
    pub fn graph(&self) -> &MsgGraph {
        &self.graph
    }

    /// Number of messages delivered.
    pub fn delivered_len(&self) -> usize {
        self.log.len()
    }

    /// Number of messages buffered awaiting dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Ids currently buffered awaiting dependencies.
    pub fn pending_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.pending.keys().copied()
    }

    /// Duplicate receptions absorbed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

impl<P> Default for GraphDelivery<P> {
    fn default() -> Self {
        GraphDelivery::new()
    }
}

impl<P: Clone> DeliveryEngine for GraphDelivery<P> {
    type Op = P;
    type Envelope = GraphEnvelope<P>;

    /// Group size is irrelevant to the explicit-graph engine: ordering
    /// state is per-message, not per-member.
    fn for_member(me: ProcessId, _n: usize) -> Self {
        let mut engine = GraphDelivery::new();
        engine.sender = Some(OSender::new(me));
        engine
    }

    fn send(&mut self, op: P, after: OccursAfter) -> (GraphEnvelope<P>, Vec<GraphEnvelope<P>>) {
        let env = self
            .sender
            .as_mut()
            .expect("receive-only engine cannot send (construct with for_member)")
            .osend(op, after);
        let released = self.on_receive(env.clone());
        (env, released)
    }

    fn on_receive_into(&mut self, env: GraphEnvelope<P>, out: &mut Vec<GraphEnvelope<P>>) {
        GraphDelivery::on_receive_into(self, env, out);
    }

    fn view<'a>(env: &'a GraphEnvelope<P>) -> Delivered<'a, P> {
        Delivered {
            id: env.id,
            deps: Some(&env.deps),
            payload: &env.payload,
        }
    }

    fn log(&self) -> &[MsgId] {
        GraphDelivery::log(self)
    }

    fn pending_len(&self) -> usize {
        GraphDelivery::pending_len(self)
    }

    fn duplicates(&self) -> u64 {
        GraphDelivery::duplicates(self)
    }

    fn enable_gc_mode(&mut self) {
        self.track_graph = false;
    }

    fn compact(&mut self, stable: &VectorClock) {
        GraphDelivery::compact(self, stable);
    }

    fn retained_len(&self) -> usize {
        GraphDelivery::retained_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osend::{OSender, OccursAfter};
    use causal_clocks::ProcessId;

    fn senders(n: u32) -> Vec<OSender> {
        (0..n).map(|i| OSender::new(ProcessId::new(i))).collect()
    }

    #[test]
    fn unconstrained_delivers_immediately() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let env = tx[0].osend(1u8, OccursAfter::none());
        let out = rx.on_receive(env.clone());
        assert_eq!(out.len(), 1);
        assert!(rx.is_delivered(env.id));
        assert_eq!(rx.log(), &[env.id]);
    }

    #[test]
    fn buffers_until_dependency_arrives() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(b.clone()).is_empty());
        assert_eq!(rx.pending_len(), 1);
        let out = rx.on_receive(a.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['a', 'b']
        );
        assert_eq!(rx.pending_len(), 0);
    }

    #[test]
    fn cascades_through_chains() {
        // a <- b <- c <- d arriving in reverse order.
        let mut tx = senders(1);
        let a = tx[0].osend(0u8, OccursAfter::none());
        let b = tx[0].osend(1u8, OccursAfter::message(a.id));
        let c = tx[0].osend(2u8, OccursAfter::message(b.id));
        let d = tx[0].osend(3u8, OccursAfter::message(c.id));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(d.clone()).is_empty());
        assert!(rx.on_receive(c.clone()).is_empty());
        assert!(rx.on_receive(b.clone()).is_empty());
        let out = rx.on_receive(a.clone());
        assert_eq!(out.len(), 4);
        assert_eq!(rx.log(), &[a.id, b.id, c.id, d.id]);
    }

    #[test]
    fn and_dependency_waits_for_all() {
        let mut tx = senders(3);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::none());
        let sync = tx[2].osend('s', OccursAfter::all([a.id, b.id]));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(sync.clone()).is_empty());
        assert_eq!(rx.on_receive(a.clone()).len(), 1); // only a
        let out = rx.on_receive(b.clone());
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!['b', 's']
        );
    }

    #[test]
    fn duplicates_absorbed_pending_and_delivered() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        rx.on_receive(b.clone());
        rx.on_receive(b.clone()); // duplicate while pending
        rx.on_receive(a.clone());
        rx.on_receive(a.clone()); // duplicate after delivery
        assert_eq!(rx.duplicates(), 2);
        assert_eq!(rx.delivered_len(), 2);
        assert_eq!(rx.log(), &[a.id, b.id]);
    }

    #[test]
    fn concurrent_messages_deliver_in_arrival_order() {
        let mut tx = senders(2);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::none());
        let mut rx1 = GraphDelivery::new();
        rx1.on_receive(a.clone());
        rx1.on_receive(b.clone());
        let mut rx2 = GraphDelivery::new();
        rx2.on_receive(b.clone());
        rx2.on_receive(a.clone());
        // Different orders at different members — allowed for concurrent
        // messages; the graphs agree nonetheless.
        assert_eq!(rx1.log(), &[a.id, b.id]);
        assert_eq!(rx2.log(), &[b.id, a.id]);
        assert!(rx1.graph().is_concurrent(a.id, b.id));
        assert!(rx2.graph().is_concurrent(a.id, b.id));
    }

    #[test]
    fn diamond_releases_once() {
        // a <- {b, c} <- d; arrival order d, b, c, a.
        let mut tx = senders(4);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::message(a.id));
        let c = tx[2].osend('c', OccursAfter::message(a.id));
        let d = tx[3].osend('d', OccursAfter::all([b.id, c.id]));
        let mut rx = GraphDelivery::new();
        assert!(rx.on_receive(d.clone()).is_empty());
        assert!(rx.on_receive(b.clone()).is_empty());
        assert!(rx.on_receive(c.clone()).is_empty());
        let out = rx.on_receive(a.clone());
        assert_eq!(out.len(), 4);
        assert_eq!(rx.log().first(), Some(&a.id));
        assert_eq!(rx.log().last(), Some(&d.id));
        assert_eq!(rx.delivered_len(), 4);
        // d delivered exactly once despite two waiter registrations.
        assert_eq!(rx.log().iter().filter(|&&m| m == d.id).count(), 1);
    }

    #[test]
    fn graph_matches_delivered_prefix() {
        let mut tx = senders(2);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[1].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        rx.on_receive(a.clone());
        assert_eq!(rx.graph().len(), 1);
        rx.on_receive(b.clone());
        assert_eq!(rx.graph().len(), 2);
        assert!(rx.graph().causally_precedes(a.id, b.id));
    }

    #[test]
    fn compact_prunes_stable_prefix() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let mut ids = Vec::new();
        let mut prev: Option<MsgId> = None;
        for k in 0..6u8 {
            let after = prev.map_or(OccursAfter::none(), OccursAfter::message);
            let env = tx[0].osend(k, after);
            prev = Some(env.id);
            ids.push(env.id);
            rx.on_receive(env);
        }
        assert_eq!(rx.retained_len(), 12); // 6 delivered + 6 seen
                                           // First four messages are stable everywhere.
        rx.compact(&VectorClock::from_entries([4]));
        assert_eq!(rx.retained_len(), 4);
        // Log is untouched; duplicates of compacted ids are absorbed.
        assert_eq!(rx.log().len(), 6);
        let dup = GraphEnvelope {
            id: ids[0],
            deps: vec![],
            payload: 0u8,
        };
        assert!(rx.on_receive(dup).is_empty());
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn deps_on_compacted_messages_are_satisfied() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let a = tx[0].osend('a', OccursAfter::none());
        rx.on_receive(a.clone());
        rx.compact(&VectorClock::from_entries([1]));
        // A new message depending on the compacted `a` delivers at once.
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        assert_eq!(rx.on_receive(b).len(), 1);
    }

    #[test]
    fn compact_thresholds_merge_monotonically() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new();
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        rx.on_receive(a);
        rx.on_receive(b);
        rx.compact(&VectorClock::from_entries([2]));
        rx.compact(&VectorClock::from_entries([1])); // older info: no-op
        assert_eq!(rx.retained_len(), 0);
    }

    #[test]
    fn without_graph_skips_graph_maintenance() {
        let mut tx = senders(1);
        let mut rx = GraphDelivery::new().without_graph();
        let a = tx[0].osend('a', OccursAfter::none());
        rx.on_receive(a);
        assert_eq!(rx.graph().len(), 0);
        assert_eq!(rx.delivered_len(), 1);
    }

    #[test]
    fn pending_ids_reports_buffer() {
        let mut tx = senders(1);
        let a = tx[0].osend('a', OccursAfter::none());
        let b = tx[0].osend('b', OccursAfter::message(a.id));
        let mut rx = GraphDelivery::new();
        rx.on_receive(b.clone());
        assert_eq!(rx.pending_ids().collect::<Vec<_>>(), vec![b.id]);
    }
}

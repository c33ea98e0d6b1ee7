//! Reliable broadcast: positive-acknowledgement retransmission over a
//! lossy network.
//!
//! The paper's delivery guarantees presuppose that every broadcast message
//! eventually reaches every member ("the receipt of m guarantees that any
//! dependency on m … is eventually satisfiable at all members", §3.3).
//! Over the simulator's lossy links this layer supplies that guarantee:
//! the originator keeps a copy of each message until every peer has
//! acknowledged it, retransmitting it once it has been outstanding longer
//! than a timeout derived from measured round trips (see
//! [`retransmit`](crate::retransmit)); receivers acknowledge every copy
//! and absorb duplicates.

use crate::retransmit::{RetransmitTimer, Stamp};
use causal_clocks::{MsgId, ProcessId, VectorClock};
use causal_simnet::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Envelope types that carry a unique message identity (implemented by
/// both the graph and vector-clock envelopes).
pub trait HasMsgId {
    /// The unique identity of this message.
    fn msg_id(&self) -> MsgId;
}

impl<P> HasMsgId for crate::osend::GraphEnvelope<P> {
    fn msg_id(&self) -> MsgId {
        self.id
    }
}

impl<P> HasMsgId for crate::delivery::VtEnvelope<P> {
    fn msg_id(&self) -> MsgId {
        self.id
    }
}

/// Wire messages of the reliability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbMsg<E> {
    /// An application envelope (original transmission or retransmission).
    Data(E),
    /// Acknowledgement of `Data` carrying this id.
    Ack(MsgId),
}

/// Per-member reliability state: tracks unacknowledged copies of messages
/// this member originated and deduplicates incoming data.
///
/// Sans-IO: methods return `(destination, message)` pairs for the hosting
/// node to transmit.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::osend::{OSender, OccursAfter};
/// use causal_core::rbcast::{RbMsg, ReliableBroadcast};
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let env = tx.osend("op", OccursAfter::none());
///
/// let mut rb = ReliableBroadcast::new(ProcessId::new(0), 3);
/// let sends = rb.broadcast(env.clone());
/// assert_eq!(sends.len(), 2);                    // to p1 and p2
/// assert_eq!(rb.pending_acks(), 2);
///
/// rb.on_ack(ProcessId::new(1), env.id);
/// rb.on_ack(ProcessId::new(2), env.id);
/// assert_eq!(rb.pending_acks(), 0);              // fully acknowledged
/// ```
#[derive(Debug, Clone)]
pub struct ReliableBroadcast<E> {
    me: ProcessId,
    peers: BTreeSet<ProcessId>,
    outgoing: HashMap<MsgId, Outgoing<E>>,
    /// Order of initiation, for deterministic retransmission order:
    /// `(ticket, id)`, where an entry is live only while `outgoing[id]`
    /// still carries that ticket. Retired messages leave their entries
    /// behind and are skipped (lazy removal), so retiring is O(1)
    /// amortized.
    outgoing_order: VecDeque<(u64, MsgId)>,
    /// Ticket of the next registered outgoing message.
    next_ticket: u64,
    /// Round-trip estimate and clock behind the per-copy deadlines.
    timer: RetransmitTimer,
    seen: HashSet<MsgId>,
    /// Per-origin compaction threshold: ids with `seq <= threshold` were
    /// accepted once and pruned from `seen` (see [`compact`](Self::compact)).
    compacted: Option<VectorClock>,
    retransmissions: u64,
    duplicates: u64,
}

#[derive(Debug, Clone)]
struct Outgoing<E> {
    env: E,
    unacked: BTreeSet<ProcessId>,
    /// When the copies were last sent, and whether they were ever resent.
    stamp: Stamp,
    /// Its entry in `outgoing_order`.
    ticket: u64,
}

impl<E: HasMsgId + Clone> ReliableBroadcast<E> {
    /// Creates the reliability state for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        ReliableBroadcast {
            me,
            peers: (0..n as u32)
                .map(ProcessId::new)
                .filter(|&p| p != me)
                .collect(),
            outgoing: HashMap::new(),
            outgoing_order: VecDeque::new(),
            next_ticket: 0,
            timer: RetransmitTimer::default(),
            seen: HashSet::new(),
            compacted: None,
            retransmissions: 0,
            duplicates: 0,
        }
    }

    /// The owning member.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The peers currently owed acknowledgements for new broadcasts.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.peers.iter().copied()
    }

    /// Starts including `peer` in future broadcasts — called after a view
    /// change admits a new member. In-flight messages are unaffected (the
    /// joiner's state transfer covers them).
    pub fn add_peer(&mut self, peer: ProcessId) {
        if peer != self.me {
            self.peers.insert(peer);
        }
    }

    /// Creates reliability state with an explicit peer set (used by a
    /// joining member, which starts with no peers until its first view is
    /// installed).
    pub fn with_peers<I: IntoIterator<Item = ProcessId>>(me: ProcessId, peers: I) -> Self {
        ReliableBroadcast {
            me,
            peers: peers.into_iter().filter(|&p| p != me).collect(),
            outgoing: HashMap::new(),
            outgoing_order: VecDeque::new(),
            next_ticket: 0,
            timer: RetransmitTimer::default(),
            seen: HashSet::new(),
            compacted: None,
            retransmissions: 0,
            duplicates: 0,
        }
    }

    /// Adds `peer` to the unacknowledged set of every in-flight outgoing
    /// message and returns fresh transmissions to it — used when a new
    /// member joins so that messages broadcast *before* the join still
    /// reach it (the complement of the store replay, which covers
    /// messages already fully acknowledged).
    pub fn extend_unacked(&mut self, peer: ProcessId) -> Vec<(ProcessId, RbMsg<E>)> {
        if peer == self.me {
            return Vec::new();
        }
        let mut sends = Vec::new();
        for &(ticket, id) in &self.outgoing_order {
            let Some(out) = self.outgoing.get_mut(&id).filter(|o| o.ticket == ticket) else {
                continue;
            };
            if out.unacked.insert(peer) {
                sends.push((peer, RbMsg::Data(out.env.clone())));
                // The message has now gone out at two different times, so
                // no later ack is a clean round-trip sample.
                self.timer.resend(&mut out.stamp);
            }
        }
        sends
    }

    /// Stops expecting acknowledgements from `peer` — called after a view
    /// change removes a crashed member. Outstanding copies owed to it are
    /// dropped; fully acknowledged messages are retired.
    pub fn remove_peer(&mut self, peer: ProcessId) {
        self.peers.remove(&peer);
        self.outgoing.retain(|_, out| {
            out.unacked.remove(&peer);
            !out.unacked.is_empty()
        });
        self.trim_order();
    }

    /// Reliably replays stored envelopes (own or others') to one peer —
    /// the log-replay state transfer to a joining member. Each envelope
    /// is tracked as outgoing with the peer as sole unacknowledged target,
    /// so the normal retransmission machinery covers losses. Envelopes
    /// already in flight (e.g. via [`extend_unacked`](Self::extend_unacked))
    /// are skipped.
    pub fn replay_to<I>(&mut self, peer: ProcessId, envs: I) -> Vec<(ProcessId, RbMsg<E>)>
    where
        I: IntoIterator<Item = E>,
    {
        let mut sends = Vec::new();
        for env in envs {
            let id = env.msg_id();
            if self.outgoing.contains_key(&id) {
                continue;
            }
            sends.push((peer, RbMsg::Data(env.clone())));
            self.track(id, env, BTreeSet::from([peer]));
        }
        sends
    }

    /// Retains `env` as outgoing, owed to `unacked`, sent now.
    fn track(&mut self, id: MsgId, env: E, unacked: BTreeSet<ProcessId>) {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let stamp = self.timer.stamp();
        self.outgoing.insert(
            id,
            Outgoing {
                env,
                unacked,
                stamp,
                ticket,
            },
        );
        self.outgoing_order.push_back((ticket, id));
    }

    /// Drops retired entries from the front of the initiation order, and
    /// from all of it once they outnumber the live ones by more than a
    /// small slack (so the order stays O(outstanding) even behind a
    /// long-lived front entry, and each full pass is paid for by the
    /// retirements since the last).
    fn trim_order(&mut self) {
        let outgoing = &self.outgoing;
        let live =
            |&(ticket, id): &(u64, MsgId)| outgoing.get(&id).is_some_and(|o| o.ticket == ticket);
        while self.outgoing_order.front().is_some_and(|e| !live(e)) {
            self.outgoing_order.pop_front();
        }
        if self.outgoing_order.len() > 2 * outgoing.len() + 16 {
            self.outgoing_order.retain(live);
        }
    }

    /// Registers a locally originated envelope and returns the initial
    /// transmissions to every other member. The caller delivers the
    /// envelope to its *own* stack directly (self-delivery is reliable).
    pub fn broadcast(&mut self, env: E) -> Vec<(ProcessId, RbMsg<E>)> {
        let (targets, msg) = self.broadcast_grouped(env);
        targets.into_iter().map(|p| (p, msg.clone())).collect()
    }

    /// [`broadcast`](Self::broadcast) as a single multicast: the target
    /// list (ascending) and *one* message for all of them. The initial
    /// copies are identical per peer, so a transport can encode the
    /// message once for the whole group (see `Context::multicast`). An
    /// empty target list means no peers.
    pub fn broadcast_grouped(&mut self, env: E) -> (Vec<ProcessId>, RbMsg<E>) {
        let id = env.msg_id();
        self.seen.insert(id);
        let unacked = self.peers.clone();
        let targets: Vec<ProcessId> = unacked.iter().copied().collect();
        let msg = RbMsg::Data(env.clone());
        if !unacked.is_empty() {
            self.track(id, env, unacked);
        }
        (targets, msg)
    }

    /// Handles incoming data. Returns the envelope if it is fresh (to be
    /// handed to the delivery engine) plus the acknowledgement to send
    /// back; duplicates still produce an acknowledgement.
    pub fn on_data(&mut self, from: ProcessId, env: E) -> (Option<E>, Vec<(ProcessId, RbMsg<E>)>) {
        let id = env.msg_id();
        let ack = vec![(from, RbMsg::Ack(id))];
        if !self.is_compacted(id) && self.seen.insert(id) {
            (Some(env), ack)
        } else {
            self.duplicates += 1;
            (None, ack)
        }
    }

    /// Handles an acknowledgement from a peer. The first ack from each
    /// peer of a message that was never resent is a round-trip sample
    /// (see [`set_clock`](Self::set_clock)).
    pub fn on_ack(&mut self, from: ProcessId, id: MsgId) {
        if let Some(out) = self.outgoing.get_mut(&id) {
            if out.unacked.remove(&from) {
                self.timer.on_ack(out.stamp);
            }
            if out.unacked.is_empty() {
                self.outgoing.remove(&id);
                self.trim_order();
            }
        }
    }

    /// Hands the layer the current time and the ceiling on its
    /// retransmission timeout (the host's retransmission period). Hosts
    /// call it at the start of every callback; a layer never given a
    /// clock has a zero timeout, so every unacknowledged copy is due at
    /// every retransmission call.
    pub fn set_clock(&mut self, now: SimTime, ceiling: SimDuration) {
        self.timer.set_clock(now, ceiling);
    }

    /// When the earliest unacknowledged copy falls due for
    /// retransmission, if any is outstanding: the instant to arm the
    /// host's retransmission timer for.
    pub fn next_retransmit(&self) -> Option<SimTime> {
        self.outgoing
            .values()
            .map(|o| self.timer.due_at(o.stamp))
            .min()
    }

    /// Returns retransmissions for every unacknowledged copy that is due
    /// (outstanding longer than its timeout), in initiation order. Call
    /// from the host's retransmission timer.
    pub fn retransmissions(&mut self) -> Vec<(ProcessId, RbMsg<E>)> {
        self.retransmissions_grouped()
            .into_iter()
            .flat_map(|(targets, msg)| targets.into_iter().map(move |p| (p, msg.clone())))
            .collect()
    }

    /// [`retransmissions`](Self::retransmissions) as one multicast per
    /// due message (initiation order): the peers still owing an
    /// acknowledgement (ascending) and the single copy they all get.
    pub fn retransmissions_grouped(&mut self) -> Vec<(Vec<ProcessId>, RbMsg<E>)> {
        let mut out = Vec::new();
        for &(ticket, id) in &self.outgoing_order {
            let Some(outgoing) = self.outgoing.get_mut(&id).filter(|o| o.ticket == ticket) else {
                continue;
            };
            if !self.timer.is_due(outgoing.stamp) {
                continue;
            }
            self.timer.resend(&mut outgoing.stamp);
            let targets: Vec<ProcessId> = outgoing.unacked.iter().copied().collect();
            self.retransmissions += targets.len() as u64;
            out.push((targets, RbMsg::Data(outgoing.env.clone())));
        }
        out
    }

    /// `true` while any copy is unacknowledged (keep the retransmit timer
    /// armed).
    pub fn has_pending(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Total outstanding (message, peer) acknowledgements.
    pub fn pending_acks(&self) -> usize {
        self.outgoing.values().map(|o| o.unacked.len()).sum()
    }

    /// Retransmitted copies so far.
    pub fn retransmission_count(&self) -> u64 {
        self.retransmissions
    }

    /// Duplicate data receptions absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Every message id this layer has accepted (own broadcasts plus
    /// fresh receipts), in no particular order — the reliable-broadcast
    /// contract's delivered set, which verification harnesses compare
    /// against what the delivery engine actually released. Compaction
    /// prunes the stable prefix, so use it on uncompacted runs.
    pub fn seen_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.seen.iter().copied()
    }

    /// `true` if `id` falls inside the compacted (stable) prefix.
    fn is_compacted(&self, id: MsgId) -> bool {
        self.compacted
            .as_ref()
            .is_some_and(|c| id.seq() <= c.get(id.origin()))
    }

    /// Forgets duplicate-suppression entries for the globally stable
    /// prefix (see [`StabilityTracker`](crate::stability::StabilityTracker))
    /// and remembers the prefix as a per-origin threshold instead: a
    /// stable message can still be retransmitted to us when our ack to
    /// its origin was lost, and such a late copy is then a counted,
    /// re-acknowledged duplicate. Unacknowledged outgoing copies are never
    /// pruned — the origin keeps them until every ack arrives.
    pub fn compact(&mut self, stable: &VectorClock) {
        let threshold = match &mut self.compacted {
            Some(existing) => {
                existing.merge(stable);
                existing
            }
            None => self.compacted.insert(stable.clone()),
        };
        self.seen.retain(|id| id.seq() > threshold.get(id.origin()));
    }

    /// Retained duplicate-suppression entries (what [`compact`](Self::compact)
    /// bounds).
    pub fn retained_len(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osend::{GraphEnvelope, OSender, OccursAfter};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn env(sender: &mut OSender, payload: u8) -> GraphEnvelope<u8> {
        sender.osend(payload, OccursAfter::none())
    }

    #[test]
    fn broadcast_targets_all_peers() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 4);
        let sends = rb.broadcast(env(&mut tx, 1));
        let targets: Vec<_> = sends.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![p(1), p(2), p(3)]);
        assert_eq!(rb.pending_acks(), 3);
        assert!(rb.has_pending());
    }

    #[test]
    fn acks_clear_pending() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e = env(&mut tx, 1);
        rb.broadcast(e.clone());
        rb.on_ack(p(1), e.id);
        assert_eq!(rb.pending_acks(), 1);
        rb.on_ack(p(2), e.id);
        assert!(!rb.has_pending());
        // Late/duplicate ack is harmless.
        rb.on_ack(p(2), e.id);
    }

    #[test]
    fn fresh_data_released_and_acked() {
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        let (fresh, acks) = rb.on_data(p(0), e.clone());
        assert_eq!(fresh, Some(e.clone()));
        assert_eq!(acks, vec![(p(0), RbMsg::Ack(e.id))]);
    }

    #[test]
    fn duplicate_data_reacked_but_not_released() {
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 3);
        rb.on_data(p(0), e.clone());
        let (fresh, acks) = rb.on_data(p(0), e.clone());
        assert_eq!(fresh, None);
        assert_eq!(acks.len(), 1); // re-ack so the sender can stop
        assert_eq!(rb.duplicate_count(), 1);
    }

    #[test]
    fn retransmissions_cover_unacked_only() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        rb.broadcast(e1.clone());
        rb.broadcast(e2.clone());
        rb.on_ack(p(1), e1.id);
        let rtx = rb.retransmissions();
        // e1 still owed to p2; e2 owed to both.
        assert_eq!(rtx.len(), 3);
        assert_eq!(rb.retransmission_count(), 3);
        let to_p1: Vec<_> = rtx.iter().filter(|(to, _)| *to == p(1)).collect();
        assert_eq!(to_p1.len(), 1); // only e2
    }

    #[test]
    fn remove_peer_drops_owed_copies() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let e = env(&mut tx, 1);
        rb.broadcast(e.clone());
        assert_eq!(rb.pending_acks(), 2);
        rb.remove_peer(p(2));
        assert_eq!(rb.pending_acks(), 1);
        assert_eq!(rb.peers().collect::<Vec<_>>(), vec![p(1)]);
        // The remaining ack retires the message entirely.
        rb.on_ack(p(1), e.id);
        assert!(!rb.has_pending());
        // New broadcasts no longer target the removed peer.
        let sends = rb.broadcast(env(&mut tx, 2));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, p(1));
    }

    #[test]
    fn with_peers_and_add_peer() {
        let mut tx = OSender::new(p(5));
        let mut rb = ReliableBroadcast::with_peers(p(5), []);
        assert!(rb.broadcast(env(&mut tx, 1)).is_empty());
        rb.add_peer(p(0));
        rb.add_peer(p(5)); // self: ignored
        let sends = rb.broadcast(env(&mut tx, 2));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, p(0));
    }

    #[test]
    fn extend_unacked_retargets_in_flight_messages() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        let e1 = env(&mut tx, 1);
        let e2 = env(&mut tx, 2);
        rb.broadcast(e1.clone());
        rb.broadcast(e2.clone());
        rb.on_ack(p(1), e1.id); // e1 fully acked: retired
        rb.add_peer(p(2));
        let sends = rb.extend_unacked(p(2));
        // Only e2 is still in flight: one fresh copy to the joiner.
        assert_eq!(sends.len(), 1);
        assert!(matches!(&sends[0].1, RbMsg::Data(d) if d.id == e2.id));
        assert_eq!(rb.pending_acks(), 2); // e2 owed to p1 and p2
                                          // Idempotent.
        assert!(rb.extend_unacked(p(2)).is_empty());
    }

    #[test]
    fn remove_last_outstanding_peer_retires_message() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        rb.broadcast(env(&mut tx, 1));
        assert!(rb.has_pending());
        rb.remove_peer(p(1));
        assert!(!rb.has_pending());
        assert!(rb.retransmissions().is_empty());
    }

    #[test]
    fn single_member_group_has_no_sends() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 1);
        assert!(rb.broadcast(env(&mut tx, 1)).is_empty());
        assert!(!rb.has_pending());
    }

    #[test]
    fn late_copy_of_compacted_message_is_a_duplicate() {
        // p1 accepts p0's message and acks it, but the ack is lost. The
        // message becomes stable and p1 compacts it away; p0's
        // retransmission must not be accepted a second time.
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 7);
        let mut rb = ReliableBroadcast::new(p(1), 2);
        let (fresh, _lost_ack) = rb.on_data(p(0), e.clone());
        assert!(fresh.is_some());
        rb.compact(&VectorClock::from_entries([1, 0]));
        assert_eq!(rb.retained_len(), 0);
        let (fresh, acks) = rb.on_data(p(0), e.clone());
        assert_eq!(fresh, None);
        assert_eq!(acks, vec![(p(0), RbMsg::Ack(e.id))]); // still re-acked
        assert_eq!(rb.duplicate_count(), 1);
        assert_eq!(rb.retained_len(), 0, "late copy re-recorded");
        // Thresholds only rise: older stability information is a no-op.
        rb.compact(&VectorClock::from_entries([0, 0]));
        assert_eq!(rb.on_data(p(0), e).0, None);
        let next = env(&mut tx, 8);
        assert_eq!(rb.on_data(p(0), next.clone()).0, Some(next));
    }

    #[test]
    fn own_broadcast_is_seen_no_self_duplicate() {
        // If the transport loops our own Data back, it is absorbed.
        let mut tx = OSender::new(p(0));
        let e = env(&mut tx, 1);
        let mut rb = ReliableBroadcast::new(p(0), 2);
        rb.broadcast(e.clone());
        let (fresh, _) = rb.on_data(p(1), e);
        assert_eq!(fresh, None);
    }

    const CEILING: SimDuration = SimDuration::from_millis(5);

    fn at(rb: &mut ReliableBroadcast<GraphEnvelope<u8>>, micros: u64) {
        rb.set_clock(SimTime::from_micros(micros), CEILING);
    }

    fn targets(rtx: &[(Vec<ProcessId>, RbMsg<GraphEnvelope<u8>>)]) -> Vec<Vec<ProcessId>> {
        rtx.iter().map(|(t, _)| t.clone()).collect()
    }

    #[test]
    fn young_copy_is_not_resent_and_a_lost_one_is_resent_when_due() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        at(&mut rb, 0);
        let e1 = env(&mut tx, 1);
        rb.broadcast(e1.clone());
        // Before any round trip is measured the ceiling is the timeout.
        assert_eq!(rb.next_retransmit(), Some(SimTime::from_micros(5_000)));
        at(&mut rb, 4_999);
        assert!(
            rb.retransmissions_grouped().is_empty(),
            "younger than the ceiling"
        );
        rb.on_ack(p(1), e1.id); // clean 4999 µs sample
        rb.on_ack(p(2), e1.id); // second sample: SRTT 4999, RTTVAR 1874
        assert!(!rb.has_pending());
        for k in 0..40 {
            let e = env(&mut tx, 1);
            at(&mut rb, 10_000 + k * 1_000);
            rb.broadcast(e.clone());
            at(&mut rb, 10_400 + k * 1_000);
            rb.on_ack(p(1), e.id);
            rb.on_ack(p(2), e.id);
        }

        at(&mut rb, 60_000);
        let e2 = env(&mut tx, 2);
        rb.broadcast(e2.clone());
        at(&mut rb, 60_300);
        rb.on_ack(p(2), e2.id);
        // Smoothed towards 400 µs, but never under the slowest clean
        // round trip seen (4999 µs).
        assert_eq!(rb.next_retransmit(), Some(SimTime::from_micros(64_999)));
        at(&mut rb, 64_998);
        assert!(rb.retransmissions_grouped().is_empty());
        at(&mut rb, 64_999);
        // Only the peer that has not acknowledged gets the copy.
        assert_eq!(targets(&rb.retransmissions_grouped()), vec![vec![p(1)]]);
        assert_eq!(rb.retransmission_count(), 1);
    }

    #[test]
    fn resends_back_off_up_to_the_ceiling() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        at(&mut rb, 0);
        let e = env(&mut tx, 1);
        rb.broadcast(e.clone());
        at(&mut rb, 400);
        rb.on_ack(p(1), e.id); // clean 400 µs sample: timeout 1200
        at(&mut rb, 2_000);
        rb.broadcast(env(&mut tx, 2)); // p1 never acks this one
        let mut resent_at = Vec::new();
        for now in (2_000..40_000).step_by(100) {
            at(&mut rb, now);
            if !rb.retransmissions_grouped().is_empty() {
                resent_at.push(now);
            }
        }
        // Waits 1200, 2400, 4800, then 9600 capped at 5000, and so on.
        assert_eq!(
            resent_at[..6],
            [3_200, 5_600, 10_400, 15_400, 20_400, 25_400]
        );
    }

    #[test]
    fn resent_copy_gives_no_rtt_sample() {
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        at(&mut rb, 0);
        let e = env(&mut tx, 1);
        rb.broadcast(e.clone());
        at(&mut rb, 5_000);
        assert_eq!(rb.retransmissions_grouped().len(), 1);
        at(&mut rb, 5_100);
        rb.on_ack(p(1), e.id);
        // Still unmeasured (Karn's rule): a new copy waits the ceiling.
        rb.broadcast(env(&mut tx, 2));
        assert_eq!(rb.next_retransmit(), Some(SimTime::from_micros(10_100)));
    }

    #[test]
    fn retiring_behind_a_stuck_message_keeps_the_order_bounded() {
        // p2 never acks the first message (slow or crashed); thousands of
        // later messages retire. The initiation order must not keep them.
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 3);
        let stuck = env(&mut tx, 0);
        rb.broadcast(stuck.clone());
        rb.on_ack(p(1), stuck.id);
        for k in 0..5_000u32 {
            let e = env(&mut tx, (k % 200) as u8);
            rb.broadcast(e.clone());
            rb.on_ack(p(1), e.id);
            rb.on_ack(p(2), e.id);
        }
        assert_eq!(rb.pending_acks(), 1);
        assert!(rb.outgoing_order.len() <= 2 * rb.outgoing.len() + 16);
        // The survivor is still resent, in order, exactly once per call.
        let rtx = rb.retransmissions();
        assert_eq!(rtx.len(), 1);
        assert!(matches!(&rtx[0], (to, RbMsg::Data(d)) if *to == p(2) && d.id == stuck.id));
    }

    #[test]
    fn replayed_id_after_retirement_is_resent_once() {
        // A retired id re-registered by `replay_to` leaves a stale order
        // entry behind; it must not be resent twice per call.
        let mut tx = OSender::new(p(0));
        let mut rb = ReliableBroadcast::new(p(0), 2);
        let e = env(&mut tx, 1);
        rb.broadcast(e.clone());
        rb.broadcast(env(&mut tx, 2)); // keeps the order non-empty
        rb.on_ack(p(1), e.id);
        rb.replay_to(p(3), [e.clone()]);
        let rtx = rb.retransmissions();
        assert_eq!(rtx.iter().filter(|(to, _)| *to == p(3)).count(), 1);
    }
}

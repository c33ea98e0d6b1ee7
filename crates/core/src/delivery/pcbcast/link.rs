//! Synthesized FIFO links: the ordering substrate PC-broadcast stands on.
//!
//! The algorithm's one transport assumption is that each directed link
//! delivers frames reliably in send order. TCP gives that for free;
//! the simulator's non-constant latency models reorder datagrams and its
//! fault plans drop them, so this layer synthesizes the property: every
//! stream frame carries a per-link sequence number, receivers hold
//! out-of-order arrivals in a reassembly buffer and release them in
//! sequence, and senders retain unacknowledged frames for retransmission.
//!
//! Three frame kinds ride the sequenced stream — [`LinkBody::Msg`]
//! (application data), [`LinkBody::Ping`] and [`LinkBody::Pong`] (the
//! fresh-link handshake) — so the handshake is ordered and retransmitted
//! exactly like data, which is what makes the quarantine protocol's
//! "first frame on a fresh link is the ping" invariant meaningful.
//!
//! [`LinkBody::Ack`] is not part of the stream. Every stream frame
//! received is answered by one ack that is both *cumulative* (`cum`: the
//! whole stream up to there has arrived) and *selective* (the ack frame's
//! `seq` names the stream frame that triggered it, so a frame that
//! arrived behind a hole is not resent). Acks are regenerated on every
//! reception, so losing one costs at most a retransmission, never
//! correctness. A retained frame is resent only once it has been
//! outstanding longer than the link's round-trip-derived timeout (see
//! [`retransmit`](crate::retransmit)).

use crate::retransmit::{RetransmitTimer, Stamp};
use causal_clocks::ProcessId;
use causal_simnet::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// One frame on a directed overlay link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFrame<T> {
    /// Position in the link's FIFO stream (1-based). On a
    /// [`LinkBody::Ack`], the stream frame being acknowledged (0 names
    /// none: a purely cumulative ack).
    pub seq: u64,
    /// The payload.
    pub body: LinkBody<T>,
}

/// Payload of a link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkBody<T> {
    /// An application envelope being disseminated over the overlay.
    Msg(T),
    /// First frame on a freshly-opened link: asks the peer to report
    /// what it has delivered so the opener can fill the gap.
    Ping {
        /// Matches the reply to the outstanding handshake.
        token: u64,
    },
    /// Handshake reply: the responder's per-origin delivered watermarks
    /// (highest contiguously delivered sequence per origin; origins at
    /// watermark 0 omitted). Rides the reverse stream so it is reliable.
    Pong {
        /// Token copied from the ping.
        token: u64,
        /// Sorted `(origin, watermark)` pairs.
        delivered: Vec<(ProcessId, u64)>,
    },
    /// Acknowledgement of the peer's stream: cumulative up to `cum`, and
    /// selective for the frame the enclosing [`LinkFrame::seq`] names.
    Ack {
        /// Highest in-order sequence received on the reverse direction.
        cum: u64,
    },
}

/// Both directions of one overlay link, from the owning member's side.
///
/// Outbound: assigns stream sequence numbers, retains frames until they
/// are acknowledged, and resends those outstanding past their timeout on
/// demand. Inbound: reassembles the peer's stream into FIFO order.
#[derive(Debug, Clone)]
pub struct Link<T> {
    /// Outbound data permission: `false` while the fresh-link handshake
    /// is outstanding (the quarantine — see the engine module docs).
    pub safe: bool,
    /// Token of the outstanding ping, if the handshake is in flight.
    pub pending_ping: Option<u64>,
    /// Next outbound sequence number to assign.
    next_out: u64,
    /// Sent frames from the oldest unacknowledged one on, in sequence
    /// order (consecutive sequence numbers, so a frame's index is its
    /// distance from the front).
    unacked: VecDeque<Retained<T>>,
    /// Round-trip estimate and clock behind the per-frame deadlines.
    timer: RetransmitTimer,
    /// Next inbound sequence number to release.
    next_in: u64,
    /// Out-of-order inbound frames awaiting their predecessors.
    reassembly: BTreeMap<u64, LinkBody<T>>,
    /// Stream frames retransmitted so far.
    retransmits: u64,
    /// Duplicate stream frames absorbed so far.
    duplicates: u64,
}

impl<T> Default for Link<T> {
    fn default() -> Self {
        Link {
            safe: false,
            pending_ping: None,
            next_out: 1,
            unacked: VecDeque::new(),
            timer: RetransmitTimer::default(),
            next_in: 1,
            reassembly: BTreeMap::new(),
            retransmits: 0,
            duplicates: 0,
        }
    }
}

/// One retained outbound frame.
#[derive(Debug, Clone)]
struct Retained<T> {
    seq: u64,
    body: LinkBody<T>,
    stamp: Stamp,
    /// Selectively acknowledged while frames before it were not.
    acked: bool,
}

/// Result of feeding one inbound frame to [`Link::on_frame`].
#[derive(Debug, Default)]
pub struct LinkIngress<T> {
    /// Stream bodies released in FIFO order.
    pub released: Vec<LinkBody<T>>,
    /// Acknowledgement to send back, if the frame was a stream frame
    /// (duplicates are re-acknowledged so the sender stops
    /// retransmitting).
    pub ack: Option<LinkFrame<T>>,
}

impl<T: Clone> Link<T> {
    /// A link whose outbound direction is immediately usable — the
    /// static-group case, where every link existed before the first
    /// broadcast and there is no history to reconcile.
    pub fn new_safe() -> Self {
        Link {
            safe: true,
            ..Link::default()
        }
    }

    /// Appends `body` to the outbound stream: assigns the next sequence
    /// number and retains a copy until it is acknowledged.
    pub fn push(&mut self, body: LinkBody<T>) -> LinkFrame<T> {
        let seq = self.next_out;
        self.next_out += 1;
        self.unacked.push_back(Retained {
            seq,
            body: body.clone(),
            stamp: self.timer.stamp(),
            acked: false,
        });
        LinkFrame { seq, body }
    }

    /// Processes one inbound frame: acknowledgements trim the outbound
    /// retention window; stream frames are released in FIFO order,
    /// buffering ahead-of-sequence arrivals and absorbing duplicates.
    pub fn on_frame(&mut self, frame: LinkFrame<T>) -> LinkIngress<T> {
        let mut out = LinkIngress {
            released: Vec::new(),
            ack: None,
        };
        if let LinkBody::Ack { cum } = frame.body {
            self.on_ack(cum, frame.seq);
            return out;
        }
        let seq = frame.seq;
        if seq < self.next_in {
            // Already released: a retransmission raced the ack.
            self.duplicates += 1;
        } else if seq == self.next_in {
            self.next_in += 1;
            out.released.push(frame.body);
            while let Some(body) = self.reassembly.remove(&self.next_in) {
                self.next_in += 1;
                out.released.push(body);
            }
        } else if self.reassembly.insert(seq, frame.body).is_some() {
            self.duplicates += 1;
        }
        out.ack = Some(LinkFrame {
            seq,
            body: LinkBody::Ack {
                cum: self.next_in - 1,
            },
        });
        out
    }

    /// Handles an acknowledgement from the peer: frame `seq` (if it is
    /// above `cum`) and every frame up to `cum` have arrived. Only the
    /// named frame's round trip is sampled — it is the one whose arrival
    /// triggered the ack.
    pub fn on_ack(&mut self, cum: u64, seq: u64) {
        let Some(front) = self.unacked.front().map(|r| r.seq) else {
            return;
        };
        if let Some(r) = seq
            .checked_sub(front)
            .and_then(|i| self.unacked.get_mut(i as usize))
        {
            if !r.acked {
                r.acked = true;
                self.timer.on_ack(r.stamp);
            }
        }
        while self
            .unacked
            .front()
            .is_some_and(|r| r.acked || r.seq <= cum)
        {
            self.unacked.pop_front();
        }
    }

    /// Hands the link the current time and the ceiling on its
    /// retransmission timeout. A link never given a clock has a zero
    /// timeout: every unacknowledged frame is due at every call.
    pub fn set_clock(&mut self, now: SimTime, ceiling: SimDuration) {
        self.timer.set_clock(now, ceiling);
    }

    /// When the earliest unacknowledged frame falls due for
    /// retransmission, if any is outstanding.
    pub fn next_retransmit(&self) -> Option<SimTime> {
        self.unacked
            .iter()
            .filter(|r| !r.acked)
            .map(|r| self.timer.due_at(r.stamp))
            .min()
    }

    /// Clones the unacknowledged frames that are due (outstanding longer
    /// than their timeout) for retransmission, in sequence order.
    pub fn retransmissions(&mut self) -> Vec<LinkFrame<T>> {
        let mut due = Vec::new();
        for r in self.unacked.iter_mut() {
            if !r.acked && self.timer.is_due(r.stamp) {
                self.timer.resend(&mut r.stamp);
                due.push(LinkFrame {
                    seq: r.seq,
                    body: r.body.clone(),
                });
            }
        }
        self.retransmits += due.len() as u64;
        due
    }

    /// Whether any outbound frame still awaits acknowledgement.
    pub fn has_pending(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Inbound frames parked in the reassembly buffer.
    pub fn buffered(&self) -> usize {
        self.reassembly.len()
    }

    /// Stream frames retransmitted so far.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmits
    }

    /// Duplicate stream frames absorbed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(link: &mut Link<&'static str>, s: &'static str) -> LinkFrame<&'static str> {
        link.push(LinkBody::Msg(s))
    }

    fn ack(seq: u64, cum: u64) -> LinkFrame<&'static str> {
        LinkFrame {
            seq,
            body: LinkBody::Ack { cum },
        }
    }

    const CEILING: SimDuration = SimDuration::from_millis(5);

    fn at(link: &mut Link<&'static str>, micros: u64) {
        link.set_clock(SimTime::from_micros(micros), CEILING);
    }

    fn seqs(frames: &[LinkFrame<&'static str>]) -> Vec<u64> {
        frames.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn in_order_stream_releases_immediately() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        for s in ["a", "b", "c"] {
            let out = rx.on_frame(msg(&mut tx, s));
            assert_eq!(out.released, vec![LinkBody::Msg(s)]);
        }
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn reordered_frames_release_in_sequence() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        let f3 = msg(&mut tx, "c");
        assert!(rx.on_frame(f3).released.is_empty());
        assert!(rx.on_frame(f2).released.is_empty());
        assert_eq!(rx.buffered(), 2);
        let out = rx.on_frame(f1);
        assert_eq!(
            out.released,
            vec![LinkBody::Msg("a"), LinkBody::Msg("b"), LinkBody::Msg("c")]
        );
        assert_eq!(out.ack, Some(ack(1, 3)), "names the trigger, covers all");
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn duplicates_are_absorbed_and_reacked() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        assert_eq!(rx.on_frame(f1.clone()).released.len(), 1);
        let again = rx.on_frame(f1);
        assert!(again.released.is_empty());
        assert_eq!(
            again.ack,
            Some(ack(1, 1)),
            "duplicate still re-acknowledged"
        );
        assert_eq!(rx.duplicate_count(), 1);
    }

    #[test]
    fn acks_trim_retention_and_retransmission_replays_the_tail() {
        let mut tx = Link::new_safe();
        let f1 = msg(&mut tx, "a");
        let _f2 = msg(&mut tx, "b");
        assert!(tx.has_pending());
        tx.on_ack(1, 1);
        let rtx = tx.retransmissions();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 2);
        assert_ne!(rtx[0].seq, f1.seq);
        tx.on_ack(2, 2);
        assert!(!tx.has_pending());
        assert!(tx.retransmissions().is_empty());
    }

    #[test]
    fn lost_frame_recovered_by_retransmission() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        let _lost = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        assert!(rx.on_frame(f2).released.is_empty());
        // The retransmitted tail includes the lost frame; duplicates of
        // the buffered one are absorbed.
        let mut released = Vec::new();
        for f in tx.retransmissions() {
            released.extend(rx.on_frame(f).released);
        }
        assert_eq!(released, vec![LinkBody::Msg("a"), LinkBody::Msg("b")]);
    }

    #[test]
    fn ack_frames_are_not_stream_frames() {
        let mut rx: Link<&str> = Link::new_safe();
        let out = rx.on_frame(LinkFrame {
            seq: 0,
            body: LinkBody::Ack { cum: 0 },
        });
        assert!(out.released.is_empty());
        assert!(out.ack.is_none());
    }

    #[test]
    fn selectively_acked_frame_is_never_resent() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        at(&mut tx, 0);
        let _lost = msg(&mut tx, "a");
        let f2 = msg(&mut tx, "b");
        let f3 = msg(&mut tx, "c");
        at(&mut tx, 300);
        for f in [f2, f3] {
            let a = rx.on_frame(f).ack.expect("stream frames are acked");
            assert_eq!(a.body, LinkBody::Ack { cum: 0 }, "hole at 1");
            tx.on_frame(a);
        }
        assert!(tx.has_pending());
        at(&mut tx, 10_000);
        assert_eq!(seqs(&tx.retransmissions()), vec![1], "only the hole");
        assert_eq!(tx.retransmit_count(), 1);
    }

    #[test]
    fn young_frame_is_not_resent_and_a_lost_one_is_resent_when_due() {
        let mut tx = Link::new_safe();
        let mut rx: Link<&str> = Link::new_safe();
        at(&mut tx, 0);
        // Before any round trip is measured the ceiling is the timeout.
        let f1 = msg(&mut tx, "a");
        assert_eq!(tx.next_retransmit(), Some(SimTime::from_micros(5_000)));
        at(&mut tx, 400);
        let a = rx.on_frame(f1).ack.unwrap();
        tx.on_frame(a); // clean 400 µs sample: timeout 400 + 4·200
        assert!(!tx.has_pending());
        assert_eq!(tx.next_retransmit(), None);
        at(&mut tx, 1_000);
        let _lost = msg(&mut tx, "b");
        assert_eq!(tx.next_retransmit(), Some(SimTime::from_micros(2_200)));
        at(&mut tx, 2_199);
        assert!(tx.retransmissions().is_empty(), "younger than the timeout");
        at(&mut tx, 2_200);
        assert_eq!(seqs(&tx.retransmissions()), vec![2]);
        // Backed off: the next resend waits twice the timeout.
        assert_eq!(tx.next_retransmit(), Some(SimTime::from_micros(4_600)));
    }

    #[test]
    fn cumulative_ack_still_trims_retained_frames() {
        let mut tx = Link::new_safe();
        for s in ["a", "b", "c"] {
            msg(&mut tx, s);
        }
        tx.on_frame(ack(0, 2)); // purely cumulative
        assert_eq!(seqs(&tx.retransmissions()), vec![3]);
        tx.on_ack(3, 0);
        assert!(!tx.has_pending());
    }

    #[test]
    fn resent_frame_gives_no_rtt_sample() {
        let mut tx = Link::new_safe();
        at(&mut tx, 0);
        let f1 = msg(&mut tx, "a");
        at(&mut tx, 5_000);
        assert_eq!(seqs(&tx.retransmissions()), vec![1]);
        at(&mut tx, 5_100);
        tx.on_ack(1, f1.seq);
        assert!(!tx.has_pending());
        // Still unmeasured (Karn's rule): a new frame waits the ceiling.
        msg(&mut tx, "b");
        assert_eq!(tx.next_retransmit(), Some(SimTime::from_micros(10_100)));
    }
}

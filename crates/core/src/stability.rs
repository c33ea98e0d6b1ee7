//! Message-stability tracking for garbage collection.
//!
//! Causal delivery must remember which messages it has seen (duplicate
//! suppression) and delivered (dependency checks) — state that grows
//! forever unless pruned. A message may be forgotten once it is
//! **stable**: delivered at *every* member, so no retransmission,
//! duplicate, or dependency referencing it can do anything new.
//!
//! [`StabilityTracker`] derives stability the classic way (cf. the
//! matrix-clock discussion in the CBCAST literature the paper builds on):
//! each member summarizes its deliveries as a **contiguous prefix** per
//! origin, gossips that vector, and takes the column minimum over all
//! members' reports — everything below the minimum is stable everywhere
//! and may be compacted
//! ([`GraphDelivery::compact`](crate::delivery::GraphDelivery::compact),
//! [`ReliableBroadcast::compact`](crate::rbcast::ReliableBroadcast::compact)).
//!
//! The tracker is incremental: O(1) amortized per delivery, O(n) per
//! report plus an O(n) column rescan only when a column minimum rises, and
//! it signals when the stable prefix advanced, so compaction runs only
//! then.

use causal_clocks::{MatrixClock, MsgId, ProcessId, VectorClock};
use std::collections::BTreeSet;

/// Tracks, per origin, the longest *contiguous* prefix of sequence
/// numbers delivered locally (graph delivery may release a sender's
/// messages out of per-sender order, so out-of-order deliveries are
/// parked until the gap fills).
#[derive(Debug, Clone)]
pub struct ContiguousPrefix {
    next: Vec<u64>,
    parked: Vec<BTreeSet<u64>>,
}

impl ContiguousPrefix {
    /// Creates a tracker for a group of `n` origins (prefix starts empty;
    /// sequence numbers start at 1).
    pub fn new(n: usize) -> Self {
        ContiguousPrefix {
            next: vec![1; n],
            parked: vec![BTreeSet::new(); n],
        }
    }

    /// Records a delivery and extends the prefix as far as it now reaches.
    /// Returns the new top of the origin's prefix if it grew, `None` if
    /// the delivery was parked beyond a gap or already inside the prefix.
    ///
    /// An in-order delivery with nothing parked touches no set.
    ///
    /// # Panics
    ///
    /// Panics if the message's origin is outside the group.
    pub fn on_deliver(&mut self, id: MsgId) -> Option<u64> {
        let o = id.origin().as_usize();
        let seq = id.seq();
        let next = &mut self.next[o];
        if seq != *next {
            if seq > *next {
                self.parked[o].insert(seq);
            }
            return None;
        }
        *next += 1;
        while self.parked[o].first() == Some(&*next) {
            self.parked[o].pop_first();
            *next += 1;
        }
        Some(*next - 1)
    }

    /// The prefix as a vector clock: entry `j` = highest seq such that
    /// every message from `j` up to it has been delivered here.
    pub fn as_clock(&self) -> VectorClock {
        VectorClock::from_entries(self.next.iter().map(|&n| n - 1))
    }

    /// Deliveries parked beyond a gap (diagnostic).
    pub fn parked_len(&self) -> usize {
        self.parked.iter().map(BTreeSet::len).sum()
    }
}

/// Per-member stability state: local contiguous prefix plus the freshest
/// prefix reported by every peer, combined into a matrix clock whose
/// column minimum is the globally stable prefix.
///
/// Incremental: a delivery that extends the local prefix raises one cell
/// of the own matrix row (O(1) amortized, no allocation), a report merges
/// one row (O(n)), and the matrix rescans a column only when its minimum
/// rises. [`take_advance`](Self::take_advance) tells the owner whether the
/// stable prefix moved since it last compacted, so compaction runs only
/// when there is something new to forget.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MsgId, ProcessId, VectorClock};
/// use causal_core::stability::StabilityTracker;
///
/// let mut t = StabilityTracker::new(ProcessId::new(0), 2);
/// t.on_deliver(MsgId::new(ProcessId::new(0), 1));
/// assert!(t.take_advance().is_none());
/// // Peer p1 reports it has also delivered p0's first message.
/// t.on_report(ProcessId::new(1), &VectorClock::from_entries([1, 0]));
/// assert_eq!(t.stable().get(ProcessId::new(0)), 1);
/// assert!(t.take_advance().is_some());
/// assert!(t.take_advance().is_none()); // consumed
/// ```
#[derive(Debug, Clone)]
pub struct StabilityTracker {
    me: ProcessId,
    prefix: ContiguousPrefix,
    matrix: MatrixClock,
    /// The stable prefix rose since the last [`take_advance`](Self::take_advance).
    advanced: bool,
}

impl StabilityTracker {
    /// Creates the tracker for member `me` of a group of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the group.
    pub fn new(me: ProcessId, n: usize) -> Self {
        assert!(me.as_usize() < n, "member id outside group");
        StabilityTracker {
            me,
            prefix: ContiguousPrefix::new(n),
            matrix: MatrixClock::new(n),
            advanced: false,
        }
    }

    /// Records a local delivery.
    ///
    /// # Panics
    ///
    /// Panics if the message's origin is outside the group.
    pub fn on_deliver(&mut self, id: MsgId) {
        if let Some(top) = self.prefix.on_deliver(id) {
            self.advanced |= self.matrix.raise(self.me, id.origin(), top);
        }
    }

    /// The local delivered-prefix clock — what this member gossips.
    pub fn local_report(&self) -> VectorClock {
        self.prefix.as_clock()
    }

    /// Merges a peer's gossiped prefix. A report that cannot come from
    /// this group — sender outside it, or width other than the group
    /// size — is ignored and `false` returned.
    pub fn on_report(&mut self, from: ProcessId, report: &VectorClock) -> bool {
        let n = self.matrix.width();
        if from.as_usize() >= n || report.width() != n {
            return false;
        }
        self.advanced |= self.matrix.update_row(from, report);
        true
    }

    /// The globally stable prefix: per origin, the highest seq delivered
    /// at *every* member (as far as this member knows).
    pub fn stable(&self) -> VectorClock {
        self.matrix.stable_prefix().clone()
    }

    /// The stable prefix if it advanced since the previous call (or since
    /// creation), `None` otherwise. Compaction against an unchanged prefix
    /// is a no-op, so an owner compacts only when this returns a prefix.
    pub fn take_advance(&mut self) -> Option<&VectorClock> {
        std::mem::take(&mut self.advanced).then(|| self.matrix.stable_prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), s)
    }

    #[test]
    fn prefix_extends_contiguously() {
        let mut p = ContiguousPrefix::new(2);
        p.on_deliver(id(0, 1));
        p.on_deliver(id(0, 2));
        assert_eq!(p.as_clock().as_ref(), &[2, 0]);
    }

    #[test]
    fn gaps_park_until_filled() {
        let mut p = ContiguousPrefix::new(1);
        p.on_deliver(id(0, 3));
        assert_eq!(p.as_clock().as_ref(), &[0]);
        assert_eq!(p.parked_len(), 1);
        p.on_deliver(id(0, 1));
        assert_eq!(p.as_clock().as_ref(), &[1]);
        p.on_deliver(id(0, 2));
        assert_eq!(p.as_clock().as_ref(), &[3]);
        assert_eq!(p.parked_len(), 0);
    }

    #[test]
    fn on_deliver_reports_new_top() {
        let mut p = ContiguousPrefix::new(1);
        assert_eq!(p.on_deliver(id(0, 1)), Some(1));
        assert_eq!(p.on_deliver(id(0, 3)), None); // parked beyond a gap
        assert_eq!(p.on_deliver(id(0, 3)), None); // duplicate while parked
        assert_eq!(p.on_deliver(id(0, 2)), Some(3)); // gap filled
        assert_eq!(p.on_deliver(id(0, 2)), None); // duplicate inside
    }

    #[test]
    fn duplicates_inside_prefix_ignored() {
        let mut p = ContiguousPrefix::new(1);
        p.on_deliver(id(0, 1));
        p.on_deliver(id(0, 1));
        assert_eq!(p.as_clock().as_ref(), &[1]);
        assert_eq!(p.parked_len(), 0);
    }

    #[test]
    fn stability_is_column_minimum() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 3);
        for s in 1..=4 {
            t.on_deliver(id(1, s));
        }
        // Nothing is stable until everyone reports.
        assert_eq!(t.stable().get(ProcessId::new(1)), 0);
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([0, 4, 0]));
        t.on_report(ProcessId::new(2), &VectorClock::from_entries([0, 2, 0]));
        // p2 is the laggard: only the first two of p1's messages are
        // stable everywhere.
        assert_eq!(t.stable().get(ProcessId::new(1)), 2);
    }

    #[test]
    fn stale_reports_never_regress() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([5, 0]));
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([3, 0]));
        for s in 1..=5 {
            t.on_deliver(id(0, s));
        }
        assert_eq!(t.stable().get(ProcessId::new(0)), 5);
    }

    #[test]
    fn advance_fires_once_per_rise() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        t.on_deliver(id(1, 1));
        assert!(t.take_advance().is_none());
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([0, 1]));
        assert_eq!(t.take_advance().map(VectorClock::as_ref), Some(&[0, 1][..]));
        assert!(t.take_advance().is_none());
        // A stale report moves nothing.
        t.on_report(ProcessId::new(1), &VectorClock::from_entries([0, 0]));
        assert!(t.take_advance().is_none());
    }

    #[test]
    fn malformed_reports_are_ignored() {
        let mut t = StabilityTracker::new(ProcessId::new(0), 2);
        assert!(!t.on_report(ProcessId::new(1), &VectorClock::from_entries([1])));
        assert!(!t.on_report(ProcessId::new(2), &VectorClock::from_entries([1, 1])));
        assert!(t.on_report(ProcessId::new(1), &VectorClock::from_entries([1, 1])));
        assert_eq!(t.stable().as_ref(), &[0, 0]);
    }
}

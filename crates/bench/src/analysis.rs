//! Post-run analysis helpers over per-node delivery records.

use causal_clocks::MsgId;
use causal_simnet::{Histogram, SimTime};
use std::collections::HashMap;

/// Computes the **delivery skew** of every message delivered at *all*
/// replicas: the spread between the first and the last replica's delivery
/// instant. Skew is the window during which replicas transiently disagree
/// about that message — the asynchronism the paper's model tolerates
/// between stable points (§5.1) and eliminates *at* them.
///
/// Input: one `(MsgId, delivery time)` sequence per replica (the
/// [`NodeStats::delivery_times`](causal_core::stack::NodeStats) record).
/// Messages missing from any replica are skipped (e.g. an unfinished
/// tail).
///
/// # Examples
///
/// ```
/// use causal_bench::analysis::delivery_skew;
/// use causal_clocks::{MsgId, ProcessId};
/// use causal_simnet::SimTime;
///
/// let m = MsgId::new(ProcessId::new(0), 1);
/// let logs = vec![
///     vec![(m, SimTime::from_micros(100))],
///     vec![(m, SimTime::from_micros(140))],
/// ];
/// let mut skew = delivery_skew(&logs);
/// assert_eq!(skew.percentile(1.0).as_micros(), 40);
/// ```
pub fn delivery_skew(per_replica: &[Vec<(MsgId, SimTime)>]) -> Histogram {
    let mut first_last: HashMap<MsgId, (SimTime, SimTime, usize)> = HashMap::new();
    for log in per_replica {
        for &(id, at) in log {
            let entry = first_last.entry(id).or_insert((at, at, 0));
            entry.0 = entry.0.min(at);
            entry.1 = entry.1.max(at);
            entry.2 += 1;
        }
    }
    let mut skew = Histogram::new();
    for (_, (first, last, count)) in first_last {
        if count == per_replica.len() {
            skew.record(last.saturating_since(first));
        }
    }
    skew
}

/// The number of messages delivered at every replica (the denominator of
/// [`delivery_skew`]).
pub fn fully_delivered_count(per_replica: &[Vec<(MsgId, SimTime)>]) -> usize {
    let mut counts: HashMap<MsgId, usize> = HashMap::new();
    for log in per_replica {
        for &(id, _) in log {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    counts.values().filter(|&&c| c == per_replica.len()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn id(s: u64) -> MsgId {
        MsgId::new(ProcessId::new(0), s)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn skew_is_max_minus_min() {
        let logs = vec![
            vec![(id(1), t(10)), (id(2), t(100))],
            vec![(id(1), t(30)), (id(2), t(90))],
            vec![(id(1), t(25)), (id(2), t(150))],
        ];
        let mut skew = delivery_skew(&logs);
        assert_eq!(skew.len(), 2);
        assert_eq!(skew.min().as_micros(), 20); // id(1): 30-10
        assert_eq!(skew.max().as_micros(), 60); // id(2): 150-90
        assert_eq!(skew.percentile(0.5).as_micros(), 20);
        assert_eq!(fully_delivered_count(&logs), 2);
    }

    #[test]
    fn partially_delivered_messages_skipped() {
        let logs = vec![
            vec![(id(1), t(10)), (id(2), t(20))],
            vec![(id(1), t(15))], // id(2) never arrived here
        ];
        let skew = delivery_skew(&logs);
        assert_eq!(skew.len(), 1);
        assert_eq!(fully_delivered_count(&logs), 1);
    }

    #[test]
    fn empty_input_is_empty() {
        let skew = delivery_skew(&[]);
        assert!(skew.is_empty());
        assert_eq!(fully_delivered_count(&[]), 0);
    }

    #[test]
    fn single_replica_skew_is_zero() {
        let logs = vec![vec![(id(1), t(42))]];
        let mut skew = delivery_skew(&logs);
        assert_eq!(skew.percentile(1.0).as_micros(), 0);
    }
}

//! The correctness gate every run passes before its numbers count.
//!
//! Missing deliveries are counted (they become `failed`); an ordering,
//! duplication or agreement violation fails the run outright.

use crate::app::BenchApp;
use causal_clocks::MsgId;

/// What the gate needs from one member after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberOutcome {
    /// Delivery log (simulator runs; empty on TCP).
    pub log: Vec<MsgId>,
    /// Delivered ops per origin.
    pub delivered: Vec<u64>,
    /// Final counter value.
    pub value: i64,
    /// `(read, answer)` per read.
    pub reads: Vec<(MsgId, i64)>,
    /// `(ordinal, closing message, value)` per stable point.
    pub stable: Vec<(usize, MsgId, i64)>,
    /// The app's first online violation.
    pub violation: Option<String>,
    /// The member's delivered counts at each own send (offline
    /// potential-causality check), when kept.
    pub sent_seen: Option<Vec<Vec<u64>>>,
}

impl MemberOutcome {
    /// Collects what `app` saw; `sent_seen` comes from its probe.
    pub fn from_app(app: &BenchApp, sent_seen: Option<Vec<Vec<u64>>>) -> Self {
        MemberOutcome {
            log: app.log().to_vec(),
            delivered: app.delivered().to_vec(),
            value: app.value(),
            reads: app.reads().to_vec(),
            stable: app.stable().to_vec(),
            violation: app.violation().map(str::to_string),
            sent_seen,
        }
    }
}

/// The gate's verdict on one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Ops issued.
    pub attempted: u64,
    /// Ops not delivered exactly once at every member.
    pub failed: u64,
    /// Ordering, duplication and agreement violations (fatal).
    pub violations: Vec<String>,
}

impl Verdict {
    /// No violation (missing ops are judged by `failed`).
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a finished run. `issued[o]` is how many ops member `o` sent
/// (sequence numbers `1..=issued[o]`). With `fifo`, logs must deliver
/// each origin's ops in sequence order.
pub fn check(members: &[MemberOutcome], issued: &[u64], fifo: bool) -> Verdict {
    let n = members.len();
    let mut v = Verdict {
        attempted: issued.iter().sum(),
        ..Verdict::default()
    };
    for (m, out) in members.iter().enumerate() {
        if let Some(what) = &out.violation {
            v.violations.push(what.clone());
        }
        for (o, (&got, &sent)) in out.delivered.iter().zip(issued).enumerate() {
            if got > sent {
                v.violations.push(format!(
                    "member {m} delivered {got} ops of member {o}, which sent {sent}"
                ));
            }
        }
    }
    let complete: u64 = if members.iter().all(|m| m.log.is_empty()) {
        // Per-origin FIFO delivery (checked online): an op is everywhere
        // once every member's count for its origin reaches it.
        (0..issued.len())
            .map(|o| members.iter().map(|m| m.delivered[o]).min().unwrap_or(0))
            .sum()
    } else {
        let mut copies: Vec<Vec<u32>> = issued.iter().map(|&s| vec![0; s as usize + 1]).collect();
        for (m, out) in members.iter().enumerate() {
            let mut next = vec![1u64; issued.len()];
            let mut mine: Vec<Vec<bool>> = issued
                .iter()
                .map(|&s| vec![false; s as usize + 1])
                .collect();
            for id in &out.log {
                let (o, s) = (id.origin().as_usize(), id.seq());
                let Some(slot) = mine.get_mut(o).and_then(|f| f.get_mut(s as usize)) else {
                    v.violations
                        .push(format!("member {m} delivered unknown op {id}"));
                    continue;
                };
                if std::mem::replace(slot, true) {
                    v.violations
                        .push(format!("member {m} delivered {id} twice"));
                    continue;
                }
                if fifo && s != next[o] {
                    v.violations.push(format!(
                        "member {m} delivered {id} out of its origin's order"
                    ));
                }
                next[o] = s + 1;
                copies[o][s as usize] += 1;
            }
        }
        copies
            .iter()
            .map(|c| c.iter().skip(1).filter(|&&k| k as usize == n).count() as u64)
            .sum()
    };
    v.failed = v.attempted - complete.min(v.attempted);
    check_potential_causality(members, &mut v);
    if v.failed == 0 {
        let first = &members[0];
        for (m, out) in members.iter().enumerate().skip(1) {
            if out.value != first.value {
                v.violations.push(format!(
                    "final values disagree: member 0 has {}, member {m} has {}",
                    first.value, out.value
                ));
            }
            if out.reads != first.reads {
                v.violations
                    .push(format!("members 0 and {m} answered reads differently"));
            }
            if out.stable != first.stable {
                v.violations
                    .push(format!("members 0 and {m} disagree on stable points"));
            }
        }
    }
    v.violations.truncate(8);
    v
}

/// Every op must follow, at every member, everything its origin had
/// delivered when sending it (uses logs and `sent_seen`, when kept).
fn check_potential_causality(members: &[MemberOutcome], v: &mut Verdict) {
    let seen: Vec<&Vec<Vec<u64>>> = members
        .iter()
        .filter_map(|m| m.sent_seen.as_ref())
        .collect();
    if seen.len() != members.len() {
        return;
    }
    for (m, out) in members.iter().enumerate() {
        let mut counts = vec![0u64; members.len()];
        for id in &out.log {
            let o = id.origin().as_usize();
            if let Some(past) = seen
                .get(o)
                .and_then(|s| s.get((id.seq() as usize).wrapping_sub(1)))
            {
                if let Some(j) = (0..counts.len()).find(|&j| j != o && counts[j] < past[j]) {
                    v.violations.push(format!(
                        "member {m} delivered {id} before {} ops of member {j} its origin had delivered",
                        past[j]
                    ));
                    return;
                }
            }
            if let Some(c) = counts.get_mut(o) {
                *c += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;

    fn id(o: u32, s: u64) -> MsgId {
        MsgId::new(ProcessId::new(o), s)
    }

    fn member(log: Vec<MsgId>) -> MemberOutcome {
        let mut delivered = vec![0; 2];
        for i in &log {
            delivered[i.origin().as_usize()] += 1;
        }
        MemberOutcome {
            log,
            delivered,
            value: 2,
            ..MemberOutcome::default()
        }
    }

    #[test]
    fn complete_runs_pass() {
        let members = vec![
            member(vec![id(0, 1), id(1, 1)]),
            member(vec![id(1, 1), id(0, 1)]),
        ];
        let v = check(&members, &[1, 1], true);
        assert_eq!((v.attempted, v.failed), (2, 0));
        assert!(v.correct(), "{:?}", v.violations);
    }

    #[test]
    fn duplicates_and_fifo_breaks_are_violations() {
        let dup = vec![member(vec![id(0, 1), id(0, 1)]), member(vec![id(0, 1)])];
        assert!(!check(&dup, &[1, 0], true).correct());
        let swapped = vec![
            member(vec![id(0, 2), id(0, 1)]),
            member(vec![id(0, 1), id(0, 2)]),
        ];
        assert!(!check(&swapped, &[2, 0], true).correct());
        assert!(check(&swapped, &[2, 0], false).correct());
    }

    #[test]
    fn disagreement_fails_the_run() {
        let mut b = member(vec![id(0, 1)]);
        b.value = 3;
        let v = check(&[member(vec![id(0, 1)]), b], &[1, 0], true);
        assert!(!v.correct());
    }

    #[test]
    fn causal_past_is_checked_offline() {
        // Member 1 sent (1,1) after delivering (0,1), so every member
        // must deliver (0,1) first.
        let mut a = member(vec![id(0, 1), id(1, 1)]);
        let mut b = member(vec![id(0, 1), id(1, 1)]);
        a.sent_seen = Some(vec![vec![0, 0]]);
        b.sent_seen = Some(vec![vec![1, 0]]);
        assert!(check(&[a.clone(), b.clone()], &[1, 1], true).correct());
        a.log = vec![id(1, 1), id(0, 1)];
        let v = check(&[a, b], &[1, 1], true);
        assert!(!v.correct(), "inversion must be caught");
    }
}

//! Matrix clocks for message-stability detection.

use crate::{ProcessId, VectorClock};
use std::fmt;

/// An `n × n` matrix clock: row `i` is the latest vector clock known to
/// have been *reported by* process `p_i`.
///
/// The owner of the matrix raises its own row as it delivers messages and
/// merges fresher clocks into other rows when it learns them from those
/// processes (e.g. gossiped stability reports). The column minimum
/// [`stable_prefix`](MatrixClock::stable_prefix) then gives, for each
/// sender, the longest prefix of its messages known to be delivered
/// *everywhere* — such messages are **stable** and their delivery-buffer
/// entries can be garbage collected.
///
/// The column minimum is cached and kept up to date in place, together
/// with the number of rows holding it: raising a cell costs O(1), and a
/// column is rescanned (O(n)) only when its last minimum cell rises — that
/// is, only when the stable prefix itself advances. Every raising method
/// reports whether it advanced the stable prefix, so callers can skip
/// work (compaction) that depends on nothing else.
///
/// # Examples
///
/// ```
/// use causal_clocks::{MatrixClock, ProcessId, VectorClock};
///
/// let mut m = MatrixClock::new(2);
/// m.update_row(ProcessId::new(0), &VectorClock::from_entries([3, 1]));
/// // p1 has reported nothing yet: nothing is stable.
/// assert_eq!(m.stable_prefix().as_ref(), &[0, 0]);
/// let advanced = m.update_row(ProcessId::new(1), &VectorClock::from_entries([2, 4]));
/// // Everyone has delivered at least 2 messages from p0 and 1 from p1.
/// assert!(advanced);
/// assert_eq!(m.stable_prefix().as_ref(), &[2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixClock {
    rows: Vec<VectorClock>,
    /// Cached column minimum over `rows`.
    stable: VectorClock,
    /// Per column, how many rows hold the minimum (at least 1).
    at_min: Vec<usize>,
}

impl MatrixClock {
    /// Creates a zero matrix clock for a group of `n` processes.
    pub fn new(n: usize) -> Self {
        MatrixClock {
            rows: (0..n).map(|_| VectorClock::new(n)).collect(),
            stable: VectorClock::new(n),
            at_min: vec![n; n],
        }
    }

    /// Group size.
    pub fn width(&self) -> usize {
        self.rows.len()
    }

    /// The row for process `p`: the freshest vector clock known to have
    /// been held by `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the group.
    pub fn row(&self, p: ProcessId) -> &VectorClock {
        &self.rows[p.as_usize()]
    }

    /// Raises cell `(p, of)` — what `p` is known to have delivered from
    /// `of` — to `value`; a lower or equal value is ignored. Returns `true`
    /// if the stable prefix advanced.
    ///
    /// O(1), plus an O(n) rescan of column `of` when the raised cell was
    /// the column's last minimum.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `of` is outside the group.
    pub fn raise(&mut self, p: ProcessId, of: ProcessId, value: u64) -> bool {
        let row = &mut self.rows[p.as_usize()];
        let old = row.get(of);
        if value <= old {
            return false;
        }
        row.set(of, value);
        let j = of.as_usize();
        if old != self.stable.get(of) {
            return false;
        }
        self.at_min[j] -= 1;
        if self.at_min[j] > 0 {
            return false;
        }
        // The last minimum cell rose: the column minimum advances.
        let mut min = u64::MAX;
        let mut count = 0;
        for row in &self.rows {
            let v = row.get(of);
            if v < min {
                min = v;
                count = 1;
            } else if v == min {
                count += 1;
            }
        }
        self.stable.set(of, min);
        self.at_min[j] = count;
        true
    }

    /// Merges a fresher clock reported by `p` into `p`'s row. Returns
    /// `true` if the stable prefix advanced.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the group or the widths differ.
    pub fn update_row(&mut self, p: ProcessId, reported: &VectorClock) -> bool {
        assert_eq!(
            self.width(),
            reported.width(),
            "matrix clock width mismatch"
        );
        let mut advanced = false;
        for (of, value) in reported.iter() {
            advanced |= self.raise(p, of, value);
        }
        advanced
    }

    /// Merges another matrix clock (e.g. piggybacked whole) row by row.
    /// Returns `true` if the stable prefix advanced.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &MatrixClock) -> bool {
        assert_eq!(self.width(), other.width(), "matrix clock width mismatch");
        let mut advanced = false;
        for (i, theirs) in other.rows.iter().enumerate() {
            advanced |= self.update_row(ProcessId::new(i as u32), theirs);
        }
        advanced
    }

    /// For each sender `j`, the column minimum `min_i rows[i][j]`: the
    /// number of `j`'s messages known to be delivered at *every* process.
    /// Cached, so reading it is free.
    ///
    /// Messages of `j` with sequence number `<= stable_prefix()[j]` are
    /// stable and may be garbage collected from retransmission and delivery
    /// buffers.
    pub fn stable_prefix(&self) -> &VectorClock {
        &self.stable
    }

    /// Returns `true` if message `seq` from `sender` is known to be
    /// delivered at every process.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the group.
    pub fn is_stable(&self, sender: ProcessId, seq: u64) -> bool {
        self.stable.get(sender) >= seq
    }
}

impl fmt::Display for MatrixClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{row}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn new_is_all_zero() {
        let m = MatrixClock::new(3);
        assert_eq!(m.width(), 3);
        assert_eq!(m.stable_prefix().as_ref(), &[0, 0, 0]);
    }

    #[test]
    fn update_row_merges() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::from_entries([2, 1]));
        m.update_row(p(0), &VectorClock::from_entries([1, 3]));
        assert_eq!(m.row(p(0)).as_ref(), &[2, 3]);
    }

    #[test]
    fn stable_prefix_is_column_min() {
        let mut m = MatrixClock::new(3);
        m.update_row(p(0), &VectorClock::from_entries([5, 2, 1]));
        m.update_row(p(1), &VectorClock::from_entries([4, 3, 0]));
        m.update_row(p(2), &VectorClock::from_entries([6, 2, 2]));
        assert_eq!(m.stable_prefix().as_ref(), &[4, 2, 0]);
    }

    #[test]
    fn is_stable_matches_prefix() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::from_entries([3, 0]));
        m.update_row(p(1), &VectorClock::from_entries([2, 0]));
        assert!(m.is_stable(p(0), 2));
        assert!(!m.is_stable(p(0), 3));
        assert!(!m.is_stable(p(1), 1));
    }

    #[test]
    fn merge_matrices() {
        let mut a = MatrixClock::new(2);
        a.update_row(p(0), &VectorClock::from_entries([1, 0]));
        let mut b = MatrixClock::new(2);
        b.update_row(p(1), &VectorClock::from_entries([1, 1]));
        a.merge(&b);
        assert_eq!(a.row(p(0)).as_ref(), &[1, 0]);
        assert_eq!(a.row(p(1)).as_ref(), &[1, 1]);
        assert_eq!(a.stable_prefix().as_ref(), &[1, 0]);
    }

    #[test]
    fn raise_advances_only_when_last_minimum_rises() {
        let mut m = MatrixClock::new(3);
        // Two of three rows still hold the minimum 0 in column 0.
        assert!(!m.raise(p(0), p(0), 4));
        assert!(!m.raise(p(1), p(0), 2));
        assert_eq!(m.stable_prefix().as_ref(), &[0, 0, 0]);
        // The last minimum cell rises: the column rescans to the new min.
        assert!(m.raise(p(2), p(0), 3));
        assert_eq!(m.stable_prefix().as_ref(), &[2, 0, 0]);
        // Lower or equal values are ignored.
        assert!(!m.raise(p(1), p(0), 1));
        assert!(!m.raise(p(1), p(0), 2));
        // Raising a non-minimum cell never advances.
        assert!(!m.raise(p(0), p(0), 9));
        assert!(m.raise(p(1), p(0), 5));
        assert_eq!(m.stable_prefix().as_ref(), &[3, 0, 0]);
    }

    #[test]
    fn update_row_reports_advance() {
        let mut m = MatrixClock::new(2);
        assert!(!m.update_row(p(0), &VectorClock::from_entries([1, 1])));
        assert!(m.update_row(p(1), &VectorClock::from_entries([1, 0])));
        assert_eq!(m.stable_prefix().as_ref(), &[1, 0]);
        // A stale report changes nothing.
        assert!(!m.update_row(p(1), &VectorClock::from_entries([0, 0])));
        assert_eq!(m.stable_prefix().as_ref(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn update_row_width_mismatch_panics() {
        let mut m = MatrixClock::new(2);
        m.update_row(p(0), &VectorClock::from_entries([1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_width_mismatch_panics() {
        let mut a = MatrixClock::new(2);
        let b = MatrixClock::new(3);
        a.merge(&b);
    }
}

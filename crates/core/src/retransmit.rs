//! Retransmission timing: per-copy deadlines derived from measured round
//! trips.
//!
//! Both layers that retransmit — [`ReliableBroadcast`](crate::rbcast::ReliableBroadcast)
//! and the PC engine's FIFO [`Link`](crate::delivery::pcbcast::link::Link)s —
//! stamp every retained copy with a [`Stamp`] and resend it only once it
//! has been outstanding longer than the timeout a [`RetransmitTimer`]
//! derives from the acknowledgements it has seen:
//!
//! - RFC 6298 smoothing: `SRTT ← 7/8·SRTT + 1/8·R`,
//!   `RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|`, timeout `SRTT + 4·RTTVAR`
//!   (the first sample `R` sets `SRTT = R`, `RTTVAR = R/2`). These are the
//!   RFC's fixed gains, not knobs.
//! - Karn's rule: a copy that was ever resent yields no sample (its ack
//!   cannot be matched to one transmission).
//! - The timeout never undercuts the slowest clean round trip seen so
//!   far, so a scheduler stall on a loaded host does not turn into a
//!   burst of spurious resends once it has been observed.
//! - The timeout is capped at the *ceiling* the hosting stack hands in
//!   (its `retransmit_every`), which is also the timeout before the first
//!   sample.
//! - Exponential backoff: each resend doubles the copy's next wait, up to
//!   the same ceiling, so copies owed to a crashed peer are resent no
//!   more often than once per ceiling in the long run.
//!
//! The timer holds the caller's clock instead of reading one (core stays
//! clock-free): the stack calls [`set_clock`](RetransmitTimer::set_clock)
//! with the runtime's `now` once per callback. A timer that is never
//! given a clock has a zero ceiling, hence a zero timeout: every
//! outstanding copy is due at every call, which is the plain
//! "resend everything on each tick" policy that clockless harnesses drive.

use causal_simnet::{SimDuration, SimTime};

/// Transmission record of one retained copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamp {
    /// When the copy was last sent.
    pub sent_at: SimTime,
    /// How often it has been resent: 0 for a clean copy (one whose ack is
    /// a valid round-trip sample); otherwise the backoff exponent.
    pub resends: u32,
}

/// Round-trip estimator and retransmission deadline policy for one set of
/// retained copies. See the [module docs](self) for the rules.
#[derive(Debug, Clone, Default)]
pub struct RetransmitTimer {
    now: SimTime,
    ceiling: SimDuration,
    /// `(SRTT, RTTVAR)` in µs; `None` before the first clean sample.
    smoothed: Option<(u64, u64)>,
    /// Slowest clean round trip seen so far, µs.
    slowest: u64,
}

impl RetransmitTimer {
    /// Sets the current time and the ceiling on the timeout (the stack's
    /// `retransmit_every`).
    pub fn set_clock(&mut self, now: SimTime, ceiling: SimDuration) {
        self.now = now;
        self.ceiling = ceiling;
    }

    /// The stamp of a copy sent now.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            sent_at: self.now,
            resends: 0,
        }
    }

    /// Records that the copy `stamp` describes was acknowledged now; a
    /// clean copy contributes its round trip to the estimate.
    pub fn on_ack(&mut self, stamp: Stamp) {
        if stamp.resends > 0 {
            return; // Karn's rule: ambiguous sample
        }
        let rtt = self.now.saturating_since(stamp.sent_at).as_micros();
        self.slowest = self.slowest.max(rtt);
        self.smoothed = Some(match self.smoothed {
            None => (rtt, rtt / 2),
            Some((srtt, var)) => ((7 * srtt + rtt) / 8, (3 * var + srtt.abs_diff(rtt)) / 4),
        });
    }

    /// The current retransmission timeout: `SRTT + 4·RTTVAR`, at least
    /// the slowest clean round trip and at least 1 µs, at most the
    /// ceiling; the ceiling itself before the first sample.
    pub fn timeout(&self) -> SimDuration {
        let ceiling = self.ceiling.as_micros();
        let rto = match self.smoothed {
            None => ceiling,
            Some((srtt, var)) => (srtt + 4 * var).max(self.slowest).max(1),
        };
        SimDuration::from_micros(rto.min(ceiling))
    }

    /// When the copy `stamp` describes falls due: the timeout, doubled
    /// per earlier resend and capped at the ceiling, after it was last
    /// sent.
    pub fn due_at(&self, stamp: Stamp) -> SimTime {
        let timeout = self.timeout().as_micros();
        let wait = 1u64
            .checked_shl(stamp.resends)
            .map_or(u64::MAX, |factor| timeout.saturating_mul(factor))
            .min(self.ceiling.as_micros());
        stamp.sent_at + SimDuration::from_micros(wait)
    }

    /// Whether the copy `stamp` describes is due for retransmission now.
    pub fn is_due(&self, stamp: Stamp) -> bool {
        self.due_at(stamp) <= self.now
    }

    /// Records a retransmission of the copy `stamp` describes, now.
    pub fn resend(&self, stamp: &mut Stamp) {
        stamp.sent_at = self.now;
        stamp.resends = stamp.resends.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    const CEILING: SimDuration = SimDuration::from_millis(5);

    fn clocked(now: u64) -> RetransmitTimer {
        let mut t = RetransmitTimer::default();
        t.set_clock(us(now), CEILING);
        t
    }

    /// Sends a clean copy at `sent` and acks it at `acked`.
    fn sample(t: &mut RetransmitTimer, sent: u64, acked: u64) {
        t.set_clock(us(sent), CEILING);
        let s = t.stamp();
        t.set_clock(us(acked), CEILING);
        t.on_ack(s);
    }

    #[test]
    fn unclocked_timer_has_zero_timeout_and_everything_is_due() {
        let t = RetransmitTimer::default();
        assert_eq!(t.timeout(), SimDuration::ZERO);
        let mut s = t.stamp();
        assert!(t.is_due(s));
        t.resend(&mut s);
        t.resend(&mut s);
        assert!(t.is_due(s), "backoff of a zero timeout is still zero");
    }

    #[test]
    fn ceiling_is_the_timeout_before_any_sample() {
        let t = clocked(100);
        assert_eq!(t.timeout(), CEILING);
        assert_eq!(t.due_at(t.stamp()), us(5_100));
    }

    #[test]
    fn first_sample_sets_srtt_and_half_variance() {
        let mut t = RetransmitTimer::default();
        sample(&mut t, 0, 800);
        // SRTT 800, RTTVAR 400: 800 + 4·400.
        assert_eq!(t.timeout(), SimDuration::from_micros(2_400));
    }

    #[test]
    fn samples_are_smoothed_with_the_rfc_gains() {
        let mut t = RetransmitTimer::default();
        sample(&mut t, 0, 800); // (800, 400)
        sample(&mut t, 1_000, 1_400); // R = 400: SRTT 750, RTTVAR 400
        assert_eq!(t.smoothed, Some((750, 400)));
        // 750 + 1600 = 2350 beats the 800 floor.
        assert_eq!(t.timeout(), SimDuration::from_micros(2_350));
        for k in 0..40 {
            sample(&mut t, 10_000 + k * 1_000, 10_000 + k * 1_000 + 400);
        }
        let (srtt, var) = t.smoothed.unwrap();
        assert!((400..=410).contains(&srtt), "srtt {srtt}");
        assert!(var < 10, "rttvar {var}");
    }

    #[test]
    fn timeout_never_undercuts_the_slowest_clean_sample() {
        let mut t = RetransmitTimer::default();
        sample(&mut t, 0, 1_500);
        for k in 0..60 {
            sample(&mut t, 10_000 + k * 1_000, 10_000 + k * 1_000 + 100);
        }
        assert_eq!(t.timeout(), SimDuration::from_micros(1_500));
    }

    #[test]
    fn karns_rule_skips_resent_copies() {
        let mut t = clocked(0);
        let mut s = t.stamp();
        t.set_clock(us(5_000), CEILING);
        t.resend(&mut s);
        t.set_clock(us(9_000), CEILING);
        t.on_ack(s);
        assert_eq!(t.smoothed, None);
        assert_eq!(t.timeout(), CEILING);
    }

    #[test]
    fn timeout_is_capped_at_the_ceiling() {
        let mut t = RetransmitTimer::default();
        sample(&mut t, 0, 9_000);
        assert_eq!(t.timeout(), CEILING);
    }

    #[test]
    fn backoff_doubles_per_resend_up_to_the_ceiling() {
        let mut t = RetransmitTimer::default();
        sample(&mut t, 0, 400); // timeout 400 + 4·200 = 1200
        t.set_clock(us(10_000), CEILING);
        let mut s = t.stamp();
        assert_eq!(t.due_at(s), us(11_200));
        t.resend(&mut s);
        assert_eq!(t.due_at(s), us(12_400));
        t.resend(&mut s);
        assert_eq!(t.due_at(s), us(14_800));
        t.resend(&mut s);
        assert_eq!(t.due_at(s), us(15_000), "9600 capped at 5000");
        s.resends = u32::MAX;
        assert_eq!(t.due_at(s), us(15_000), "no overflow");
    }
}

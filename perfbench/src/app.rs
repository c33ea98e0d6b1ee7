//! The benchmark's operation type and the [`App`] every member hosts.
//!
//! The app is a replicated counter (the paper's §2.2 running example) that
//! also *checks* what the stack hands it: exactly-once delivery per
//! origin, declared-dependency order (graph engine), potential causality
//! against the sender's delivered counts carried in the payload (TCP), and
//! it records the agreed values at stable points and the answers to reads.
//! The first violation it sees is kept and fails the run.

use crate::hist::LatencyHist;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::Delivered;
use causal_core::stable::StablePoint;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::OpClass;
use causal_core::wire::{get_u64_le, DecodeError, WireEncode};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// What an operation does to the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Add `k` (commutative; negative `k` is a decrement).
    Inc(i64),
    /// Overwrite with `v` (non-commutative).
    Set(i64),
    /// Read the value (non-commutative; answered at the stable point it
    /// closes).
    Read,
}

impl Kind {
    /// The §6 category of the operation.
    pub fn class(self) -> OpClass {
        match self {
            Kind::Inc(_) => OpClass::Commutative,
            Kind::Set(_) | Kind::Read => OpClass::NonCommutative,
        }
    }
}

/// One broadcast operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOp {
    /// The counter operation.
    pub kind: Kind,
    /// Send time at the origin in µs: simulated time on the simulator, a
    /// process-wide wall clock on TCP.
    pub sent_us: u64,
    /// The origin's delivered count per member when it sent this op
    /// (TCP only; empty on the simulator, which checks causality offline).
    pub seen: Vec<u64>,
}

const TAG_INC: u8 = 0;
const TAG_SET: u8 = 1;
const TAG_READ: u8 = 2;
const MAX_SEEN: u64 = 1 << 16;

impl WireEncode for BenchOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self.kind {
            Kind::Inc(k) => {
                out.push(TAG_INC);
                k.encode(out);
            }
            Kind::Set(v) => {
                out.push(TAG_SET);
                v.encode(out);
            }
            Kind::Read => out.push(TAG_READ),
        }
        self.sent_us.encode(out);
        (self.seen.len() as u64).encode(out);
        for s in &self.seen {
            s.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let (&tag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
        *input = rest;
        let kind = match tag {
            TAG_INC => Kind::Inc(i64::decode(input)?),
            TAG_SET => Kind::Set(i64::decode(input)?),
            TAG_READ => Kind::Read,
            got => return Err(DecodeError::InvalidTag { got }),
        };
        let sent_us = get_u64_le(input)?;
        let len = get_u64_le(input)?;
        if len > MAX_SEEN {
            return Err(DecodeError::LengthOutOfRange { got: len });
        }
        let seen = (0..len)
            .map(|_| get_u64_le(input))
            .collect::<Result<_, _>>()?;
        Ok(BenchOp {
            kind,
            sent_us,
            seen,
        })
    }
}

/// Closed-loop window shared by the members of one TCP cluster: counts,
/// per op, the members that delivered it, and per origin the ops issued
/// and the ops delivered everywhere.
#[derive(Debug)]
pub struct Window {
    n: usize,
    ring: usize,
    counts: Vec<AtomicU32>,
    issued: Vec<AtomicU64>,
    completed: Vec<AtomicU64>,
    /// Generators issue nothing once set.
    pub stop: AtomicBool,
    /// Latencies are recorded only while set (the timed phase).
    pub measuring: AtomicBool,
    /// Sampling window of the timed phase, advanced by the sampler; each
    /// app closes its per-window latency histogram when it changes.
    pub epoch: AtomicU32,
}

impl Window {
    /// A window for `n` members with at most `ring` ops in flight per
    /// origin.
    pub fn new(n: usize, ring: usize) -> Self {
        Window {
            n,
            ring,
            counts: (0..n * ring).map(|_| AtomicU32::new(0)).collect(),
            issued: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            epoch: AtomicU32::new(0),
        }
    }

    /// Ops `origin` may still issue before its window is full.
    pub fn room(&self, origin: usize) -> u64 {
        let in_flight = self.issued(origin) - self.completed(origin);
        (self.ring as u64).saturating_sub(in_flight)
    }

    /// Records that `origin` issued one more op.
    pub fn issue(&self, origin: usize) {
        self.issued[origin].fetch_add(1, Ordering::SeqCst);
    }

    /// Ops `origin` issued so far.
    pub fn issued(&self, origin: usize) -> u64 {
        self.issued[origin].load(Ordering::SeqCst)
    }

    /// Ops of `origin` delivered at every member so far.
    pub fn completed(&self, origin: usize) -> u64 {
        self.completed[origin].load(Ordering::SeqCst)
    }

    /// Ops delivered at every member, summed over origins.
    pub fn total_completed(&self) -> u64 {
        (0..self.n).map(|o| self.completed(o)).sum()
    }

    /// Ops issued, summed over origins.
    pub fn total_issued(&self) -> u64 {
        (0..self.n).map(|o| self.issued(o)).sum()
    }

    /// Counts one member's delivery of op `seq` (1-based) of `origin`.
    /// Per-origin delivery is FIFO at every member, so ops complete in
    /// sequence order and a slot is free again once its op completed.
    fn delivered(&self, origin: usize, seq: u64) {
        let slot = origin * self.ring + (seq as usize % self.ring);
        if self.counts[slot].fetch_add(1, Ordering::SeqCst) + 1 == self.n as u32 {
            self.counts[slot].store(0, Ordering::SeqCst);
            self.completed[origin].fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Sampling windows with fewer remote deliveries at a member are left out
/// of its per-window quantiles (the edges of the timed phase).
pub const MIN_WINDOW_SAMPLES: u64 = 100;

/// How the app orders deliveries it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Declared `Occurs-After` dependencies (graph engine).
    Declared,
    /// Per-origin FIFO, plus potential causality where the payload
    /// carries the sender's delivered counts (vector and PC engines).
    Fifo,
}

/// The counter replica every member hosts.
#[derive(Debug)]
pub struct BenchApp {
    me: usize,
    order: Order,
    /// Current time in µs, set by the hosting probe before each call.
    pub now_us: u64,
    value: i64,
    delivered: Vec<u64>,
    flags: Vec<Vec<bool>>,
    latency: LatencyHist,
    /// Remote-delivery latencies of the current sampling window (TCP).
    window_latency: LatencyHist,
    window_epoch: u32,
    /// `(p50, p99)` of each closed sampling window with enough samples
    /// (TCP).
    window_quantiles: Vec<(u64, u64)>,
    log: Option<Vec<MsgId>>,
    stable: Vec<(usize, MsgId, i64)>,
    reads: Vec<(MsgId, i64)>,
    violation: Option<String>,
    window: Option<std::sync::Arc<Window>>,
    timed: bool,
    app_ns: u64,
}

impl BenchApp {
    /// The app of member `me` of a group of `n`.
    pub fn new(me: ProcessId, n: usize, order: Order) -> Self {
        BenchApp {
            me: me.as_usize(),
            order,
            now_us: 0,
            value: 0,
            delivered: vec![0; n],
            flags: vec![Vec::new(); n],
            latency: LatencyHist::new(),
            window_latency: LatencyHist::new(),
            window_epoch: 0,
            window_quantiles: Vec::new(),
            log: None,
            stable: Vec::new(),
            reads: Vec::new(),
            violation: None,
            window: None,
            timed: false,
            app_ns: 0,
        }
    }

    /// Keeps the delivery log (for offline checks and replay).
    pub fn keep_log(mut self) -> Self {
        self.log = Some(Vec::new());
        self
    }

    /// Reports deliveries to a closed-loop window.
    pub fn with_window(mut self, window: std::sync::Arc<Window>) -> Self {
        self.window = Some(window);
        self
    }

    /// Times its own callbacks (the traced run's `app` span).
    pub fn timed(mut self) -> Self {
        self.timed = true;
        self
    }

    /// The counter value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Delivered ops per origin.
    pub fn delivered(&self) -> &[u64] {
        &self.delivered
    }

    /// Delivery log, if kept.
    pub fn log(&self) -> &[MsgId] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// `(ordinal, closing message, value)` per stable point.
    pub fn stable(&self) -> &[(usize, MsgId, i64)] {
        &self.stable
    }

    /// `(read, answer)` per read.
    pub fn reads(&self) -> &[(MsgId, i64)] {
        &self.reads
    }

    /// Latencies of remote deliveries.
    pub fn latency(&self) -> &LatencyHist {
        &self.latency
    }

    /// The `(p50, p99)` remote-delivery latency of every sampling window
    /// of the timed phase that holds at least [`MIN_WINDOW_SAMPLES`]
    /// samples, the still-open last window included (TCP only).
    pub fn window_quantiles(&self) -> Vec<(u64, u64)> {
        let mut all = self.window_quantiles.clone();
        let mut open = self.window_latency.clone();
        if open.count() >= MIN_WINDOW_SAMPLES {
            all.push((open.quantile(0.5), open.quantile(0.99)));
        }
        all
    }

    /// Closes the current sampling window if the sampler moved on.
    fn roll_window(&mut self, epoch: u32) {
        if epoch == self.window_epoch {
            return;
        }
        self.window_epoch = epoch;
        let w = &mut self.window_latency;
        if w.count() >= MIN_WINDOW_SAMPLES {
            self.window_quantiles
                .push((w.quantile(0.5), w.quantile(0.99)));
        }
        w.clear();
    }

    /// The first ordering or exactly-once violation seen, if any.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Time spent inside the app's callbacks (timed apps only).
    pub fn app_ns(&self) -> u64 {
        self.app_ns
    }

    fn violate(&mut self, what: String) {
        if self.violation.is_none() {
            self.violation = Some(what);
        }
    }

    fn check_order(&mut self, env: &Delivered<'_, BenchOp>) {
        let id = env.id;
        let o = id.origin().as_usize();
        let Some(count) = self.delivered.get(o).copied() else {
            return self.violate(format!("{id} from outside the group"));
        };
        match self.order {
            Order::Fifo => {
                if id.seq() != count + 1 {
                    self.violate(format!(
                        "member {} delivered {id} after {count} ops of its origin",
                        self.me
                    ));
                }
            }
            Order::Declared => {
                let seq = id.seq() as usize;
                let flags = &mut self.flags[o];
                if flags.len() <= seq {
                    flags.resize(seq + 1, false);
                }
                if std::mem::replace(&mut flags[seq], true) {
                    return self.violate(format!("member {} delivered {id} twice", self.me));
                }
                for d in env.deps.unwrap_or(&[]) {
                    let done = self
                        .flags
                        .get(d.origin().as_usize())
                        .and_then(|f| f.get(d.seq() as usize))
                        .copied()
                        .unwrap_or(false);
                    if !done {
                        return self.violate(format!(
                            "member {} delivered {id} before its dependency {d}",
                            self.me
                        ));
                    }
                }
            }
        }
        for (j, &s) in env.payload.seen.iter().enumerate() {
            if j != o && self.delivered.get(j).copied().unwrap_or(0) < s {
                return self.violate(format!(
                    "member {} delivered {id} before {s} ops of member {j} its sender had seen",
                    self.me
                ));
            }
        }
    }
}

impl App for BenchApp {
    type Op = BenchOp;

    fn classify(&self, op: &BenchOp) -> OpClass {
        op.kind.class()
    }

    fn on_deliver(&mut self, env: Delivered<'_, BenchOp>, _out: &mut Emitter<BenchOp>) {
        let started = self.timed.then(Instant::now);
        self.check_order(&env);
        let id = env.id;
        let o = id.origin().as_usize();
        if let Some(c) = self.delivered.get_mut(o) {
            *c += 1;
        }
        match env.payload.kind {
            Kind::Inc(k) => self.value = self.value.wrapping_add(k),
            Kind::Set(v) => self.value = v,
            Kind::Read => self.reads.push((id, self.value)),
        }
        let (measuring, epoch) = self.window.as_ref().map_or((true, None), |w| {
            (
                w.measuring.load(Ordering::Relaxed),
                Some(w.epoch.load(Ordering::Relaxed)),
            )
        });
        if o != self.me && measuring {
            let us = self.now_us.saturating_sub(env.payload.sent_us);
            self.latency.record(us);
            if let Some(e) = epoch {
                self.roll_window(e);
                self.window_latency.record(us);
            }
        }
        if let Some(log) = &mut self.log {
            log.push(id);
        }
        if let Some(w) = &self.window {
            w.delivered(o, id.seq());
        }
        if let Some(t) = started {
            self.app_ns += t.elapsed().as_nanos() as u64;
        }
    }

    fn on_stable_point(&mut self, sp: StablePoint, _out: &mut Emitter<BenchOp>) {
        self.stable.push((sp.ordinal, sp.msg, self.value));
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.value.to_le_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_round_trips_through_the_wire() {
        for kind in [Kind::Inc(-3), Kind::Set(7), Kind::Read] {
            let op = BenchOp {
                kind,
                sent_us: 123_456,
                seen: vec![1, 2, 3],
            };
            assert_eq!(BenchOp::from_wire(&op.to_wire()), Ok(op));
        }
    }

    #[test]
    fn window_completes_when_every_member_delivered() {
        let w = Window::new(3, 4);
        w.issue(1);
        w.delivered(1, 1);
        w.delivered(1, 1);
        assert_eq!(w.completed(1), 0);
        w.delivered(1, 1);
        assert_eq!(w.completed(1), 1);
        assert_eq!(w.room(1), 4);
    }
}

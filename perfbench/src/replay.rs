//! The traced run's per-layer breakdown, taken from outside the program.
//!
//! A member's recorded inputs are pushed through fresh layer objects
//! built with their public constructors, making the calls a static,
//! GC-enabled `ProtocolStack` makes, in the order it makes them, and
//! timing each call. Every message the replayed member would send is
//! encoded and decoded with `WireEncode` (the `wire` layer). The replay
//! counts only if its delivery log equals the live member's.

use crate::app::BenchOp;
use crate::probe::Input;
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::{DeliveryEngine, LinkSend};
use causal_core::osend::OccursAfter;
use causal_core::rbcast::{HasMsgId, RbMsg, ReliableBroadcast};
use causal_core::stability::StabilityTracker;
use causal_core::stable::StablePointDetector;
use causal_core::stack::{StackWire, Timed};
use causal_core::statemachine::OpClass;
use causal_core::wire::WireEncode;
use causal_simnet::SimTime;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::OnceLock;
use std::time::Instant;

/// The stack's retransmission timer tag.
const TIMER_RETRANSMIT: u64 = 1;

/// The layers the replay times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ReliableBroadcast` calls.
    Rbcast,
    /// Delivery-engine calls (graph, vector or PC).
    Engine,
    /// `StablePointDetector::on_deliver`.
    Stable,
    /// `StabilityTracker` calls.
    Stability,
    /// Engine and rbcast `compact`.
    Compact,
    /// `WireEncode::encode_to`.
    Encode,
    /// `WireEncode::from_wire`.
    Decode,
    /// The replay's own accounting (round-trip checks, byte and wait
    /// counters), which the live stack does not do: kept out of the glue
    /// and reported nowhere.
    Accounting,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

impl ReplayStats {
    /// Time inside `layer`'s calls, ns.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    fn lap(&mut self, layer: Layer, started: Instant) {
        self.ns[layer as usize] += started.elapsed().as_nanos() as u64;
        self.laps[layer as usize] += 1;
    }

    /// Removes the timer's own cost: each lap adds `inside` ns to its
    /// layer and `outside` ns to the glue.
    fn calibrate(&mut self, total_ns: u64, (inside, outside): (f64, f64)) {
        let raw: u64 = self.ns.iter().sum();
        let laps: u64 = self.laps.iter().sum();
        for (ns, &laps) in self.ns.iter_mut().zip(&self.laps) {
            *ns = ns.saturating_sub((laps as f64 * inside) as u64);
        }
        self.glue_ns = total_ns.saturating_sub(raw + (laps as f64 * outside) as u64);
    }
}

/// What one timed section costs on this host, ns: the part its own
/// reading lands inside the section, and the part outside it.
fn timer_cost() -> (f64, f64) {
    static COST: OnceLock<(f64, f64)> = OnceLock::new();
    *COST.get_or_init(|| {
        const LAPS: u64 = 20_000;
        let mut trials: Vec<(f64, f64)> = (0..7)
            .map(|_| {
                let mut st = ReplayStats::default();
                let started = Instant::now();
                for _ in 0..LAPS {
                    let t = Instant::now();
                    st.lap(Layer::Rbcast, std::hint::black_box(t));
                }
                let total = started.elapsed().as_nanos() as f64 / LAPS as f64;
                let inside = st.ns[0] as f64 / LAPS as f64;
                (inside, (total - inside).max(0.0))
            })
            .collect();
        trials.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
        trials[trials.len() / 2]
    })
}

/// What one member's replay measured.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Time inside each layer's calls, ns, net of the timer's own cost.
    pub ns: [u64; LAYERS],
    /// Timed calls per layer.
    pub laps: [u64; LAYERS],
    /// Time outside every timed call (the replayed stack's glue), ns,
    /// net of the timer's own cost.
    pub glue_ns: u64,
    /// Delivery log of the replayed member.
    pub log: Vec<MsgId>,
    /// Data messages received through rbcast.
    pub rb_data: u64,
    /// Of which duplicates.
    pub rb_dups: u64,
    /// Copies rbcast retransmitted.
    pub rb_retransmits: u64,
    /// Link frames sent (routed engines).
    pub link_frames: u64,
    /// Of which retransmissions.
    pub link_retransmits: u64,
    /// Largest `pending_len()` after an engine call.
    pub buffered_peak: usize,
    /// First receipt → delivery, µs, per remotely originated op.
    pub causal_wait_us: Vec<u64>,
    /// Member clock (µs) at each stable point.
    pub stable_at_us: Vec<u64>,
    /// Stability reports received.
    pub reports_in: u64,
    /// Bytes put on the wire per kind (per destination), data, ack, stability report, link.
    pub bytes: [u64; 4],
    /// Messages whose decode did not reproduce the encoded value.
    pub wire_mismatches: u64,
}

/// The replayed member: the layers a static GC stack composes.
struct Shadow<D: DeliveryEngine<Op = BenchOp>> {
    engine: D,
    rb: ReliableBroadcast<Timed<D::Envelope>>,
    detector: StablePointDetector,
    stability: StabilityTracker,
    report_every: u64,
    since_report: u64,
    sent_times: HashMap<MsgId, SimTime>,
    first_seen: HashMap<MsgId, u64>,
    now: u64,
    n: usize,
    scratch: Vec<u8>,
    st: ReplayStats,
}

/// Replays member `me` of a group of `n` (stability report every
/// `report_every` deliveries) over its recorded `inputs`.
pub fn replay<D>(
    me: ProcessId,
    n: usize,
    report_every: u64,
    inputs: Vec<(u64, Input<D::Envelope>)>,
) -> ReplayStats
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: WireEncode + PartialEq + Debug,
{
    timer_cost();
    let started = Instant::now();
    let mut s = Shadow::<D> {
        engine: D::for_member(me, n),
        rb: if D::ROUTED {
            ReliableBroadcast::with_peers(me, [])
        } else {
            ReliableBroadcast::new(me, n)
        },
        detector: StablePointDetector::new(),
        stability: StabilityTracker::new(me, n),
        report_every,
        since_report: 0,
        sent_times: HashMap::new(),
        first_seen: HashMap::new(),
        now: 0,
        n,
        scratch: Vec::new(),
        st: ReplayStats::default(),
    };
    s.engine.enable_gc_mode();
    for (now, input) in inputs {
        s.now = now;
        s.step(input);
    }
    let total = started.elapsed().as_nanos() as u64;
    s.st.calibrate(total, timer_cost());
    s.st
}

impl<D> Shadow<D>
where
    D: DeliveryEngine<Op = BenchOp>,
    D::Envelope: WireEncode + PartialEq + Debug,
{
    fn step(&mut self, input: Input<D::Envelope>) {
        match input {
            Input::Start => self.process_released(Vec::new()),
            Input::Send(op, after) => self.transmit(op, after),
            Input::Msg(from, msg) => self.on_message(from, msg),
            Input::Timer(tag) => {
                if tag == TIMER_RETRANSMIT {
                    if self.rb.has_pending() {
                        let t = Instant::now();
                        let before = self.rb.retransmission_count();
                        let rtx = self.rb.retransmissions_grouped();
                        self.st.rb_retransmits += self.rb.retransmission_count() - before;
                        self.st.lap(Layer::Rbcast, t);
                        for (targets, msg) in rtx {
                            self.emit(&StackWire::Rb(msg), targets.len());
                        }
                    }
                    let t = Instant::now();
                    let frames = self.engine.link_retransmissions();
                    self.st.lap(Layer::Engine, t);
                    self.st.link_retransmits += frames.len() as u64;
                    self.emit_links(frames);
                }
            }
        }
    }

    /// Encodes and decodes one outbound message, counting its bytes once
    /// per destination (a multicast is encoded once).
    fn emit(&mut self, msg: &StackWire<D::Envelope>, copies: usize) {
        let t = Instant::now();
        let len = msg.encode_to(&mut self.scratch).len();
        self.st.lap(Layer::Encode, t);
        let t = Instant::now();
        let back = StackWire::<D::Envelope>::from_wire(&self.scratch);
        self.st.lap(Layer::Decode, t);
        let t = Instant::now();
        if back.as_ref() != Ok(msg) {
            self.st.wire_mismatches += 1;
        }
        drop(back);
        let kind = match msg {
            StackWire::Rb(RbMsg::Data(_)) => 0,
            StackWire::Rb(RbMsg::Ack(_)) => 1,
            StackWire::StabilityReport(_) => 2,
            _ => 3,
        };
        self.st.bytes[kind] += (len * copies) as u64;
        self.st.lap(Layer::Accounting, t);
    }

    fn emit_links(&mut self, frames: Vec<LinkSend<D::Envelope>>) {
        self.st.link_frames += frames.len() as u64;
        for (_, frame) in frames {
            self.emit(&StackWire::Link(frame), 1);
        }
    }

    fn engine_call<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.engine);
        self.st.lap(Layer::Engine, t);
        self.st.buffered_peak = self.st.buffered_peak.max(self.engine.pending_len());
        r
    }

    fn transmit(&mut self, op: BenchOp, after: OccursAfter) {
        let (env, released) = self.engine_call(|e| e.send(op, after));
        let id = env.msg_id();
        let timed = Timed {
            env,
            sent_at: SimTime::from_micros(self.now),
        };
        if D::ROUTED {
            let frames = self.engine_call(|e| e.route_broadcast(timed));
            self.emit_links(frames);
        } else {
            let t = Instant::now();
            let (targets, msg) = self.rb.broadcast_grouped(timed);
            self.st.lap(Layer::Rbcast, t);
            self.emit(&StackWire::Rb(msg), targets.len());
        }
        self.sent_times.insert(id, SimTime::from_micros(self.now));
        self.process_released(released);
    }

    fn on_message(&mut self, from: ProcessId, msg: StackWire<D::Envelope>) {
        match msg {
            StackWire::Rb(RbMsg::Data(timed)) => {
                self.st.rb_data += 1;
                let t = Instant::now();
                let (fresh, acks) = self.rb.on_data(from, timed);
                self.st.lap(Layer::Rbcast, t);
                for (_, ack) in acks {
                    self.emit(&StackWire::Rb(ack), 1);
                }
                let mut released = Vec::new();
                match fresh {
                    Some(timed) => {
                        let id = timed.msg_id();
                        self.first_receipt(id);
                        self.sent_times.entry(id).or_insert(timed.sent_at);
                        let out = self.engine_call(|e| e.on_replay(timed));
                        self.emit_links(out.sends);
                        released = out.released;
                    }
                    None => self.st.rb_dups += 1,
                }
                self.process_released(released);
            }
            StackWire::Rb(RbMsg::Ack(id)) => {
                let t = Instant::now();
                self.rb.on_ack(from, id);
                self.st.lap(Layer::Rbcast, t);
            }
            StackWire::StabilityReport(report) => {
                self.st.reports_in += 1;
                let t = Instant::now();
                self.stability.on_report(from, &report);
                self.st.lap(Layer::Stability, t);
                self.compact_now();
            }
            StackWire::Link(frame) => {
                let out = self.engine_call(|e| e.on_link_frame(from, frame, &[]));
                for &(id, sent_at, fresh) in &out.receipts {
                    if fresh {
                        self.first_receipt(id);
                        self.sent_times.entry(id).or_insert(sent_at);
                    }
                }
                self.emit_links(out.sends);
                self.process_released(out.released);
            }
            // Membership traffic never flows in a static group.
            _ => {}
        }
    }

    /// Notes when a remotely originated op first arrived (causal wait).
    fn first_receipt(&mut self, id: MsgId) {
        let t = Instant::now();
        self.first_seen.entry(id).or_insert(self.now);
        self.st.lap(Layer::Accounting, t);
    }

    fn process_released(&mut self, released: Vec<D::Envelope>) {
        for env in released {
            let delivered = D::view(&env);
            let id = delivered.id;
            let t = Instant::now();
            self.st.log.push(id);
            if let Some(at) = self.first_seen.remove(&id) {
                self.st.causal_wait_us.push(self.now - at);
            }
            self.st.lap(Layer::Accounting, t);
            let candidate = delivered.payload.kind.class() == OpClass::NonCommutative;
            if let Some(deps) = delivered.deps {
                let t = Instant::now();
                let sp = self.detector.on_deliver(id, deps, candidate);
                self.st.lap(Layer::Stable, t);
                if sp.is_some() {
                    self.st.stable_at_us.push(self.now);
                }
            }
            let t = Instant::now();
            self.stability.on_deliver(id);
            self.st.lap(Layer::Stability, t);
            self.since_report += 1;
        }
        if self.since_report >= self.report_every {
            self.since_report = 0;
            let t = Instant::now();
            let report = self.stability.local_report();
            self.st.lap(Layer::Stability, t);
            self.emit(&StackWire::StabilityReport(report), self.n - 1);
        }
        self.compact_now();
    }

    fn compact_now(&mut self) {
        let t = Instant::now();
        let stable = self.stability.stable();
        self.st.lap(Layer::Stability, t);
        if stable.total_events() == 0 {
            return;
        }
        let t = Instant::now();
        self.engine.compact(&stable);
        self.rb.compact(&stable);
        self.st.lap(Layer::Compact, t);
        self.sent_times
            .retain(|id, _| id.seq() > stable.get(id.origin()));
    }
}

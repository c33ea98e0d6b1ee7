//! [`Probe`]: the benchmark-owned [`Actor`] wrapped around each
//! `ProtocolStack`.
//!
//! It feeds the app the current time, counts the calls it makes into the
//! stack, and — in the traced run — times each call (the `stack` span)
//! and records every input the member sees (inbound messages, timer
//! firings, sends) so the replay can push the same inputs through fresh
//! layer objects. On TCP it also hosts the member's closed-loop
//! generator, so load generation adds no threads.

use crate::app::{BenchApp, BenchOp, Window};
use crate::workload::{increment, SplitMix64};
use causal_clocks::{MsgId, ProcessId};
use causal_core::delivery::DeliveryEngine;
use causal_core::osend::OccursAfter;
use causal_core::stack::{ProtocolStack, StackWire};
use causal_simnet::{Actor, Context, SimDuration};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Timer tag of the generator's refill tick (disjoint from the stack's).
const GEN_TICK: u64 = 1 << 40;
/// Refill tick period: a backstop for windows that free up while no
/// message arrives.
const GEN_TICK_EVERY: SimDuration = SimDuration::from_micros(500);

/// Where the app's clock comes from.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The simulator's virtual time.
    Sim,
    /// µs since a process-wide base instant (TCP).
    Wall(Instant),
}

/// One input a member saw, in the order it saw it.
#[derive(Debug, Clone)]
pub enum Input<E> {
    /// `on_start`.
    Start,
    /// An inbound message.
    Msg(ProcessId, StackWire<E>),
    /// A stack timer firing.
    Timer(u64),
    /// A broadcast request.
    Send(BenchOp, OccursAfter),
}

/// What the traced run records per member.
#[derive(Debug)]
pub struct Recorder<E> {
    /// Inputs with the member's clock (µs) when each arrived.
    pub inputs: Vec<(u64, Input<E>)>,
    /// Time spent inside stack calls.
    pub stack_ns: u64,
    /// Time spent recording, outside stack calls.
    pub probe_ns: u64,
    /// Largest `retained_state()` seen after a call.
    pub retained_peak: usize,
}

/// The member's closed-loop generator (TCP).
#[derive(Debug)]
struct Generator {
    window: Arc<Window>,
    rng: SplitMix64,
    /// Stop after this many ops (the traced run's cap).
    limit: u64,
}

/// The wrapper actor.
pub struct Probe<D: DeliveryEngine<Op = BenchOp>> {
    /// The wrapped stack.
    pub stack: ProtocolStack<D, BenchApp>,
    me: usize,
    clock: Clock,
    /// Calls made into the stack.
    pub calls: u64,
    /// Per-call recording (traced run only).
    pub rec: Option<Recorder<D::Envelope>>,
    /// Delivered counts per member at each own send, for the offline
    /// potential-causality check (simulator, routed and vector engines).
    pub sent_seen: Option<Vec<Vec<u64>>>,
    gen: Option<Generator>,
}

impl<D: DeliveryEngine<Op = BenchOp>> Probe<D> {
    /// Wraps `stack`.
    pub fn new(stack: ProtocolStack<D, BenchApp>, clock: Clock) -> Self {
        Probe {
            me: stack.me().as_usize(),
            stack,
            clock,
            calls: 0,
            rec: None,
            sent_seen: None,
            gen: None,
        }
    }

    /// Records inputs and times stack calls.
    pub fn traced(mut self) -> Self {
        self.rec = Some(Recorder {
            inputs: Vec::new(),
            stack_ns: 0,
            probe_ns: 0,
            retained_peak: 0,
        });
        self
    }

    /// Keeps the causal past of every own send.
    pub fn keep_sent_seen(mut self) -> Self {
        self.sent_seen = Some(Vec::new());
        self
    }

    /// Runs a closed-loop generator against `window`, issuing at most
    /// `limit` ops.
    pub fn generating(mut self, window: Arc<Window>, seed: u64, limit: u64) -> Self {
        self.gen = Some(Generator {
            window,
            rng: SplitMix64::new(seed ^ (self.me as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)),
            limit,
        });
        self
    }

    fn now_us(&self, ctx: &Context<'_, StackWire<D::Envelope>>) -> u64 {
        match self.clock {
            Clock::Sim => ctx.now().as_micros(),
            Clock::Wall(base) => base.elapsed().as_micros() as u64,
        }
    }

    /// Sets the app's clock and records `input` (traced run); returns the
    /// call's start instant when timing.
    fn enter(
        &mut self,
        ctx: &Context<'_, StackWire<D::Envelope>>,
        input: impl FnOnce() -> Input<D::Envelope>,
    ) -> Option<Instant> {
        let now = self.now_us(ctx);
        self.stack.app_mut().now_us = now;
        self.calls += 1;
        let rec = self.rec.as_mut()?;
        let recording = Instant::now();
        rec.inputs.push((now, input()));
        let started = Instant::now();
        rec.probe_ns += (started - recording).as_nanos() as u64;
        Some(started)
    }

    fn leave(&mut self, started: Option<Instant>) {
        if let (Some(t), Some(rec)) = (started, self.rec.as_mut()) {
            let done = Instant::now();
            rec.stack_ns += (done - t).as_nanos() as u64;
            rec.retained_peak = rec.retained_peak.max(self.stack.retained_state());
            rec.probe_ns += done.elapsed().as_nanos() as u64;
        }
    }

    /// Broadcasts `op` ordered after `after` through the stack.
    pub fn osend(
        &mut self,
        ctx: &mut Context<'_, StackWire<D::Envelope>>,
        op: BenchOp,
        after: OccursAfter,
    ) -> Option<MsgId> {
        if let Some(seen) = &mut self.sent_seen {
            seen.push(self.stack.app().delivered().to_vec());
        }
        let started = self.enter(ctx, || Input::Send(op.clone(), after.clone()));
        let id = self.stack.osend(ctx, op, after);
        self.leave(started);
        id
    }

    /// Tops the member's window up to its depth.
    fn pump(&mut self, ctx: &mut Context<'_, StackWire<D::Envelope>>) {
        let Some((window, limit)) = self.gen.as_ref().map(|g| (Arc::clone(&g.window), g.limit))
        else {
            return;
        };
        let me = self.me;
        let mut room = window.room(me).min(limit.saturating_sub(window.issued(me)));
        while room > 0 && !window.stop.load(Ordering::SeqCst) {
            let kind = increment(&mut self.gen.as_mut().expect("generating").rng);
            let op = BenchOp {
                kind,
                sent_us: self.now_us(ctx),
                seen: self.stack.app().delivered().to_vec(),
            };
            window.issue(me);
            self.osend(ctx, op, OccursAfter::none())
                .expect("static groups never park sends");
            room -= 1;
        }
    }
}

impl<D: DeliveryEngine<Op = BenchOp>> Actor for Probe<D> {
    type Msg = StackWire<D::Envelope>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let started = self.enter(ctx, || Input::Start);
        self.stack.on_start(ctx);
        self.leave(started);
        if self.gen.is_some() {
            ctx.set_timer(GEN_TICK_EVERY, GEN_TICK);
            self.pump(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg) {
        let started = self.enter(ctx, || Input::Msg(from, msg.clone()));
        self.stack.on_message(ctx, from, msg);
        self.leave(started);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64) {
        if tag == GEN_TICK {
            self.pump(ctx);
            let stopped = self
                .gen
                .as_ref()
                .is_none_or(|g| g.window.stop.load(Ordering::SeqCst));
            if !stopped {
                ctx.set_timer(GEN_TICK_EVERY, GEN_TICK);
            }
            return;
        }
        let started = self.enter(ctx, || Input::Timer(tag));
        self.stack.on_timer(ctx, tag);
        self.leave(started);
        self.pump(ctx);
    }
}

//! Metric names, the per-layer breakdown shared by both runtimes, and
//! the result line.

use crate::gate::Verdict;
use crate::hist::quantile;
use crate::replay::{Layer, ReplayStats};
use crate::workload::Engine;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("msgs_per_op", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs), with units. Every workload reports
/// every one; a layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("simnet.self_s", "s"),
    ("simnet.events_per_op", "count"),
    ("simnet.peak_in_flight", "count"),
    ("stack.self_s", "s"),
    ("stack.calls_per_op", "count"),
    ("rbcast.self_s", "s"),
    ("rbcast.dup_ratio", "ratio"),
    ("rbcast.retransmits_per_op", "count"),
    ("delivery.self_s", "s"),
    ("delivery.causal_wait_p99_us", "us"),
    ("delivery.buffered_peak", "count"),
    ("pcbcast.self_s", "s"),
    ("pcbcast.frames_per_op", "count"),
    ("pcbcast.link_retransmits_per_op", "count"),
    ("pcbcast.peak_buffered", "count"),
    ("stable.self_s", "s"),
    ("stable.points_per_kop", "count"),
    ("stable.interval_p50_us", "us"),
    ("stability.self_s", "s"),
    ("stability.compact_s", "s"),
    ("stability.reports_per_op", "count"),
    ("stability.retained_peak", "count"),
    ("app.self_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.bytes_per_op", "B"),
    ("wire.data_bytes_per_op", "B"),
    ("wire.ack_bytes_per_op", "B"),
    ("wire.report_bytes_per_op", "B"),
    ("wire.link_bytes_per_op", "B"),
    ("net.shard_cpu_s", "s"),
    ("net.driver_cpu_s", "s"),
    ("net.writev_per_op", "count"),
    ("net.frames_per_write", "count"),
    ("net.epoll_waits_per_op", "count"),
    ("net.frame_copies", "count"),
    ("net.send_drops", "count"),
    ("net.decode_errors", "count"),
    ("net.reconnects", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.replay_matches", "bool"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// The correctness gate's verdict.
    pub verdict: Verdict,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Metric `name`, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another run's verdict into this one.
    pub fn absorb(&mut self, v: Verdict) {
        self.verdict.attempted += v.attempted;
        self.verdict.failed += v.failed;
        self.verdict.violations.extend(v.violations);
    }

    /// The human-readable lines and the final JSON result line for the
    /// metric set `names`.
    pub fn render(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in names {
            out.push_str(&format!("{name:<34} {:>16.4} {unit}\n", self.get(name)));
        }
        let ratio = self.verdict.failed as f64 / self.verdict.attempted.max(1) as f64;
        out.push_str(&format!(
            "{:<34} {:>16.6} ({} of {} ops)\n",
            "ops_failed_ratio", ratio, self.verdict.failed, self.verdict.attempted
        ));
        for v in &self.verdict.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.verdict.correct(),
            self.verdict.attempted.max(1),
            self.verdict.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// What the traced run hands the per-layer breakdown.
#[derive(Debug)]
pub struct Traced {
    /// Delivery engine.
    pub engine: Engine,
    /// Group size.
    pub n: usize,
    /// Ops of the traced run.
    pub ops: u64,
    /// One replay per member.
    pub replays: Vec<ReplayStats>,
    /// Every replay reproduced its member's live delivery log.
    pub matches: bool,
    /// Live app spans, summed over members, ns.
    pub app_ns: u64,
    /// Live calls into the stacks.
    pub calls: u64,
    /// Largest live `retained_state()`.
    pub retained_peak: usize,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl Traced {
    /// Sum of `f` over the members' replays.
    fn sum(&self, f: impl Fn(&ReplayStats) -> u64) -> u64 {
        self.replays.iter().map(f).sum()
    }

    /// Time in `layer`, summed over members, ns.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.sum(|r| r.layer_ns(layer))
    }

    /// The replay's glue: its time outside every timed layer call.
    pub fn glue_ns(&self) -> u64 {
        self.sum(|r| r.glue_ns)
    }

    /// Time of the protocol layers (everything but glue, app and wire).
    pub fn layers_ns(&self) -> u64 {
        [
            Layer::Rbcast,
            Layer::Engine,
            Layer::Stable,
            Layer::Stability,
            Layer::Compact,
        ]
        .into_iter()
        .map(|l| self.layer_ns(l))
        .sum()
    }

    /// Fills every replay-derived per-layer metric.
    pub fn fill(&self, r: &mut Report) {
        let ops = self.ops.max(1) as f64;
        r.set("stack.self_s", secs(self.glue_ns()));
        r.set("stack.calls_per_op", self.calls as f64 / ops);
        r.set("rbcast.self_s", secs(self.layer_ns(Layer::Rbcast)));
        let data = self.sum(|x| x.rb_data);
        r.set(
            "rbcast.dup_ratio",
            if data == 0 {
                0.0
            } else {
                self.sum(|x| x.rb_dups) as f64 / data as f64
            },
        );
        r.set(
            "rbcast.retransmits_per_op",
            self.sum(|x| x.rb_retransmits) as f64 / ops,
        );
        let engine_s = secs(self.layer_ns(Layer::Engine));
        let buffered = self
            .replays
            .iter()
            .map(|x| x.buffered_peak)
            .max()
            .unwrap_or(0) as f64;
        if self.engine == Engine::Pc {
            r.set("pcbcast.self_s", engine_s);
            r.set(
                "pcbcast.frames_per_op",
                self.sum(|x| x.link_frames) as f64 / ops,
            );
            r.set(
                "pcbcast.link_retransmits_per_op",
                self.sum(|x| x.link_retransmits) as f64 / ops,
            );
            r.set("pcbcast.peak_buffered", buffered);
        } else {
            r.set("delivery.self_s", engine_s);
            r.set("delivery.buffered_peak", buffered);
        }
        let mut waits: Vec<u64> = self
            .replays
            .iter()
            .flat_map(|x| x.causal_wait_us.iter().copied())
            .collect();
        r.set(
            "delivery.causal_wait_p99_us",
            quantile(&mut waits, 0.99) as f64,
        );
        r.set("stable.self_s", secs(self.layer_ns(Layer::Stable)));
        let points = self.sum(|x| x.stable_at_us.len() as u64) as f64 / self.n as f64;
        r.set("stable.points_per_kop", points * 1000.0 / ops);
        let mut intervals: Vec<u64> = self
            .replays
            .iter()
            .flat_map(|x| x.stable_at_us.windows(2).map(|w| w[1] - w[0]))
            .collect();
        r.set(
            "stable.interval_p50_us",
            quantile(&mut intervals, 0.5) as f64,
        );
        r.set("stability.self_s", secs(self.layer_ns(Layer::Stability)));
        r.set("stability.compact_s", secs(self.layer_ns(Layer::Compact)));
        let reports_in = self.sum(|x| x.reports_in) as f64;
        r.set(
            "stability.reports_per_op",
            reports_in / (self.n - 1).max(1) as f64 / ops,
        );
        r.set("stability.retained_peak", self.retained_peak as f64);
        r.set("app.self_s", secs(self.app_ns));
        r.set("wire.encode_s", secs(self.layer_ns(Layer::Encode)));
        r.set("wire.decode_s", secs(self.layer_ns(Layer::Decode)));
        let kinds = [
            "wire.data_bytes_per_op",
            "wire.ack_bytes_per_op",
            "wire.report_bytes_per_op",
            "wire.link_bytes_per_op",
        ];
        let mut total = 0;
        for (k, name) in kinds.into_iter().enumerate() {
            let bytes = self.sum(|x| x.bytes[k]);
            total += bytes;
            r.set(name, bytes as f64 / ops);
        }
        r.set("wire.bytes_per_op", total as f64 / ops);
        r.set("trace.replay_matches", if self.matches { 1.0 } else { 0.0 });
    }
}

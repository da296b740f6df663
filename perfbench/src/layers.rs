//! Per-layer metrics of the traced run.
//!
//! Every name here is also listed under `per_layer` in `BENCHMARK.json`.
//! A workload that does not exercise a layer reports 0 for that layer's
//! metrics (no WAL bytes on the in-memory server, no simulated cycles
//! outside the accelerator workload).

use crate::report::{median, Metrics};
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.validate_ms_p50", "ms"),
    ("graph.apply_ms_p50", "ms"),
    ("graph.snapshot_ms_p50", "ms"),
    ("graph.index_promotions", "count"),
    ("persist.open_s", "s"),
    ("persist.wal_append_ms_p50", "ms"),
    ("persist.fsync_ms_p50", "ms"),
    ("persist.wal_bytes", "bytes"),
    ("persist.ckpt_count", "count"),
    ("persist.ckpt_bytes", "bytes"),
    ("persist.ckpt_write_ms_p50", "ms"),
    ("persist.recover_s", "s"),
    ("persist.recover_chain_ms", "ms"),
    ("persist.recover_replay_ms", "ms"),
    ("engines.converge_s", "s"),
    ("engines.fanout_ms_p50", "ms"),
    ("engines.response_ms_p50", "ms"),
    ("engines.drain_ms_p50", "ms"),
    ("engines.group_response_us_p50", "us"),
    ("engines.group_response_us_max", "us"),
    ("engines.parallel_efficiency", "ratio"),
    ("serve.unattributed_ms_p50", "ms"),
    ("algo.relaxations", "count"),
    ("algo.activations", "count"),
    ("algo.resets", "count"),
    ("algo.valuable", "count"),
    ("algo.delayed", "count"),
    ("algo.useless", "count"),
    ("core.converge_s", "s"),
    ("core.simulate_ms_p50", "ms"),
    ("core.host_ns_per_cycle", "ns/cycle"),
    ("core.response_cycles_p50", "cycles"),
    ("core.total_cycles_p50", "cycles"),
    ("core.identification_cycles_p50", "cycles"),
    ("core.additions_cycles_p50", "cycles"),
    ("core.drain_cycles_p50", "cycles"),
    ("sim.dram_read_bytes", "bytes"),
    ("sim.dram_row_hit_rate", "ratio"),
    ("sim.spm_hit_rate", "ratio"),
    ("bench.tracing_overhead", "ratio"),
];

/// Collects per-layer samples (per batch or per pass, reported as their
/// median) and values set once per pass during a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of `name`: set, else the median of its samples, else 0.
    pub fn get(&self, name: &str) -> f64 {
        if let Some(&v) = self.values.get(name) {
            return v;
        }
        match self.samples.get(name) {
            Some(s) if !s.is_empty() => median(s),
            _ => 0.0,
        }
    }

    /// Sum of the samples of `name` (0 if none).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| s.iter().sum())
    }

    /// Every metric of [`PER_LAYER`], in order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.push(name, self.get(name), unit);
        }
        m
    }
}

/// Running total `(count, sum)` of an obs histogram.
pub fn hist(name: &str) -> (u64, u64) {
    let s = cisgraph_obs::histogram(name).snapshot();
    (s.count, s.sum)
}

/// Milliseconds an obs histogram accumulated since `before`.
pub fn hist_ms_since(name: &str, before: (u64, u64)) -> f64 {
    (hist(name).1 - before.1) as f64 / 1e6
}

pub fn counter(name: &str) -> u64 {
    cisgraph_obs::counter(name).get()
}

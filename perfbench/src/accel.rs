//! The `accel-or8` workload: every batch is applied to the graph, then
//! simulated on the multi-query accelerator model.

use crate::layers::{counter, hist, hist_ms_since, Layers};
use crate::report::{ms, Tally};
use crate::workload::{Expected, Inputs};
use crate::{check_expected, Pass, SETUPS};
use cisgraph_algo::Ppsp;
use cisgraph_core::{AcceleratorConfig, MultiAccelReport, MultiQueryAccel};
use cisgraph_graph::{DynamicGraph, GraphView, SnapshotScratch};
use std::time::Instant;

pub struct Accel<'a> {
    pub inputs: &'a Inputs,
    pub expected: &'a [Expected],
}

/// Pass totals of the traced run.
#[derive(Default)]
struct Totals {
    simulate_ns: f64,
    cycles: u64,
    dram_read_bytes: u64,
    row_hits: u64,
    row_misses: u64,
    spm_hits: u64,
    spm_misses: u64,
    relaxations: u64,
    activations: u64,
    resets: u64,
    valuable: u64,
    delayed: u64,
    useless: u64,
}

impl Accel<'_> {
    /// Sets the graph and accelerator up `SETUPS` times, then applies and
    /// simulates every batch on the last set-up.
    pub fn pass(&self, traced: bool, tally: &mut Tally, layers: &mut Layers) -> Pass {
        let inputs = self.inputs;
        let mut setups = Vec::with_capacity(SETUPS);
        let mut set_up = None;
        for _ in 0..SETUPS {
            // Untimed: tear the previous set-up down.
            drop(set_up.take());
            let t0 = Instant::now();
            let graph =
                DynamicGraph::from_edges(inputs.num_vertices, inputs.initial.iter().copied());
            let build = t0.elapsed();
            let t = Instant::now();
            let accel = MultiQueryAccel::<Ppsp>::new(
                &graph,
                &inputs.queries,
                AcceleratorConfig::date2025(),
            );
            let converge = t.elapsed();
            setups.push(t0.elapsed().as_secs_f64());
            if traced {
                layers.sample("graph.build_s", build.as_secs_f64());
                layers.sample("core.converge_s", converge.as_secs_f64());
            }
            set_up = Some((graph, accel));
        }
        let (mut graph, mut accel) = set_up.expect("SETUPS is positive");

        let mut checks = self.expected.iter().peekable();
        if let Some(e) = checks.next_if(|e| e.after == 0) {
            check_expected(tally, e, &accel.answers(), graph.num_edges());
        }
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let mut scratch = SnapshotScratch::new();
        let mut totals = Totals::default();
        let promotions = counter("graph.index_promotions");
        let mut pass = Pass::new(setups);
        for (i, batch) in inputs.batches.iter().enumerate() {
            let (elapsed, applied, report) = if traced {
                // The program records no span on this path, so the trace's
                // spans come from here, around each call into a layer.
                let apply = hist("graph.apply_batch_ns");
                let batch_span = cisgraph_obs::span("bench.accel.batch");
                let t = Instant::now();
                let applied = {
                    let _s = cisgraph_obs::span("bench.accel.apply");
                    graph.apply_batch(batch)
                };
                let ts = Instant::now();
                let snapshot = {
                    let _s = cisgraph_obs::span("bench.accel.snapshot");
                    graph.snapshot_with(&mut scratch, threads)
                };
                let snapshot_time = ts.elapsed();
                let ts = Instant::now();
                let report = {
                    let _s = cisgraph_obs::span("bench.accel.simulate");
                    accel.process_batch_on_snapshot(&snapshot, batch)
                };
                let simulate = ts.elapsed();
                scratch.recycle(snapshot);
                let elapsed = t.elapsed();
                drop(batch_span);
                layers.sample(
                    "graph.apply_ms_p50",
                    hist_ms_since("graph.apply_batch_ns", apply),
                );
                layers.sample("graph.snapshot_ms_p50", ms(snapshot_time));
                layers.sample("core.simulate_ms_p50", ms(simulate));
                layers.sample("accel.batch_ms", ms(elapsed));
                totals.simulate_ns += simulate.as_nanos() as f64;
                (elapsed, applied, report)
            } else {
                let t = Instant::now();
                let applied = graph.apply_batch(batch);
                let report = accel.process_batch(&graph, batch);
                (t.elapsed(), applied, report)
            };
            let ordered = report.response_cycles <= report.total_cycles;
            tally.check(applied.is_ok() && ordered, || {
                format!(
                    "batch {i}: apply {applied:?}, response {} > total {} cycles",
                    report.response_cycles, report.total_cycles
                )
            });
            if applied.is_ok() && ordered {
                pass.batch(elapsed, batch.len());
            }
            if traced {
                record_cycles(layers, &mut totals, &report);
            }
            if let Some(e) = checks.next_if(|e| e.after == i + 1) {
                check_expected(tally, e, &accel.answers(), graph.num_edges());
            }
        }
        pass.answers = accel.answers();
        if traced {
            let t = &totals;
            layers.set(
                "graph.index_promotions",
                (counter("graph.index_promotions") - promotions) as f64,
            );
            layers.set(
                "core.host_ns_per_cycle",
                t.simulate_ns / t.cycles.max(1) as f64,
            );
            layers.set("sim.dram_read_bytes", t.dram_read_bytes as f64);
            layers.set(
                "sim.dram_row_hit_rate",
                ratio(t.row_hits, t.row_hits + t.row_misses),
            );
            layers.set(
                "sim.spm_hit_rate",
                ratio(t.spm_hits, t.spm_hits + t.spm_misses),
            );
            layers.set("algo.relaxations", t.relaxations as f64);
            layers.set("algo.activations", t.activations as f64);
            layers.set("algo.resets", t.resets as f64);
            layers.set("algo.valuable", t.valuable as f64);
            layers.set("algo.delayed", t.delayed as f64);
            layers.set("algo.useless", t.useless as f64);
        }
        pass
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-batch cycle milestones and pass totals of one simulated batch.
/// Query `k` starts where query `k - 1` ended on the shared timeline, so
/// phase lengths are summed per query from that start.
fn record_cycles(layers: &mut Layers, totals: &mut Totals, report: &MultiAccelReport) {
    layers.sample("core.response_cycles_p50", report.response_cycles as f64);
    layers.sample("core.total_cycles_p50", report.total_cycles as f64);
    let (mut ident, mut adds, mut drain, mut start) = (0u64, 0u64, 0u64, 0u64);
    for (_, r) in &report.per_query {
        let m = r.milestones;
        ident += m.identification_done.saturating_sub(start);
        adds += m.additions_done.saturating_sub(start);
        drain += m.drain_done.saturating_sub(m.response);
        start = r.total_cycles;
        let c = &r.classification;
        totals.valuable += (c.valuable_additions + c.valuable_deletions) as u64;
        totals.delayed += c.delayed_deletions as u64;
        totals.useless += (c.useless_additions + c.useless_deletions) as u64;
    }
    layers.sample("core.identification_cycles_p50", ident as f64);
    layers.sample("core.additions_cycles_p50", adds as f64);
    layers.sample("core.drain_cycles_p50", drain as f64);
    totals.cycles += report.total_cycles;
    totals.dram_read_bytes += report.mem.dram_read_bytes;
    totals.row_hits += report.mem.row_hits;
    totals.row_misses += report.mem.row_misses;
    totals.spm_hits += report.mem.spm_hits;
    totals.spm_misses += report.mem.spm_misses;
    totals.relaxations += report.counters.computations;
    totals.activations += report.counters.activations;
    totals.resets += report.counters.resets;
}

//! The served workloads: `serve-or64` on the in-memory `QueryServer`, and
//! `ingest-uk-durable` on a durable one followed by recovery.

use crate::layers::{counter, hist, hist_ms_since, Layers};
use crate::report::{ms, Tally};
use crate::workload::{Expected, Inputs};
use crate::{check_expected, Pass, SETUPS, THREADS};
use cisgraph_algo::Ppsp;
use cisgraph_engines::{QueryServer, ServeConfig, ServeReport};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_persist::checkpoint::CkptKind;
use cisgraph_persist::{
    checkpoint, delta, recover, snapshot_digest, CheckpointMode, DurableStore, FsyncPolicy,
    PersistConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches between checkpoints of the durable server: one batch in
/// eight starts one, more than the tenth the workload is meant to have.
const CHECKPOINT_EVERY: u64 = 8;

/// One served workload.
pub struct Served<'a> {
    pub inputs: &'a Inputs,
    pub expected: &'a [Expected],
    /// The durable server's store directory, emptied before every pass;
    /// `None` serves from memory.
    pub store: Option<&'a Path>,
}

fn persist_config(dir: &Path) -> PersistConfig {
    let mut cfg = PersistConfig::new(dir);
    cfg.fsync = FsyncPolicy::EveryBatch;
    cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    cfg.mode = CheckpointMode::Delta;
    cfg.background = true;
    cfg
}

impl Served<'_> {
    /// Sets the server up `SETUPS` times, serves one pass over the stream
    /// on the last one and, when durable, recovers the store. `traced`
    /// collects per-layer samples.
    pub fn pass(&self, traced: bool, tally: &mut Tally, layers: &mut Layers) -> Pass {
        let inputs = self.inputs;
        let mut setups = Vec::with_capacity(SETUPS);
        let mut server = None;
        for _ in 0..SETUPS {
            // Untimed: tear the previous set-up down (joining its
            // checkpoint worker) and empty the store.
            drop(server.take());
            if let Some(dir) = self.store {
                clear_dir(dir);
            }
            let (s, secs) = self.set_up(traced, layers);
            setups.push(secs);
            server = Some(s);
        }
        let mut server = server.expect("SETUPS is positive");

        let mut checks = self.expected.iter().peekable();
        if let Some(e) = checks.next_if(|e| e.after == 0) {
            check_expected(tally, e, &server.answers(), server.graph().num_edges());
        }
        let mut pass = Pass::new(setups);
        let mut probe = traced.then(Probe::start);
        for (i, batch) in inputs.batches.iter().enumerate() {
            // Validation is timed twice on the benchmark's side: the first
            // call pays the cold caches an untraced batch pays, the second
            // runs as warm as the program's own validation right after it
            // and is what the residual subtracts.
            let validate_ms = traced.then(|| {
                let time = || {
                    let t = Instant::now();
                    std::hint::black_box(server.graph().validate_batch(batch).is_ok());
                    ms(t.elapsed())
                };
                (time(), time())
            });
            let before = probe.as_ref().map(|_| Spans::read());
            let t = Instant::now();
            let result = server.process_batch(batch);
            let elapsed = t.elapsed();
            match result {
                Ok(report) => {
                    tally.check(true, String::new);
                    pass.batch(elapsed, batch.len());
                    if let (Some(p), Some(before), Some(v)) = (&mut probe, before, validate_ms) {
                        p.batch(layers, &before, v, &report, self.store.is_some());
                    }
                }
                Err(e) => tally.check(false, || format!("batch {i}: {e}")),
            }
            if let Some(e) = checks.next_if(|e| e.after == i + 1) {
                check_expected(tally, e, &server.answers(), server.graph().num_edges());
            }
        }
        pass.answers = server.answers();

        let Some(dir) = self.store else {
            if let Some(p) = probe {
                p.finish(layers);
            }
            return pass;
        };
        let live_digest = snapshot_digest(&server.graph().snapshot());
        // Dropping the server joins the background checkpoint worker.
        drop(server);
        if let Some(p) = probe {
            p.finish(layers);
        }
        // One recovery per pass; the run reports the median over passes.
        if traced {
            layers.sample("persist.recover_chain_ms", ms(time_chain_load(dir)));
        }
        let replay = hist("persist.recover.replay_ns");
        let t = Instant::now();
        let recovered = recover(dir, || DynamicGraph::new(inputs.num_vertices));
        let elapsed = t.elapsed();
        match recovered {
            Ok(r) => {
                let digest = snapshot_digest(&r.graph.snapshot());
                tally.check(digest == live_digest, || {
                    format!("recovered digest {digest:08x} != live {live_digest:08x}")
                });
                pass.recovery = Some(elapsed.as_secs_f64());
                if traced {
                    layers.sample(
                        "persist.recover_replay_ms",
                        hist_ms_since("persist.recover.replay_ns", replay),
                    );
                }
            }
            Err(e) => tally.check(false, || format!("recover: {e}")),
        }
        clear_dir(dir);
        pass
    }

    /// Builds the graph, opens the store when durable and converges the
    /// standing queries: the program's set-up. Returns the server and the
    /// seconds the set-up took.
    fn set_up(&self, traced: bool, layers: &mut Layers) -> (QueryServer<Ppsp>, f64) {
        let inputs = self.inputs;
        let t0 = Instant::now();
        let graph = DynamicGraph::from_edges(inputs.num_vertices, inputs.initial.iter().copied());
        let build = t0.elapsed();
        let t = Instant::now();
        let (graph, store) = match self.store {
            None => (graph, None),
            Some(dir) => {
                let (store, recovered) = DurableStore::open(persist_config(dir), move || graph)
                    .expect("open the benchmark's store");
                (recovered.graph, Some(store))
            }
        };
        let open = t.elapsed();
        let t = Instant::now();
        let mut server =
            QueryServer::<Ppsp>::new(graph, &inputs.queries, &ServeConfig::with_threads(THREADS));
        let converge = t.elapsed();
        if let Some(store) = store {
            server.attach_durability(store);
        }
        let setup = t0.elapsed();
        if traced {
            layers.sample("graph.build_s", build.as_secs_f64());
            layers.sample("engines.converge_s", converge.as_secs_f64());
            if self.store.is_some() {
                layers.sample("persist.open_s", open.as_secs_f64());
            }
        }
        (server, setup.as_secs_f64())
    }
}

/// Removes `dir` and everything in it, if it exists.
fn clear_dir(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot clear {}: {e}", dir.display()),
    }
}

/// Loads the checkpoint chain recovery starts from (newest head back to
/// its full base) with the persist crate's loaders, and returns the time.
fn time_chain_load(dir: &Path) -> Duration {
    let entries = checkpoint::list_all(dir).expect("list checkpoints");
    let t = Instant::now();
    let mut cur = entries
        .last()
        .expect("a durable pass leaves checkpoints")
        .clone();
    loop {
        match cur.kind {
            CkptKind::Full => {
                std::hint::black_box(checkpoint::load_forward(&cur.path).expect("load full"));
                break;
            }
            CkptKind::Delta => {
                let d = delta::load(&cur.path).expect("load delta");
                let parent = entries
                    .iter()
                    .rev()
                    .find(|e| e.next_seq == d.parent_seq && e.path != cur.path)
                    .expect("delta parent present")
                    .clone();
                std::hint::black_box(d);
                cur = parent;
            }
        }
    }
    t.elapsed()
}

/// Running totals of the obs histograms a served batch records into.
struct Spans {
    batch: (u64, u64),
    wal: (u64, u64),
    ingest: (u64, u64),
    apply: (u64, u64),
    fsync: (u64, u64),
}

impl Spans {
    fn read() -> Self {
        Self {
            batch: hist("span.serve.batch"),
            wal: hist("span.serve.wal_append"),
            ingest: hist("span.serve.ingest"),
            apply: hist("graph.apply_batch_ns"),
            fsync: hist("persist.wal.fsync_ns"),
        }
    }
}

/// Per-pass state of the traced run's attribution.
struct Probe {
    promotions: u64,
    wal_bytes: u64,
    ckpt_count: u64,
    ckpt_bytes: u64,
    /// Last seen `(count, sum)` of background checkpoint writes.
    ckpt_write: (u64, u64),
    relaxations: u64,
    activations: u64,
    resets: u64,
    valuable: u64,
    delayed: u64,
    useless: u64,
}

fn ckpt_counts() -> (u64, u64) {
    (
        counter("persist.ckpt.full.count") + counter("persist.ckpt.delta.count"),
        counter("persist.ckpt.full.bytes") + counter("persist.ckpt.delta.bytes"),
    )
}

impl Probe {
    fn start() -> Self {
        let (ckpt_count, ckpt_bytes) = ckpt_counts();
        Self {
            promotions: counter("graph.index_promotions"),
            wal_bytes: counter("persist.wal.bytes_written"),
            ckpt_count,
            ckpt_bytes,
            ckpt_write: hist("persist.ckpt.write_ns"),
            relaxations: 0,
            activations: 0,
            resets: 0,
            valuable: 0,
            delayed: 0,
            useless: 0,
        }
    }

    /// Splits one served batch across the layers.
    fn batch(
        &mut self,
        layers: &mut Layers,
        before: &Spans,
        (validate_cold, validate_warm): (f64, f64),
        report: &ServeReport,
        durable: bool,
    ) {
        let batch = hist_ms_since("span.serve.batch", before.batch);
        let wal = hist_ms_since("span.serve.wal_append", before.wal);
        let ingest = hist_ms_since("span.serve.ingest", before.ingest);
        let fanout = ms(report.wall_time);
        layers.sample("serve.batch_span_ms", batch);
        layers.sample("graph.validate_ms_p50", validate_cold);
        layers.sample("serve.validate_warm_ms", validate_warm);
        layers.sample(
            "graph.apply_ms_p50",
            hist_ms_since("graph.apply_batch_ns", before.apply),
        );
        layers.sample("serve.ingest_ms", ingest);
        layers.sample("engines.fanout_ms_p50", fanout);
        layers.sample(
            "serve.unattributed_ms_p50",
            batch - validate_warm - wal - ingest - fanout,
        );
        if durable {
            layers.sample("persist.wal_append_ms_p50", wal);
            layers.sample(
                "persist.fsync_ms_p50",
                hist_ms_since("persist.wal.fsync_ns", before.fsync),
            );
            self.sample_ckpt_write(layers);
        }
        let work = &report.work;
        layers.sample("engines.response_ms_p50", ms(work.response_time));
        layers.sample(
            "engines.drain_ms_p50",
            ms(work.total_time.saturating_sub(work.response_time)),
        );
        layers.sample(
            "engines.group_response_us_p50",
            ms(report.response_p50) * 1e3,
        );
        layers.sample(
            "engines.group_response_us_max",
            ms(report.response_max) * 1e3,
        );
        layers.sample(
            "engines.parallel_efficiency",
            work.total_time.as_secs_f64()
                / (report.wall_time.as_secs_f64() * report.shards.max(1) as f64),
        );
        self.relaxations += work.counters.computations;
        self.activations += work.counters.activations;
        self.resets += work.counters.resets;
        let c = &report.classification;
        self.valuable += (c.valuable_additions + c.valuable_deletions) as u64;
        self.delayed += c.delayed_deletions as u64;
        self.useless += (c.useless_additions + c.useless_deletions) as u64;
    }

    /// Samples the background checkpoint write that completed since the
    /// last look, if exactly one did.
    fn sample_ckpt_write(&mut self, layers: &mut Layers) {
        let now = hist("persist.ckpt.write_ns");
        if now.0 == self.ckpt_write.0 + 1 && now.1 > self.ckpt_write.1 {
            layers.sample(
                "persist.ckpt_write_ms_p50",
                (now.1 - self.ckpt_write.1) as f64 / 1e6,
            );
        }
        self.ckpt_write = now;
    }

    /// Totals of the pass; call after the server (and with it the
    /// checkpoint worker) is gone.
    fn finish(mut self, layers: &mut Layers) {
        if self.ckpt_write != hist("persist.ckpt.write_ns") {
            self.sample_ckpt_write(layers);
        }
        let (ckpt_count, ckpt_bytes) = ckpt_counts();
        layers.set(
            "graph.index_promotions",
            (counter("graph.index_promotions") - self.promotions) as f64,
        );
        layers.set(
            "persist.wal_bytes",
            (counter("persist.wal.bytes_written") - self.wal_bytes) as f64,
        );
        layers.set("persist.ckpt_count", (ckpt_count - self.ckpt_count) as f64);
        layers.set("persist.ckpt_bytes", (ckpt_bytes - self.ckpt_bytes) as f64);
        layers.set("algo.relaxations", self.relaxations as f64);
        layers.set("algo.activations", self.activations as f64);
        layers.set("algo.resets", self.resets as f64);
        layers.set("algo.valuable", self.valuable as f64);
        layers.set("algo.delayed", self.delayed as f64);
        layers.set("algo.useless", self.useless as f64);
    }
}

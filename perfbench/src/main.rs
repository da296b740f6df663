//! End-to-end and per-layer benchmark of the CISGraph workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-or64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run makes as many passes as fit in `--seconds` on the reference
//! machine (`Shape::passes`), a count fixed by the workload and
//! `--seconds` alone. Each pass generates an instance of the workload from
//! `--seed` and computes its reference answers (untimed), then sets the
//! program up `SETUPS` times, sends every batch through the program's
//! public entry points and checks the outputs. The last line of stdout is
//! one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run replays one instance: its first
//! pass runs with instrumentation off (the baseline of
//! `bench.tracing_overhead`), later passes turn the program's `obs` spans
//! and metrics on, and the per-layer table and a Chrome trace are written
//! to `--out-dir`. See `perfbench/README.md`.

mod accel;
mod layers;
mod reference;
mod report;
mod serve;
mod workload;

use layers::Layers;
use report::{median, percentile, Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Expected, Inputs, Shape, Workload};

use cisgraph_types::{PairQuery, State};

/// Worker threads the program may use.
pub const THREADS: usize = 2;

/// Reference checks per pass besides the one after set-up.
const CHECKS_PER_PASS: usize = 4;

/// Set-ups per pass. Each is timed and all but the last are torn down;
/// `setup_s` is the median over the run's set-ups, so one slow set-up
/// cannot move it.
pub const SETUPS: usize = 3;

/// `(name, unit)` of every end-to-end metric, in output order; the same
/// list as `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("updates_per_s", "updates/s"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str = "usage: perfbench --workload <serve-or64|ingest-uk-durable|accel-or8> \
--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--out-dir <dir>]";

/// What one pass over the stream measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds of each of the pass's `SETUPS` set-ups.
    pub setups: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub batch_secs: f64,
    pub updates: usize,
    pub answers: Vec<(PairQuery, State)>,
    /// Seconds `recover` took after the pass (durable workload only).
    pub recovery: Option<f64>,
    /// Peak resident set of the process, in MiB, when the pass ended.
    pub peak_rss_mib: f64,
}

impl Pass {
    fn new(setups: Vec<f64>) -> Self {
        Self {
            setups,
            batch_ms: Vec::new(),
            batch_secs: 0.0,
            updates: 0,
            answers: Vec::new(),
            recovery: None,
            peak_rss_mib: 0.0,
        }
    }

    fn batch(&mut self, elapsed: Duration, updates: usize) {
        self.batch_ms.push(report::ms(elapsed));
        self.batch_secs += elapsed.as_secs_f64();
        self.updates += updates;
    }
}

/// Compares the program's answers and live edge count with the
/// reference's: two checks.
pub fn check_expected(
    tally: &mut Tally,
    e: &Expected,
    answers: &[(PairQuery, State)],
    edges: usize,
) {
    tally.check(edges == e.edges, || {
        format!(
            "after batch {}: {edges} live edges, reference has {}",
            e.after, e.edges
        )
    });
    let same = answers.len() == e.answers.len()
        && answers.iter().all(|(q, s)| {
            e.answers
                .get(&(q.source().raw(), q.destination().raw()))
                .is_some_and(|&d| d == s.get())
        });
    tally.check(same, || {
        format!("after batch {}: answers differ from the reference", e.after)
    });
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut work_dir = PathBuf::from("perfbench/work");
        let mut out_dir = PathBuf::from("perfbench/out");
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad(&"must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    });
                }
                "--work-dir" => work_dir = PathBuf::from(value),
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            work_dir,
            out_dir,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape();
    let name = args.workload.name();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (untraced, traced) = if args.workload == Workload::AccelOr8 {
        passes(
            &args,
            &shape,
            &mut tally,
            &mut layers,
            |i, t, tally, layers| {
                let accel = accel::Accel {
                    inputs: &i.inputs,
                    expected: &i.expected,
                };
                accel.pass(t, tally, layers)
            },
        )
    } else {
        let store = args.work_dir.join(name);
        let store = (args.workload == Workload::IngestUkDurable).then_some(store.as_path());
        passes(
            &args,
            &shape,
            &mut tally,
            &mut layers,
            |i, t, tally, layers| {
                let served = serve::Served {
                    inputs: &i.inputs,
                    expected: &i.expected,
                    store,
                };
                served.pass(t, tally, layers)
            },
        )
    };
    // Traced passes replay the untraced pass's instance.
    for p in &traced {
        tally.check(p.answers == untraced[0].answers, || {
            "traced answers differ from the untraced pass".to_string()
        });
    }

    let pooled = |ps: &[Pass]| -> Vec<f64> { ps.iter().flat_map(|p| p.batch_ms.clone()).collect() };
    let base = pooled(&untraced);
    let metrics = if args.trace {
        for r in untraced.iter().filter_map(|p| p.recovery) {
            layers.sample("persist.recover_s", r);
        }
        layers.set(
            "bench.tracing_overhead",
            median(&pooled(&traced)) / median(&base),
        );
        write_traced(&args, &layers);
        layers.metrics()
    } else {
        let setups: Vec<f64> = untraced.iter().flat_map(|p| p.setups.clone()).collect();
        let updates: usize = untraced.iter().map(|p| p.updates).sum();
        let secs: f64 = untraced.iter().map(|p| p.batch_secs).sum();
        let values = [
            median(&setups),
            percentile(&base, 0.5),
            percentile(&base, 0.9),
            updates as f64 / secs,
            // After the first pass only: later passes reuse a heap the
            // earlier instances fragmented, which moves the peak by
            // several percent.
            untraced[0].peak_rss_mib,
        ];
        let mut m = Metrics::default();
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            m.push(name, value, unit);
        }
        m
    };
    let pass_p50s: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.2}", median(&p.batch_ms)))
        .collect();
    eprintln!(
        "perfbench: {name}: {} untraced + {} traced passes, {} timed batches; \
         batch p50 per untraced pass (ms): {}",
        untraced.len(),
        traced.len(),
        base.len(),
        pass_p50s.join(" ")
    );
    println!("{}", report::result_line(tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One generated instance of a workload and the reference's expectations.
pub struct Instance {
    pub inputs: Inputs,
    pub expected: Vec<Expected>,
}

impl Instance {
    fn prepare(args: &Args, shape: &Shape, k: u64) -> Self {
        let start = Instant::now();
        let inputs = Inputs::generate(shape, workload::mix(args.seed, k));
        let every = inputs.batches.len().div_ceil(CHECKS_PER_PASS);
        let expected = inputs
            .expectations(every, THREADS)
            .expect("the generated stream deletes only live edges");
        eprintln!(
            "perfbench: {} seed {} instance {k}: {} vertices, {} edges in G0, {} batches of {} \
             updates, {} queries; inputs and reference ready in {:.1} s",
            args.workload.name(),
            args.seed,
            inputs.num_vertices,
            inputs.initial.len(),
            inputs.batches.len(),
            inputs.batches[0].len(),
            inputs.queries.len(),
            start.elapsed().as_secs_f64()
        );
        Self { inputs, expected }
    }
}

/// Runs `shape.passes(--seconds)` passes. Untraced, every pass gets an
/// instance of its own, so a run's figures pool several inputs drawn from
/// its seed. With `--trace 1` every pass replays instance 0: the first
/// untraced, the rest (at least one) traced. Returns `(untraced, traced)`.
fn passes(
    args: &Args,
    shape: &Shape,
    tally: &mut Tally,
    layers: &mut Layers,
    mut pass: impl FnMut(&Instance, bool, &mut Tally, &mut Layers) -> Pass,
) -> (Vec<Pass>, Vec<Pass>) {
    let count = shape.passes(args.seconds).max(1 + usize::from(args.trace));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut current: Option<(u64, Instance)> = None;
    for n in 0..count {
        let k = if args.trace { 0 } else { n as u64 };
        if current.as_ref().map(|c| c.0) != Some(k) {
            // Free the previous instance before generating the next.
            current.take();
            current = Some((k, Instance::prepare(args, shape, k)));
        }
        let instance = &current.as_ref().expect("prepared above").1;
        let trace_this = args.trace && n > 0;
        if trace_this && n == 1 {
            cisgraph_obs::enable();
            cisgraph_obs::enable_tracing();
        }
        let mut p = pass(instance, trace_this, tally, layers);
        p.peak_rss_mib = report::peak_rss_mib();
        if trace_this {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }
    (untraced, traced)
}

/// Writes the traced run's per-layer table (with the served workloads'
/// batch-time shares) and its Chrome trace.
fn write_traced(args: &Args, layers: &Layers) {
    let name = args.workload.name();
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let share = |part: &str, whole: &str| {
        let w = layers.sum(whole);
        if w > 0.0 {
            layers.sum(part) / w
        } else {
            0.0
        }
    };
    let mut shares = Metrics::default();
    for (label, part, whole) in [
        (
            "serve.validate",
            "serve.validate_warm_ms",
            "serve.batch_span_ms",
        ),
        (
            "serve.wal_append",
            "persist.wal_append_ms_p50",
            "serve.batch_span_ms",
        ),
        ("serve.ingest", "serve.ingest_ms", "serve.batch_span_ms"),
        (
            "serve.fanout",
            "engines.fanout_ms_p50",
            "serve.batch_span_ms",
        ),
        (
            "serve.unattributed",
            "serve.unattributed_ms_p50",
            "serve.batch_span_ms",
        ),
        ("accel.apply", "graph.apply_ms_p50", "accel.batch_ms"),
        ("accel.snapshot", "graph.snapshot_ms_p50", "accel.batch_ms"),
        ("accel.simulate", "core.simulate_ms_p50", "accel.batch_ms"),
    ] {
        shares.push(label, share(part, whole), "share");
    }
    let table = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"metrics\": {}, \"shares\": {}}}\n",
        args.seed,
        layers.metrics().to_json(),
        shares.to_json()
    );
    let layers_path = args.out_dir.join(format!("{name}.layers.json"));
    std::fs::write(&layers_path, table).expect("write the per-layer table");
    let trace_path = args.out_dir.join(format!("{name}.trace.json"));
    std::fs::write(&trace_path, cisgraph_obs::export_chrome_trace())
        .expect("write the Chrome trace");
    eprintln!(
        "perfbench: wrote {} and {}",
        layers_path.display(),
        trace_path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::END_TO_END;
    use crate::layers::PER_LAYER;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let end = start + text[start..].find(']').expect("section closes");
        let field = |entry: &str, key: &str| {
            let pattern = format!("\"{key}\": \"");
            let from = entry.find(&pattern).expect("entry has the key") + pattern.len();
            let len = entry[from..].find('"').expect("string closes");
            entry[from..from + len].to_string()
        };
        text[start..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        assert_eq!(owned(END_TO_END), listed("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        assert_eq!(owned(PER_LAYER), listed("per_layer"));
    }
}

//! Workload shapes and their seeded inputs.
//!
//! Inputs follow the paper's §IV-A protocol through the repository's own
//! generators: a 1 % stand-in, 50 % of its edges loaded as G0, then
//! batches of equal parts additions and deletions. Generation is the
//! benchmark's side of the line and is never timed.

use crate::reference::EdgeMultiset;
use cisgraph_datasets::{registry, Dataset, StreamConfig};
use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
use std::collections::{BTreeMap, BTreeSet};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy: 64 standing queries on the in-memory server.
    ServeOr64,
    /// Write-heavy: one query on the durable server, then recovery.
    IngestUkDurable,
    /// The accelerator model with 8 standing queries.
    AccelOr8,
}

/// The size of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub dataset: Dataset,
    /// Fraction of the real dataset's vertex count.
    pub scale: f64,
    /// Additions per batch; deletions per batch are the same.
    pub per_batch: usize,
    /// Batches in one pass over the stream.
    pub batches: usize,
    /// Standing queries.
    pub queries: usize,
    /// Wall seconds one pass takes on the reference machine (generation,
    /// reference, set-ups, stream and checks). A run makes
    /// `passes(seconds)` passes, so the count follows from `--seconds`
    /// alone and never from how fast the code under test is.
    pub pass_seconds: f64,
}

impl Shape {
    /// Passes a run of `seconds` makes: the nearest whole number of
    /// `pass_seconds`, at least one.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_seconds).round() as usize).max(1)
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::ServeOr64, Self::IngestUkDurable, Self::AccelOr8];

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeOr64 => "serve-or64",
            Self::IngestUkDurable => "ingest-uk-durable",
            Self::AccelOr8 => "accel-or8",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Self::ServeOr64 => Shape {
                dataset: registry::orkut_like(),
                scale: 0.01,
                per_batch: 640,
                batches: 200,
                queries: 64,
                pass_seconds: 5.5,
            },
            Self::IngestUkDurable => Shape {
                dataset: registry::uk2002_like(),
                scale: 0.01,
                per_batch: 10_000,
                batches: 100,
                queries: 1,
                pass_seconds: 17.5,
            },
            Self::AccelOr8 => Shape {
                dataset: registry::orkut_like(),
                scale: 0.01,
                per_batch: 640,
                batches: 200,
                queries: 8,
                pass_seconds: 5.5,
            },
        }
    }
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub num_vertices: usize,
    /// The edges of G0.
    pub initial: Vec<(VertexId, VertexId, Weight)>,
    /// One pass over the stream.
    pub batches: Vec<Vec<EdgeUpdate>>,
    pub queries: Vec<PairQuery>,
}

/// What the reference says the program must report after a batch.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Batches applied so far (0 = right after set-up).
    pub after: usize,
    /// Live edge count.
    pub edges: usize,
    /// Shortest-path distance per `(source, destination)`.
    pub answers: BTreeMap<(u32, u32), f64>,
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the inputs of `shape` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the stand-in is too small for the requested stream.
    pub fn generate(shape: &Shape, seed: u64) -> Self {
        let edges = shape.dataset.generate(shape.scale, mix(seed, 1));
        let mut stream = StreamConfig::paper_default()
            .with_batch_size(shape.per_batch, shape.per_batch)
            .build(edges, mix(seed, 2));
        let num_vertices = stream.num_vertices();
        let initial = stream.initial_edges().to_vec();
        let batches: Vec<_> = (0..shape.batches)
            .map(|_| {
                stream
                    .next_batch()
                    .expect("stand-in holds enough edges for the stream")
            })
            .collect();
        let queries = pick_queries(num_vertices, &initial, shape.queries, mix(seed, 3));
        Self {
            num_vertices,
            initial,
            batches,
            queries,
        }
    }

    /// Walks the stream on the reference multiset and records the expected
    /// state right after set-up, after every `every`-th batch, and after
    /// the last one.
    pub fn expectations(&self, every: usize, threads: usize) -> Result<Vec<Expected>, String> {
        let mut set = EdgeMultiset::new(self.num_vertices);
        for &(u, v, w) in &self.initial {
            set.insert(u.raw(), v.raw(), w.get());
        }
        let mut out = vec![Expected {
            after: 0,
            edges: set.len(),
            answers: set.distances(&self.queries, threads),
        }];
        for (i, batch) in self.batches.iter().enumerate() {
            set.apply(batch)?;
            let after = i + 1;
            if after % every == 0 || after == self.batches.len() {
                out.push(Expected {
                    after,
                    edges: set.len(),
                    answers: set.distances(&self.queries, threads),
                });
            }
        }
        Ok(out)
    }
}

/// `count` distinct pairs whose source has an out-edge and whose
/// destination has an in-edge in G0.
fn pick_queries(
    num_vertices: usize,
    initial: &[(VertexId, VertexId, Weight)],
    count: usize,
    seed: u64,
) -> Vec<PairQuery> {
    let mut has_out = vec![false; num_vertices];
    let mut has_in = vec![false; num_vertices];
    for &(u, v, _) in initial {
        has_out[u.index()] = true;
        has_in[v.index()] = true;
    }
    let sources: Vec<u32> = (0..num_vertices as u32)
        .filter(|&v| has_out[v as usize])
        .collect();
    let dests: Vec<u32> = (0..num_vertices as u32)
        .filter(|&v| has_in[v as usize])
        .collect();
    let mut picked = BTreeSet::new();
    let mut state = seed;
    while picked.len() < count {
        state = mix(state, 4);
        let s = sources[(state % sources.len() as u64) as usize];
        let d = dests[((state >> 32) % dests.len() as u64) as usize];
        if s != d {
            picked.insert((s, d));
        }
    }
    picked
        .into_iter()
        .map(|(s, d)| PairQuery::new(VertexId::new(s), VertexId::new(d)).expect("s != d"))
        .collect()
}

//! The independent reference every workload is checked against.
//!
//! It shares no code with the program's graph or algorithm crates: the
//! edge set is a plain multiset keyed by `(src, dst, weight)`, and each
//! standing query's answer comes from a textbook Dijkstra over a CSR built
//! from that multiset.

use cisgraph_types::{EdgeUpdate, PairQuery, UpdateKind};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// A multiset of weighted directed edges.
#[derive(Debug, Clone)]
pub struct EdgeMultiset {
    num_vertices: usize,
    /// Multiplicity of each `(src, dst, weight bits)` triple.
    edges: HashMap<(u32, u32, u64), u32>,
    len: usize,
}

impl EdgeMultiset {
    /// An empty multiset over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: HashMap::new(),
            len: 0,
        }
    }

    /// Number of edges, parallel copies included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Adds one copy of `src -> dst` with weight `w`.
    pub fn insert(&mut self, src: u32, dst: u32, w: f64) {
        *self.edges.entry((src, dst, w.to_bits())).or_insert(0) += 1;
        self.len += 1;
    }

    /// Removes one copy of exactly `src -> dst` with weight `w`.
    pub fn remove(&mut self, src: u32, dst: u32, w: f64) -> Result<(), String> {
        let key = (src, dst, w.to_bits());
        match self.edges.get_mut(&key) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.edges.remove(&key);
                }
                self.len -= 1;
                Ok(())
            }
            None => Err(format!("delete of absent edge {src} -> {dst} (w = {w})")),
        }
    }

    /// Applies a stream batch: inserts add a copy, deletes remove the
    /// copy with the same endpoints and weight.
    pub fn apply(&mut self, batch: &[EdgeUpdate]) -> Result<(), String> {
        for u in batch {
            let (s, d, w) = (u.src().raw(), u.dst().raw(), u.weight().get());
            match u.kind() {
                UpdateKind::Insert => self.insert(s, d, w),
                UpdateKind::Delete => self.remove(s, d, w)?,
            }
        }
        Ok(())
    }

    /// Shortest-path distance of every query, keyed by `(source,
    /// destination)`; `f64::INFINITY` when the destination is unreachable.
    /// Sources are spread over `threads` threads.
    pub fn distances(&self, queries: &[PairQuery], threads: usize) -> BTreeMap<(u32, u32), f64> {
        let csr = Csr::build(self);
        let mut by_source: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for q in queries {
            by_source
                .entry(q.source().raw())
                .or_default()
                .push(q.destination().raw());
        }
        let jobs: Vec<(u32, Vec<u32>)> = by_source.into_iter().collect();
        let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
        let csr = &csr;
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (src, dsts) in part {
                            let dist = csr.dijkstra(*src, dsts);
                            out.extend(dsts.iter().map(|&d| ((*src, d), dist[d as usize])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference Dijkstra thread panicked"))
                .collect()
        })
    }
}

/// Forward adjacency of an [`EdgeMultiset`] in compressed rows.
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl Csr {
    fn build(set: &EdgeMultiset) -> Self {
        let mut offsets = vec![0usize; set.num_vertices + 1];
        for (&(s, _, _), &count) in &set.edges {
            offsets[s as usize + 1] += count as usize;
        }
        for i in 0..set.num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; set.len];
        let mut weights = vec![0f64; set.len];
        for (&(s, d, w), &count) in &set.edges {
            for _ in 0..count {
                let at = &mut fill[s as usize];
                targets[*at] = d;
                weights[*at] = f64::from_bits(w);
                *at += 1;
            }
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Dijkstra from `src`, stopping once every vertex of `stop_after` is
    /// settled. Only the entries of `stop_after` are final; one the search
    /// never reached stays at infinity.
    fn dijkstra(&self, src: u32, stop_after: &[u32]) -> Vec<f64> {
        let n = self.offsets.len() - 1;
        let mut dist = vec![f64::INFINITY; n];
        let mut settled = vec![false; n];
        let mut pending = stop_after.len();
        let mut wanted = vec![false; n];
        for &d in stop_after {
            wanted[d as usize] = true;
        }
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0.0;
        heap.push(Entry(0.0, src));
        while let Some(Entry(d, u)) = heap.pop() {
            let u = u as usize;
            if settled[u] {
                continue;
            }
            settled[u] = true;
            if wanted[u] {
                wanted[u] = false;
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            for i in self.offsets[u]..self.offsets[u + 1] {
                let v = self.targets[i] as usize;
                let nd = d + self.weights[i];
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Entry(nd, v as u32));
                }
            }
        }
        dist
    }
}

/// Min-heap entry ordered by distance.
struct Entry(f64, u32);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::{VertexId, Weight};

    fn q(s: u32, d: u32) -> PairQuery {
        PairQuery::new(VertexId::new(s), VertexId::new(d)).unwrap()
    }

    fn upd(insert: bool, s: u32, d: u32, w: f64) -> EdgeUpdate {
        let (s, d, w) = (VertexId::new(s), VertexId::new(d), Weight::new(w).unwrap());
        if insert {
            EdgeUpdate::insert(s, d, w)
        } else {
            EdgeUpdate::delete(s, d, w)
        }
    }

    /// 0 -> 1 twice (weights 4 and 1), 1 -> 3 (1), 0 -> 2 (2), 2 -> 3 (5),
    /// 3 -> 4 (1); vertex 5 is isolated.
    fn hand_graph() -> EdgeMultiset {
        let mut g = EdgeMultiset::new(6);
        for (s, d, w) in [
            (0, 1, 4.0),
            (0, 1, 1.0),
            (1, 3, 1.0),
            (0, 2, 2.0),
            (2, 3, 5.0),
            (3, 4, 1.0),
        ] {
            g.insert(s, d, w);
        }
        g
    }

    #[test]
    fn shortest_paths_use_the_lighter_parallel_edge() {
        let g = hand_graph();
        let d = g.distances(&[q(0, 3), q(0, 4), q(0, 5), q(2, 4)], 2);
        // 0 -1-> 1 -1-> 3: the weight-1 copy of 0 -> 1 wins.
        assert_eq!(d[&(0, 3)], 2.0);
        assert_eq!(d[&(0, 4)], 3.0);
        assert_eq!(d[&(0, 5)], f64::INFINITY);
        assert_eq!(d[&(2, 4)], 6.0);
    }

    #[test]
    fn deleting_one_parallel_copy_keeps_the_other() {
        let mut g = hand_graph();
        g.apply(&[upd(false, 0, 1, 1.0)]).unwrap();
        // The weight-4 copy remains: 0 -4-> 1 -1-> 3 = 5 still beats
        // 0 -2-> 2 -5-> 3 = 7.
        assert_eq!(g.distances(&[q(0, 3)], 1)[&(0, 3)], 5.0);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn deletion_reroutes_the_shortest_path() {
        let mut g = hand_graph();
        g.apply(&[upd(false, 1, 3, 1.0)]).unwrap();
        // With 1 -> 3 gone the path goes through 2: 2 + 5 = 7, then 3 -> 4.
        let d = g.distances(&[q(0, 3), q(0, 4)], 2);
        assert_eq!(d[&(0, 3)], 7.0);
        assert_eq!(d[&(0, 4)], 8.0);
        // Re-adding a cheaper bypass in the same batch as another delete.
        g.apply(&[upd(true, 0, 4, 6.5), upd(false, 3, 4, 1.0)])
            .unwrap();
        assert_eq!(g.distances(&[q(0, 4)], 1)[&(0, 4)], 6.5);
    }

    #[test]
    fn deleting_an_absent_edge_is_an_error() {
        let mut g = hand_graph();
        assert!(g.apply(&[upd(false, 0, 1, 2.0)]).is_err());
        assert!(g.apply(&[upd(false, 4, 0, 1.0)]).is_err());
        assert_eq!(g.len(), 6);
    }
}

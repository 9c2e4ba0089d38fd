//! Seeded inputs: fault-set streams, query pairs and the churn op stream.
//!
//! Everything here is a pure function of the seed and the generated
//! graph; the system under test sees only the results.

use crate::api::{Edge, Graph};
use std::collections::HashSet;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn norm((u, v): Edge) -> Edge {
    (u.min(v), u.max(v))
}

/// A request stream: fault sets, pair lists, and which of each every
/// request carries.
pub struct Stream {
    /// Distinct fault sets (endpoint pairs).
    pub fault_sets: Vec<Vec<Edge>>,
    /// Pair lists.
    pub pair_sets: Vec<Vec<Edge>>,
    /// Request `i` carries `fault_sets[requests[i].0]` and
    /// `pair_sets[requests[i].1]`.
    pub requests: Vec<(usize, usize)>,
}

impl Stream {
    /// The faults and pairs of request `i`.
    pub fn request(&self, i: usize) -> (&[Edge], &[Edge]) {
        let (f, p) = self.requests[i];
        (&self.fault_sets[f], &self.pair_sets[p])
    }
}

/// Draws a fault set over `pool` (normalized live edges). One in eight
/// removes every edge of a vertex of degree `1..=max_f` whose edges all
/// lie in `pool`, returning that vertex; the rest draw `1..=max_f` distinct
/// edges.
fn fault_set(
    rng: &mut Rng,
    g: &Graph,
    pool: &[Edge],
    in_pool: &HashSet<Edge>,
    max_f: usize,
) -> (Vec<Edge>, Option<usize>) {
    if rng.below(8) == 0 {
        for _ in 0..1000 {
            let v = rng.below(g.n());
            let edges = g.incident(v);
            if (1..=max_f).contains(&edges.len())
                && edges.iter().all(|&e| in_pool.contains(&norm(e)))
            {
                return (edges, Some(v));
            }
        }
    }
    let size = 1 + rng.below(max_f);
    let mut faults: Vec<Edge> = Vec::with_capacity(size);
    while faults.len() < size {
        let e = pool[rng.below(pool.len())];
        if !faults.contains(&e) {
            faults.push(e);
        }
    }
    (faults, None)
}

/// `count` random pairs with `s != t`; the first starts at `first` when
/// given (an isolated vertex, so the request sees a `false`).
fn pairs(rng: &mut Rng, n: usize, count: usize, first: Option<usize>) -> Vec<Edge> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let s = match (out.is_empty(), first) {
            (true, Some(v)) => v,
            _ => rng.below(n),
        };
        let t = rng.below(n);
        if s != t {
            out.push((s, t));
        }
    }
    out
}

fn fault_stream(
    rng: &mut Rng,
    g: &Graph,
    pool: &[Edge],
    sets: usize,
    max_f: usize,
) -> Vec<(Vec<Edge>, Option<usize>)> {
    let in_pool: HashSet<Edge> = pool.iter().copied().collect();
    (0..sets)
        .map(|_| fault_set(rng, g, pool, &in_pool, max_f))
        .collect()
}

/// `wire_faults`: `requests` requests, each with its own fault set of
/// size `1..=f` and `pairs_per` pairs.
pub fn fresh_faults(g: &Graph, seed: u64, f: usize, requests: usize, pairs_per: usize) -> Stream {
    let mut rng = Rng::new(seed, 1);
    let pool: Vec<Edge> = g.edges().into_iter().map(norm).collect();
    let mut s = Stream {
        fault_sets: Vec::new(),
        pair_sets: Vec::new(),
        requests: Vec::new(),
    };
    for (i, (faults, isolated)) in fault_stream(&mut rng, g, &pool, requests, f)
        .into_iter()
        .enumerate()
    {
        s.fault_sets.push(faults);
        s.pair_sets
            .push(pairs(&mut rng, g.n(), pairs_per, isolated));
        s.requests.push((i, i));
    }
    s
}

/// `wire_sweep`: `sets` fault sets of size `1..=f`, every request
/// re-checking the same `pairs_per` demand pairs.
pub fn sweep(g: &Graph, seed: u64, f: usize, sets: usize, pairs_per: usize) -> Stream {
    let mut rng = Rng::new(seed, 2);
    let pool: Vec<Edge> = g.edges().into_iter().map(norm).collect();
    let fault_sets: Vec<Vec<Edge>> = fault_stream(&mut rng, g, &pool, sets, f)
        .into_iter()
        .map(|(faults, _)| faults)
        .collect();
    Stream {
        requests: (0..sets).map(|i| (i, 0)).collect(),
        fault_sets,
        pair_sets: vec![pairs(&mut rng, g.n(), pairs_per, None)],
    }
}

/// One churn op: insert or delete an edge.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Insert (`true`) or delete.
    pub insert: bool,
    /// The edge.
    pub edge: Edge,
    /// Whether the edge is one of the original graph's.
    pub original: bool,
}

/// The churn inputs: the writer's op stream and the reader's requests,
/// whose faults avoid every edge an op touches, so each names a live edge
/// in every version of the graph.
pub struct Churn {
    /// Ops in order; a run applies a prefix.
    pub ops: Vec<Op>,
    /// The reader's requests.
    pub reads: Stream,
}

/// Whether `a` and `b` are joined by three edge-disjoint paths avoiding
/// edge `skip`: three augmenting paths of a unit-capacity flow.
fn three_paths(
    adj: &[Vec<(usize, usize)>],
    edges: &[Edge],
    skip: usize,
    a: usize,
    b: usize,
) -> bool {
    // Flow along each edge's stored orientation, in {-1, 0, 1}.
    let mut flow = vec![0i8; edges.len()];
    let mut prev = vec![usize::MAX; adj.len()];
    for _ in 0..3 {
        prev.fill(usize::MAX);
        prev[a] = skip;
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(x) = queue.pop_front() {
            if x == b {
                break;
            }
            for &(y, e) in &adj[x] {
                let forward = edges[e].0 == x;
                let along = if forward { flow[e] } else { -flow[e] };
                if e != skip && prev[y] == usize::MAX && along < 1 {
                    prev[y] = e;
                    queue.push_back(y);
                }
            }
        }
        if prev[b] == usize::MAX {
            return false;
        }
        let mut y = b;
        while y != a {
            let e = prev[y];
            let x = if edges[e].0 == y {
                edges[e].1
            } else {
                edges[e].0
            };
            flow[e] += if edges[e].0 == x { 1 } else { -1 };
            y = x;
        }
    }
    true
}

/// Builds `ops` churn ops and a reader stream of `read_sets` fault sets
/// of size `1..=f` over `reads` requests of `pairs_per` pairs.
///
/// The ops insert a fresh chord and delete it again at once; about one
/// op in sixteen instead deletes an original edge or reinserts the one
/// deleted before. No chord is live when an original edge goes, so the
/// rebuild a tree-edge delete forces spans original edges only and every
/// later chord op stays incremental: the structural path runs, on a small
/// and steady share of the ops.
///
/// Each original edge the writer may delete has three edge-disjoint
/// paths between its endpoints besides itself, so deleting it never
/// changes connectivity under any reader fault set (at most two other
/// edges): the oracle of every version is the original graph's, merged
/// along the live chords.
pub fn churn(
    g: &Graph,
    seed: u64,
    f: usize,
    ops: usize,
    read_sets: usize,
    reads: usize,
    pairs_per: usize,
) -> Churn {
    assert!(f <= 2, "deleted originals stay redundant under two faults");
    let mut rng = Rng::new(seed, 3);
    let n = g.n();
    let original: Vec<Edge> = g.edges().into_iter().map(norm).collect();
    let is_original: HashSet<Edge> = original.iter().copied().collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (e, &(u, v)) in original.iter().enumerate() {
        adj[u].push((v, e));
        adj[v].push((u, e));
    }
    let mut candidates: Vec<usize> = (0..original.len())
        .filter(|&e| adj[original[e].0].len() > 3 && adj[original[e].1].len() > 3)
        .collect();
    let mut churned: Vec<Edge> = Vec::new();
    while churned.len() < 64 && !candidates.is_empty() {
        let e = candidates.swap_remove(rng.below(candidates.len()));
        let (a, b) = original[e];
        if three_paths(&adj, &original, e, a, b) {
            churned.push(original[e]);
        }
    }
    let churned_set: HashSet<Edge> = churned.iter().copied().collect();
    let mut out = Vec::with_capacity(ops + 1);
    let mut deleted: Option<Edge> = None;
    while out.len() < ops {
        // A chord pair is two ops, so one draw in eight is one op in
        // sixteen.
        if rng.below(8) == 0 && !churned.is_empty() {
            let (insert, edge) = match deleted.take() {
                Some(e) => (true, e),
                None => {
                    let e = churned[rng.below(churned.len())];
                    deleted = Some(e);
                    (false, e)
                }
            };
            out.push(Op {
                insert,
                edge,
                original: true,
            });
            continue;
        }
        let edge = loop {
            let e = norm((rng.below(n), rng.below(n)));
            if e.0 != e.1 && !is_original.contains(&e) {
                break e;
            }
        };
        for insert in [true, false] {
            out.push(Op {
                insert,
                edge,
                original: false,
            });
        }
    }
    out.truncate(ops);
    let stable: Vec<Edge> = original
        .iter()
        .copied()
        .filter(|e| !churned_set.contains(e))
        .collect();
    let sets = fault_stream(&mut rng, g, &stable, read_sets, f);
    let mut s = Stream {
        fault_sets: Vec::new(),
        pair_sets: Vec::new(),
        requests: Vec::new(),
    };
    for i in 0..reads {
        let (_, isolated) = sets[i % read_sets];
        s.pair_sets.push(pairs(&mut rng, n, pairs_per, isolated));
        s.requests.push((i % read_sets, i));
    }
    s.fault_sets = sets.into_iter().map(|(faults, _)| faults).collect();
    Churn { ops: out, reads: s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let g = Graph::random_connected(200, 400, 9);
        let a = fresh_faults(&g, 5, 4, 64, 4);
        let b = fresh_faults(&g, 5, 4, 64, 4);
        assert_eq!(a.fault_sets, b.fault_sets);
        assert_eq!(a.pair_sets, b.pair_sets);
        assert!(a.fault_sets.iter().all(|f| (1..=4).contains(&f.len())));
    }

    #[test]
    fn churn_ops_never_fail_and_reads_avoid_churned_edges() {
        let g = Graph::random_connected(300, 900, 4);
        let c = churn(&g, 11, 2, 500, 16, 32, 16);
        let mut live: HashSet<Edge> = g.edges().into_iter().map(norm).collect();
        let mut touched = HashSet::new();
        for op in &c.ops {
            let e = norm(op.edge);
            touched.insert(e);
            if op.insert {
                assert!(live.insert(e), "insert of a live edge {e:?}");
            } else {
                assert!(live.remove(&e), "delete of an absent edge {e:?}");
            }
        }
        assert!(c.ops.iter().any(|op| op.original));
        for faults in &c.reads.fault_sets {
            assert!(faults.iter().all(|&e| !touched.contains(&norm(e))));
        }
    }

    /// The churn check's premise: no reader fault set turns a churned
    /// original edge into a bridge.
    #[test]
    fn churned_originals_stay_redundant_under_reader_faults() {
        let g = Graph::random_connected(300, 900, 5);
        let c = churn(&g, 12, 2, 400, 64, 64, 16);
        let churned: HashSet<Edge> = c
            .ops
            .iter()
            .filter(|op| op.original)
            .map(|op| norm(op.edge))
            .collect();
        assert!(!churned.is_empty());
        let mut oracle = crate::api::Oracle::new(&g);
        for faults in &c.reads.fault_sets {
            for &(a, b) in &churned {
                let mut without = faults.clone();
                without.push((a, b));
                oracle.prepare(&without);
                assert!(oracle.connected(a, b), "({a}, {b}) cut by {faults:?}");
            }
        }
    }
}

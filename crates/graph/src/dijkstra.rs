//! Single-source shortest paths with reusable, epoch-stamped scratch space.
//!
//! [`Dijkstra`] owns epoch-stamped labels and a heap, for one-off searches.
//! A cache of one tree per source instead keeps dense [`SpLabels`] per
//! source and one shared [`Frontier`] (the heap, empty between calls). Both
//! run the same relaxation kernel:
//!
//! * [`Dijkstra::run`] — classic full SSSP, `O(touched)` per call instead
//!   of paying an `O(n)` dist reset (epoch stamps); [`SpLabels::run`] is
//!   the same sweep into a cached tree;
//! * [`SpLabels::repair`] — decrease-only incremental maintenance
//!   (Ramalingam–Reps style) of the tree left by the previous `run` after
//!   new edges were inserted;
//! * [`Dijkstra::run_bidirectional_bounded`] — a threshold-aware
//!   bidirectional search that stops the moment its meeting-point bound is
//!   decisive for the comparison at hand.

use std::collections::BinaryHeap;

use prox_core::ObjectId;

use crate::PartialGraph;

/// Anything Dijkstra can walk: a node count plus a neighbour visitor.
///
/// Implemented by [`PartialGraph`] (SPLUB's bound queries) and by the road
/// network graphs in `prox-datasets` (ground-truth generation).
pub trait Adjacency {
    /// Number of nodes; valid ids are `0..n()`.
    fn n(&self) -> usize;
    /// Calls `f(neighbour, edge_weight)` for every edge incident on `v`.
    fn for_each_neighbor(&self, v: ObjectId, f: &mut dyn FnMut(ObjectId, f64));
}

impl Adjacency for PartialGraph {
    fn n(&self) -> usize {
        PartialGraph::n(self)
    }
    fn for_each_neighbor(&self, v: ObjectId, f: &mut dyn FnMut(ObjectId, f64)) {
        for &(u, w) in self.neighbors(v) {
            f(u, w);
        }
    }
}

/// Max-heap entry ordered so the smallest tentative distance pops first.
#[derive(Copy, Clone, PartialEq)]
struct Entry {
    dist: f64,
    node: ObjectId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on distance for a min-heap; break ties by node id so the
        // visit order is fully deterministic.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Read-only view of the distance labels written by the most recent run.
///
/// Nodes whose stamp is not the current epoch were never touched by that
/// run and read as `f64::INFINITY` — the view is what makes the epoch
/// trick safe: stale garbage from earlier runs is unreachable through it.
#[derive(Copy, Clone)]
pub struct DistMap<'a> {
    dist: &'a [f64],
    stamp: &'a [u32],
    epoch: u32,
}

impl DistMap<'_> {
    /// Distance label of `v` (`INFINITY` if unreached by the last run).
    #[inline]
    pub fn get(&self, v: ObjectId) -> f64 {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }
}

/// Label storage a kernel reads and writes: [`Dijkstra`]'s epoch-stamped
/// scratch or a cached tree's dense [`SpLabels`].
trait Labels {
    fn get(&self, v: ObjectId) -> f64;
    fn set(&mut self, v: ObjectId, d: f64);
}

/// Epoch-stamped labels: starting a new run bumps the epoch instead of an
/// `O(n)` reset (`dijkstra_reset/*` bench cells), which is what makes
/// early-exited searches (`run_to`, the bidirectional search) cheap.
struct Stamped {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Labels for Stamped {
    #[inline]
    fn get(&self, v: ObjectId) -> f64 {
        self.view().get(v)
    }

    #[inline]
    fn set(&mut self, v: ObjectId, d: f64) {
        self.dist[v as usize] = d;
        self.stamp[v as usize] = self.epoch;
    }
}

impl Stamped {
    fn new(n: usize) -> Self {
        Stamped {
            dist: vec![f64::INFINITY; n],
            // Epoch 0 is never current (the first `begin_epoch` moves to
            // 1), so an all-zero stamp array means "nothing visited".
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Opens a fresh visitation epoch: every node reads as unvisited
    /// without touching the `O(n)` dist array. On the (once per 2^32
    /// runs) wraparound the stamps are cleared for real.
    fn begin_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn view(&self) -> DistMap<'_> {
        DistMap {
            dist: &self.dist,
            stamp: &self.stamp,
            epoch: self.epoch,
        }
    }
}

/// One source's shortest-path labels as a dense array (`8·n` bytes,
/// `INFINITY` for unreached nodes), for callers that cache a tree per
/// source. All such trees can share one [`Frontier`]: the heap is empty
/// between calls, so a cached tree costs its labels and nothing more.
pub struct SpLabels {
    dist: Vec<f64>,
}

impl Labels for SpLabels {
    #[inline]
    fn get(&self, v: ObjectId) -> f64 {
        self.dist[v as usize]
    }

    #[inline]
    fn set(&mut self, v: ObjectId, d: f64) {
        self.dist[v as usize] = d;
    }
}

impl SpLabels {
    /// Labels for graphs of up to `n` nodes, all `INFINITY`.
    pub fn new(n: usize) -> Self {
        SpLabels {
            dist: vec![f64::INFINITY; n],
        }
    }

    /// The labels, indexed by node id.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.dist
    }

    /// Runs SSSP from `src` over `graph`, replacing every label; unreachable
    /// nodes read `f64::INFINITY`.
    pub fn run<G: Adjacency + ?Sized>(
        &mut self,
        frontier: &mut Frontier,
        graph: &G,
        src: ObjectId,
    ) {
        assert_fits(graph.n(), self.dist.len());
        self.dist.fill(f64::INFINITY);
        start(self, &mut frontier.heap, src);
        drain(self, &mut frontier.heap, graph);
    }

    /// Decrease-only repair of the labels left by the previous [`run`]
    /// after `new_edges` were *inserted* into `graph` (which must already
    /// contain them). Yields labels bitwise-identical to a fresh `run`
    /// over the grown graph: a Dijkstra label is the minimum over paths of
    /// the left-folded float sum, which is order-independent, and the
    /// drain below relaxes every path that improves through a new edge.
    ///
    /// Only valid for pure growth — edge removals require a fresh `run`
    /// (the caller tracks retractions and falls back).
    ///
    /// [`run`]: SpLabels::run
    pub fn repair<G, I>(&mut self, frontier: &mut Frontier, graph: &G, new_edges: I)
    where
        G: Adjacency + ?Sized,
        I: IntoIterator<Item = (ObjectId, ObjectId, f64)>,
    {
        assert_fits(graph.n(), self.dist.len());
        let heap = &mut frontier.heap;
        heap.clear();
        // Seed: each new edge may shortcut either endpoint from the other.
        for (a, b, w) in new_edges {
            let (da, db) = (self.get(a), self.get(b));
            if da + w < db {
                let nd = da + w;
                self.set(b, nd);
                heap.push(Entry { dist: nd, node: b });
            } else if db + w < da {
                let nd = db + w;
                self.set(a, nd);
                heap.push(Entry { dist: nd, node: a });
            }
        }
        // Drain: propagate the decreases over the full (grown) adjacency.
        drain(self, heap, graph);
    }
}

/// The priority queue the Dijkstra kernels drain. It is empty between
/// calls, so one `Frontier` can serve any number of [`SpLabels`].
pub struct Frontier {
    heap: BinaryHeap<Entry>,
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier::new()
    }
}

impl Frontier {
    /// An empty queue with room for a typical frontier.
    pub fn new() -> Self {
        Frontier {
            heap: BinaryHeap::with_capacity(64),
        }
    }
}

fn assert_fits(n: usize, len: usize) {
    assert!(n <= len, "graph larger than Dijkstra scratch ({n} > {len})");
}

/// Clears `heap` and queues `src` at distance 0. The caller has already
/// reset `labels` (a new epoch, or a fill).
fn start<L: Labels>(labels: &mut L, heap: &mut BinaryHeap<Entry>, src: ObjectId) {
    heap.clear();
    labels.set(src, 0.0);
    heap.push(Entry {
        dist: 0.0,
        node: src,
    });
}

/// Pops `heap` to exhaustion, relaxing every settled node's neighbours.
/// Every heap entry's node has a label, so `get` is valid for the
/// stale-entry check.
fn drain<L: Labels, G: Adjacency + ?Sized>(
    labels: &mut L,
    heap: &mut BinaryHeap<Entry>,
    graph: &G,
) {
    while let Some(Entry { dist: d, node: v }) = heap.pop() {
        if d > labels.get(v) {
            continue; // stale entry
        }
        graph.for_each_neighbor(v, &mut |u, w| {
            let nd = d + w;
            if nd < labels.get(u) {
                labels.set(u, nd);
                heap.push(Entry { dist: nd, node: u });
            }
        });
    }
}

/// Dijkstra's algorithm with owned, reusable scratch buffers.
///
/// Reusing the distance array and heap across runs keeps them
/// allocation-free after warm-up, and the epoch stamp makes the per-run
/// reset `O(1)` instead of `O(n)` (`dijkstra_reset/*` bench cells).
pub struct Dijkstra {
    labels: Stamped,
    heap: BinaryHeap<Entry>,
}

impl Dijkstra {
    /// Scratch sized for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        Dijkstra {
            labels: Stamped::new(n),
            heap: BinaryHeap::with_capacity(64),
        }
    }

    /// Opens a new epoch with only `src` labelled (at 0) and queued.
    fn begin<G: Adjacency + ?Sized>(&mut self, graph: &G, src: ObjectId) {
        assert_fits(graph.n(), self.labels.dist.len());
        self.labels.begin_epoch();
        start(&mut self.labels, &mut self.heap, src);
    }

    /// The labels written by the most recent run (all-`INFINITY` before
    /// any run).
    #[inline]
    pub fn view(&self) -> DistMap<'_> {
        self.labels.view()
    }

    /// Runs SSSP from `src` over `graph` and returns the label view;
    /// unreachable nodes read `f64::INFINITY`.
    pub fn run<G: Adjacency + ?Sized>(&mut self, graph: &G, src: ObjectId) -> DistMap<'_> {
        self.begin(graph, src);
        drain(&mut self.labels, &mut self.heap, graph);
        self.view()
    }

    /// Like [`Dijkstra::run`] but stops as soon as `target` is settled,
    /// returning its distance. Used when only one shortest path is needed
    /// (e.g. a road-network oracle resolving a single pair).
    pub fn run_to<G: Adjacency + ?Sized>(
        &mut self,
        graph: &G,
        src: ObjectId,
        target: ObjectId,
    ) -> f64 {
        self.begin(graph, src);
        let Dijkstra { labels, heap } = self;
        while let Some(Entry { dist: d, node: v }) = heap.pop() {
            if v == target {
                return d;
            }
            if d > labels.get(v) {
                continue;
            }
            graph.for_each_neighbor(v, &mut |u, w| {
                let nd = d + w;
                if nd < labels.get(u) {
                    labels.set(u, nd);
                    heap.push(Entry { dist: nd, node: u });
                }
            });
        }
        f64::INFINITY
    }

    /// Bidirectional Dijkstra from `a` and `b` that gives up the moment it
    /// can no longer find a connecting path shorter than `cutoff`.
    ///
    /// Returns `Some(μ)` — the weight of a *real* `a`–`b` path (so a sound
    /// upper bound on the shortest-path distance) — only when `μ < cutoff`;
    /// `None` means "no path shorter than the cutoff was certified" and the
    /// caller must fall back to an exact computation. The two searches use
    /// separate scratches (`fwd` from `a`, `bwd` from `b`) so a caller's
    /// cached full trees are never clobbered.
    ///
    /// Termination: once `top(fwd) + top(bwd) ≥ min(μ, cutoff)` no
    /// undiscovered meeting can beat what we already have (weights are
    /// non-negative), so the loop stops — usually long before either
    /// search settles the whole component.
    pub fn run_bidirectional_bounded<G: Adjacency + ?Sized>(
        fwd: &mut Dijkstra,
        bwd: &mut Dijkstra,
        graph: &G,
        a: ObjectId,
        b: ObjectId,
        cutoff: f64,
    ) -> Option<f64> {
        fwd.begin(graph, a);
        bwd.begin(graph, b);

        let mut mu = f64::INFINITY;
        // One frontier exhausting means no better meeting exists.
        while let (Some(tf), Some(tb)) = (
            fwd.heap.peek().map(|e| e.dist),
            bwd.heap.peek().map(|e| e.dist),
        ) {
            if tf + tb >= mu.min(cutoff) {
                break;
            }
            // Expand the cheaper frontier (ties to the forward side).
            let (this, other) = if tf <= tb {
                (&mut *fwd, &mut *bwd)
            } else {
                (&mut *bwd, &mut *fwd)
            };
            let Dijkstra { labels, heap } = this;
            let Some(Entry { dist: d, node: v }) = heap.pop() else {
                break;
            };
            if d > labels.get(v) {
                continue; // stale
            }
            let other_view = other.view();
            graph.for_each_neighbor(v, &mut |u, w| {
                let nd = d + w;
                if nd < labels.get(u) {
                    labels.set(u, nd);
                    heap.push(Entry { dist: nd, node: u });
                    let od = other_view.get(u);
                    if od.is_finite() && nd + od < mu {
                        mu = nd + od;
                    }
                }
            });
        }
        (mu < cutoff).then_some(mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_core::Pair;

    fn path_graph(n: usize) -> PartialGraph {
        // 0 -1.0- 1 -1.0- 2 ...
        let mut g = PartialGraph::new(n);
        for v in 0..n as ObjectId - 1 {
            g.insert(Pair::new(v, v + 1), 1.0);
        }
        g
    }

    fn labels(d: DistMap<'_>, n: usize) -> Vec<f64> {
        (0..n as ObjectId).map(|v| d.get(v)).collect()
    }

    #[test]
    fn line_distances() {
        let g = path_graph(6);
        let mut dj = Dijkstra::new(6);
        let d = dj.run(&g, 0);
        assert_eq!(labels(d, 6), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = PartialGraph::new(4);
        g.insert(Pair::new(0, 1), 0.5);
        let mut dj = Dijkstra::new(4);
        let d = dj.run(&g, 0);
        assert_eq!(d.get(1), 0.5);
        assert!(d.get(2).is_infinite());
        assert!(d.get(3).is_infinite());
    }

    #[test]
    fn picks_shorter_route() {
        let mut g = PartialGraph::new(4);
        g.insert(Pair::new(0, 1), 1.0);
        g.insert(Pair::new(1, 3), 1.0);
        g.insert(Pair::new(0, 2), 0.25);
        g.insert(Pair::new(2, 3), 0.25);
        let mut dj = Dijkstra::new(4);
        assert_eq!(dj.run(&g, 0).get(3), 0.5);
        assert_eq!(dj.run_to(&g, 0, 3), 0.5);
    }

    #[test]
    fn run_to_unreachable() {
        let mut g = PartialGraph::new(3);
        g.insert(Pair::new(0, 1), 1.0);
        let mut dj = Dijkstra::new(3);
        assert!(dj.run_to(&g, 0, 2).is_infinite());
    }

    #[test]
    fn scratch_is_reusable() {
        let g = path_graph(5);
        let mut dj = Dijkstra::new(5);
        let first = labels(dj.run(&g, 0), 5);
        let _ = dj.run(&g, 4); // different source in between
        let again = labels(dj.run(&g, 0), 5);
        assert_eq!(first, again, "scratch reuse must not leak state");
    }

    #[test]
    fn epoch_hides_stale_labels() {
        // After running from 4 on the line, node 0 holds a stale label in
        // the raw buffer; a run from 3 on a graph where 0 is unreachable
        // must still read it as INFINITY through the view.
        let g = path_graph(5);
        let mut cut = PartialGraph::new(5);
        cut.insert(Pair::new(3, 4), 1.0);
        let mut dj = Dijkstra::new(5);
        let _ = dj.run(&g, 4);
        let d = dj.run(&cut, 3);
        assert!(d.get(0).is_infinite());
        assert!(d.get(1).is_infinite());
        assert_eq!(d.get(4), 1.0);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let g = path_graph(4);
        let mut dj = Dijkstra::new(4);
        let before = labels(dj.run(&g, 0), 4);
        dj.labels.epoch = u32::MAX; // force the next begin_epoch to wrap
        let after = labels(dj.run(&g, 0), 4);
        assert_eq!(before, after);
        assert_eq!(dj.labels.epoch, 1, "wraparound must land on epoch 1, not 0");
        // And the epoch after the wrap still behaves.
        let again = labels(dj.run(&g, 0), 4);
        assert_eq!(before, again);
    }

    #[test]
    fn run_to_matches_run() {
        let mut g = PartialGraph::new(8);
        // A small web with varied weights.
        let edges = [
            (0, 1, 0.3),
            (0, 2, 0.9),
            (1, 2, 0.4),
            (1, 3, 0.7),
            (2, 4, 0.2),
            (3, 5, 0.1),
            (4, 5, 0.6),
            (4, 6, 0.5),
            (5, 7, 0.8),
        ];
        for (a, b, w) in edges {
            g.insert(Pair::new(a, b), w);
        }
        let mut dj = Dijkstra::new(8);
        let all = labels(dj.run(&g, 0), 8);
        for t in 0..8 {
            assert_eq!(dj.run_to(&g, 0, t), all[t as usize]);
        }
    }

    /// Deterministic pseudo-random edge set for repair/bidi comparisons.
    fn web(n: usize, m: usize, seed: u64) -> Vec<(Pair, f64)> {
        let mut rng = prox_core::TinyRng::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n) as ObjectId;
            let b = rng.below(n) as ObjectId;
            if a == b {
                continue;
            }
            let p = Pair::new(a, b);
            if edges.iter().any(|&(q, _)| q == p) {
                continue;
            }
            edges.push((p, rng.f64_range(0.05, 1.0)));
        }
        edges
    }

    #[test]
    fn repair_matches_fresh_run_bitwise() {
        let n = 24;
        for seed in 0..16u64 {
            let edges = web(n, 60, 0xD11C + seed);
            for src in [0 as ObjectId, 5, 11] {
                // Build a prefix graph, run, then insert the rest and repair.
                for split in [20usize, 40, 59] {
                    let mut g = PartialGraph::new(n);
                    for &(p, w) in &edges[..split] {
                        g.insert(p, w);
                    }
                    let mut frontier = Frontier::new();
                    let mut inc = SpLabels::new(n);
                    inc.run(&mut frontier, &g, src);
                    for &(p, w) in &edges[split..] {
                        g.insert(p, w);
                    }
                    let new = edges[split..].iter().map(|&(p, w)| (p.lo(), p.hi(), w));
                    inc.repair(&mut frontier, &g, new);
                    let repaired = inc.as_slice().to_vec();
                    let mut fresh = Dijkstra::new(n);
                    let full = labels(fresh.run(&g, src), n);
                    // Bitwise, not approximate: both are the min over paths
                    // of the same left-folded sums.
                    for v in 0..n {
                        assert_eq!(
                            repaired[v].to_bits(),
                            full[v].to_bits(),
                            "seed {seed} src {src} split {split} node {v}: \
                             {} vs {}",
                            repaired[v],
                            full[v]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_bound_is_sound_and_tight_enough() {
        let n = 24;
        for seed in 0..16u64 {
            let edges = web(n, 70, 0xB1D1 + seed);
            let mut g = PartialGraph::new(n);
            for &(p, w) in &edges {
                g.insert(p, w);
            }
            let mut full = Dijkstra::new(n);
            let mut fa = Dijkstra::new(n);
            let mut fb = Dijkstra::new(n);
            for q in Pair::all(n) {
                let sp = {
                    let d = full.run(&g, q.lo());
                    d.get(q.hi())
                };
                for cutoff in [0.1, 0.5, 1.0, 2.0, f64::INFINITY] {
                    let got = Dijkstra::run_bidirectional_bounded(
                        &mut fa,
                        &mut fb,
                        &g,
                        q.lo(),
                        q.hi(),
                        cutoff,
                    );
                    match got {
                        Some(mu) => {
                            assert!(mu < cutoff);
                            // μ is a real path, so it can never undercut the
                            // true shortest path by more than float noise.
                            assert!(mu >= sp - 1e-12, "seed {seed} {q:?}: μ {mu} < sp {sp}");
                            // With an open cutoff the meeting search finds
                            // the true shortest path (tight, not just sound).
                            if cutoff.is_infinite() {
                                assert!(
                                    (mu - sp).abs() < 1e-9,
                                    "seed {seed} {q:?}: μ {mu} vs sp {sp}"
                                );
                            }
                        }
                        None => {
                            // Giving up is only allowed when no path beats
                            // the cutoff (modulo the margin the caller adds).
                            assert!(
                                sp >= cutoff || (cutoff - sp) < 1e-9,
                                "seed {seed} {q:?}: sp {sp} beats cutoff {cutoff} but bidi gave up"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_handles_disconnected_pairs() {
        let mut g = PartialGraph::new(6);
        g.insert(Pair::new(0, 1), 0.4);
        g.insert(Pair::new(2, 3), 0.3);
        let mut fa = Dijkstra::new(6);
        let mut fb = Dijkstra::new(6);
        assert_eq!(
            Dijkstra::run_bidirectional_bounded(&mut fa, &mut fb, &g, 0, 3, f64::INFINITY),
            None
        );
        assert_eq!(
            Dijkstra::run_bidirectional_bounded(&mut fa, &mut fb, &g, 0, 1, 1.0),
            Some(0.4)
        );
    }

    #[test]
    fn repair_with_no_new_edges_is_identity() {
        let g = path_graph(6);
        let mut frontier = Frontier::new();
        let mut tree = SpLabels::new(6);
        tree.run(&mut frontier, &g, 2);
        let before = tree.as_slice().to_vec();
        tree.repair(&mut frontier, &g, std::iter::empty());
        assert_eq!(before, tree.as_slice());
        assert_eq!(before, labels(Dijkstra::new(6).run(&g, 2), 6));
    }
}

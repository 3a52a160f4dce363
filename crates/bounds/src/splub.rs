//! SPLUB — Shortest-Path based Lower and Upper Bounds (§4.1, Algorithm 1),
//! served through a three-tier query cascade (DESIGN.md §13).

use std::collections::BTreeMap;

use prox_core::invariant::InvariantExt;
use prox_core::{ObjectId, Pair, SpecBounds, SpecScratch};
use prox_graph::{Ado, Dijkstra, Frontier, PartialGraph, SpLabels};

use crate::resolver::CASCADE_EPS;
use crate::scheme::{CascadeTier, GoalBounds, QueryGoal};
use crate::BoundScheme;

/// Seed for the deterministic ADO landmark draw. Fixed so two SPLUB
/// instances over the same record sequence build bitwise-identical
/// sketches (I5: thread-count must not perturb anything observable).
const ADO_SEED: u64 = 0x05EE_DAD0;

/// `(generation, edge count)` of the graph state a cached tree was settled
/// at. The pair is what makes *incremental repair* safe: when the graph has
/// only grown since the tree was settled (no retraction in between), the
/// appended suffix `edges()[m..]` is exactly the set of new edges, and a
/// decrease-only Ramalingam–Reps repair from their endpoints reproduces the
/// from-scratch tree bitwise (see `SpLabels::repair`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct TreeTag {
    gen: u64,
    m: usize,
}

/// The paper's exact, sparsity-sensitive bound algorithm.
///
/// For an unknown edge `(a, b)`:
///
/// * `TUB(a, b)` — the tightest upper bound — is the shortest-path distance
///   between `a` and `b` through known edges (Definition 1).
/// * `TLB(a, b)` — the tightest lower bound — is, over every known edge
///   `(k, l)` with weight `w`, the best "wrap" residue
///   `w − sp(a, k) − sp(b, l)` (and the symmetric assignment), maximized
///   (Definition 2 / Equation 3).
///
/// Both come out of **two** shortest-path trees (one per endpoint) plus one
/// pass over the known edge list: `O(m + n log n)` per query, `O(1)` per
/// update. Lemma 4.1 proves these bounds are the tightest derivable from the
/// triangle inequality on paths, i.e. identical to what the `O(n²)`-update
/// ADM baseline maintains — a property the cross-scheme test-suite checks on
/// random instances.
///
/// # The query cascade
///
/// The exact tier is expensive, so queries route through cheaper tiers
/// first (each may only *shortcut* the exact answer, never change it):
///
/// 1. **Per-generation memo** — the exact `(lb, ub)` for a pair is a pure
///    function of the graph state, so repeat queries at an unchanged
///    generation are a map lookup.
/// 2. **ADO prescreen** (goal-aware queries only) — a deterministic
///    landmark sketch ([`Ado`]) answers in `O(√n)` with a relaxed
///    sandwich; when it clears the goal threshold by [`CASCADE_EPS`] the
///    comparison is decided with the exact tier's verdict.
/// 3. **Bounded bidirectional Dijkstra** (goal-aware queries only) — a
///    meeting-point search with cutoff `v − CASCADE_EPS` certifies
///    `d < v` from a real path long before either full tree settles.
/// 4. **Exact tier** — the two endpoints' trees from a source-keyed cache
///    plus the wrap fold.
///
/// # The exact tier's caches
///
/// Every source keeps its own tree (labels only, `8·n` bytes, allocated on
/// first use; all trees share one heap), tagged with the graph state it was
/// settled at. A stale tree is repaired over the edges recorded since its
/// tag and rebuilt from scratch only across a retraction, so a sweep that
/// fixes one endpoint and varies the other — kNN's candidate ordering —
/// settles each tree once instead of once per query. The wrap fold reads a
/// weight-sorted (descending) copy of the edge list and stops at the first
/// edge with `w ≤ lb`; the copy absorbs new edges lazily at the exact tier,
/// never on `record`.
pub struct Splub {
    graph: PartialGraph,
    max_distance: f64,
    /// Exact-tier trees by source id; `None` until the source is first
    /// queried.
    trees: Vec<Option<(SpLabels, TreeTag)>>,
    /// The heap every cached tree runs and repairs through.
    frontier: Frontier,
    /// Generation right after the most recent successful retraction; trees
    /// settled before it must not be repaired incrementally (the retracted
    /// edge may have carried their labels).
    last_retract_gen: u64,
    /// The known edges sorted by weight, descending, for the exact tier's
    /// early-exit fold. Holds exactly the prefix `edges()[..by_weight.len()]`
    /// (a retraction empties it), so a sync merges the suffix after it.
    by_weight: Vec<(Pair, f64)>,
    /// Exact `(lb, ub)` per pair key, valid only at `memo_gen`.
    memo: BTreeMap<u64, (f64, f64)>,
    memo_gen: u64,
    /// Lazily (re)built landmark sketch for the cascade's prescreen tier.
    ado: Option<Ado>,
    /// Scratches for the bidirectional tier, separate from the exact
    /// tier's cached trees so an early-exited search never clobbers them.
    dij_bi_a: Dijkstra,
    dij_bi_b: Dijkstra,
}

/// Per-worker scratch for speculative SPLUB bound queries. The snapshot
/// graph is frozen while the view is borrowed, so a tree is keyed by its
/// source alone (no tag, no repair). A scratch serves one worker's short
/// burst of queries, so it keeps two slots — the last `lo` and `hi`
/// endpoint — sharing one heap, rather than the live scheme's tree per
/// source.
struct SplubScratch {
    frontier: Frontier,
    tree_a: (Option<ObjectId>, SpLabels),
    tree_b: (Option<ObjectId>, SpLabels),
}

impl Splub {
    /// An empty SPLUB scheme over `n` objects with distances in
    /// `[0, max_distance]`.
    pub fn new(n: usize, max_distance: f64) -> Self {
        Splub {
            graph: PartialGraph::new(n),
            max_distance,
            trees: (0..n).map(|_| None).collect(),
            frontier: Frontier::new(),
            last_retract_gen: 0,
            by_weight: Vec::new(),
            memo: BTreeMap::new(),
            memo_gen: 0,
            ado: None,
            dij_bi_a: Dijkstra::new(n),
            dij_bi_b: Dijkstra::new(n),
        }
    }

    /// Read access to the underlying known-edge graph.
    pub fn graph(&self) -> &PartialGraph {
        &self.graph
    }

    /// Brings `src`'s cached tree up to the current graph state: settled on
    /// first use, repaired over the edges recorded since its tag after pure
    /// growth, rebuilt from scratch across a retraction.
    fn ensure_tree(
        trees: &mut [Option<(SpLabels, TreeTag)>],
        frontier: &mut Frontier,
        graph: &PartialGraph,
        src: ObjectId,
        last_retract_gen: u64,
    ) {
        let now = TreeTag {
            gen: graph.generation(),
            m: graph.m(),
        };
        match &mut trees[src as usize] {
            Some((_, tag)) if tag.gen == now.gen => {}
            Some((labels, tag)) if last_retract_gen <= tag.gen => {
                // Pure growth since the tree settled: every generation bump
                // was an insertion, so the appended edge-list suffix is the
                // exact delta.
                debug_assert_eq!(now.gen - tag.gen, (now.m - tag.m) as u64);
                let new = graph.edges()[tag.m..]
                    .iter()
                    .map(|&(p, w)| (p.lo(), p.hi(), w));
                labels.repair(frontier, graph, new);
                *tag = now;
            }
            slot => {
                let (labels, tag) = slot.get_or_insert_with(|| (SpLabels::new(graph.n()), now));
                labels.run(frontier, graph, src);
                *tag = now;
            }
        }
    }

    /// Merges the edges recorded since the last call into `by_weight`. The
    /// stable sort finds the sorted prefix as one run, so the merge costs
    /// `O(m + k log k)` for `k` new edges.
    fn sync_by_weight(&mut self) {
        let edges = self.graph.edges();
        if self.by_weight.len() < edges.len() {
            self.by_weight
                .extend_from_slice(&edges[self.by_weight.len()..]);
            self.by_weight.sort_by(|x, y| y.1.total_cmp(&x.1));
        }
    }

    /// The landmark sketch for the current graph state, rebuilt lazily once
    /// the live generation outruns the sketch by more than a window of `n`
    /// generations (an `O(√n · (m + n log n))` build amortized over at
    /// least `n` updates). A stale-within-window sketch is still *sound*
    /// under growth — it only loses tightness (see the [`Ado`] docs);
    /// retractions drop the sketch outright in [`BoundScheme::retract`].
    fn ado_sketch(&mut self) -> &Ado {
        let gen = self.graph.generation();
        let window = self.graph.n() as u64;
        let rebuild = match &self.ado {
            Some(a) => gen.saturating_sub(a.generation()) > window,
            None => true,
        };
        if rebuild {
            self.ado = Some(Ado::build(&self.graph, self.max_distance, ADO_SEED));
        }
        self.ado.as_ref().expect_invariant("sketch built above")
    }
}

/// TUB/TLB from two settled shortest-path trees (Equations 2 and 3).
/// Shared verbatim by the live and snapshot paths so both produce
/// bitwise-identical bounds from identical trees.
///
/// With `by_weight`, `edges` must be sorted by weight, descending, and the
/// fold stops at the first `w ≤ lb`: every later edge has
/// `via ≤ w' ≤ w ≤ lb` (subtracting a non-negative path sum never rounds
/// up), so it cannot raise the max, and a max does not depend on the order
/// its operands are read in — the early exit returns the full fold's bits.
fn wrap_bounds(
    edges: &[(Pair, f64)],
    by_weight: bool,
    max_distance: f64,
    b: ObjectId,
    sp_a: &[f64],
    sp_b: &[f64],
) -> (f64, f64) {
    // TUB: shortest path a -> b (Equation 2), capped by the a-priori max.
    let ub = max_distance.min(sp_a[b as usize]);

    // TLB: wrap both shortest-path trees onto every known edge
    // (Equation 3). Unreachable endpoints contribute -inf and drop out.
    let mut lb = 0.0f64;
    for &(e, w) in edges {
        if by_weight && w <= lb {
            break;
        }
        let (k, l) = (e.lo() as usize, e.hi() as usize);
        let via = w - (sp_a[k] + sp_b[l]);
        let via_sym = w - (sp_a[l] + sp_b[k]);
        let best = via.max(via_sym);
        if best > lb {
            lb = best;
        }
    }
    if lb > ub {
        lb = ub; // float-noise guard; mathematically lb <= ub
    }
    (lb, ub)
}

impl BoundScheme for Splub {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.graph.get(p)
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        if let Some(d) = self.graph.get(p) {
            return (d, d);
        }
        let gen = self.graph.generation();
        if self.memo_gen != gen {
            self.memo.clear();
            self.memo_gen = gen;
        }
        if let Some(&(lb, ub)) = self.memo.get(&p.key()) {
            return (lb, ub);
        }
        let (a, b) = p.ends();
        for src in [a, b] {
            Self::ensure_tree(
                &mut self.trees,
                &mut self.frontier,
                &self.graph,
                src,
                self.last_retract_gen,
            );
        }
        self.sync_by_weight();
        let tree = |v: ObjectId| {
            let (labels, _) = self.trees[v as usize]
                .as_ref()
                .expect_invariant("tree settled above");
            labels.as_slice()
        };
        let (lb, ub) = wrap_bounds(
            &self.by_weight,
            true,
            self.max_distance,
            b,
            tree(a),
            tree(b),
        );
        self.memo.insert(p.key(), (lb, ub));
        (lb, ub)
    }

    fn record(&mut self, p: Pair, d: f64) {
        self.graph.insert(p, d);
    }

    fn retract(&mut self, p: Pair) -> bool {
        // Removal bumps the graph generation, so the tags on every cached
        // tree (and the memo) miss; marking the retraction generation also
        // bars incremental repair across it. The weight-sorted edge copy is
        // emptied for a rebuild, and the ADO sketch — sound only under pure
        // growth — is dropped outright.
        if self.graph.remove(p).is_some() {
            self.last_retract_gen = self.graph.generation();
            self.by_weight.clear();
            self.ado = None;
            true
        } else {
            false
        }
    }

    fn m(&self) -> usize {
        self.graph.m()
    }

    fn name(&self) -> &'static str {
        "SPLUB"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for &(p, d) in self.graph.edges() {
            f(p, d);
        }
    }

    fn generation(&self) -> u64 {
        self.graph.generation()
    }

    // SPLUB bounds depend on the whole graph (any new edge can shorten a
    // path or improve a wrap), so the conservative default pair stamp — the
    // current generation — is also the sharp one; no override.

    fn spec(&self) -> Option<&dyn SpecBounds> {
        Some(self)
    }

    fn bounds_cacheable(&self) -> bool {
        true
    }

    fn goal_aware(&self) -> bool {
        true
    }

    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        let Some(v) = goal.decisive_at else {
            let (lb, ub) = self.bounds(p);
            return GoalBounds::Exact { lb, ub };
        };
        if let Some(d) = self.graph.get(p) {
            return GoalBounds::Exact { lb: d, ub: d };
        }
        // Memoized exact sandwich beats every tier.
        if self.memo_gen == self.graph.generation() {
            if let Some(&(lb, ub)) = self.memo.get(&p.key()) {
                return GoalBounds::Exact { lb, ub };
            }
        }
        let (a, b) = p.ends();

        // Tier 1: ADO prescreen — O(√n) relaxed sandwich; decisive only
        // outside the guard band (see CASCADE_EPS for why that implies the
        // exact tier's verdict).
        let (lh, uh) = self.ado_sketch().estimate(a, b);
        if uh < v - CASCADE_EPS || lh > v + CASCADE_EPS {
            return GoalBounds::Decisive {
                lb: lh,
                ub: uh,
                tier: CascadeTier::Ado,
            };
        }

        // Tier 2: bounded bidirectional search. Only the *true* side is
        // reachable this way — a meeting point under the cutoff is a real
        // path certifying d < v; absence of one certifies nothing.
        let cutoff = v - CASCADE_EPS;
        if cutoff > 0.0 {
            if let Some(mu) = Dijkstra::run_bidirectional_bounded(
                &mut self.dij_bi_a,
                &mut self.dij_bi_b,
                &self.graph,
                a,
                b,
                cutoff,
            ) {
                return GoalBounds::Decisive {
                    lb: 0.0,
                    ub: self.max_distance.min(mu),
                    tier: CascadeTier::Bidi,
                };
            }
        }

        // Tier 3: the exact sandwich (memoized inside `bounds`).
        let (lb, ub) = self.bounds(p);
        GoalBounds::Exact { lb, ub }
    }
}

impl SpecBounds for Splub {
    fn spec_n(&self) -> usize {
        self.graph.n()
    }

    fn spec_max_distance(&self) -> f64 {
        self.max_distance
    }

    fn spec_generation(&self) -> u64 {
        self.graph.generation()
    }

    fn spec_pair_stamp(&self, _p: Pair) -> u64 {
        self.graph.generation()
    }

    fn spec_known(&self, p: Pair) -> Option<f64> {
        self.graph.get(p)
    }

    fn new_scratch(&self) -> SpecScratch {
        let n = self.graph.n();
        SpecScratch::with(SplubScratch {
            frontier: Frontier::new(),
            tree_a: (None, SpLabels::new(n)),
            tree_b: (None, SpLabels::new(n)),
        })
    }

    fn spec_bounds(&self, p: Pair, scratch: &mut SpecScratch) -> (f64, f64) {
        if let Some(d) = self.graph.get(p) {
            return (d, d);
        }
        if scratch.get_mut::<SplubScratch>().is_none() {
            *scratch = self.new_scratch();
        }
        let s = scratch
            .get_mut::<SplubScratch>()
            .expect_invariant("scratch installed above");
        let (a, b) = p.ends();
        for (src, (held, labels)) in [(a, &mut s.tree_a), (b, &mut s.tree_b)] {
            if *held != Some(src) {
                labels.run(&mut s.frontier, &self.graph, src);
                *held = Some(src);
            }
        }
        // `&self` cannot sync the sorted copy, so the snapshot path folds
        // the insertion-ordered list in full.
        wrap_bounds(
            self.graph.edges(),
            false,
            self.max_distance,
            b,
            s.tree_a.1.as_slice(),
            s.tree_b.1.as_slice(),
        )
    }

    fn spec_label(&self) -> &'static str {
        // Must match `BoundScheme::name` for trace byte-identity (I8).
        "SPLUB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_core::TinyRng;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn single_triangle_matches_tri_scheme() {
        // Same fixture as the paper's Example 2.1 discussion.
        let mut s = Splub::new(7, 1.0);
        s.record(p(1, 3), 0.8);
        s.record(p(3, 4), 0.1);
        let (lb, ub) = s.bounds(p(1, 4));
        assert!((lb - 0.7).abs() < 1e-12);
        assert!((ub - 0.9).abs() < 1e-12);
    }

    #[test]
    fn longer_paths_tighten_ub() {
        // Chain 0 -0.2- 1 -0.2- 2 -0.2- 3: ub(0,3) = 0.6 (no triangle exists,
        // so Tri Scheme would say 1.0 — SPLUB sees the full path).
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        s.record(p(2, 3), 0.2);
        let (lb, ub) = s.bounds(p(0, 3));
        assert!((ub - 0.6).abs() < 1e-12, "ub {ub}");
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn wrap_lower_bound_through_path() {
        // Long edge (2,3)=0.9; sp(0,2)=0.1 via direct, sp(1,3)=0.1.
        // lb(0,1) >= 0.9 - 0.1 - 0.1 = 0.7. Tri Scheme sees no triangle on
        // (0,1) and would return 0 — the paper's motivating gap.
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 2), 0.1);
        s.record(p(2, 3), 0.9);
        s.record(p(1, 3), 0.1);
        let (lb, ub) = s.bounds(p(0, 1));
        assert!((lb - 0.7).abs() < 1e-12, "lb {lb}");
        assert!((ub - 1.0).abs() < 1e-12, "path ub = 1.1 capped, got {ub}");
    }

    #[test]
    fn disconnected_endpoints_trivial_bounds() {
        let mut s = Splub::new(5, 1.0);
        s.record(p(0, 1), 0.4);
        assert_eq!(s.bounds(p(3, 4)), (0.0, 1.0));
    }

    #[test]
    fn known_edge_is_exact() {
        let mut s = Splub::new(3, 1.0);
        s.record(p(0, 2), 0.6);
        assert_eq!(s.bounds(p(0, 2)), (0.6, 0.6));
        assert_eq!(s.m(), 1);
    }

    #[test]
    fn retract_invalidates_cached_shortest_paths() {
        // Chain 0 -0.2- 1 -0.2- 2 -0.2- 3 gives ub(0,3)=0.6; the same query
        // again after retracting the middle edge must not reuse the stale
        // Dijkstra trees (they are keyed by graph generation).
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        s.record(p(2, 3), 0.2);
        assert!((s.bounds(p(0, 3)).1 - 0.6).abs() < 1e-12);
        assert!(s.retract(p(1, 2)));
        assert_eq!(s.known(p(1, 2)), None);
        assert_eq!(s.bounds(p(0, 3)), (0.0, 1.0), "path broken, trees rebuilt");
        // Repair with a different value; the new path is used.
        s.record(p(1, 2), 0.1);
        assert!((s.bounds(p(0, 3)).1 - 0.5).abs() < 1e-12);
        assert!(!s.retract(p(0, 3)), "never-recorded pair refuses");
    }

    #[test]
    fn lb_never_negative() {
        let mut s = Splub::new(3, 1.0);
        s.record(p(0, 1), 0.1);
        s.record(p(1, 2), 0.5);
        // Wrap residues are negative here; lb must clamp at 0.
        let (lb, _) = s.bounds(p(0, 2));
        assert!(lb >= 0.0);
        assert!((lb - 0.4).abs() < 1e-12, "|0.5-0.1| via wrap, got {lb}");
    }

    // ---- cascade / incremental-maintenance tests ------------------------

    /// Random points in the unit square, scaled so distances fit `[0, 1]`
    /// (the cascade's relaxations, like I1, need genuinely metric weights).
    fn coords(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = TinyRng::new(seed);
        (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect()
    }

    fn euclid(c: &[(f64, f64)], q: Pair) -> f64 {
        let (ax, ay) = c[q.lo() as usize];
        let (bx, by) = c[q.hi() as usize];
        (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()) / std::f64::consts::SQRT_2
    }

    /// A deterministic metric record schedule: `m` distinct pairs with
    /// Euclidean distances.
    fn schedule(n: usize, m: usize, seed: u64) -> Vec<(Pair, f64)> {
        let c = coords(n, seed);
        let mut rng = TinyRng::new(seed ^ 0xABCD);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < m {
            let a = rng.below(n) as u32;
            let b = rng.below(n) as u32;
            if a != b && seen.insert(Pair::new(a, b)) {
                out.push((Pair::new(a, b), euclid(&c, Pair::new(a, b))));
            }
        }
        out
    }

    /// A fresh instance over the same edge list.
    fn rebuilt(s: &Splub) -> Splub {
        let mut fresh = Splub::new(s.n(), s.max_distance());
        for &(e, w) in s.graph().edges() {
            fresh.record(e, w);
        }
        fresh
    }

    fn assert_bits(got: (f64, f64), want: (f64, f64), ctx: &str) {
        assert_eq!(
            got.0.to_bits(),
            want.0.to_bits(),
            "lb {ctx}: {got:?} vs {want:?}"
        );
        assert_eq!(
            got.1.to_bits(),
            want.1.to_bits(),
            "ub {ctx}: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn incremental_trees_match_fresh_scheme_bitwise() {
        // Interleave records, retractions and queries; an instance that
        // caches and repairs a tree per source must stay bitwise identical
        // to a fresh instance rebuilt from scratch at every step, for a
        // pair at every source.
        for seed in 0..6u64 {
            let n = 24;
            let sched = schedule(n, 60, 0x1AC + seed);
            let mut inc = Splub::new(n, 1.0);
            let mut rng = TinyRng::new(seed ^ 0xF00);
            for (i, &(e, w)) in sched.iter().enumerate() {
                inc.record(e, w);
                if i % 7 == 6 {
                    let (victim, _) = inc.graph().edges()[rng.below(inc.m())];
                    assert!(inc.retract(victim));
                }
                let mut fresh = rebuilt(&inc);
                for a in 0..n as u32 {
                    let b = (a + 1 + rng.below(n - 1) as u32) % n as u32;
                    let q = Pair::new(a, b);
                    let ctx = format!("seed {seed} step {i} {q:?}");
                    assert_bits(inc.bounds(q), fresh.bounds(q), &ctx);
                }
            }
        }
    }

    /// The Eq. 3 fold as the paper states it: every known edge in insertion
    /// order, no early exit, over trees run from scratch. The reference the
    /// live scheme's weight-sorted, early-exit fold must match bit for bit.
    fn full_fold(g: &PartialGraph, max_distance: f64, q: Pair) -> (f64, f64) {
        let (a, b) = q.ends();
        let mut dij_a = Dijkstra::new(g.n());
        let mut dij_b = Dijkstra::new(g.n());
        let (sp_a, sp_b) = (dij_a.run(g, a), dij_b.run(g, b));
        let ub = max_distance.min(sp_a.get(b));
        let mut lb = 0.0f64;
        for &(e, w) in g.edges() {
            let (k, l) = (e.lo(), e.hi());
            let via = w - (sp_a.get(k) + sp_b.get(l));
            let via_sym = w - (sp_a.get(l) + sp_b.get(k));
            let best = via.max(via_sym);
            if best > lb {
                lb = best;
            }
        }
        if lb > ub {
            lb = ub;
        }
        (lb, ub)
    }

    /// A record schedule built to stress the early exit: many equal
    /// weights (eighths), zero weights, and — when `parts > 1` — edges only
    /// inside `parts` disconnected components.
    fn tie_schedule(n: usize, m: usize, parts: usize, seed: u64) -> Vec<(Pair, f64)> {
        let mut rng = TinyRng::new(seed);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < m {
            let a = rng.below(n);
            let b = rng.below(n);
            if a == b || a % parts != b % parts || !seen.insert(Pair::new(a as u32, b as u32)) {
                continue;
            }
            let w = match rng.below(4) {
                0 => 0.0,
                1 => 0.5,
                _ => (rng.unit_f64() * 8.0).floor() / 8.0,
            };
            out.push((Pair::new(a as u32, b as u32), w));
        }
        out
    }

    #[test]
    fn early_exit_fold_matches_full_fold_bitwise() {
        for seed in 0..8u64 {
            let n = 18;
            let parts = [1, 2, 3][seed as usize % 3];
            let sched = tie_schedule(n, 40, parts, 0xE4 + seed);
            let mut s = Splub::new(n, 1.0);
            let mut rng = TinyRng::new(seed);
            for (i, &(e, w)) in sched.iter().enumerate() {
                s.record(e, w);
                if i % 9 == 8 {
                    let (victim, _) = s.graph().edges()[rng.below(s.m())];
                    assert!(s.retract(victim));
                }
                // Queries after every record exercise the sorted copy's
                // lazy merge; the final state checks every pair.
                let pairs: Vec<Pair> = if i + 1 == sched.len() {
                    Pair::all(n).collect()
                } else {
                    (0..4)
                        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
                        .filter(|(a, b)| a != b)
                        .map(|(a, b)| Pair::new(a, b))
                        .collect()
                };
                for q in pairs {
                    if s.known(q).is_some() {
                        continue;
                    }
                    let want = full_fold(s.graph(), 1.0, q);
                    assert_bits(s.bounds(q), want, &format!("seed {seed} step {i} {q:?}"));
                }
            }
        }
    }

    #[test]
    fn live_bounds_match_spec_bounds() {
        // The snapshot path runs its own trees and folds every edge in
        // insertion order; it must equal the live exact tier (cached
        // trees, early-exit fold) on the same graph state, retraction
        // included.
        for seed in 0..4u64 {
            let n = 20;
            let sched = tie_schedule(n, 50, 1 + seed as usize % 2, 0x5BEC + seed);
            let mut s = Splub::new(n, 1.0);
            for (i, &(e, w)) in sched.iter().enumerate() {
                s.record(e, w);
                if i == 30 {
                    assert!(s.retract(sched[3].0));
                }
                if i % 10 != 9 && i != 30 {
                    continue;
                }
                let mut scratch = s.new_scratch();
                for q in Pair::all(n) {
                    let want = s.spec_bounds(q, &mut scratch);
                    assert_bits(s.bounds(q), want, &format!("seed {seed} step {i} {q:?}"));
                }
            }
        }
    }

    #[test]
    fn memo_serves_repeats_and_invalidates_on_record() {
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        let first = s.bounds(p(0, 2));
        assert_eq!(s.bounds(p(0, 2)), first, "repeat query is memo-served");
        // A record changes the graph; the memo must not serve stale bounds.
        s.record(p(2, 3), 0.2);
        s.record(p(0, 3), 0.1);
        let (_, ub) = s.bounds(p(0, 2));
        assert!((ub - 0.3).abs() < 1e-12, "0-3-2 path 0.3, got {ub}");
    }

    #[test]
    fn goal_without_threshold_is_exact() {
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.3);
        let exact = s.bounds(p(0, 2));
        match s.bounds_for_goal(p(0, 2), QueryGoal::exact()) {
            GoalBounds::Exact { lb, ub } => assert_eq!((lb, ub), exact),
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn cascade_verdicts_match_exact_tier() {
        // For every pair and a sweep of thresholds: whenever the cascade
        // claims Decisive, deciding the comparison from its relaxed
        // sandwich must agree with the exact sandwich for both the strict
        // and non-strict probe under DECISION_EPS margins — and the
        // relaxation must actually relax.
        use crate::resolver::{decide_threshold, Cmp};
        for seed in 0..4u64 {
            let n = 20;
            let mut s = Splub::new(n, 1.0);
            for (e, w) in schedule(n, 50, 0xCA5 + seed) {
                s.record(e, w);
            }
            for q in Pair::all(n) {
                if s.known(q).is_some() {
                    continue;
                }
                let (le, ue) = {
                    let mut fresh = Splub::new(n, 1.0);
                    for &(e, w) in s.graph().edges() {
                        fresh.record(e, w);
                    }
                    fresh.bounds(q)
                };
                for v in [0.05, 0.15, 0.3, 0.5, 0.7, 0.9, ue, le] {
                    if let GoalBounds::Decisive { lb, ub, .. } =
                        s.bounds_for_goal(q, QueryGoal::threshold(v))
                    {
                        assert!(lb <= le + 1e-12 && ub >= ue - 1e-12, "not a relaxation");
                        // try_less_value verdicts.
                        let relaxed = decide_threshold(lb, ub, v, Cmp::Less);
                        let exact = decide_threshold(le, ue, v, Cmp::Less);
                        assert!(relaxed.is_some(), "Decisive must decide {q:?} v={v}");
                        assert_eq!(relaxed, exact, "seed {seed} {q:?} v={v}");
                        // try_leq_value verdicts (false side is strict >).
                        let relaxed_leq = decide_threshold(lb, ub, v, Cmp::Leq);
                        let exact_leq = decide_threshold(le, ue, v, Cmp::Leq);
                        assert_eq!(relaxed_leq, exact_leq, "seed {seed} {q:?} v={v} (leq)");
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_survives_retraction() {
        let n = 16;
        let mut s = Splub::new(n, 1.0);
        let sched = schedule(n, 40, 0xDEAD);
        for &(e, w) in &sched {
            s.record(e, w);
        }
        // Warm the sketch, then poison and retract an edge.
        let _ = s.bounds_for_goal(p(0, 1), QueryGoal::threshold(0.5));
        let victim = sched[10].0;
        assert!(s.retract(victim));
        s.record(victim, sched[10].1);
        // Verdicts after the retract+re-record cycle still match a fresh
        // instance's exact sandwich.
        let mut fresh = Splub::new(n, 1.0);
        for &(e, w) in s.graph().edges() {
            fresh.record(e, w);
        }
        for q in Pair::all(n).step_by(7) {
            if s.known(q).is_some() {
                continue;
            }
            let (le, ue) = fresh.bounds(q);
            let got = s.bounds_for_goal(q, QueryGoal::threshold(0.4));
            let (lb, ub) = got.bounds();
            assert!(
                lb <= le + 1e-12 && ub >= ue - 1e-12,
                "{q:?}: unsound after retract"
            );
        }
    }
}

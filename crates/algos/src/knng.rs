//! k-nearest-neighbour graph construction (KNNrp-style candidate sweep).
//!
//! Construction is sequential by definition — every resolved distance is
//! recorded in the scheme and serves later queries, so the state a query
//! sees depends on every query before it. The parallel path therefore
//! *speculates*: worker threads pre-compute each source's candidate
//! ordering and bounds against a frozen snapshot of the scheme
//! ([`prox_core::SpecBounds`]), and the sequential committer replays the
//! sources in canonical order, reusing snapshot work only where it provably
//! equals what the live sequential pass would compute (see
//! `speculate.rs` for the reuse rules). Outputs *and* oracle-call counts
//! are bit-identical to [`knn_query`] run in a plain loop, at any thread
//! count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use prox_bounds::resolver::{decide_value, Cmp};
use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair, SpecBounds};
use prox_exec::ExecPool;
use prox_obs::{emit_to, SpanGuard, TraceEvent};

/// The kNN graph: for each object, its `k` nearest neighbours sorted by
/// `(distance, id)` ascending.
pub type KnnGraph = Vec<Vec<(ObjectId, f64)>>;

/// Max-heap entry over `(distance, id)` so the *worst* current neighbour is
/// at the top. The lexicographic order makes the kNN set unique even under
/// distance ties, which is what lets plugged and vanilla runs agree exactly.
#[derive(Copy, Clone, PartialEq)]
struct Neighbor {
    d: f64,
    id: ObjectId,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d
            .total_cmp(&other.d)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Candidate order: ascending `(key, id)` — a total order (ids are unique),
/// so any sorted-merge of disjoint sorted runs equals one full sort.
#[inline]
fn cand_cmp(a: &(f64, bool, ObjectId), b: &(f64, bool, ObjectId)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2))
}

/// Worker-side speculation for one source `u`: the candidate ordering and
/// per-object `(lb, ub, known)` entries, all evaluated against the frozen
/// snapshot.
struct SourceSpec {
    /// Candidates sorted by [`cand_cmp`] under snapshot keys.
    sorted: Vec<(f64, bool, ObjectId)>,
    /// Snapshot `(lb, ub, known)` per object id (entry for `u` is unused).
    entries: Vec<(f64, f64, bool)>,
}

fn speculate_source(spec: &dyn SpecBounds, u: ObjectId) -> SourceSpec {
    let n = spec.spec_n();
    let mut scratch = spec.new_scratch();
    let mut entries = vec![(0.0, 0.0, false); n];
    let mut sorted: Vec<(f64, bool, ObjectId)> = Vec::with_capacity(n.saturating_sub(1));
    for v in 0..n as ObjectId {
        if v == u {
            continue;
        }
        let p = Pair::new(u, v);
        match spec.spec_known(p) {
            Some(d) => {
                entries[v as usize] = (d, d, true);
                sorted.push((d, true, v));
            }
            None => {
                let (lb, ub) = spec.spec_bounds(p, &mut scratch);
                entries[v as usize] = (lb, ub, false);
                sorted.push((lb, false, v));
            }
        }
    }
    // Pre-sorting here moves the O(n log n) off the committer; freshness
    // checking at commit time preserves the order only where it is valid.
    sorted.sort_unstable_by(cand_cmp);
    SourceSpec { sorted, entries }
}

/// The candidate sweep shared by the sequential and committed paths.
///
/// `snap` (when present) lets the sweep short-circuit the per-candidate
/// `distance_if_leq` using the snapshot verdict: bounds only ever tighten,
/// so a *decisive* snapshot verdict is still the live verdict even when the
/// snapshot is stale (monotone reuse). The branch mirrors
/// [`DistanceResolver::distance_if_leq`]'s stat accounting exactly, so
/// `PruneStats` stay identical too.
fn sweep<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
    cands: &[(f64, bool, ObjectId)],
    snap: Option<&SourceSpec>,
) -> Result<Vec<(ObjectId, f64)>, OracleError> {
    // One "query" span per source sweep, shared by the sequential and
    // committed paths so traces agree at any thread count (I8).
    let _span = SpanGuard::enter(resolver.trace_sink(), "query");
    let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
    for &(key, known, v) in cands {
        let worst = heap.peek().copied();
        if heap.len() == k {
            let w = worst.expect_invariant("heap full");
            // `key` is a lower bound (or exact): if it already exceeds the
            // k-th distance, no later candidate can qualify either.
            if key > w.d {
                break;
            }
        }
        let p = Pair::new(u, v);
        if heap.len() < k {
            let d = resolver.resolve_fallible(p)?;
            heap.push(Neighbor { d, id: v });
            continue;
        }
        let w = worst.expect_invariant("heap full");
        let d = if known {
            Some(key)
        } else {
            let verdict = snap.and_then(|s| {
                let (lb, ub, kn) = s.entries[v as usize];
                if kn {
                    None // snapshot-known pairs carry known=true in cands
                } else {
                    decide_value(lb, ub, w.d, Cmp::Leq).0
                }
            });
            match verdict {
                Some(true) => {
                    resolver.prune_stats_mut().decided_by_bounds += 1;
                    Some(resolver.resolve_fallible(p)?)
                }
                Some(false) => {
                    resolver.prune_stats_mut().decided_by_bounds += 1;
                    None
                }
                None => resolver.distance_if_leq_fallible(p, w.d)?,
            }
        };
        if let Some(d) = d {
            let cand = Neighbor { d, id: v };
            if cand < w {
                heap.pop();
                heap.push(cand);
            }
        }
    }

    let mut out: Vec<(ObjectId, f64)> = heap.into_iter().map(|nb| (nb.id, nb.d)).collect();
    out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    Ok(out)
}

/// Finds the `k` nearest neighbours of `u` (by `(distance, id)` order).
///
/// Candidates are swept in ascending order of their *current lower bound*
/// (exact distances first, from knowledge the scheme already holds — the
/// symmetric reuse KNNrp gets from shared distance computations). Once the
/// heap holds `k` entries, a candidate is admitted only if it can beat the
/// current k-th neighbour; the bound check
/// [`DistanceResolver::distance_if_leq`] discards most candidates without an
/// oracle call, and the sweep stops outright when the next stale bound
/// already exceeds the k-th distance.
pub fn knn_query<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    expect_ok(
        try_knn_query(resolver, u, k),
        "knn_query on the infallible path",
    )
}

/// Fallible [`knn_query`]: surfaces oracle faults instead of panicking.
pub fn try_knn_query<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
) -> Result<Vec<(ObjectId, f64)>, OracleError> {
    let n = resolver.n();
    assert!((u as usize) < n);
    let k = k.min(n - 1);
    if k == 0 {
        return Ok(Vec::new());
    }

    // Gather candidates keyed by the best current information. The "init"
    // span mirrors the committed path's candidate partition so traces
    // agree at any thread count (I8).
    let mut cands: Vec<(f64, bool, ObjectId)> = Vec::with_capacity(n - 1);
    {
        let _init = SpanGuard::enter(resolver.trace_sink(), "init");
        for v in 0..n as ObjectId {
            if v == u {
                continue;
            }
            let p = Pair::new(u, v);
            match resolver.known(p) {
                Some(d) => cands.push((d, true, v)),
                None => cands.push((resolver.lower_bound_hint(p), false, v)),
            }
        }
        cands.sort_unstable_by(cand_cmp);
    }

    sweep(resolver, u, k, &cands, None)
}

/// Commits one speculated source: keeps the snapshot ordering where it is
/// still fresh, recomputes only the stale candidates live, and merges.
///
/// A candidate is *fresh* when the live `pair_stamp` has not passed the
/// snapshot generation `gen` — its live key is bitwise the snapshot key, so
/// the snapshot's sorted position stands. Stale candidates are re-keyed
/// live (exactly as [`knn_query`] would) and sorted; because `(key, id)` is
/// a total order, merging the two sorted runs reproduces the sequential
/// sort bit-for-bit.
fn knn_query_committed<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
    snap: &SourceSpec,
    gen: u64,
) -> Result<Vec<(ObjectId, f64)>, OracleError> {
    let n = resolver.n();
    assert!((u as usize) < n);
    let k = k.min(n - 1);
    if k == 0 {
        return Ok(Vec::new());
    }

    // The "init" span mirrors the sequential path's candidate gather, so
    // traces agree at any thread count (I8): neither body emits events,
    // only the span markers themselves.
    let cands = {
        let _init = SpanGuard::enter(resolver.trace_sink(), "init");
        let mut fresh: Vec<(f64, bool, ObjectId)> = Vec::with_capacity(snap.sorted.len());
        let mut stale: Vec<(f64, bool, ObjectId)> = Vec::new();
        for &(key, known, v) in &snap.sorted {
            let p = Pair::new(u, v);
            // Snapshot-known pairs never change (recorded distances are
            // final); for the rest the stamp says whether the snapshot key
            // is current.
            if known || resolver.pair_stamp(p) <= gen {
                fresh.push((key, known, v));
            } else {
                match resolver.known(p) {
                    Some(d) => stale.push((d, true, v)),
                    None => stale.push((resolver.lower_bound_hint(p), false, v)),
                }
            }
        }
        if stale.is_empty() {
            fresh
        } else {
            stale.sort_unstable_by(cand_cmp);
            let mut merged = Vec::with_capacity(fresh.len() + stale.len());
            let (mut i, mut j) = (0, 0);
            while i < fresh.len() && j < stale.len() {
                if cand_cmp(&fresh[i], &stale[j]) != Ordering::Greater {
                    merged.push(fresh[i]);
                    i += 1;
                } else {
                    merged.push(stale[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&fresh[i..]);
            merged.extend_from_slice(&stale[j..]);
            merged
        }
    };

    // Under observation the snapshot-verdict short-circuit is skipped: it
    // decides candidates without emitting the `BoundProbe` the sequential
    // sweep would, so traces/metrics would differ by thread count. The
    // bypass is sound — snapshot verdicts only mirror what the live
    // `distance_if_leq` decides anyway (bounds tighten monotonically), so
    // oracle calls and `PruneStats` are unchanged; only the short-circuit
    // optimization is forgone.
    let observed = resolver.trace_sink().is_some() || resolver.obs_metrics().is_some();
    let snap = (!observed).then_some(snap);
    sweep(resolver, u, k, &cands, snap)
}

/// Builds the full kNN graph by running [`knn_query`] for every object.
///
/// Every distance resolved for one node is recorded in the scheme and serves
/// later nodes for free (both as exact knowledge and as bound fuel), which
/// is where the savings compound as construction proceeds.
pub fn knn_graph<R: DistanceResolver + ?Sized>(resolver: &mut R, k: usize) -> KnnGraph {
    knn_graph_pool(resolver, k, &ExecPool::global())
}

/// Fallible [`knn_graph`]: a worker fault aborts cleanly in canonical
/// commit order, leaving the resolver consistent (every committed source
/// is final, nothing past the fault is recorded).
pub fn try_knn_graph<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
) -> Result<KnnGraph, OracleError> {
    try_knn_graph_pool(resolver, k, &ExecPool::global())
}

/// [`knn_graph`] with an explicit pool: speculate a batch of sources in
/// parallel against one frozen snapshot, then commit them in order.
///
/// Falls back to the plain sequential loop when the pool is sequential or
/// the resolver offers no snapshot view; either way the result and the
/// resolver's oracle-call count are identical.
pub fn knn_graph_pool<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
    pool: &ExecPool,
) -> KnnGraph {
    expect_ok(
        try_knn_graph_pool(resolver, k, pool),
        "knn_graph on the infallible path",
    )
}

/// Fallible [`knn_graph_pool`]. Workers only speculate against a frozen
/// snapshot and never touch the oracle, so a fault can only surface on the
/// sequential commit path — the error is returned after the last fully
/// committed source, never mid-speculation.
pub fn try_knn_graph_pool<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
    pool: &ExecPool,
) -> Result<KnnGraph, OracleError> {
    // Semantic span around the whole construction, shared by the
    // sequential-fallback and speculative paths.
    let trace = resolver.trace_sink();
    let _span = SpanGuard::enter(trace.clone(), "build");

    let n = resolver.n();
    if pool.threads() <= 1 || n < 2 || resolver.spec().is_none() {
        return (0..n as ObjectId)
            .map(|u| try_knn_query(resolver, u, k))
            .collect();
    }

    let batch = pool.threads().saturating_mul(8).max(8);
    let mut out: KnnGraph = Vec::with_capacity(n);
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let gen = resolver.generation();
        emit_to(
            trace.as_ref(),
            TraceEvent::Speculate {
                generation: gen,
                items: (end - start) as u32,
            },
        );
        let specs: Vec<SourceSpec> = {
            let spec = resolver
                .spec()
                .expect_invariant("spec() checked above; nothing revokes it");
            pool.map_indexed(end - start, |j| {
                speculate_source(spec, (start + j) as ObjectId)
            })
        };
        for (j, snap) in specs.iter().enumerate() {
            out.push(knn_query_committed(
                resolver,
                (start + j) as ObjectId,
                k,
                snap,
                gen,
            )?);
        }
        emit_to(
            trace.as_ref(),
            TraceEvent::Commit {
                generation: gen,
                reused: (end - start) as u32,
            },
        );
        start = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, Splub, TriScheme};
    use prox_core::{FnMetric, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn line_neighbors_are_adjacent_points() {
        let oracle = line_oracle(10);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 5, 2);
        let ids: Vec<ObjectId> = nb.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![4, 6], "ties broken by id: 4 before 6");
    }

    #[test]
    fn boundary_object() {
        let oracle = line_oracle(10);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 0, 3);
        let ids: Vec<ObjectId> = nb.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn k_larger_than_n() {
        let oracle = line_oracle(4);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 1, 10);
        assert_eq!(nb.len(), 3, "clamped to n-1");
    }

    #[test]
    fn k_zero() {
        let oracle = line_oracle(4);
        let mut r = BoundResolver::vanilla(&oracle);
        assert!(knn_query(&mut r, 1, 0).is_empty());
    }

    #[test]
    fn vanilla_graph_costs_all_pairs() {
        let n = 12;
        let oracle = line_oracle(n);
        let mut r = BoundResolver::vanilla(&oracle);
        let g = knn_graph(&mut r, 3);
        assert_eq!(g.len(), n);
        assert_eq!(oracle.calls(), Pair::count(n), "symmetric memoization");
    }

    #[test]
    fn plugged_graph_matches_vanilla() {
        let n = 30;
        let k = 4;
        let o1 = line_oracle(n);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = knn_graph(&mut vanilla, k);

        let o2 = line_oracle(n);
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = knn_graph(&mut plugged, k);

        for (u, (w, g)) in want.iter().zip(got.iter()).enumerate() {
            let wi: Vec<ObjectId> = w.iter().map(|&(id, _)| id).collect();
            let gi: Vec<ObjectId> = g.iter().map(|&(id, _)| id).collect();
            assert_eq!(wi, gi, "node {u}");
        }
        assert!(o2.calls() < o1.calls(), "{} !< {}", o2.calls(), o1.calls());
    }

    #[test]
    fn neighbors_sorted_ascending() {
        let oracle = line_oracle(20);
        let mut r = BoundResolver::vanilla(&oracle);
        for u in 0..20 {
            let nb = knn_query(&mut r, u, 5);
            for w in nb.windows(2) {
                assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "(distance, id) ascending"
                );
            }
        }
    }

    #[test]
    fn pool_graph_identical_to_sequential_tri() {
        let n = 40;
        let k = 5;
        let o_seq = line_oracle(n);
        let mut seq = BoundResolver::new(&o_seq, TriScheme::new(n, 1.0));
        let want: KnnGraph = (0..n as ObjectId)
            .map(|u| knn_query(&mut seq, u, k))
            .collect();

        for threads in [1, 2, 8] {
            let o_par = line_oracle(n);
            let mut par = BoundResolver::new(&o_par, TriScheme::new(n, 1.0));
            let got = knn_graph_pool(&mut par, k, &ExecPool::new(threads));
            assert_eq!(want, got, "threads={threads}");
            assert_eq!(
                o_seq.calls(),
                o_par.calls(),
                "oracle-call determinism, threads={threads}"
            );
            assert_eq!(seq.prune_stats(), par.prune_stats(), "threads={threads}");
        }
    }

    #[test]
    fn pool_graph_identical_to_sequential_splub() {
        let n = 24;
        let k = 3;
        let o_seq = line_oracle(n);
        let mut seq = BoundResolver::new(&o_seq, Splub::new(n, 1.0));
        let want: KnnGraph = (0..n as ObjectId)
            .map(|u| knn_query(&mut seq, u, k))
            .collect();

        let o_par = line_oracle(n);
        let mut par = BoundResolver::new(&o_par, Splub::new(n, 1.0));
        let got = knn_graph_pool(&mut par, k, &ExecPool::new(4));
        assert_eq!(want, got);
        assert_eq!(o_seq.calls(), o_par.calls(), "oracle-call determinism");
        assert_eq!(seq.prune_stats(), par.prune_stats());
    }
}

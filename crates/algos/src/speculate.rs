//! Worker-side machinery for the speculate/commit protocol.
//!
//! Workers never touch the oracle (its call counter is deliberately not
//! `Sync`, and call-count determinism forbids racing resolutions anyway).
//! Instead they evaluate bound-decidable work against a frozen
//! [`SpecBounds`] snapshot; the sequential committer then reuses a
//! speculative result only when it provably equals what the live
//! sequential path would have produced:
//!
//! * **Freshness reuse** (bit-equality): a snapshot value for pair `p` is
//!   current while the live `pair_stamp(p)` does not exceed the snapshot
//!   generation — safe even for sort keys.
//! * **Monotone reuse** (verdict-stability): bounds only ever tighten, so
//!   a *decisive* snapshot verdict (`Some(_)` under the [`DECISION_EPS`]
//!   margins) is still the live verdict even when the snapshot is stale —
//!   `lb_snap ≤ lb_live ≤ dist ≤ ub_live ≤ ub_snap`.
//! * **Generation-equality reuse**: a whole speculative evaluation (PAM's
//!   `swap_delta`) replays exactly if the live generation still equals the
//!   snapshot generation and the evaluation never needed an unknown
//!   distance (it is *poisoned* otherwise).

use prox_bounds::resolver::{decide_pair, decide_value, probe_verdict, Cmp};
use prox_bounds::DistanceResolver;
use prox_core::{OracleError, Pair, PruneStats, SpecBounds, SpecScratch};
use prox_obs::{quantize_width, Metrics, ProbeKind, ProbeVerdict, TraceEvent};

/// A [`DistanceResolver`] over a frozen snapshot. Every `try_*` verdict
/// comes from the shared verdict kernel (`prox_bounds::resolver::decide_*`)
/// applied to snapshot bounds — the same kernel `BoundResolver` applies to
/// live bounds, so the two cannot drift. A `Some(_)` from stale bounds is
/// sound by monotone tightening, and the kernel's known fast path
/// (`lb == ub`, compared without the margin) is consistent because
/// collapsed snapshot bounds pin the live value exactly.
/// `resolve_fallible` serves only already-known values; anything that would
/// need the oracle *poisons* the probe (the committer then discards the
/// evaluation and re-runs it live). Each probe owns its scratch, so many
/// can run in parallel against one shared snapshot.
pub(crate) struct SpecProbe<'a> {
    spec: &'a dyn SpecBounds,
    scratch: SpecScratch,
    stats: PruneStats,
    poisoned: bool,
    /// Buffer trace events / metric samples instead of emitting them: a
    /// worker must not touch the (non-`Sync`) live sink. The committer
    /// replays the buffer via [`commit_delta`] iff the evaluation is
    /// reused, and simply drops it otherwise — never double-emitted.
    traced: bool,
    metered: bool,
    events: Vec<TraceEvent>,
    metrics: Metrics,
}

impl<'a> SpecProbe<'a> {
    /// A probe that buffers observation side effects for commit-time
    /// replay. `traced`/`metered` mirror whether the live resolver has a
    /// trace sink / metrics registry attached, so a committed buffer is
    /// byte-identical to what live evaluation would have emitted.
    pub(crate) fn observed(spec: &'a dyn SpecBounds, traced: bool, metered: bool) -> Self {
        SpecProbe {
            spec,
            scratch: spec.new_scratch(),
            stats: PruneStats::default(),
            poisoned: false,
            traced,
            metered,
            events: Vec::new(),
            metrics: Metrics::new(),
        }
    }

    /// True when the evaluation needed an unknown distance and its result
    /// must be discarded.
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Everything the committer must apply atomically if it reuses this
    /// evaluation: stat deltas, buffered trace events, metric samples.
    pub(crate) fn into_delta(self) -> SpecDelta {
        SpecDelta {
            stats: self.stats,
            events: self.events,
            metrics: self.metrics,
        }
    }

    fn bounds(&mut self, x: Pair) -> (f64, f64) {
        self.spec.spec_bounds(x, &mut self.scratch)
    }

    /// Runs `f` inside a buffered span: the `PhaseEnter`/`PhaseExit` pair
    /// lands in the event buffer around whatever `f` emits, so a committed
    /// delta replays the span exactly where live evaluation would have
    /// opened it. Discarded deltas drop the span with everything else.
    pub(crate) fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.traced {
            self.events.push(TraceEvent::PhaseEnter { name });
        }
        let out = f(self);
        if self.traced {
            self.events.push(TraceEvent::PhaseExit { name });
        }
        out
    }

    /// Mirrors `BoundResolver::note_probe` into the local buffers.
    fn note_probe(&mut self, x: Pair, lb: f64, ub: f64, kind: ProbeKind, verdict: ProbeVerdict) {
        if self.traced {
            self.events.push(TraceEvent::BoundProbe {
                lo: x.lo(),
                hi: x.hi(),
                lb,
                ub,
                verdict,
                kind,
                scheme: self.spec.spec_label(),
            });
        }
        if self.metered {
            self.metrics.observe("probe.width", quantize_width(ub - lb));
        }
    }

    #[inline]
    fn observing(&self) -> bool {
        self.traced || self.metered
    }

    /// The threshold probes, as `BoundResolver::try_value` decides them.
    fn try_value(&mut self, x: Pair, v: f64, cmp: Cmp) -> Option<bool> {
        let (lb, ub) = self.bounds(x);
        let (out, verdict) = decide_value(lb, ub, v, cmp);
        if self.observing() {
            self.note_probe(x, lb, ub, cmp.kind(), verdict);
        }
        out
    }
}

/// The atomically-committable outcome of one speculative evaluation.
/// `Send`, so workers can return it across the pool boundary.
pub(crate) struct SpecDelta {
    pub(crate) stats: PruneStats,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) metrics: Metrics,
}

/// Applies a speculative delta to the live resolver in one step: stats
/// merge, buffered trace events replayed in evaluation order, metric
/// samples folded in. Committing everything here (instead of merging
/// `PruneStats` at the call site) keeps the three views consistent — a
/// trace, the metrics registry, and `PruneStats` never disagree about a
/// committed speculation.
pub(crate) fn commit_delta<R: DistanceResolver + ?Sized>(resolver: &mut R, delta: &SpecDelta) {
    resolver.prune_stats_mut().merge(&delta.stats);
    if let Some(sink) = resolver.trace_sink() {
        for &ev in &delta.events {
            sink.emit(ev);
        }
    }
    if let Some(m) = resolver.obs_metrics() {
        m.merge_from(&delta.metrics);
    }
}

impl DistanceResolver for SpecProbe<'_> {
    fn n(&self) -> usize {
        self.spec.spec_n()
    }

    fn max_distance(&self) -> f64 {
        self.spec.spec_max_distance()
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.spec.spec_known(p)
    }

    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        if let Some(d) = self.spec.spec_known(p) {
            self.stats.served_known += 1;
            return Ok(d);
        }
        // The value would need an oracle call; speculation cannot know it.
        // Poison and return a placeholder — arithmetic downstream of a
        // poisoned probe is discarded wholesale by the committer.
        self.poisoned = true;
        Ok(0.0)
    }

    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        let (lx, ux) = self.bounds(x);
        let (ly, uy) = self.bounds(y);
        let out = decide_pair(lx, ux, ly, uy);
        if self.observing() {
            self.note_probe(x, lx, ux, ProbeKind::Less, probe_verdict(out));
        }
        out
    }

    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.try_value(x, v, Cmp::Less)
    }

    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.try_value(x, v, Cmp::Leq)
    }

    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        let (lx0, ux0) = self.bounds(x.0);
        let (lx1, ux1) = self.bounds(x.1);
        let (ly0, uy0) = self.bounds(y.0);
        let (ly1, uy1) = self.bounds(y.1);
        let (lx, ux) = (lx0 + lx1, ux0 + ux1);
        let out = decide_pair(lx, ux, ly0 + ly1, uy0 + uy1);
        if self.observing() {
            self.note_probe(x.0, lx, ux, ProbeKind::Sum2, probe_verdict(out));
        }
        out
    }

    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.bounds(x).0
    }

    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        self.bounds(x)
    }

    fn preload(&mut self, _p: Pair, _d: f64) {
        self.poisoned = true; // snapshots are frozen; nothing to record into
    }

    fn export_known(&self, _out: &mut Vec<(Pair, f64)>) {}

    fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, BoundScheme, TriScheme};
    use prox_core::{FnMetric, ObjectId, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn probe_mirrors_live_verdicts() {
        let oracle = line_oracle(11);
        let mut tri = TriScheme::new(11, 1.0);
        for p in [Pair::new(0, 5), Pair::new(5, 6), Pair::new(0, 1)] {
            tri.record(p, oracle.call_pair(p));
        }
        let mut live = BoundResolver::new(&oracle, tri.clone());
        let spec = tri.spec().expect("Tri provides a snapshot");
        let mut probe = SpecProbe::observed(spec, false, false);

        for v in [0.3, 0.5, 0.55, 0.7] {
            let p = Pair::new(0, 6); // bounds [0.4, 0.6] from the triangle
            assert_eq!(probe.try_less_value(p, v), live.try_less_value(p, v));
            assert_eq!(probe.try_leq_value(p, v), live.try_leq_value(p, v));
        }
        assert_eq!(
            probe.try_less(Pair::new(0, 1), Pair::new(0, 6)),
            live.try_less(Pair::new(0, 1), Pair::new(0, 6)),
        );
        assert!(!probe.poisoned());
        // Known value served without poisoning; unknown poisons.
        assert_eq!(probe.resolve(Pair::new(0, 5)), 0.5);
        assert!(!probe.poisoned());
        probe.resolve(Pair::new(3, 7));
        assert!(probe.poisoned());
    }

    #[test]
    fn discarded_speculation_emits_nothing_committed_emits_once() {
        use prox_obs::{JsonlSink, TraceSink};
        use std::rc::Rc;

        let sink = Rc::new(JsonlSink::in_memory());
        let metrics = Rc::new(Metrics::new());
        let oracle = line_oracle(11)
            .with_trace(Rc::<JsonlSink>::clone(&sink) as Rc<dyn TraceSink>)
            .with_metrics(Rc::clone(&metrics));
        // Feed the line metric's exact values (d(i, j) = |i - j| / 10)
        // directly, so the feed itself emits no trace events.
        let mut tri = TriScheme::new(11, 1.0);
        tri.record(Pair::new(0, 5), 0.5);
        tri.record(Pair::new(5, 6), 0.1);
        let mut live = BoundResolver::new(&oracle, tri.clone());

        // Both comparisons are decided by bounds alone (pair (0,6) has
        // bounds [0.4, 0.6] from the recorded triangle), so the probe
        // never resolves — a complete, commit-eligible speculation.
        let run_probe = || {
            let spec = tri.spec().expect("Tri provides a snapshot");
            let mut probe = SpecProbe::observed(spec, true, true);
            assert_eq!(probe.distance_if_leq(Pair::new(0, 6), 0.3), None);
            assert_eq!(probe.distance_if_less(Pair::new(0, 6), 0.2), None);
            assert!(!probe.poisoned());
            probe.into_delta()
        };

        // Discarded: the buffered events and samples are simply dropped.
        let discarded = run_probe();
        assert_eq!(discarded.events.len(), 2);
        drop(discarded);
        assert_eq!(
            sink.emitted(),
            0,
            "no events leak from a discarded speculation"
        );
        assert_eq!(metrics.histogram_count("probe.width"), 0);
        assert_eq!(live.prune_stats(), PruneStats::default());

        // Committed: everything lands exactly once, atomically.
        let delta = run_probe();
        commit_delta(&mut live, &delta);
        assert_eq!(sink.emitted(), 2, "buffered events replay once at commit");
        assert_eq!(metrics.histogram_count("probe.width"), 2);
        assert_eq!(live.prune_stats().decided_by_bounds, 2);

        // The buffered events are byte-identical to live emission: replay
        // the same probes on the live resolver and compare the stream.
        let before = sink.contents().expect("mem sink");
        assert_eq!(live.distance_if_leq(Pair::new(0, 6), 0.3), None);
        assert_eq!(live.distance_if_less(Pair::new(0, 6), 0.2), None);
        let after = sink.contents().expect("mem sink");
        let fresh: Vec<&str> = after[before.len()..].lines().collect();
        let replayed: Vec<String> = before
            .lines()
            .map(|l| {
                // Same payload, later sequence numbers.
                let (seq, rest) = l.split_once(',').expect("seq field first");
                let n: u64 = seq["{\"seq\":".len()..].parse().expect("seq number");
                format!("{{\"seq\":{},{rest}", n + 2)
            })
            .collect();
        assert_eq!(fresh, replayed, "buffered == live emission, shifted by seq");
    }

    #[test]
    fn leq_verdict_margins() {
        // The snapshot-side `≤` verdict (kNN's speculative sweep) is the
        // kernel's threshold probe.
        let leq_verdict = |lb, ub, v| decide_value(lb, ub, v, Cmp::Leq).0;
        assert_eq!(leq_verdict(0.2, 0.2, 0.2), Some(true), "known, no margin");
        assert_eq!(leq_verdict(0.2, 0.2, 0.199_999), Some(false));
        assert_eq!(leq_verdict(0.1, 0.3, 0.5), Some(true));
        assert_eq!(leq_verdict(0.1, 0.3, 0.05), Some(false));
        assert_eq!(leq_verdict(0.1, 0.3, 0.2), None, "straddles");
        assert_eq!(leq_verdict(0.1, 0.3, 0.3), None, "inside the margin");
    }
}

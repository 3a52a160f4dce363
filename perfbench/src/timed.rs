//! Forwarding timers around the two layer boundaries the benchmark can
//! reach from outside the library: [`DistanceResolver`] (the algorithm →
//! resolver boundary) and [`BoundScheme`] (the resolver → scheme
//! boundary).
//!
//! Both wrappers forward **every** trait method to the wrapped value,
//! provided methods included, so a wrapped run takes exactly the code
//! path of an unwrapped one. Dropping a forward would not change outputs
//! but would silently change the work: without `goal_aware` /
//! `bounds_for_goal` the SPLUB cascade turns off, without `spec`
//! speculation turns off, without `bounds_cacheable` the resolver's bound
//! cache turns off. The traced run therefore checks its output, oracle
//! calls and provenance ledger against an untraced run.
//!
//! Timed methods add their wall time and a call to shared [`Clocks`];
//! cheap accessors are forwarded untimed.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use prox_bounds::{BoundScheme, CorruptionStats, DistanceResolver, GoalBounds, WeakStats};
use prox_core::{Degradation, OracleError, Pair, PruneStats, QueryGoal, SpecBounds};
use prox_obs::{Metrics, ProvenanceLedger, TraceSink};

/// A call count and the wall time those calls took.
#[derive(Default)]
pub struct Clock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Clock {
    /// Runs `f`, charging one call and its wall time.
    #[inline]
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed().as_nanos() as u64;
        self.nanos.set(self.nanos.get() + took);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Wall time charged so far.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.get())
    }
}

/// The clocks one traced run shares between its two wrappers.
#[derive(Default)]
pub struct Clocks {
    /// Every timed `DistanceResolver` call made by the algorithm.
    pub resolver: Clock,
    /// The subset of `resolver` that were `lower_bound_hint` /
    /// `bounds_hint` calls (their time is also in `resolver`).
    pub hints: Clock,
    /// `BoundScheme::bounds` / `lower_bound` / `upper_bound` /
    /// `bounds_for_goal`, all made from inside resolver calls.
    pub scheme_bounds: Clock,
    /// `BoundScheme::record` (and `retract`).
    pub scheme_record: Clock,
}

/// A [`BoundScheme`] that times the bound queries and updates of `S`.
pub struct TimedScheme<S> {
    inner: S,
    clocks: Rc<Clocks>,
}

impl<S: BoundScheme> TimedScheme<S> {
    /// Wraps `inner`, charging `clocks`.
    pub fn new(inner: S, clocks: Rc<Clocks>) -> Self {
        TimedScheme { inner, clocks }
    }
}

impl<S: BoundScheme> BoundScheme for TimedScheme<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        self.inner.known(p)
    }
    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        let inner = &mut self.inner;
        self.clocks.scheme_bounds.time(|| inner.bounds(p))
    }
    fn lower_bound(&mut self, p: Pair) -> f64 {
        let inner = &mut self.inner;
        self.clocks.scheme_bounds.time(|| inner.lower_bound(p))
    }
    fn upper_bound(&mut self, p: Pair) -> f64 {
        let inner = &mut self.inner;
        self.clocks.scheme_bounds.time(|| inner.upper_bound(p))
    }
    fn record(&mut self, p: Pair, d: f64) {
        let inner = &mut self.inner;
        self.clocks.scheme_record.time(|| inner.record(p, d))
    }
    fn retract(&mut self, p: Pair) -> bool {
        let inner = &mut self.inner;
        self.clocks.scheme_record.time(|| inner.retract(p))
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        self.inner.for_each_known(f)
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn pair_stamp(&self, p: Pair) -> u64 {
        self.inner.pair_stamp(p)
    }
    fn spec(&self) -> Option<&dyn SpecBounds> {
        self.inner.spec()
    }
    fn bounds_cacheable(&self) -> bool {
        self.inner.bounds_cacheable()
    }
    fn goal_aware(&self) -> bool {
        self.inner.goal_aware()
    }
    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        let inner = &mut self.inner;
        self.clocks
            .scheme_bounds
            .time(|| inner.bounds_for_goal(p, goal))
    }
}

/// A [`DistanceResolver`] that times every call the algorithm makes
/// into `R`.
pub struct TimedResolver<R> {
    inner: R,
    clocks: Rc<Clocks>,
}

impl<R: DistanceResolver> TimedResolver<R> {
    /// Wraps `inner`, charging `clocks`.
    pub fn new(inner: R, clocks: Rc<Clocks>) -> Self {
        TimedResolver { inner, clocks }
    }

    /// Times a resolver call.
    #[inline]
    fn call<T>(&mut self, f: impl FnOnce(&mut R) -> T) -> T {
        let inner = &mut self.inner;
        self.clocks.resolver.time(|| f(inner))
    }

    /// Times a resolver call that is also a bound hint.
    #[inline]
    fn hint<T>(&mut self, f: impl FnOnce(&mut R) -> T) -> T {
        let inner = &mut self.inner;
        let clocks = &self.clocks;
        clocks.hints.time(|| clocks.resolver.time(|| f(inner)))
    }
}

impl<R: DistanceResolver> DistanceResolver for TimedResolver<R> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        let inner = &self.inner;
        self.clocks.resolver.time(|| inner.known(p))
    }
    fn resolve(&mut self, p: Pair) -> f64 {
        self.call(|r| r.resolve(p))
    }
    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        self.call(|r| r.resolve_fallible(p))
    }
    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        self.call(|r| r.try_less(x, y))
    }
    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.call(|r| r.try_less_value(x, v))
    }
    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.call(|r| r.try_leq_value(x, v))
    }
    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        self.call(|r| r.try_less_sum2(x, y))
    }
    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        self.call(|r| r.try_sum_less_value(terms, v))
    }
    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.hint(|r| r.lower_bound_hint(x))
    }
    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        self.hint(|r| r.bounds_hint(x))
    }
    fn preload(&mut self, p: Pair, d: f64) {
        self.call(|r| r.preload(p, d))
    }
    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.call(|r| r.preload_weak(p, d))
    }
    fn provenance(&self) -> ProvenanceLedger {
        self.inner.provenance()
    }
    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        self.inner.export_known(out)
    }
    fn corruption_stats(&self) -> CorruptionStats {
        self.inner.corruption_stats()
    }
    fn weak_stats(&self) -> WeakStats {
        self.inner.weak_stats()
    }
    fn degradation(&self) -> Option<Degradation> {
        self.inner.degradation()
    }
    fn prune_stats(&self) -> PruneStats {
        self.inner.prune_stats()
    }
    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        self.inner.prune_stats_mut()
    }
    fn generation(&self) -> u64 {
        let inner = &self.inner;
        self.clocks.resolver.time(|| inner.generation())
    }
    fn pair_stamp(&self, x: Pair) -> u64 {
        let inner = &self.inner;
        self.clocks.resolver.time(|| inner.pair_stamp(x))
    }
    fn spec(&self) -> Option<&dyn SpecBounds> {
        self.inner.spec()
    }
    fn trace_sink(&self) -> Option<Rc<dyn TraceSink>> {
        self.inner.trace_sink()
    }
    fn obs_metrics(&self) -> Option<Rc<Metrics>> {
        self.inner.obs_metrics()
    }
    fn less(&mut self, x: Pair, y: Pair) -> bool {
        self.call(|r| r.less(x, y))
    }
    fn distance_if_less(&mut self, x: Pair, v: f64) -> Option<f64> {
        self.call(|r| r.distance_if_less(x, v))
    }
    fn less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> bool {
        self.call(|r| r.less_sum2(x, y))
    }
    fn distance_if_leq(&mut self, x: Pair, v: f64) -> Option<f64> {
        self.call(|r| r.distance_if_leq(x, v))
    }
    fn less_fallible(&mut self, x: Pair, y: Pair) -> Result<bool, OracleError> {
        self.call(|r| r.less_fallible(x, y))
    }
    fn distance_if_less_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        self.call(|r| r.distance_if_less_fallible(x, v))
    }
    fn less_sum2_fallible(
        &mut self,
        x: (Pair, Pair),
        y: (Pair, Pair),
    ) -> Result<bool, OracleError> {
        self.call(|r| r.less_sum2_fallible(x, y))
    }
    fn distance_if_leq_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        self.call(|r| r.distance_if_leq_fallible(x, v))
    }
}

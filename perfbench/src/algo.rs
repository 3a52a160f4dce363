//! Plugged-algorithm runs (untraced and traced) and the vanilla run
//! their outputs are checked against.
//!
//! The resolver is built exactly as `prox-cli` builds it for the same
//! flags: a fresh `Oracle`, the plug's scheme (bootstrapped first for
//! Tri), a `BoundResolver`, and the algorithm called through
//! `&mut dyn DistanceResolver`. The traced run only adds the forwarding
//! timers of [`crate::timed`] around the scheme and the resolver.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use prox_algos::{try_knn_graph, try_pam, Clustering, KnnGraph, PamParams};
use prox_bounds::{
    try_laesa_bootstrap, BoundResolver, BoundScheme, DistanceResolver, Splub, TriScheme,
};
use prox_core::{Metric, Oracle, OracleError, PruneStats};

use crate::procfs;
use crate::timed::{Clocks, TimedResolver, TimedScheme};
use crate::workload::{log_landmarks, Algo, AlgoSpec, Plug};

/// A provenance-ledger row: `(kind, scheme, tier, count)`.
pub type LedgerRow = (&'static str, &'static str, &'static str, u64);

/// An algorithm's output.
pub enum Output {
    /// kNN graph: per object, its neighbours and their distances.
    Knn(KnnGraph),
    /// PAM clustering.
    Pam(Clustering),
}

impl Output {
    /// Digest of the output bits that must match vanilla: every kNN list
    /// (ids and distance bits), or the PAM medoid set and the cost bits.
    /// Both processes that compare digests run the same binary, so the
    /// standard hasher's fixed algorithm suffices.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            Output::Knn(graph) => {
                for list in graph {
                    list.len().hash(&mut h);
                    for &(v, d) in list {
                        (v, d.to_bits()).hash(&mut h);
                    }
                }
            }
            Output::Pam(c) => {
                let mut medoids = c.medoids.clone();
                medoids.sort_unstable();
                (medoids, c.cost.to_bits()).hash(&mut h);
            }
        }
        h.finish()
    }
}

impl Algo {
    /// Runs the algorithm against `r`. `seed` is PAM's initial-medoid
    /// seed, as `prox-cli` passes it.
    pub fn run(self, r: &mut dyn DistanceResolver, seed: u64) -> Result<Output, OracleError> {
        match self {
            Algo::Knn { k } => try_knn_graph(r, k).map(Output::Knn),
            Algo::Pam { l } => try_pam(
                r,
                PamParams {
                    l,
                    max_swaps: 50,
                    seed,
                },
            )
            .map(Output::Pam),
        }
    }
}

/// What one plugged run reports.
pub struct RunReport {
    /// [`Output::digest`] of the run's output.
    pub digest: u64,
    /// Strong oracle calls, bootstrap included.
    pub oracle_calls: u64,
    /// Strong oracle calls made by the landmark bootstrap.
    pub bootstrap_calls: u64,
    /// The whole run: oracle and scheme set-up, bootstrap, algorithm.
    pub wall: Duration,
    /// The landmark bootstrap (zero for SPLUB).
    pub bootstrap_wall: Duration,
    /// The algorithm call alone.
    pub algo_wall: Duration,
    /// Process CPU time (every thread) over `wall`.
    pub cpu: Duration,
    /// The resolver's provenance ledger.
    pub ledger: Vec<LedgerRow>,
    /// The resolver's pruning counters.
    pub prune: PruneStats,
    /// The traced run's layer clocks (`None` untraced).
    pub clocks: Option<Rc<Clocks>>,
}

/// One plugged run of `spec` on `metric`.
pub fn run_plugged(
    spec: &AlgoSpec,
    metric: &(dyn Metric + Send + Sync),
    seed: u64,
    traced: bool,
) -> Result<RunReport, String> {
    prox_exec::set_global_threads(spec.threads);
    let cpu_before = procfs::cpu_time()?;
    let start = Instant::now();
    let oracle = Oracle::new(metric);
    let n = metric.len();
    let mut report = match spec.plug {
        Plug::Splub => drive(spec.algo, &oracle, Splub::new(n, 1.0), seed, traced),
        Plug::TriBoot => {
            let boot = try_laesa_bootstrap(&oracle, log_landmarks(n), seed)
                .map_err(|e| format!("bootstrap: {e}"))?;
            let mut scheme = TriScheme::new(n, 1.0);
            boot.apply_to(&mut scheme);
            let bootstrap_wall = start.elapsed();
            drive(spec.algo, &oracle, scheme, seed, traced).map(|mut r| {
                r.bootstrap_wall = bootstrap_wall;
                r
            })
        }
    }?;
    report.wall = start.elapsed();
    report.cpu = procfs::cpu_time()?.saturating_sub(cpu_before);
    report.oracle_calls = oracle.calls();
    Ok(report)
}

/// Wires `scheme` to `oracle` (wrapped in timers when `traced`) and runs
/// the algorithm.
fn drive<M: Metric, S: BoundScheme>(
    algo: Algo,
    oracle: &Oracle<M>,
    scheme: S,
    seed: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let bootstrap_calls = oracle.calls();
    if !traced {
        let mut r = BoundResolver::new(oracle, scheme);
        return finish(algo, &mut r, seed, bootstrap_calls, None);
    }
    // The switches a lost forward would flip without changing any output.
    let switches = |s: &dyn BoundScheme| (s.goal_aware(), s.bounds_cacheable(), s.spec().is_some());
    let want = switches(&scheme);
    let clocks = Rc::new(Clocks::default());
    let timed = TimedScheme::new(scheme, Rc::clone(&clocks));
    let got = switches(&timed);
    let inner = BoundResolver::new(oracle, timed);
    let speculates = inner.spec().is_some();
    let mut r = TimedResolver::new(inner, Rc::clone(&clocks));
    if got != want || r.spec().is_some() != speculates {
        return Err(format!(
            "timers changed the run: (goal_aware, bounds_cacheable, spec) {want:?} -> {got:?}, \
             resolver spec {speculates} -> {}",
            r.spec().is_some()
        ));
    }
    finish(algo, &mut r, seed, bootstrap_calls, Some(clocks))
}

fn finish(
    algo: Algo,
    r: &mut dyn DistanceResolver,
    seed: u64,
    bootstrap_calls: u64,
    clocks: Option<Rc<Clocks>>,
) -> Result<RunReport, String> {
    let start = Instant::now();
    let out = algo.run(r, seed).map_err(|e| format!("algorithm: {e}"))?;
    let algo_wall = start.elapsed();
    Ok(RunReport {
        digest: out.digest(),
        oracle_calls: 0,
        bootstrap_calls,
        wall: Duration::ZERO,
        bootstrap_wall: Duration::ZERO,
        algo_wall,
        cpu: Duration::ZERO,
        ledger: r.provenance().rows(),
        prune: r.prune_stats(),
        clocks,
    })
}

/// The vanilla (unplugged) run's output digest: the reference every
/// plugged run must reproduce bit for bit. The vanilla resolver offers
/// no speculation view, so the run is sequential at any thread count.
pub fn reference_digest(
    spec: &AlgoSpec,
    metric: &(dyn Metric + Send + Sync),
    seed: u64,
) -> Result<u64, String> {
    let oracle = Oracle::new(metric);
    let mut r = BoundResolver::vanilla(&oracle);
    let out = spec
        .algo
        .run(&mut r, seed)
        .map_err(|e| format!("vanilla algorithm: {e}"))?;
    Ok(out.digest())
}

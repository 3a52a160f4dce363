//! The benchmark's own properties: seeded, pure inputs; repeatable calls
//! and outputs; thread invariance of `knng-tri-par` (invariant I5); and
//! traced runs that reproduce untraced ones.
//!
//! They run the real workloads, so run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Mutex;

use prox_bounds::{BoundResolver, BoundScheme, DistanceResolver, Splub, TriScheme};
use prox_core::{Oracle, Pair};
use prox_perfbench::algo::{reference_digest, run_plugged, RunReport};
use prox_perfbench::report::{END_TO_END, PER_LAYER};
use prox_perfbench::serve;
use prox_perfbench::timed::{Clocks, TimedResolver, TimedScheme};
use prox_perfbench::workload::{dataset, AlgoSpec, Workload};

/// `ExecPool`'s thread count is process-global; tests that run plugged
/// algorithms take turns.
static POOL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;

fn run(spec: &AlgoSpec, seed: u64, traced: bool) -> RunReport {
    run_plugged(spec, &*dataset(spec.n, seed), seed, traced).expect("run succeeds")
}

fn algo_workloads() -> impl Iterator<Item = AlgoSpec> {
    Workload::ALL.into_iter().filter_map(Workload::algo)
}

#[test]
fn same_seed_gives_same_inputs() {
    for n in [256, 2048] {
        let (a, b) = (dataset(n, SEED), dataset(n, SEED));
        let (a, b) = (Oracle::new(&*a), Oracle::new(&*b));
        assert!(Pair::all(n).all(|p| a.call_pair(p).to_bits() == b.call_pair(p).to_bits()));
    }
    let queries = |seed| -> Vec<_> {
        serve::script(seed)
            .into_iter()
            .map(|g| (g.kind, g.query))
            .collect()
    };
    assert_eq!(queries(SEED), queries(SEED));
    assert_ne!(queries(SEED), queries(SEED + 1));
}

#[test]
fn same_seed_gives_same_calls_and_outputs() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    for spec in algo_workloads() {
        let (a, b) = (run(&spec, SEED, false), run(&spec, SEED, false));
        assert_eq!(a.oracle_calls, b.oracle_calls, "{spec:?}");
        assert_eq!(a.digest, b.digest, "{spec:?}");
        assert_eq!(a.ledger, b.ledger, "{spec:?}");
        let metric = dataset(spec.n, SEED);
        let vanilla = reference_digest(&spec, &*metric, SEED).expect("vanilla run succeeds");
        assert_eq!(
            a.digest, vanilla,
            "plugged output differs from vanilla: {spec:?}"
        );
    }
}

#[test]
fn knng_tri_par_is_thread_invariant() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let par = Workload::KnngTriPar.algo().expect("algorithm workload");
    assert_eq!(par.threads, 2);
    let seq = AlgoSpec { threads: 1, ..par };
    let (a, b) = (run(&seq, SEED, false), run(&par, SEED, false));
    assert_eq!(a.oracle_calls, b.oracle_calls);
    assert_eq!(a.digest, b.digest);
}

/// The four forwards whose loss changes CPU but not output, so no
/// output check could catch it: the cascade switch (`goal_aware`), the
/// bound cache (`bounds_cacheable`) and speculation (`spec`, on both
/// wrappers).
#[test]
fn timers_forward_the_work_changing_overrides() {
    let oracle = Oracle::new(dataset(64, SEED));
    let clocks = Rc::new(Clocks::default());
    fn check<S: BoundScheme>(raw: S, timed: &TimedScheme<S>) {
        assert_eq!(raw.goal_aware(), timed.goal_aware(), "{}", raw.name());
        assert_eq!(
            raw.bounds_cacheable(),
            timed.bounds_cacheable(),
            "{}",
            raw.name()
        );
        assert_eq!(
            raw.spec().is_some(),
            timed.spec().is_some(),
            "{}",
            raw.name()
        );
    }
    let splub = TimedScheme::new(Splub::new(64, 1.0), Rc::clone(&clocks));
    check(Splub::new(64, 1.0), &splub);
    assert!(splub.goal_aware() && splub.bounds_cacheable());
    let tri = TimedScheme::new(TriScheme::new(64, 1.0), Rc::clone(&clocks));
    check(TriScheme::new(64, 1.0), &tri);
    assert!(tri.spec().is_some());
    let resolver = TimedResolver::new(BoundResolver::new(&oracle, tri), clocks);
    assert!(resolver.spec().is_some());
}

#[test]
fn traced_runs_reproduce_untraced_runs() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    for spec in algo_workloads() {
        let (u, t) = (run(&spec, SEED, false), run(&spec, SEED, true));
        assert_eq!(
            (u.digest, u.oracle_calls, &u.ledger, u.prune),
            (t.digest, t.oracle_calls, &t.ledger, t.prune),
            "{spec:?}"
        );
        let clocks = t.clocks.expect("traced run carries clocks");
        assert!(clocks.resolver.calls() > 0);
        assert!(clocks.resolver.total() <= t.algo_wall);
        assert!(
            clocks.scheme_bounds.total() + clocks.scheme_record.total() <= clocks.resolver.total()
        );
    }
    // The SPLUB cascade stays on under the timers: its tiers still decide.
    let splub = run(
        &Workload::KnngSplub.algo().expect("algorithm workload"),
        SEED,
        true,
    );
    assert!(splub
        .ledger
        .iter()
        .any(|&(kind, scheme, tier, n)| kind == "bound_decisive"
            && scheme == "SPLUB"
            && tier == "ado"
            && n > 0));
}

#[test]
fn serve_passes_repeat_and_traced_pass_matches() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-pass-test");
    let _ = std::fs::remove_dir_all(&dir);
    let (master, work) = (dir.join("master"), dir.join("pass"));
    let metric = dataset(serve::N, SEED);
    let entries = serve::prefill(&master, &*metric, SEED).expect("prefill");
    assert_eq!(entries, Pair::count(serve::PREFILL as usize));
    let script = serve::script(SEED);
    let pass = |traced| serve::pass(&*metric, SEED, &script, &master, &work, traced).expect("pass");
    let (a, b, t) = (pass(false), pass(false), pass(true));
    assert_eq!(serve::wrong_groups(&*metric, &script, &a.responses), 0);
    // Passes start from the same store: none wrote through to the master.
    for p in [&a, &b, &t] {
        assert_eq!(p.recovered_entries, entries);
    }
    assert_eq!(a.oracle_calls, (serve::GROUPS_PER_KIND * 496) as u64);
    for other in [&b, &t] {
        assert_eq!(a.responses, other.responses);
        assert_eq!(a.store, other.store);
    }
    let layers = t.layers.expect("traced pass carries layer timings");
    assert_eq!(layers.store_hits * 2, layers.pairs);
    assert_eq!(layers.commit.len(), serve::GROUPS_PER_KIND);
    assert!(!work.exists(), "a pass removes its work directory");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"unit\"").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}

//! `perfbench`: the measuring half of the benchmark (`run.py` builds it
//! and drives it; see README.md).
//!
//! ```text
//! perfbench prepare --workload W --seed S --trace 0|1 --work DIR
//! perfbench run     --workload W --seed S --seconds T --trace 0|1 --work DIR
//! ```
//!
//! `prepare` makes what a run is checked against or starts from, in a
//! process of its own so it never shows in the run's memory or CPU
//! figures: the vanilla output digest of an algorithm workload, or the
//! prefilled store of `serve-mixed`. `run` measures for `T` seconds and
//! prints a metric table followed by one JSON line. It exits non-zero if
//! any operation failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prox_core::Metric;
use prox_exec::ExecPool;
use prox_perfbench::algo::{reference_digest, run_plugged, RunReport};
use prox_perfbench::procfs;
use prox_perfbench::report::{Report, PER_LAYER};
use prox_perfbench::serve::{self, GroupKind, PassReport};
use prox_perfbench::stats::{median, quantile};
use prox_perfbench::workload::{dataset, instance_seed, AlgoSpec, Workload, ORACLE_COST_S};

/// How long [`SetupSampler`] rebuilds the datasets at start and after
/// each operation.
const SETUP_WINDOW: Duration = Duration::from_millis(40);

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (prepare | run)")?;
    let (mut workload, mut seed, mut seconds, mut trace, mut work) = (None, None, 10, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        work: work.ok_or("missing --work")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.command.as_str() {
        "prepare" => prepare(&args).map(|()| true),
        "run" => run(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match out {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn reference_path(work: &Path) -> PathBuf {
    work.join("reference")
}

fn master_path(work: &Path) -> PathBuf {
    work.join("master")
}

fn prepare(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    let start = Instant::now();
    match args.workload.algo() {
        Some(spec) => {
            // Vanilla references of every instance, two at a time.
            let seeds = instance_seeds(args);
            let digests = ExecPool::new(2).map_indexed(seeds.len(), |i| {
                reference_digest(&spec, &*dataset(spec.n, seeds[i]), seeds[i])
            });
            let digests = digests.into_iter().collect::<Result<Vec<u64>, String>>()?;
            let text: String = digests.iter().map(|d| format!("{d:016x}\n")).collect();
            let path = reference_path(&args.work);
            std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "reference    : vanilla output digests of {} instance(s) ({:.2} s)",
                digests.len(),
                start.elapsed().as_secs_f64()
            );
        }
        None => {
            let metric = dataset(serve::N, args.seed);
            let entries = serve::prefill(&master_path(&args.work), &*metric, args.seed)?;
            println!(
                "prefill      : {entries} store entries committed ({:.2} s)",
                start.elapsed().as_secs_f64()
            );
        }
    }
    Ok(())
}

/// Timings of the workload's set-up step, building the datasets of all
/// its instances: sampled for [`SETUP_WINDOW`] at start and again after
/// every operation. The host's speed drifts over seconds, so equal
/// windows spread over the whole run make `setup_s` (their median) as
/// steady as the run's other timings, not a snapshot of its start.
struct SetupSampler {
    n: usize,
    seeds: Vec<u64>,
    times: Vec<f64>,
}

impl SetupSampler {
    fn new(n: usize, seeds: Vec<u64>) -> Self {
        let mut s = SetupSampler {
            n,
            seeds,
            times: Vec::new(),
        };
        s.sample(SETUP_WINDOW);
        s
    }

    /// Builds the datasets repeatedly for at least `window`.
    fn sample(&mut self, window: Duration) {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            for &seed in &self.seeds {
                std::hint::black_box(dataset(self.n, seed));
            }
            self.times.push(t.elapsed().as_secs_f64());
            if start.elapsed() >= window {
                break;
            }
        }
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// The dataset seeds of a run's instances. A traced run measures the
/// seed's own instance only.
fn instance_seeds(args: &Args) -> Vec<u64> {
    let count = if args.trace {
        1
    } else {
        args.workload.instances()
    };
    (0..count).map(|i| instance_seed(args.seed, i)).collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let mut report = Report::new(args.workload, args.seed, args.trace);
    let budget = Duration::from_secs(args.seconds);
    match args.workload.algo() {
        Some(spec) => {
            let text = std::fs::read_to_string(reference_path(&args.work))
                .map_err(|e| format!("read reference (run prepare first): {e}"))?;
            let refs = text
                .lines()
                .map(|l| {
                    u64::from_str_radix(l, 16).map_err(|e| format!("bad reference {l:?}: {e}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            let seeds = instance_seeds(args);
            if refs.len() != seeds.len() {
                return Err(format!(
                    "{} references for {} instances",
                    refs.len(),
                    seeds.len()
                ));
            }
            let instances: Vec<Instance> = seeds
                .iter()
                .zip(refs)
                .map(|(&seed, reference)| Instance {
                    metric: dataset(spec.n, seed),
                    seed,
                    reference,
                })
                .collect();
            if args.trace {
                algo_traced(&spec, &instances[0], budget, &mut report);
            } else {
                let setup = SetupSampler::new(spec.n, seeds);
                algo_untraced(&spec, &instances, budget, setup, &mut report)?;
            }
        }
        None => {
            let metric = dataset(serve::N, args.seed);
            let script = serve::script(args.seed);
            let ctx = ServeCtx {
                metric: &*metric,
                seed: args.seed,
                script: &script,
                master: master_path(&args.work),
                work: args.work.join("pass"),
            };
            if args.trace {
                serve_traced(&ctx, budget, &mut report);
            } else {
                let setup = SetupSampler::new(serve::N, vec![args.seed]);
                serve_untraced(&ctx, budget, setup, &mut report)?;
            }
        }
    }
    Ok(report.finish())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// One dataset instance of an algorithm workload.
struct Instance {
    metric: Box<dyn Metric + Send + Sync>,
    seed: u64,
    /// The vanilla output digest.
    reference: u64,
}

/// One plugged run, checked against the vanilla reference digest and,
/// when given, against an earlier run of the same instance.
fn checked_run(
    spec: &AlgoSpec,
    inst: &Instance,
    traced: bool,
    same_as: Option<&RunReport>,
    report: &mut Report,
) -> Option<RunReport> {
    let out = guarded(|| run_plugged(spec, &*inst.metric, inst.seed, traced)).and_then(|r| {
        if r.digest != inst.reference {
            return Err(format!(
                "seed {}: output digest {:016x} differs from vanilla {:016x}",
                inst.seed, r.digest, inst.reference
            ));
        }
        if let Some(first) = same_as {
            if (r.oracle_calls, &r.ledger, r.prune)
                != (first.oracle_calls, &first.ledger, first.prune)
            {
                return Err(format!(
                    "seed {}: run diverged from the first run: {} calls, ledger {:?}, prune {:?} \
                     vs {} calls, ledger {:?}, prune {:?}",
                    inst.seed,
                    r.oracle_calls,
                    r.ledger,
                    r.prune,
                    first.oracle_calls,
                    first.ledger,
                    first.prune
                ));
            }
        }
        Ok(r)
    });
    report.attempt(out)
}

/// Runs the instances round-robin until each ran twice and the budget is
/// spent. The first round warms caches and the allocator: it is checked
/// but not timed. Reports per-instance medians of the timed runs,
/// averaged over the instances.
fn algo_untraced(
    spec: &AlgoSpec,
    instances: &[Instance],
    budget: Duration,
    mut setup: SetupSampler,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut runs: Vec<Vec<RunReport>> = instances.iter().map(|_| Vec::new()).collect();
    let mut next = 0;
    let mut peak_rss = 0;
    while next < 2 * instances.len() || start.elapsed() < budget {
        let i = next % instances.len();
        next += 1;
        if let Some(r) = checked_run(spec, &instances[i], false, runs[i].first(), report) {
            runs[i].push(r);
        }
        if next == 2 * instances.len() {
            peak_rss = procfs::peak_rss_bytes()?;
        }
        setup.sample(SETUP_WINDOW);
    }
    if runs.iter().any(|rs| rs.len() < 2) {
        return Err("an instance had no successful timed run".to_string());
    }
    let timed =
        |rs: &[RunReport]| -> Vec<f64> { rs[1..].iter().map(|r| r.wall.as_secs_f64()).collect() };
    let k = instances.len() as f64;
    let run_s = runs.iter().map(|rs| median(&timed(rs))).sum::<f64>() / k;
    let calls = runs.iter().map(|rs| rs[0].oracle_calls as f64).sum::<f64>() / k;
    let per_instance: Vec<String> = instances
        .iter()
        .zip(&runs)
        .map(|(inst, rs)| {
            format!(
                "seed {}: {} calls, {:.3} s",
                inst.seed,
                rs[0].oracle_calls,
                median(&timed(rs))
            )
        })
        .collect();
    report.metric(
        "setup_s",
        setup.median(),
        &format!(
            "median of {} builds of the {} instance dataset(s)",
            setup.times.len(),
            instances.len()
        ),
    );
    report.metric(
        "run_s",
        run_s,
        &format!(
            "mean over {} instance(s) of the median timed run; {} runs, first round untimed",
            instances.len(),
            next
        ),
    );
    report.metric(
        "oracle_calls",
        calls,
        &format!("mean; {}", per_instance.join(", ")),
    );
    report.metric(
        "completion_s",
        run_s + calls * ORACLE_COST_S,
        "run_s + oracle_calls x 100 us",
    );
    report.metric("peak_rss_mb", peak_rss as f64 / MIB, PEAK_RSS_DETAIL);
    Ok(())
}

/// `peak_rss_mb` of an algorithm workload is read once every instance
/// has run twice (warm-up and first timed round): later repeats do the
/// same work, and the heap growth they add depends on how many fit in the
/// budget, not on the program. Two rounds rather than one, because with
/// two threads the high-water mark of a single run varies by allocator
/// layout.
const PEAK_RSS_DETAIL: &str = "VmHWM after two rounds";

const MIB: f64 = 1024.0 * 1024.0;

/// The traced run: one untraced run of the seed's own instance, then
/// traced runs of it until the budget is spent, each checked against the
/// untraced one.
fn algo_traced(spec: &AlgoSpec, inst: &Instance, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let Some(untraced) = checked_run(spec, inst, false, None, report) else {
        return;
    };
    let mut traced: Vec<RunReport> = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        match checked_run(spec, inst, true, Some(&untraced), report) {
            Some(r) => traced.push(r),
            None if traced.is_empty() => return,
            None => {}
        }
    }
    let secs = |f: &dyn Fn(&RunReport) -> Duration| -> f64 {
        median(
            &traced
                .iter()
                .map(|r| f(r).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let clock = |r: &RunReport| r.clocks.clone().expect("traced runs carry clocks");
    let resolver = |r: &RunReport| clock(r).resolver.total();
    let scheme = |r: &RunReport| {
        let c = clock(r);
        c.scheme_bounds.total() + c.scheme_record.total()
    };
    let c = clock(&traced[0]);
    let prune = untraced.prune;
    let tier = |t: &str| {
        untraced
            .ledger
            .iter()
            .find(|&&(kind, scheme, tier, _)| {
                kind == "bound_decisive" && scheme == "SPLUB" && tier == t
            })
            .map_or(0.0, |row| row.3 as f64)
    };
    let n = format!("median of {} traced runs", traced.len());
    report.metric(
        "algos.self_s",
        secs(&|r| r.algo_wall.saturating_sub(resolver(r))),
        &n,
    );
    report.metric("algos.resolver_calls", c.resolver.calls() as f64, "");
    report.metric(
        "bounds.resolver.self_s",
        secs(&|r| resolver(r).saturating_sub(scheme(r))),
        &n,
    );
    report.metric(
        "bounds.resolver.decided_ratio",
        ratio(prune.decided_by_bounds as f64, prune.comparisons() as f64),
        &format!(
            "{} of {} comparisons",
            prune.decided_by_bounds,
            prune.comparisons()
        ),
    );
    report.metric("bounds.resolver.hint_calls", c.hints.calls() as f64, "");
    report.metric(
        "bounds.resolver.hint_s",
        secs(&|r| clock(r).hints.total()),
        &n,
    );
    report.metric(
        "bounds.scheme.bounds_calls",
        c.scheme_bounds.calls() as f64,
        "",
    );
    report.metric(
        "bounds.scheme.bounds_s",
        secs(&|r| clock(r).scheme_bounds.total()),
        &n,
    );
    report.metric(
        "bounds.scheme.record_calls",
        c.scheme_record.calls() as f64,
        "",
    );
    report.metric(
        "bounds.scheme.record_s",
        secs(&|r| clock(r).scheme_record.total()),
        &n,
    );
    report.metric("bounds.splub.tier_ado", tier("ado"), "ledger row");
    report.metric("bounds.splub.tier_bidi", tier("bidi"), "ledger row");
    report.metric("bounds.splub.tier_full", tier("full"), "ledger row");
    report.metric(
        "core.oracle.bootstrap_calls",
        untraced.bootstrap_calls as f64,
        "",
    );
    report.metric("core.oracle.bootstrap_s", secs(&|r| r.bootstrap_wall), &n);
    report.metric(
        "exec.cpu_s",
        untraced.cpu.as_secs_f64(),
        "untraced run, /proc/self/stat",
    );
    report.metric(
        "exec.parallelism",
        ratio(untraced.cpu.as_secs_f64(), untraced.wall.as_secs_f64()),
        "CPU / wall, untraced run",
    );
    unreached(
        report,
        &["serve.", "read_", "write_", "groups_per_s"],
        "not exercised",
    );
    report.metric(
        "bench.unattributed_s",
        secs(&|r| r.wall.saturating_sub(r.bootstrap_wall + r.algo_wall)),
        "run wall - bootstrap - algorithm",
    );
    report.metric(
        "bench.trace_overhead",
        ratio(secs(&|r| r.wall), untraced.wall.as_secs_f64()),
        "traced run_s / untraced run_s",
    );
}

/// Reports 0 for the per-layer metrics whose names start with one of
/// `prefixes`: layers this workload never reaches.
fn unreached(report: &mut Report, prefixes: &[&str], why: &str) {
    for &(name, _) in PER_LAYER.iter() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            report.metric(name, 0.0, why);
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct ServeCtx<'a> {
    metric: &'a (dyn Metric + Send + Sync),
    seed: u64,
    script: &'a [serve::Group],
    master: PathBuf,
    work: PathBuf,
}

/// One pass, checked against the ground truth and, when given, against
/// an earlier pass (same responses, same final store). Every group counts
/// as one attempted operation.
fn checked_pass(
    ctx: &ServeCtx,
    traced: bool,
    same_as: Option<&PassReport>,
    report: &mut Report,
) -> Option<PassReport> {
    let groups = ctx.script.len() as u64;
    let out = guarded(|| {
        serve::pass(
            ctx.metric,
            ctx.seed,
            ctx.script,
            &ctx.master,
            &ctx.work,
            traced,
        )
    });
    match out {
        Ok(mut p) => {
            let mut wrong = serve::wrong_groups(ctx.metric, ctx.script, &p.responses);
            if let Some(first) = same_as {
                let differ = first
                    .responses
                    .iter()
                    .zip(&p.responses)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                wrong = wrong.max(differ);
                if first.store != p.store && wrong == 0 {
                    wrong = 1;
                }
            }
            report.count(
                groups,
                wrong,
                "pass output differs from ground truth or first pass",
            );
            if same_as.is_some() {
                // Checked; only the first pass's outputs are kept, so the
                // benchmark's own memory does not grow with the pass count.
                p.responses = Vec::new();
                p.store = Vec::new();
            }
            (wrong == 0).then_some(p)
        }
        Err(e) => {
            report.count(groups, groups, &e);
            None
        }
    }
}

fn latency_us(passes: &[PassReport], kind: GroupKind) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.latencies.iter())
        .filter(|(k, _)| *k == kind)
        .map(|(_, d)| d.as_secs_f64() * 1e6)
        .collect()
}

/// `peak_rss_mb` of `serve-mixed` is read after this many passes (or at
/// the end, if fewer fit). The high-water mark of one pass differs from
/// run to run by up to 3 MiB (allocator layout); after a few passes it
/// has reached its top.
const SERVE_PEAK_RSS_PASSES: usize = 4;

fn serve_untraced(
    ctx: &ServeCtx,
    budget: Duration,
    mut setup: SetupSampler,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut passes: Vec<PassReport> = Vec::new();
    let mut peak_rss = 0;
    let mut tries = 0;
    while tries < 2 || start.elapsed() < budget {
        tries += 1;
        if let Some(p) = checked_pass(ctx, false, passes.first(), report) {
            passes.push(p);
        }
        if tries == SERVE_PEAK_RSS_PASSES {
            peak_rss = procfs::peak_rss_bytes()?;
        }
        setup.sample(SETUP_WINDOW);
    }
    if peak_rss == 0 {
        peak_rss = procfs::peak_rss_bytes()?;
    }
    if passes.len() < 2 {
        return Err("no timed pass succeeded".to_string());
    }
    // The first pass warms caches and the allocator: checked, not timed.
    let (first, timed) = (&passes[0], &passes[1..]);
    let recover: Vec<f64> = timed.iter().map(|p| p.recover.as_secs_f64()).collect();
    let walls: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
    let run_s = median(&walls);
    let calls = first.oracle_calls as f64;
    let samples = format!(
        "median of {} timed passes of {} groups, first pass untimed",
        timed.len(),
        ctx.script.len()
    );
    report.metric(
        "setup_s",
        setup.median() + median(&recover),
        &format!(
            "dataset build + store recovery of {} entries, medians",
            first.recovered_entries
        ),
    );
    report.metric("run_s", run_s, &samples);
    report.metric("oracle_calls", calls, "strong calls per pass");
    report.metric(
        "completion_s",
        run_s + calls * ORACLE_COST_S,
        "run_s + oracle_calls x 100 us",
    );
    report.metric(
        "peak_rss_mb",
        peak_rss as f64 / MIB,
        &format!("VmHWM after {SERVE_PEAK_RSS_PASSES} passes"),
    );
    for (name, value, unit, detail) in serve_latencies(timed) {
        report.note(name, value, unit, &detail);
    }
    Ok(())
}

/// The closed-loop group latencies as `(name, value, unit, detail)`:
/// table notes of an untraced run, per-layer metrics of a traced one.
fn serve_latencies(passes: &[PassReport]) -> [(&'static str, f64, &'static str, String); 5] {
    let reads = latency_us(passes, GroupKind::Read);
    let writes = latency_us(passes, GroupKind::Write);
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let groups = reads.len() + writes.len();
    let detail = |n: usize| format!("{n} groups, closed loop, 1 client");
    [
        (
            "read_p50_us",
            quantile(&reads, 0.5),
            "us",
            detail(reads.len()),
        ),
        (
            "read_p90_us",
            quantile(&reads, 0.9),
            "us",
            detail(reads.len()),
        ),
        (
            "write_p50_us",
            quantile(&writes, 0.5),
            "us",
            detail(writes.len()),
        ),
        (
            "write_p90_us",
            quantile(&writes, 0.9),
            "us",
            detail(writes.len()),
        ),
        (
            "groups_per_s",
            ratio(groups as f64, wall),
            "1/s",
            detail(groups),
        ),
    ]
}

fn serve_traced(ctx: &ServeCtx, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let mut untraced: Vec<PassReport> = Vec::new();
    let mut traced: Vec<PassReport> = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        let Some(u) = checked_pass(ctx, false, untraced.first(), report) else {
            return;
        };
        untraced.push(u);
        let Some(t) = checked_pass(ctx, true, untraced.first(), report) else {
            return;
        };
        traced.push(t);
    }
    let layers: Vec<&serve::ServeLayers> =
        traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    let us = |f: &dyn Fn(&serve::ServeLayers) -> &Vec<Duration>| -> f64 {
        let xs: Vec<f64> = layers
            .iter()
            .flat_map(|l| f(l).iter())
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        median(&xs)
    };
    let sum = |f: &dyn Fn(&serve::ServeLayers) -> u64| -> f64 {
        layers.iter().map(|l| f(l)).sum::<u64>() as f64
    };
    let commits = layers.iter().map(|l| l.commit.len()).sum::<usize>() as f64;
    let secs = |ps: &[PassReport], f: &dyn Fn(&PassReport) -> Duration| -> f64 {
        median(&ps.iter().map(|p| f(p).as_secs_f64()).collect::<Vec<_>>())
    };
    unreached(
        report,
        &["algos.", "bounds.", "core."],
        "inside run_group, not reachable from outside",
    );
    report.metric(
        "exec.cpu_s",
        secs(&untraced, &|p| p.cpu),
        "untraced passes, /proc/self/stat",
    );
    report.metric(
        "exec.parallelism",
        ratio(secs(&untraced, &|p| p.cpu), secs(&untraced, &|p| p.wall)),
        "CPU / wall, untraced passes",
    );
    report.metric(
        "serve.store.recover_s",
        secs(&untraced, &|p| p.recover),
        "SharedStore::open",
    );
    report.metric("serve.store.snapshot_us", us(&|l| &l.snapshot), "median");
    report.metric(
        "serve.store.snapshot_entries",
        median(
            &layers
                .iter()
                .flat_map(|l| l.snapshot_entries.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "median",
    );
    report.metric(
        "serve.session.run_group_read_us",
        us(&|l| &l.run_group_read),
        "median",
    );
    report.metric(
        "serve.session.run_group_write_us",
        us(&|l| &l.run_group_write),
        "median",
    );
    report.metric(
        "serve.session.store_hit_ratio",
        ratio(sum(&|l| l.store_hits), sum(&|l| l.pairs)),
        "store hits / pairs requested",
    );
    report.metric("serve.store.commit_us", us(&|l| &l.commit), "median");
    report.metric(
        "serve.wal.bytes_per_commit",
        ratio(sum(&|l| l.wal_bytes), commits),
        "store-dir growth per commit",
    );
    report.metric(
        "serve.wal.bytes_per_entry",
        ratio(sum(&|l| l.wal_bytes), sum(&|l| l.committed_entries)),
        "store-dir growth per fresh entry",
    );
    for (name, value, _, detail) in serve_latencies(&untraced) {
        report.metric(name, value, &detail);
    }
    report.metric(
        "bench.unattributed_s",
        median(
            &layers
                .iter()
                .zip(&traced)
                .map(|(l, p)| {
                    let inside: Duration = l
                        .snapshot
                        .iter()
                        .chain(&l.run_group_read)
                        .chain(&l.run_group_write)
                        .chain(&l.commit)
                        .sum();
                    p.wall.saturating_sub(inside).as_secs_f64()
                })
                .collect::<Vec<_>>(),
        ),
        "pass wall - snapshot - run_group - commit",
    );
    report.metric(
        "bench.trace_overhead",
        ratio(secs(&traced, &|p| p.wall), secs(&untraced, &|p| p.wall)),
        "traced pass / untraced pass",
    );
}

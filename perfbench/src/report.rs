//! The metric table a run prints, and its closing JSON line.

use crate::workload::Workload;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("oracle_calls", "calls"),
    ("completion_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// Layers a workload never reaches report zero.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("algos.self_s", "s"),
    ("algos.resolver_calls", "count"),
    ("bounds.resolver.self_s", "s"),
    ("bounds.resolver.decided_ratio", "ratio"),
    ("bounds.resolver.hint_calls", "count"),
    ("bounds.resolver.hint_s", "s"),
    ("bounds.scheme.bounds_calls", "count"),
    ("bounds.scheme.bounds_s", "s"),
    ("bounds.scheme.record_calls", "count"),
    ("bounds.scheme.record_s", "s"),
    ("bounds.splub.tier_ado", "count"),
    ("bounds.splub.tier_bidi", "count"),
    ("bounds.splub.tier_full", "count"),
    ("core.oracle.bootstrap_calls", "calls"),
    ("core.oracle.bootstrap_s", "s"),
    ("exec.cpu_s", "s"),
    ("exec.parallelism", "ratio"),
    ("serve.store.recover_s", "s"),
    ("serve.store.snapshot_us", "us"),
    ("serve.store.snapshot_entries", "count"),
    ("serve.session.run_group_read_us", "us"),
    ("serve.session.run_group_write_us", "us"),
    ("serve.session.store_hit_ratio", "ratio"),
    ("serve.store.commit_us", "us"),
    ("serve.wal.bytes_per_commit", "bytes"),
    ("serve.wal.bytes_per_entry", "bytes"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("groups_per_s", "1/s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// One printed line.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    detail: String,
}

/// Collects a run's operations, failures and metrics.
pub struct Report {
    header: String,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Row>,
    notes: Vec<Row>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Self {
        Report {
            header: format!(
                "workload     : {} (seed {seed}, {})",
                workload.name(),
                if trace { "traced" } else { "untraced" }
            ),
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The declared metrics of this run's mode.
    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Counts one operation: `Ok` passes it through, `Err` is a failure.
    pub fn attempt<T>(&mut self, out: Result<T, String>) -> Option<T> {
        match out {
            Ok(v) => {
                self.count(1, 0, "");
                Some(v)
            }
            Err(e) => {
                self.count(1, 1, &e);
                None
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed, for `why`.
    pub fn count(&mut self, attempted: u64, failed: u64, why: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {attempted} operation(s) failed: {why}");
        }
    }

    /// Records a declared metric of this run's mode (its unit comes from
    /// the declaration).
    pub fn metric(&mut self, name: &str, value: f64, detail: &str) {
        match self.declared().iter().find(|(n, _)| *n == name) {
            Some(&(_, unit)) if value.is_finite() => self.metrics.push(Row {
                name: name.to_string(),
                value,
                unit,
                detail: detail.to_string(),
            }),
            _ => self.count(1, 1, &format!("bad metric {name} = {value}")),
        }
    }

    /// Records a table-only line (not part of the JSON metrics).
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, detail: &str) {
        self.notes.push(Row {
            name: name.to_string(),
            value,
            unit,
            detail: detail.to_string(),
        });
    }

    /// Prints the table and the JSON line; true when nothing failed and
    /// every declared metric was reported.
    pub fn finish(mut self) -> bool {
        let missing: Vec<&str> = self
            .declared()
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.metrics.iter().any(|r| r.name == *name))
            .collect();
        if !missing.is_empty() && self.failed == 0 {
            self.count(
                1,
                1,
                &format!("metrics not reported: {}", missing.join(", ")),
            );
        }
        let failed_ratio = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        println!("{}", self.header);
        for r in self.metrics.iter().chain(&self.notes) {
            println!(
                "{:<34} {:>16} {:<6} {}",
                r.name,
                fmt(r.value),
                r.unit,
                r.detail
            );
        }
        println!(
            "{:<34} {:>16} {:<6} {} of {} operations failed",
            "failed_ratio",
            fmt(failed_ratio),
            "ratio",
            self.failed,
            self.attempted
        );
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = if correct {
            self.metrics
                .iter()
                .map(|r| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        r.name, r.value, r.unit
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed.max(u64::from(!correct)),
            metrics.join(", ")
        );
        correct
    }
}

/// Table formatting: enough digits to compare runs by eye.
fn fmt(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

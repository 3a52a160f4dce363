//! The benchmark's workloads: names, fixed parameters, and the seeded
//! inputs they hand to the program.

use prox_core::Metric;
use prox_datasets::{ClusteredPlane, Dataset};

/// Virtual per-call oracle cost of the completion-time model
/// (`completion_s = run_s + oracle_calls × ORACLE_COST_S`), the paper's
/// Fig. 7d model at a cost near today's knng SPLUB vs vanilla break-even.
pub const ORACLE_COST_S: f64 = 100e-6;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// kNN graph, SPLUB plug, sequential.
    KnngSplub,
    /// PAM, Tri plug bootstrapped with `⌈log2 n⌉` landmarks, sequential.
    PamTri,
    /// kNN graph, Tri plug, two threads (speculate/commit).
    KnngTriPar,
    /// Closed-loop read/write group mix against a prefilled serve store.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::KnngSplub,
        Workload::PamTri,
        Workload::KnngTriPar,
        Workload::ServeMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KnngSplub => "knng-splub",
            Workload::PamTri => "pam-tri",
            Workload::KnngTriPar => "knng-tri-par",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Dataset instances one run measures. The plugged algorithms' cost
    /// and memory vary from one `sf` instance to the next (PAM's swap
    /// count above all), so the algorithm workloads average over several
    /// instances to keep run-to-run spread within the benchmark's bounds.
    pub fn instances(self) -> usize {
        match self {
            Workload::KnngSplub => 12,
            Workload::PamTri => 16,
            Workload::KnngTriPar => 3,
            Workload::ServeMixed => 1,
        }
    }

    /// The plugged-algorithm configuration, for algorithm workloads.
    pub fn algo(self) -> Option<AlgoSpec> {
        match self {
            Workload::KnngSplub => Some(AlgoSpec {
                algo: Algo::Knn { k: 5 },
                plug: Plug::Splub,
                n: 128,
                threads: 1,
            }),
            Workload::PamTri => Some(AlgoSpec {
                algo: Algo::Pam { l: 10 },
                plug: Plug::TriBoot,
                n: 128,
                threads: 1,
            }),
            Workload::KnngTriPar => Some(AlgoSpec {
                algo: Algo::Knn { k: 5 },
                plug: Plug::TriBoot,
                n: 2048,
                threads: 2,
            }),
            Workload::ServeMixed => None,
        }
    }
}

/// Which algorithm an algorithm workload runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `try_knn_graph` with `k` neighbours.
    Knn {
        /// Neighbours per object.
        k: usize,
    },
    /// `try_pam` with `l` medoids (50 swaps at most, as `prox-cli`).
    Pam {
        /// Medoids.
        l: usize,
    },
}

/// Which bound scheme is plugged in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Plug {
    /// SPLUB, no bootstrap (`prox-cli --plug splub`).
    Splub,
    /// Tri Scheme after a LAESA landmark bootstrap (`prox-cli --plug tri`).
    TriBoot,
}

/// A plugged-algorithm workload's fixed parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AlgoSpec {
    /// The algorithm.
    pub algo: Algo,
    /// The plug.
    pub plug: Plug,
    /// Objects in the dataset.
    pub n: usize,
    /// `ExecPool` threads.
    pub threads: usize,
}

/// The workloads' dataset: `sf` (`ClusteredPlane`) with `n` objects,
/// generated from `seed` alone.
pub fn dataset(n: usize, seed: u64) -> Box<dyn Metric + Send + Sync> {
    ClusteredPlane::default().metric(n, seed)
}

/// The seed of instance `i` of a run with seed `seed`. Instance 0 uses
/// `seed` itself, so it is the instance `prox-cli --seed <seed>` runs.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// `⌈log2 n⌉`, the landmark budget `prox-cli` uses by default.
pub fn log_landmarks(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

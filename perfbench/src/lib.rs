//! The prox benchmark: workloads, forwarding layer timers, `/proc`
//! probes and the metric report. `src/main.rs` is the measuring binary
//! and `run.py` the command that builds and drives it (see README.md).

pub mod algo;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod timed;
pub mod workload;

//! The `serve-mixed` workload: one closed-loop client alternating read
//! and write block groups against a prefilled shared store.
//!
//! The store covers `sf` with [`N`] objects and is prefilled with every
//! pair among objects `0..PREFILL` (130,816 entries, 511 sealed WAL
//! segments). A *pass* copies that WAL into a fresh directory, recovers
//! the store from it (`SharedStore::open`) and serves the pass script:
//! [`GROUPS_PER_KIND`] read groups, blocks of [`BLOCK`] objects inside
//! `0..PREFILL` (every pair a store hit), alternating with as many write
//! groups, disjoint blocks inside `PREFILL..N` (every pair a fresh strong
//! call, committed through `SharedStore::commit` and the WAL). Every pass
//! starts from the same recovered store, so every pass does the same work.
//!
//! Untraced passes go through the public `BoundServer::run`, one group per
//! call. The traced pass drives `snapshot` → `run_group` → `commit`
//! itself, timing each, and must reproduce the untraced responses and
//! final store exactly.

use std::path::Path;
use std::time::{Duration, Instant};

use prox_core::{Metric, Oracle, Pair, TinyRng};
use prox_serve::{
    run_group, BoundServer, GroupOutcome, GroupResponse, PairGroupQuery, PairSelector, ServeConfig,
    SessionConfig, SharedStore, WalConfig,
};

use crate::procfs;

/// Objects in the served dataset.
pub const N: usize = 1024;
/// Objects whose pairs the store is prefilled with.
pub const PREFILL: u32 = 512;
/// Objects per block group (496 pairs).
pub const BLOCK: usize = 32;
/// Read groups (and write groups) per pass.
pub const GROUPS_PER_KIND: usize = 16;

/// Whether a group is served from the store or pays fresh calls.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GroupKind {
    /// Every pair is a store hit.
    Read,
    /// Every pair is a fresh strong call, then committed.
    Write,
}

/// One scripted group.
pub struct Group {
    /// Read or write.
    pub kind: GroupKind,
    /// The block query.
    pub query: PairGroupQuery,
}

/// The pass script for `seed`: read and write groups alternating, each
/// a block of [`BLOCK`] objects drawn from a seeded permutation.
pub fn script(seed: u64) -> Vec<Group> {
    let mut rng = TinyRng::new(seed ^ 0x5e7e_b10c);
    let reads = blocks(&mut rng, 0..PREFILL);
    let writes = blocks(&mut rng, PREFILL..N as u32);
    let block = |kind, members: Vec<u32>| Group {
        kind,
        query: PairGroupQuery {
            selector: PairSelector::Block(members),
            skip: Default::default(),
        },
    };
    reads
        .into_iter()
        .zip(writes)
        .flat_map(|(r, w)| [block(GroupKind::Read, r), block(GroupKind::Write, w)])
        .collect()
}

/// [`GROUPS_PER_KIND`] disjoint sorted blocks from a seeded shuffle of
/// `range`.
fn blocks(rng: &mut TinyRng, range: std::ops::Range<u32>) -> Vec<Vec<u32>> {
    let mut ids: Vec<u32> = range.collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    ids.chunks(BLOCK)
        .take(GROUPS_PER_KIND)
        .map(|c| {
            let mut b = c.to_vec();
            b.sort_unstable();
            b
        })
        .collect()
}

/// The manifest binding the store directory to this problem instance.
pub fn manifest(seed: u64) -> Vec<(String, String)> {
    [
        ("dataset", "sf".to_string()),
        ("n", N.to_string()),
        ("seed", seed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Writes the prefilled store into the empty directory `dir` through
/// `SharedStore::commit`; returns the entry count.
pub fn prefill(dir: &Path, metric: &(dyn Metric + Send + Sync), seed: u64) -> Result<u64, String> {
    let (store, _) = SharedStore::open(dir, &manifest(seed), WalConfig::default())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let oracle = Oracle::new(metric);
    let entries: Vec<(Pair, f64)> = Pair::all(PREFILL as usize)
        .map(|p| (p, oracle.call_pair(p)))
        .collect();
    let receipt = store
        .commit(store.token(), &entries)
        .map_err(|e| format!("prefill commit: {e:?}"))?;
    Ok(receipt.fresh)
}

/// Per-layer timings of one traced pass.
#[derive(Default)]
pub struct ServeLayers {
    /// `SharedStore::snapshot` times.
    pub snapshot: Vec<Duration>,
    /// Entries per snapshot.
    pub snapshot_entries: Vec<f64>,
    /// `run_group` times of read groups.
    pub run_group_read: Vec<Duration>,
    /// `run_group` times of write groups.
    pub run_group_write: Vec<Duration>,
    /// `SharedStore::commit` times.
    pub commit: Vec<Duration>,
    /// Store-directory bytes added by all commits.
    pub wal_bytes: u64,
    /// Fresh entries all commits made durable.
    pub committed_entries: u64,
    /// Pairs requested.
    pub pairs: u64,
    /// Pairs served from the store snapshot.
    pub store_hits: u64,
}

/// What one pass reports.
pub struct PassReport {
    /// `SharedStore::open` (WAL recovery) time.
    pub recover: Duration,
    /// Entries recovered.
    pub recovered_entries: u64,
    /// Latency of each group, in script order.
    pub latencies: Vec<(GroupKind, Duration)>,
    /// Wall time of the whole script (recovery excluded).
    pub wall: Duration,
    /// Process CPU time over `wall`.
    pub cpu: Duration,
    /// Each group's response, in script order.
    pub responses: Vec<GroupResponse>,
    /// The store's certified entries after the pass.
    pub store: Vec<(Pair, f64)>,
    /// Strong calls paid by the pass.
    pub oracle_calls: u64,
    /// Layer timings (traced passes only).
    pub layers: Option<ServeLayers>,
}

/// Runs one pass on a fresh copy of `master` in `work` (removed again
/// afterwards, also on error).
pub fn pass(
    metric: &(dyn Metric + Send + Sync),
    seed: u64,
    script: &[Group],
    master: &Path,
    work: &Path,
    traced: bool,
) -> Result<PassReport, String> {
    let _ = std::fs::remove_dir_all(work);
    let out = link_dir(master, work).and_then(|()| pass_in(metric, seed, script, work, traced));
    let _ = std::fs::remove_dir_all(work);
    out
}

fn pass_in(
    metric: &(dyn Metric + Send + Sync),
    seed: u64,
    script: &[Group],
    work: &Path,
    traced: bool,
) -> Result<PassReport, String> {
    let start = Instant::now();
    let (store, recovery) = SharedStore::open(work, &manifest(seed), WalConfig::default())
        .map_err(|e| format!("recover {}: {e}", work.display()))?;
    let recover = start.elapsed();
    if recovery.salvaged || recovery.dropped_lines > 0 {
        return Err(format!("prefilled WAL recovered damaged: {recovery:?}"));
    }
    let cpu_before = procfs::cpu_time()?;
    let start = Instant::now();
    let served = if traced {
        serve_traced(metric, &store, script, work)?
    } else {
        serve_untraced(metric, &store, script)?
    };
    let wall = start.elapsed();
    let cpu = procfs::cpu_time()?.saturating_sub(cpu_before);
    Ok(PassReport {
        recover,
        recovered_entries: recovery.entries,
        latencies: served.latencies,
        wall,
        cpu,
        oracle_calls: served.responses.iter().map(|r| r.strong_calls).sum(),
        responses: served.responses,
        store: store.export(),
        layers: served.layers,
    })
}

/// What serving the script produced.
struct Served {
    latencies: Vec<(GroupKind, Duration)>,
    responses: Vec<GroupResponse>,
    layers: Option<ServeLayers>,
}

/// Each group through `BoundServer::run`, the public serving path.
fn serve_untraced(
    metric: &(dyn Metric + Send + Sync),
    store: &SharedStore,
    script: &[Group],
) -> Result<Served, String> {
    let server = BoundServer::new(metric, store, ServeConfig::default());
    let mut latencies = Vec::with_capacity(script.len());
    let mut responses = Vec::with_capacity(script.len());
    for (i, g) in script.iter().enumerate() {
        let start = Instant::now();
        let out = server.run(std::slice::from_ref(&g.query), None);
        latencies.push((g.kind, start.elapsed()));
        let s = out.stats.first().copied().unwrap_or_default();
        if out.crashed || out.responses.len() != 1 || s.rejected + s.fenced + s.degraded > 0 {
            return Err(format!(
                "group {i}: crashed {}, {} responses, stats {s:?}",
                out.crashed,
                out.responses.len()
            ));
        }
        responses.extend(out.responses.into_iter().map(|r| r.response));
    }
    Ok(Served {
        latencies,
        responses,
        layers: None,
    })
}

/// Each group as `snapshot` → `run_group` → `commit`, the steps
/// `BoundServer::run` takes for a single healthy session, timed.
fn serve_traced(
    metric: &(dyn Metric + Send + Sync),
    store: &SharedStore,
    script: &[Group],
    work: &Path,
) -> Result<Served, String> {
    let mut layers = ServeLayers::default();
    let mut latencies = Vec::with_capacity(script.len());
    let mut responses = Vec::with_capacity(script.len());
    let config = SessionConfig::default();
    for (i, g) in script.iter().enumerate() {
        let group_start = Instant::now();
        let t = Instant::now();
        let snapshot = store.snapshot();
        layers.snapshot.push(t.elapsed());
        layers.snapshot_entries.push(snapshot.entries.len() as f64);

        let t = Instant::now();
        let outcome = run_group(metric, &snapshot.entries, &[], &g.query, 0, &config);
        let took = t.elapsed();
        match g.kind {
            GroupKind::Read => layers.run_group_read.push(took),
            GroupKind::Write => layers.run_group_write.push(took),
        }
        let served = match outcome {
            GroupOutcome::Served(s) if !s.degraded && !s.quarantine => *s,
            other => return Err(format!("group {i}: {other:?}")),
        };

        let mut batch = served.fresh;
        batch.sort_by_key(|(p, _)| p.key());
        if !batch.is_empty() {
            let before = dir_bytes(work)?;
            let t = Instant::now();
            let receipt = store
                .commit(snapshot.token, &batch)
                .map_err(|e| format!("group {i}: commit: {e:?}"))?;
            layers.commit.push(t.elapsed());
            layers.wal_bytes += dir_bytes(work)?.saturating_sub(before);
            layers.committed_entries += receipt.fresh;
        }
        layers.pairs += served.response.resolved.len() as u64;
        layers.store_hits += served.response.store_hits;
        latencies.push((g.kind, group_start.elapsed()));
        responses.push(served.response);
    }
    Ok(Served {
        latencies,
        responses,
        layers: Some(layers),
    })
}

/// Groups whose response is wrong: a pair list other than the query's,
/// a degraded pair, or a distance that differs from the metric's ground
/// truth (read through a separate `Oracle`).
pub fn wrong_groups(
    metric: &(dyn Metric + Send + Sync),
    script: &[Group],
    responses: &[GroupResponse],
) -> u64 {
    let truth = Oracle::new(metric);
    let wrong = script.iter().zip(responses).filter(|(g, r)| {
        let pairs: Vec<Pair> = r.resolved.iter().map(|&(p, _)| p).collect();
        pairs != g.query.pairs()
            || !r.degraded.is_empty()
            || r.resolved
                .iter()
                .any(|&(p, d)| d.to_bits() != truth.call_pair(p).to_bits())
    });
    let missing = script.len().saturating_sub(responses.len());
    (wrong.count() + missing) as u64
}

/// Fills a new directory `dst` with the files of `src`, hard-linked so a
/// pass does not rewrite the 4 MB WAL (falling back to a copy where links
/// are unsupported). The store never writes a segment in place: it
/// writes a temporary file and renames it over the name, which replaces
/// the link and leaves `src` untouched.
fn link_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", src.display()))?;
        let to = dst.join(entry.file_name());
        std::fs::hard_link(entry.path(), &to)
            .or_else(|_| std::fs::copy(entry.path(), &to).map(drop))
            .map_err(|e| format!("link or copy to {}: {e}", to.display()))?;
    }
    Ok(())
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

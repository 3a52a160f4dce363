//! Pins the L9 acceptance property against the *real* workspace: the
//! expensive `Oracle::call*` / `try_call*` sinks are reachable from the
//! public `crates/algos` APIs — so the property is not vacuous — but only
//! through `DistanceResolver` choke nodes (or the audited allowlist), and
//! the full lint converges with zero violations and zero stale escapes.

use std::collections::BTreeSet;

use xtask::graph::{ItemGraph, Vis};
use xtask::rules::{self, L9_ALLOWLIST};
use xtask::{load_workspace_sources, workspace_root};

fn real_graph() -> (Vec<(String, String)>, ItemGraph) {
    let files = load_workspace_sources(&workspace_root());
    assert!(
        files.len() >= 50,
        "workspace snapshot looks truncated: {} files",
        files.len()
    );
    let g = ItemGraph::build(&files);
    (files, g)
}

/// The raw graph (no choke filtering) connects the public algorithm entry
/// points to the oracle sinks: the L9 result below is about *how* they
/// reach the oracle, not an artifact of a disconnected graph. Resolvers
/// reach it through the fallible `try_call*` forms (their infallible
/// `resolve` derives from `resolve_fallible`), so every sink counts.
#[test]
fn algos_public_apis_reach_the_oracle_in_the_raw_graph() {
    let (_, g) = real_graph();
    let sinks: BTreeSet<usize> = g
        .items
        .iter()
        .filter(|it| {
            it.krate == "core"
                && it.container.as_deref() == Some("Oracle")
                && matches!(
                    it.name.as_str(),
                    "call" | "call_pair" | "try_call" | "try_call_pair" | "try_call_replica"
                )
        })
        .map(|it| it.id)
        .collect();
    assert_eq!(sinks.len(), 5, "Oracle::call* / try_call* not all found");

    for api in ["prim_mst", "kruskal_mst"] {
        let item = g
            .items
            .iter()
            .find(|it| it.krate == "algos" && it.name == api && !it.is_test)
            .unwrap_or_else(|| panic!("{api} missing from the item graph"));
        assert_eq!(item.vis, Vis::Pub, "{api} should be public");
        assert!(
            g.reaches(item.id, &sinks),
            "{api} no longer reaches the oracle — resolution regressed?"
        );
    }
}

/// The L9 property itself: no public algos/bounds item can reach a sink
/// around the `DistanceResolver` choke points, and every allowlist entry
/// names a live item.
#[test]
fn oracle_is_reachable_only_through_resolver_chokes() {
    let (_, g) = real_graph();
    let exposure = rules::oracle_exposure(&g, L9_ALLOWLIST);
    assert_eq!(exposure.sinks.len(), 5, "expected the 5 Oracle sink fns");
    assert!(
        exposure.chokes.len() >= 10,
        "suspiciously few DistanceResolver methods: {}",
        exposure.chokes.len()
    );
    assert_eq!(
        exposure.stale_allow,
        Vec::<String>::new(),
        "stale L9 allowlist entries"
    );
    let leaks: Vec<&String> = exposure
        .exposed
        .iter()
        .filter(|(id, _)| {
            let it = &g.items[*id];
            it.vis == Vis::Pub && matches!(it.krate.as_str(), "algos" | "bounds")
        })
        .map(|(_, chain)| chain)
        .collect();
    assert!(leaks.is_empty(), "exposed public APIs: {leaks:#?}");
}

/// The workspace lint (lexical L1–L7, L8 coverage, graph L9–L12, escape
/// accounting) is clean end to end.
#[test]
fn workspace_lint_is_clean() {
    let (files, _) = real_graph();
    let lint = rules::lint_workspace(&files);
    let rendered: Vec<String> = lint.violations.iter().map(|v| v.render()).collect();
    assert!(rendered.is_empty(), "lint violations: {rendered:#?}");
    let stale: Vec<String> = lint.stale_escapes.iter().map(|v| v.render()).collect();
    assert!(stale.is_empty(), "stale lint escapes: {stale:#?}");
    assert!(lint.files_linted >= 50, "too few files linted");
    assert!(lint.items >= 500, "item graph too small: {}", lint.items);
    assert!(lint.edges >= 1000, "edge set too small: {}", lint.edges);
}

/// The JSON dump round-trips the load-bearing facts a consumer would key
/// on: the sink and choke nodes are present by name.
#[test]
fn json_dump_names_sinks_and_chokes() {
    let (_, g) = real_graph();
    let json = g.to_json();
    assert!(json.contains("\"container\": \"Oracle\""));
    assert!(json.contains("\"trait\": \"DistanceResolver\""));
    assert!(json.contains("\"name\": \"prim_mst\""));
    assert!(json.starts_with('{') && json.ends_with("}\n"));
}

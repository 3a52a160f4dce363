//! Table test for the verdict kernel (`prox_bounds::resolver::decide_*`):
//! the margin boundaries of every comparison the bound resolvers decide.
//!
//! Boundaries are built with the kernel's own float arithmetic (`v - ε`,
//! `v + ε`) and probed one ulp to either side, so each row pins on which
//! side of the margin a value falls and whether the comparison is strict.
//! `consistency.rs` restates the margins independently; this file pins
//! the kernel's exact edges.

use prox_bounds::resolver::{
    decide_pair, decide_sum, decide_threshold, decide_value, probe_verdict, sandwiched, Cmp,
};
use prox_bounds::DECISION_EPS as EPS;
use prox_obs::ProbeVerdict::{self, DecidedLb, DecidedUb, Inconclusive, Known};
use Cmp::{Leq, Less};

/// `(lx, ux, ly, uy, expected, label)` for the pair test.
type PairRow = (f64, f64, f64, f64, Option<bool>, &'static str);

/// The next representable value above a positive float.
fn up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next representable value below a positive float.
fn down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

#[test]
fn threshold_probes_at_the_margin_edges() {
    let v = 0.5;
    // The margin edges as the kernel computes them.
    let (lo, hi) = (v - EPS, v + EPS);
    // (lb, ub, cmp, expected verdict, label)
    let rows: [(f64, f64, Cmp, Option<bool>, &str); 16] = [
        // Upper bound exactly at v − ε: `<` needs strictly below, `≤` not.
        (0.1, lo, Less, None, "ub = v-eps, <"),
        (0.1, lo, Leq, Some(true), "ub = v-eps, <="),
        (0.1, down(lo), Less, Some(true), "ub < v-eps, <"),
        (0.1, down(lo), Leq, Some(true), "ub < v-eps, <="),
        (0.1, up(lo), Leq, None, "ub > v-eps, <="),
        // Lower bound exactly at v + ε: `<` is false at it, `≤` only above.
        (hi, 0.9, Less, Some(false), "lb = v+eps, <"),
        (hi, 0.9, Leq, None, "lb = v+eps, <="),
        (up(hi), 0.9, Leq, Some(false), "lb > v+eps, <="),
        (down(hi), 0.9, Less, None, "lb < v+eps, <"),
        // Bounds touching v itself (inside the margin) never decide.
        (0.1, v, Less, None, "ub = v, <"),
        (0.1, v, Leq, None, "ub = v, <="),
        (v, 0.9, Less, None, "lb = v, <"),
        (v, 0.9, Leq, None, "lb = v, <="),
        // Clear of the margin on either side.
        (0.1, 0.3, Less, Some(true), "below, <"),
        (0.7, 0.9, Leq, Some(false), "above, <="),
        (0.3, 0.7, Less, None, "straddles"),
    ];
    for (lb, ub, cmp, want, label) in rows {
        assert_eq!(decide_threshold(lb, ub, v, cmp), want, "{label}");
        // Off the known fast path, `decide_value` is the same test plus its
        // trace label.
        assert_eq!(
            decide_value(lb, ub, v, cmp),
            (want, probe_verdict(want)),
            "{label}"
        );
    }
}

#[test]
fn exactly_known_values_compare_without_margin() {
    let v = 0.5;
    // (d, cmp, expected, label): `lb == ub` is the oracle's own comparison.
    let rows: [(f64, Cmp, bool, &str); 6] = [
        (v, Less, false, "d = v, <"),
        (v, Leq, true, "d = v, <="),
        (down(v), Less, true, "d one ulp below v, <"),
        (up(v), Leq, false, "d one ulp above v, <="),
        (v - EPS / 2.0, Less, true, "inside the margin, <"),
        (v + EPS / 2.0, Leq, false, "inside the margin, <="),
    ];
    for (d, cmp, want, label) in rows {
        assert_eq!(decide_value(d, d, v, cmp), (Some(want), Known), "{label}");
    }
    // The margin test alone leaves those near-ties open.
    assert_eq!(
        decide_threshold(v - EPS / 2.0, v - EPS / 2.0, v, Less),
        None
    );
    assert_eq!(decide_threshold(v, v, v, Leq), None);
}

#[test]
fn pair_test_at_the_margin_edges() {
    // `ux` against `ly = 0.5`, then `lx` against `uy = 0.3`.
    let (ux, lx) = (0.5 - EPS, 0.3 + EPS);
    let rows: [PairRow; 7] = [
        (0.1, ux, 0.5, 0.9, None, "ux = ly-eps"),
        (0.1, down(ux), 0.5, 0.9, Some(true), "ux < ly-eps"),
        (0.1, 0.5, 0.5, 0.9, None, "ux = ly"),
        (lx, 0.6, 0.1, 0.3, Some(false), "lx = uy+eps"),
        (down(lx), 0.6, 0.1, 0.3, None, "lx < uy+eps"),
        (0.3, 0.6, 0.1, 0.3, None, "lx = uy"),
        (0.4, 0.4, 0.4, 0.4, None, "equal known tie"),
    ];
    for (lx, ux, ly, uy, want, label) in rows {
        assert_eq!(decide_pair(lx, ux, ly, uy), want, "{label}");
    }
}

#[test]
fn sums_whose_terms_round_stay_open() {
    // 0.1 + 0.2 rounds to 0.30000000000000004: a pair of sums that is a
    // tie in exact arithmetic must not be decided by the rounding.
    let s = 0.1 + 0.2;
    assert_ne!(s, 0.3);
    assert_eq!(decide_pair(s, s, 0.3, 0.3), None);
    assert_eq!(decide_pair(0.3, 0.3, s, s), None);
    // Ten 0.1 terms fold to 0.9999999999999999: open against 1.0.
    let ten: f64 = (0..10).map(|_| 0.1).sum();
    assert_ne!(ten, 1.0);
    assert_eq!(decide_sum(ten, ten, 1.0, 10), None);
    // The margin scales with the term count: 5ε below v decides a single
    // term but not ten.
    let near = 1.0 - 5.0 * EPS;
    assert_eq!(decide_sum(near, near, 1.0, 1), Some(true));
    assert_eq!(decide_sum(near, near, 1.0, 10), None);
    // An empty sum still carries one margin.
    assert_eq!(decide_sum(0.0, 0.0, EPS / 2.0, 0), None);
    assert_eq!(decide_sum(0.0, 0.0, 0.1, 0), Some(true));
    assert_eq!(decide_sum(0.0, 0.0, -0.1, 0), Some(false));
    // One term with the single margin is the `<` threshold test.
    for v in [0.2, 0.5 - EPS, 0.5, 0.5 + EPS, 0.8] {
        assert_eq!(
            decide_sum(0.3, 0.5, v, 1),
            decide_threshold(0.3, 0.5, v, Less),
            "v = {v}"
        );
    }
}

#[test]
fn verdicts_map_to_trace_labels() {
    let rows: [(Option<bool>, ProbeVerdict); 3] = [
        (Some(true), DecidedUb),
        (Some(false), DecidedLb),
        (None, Inconclusive),
    ];
    for (out, label) in rows {
        assert_eq!(probe_verdict(out), label);
    }
}

#[test]
fn sandwich_membership_is_margin_inclusive() {
    let (lb, ub) = (0.3, 0.6);
    assert!(sandwiched(lb - EPS, lb, ub));
    assert!(!sandwiched(down(lb - EPS), lb, ub));
    assert!(sandwiched(ub + EPS, lb, ub));
    assert!(!sandwiched(up(ub + EPS), lb, ub));
    assert!(sandwiched(0.45, lb, ub));
}

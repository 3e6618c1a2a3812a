#![warn(missing_docs)]
//! Workload families for the experiment harness (see EXPERIMENTS.md).
//!
//! Each generator returns a [`Workspace`] holding a program + database whose
//! shape realizes one regime of the paper's complexity section:
//!
//! * [`rotation`] — *benign temporal family*: one fact rotates through `k`
//!   participants; the specification grows linearly in `k`.
//! * [`binary_counter`] — *adversarial temporal family*: a `w`-bit binary
//!   counter encoded with complemented bit predicates; the least fixpoint
//!   has exactly `2^w` distinct states, witnessing the exponential lower
//!   bound of Theorem 4.2 and the PSPACE-hardness flavour of Theorem 4.1.
//! * [`subset_lists`] — *adversarial functional family*: the paper's §3.4
//!   list program over `n` constants; clusters are the subsets of elements
//!   seen, so the specification is exponential in the **database** size —
//!   the data-complexity lower bound regime.
//! * [`ring_planner`] — *benign functional family*: situation-calculus
//!   planning on an `n`-cycle; clusters grow linearly in `n`.

use fundb_parser::Workspace;
use std::fmt::Write as _;

pub mod scenariogen;

/// Times two arms as interleaved pairs and returns the pair with the
/// median relative delta `(b - a) / a`, as `(a_ms, b_ms)`. One untimed
/// warm-up per arm first (first-touch pages and allocator arenas dominate
/// the first run and would otherwise land on whichever arm goes first),
/// then 21 `(a, b)` pairs. The two runs of a pair are adjacent in time, so
/// slow frequency drift cancels inside each pair, and the median rejects
/// the scheduler outliers a min-of estimator chases. Each arm returns its
/// own wall time in milliseconds.
pub fn median_pair(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    a();
    b();
    let mut pairs: Vec<(f64, f64)> = (0..21).map(|_| (a(), b())).collect();
    pairs.sort_by(|x, y| {
        let dx = (x.1 - x.0) / x.0.max(1e-9);
        let dy = (y.1 - y.0) / y.0.max(1e-9);
        dx.partial_cmp(&dy).unwrap()
    });
    pairs[pairs.len() / 2]
}

/// One fact rotating through `k` participants (`Meets` with `k` students):
/// period-`k` temporal program, linear-size specification.
pub fn rotation(k: usize) -> Workspace {
    assert!(k >= 2);
    let mut src = String::from("Meets(t, x), Next(x, y) -> Meets(t+1, y).\nMeets(0, S0).\n");
    for i in 0..k {
        writeln!(src, "Next(S{i}, S{}).", (i + 1) % k).unwrap();
    }
    let mut ws = Workspace::new();
    ws.parse(&src).expect("rotation program is well-formed");
    ws
}

/// A `w`-bit binary counter over time: bit `i` flips exactly when bits
/// `0..i` are all set, giving `2^w` distinct time-point states and a lasso
/// of period `2^w`.
pub fn binary_counter(w: usize) -> Workspace {
    assert!(w >= 1);
    let mut src = String::new();
    // Bit 0 toggles every step.
    src.push_str("B0(t) -> N0(t+1).\nN0(t) -> B0(t+1).\n");
    for i in 1..w {
        // Flip when all lower bits are set.
        let all_low: Vec<String> = (0..i).map(|j| format!("B{j}(t)")).collect();
        let low = all_low.join(", ");
        writeln!(src, "{low}, B{i}(t) -> N{i}(t+1).").unwrap();
        writeln!(src, "{low}, N{i}(t) -> B{i}(t+1).").unwrap();
        // Hold when some lower bit is clear.
        for j in 0..i {
            writeln!(src, "N{j}(t), B{i}(t) -> B{i}(t+1).").unwrap();
            writeln!(src, "N{j}(t), N{i}(t) -> N{i}(t+1).").unwrap();
        }
    }
    // Initial state: all bits clear.
    for i in 0..w {
        writeln!(src, "N{i}(0).").unwrap();
    }
    let mut ws = Workspace::new();
    ws.parse(&src).expect("counter program is well-formed");
    ws
}

/// The §3.4 list-membership program over `n` constants: the congruence
/// classes are the non-empty element subsets (plus the shallow terms), so
/// the specification size is `Θ(2^n)` — exponential in the database.
pub fn subset_lists(n: usize) -> Workspace {
    assert!(n >= 1);
    let mut src = String::from(
        "P(x) -> Member(ext(0, x), x).
         P(y), Member(s, x) -> Member(ext(s, y), y).
         P(y), Member(s, x) -> Member(ext(s, y), x).\n",
    );
    for i in 0..n {
        writeln!(src, "P(E{i}).").unwrap();
    }
    let mut ws = Workspace::new();
    ws.parse(&src).expect("lists program is well-formed");
    ws
}

/// Situation-calculus planning on an `n`-cycle of positions: linear-size
/// specification (one cluster per reachable position plus the stuck
/// cluster).
pub fn ring_planner(n: usize) -> Workspace {
    assert!(n >= 2);
    let mut src =
        String::from("At(s, p1), Connected(p1, p2) -> At(move(s, p1, p2), p2).\nAt(0, P0).\n");
    for i in 0..n {
        writeln!(src, "Connected(P{i}, P{}).", (i + 1) % n).unwrap();
    }
    let mut ws = Workspace::new();
    ws.parse(&src).expect("planner program is well-formed");
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_temporal::TemporalSpec;

    #[test]
    fn rotation_period_is_k() {
        for k in [2usize, 3, 5] {
            let mut ws = rotation(k);
            let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            assert_eq!(spec.lambda(), k, "rotation({k})");
        }
    }

    #[test]
    fn counter_period_is_two_to_the_w() {
        for w in [1usize, 2, 3, 4] {
            let mut ws = binary_counter(w);
            let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
            assert_eq!(spec.lambda(), 1 << w, "binary_counter({w})");
        }
    }

    #[test]
    fn counter_counts() {
        let mut ws = binary_counter(3);
        let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner).unwrap();
        for t in 0..32u64 {
            for bit in 0..3usize {
                let pred = fundb_term::Pred(ws.interner.get(&format!("B{bit}")).unwrap());
                let expected = (t >> bit) & 1 == 1;
                assert_eq!(spec.holds(pred, t, &[]), expected, "bit {bit} at {t}");
            }
        }
    }

    #[test]
    fn subset_lists_clusters_are_exponential() {
        // Clusters after minimization: the 2^n - 1 non-empty subsets + root.
        for n in [1usize, 2, 3] {
            let mut ws = subset_lists(n);
            let spec = ws.graph_spec().unwrap().minimized();
            assert_eq!(spec.cluster_count(), (1 << n) - 1 + 1, "subset_lists({n})");
        }
    }

    #[test]
    fn ring_planner_clusters_are_linear() {
        for n in [2usize, 4, 6] {
            let mut ws = ring_planner(n);
            let spec = ws.graph_spec().unwrap().minimized();
            // One cluster per position + the root + the stuck cluster.
            assert!(
                spec.cluster_count() <= n + 2,
                "ring_planner({n}) gave {}",
                spec.cluster_count()
            );
        }
    }
}

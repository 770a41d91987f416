//! Leaf count of the canonical search, read from the `canon.leaves` counter.
//!
//! The metrics registry is process-global, so this file holds a single test:
//! no other canonicalization can run concurrently and inflate the count.

use contrarc_graph::{canonical_form, DiGraph};
use contrarc_obs::metrics::with_metrics;

#[test]
fn canon_leaves_of_identical_parallel_lines_stay_quadratic() {
    // k identical s -> a -> b -> t lines between a shared source and sink.
    // Every line permutation is an automorphism, so visiting every leaf of
    // the search tree would take k! = 40,320 leaves.
    let k = 8;
    let mut g: DiGraph<&str, ()> = DiGraph::new();
    let s = g.add_node("s");
    let t = g.add_node("t");
    for _ in 0..k {
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(s, a, ());
        g.add_edge(a, b, ());
        g.add_edge(b, t, ());
    }
    let (_, report) = with_metrics(|| canonical_form(&g, |l| l.as_bytes().to_vec()));
    let leaves = report.counter("canon.leaves").expect("leaves are counted");
    assert!(
        leaves <= (k * k) as u64,
        "{leaves} leaves visited for {k} identical lines"
    );
}

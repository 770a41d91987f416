//! Label-aware canonical forms for directed graphs.
//!
//! [`canonical_form`] computes a byte string that is *identical* for two
//! labeled digraphs if and only if they are isomorphic (respecting node
//! labels and edge directions; edge weights are ignored). ContrArc uses it to
//! key the refinement-verdict cache: isomorphic sub-architectures induce
//! identical refinement check models, so a verdict computed for one candidate
//! can be reused for every relabeling of it — see the `RefinementCache` in
//! `contrarc-core`.
//!
//! The algorithm is classic individualization–refinement:
//!
//! 1. color nodes by their label bytes;
//! 2. refine with Weisfeiler–Leman sweeps (a node's new color is its old
//!    color plus the multisets of its in- and out-neighbor colors) until the
//!    partition stabilizes;
//! 3. if cells remain with two or more nodes, individualize each member of
//!    the lowest-colored such cell in turn and recurse;
//! 4. every branch ends in a discrete coloring, i.e. a candidate canonical
//!    ordering; the lexicographically smallest encoding over all branches is
//!    the canonical form.
//!
//! Both the target-cell choice (lowest non-singleton color) and the final
//! minimum are invariant under relabeling, which is what makes the output
//! canonical.
//!
//! The search tree has at least |Aut(G)| leaves: `k` identical parallel lines
//! alone give `k!`. One recursion serves both [`canonical_form`] and
//! [`automorphisms`], and it prunes the tree with the automorphisms it finds,
//! by first-path backjumping in the manner of nauty (McKay & Piperno,
//! *Practical Graph Isomorphism II*, 2014):
//!
//! * **Top-positions invariant.** `refine` ranks by old color first, and an
//!   individualized node gets a fresh color above every rank. So at a
//!   discrete leaf of depth `d`, the individualized nodes `v1, …, vd` hold
//!   positions `n−d, …, n−1`, in individualization order.
//! * **Backjump rule.** The first leaf per encoding is stored with its
//!   individualization path. When a later leaf *of the same depth* has the
//!   same encoding, the position-matching map γ between them is an
//!   automorphism. By the invariant, γ fixes the two paths' common prefix
//!   and maps the current branch, at the level where the paths diverge, onto
//!   the stored leaf's branch, which is already finished. Every leaf left in
//!   the current branch is then a γ-image of a visited leaf: its encoding is
//!   already stored, and its permutation merges no new orbit pair. The
//!   search abandons the branch at that level. Leaves of unequal depth are
//!   recorded without a jump.
//!
//! The pruned search therefore yields exactly what visiting every leaf
//! would: the same minimum encoding, the same generators in the same order,
//! and the same orbits. `k` identical lines take `1 + k(k−1)/2` leaves
//! instead of `k!`. The `canon.leaves` counter reports the leaves visited.

use crate::digraph::DiGraph;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The canonical encoding of a labeled digraph. Two graphs have equal forms
/// exactly when they are isomorphic with matching labels; the byte string is
/// therefore directly usable as a hash-map key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm(Vec<u8>);

impl CanonicalForm {
    /// The encoding bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consume the form, yielding the encoding bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Compute the canonical form of `graph` under the node labeling `label`
/// (each node's label rendered as bytes; labels take part in the isomorphism,
/// edge weights do not).
#[must_use]
pub fn canonical_form<N, E, F>(graph: &DiGraph<N, E>, label: F) -> CanonicalForm
where
    F: Fn(&N) -> Vec<u8>,
{
    let search = LeafSearch::run(graph, label);
    CanonicalForm(
        search
            .first
            .into_keys()
            .min()
            .expect("every branch reaches a discrete coloring"),
    )
}

/// The automorphism structure of a labeled digraph: a generating set of
/// label-preserving permutations plus the node-orbit partition they induce.
///
/// Produced by [`automorphisms`] from the same individualization–refinement
/// search that [`canonical_form`] runs. Two discrete colorings of the *same*
/// graph with equal encodings differ by an automorphism (map each node to the
/// node occupying its canonical position in the other coloring). Every leaf
/// the search skips is the image of a visited leaf under such an
/// automorphism, so the union-find closure over the permutations found at
/// the visited leaves yields the exact orbit partition of `Aut(G)`.
///
/// The stored generators may generate a proper subgroup of `Aut(G)` —
/// permutations that merge no new orbit pair are discarded — but the orbit
/// partition of that subgroup is identical to the full group's, which is the
/// invariant orbit-pruned matching relies on (see `contrarc-graph::iso`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphisms {
    n: usize,
    generators: Vec<Vec<usize>>,
    orbit_rep: Vec<usize>,
}

impl Automorphisms {
    /// The trivial (identity-only) group on `n` nodes.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Automorphisms {
            n,
            generators: Vec::new(),
            orbit_rep: (0..n).collect(),
        }
    }

    /// Number of nodes of the graph this group acts on.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Generating permutations (`g[v]` is the image of node index `v`).
    /// Empty exactly when the group is trivial.
    #[must_use]
    pub fn generators(&self) -> &[Vec<usize>] {
        &self.generators
    }

    /// The minimum node index in `v`'s orbit (the orbit representative).
    #[must_use]
    pub fn orbit_rep(&self, v: usize) -> usize {
        self.orbit_rep[v]
    }

    /// Number of orbits of the partition.
    #[must_use]
    pub fn num_orbits(&self) -> usize {
        self.orbit_rep
            .iter()
            .enumerate()
            .filter(|&(v, &r)| v == r)
            .count()
    }

    /// Whether the group is trivial (every orbit is a singleton).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.generators.is_empty()
    }

    /// All orbits, each sorted ascending, ordered by their representative.
    #[must_use]
    pub fn orbits(&self) -> Vec<Vec<usize>> {
        let mut by_rep: HashMap<usize, Vec<usize>> = HashMap::new();
        for v in 0..self.n {
            by_rep.entry(self.orbit_rep[v]).or_default().push(v);
        }
        let mut out: Vec<Vec<usize>> = by_rep.into_values().collect();
        out.sort();
        out
    }
}

/// Compute the automorphism structure of `graph` under the node labeling
/// `label` (same labeling contract as [`canonical_form`]: labels take part in
/// the isomorphism, edge weights do not). Runs the same pruned
/// individualization–refinement search, so the cost is one canonicalization.
#[must_use]
pub fn automorphisms<N, E, F>(graph: &DiGraph<N, E>, label: F) -> Automorphisms
where
    F: Fn(&N) -> Vec<u8>,
{
    let n = graph.num_nodes();
    if n == 0 {
        return Automorphisms::identity(0);
    }
    let mut search = LeafSearch::run(graph, label);
    Automorphisms {
        n,
        generators: search.generators,
        orbit_rep: orbit_reps(&mut search.uf),
    }
}

/// The one individualization–refinement search behind [`canonical_form`]
/// and [`automorphisms`], pruned by the backjump rule in the module docs.
///
/// It stores the first discrete leaf per encoding with its individualization
/// path, union-finds the automorphism each repeated encoding reveals, and
/// keeps that permutation as a generator only when it merged at least one
/// new pair. Dropping the rest shrinks the generated group without changing
/// its orbits, since a permutation that merges nothing maps every node
/// within its existing orbit.
struct LeafSearch {
    labels: Vec<Vec<u8>>,
    adj_out: Vec<Vec<usize>>,
    adj_in: Vec<Vec<usize>>,
    /// First leaf per encoding: its coloring and its individualization path.
    first: HashMap<Vec<u8>, (Vec<usize>, Vec<usize>)>,
    generators: Vec<Vec<usize>>,
    uf: Vec<usize>,
    leaves: u64,
}

impl LeafSearch {
    /// Run the search on `graph` and count its leaves in `canon.leaves`.
    fn run<N, E, F>(graph: &DiGraph<N, E>, label: F) -> Self
    where
        F: Fn(&N) -> Vec<u8>,
    {
        let (mut search, colors) = LeafSearch::new(graph, label);
        search.descend(&colors, &mut Vec::new());
        contrarc_obs::metrics::counter_add("canon.leaves", search.leaves);
        search
    }

    /// An empty search over `graph`, with the refined initial coloring
    /// (nodes colored by the rank of their label bytes) it starts from.
    fn new<N, E, F>(graph: &DiGraph<N, E>, label: F) -> (Self, Vec<usize>)
    where
        F: Fn(&N) -> Vec<u8>,
    {
        let n = graph.num_nodes();
        let labels: Vec<Vec<u8>> = graph.nodes().map(|(_, w)| label(w)).collect();
        let mut adj_out: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut adj_in: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in graph.edges() {
            adj_out[e.src.index()].push(e.dst.index());
            adj_in[e.dst.index()].push(e.src.index());
        }
        let mut uniq: Vec<&Vec<u8>> = labels.iter().collect();
        uniq.sort();
        uniq.dedup();
        let mut colors: Vec<usize> = labels
            .iter()
            .map(|l| uniq.binary_search(&l).expect("label is present"))
            .collect();
        refine(&mut colors, &adj_out, &adj_in);
        let search = LeafSearch {
            labels,
            adj_out,
            adj_in,
            first: HashMap::new(),
            generators: Vec::new(),
            uf: (0..n).collect(),
            leaves: 0,
        };
        (search, colors)
    }

    /// Search below `colors`, reached by individualizing `path` in order.
    /// Returns `Some(level)` to abandon every branch below depth `level`:
    /// the frame at that depth resumes with its next child.
    fn descend(&mut self, colors: &[usize], path: &mut Vec<usize>) -> Option<usize> {
        let Some(cell) = first_non_singleton(colors) else {
            return self.leaf(colors, path);
        };
        let depth = path.len();
        for v in (0..colors.len()).filter(|&v| colors[v] == cell) {
            let mut split = colors.to_vec();
            // A fresh color beyond every rank: the next refine pass
            // renormalizes it to the top rank, keeping v separated from its
            // cell.
            split[v] = colors.len();
            refine(&mut split, &self.adj_out, &self.adj_in);
            path.push(v);
            let jump = self.descend(&split, path);
            path.pop();
            if let Some(level) = jump.filter(|&level| level < depth) {
                return Some(level);
            }
        }
        None
    }

    /// Record a discrete leaf; returns the backjump level, if any.
    fn leaf(&mut self, colors: &[usize], path: &[usize]) -> Option<usize> {
        self.leaves += 1;
        let enc = encode(colors, &self.labels, &self.adj_out);
        let (c0, path0) = match self.first.entry(enc) {
            Entry::Vacant(e) => {
                e.insert((colors.to_vec(), path.to_vec()));
                return None;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        // Equal encodings: node `v` of this coloring plays the same canonical
        // position as node `node_at0[colors[v]]` of the stored one, and that
        // position-matching map is an automorphism (labels and the
        // position-space edge multiset agree byte for byte).
        let mut node_at0 = vec![0usize; colors.len()];
        for (v, &c) in c0.iter().enumerate() {
            node_at0[c] = v;
        }
        let perm: Vec<usize> = colors.iter().map(|&c| node_at0[c]).collect();
        if uf_union_all(&mut self.uf, &perm) {
            self.generators.push(perm);
        }
        if path0.len() != path.len() {
            return None;
        }
        Some(
            path.iter()
                .zip(path0.iter())
                .position(|(a, b)| a != b)
                .expect("distinct leaves of equal depth have distinct paths"),
        )
    }
}

/// Union every pair `(v, perm[v])`; true when at least one pair joined two
/// classes.
fn uf_union_all(uf: &mut [usize], perm: &[usize]) -> bool {
    let mut novel = false;
    for (v, &pv) in perm.iter().enumerate() {
        let a = uf_find(uf, v);
        let b = uf_find(uf, pv);
        if a != b {
            uf[a.max(b)] = a.min(b);
            novel = true;
        }
    }
    novel
}

/// Each node's orbit representative: the minimum index in its class.
fn orbit_reps(uf: &mut [usize]) -> Vec<usize> {
    let n = uf.len();
    let mut min_of = vec![usize::MAX; n];
    for v in 0..n {
        let r = uf_find(uf, v);
        min_of[r] = min_of[r].min(v);
    }
    (0..n).map(|v| min_of[uf_find(uf, v)]).collect()
}

fn uf_find(uf: &mut [usize], v: usize) -> usize {
    let mut r = v;
    while uf[r] != r {
        r = uf[r];
    }
    let mut c = v;
    while uf[c] != r {
        let next = uf[c];
        uf[c] = r;
        c = next;
    }
    r
}

/// Weisfeiler–Leman color refinement: repeatedly re-rank nodes by
/// `(color, sorted out-neighbor colors, sorted in-neighbor colors)` until the
/// partition is stable. Ranking sorts by the old color first, so refinement
/// only ever splits cells.
fn refine(colors: &mut Vec<usize>, adj_out: &[Vec<usize>], adj_in: &[Vec<usize>]) {
    let n = colors.len();
    loop {
        let keys: Vec<(usize, Vec<usize>, Vec<usize>)> = (0..n)
            .map(|v| {
                let mut out: Vec<usize> = adj_out[v].iter().map(|&u| colors[u]).collect();
                out.sort_unstable();
                let mut inc: Vec<usize> = adj_in[v].iter().map(|&u| colors[u]).collect();
                inc.sort_unstable();
                (colors[v], out, inc)
            })
            .collect();
        let mut uniq: Vec<&(usize, Vec<usize>, Vec<usize>)> = keys.iter().collect();
        uniq.sort();
        uniq.dedup();
        let new: Vec<usize> = keys
            .iter()
            .map(|k| uniq.binary_search(&k).expect("key is present"))
            .collect();
        if new == *colors {
            return;
        }
        *colors = new;
    }
}

/// The lowest color shared by two or more nodes, if any.
fn first_non_singleton(colors: &[usize]) -> Option<usize> {
    let n = colors.len();
    let mut count = vec![0usize; n];
    for &c in colors {
        count[c] += 1;
    }
    (0..n).find(|&c| count[c] >= 2)
}

/// Encode a graph under a discrete coloring (node at canonical position `p`
/// is the one with color `p`): node count, per-position length-prefixed label
/// bytes, then the sorted edge list in position space.
fn encode(colors: &[usize], labels: &[Vec<u8>], adj_out: &[Vec<usize>]) -> Vec<u8> {
    let n = colors.len();
    let mut node_at = vec![0usize; n];
    for (v, &c) in colors.iter().enumerate() {
        node_at[c] = v;
    }
    let mut out = Vec::new();
    push_u32(&mut out, u32::try_from(n).expect("graph fits in u32"));
    for &v in &node_at {
        let l = &labels[v];
        push_u32(&mut out, u32::try_from(l.len()).expect("label fits in u32"));
        out.extend_from_slice(l);
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (v, dsts) in adj_out.iter().enumerate() {
        for &u in dsts {
            edges.push((colors[v] as u32, colors[u] as u32));
        }
    }
    edges.sort_unstable();
    push_u32(
        &mut out,
        u32::try_from(edges.len()).expect("edges fit in u32"),
    );
    for (a, b) in edges {
        push_u32(&mut out, a);
        push_u32(&mut out, b);
    }
    out
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a labeled digraph from node labels and index edges.
    fn graph(labels: &[&str], edges: &[(usize, usize)]) -> DiGraph<String, ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = labels
            .iter()
            .map(|l| g.add_node((*l).to_string()))
            .collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }

    fn form(g: &DiGraph<String, ()>) -> CanonicalForm {
        canonical_form(g, |l| l.clone().into_bytes())
    }

    #[test]
    fn permuted_graphs_have_equal_forms() {
        // s -> m -> t, built in three different node orders.
        let a = graph(&["s", "m", "t"], &[(0, 1), (1, 2)]);
        let b = graph(&["t", "s", "m"], &[(1, 2), (2, 0)]);
        let c = graph(&["m", "t", "s"], &[(2, 0), (0, 1)]);
        assert_eq!(form(&a), form(&b));
        assert_eq!(form(&a), form(&c));
    }

    #[test]
    fn labels_distinguish() {
        let a = graph(&["s", "m"], &[(0, 1)]);
        let b = graph(&["s", "x"], &[(0, 1)]);
        assert_ne!(form(&a), form(&b));
    }

    #[test]
    fn direction_distinguishes() {
        let a = graph(&["s", "m"], &[(0, 1)]);
        let b = graph(&["s", "m"], &[(1, 0)]);
        assert_ne!(form(&a), form(&b));
    }

    #[test]
    fn structure_distinguishes() {
        let path = graph(&["a", "a", "a"], &[(0, 1), (1, 2)]);
        let cycle = graph(&["a", "a", "a"], &[(0, 1), (1, 2), (2, 0)]);
        assert_ne!(form(&path), form(&cycle));
    }

    #[test]
    fn symmetric_graphs_need_individualization() {
        // A directed 4-cycle of identical labels has no WL-distinguishable
        // nodes; the canonical form must still be rotation-invariant.
        let base = graph(&["a"; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for rot in 1..4 {
            let edges: Vec<(usize, usize)> =
                (0..4).map(|i| ((i + rot) % 4, (i + rot + 1) % 4)).collect();
            let rotated = graph(&["a"; 4], &edges);
            assert_eq!(form(&base), form(&rotated), "rotation {rot}");
        }
        // ... and differ from two disjoint 2-cycles (same degrees/labels).
        let split = graph(&["a"; 4], &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_ne!(form(&base), form(&split));
    }

    #[test]
    fn parallel_edges_are_counted() {
        let single = graph(&["a", "b"], &[(0, 1)]);
        let double = graph(&["a", "b"], &[(0, 1), (0, 1)]);
        assert_ne!(form(&single), form(&double));
    }

    #[test]
    fn empty_graph_has_a_form() {
        let g: DiGraph<String, ()> = DiGraph::new();
        let f = canonical_form(&g, |l| l.clone().into_bytes());
        // Node count 0, edge count 0.
        assert_eq!(f.as_bytes(), [0u8; 8]);
    }

    #[test]
    fn random_permutations_agree() {
        // A mid-size graph with repeated labels, canonicalized under many
        // node permutations.
        let labels = ["s", "f", "f", "g", "g", "t", "f"];
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (2, 6),
            (6, 4),
        ];
        let reference = form(&graph(&labels, &edges));
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for trial in 0..20 {
            assert_eq!(
                reference,
                form(&shuffled(&mut rng, &labels, &edges)),
                "permutation trial {trial}"
            );
        }
    }

    /// Orbit partition by brute force: union-find over every label- and
    /// edge-preserving permutation of the node set.
    fn brute_force_orbits(g: &DiGraph<String, ()>) -> Vec<usize> {
        let n = g.num_nodes();
        let labels: Vec<String> = g.nodes().map(|(_, w)| w.clone()).collect();
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        edges.sort_unstable();
        let mut uf: Vec<usize> = (0..n).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        permute_all(&mut perm, 0, &mut |p: &[usize]| {
            if (0..n).any(|v| labels[p[v]] != labels[v]) {
                return;
            }
            let mut mapped: Vec<(usize, usize)> =
                edges.iter().map(|&(a, b)| (p[a], p[b])).collect();
            mapped.sort_unstable();
            if mapped != edges {
                return;
            }
            for (v, &pv) in p.iter().enumerate() {
                let a = uf_find(&mut uf, v);
                let b = uf_find(&mut uf, pv);
                if a != b {
                    uf[a.max(b)] = a.min(b);
                }
            }
        });
        let reps: Vec<usize> = (0..n).map(|v| uf_find(&mut uf, v)).collect();
        // Normalize: representative = minimum member.
        let mut min_of = vec![usize::MAX; n];
        for (v, &r) in reps.iter().enumerate() {
            min_of[r] = min_of[r].min(v);
        }
        reps.iter().map(|&r| min_of[r]).collect()
    }

    fn permute_all(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == perm.len() {
            f(perm);
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            permute_all(perm, k + 1, f);
            perm.swap(k, i);
        }
    }

    fn aut(g: &DiGraph<String, ()>) -> Automorphisms {
        automorphisms(g, |l| l.clone().into_bytes())
    }

    #[test]
    fn orbits_match_brute_force_on_small_digraphs() {
        let cases: Vec<DiGraph<String, ()>> = vec![
            // Two identical parallel lines sharing nothing.
            graph(&["s", "m", "s", "m"], &[(0, 1), (2, 3)]),
            // Directed 4-cycle of identical labels: one orbit, cyclic group.
            graph(&["a"; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            // Fan: hub feeding three identical spokes.
            graph(&["h", "s", "s", "s"], &[(0, 1), (0, 2), (0, 3)]),
            // Labels break the symmetry of a 4-cycle.
            graph(&["a", "b", "a", "b"], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            // Asymmetric path: trivial group.
            graph(&["x", "y", "z"], &[(0, 1), (1, 2)]),
            // Diamond with interchangeable middles plus a parallel edge.
            graph(
                &["s", "m", "m", "t"],
                &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 1)],
            ),
            // Two 2-cycles of identical labels (orbit of all four nodes).
            graph(&["a"; 4], &[(0, 1), (1, 0), (2, 3), (3, 2)]),
            // Six nodes: two identical triangles.
            graph(&["a"; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ];
        for (i, g) in cases.iter().enumerate() {
            let expect = brute_force_orbits(g);
            let got = aut(g);
            let got_reps: Vec<usize> = (0..g.num_nodes()).map(|v| got.orbit_rep(v)).collect();
            assert_eq!(got_reps, expect, "case {i}");
        }
    }

    #[test]
    fn generators_are_valid_automorphisms() {
        let g = graph(&["a"; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let a = aut(&g);
        assert!(!a.is_trivial());
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        edges.sort_unstable();
        for p in a.generators() {
            let mut mapped: Vec<(usize, usize)> =
                edges.iter().map(|&(s, d)| (p[s], p[d])).collect();
            mapped.sort_unstable();
            assert_eq!(mapped, edges, "generator {p:?} must preserve edges");
        }
    }

    #[test]
    fn trivial_group_on_distinct_labels() {
        let g = graph(&["x", "y", "z"], &[(0, 1), (1, 2)]);
        let a = aut(&g);
        assert!(a.is_trivial());
        assert_eq!(a.num_orbits(), 3);
        assert_eq!(a.orbits(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn parallel_lines_form_pairwise_orbits() {
        // Two identical s -> m lines: {s0, s2} and {m1, m3} orbits.
        let g = graph(&["s", "m", "s", "m"], &[(0, 1), (2, 3)]);
        let a = aut(&g);
        assert_eq!(a.num_orbits(), 2);
        assert_eq!(a.orbits(), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(a.orbit_rep(2), 0);
        assert_eq!(a.orbit_rep(3), 1);
    }

    #[test]
    fn empty_graph_automorphisms() {
        let g: DiGraph<String, ()> = DiGraph::new();
        let a = automorphisms(&g, |l| l.clone().into_bytes());
        assert!(a.is_trivial());
        assert_eq!(a.num_orbits(), 0);
        assert_eq!(a.num_nodes(), 0);
    }

    #[test]
    fn identity_group_accessors() {
        let a = Automorphisms::identity(3);
        assert!(a.is_trivial());
        assert_eq!(a.num_nodes(), 3);
        assert_eq!(a.num_orbits(), 3);
        assert_eq!(a.orbit_rep(2), 2);
        assert!(a.generators().is_empty());
    }

    /// The exhaustive recursions the pruned search replaced. They visit
    /// every discrete leaf, and serve as the oracle the pruned search must
    /// match byte for byte.
    mod oracle {
        use super::super::*;

        pub(super) fn canonical_form(g: &DiGraph<String, ()>) -> CanonicalForm {
            let (s, colors) = LeafSearch::new(g, |l| l.clone().into_bytes());
            let mut best: Option<Vec<u8>> = None;
            search(&colors, &s.labels, &s.adj_out, &s.adj_in, &mut best);
            CanonicalForm(best.expect("every branch reaches a discrete coloring"))
        }

        pub(super) fn automorphisms(g: &DiGraph<String, ()>) -> Automorphisms {
            let n = g.num_nodes();
            if n == 0 {
                return Automorphisms::identity(0);
            }
            let (s, colors) = LeafSearch::new(g, |l| l.clone().into_bytes());
            let mut collect = AutCollect {
                first: HashMap::new(),
                generators: Vec::new(),
                uf: (0..n).collect(),
            };
            search_aut(&colors, &s.labels, &s.adj_out, &s.adj_in, &mut collect);
            Automorphisms {
                n,
                generators: collect.generators,
                orbit_rep: orbit_reps(&mut collect.uf),
            }
        }

        /// First coloring per encoding, orbit union-find and kept generators.
        struct AutCollect {
            first: HashMap<Vec<u8>, Vec<usize>>,
            generators: Vec<Vec<usize>>,
            uf: Vec<usize>,
        }

        impl AutCollect {
            fn leaf(&mut self, colors: &[usize], labels: &[Vec<u8>], adj_out: &[Vec<usize>]) {
                let enc = encode(colors, labels, adj_out);
                match self.first.entry(enc) {
                    Entry::Vacant(e) => {
                        e.insert(colors.to_vec());
                    }
                    Entry::Occupied(e) => {
                        let c0 = e.get();
                        let mut node_at0 = vec![0usize; colors.len()];
                        for (v, &c) in c0.iter().enumerate() {
                            node_at0[c] = v;
                        }
                        let perm: Vec<usize> = colors.iter().map(|&c| node_at0[c]).collect();
                        if uf_union_all(&mut self.uf, &perm) {
                            self.generators.push(perm);
                        }
                    }
                }
            }
        }

        fn search_aut(
            colors: &[usize],
            labels: &[Vec<u8>],
            adj_out: &[Vec<usize>],
            adj_in: &[Vec<usize>],
            collect: &mut AutCollect,
        ) {
            match first_non_singleton(colors) {
                None => collect.leaf(colors, labels, adj_out),
                Some(cell) => {
                    for v in (0..colors.len()).filter(|&v| colors[v] == cell) {
                        let mut split = colors.to_vec();
                        split[v] = colors.len();
                        refine(&mut split, adj_out, adj_in);
                        search_aut(&split, labels, adj_out, adj_in, collect);
                    }
                }
            }
        }

        fn search(
            colors: &[usize],
            labels: &[Vec<u8>],
            adj_out: &[Vec<usize>],
            adj_in: &[Vec<usize>],
            best: &mut Option<Vec<u8>>,
        ) {
            match first_non_singleton(colors) {
                None => {
                    let enc = encode(colors, labels, adj_out);
                    if best.as_ref().is_none_or(|b| enc < *b) {
                        *best = Some(enc);
                    }
                }
                Some(cell) => {
                    for v in (0..colors.len()).filter(|&v| colors[v] == cell) {
                        let mut split = colors.to_vec();
                        split[v] = colors.len();
                        refine(&mut split, adj_out, adj_in);
                        search(&split, labels, adj_out, adj_in, best);
                    }
                }
            }
        }
    }

    /// A seeded xorshift stream (no external RNG).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// `labels`/`edges` with node ids shuffled, so symmetric families do not
    /// reach the search in their construction order.
    fn shuffled(rng: &mut Rng, labels: &[&str], edges: &[(usize, usize)]) -> DiGraph<String, ()> {
        // Fisher–Yates.
        let mut perm: Vec<usize> = (0..labels.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut plabels = vec![""; labels.len()];
        for (i, &p) in perm.iter().enumerate() {
            plabels[p] = labels[i];
        }
        let pedges: Vec<(usize, usize)> = edges.iter().map(|&(a, b)| (perm[a], perm[b])).collect();
        graph(&plabels, &pedges)
    }

    /// One graph of at most 8 nodes from `family` (0..4): a random labeled
    /// digraph, copies of a random piece, parallel lines between a shared
    /// source and sink, or a directed cycle. Sizes keep the exhaustive
    /// oracle near a few hundred leaves per graph.
    fn family_graph(rng: &mut Rng, family: usize) -> DiGraph<String, ()> {
        let alphabet = ["a", "b", "c"];
        let mut labels: Vec<&str> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        match family {
            0 => {
                let n = 1 + rng.below(8);
                let k = 1 + rng.below(3);
                labels = (0..n).map(|_| alphabet[rng.below(k)]).collect();
                let density = 1 + rng.below(4);
                for a in 0..n {
                    for b in 0..n {
                        if rng.below(8) < density {
                            edges.push((a, b));
                        }
                    }
                }
            }
            1 => {
                let piece = 1 + rng.below(4);
                let copies = 2 + rng.below((8 / piece).min(5) - 1);
                let plabels: Vec<&str> = (0..piece).map(|_| alphabet[rng.below(2)]).collect();
                let mut pedges = Vec::new();
                for a in 0..piece {
                    for b in 0..piece {
                        if rng.below(3) == 0 {
                            pedges.push((a, b));
                        }
                    }
                }
                for c in 0..copies {
                    labels.extend(&plabels);
                    edges.extend(pedges.iter().map(|&(a, b)| (c * piece + a, c * piece + b)));
                }
            }
            2 => {
                let lines = 2 + rng.below(4);
                let len = 1 + rng.below(6 / lines);
                labels.push("s");
                labels.push("t");
                for _ in 0..lines {
                    let mut prev = 0;
                    for _ in 0..len {
                        labels.push("m");
                        edges.push((prev, labels.len() - 1));
                        prev = labels.len() - 1;
                    }
                    edges.push((prev, 1));
                }
            }
            _ => {
                let n = 1 + rng.below(8);
                labels = vec!["a"; n];
                edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
            }
        }
        shuffled(rng, &labels, &edges)
    }

    /// The complete digraph on `n` identically labeled nodes.
    fn complete(n: usize) -> DiGraph<String, ()> {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .collect();
        graph(&vec!["a"; n], &edges)
    }

    #[test]
    fn pruned_search_matches_exhaustive_oracle() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let random = (0..600).map(|trial| family_graph(&mut rng, trial % 4));
        for (i, g) in random.chain((1..=7).map(complete)).enumerate() {
            assert_eq!(form(&g), oracle::canonical_form(&g), "graph {i}: form");
            assert_eq!(aut(&g), oracle::automorphisms(&g), "graph {i}: group");
        }
    }

    #[test]
    fn form_is_usable_as_map_key() {
        use std::collections::HashMap;
        let mut cache: HashMap<CanonicalForm, bool> = HashMap::new();
        let a = graph(&["s", "m"], &[(0, 1)]);
        let b = graph(&["m", "s"], &[(1, 0)]); // isomorphic relabeling
        cache.insert(form(&a), true);
        assert_eq!(cache.get(&form(&b)), Some(&true));
    }
}

//! Sparse LU factorization of a simplex basis with product-form eta updates.
//!
//! The revised simplex never forms `B⁻¹` explicitly. Instead it keeps
//!
//! * an [`LuFactors`] — a left-looking sparse LU of the basis matrix, built
//!   with partial pivoting over a **canonical column order** (ascending
//!   column nonzero count, ties by column index), so the factorization is a
//!   pure function of the *set* of basic columns, never of the pivot history
//!   that produced it; and
//! * an eta file — one [`Eta`] per simplex pivot since the last
//!   refactorization, representing the basis change `B ← B·E` in product
//!   form.
//!
//! FTRAN (`Bx = b`) runs the LU solve then applies etas oldest-first; BTRAN
//! (`Bᵀy = c`) applies etas newest-first then runs the transposed LU solve.
//! The eta file is periodically collapsed into a fresh factorization
//! (refactorization), which both bounds solve cost and washes out
//! accumulated floating-point drift.
//!
//! # Cost model
//!
//! Simplex bases are mostly slacks, and their factors stay very sparse, so
//! every kernel is written to cost what its nonzeros cost:
//!
//! * [`LuFactors::build`] scatters each column into a dense work vector
//!   and tracks its nonzero pattern. It applies only the earlier
//!   elimination steps whose pivot row is in that pattern (fill included),
//!   picks the pivot and the `L` column from the pattern's free rows, and
//!   resets only the touched entries. One column costs
//!   `O(f log f)` for `f` touched entries, not `Θ(m)`.
//! * The forward LU solve skips zero multipliers.
//! * Each [`Eta`] stores only the nonzeros of its column, allocated at
//!   their exact count. FTRAN skips an eta whose multiplier is exactly
//!   `0.0` and otherwise subtracts over the nonzeros; BTRAN's dot product
//!   runs over the same nonzeros. How much this saves depends on the
//!   workload: on the EPN (2,0,0) Table II row an eta holds about half of
//!   its basis dimension, on seven parallel RPL lines about 4%.
//!
//! # Bit-identity with the dense build
//!
//! Reachable steps are applied in **increasing step order**, which is the
//! order a dense left-looking build tries them in. A step the sparse build
//! never reaches has an exactly-zero multiplier, so the dense build skips
//! it too. Free rows are scanned in increasing row index, so pivot ties
//! break the same way. The factors are therefore bit-identical to a dense
//! build's, and so is every FTRAN, BTRAN and simplex pivot; the dense build
//! is kept in the tests as the oracle.
//!
//! The sparse etas drop only exact zeros. In FTRAN a dropped term would
//! subtract `±0.0`; in BTRAN it would add `±0.0` to a dot product that
//! starts at `+0.0`, which changes nothing. So a sparse eta, like a skipped
//! zero-multiplier eta, can at most flip the sign of an exact zero in the
//! result, which `==` and `<` do not distinguish. The dense eta application
//! is kept in the tests as the oracle for both solves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One product-form update: basis position `pos` was replaced by a column
/// whose FTRAN image (through the basis *before* this update) is `w`. Only
/// the nonzeros of `w` are kept.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    pos: usize,
    /// `w[pos]`.
    pivot: f64,
    /// Positions `i != pos` with `w[i] != 0.0`, ascending.
    rows: Box<[u32]>,
    /// `w[i]` for each entry of `rows`.
    vals: Box<[f64]>,
}

impl Eta {
    /// Keep the nonzeros of `w`: count them first, so each array is
    /// allocated at its exact size.
    fn new(pos: usize, w: &[f64]) -> Eta {
        let off_pivot = |&(i, &v): &(usize, &f64)| i != pos && v != 0.0;
        let nnz = w.iter().enumerate().filter(off_pivot).count();
        let mut rows = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for (i, &v) in w.iter().enumerate().filter(off_pivot) {
            rows.push(i as u32);
            vals.push(v);
        }
        Eta {
            pos,
            pivot: w[pos],
            rows: rows.into_boxed_slice(),
            vals: vals.into_boxed_slice(),
        }
    }

    /// Nonzeros of the eta column, pivot included.
    fn nnz(&self) -> usize {
        self.rows.len() + 1
    }

    /// Nonzeros off the pivot as `(position, value)`, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.vals.iter())
            .map(|(&i, &v)| (i as usize, v))
    }
}

/// Sparse LU factors of an `m × m` basis matrix, `P B Q = L U` with unit
/// lower-triangular `L`, stored column-wise in elimination-step order.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    m: usize,
    /// `colorder[k]` = basis position whose column was pivotal at step `k`
    /// (the canonical processing order).
    colorder: Vec<usize>,
    /// `perm[k]` = original row index chosen as the pivot row at step `k`.
    perm: Vec<usize>,
    /// `L` multipliers per step: `(row, l)` entries below the diagonal, in
    /// original-row space.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `U` off-diagonal entries per step: `(t, u)` with `t < k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    udiag: Vec<f64>,
}

/// Pivot elements smaller than this make the basis numerically singular.
const SINGULAR_TOL: f64 = 1e-11;

impl LuFactors {
    /// Factorize a basis given per-position sparse columns (original-row
    /// space). `order` is the canonical processing order: a permutation of
    /// basis positions. Returns `None` when the matrix is singular.
    pub(crate) fn build(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        order: &[usize],
    ) -> Option<LuFactors> {
        debug_assert_eq!(cols.len(), m);
        debug_assert_eq!(order.len(), m);
        let mut f = LuFactors {
            m,
            colorder: order.to_vec(),
            perm: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
        };
        // step_of_row[r] = Some(k) once row r became pivotal at step k.
        let mut step_of_row: Vec<Option<usize>> = vec![None; m];
        let mut work = WorkColumn::new(m);
        let mut free_rows: Vec<usize> = Vec::new();
        for k in 0..m {
            for &(r, a) in &cols[f.colorder[k]] {
                work.touch(r, step_of_row[r]);
                work.x[r] = a;
            }
            // Left-looking update: apply the reachable earlier elimination
            // steps in increasing order, harvesting the U entries as we go.
            // Step `t` only writes rows pivotal after `t`, so any step it
            // makes reachable is still ahead in the queue.
            let mut u_col = Vec::new();
            while let Some(Reverse(t)) = work.pending.pop() {
                let u = work.x[f.perm[t]];
                if u != 0.0 {
                    u_col.push((t, u));
                    for &(r, l) in &f.l_cols[t] {
                        work.touch(r, step_of_row[r]);
                        work.x[r] -= l * u;
                    }
                }
            }
            // Partial pivoting among rows not yet pivotal; ties break toward
            // the smallest row index (deterministic).
            free_rows.clear();
            free_rows.extend(
                work.pattern
                    .iter()
                    .copied()
                    .filter(|&r| step_of_row[r].is_none()),
            );
            free_rows.sort_unstable();
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0_f64;
            for &r in &free_rows {
                if work.x[r].abs() > pivot_abs {
                    pivot_abs = work.x[r].abs();
                    pivot_row = r;
                }
            }
            if pivot_abs < SINGULAR_TOL {
                return None;
            }
            let d = work.x[pivot_row];
            let l_col = free_rows
                .iter()
                .filter(|&&r| r != pivot_row && work.x[r] != 0.0)
                .map(|&r| (r, work.x[r] / d))
                .collect();
            step_of_row[pivot_row] = Some(k);
            f.perm.push(pivot_row);
            f.udiag.push(d);
            f.u_cols.push(u_col);
            f.l_cols.push(l_col);
            work.clear();
        }
        Some(f)
    }

    /// Solve `B x = b`: input in original-row space, output indexed by basis
    /// position. `z` is scratch of length `m`.
    fn solve(&self, b: &mut [f64], z: &mut [f64], out: &mut [f64]) {
        // Forward: L z = P b, in step order.
        for k in 0..self.m {
            let zk = b[self.perm[k]];
            z[k] = zk;
            if zk != 0.0 {
                for &(r, l) in &self.l_cols[k] {
                    b[r] -= l * zk;
                }
            }
        }
        // Backward: U x = z, in reverse step order; x lands at the basis
        // position pivotal at each step.
        for k in (0..self.m).rev() {
            let xk = z[k] / self.udiag[k];
            out[self.colorder[k]] = xk;
            if xk != 0.0 {
                for &(t, u) in &self.u_cols[k] {
                    z[t] -= u * xk;
                }
            }
        }
    }

    /// Solve `Bᵀ y = c`: input indexed by basis position, output in
    /// original-row space. `v` is scratch of length `m`.
    fn solve_transposed(&self, c: &[f64], v: &mut [f64], out: &mut [f64]) {
        // Forward: Uᵀ v = d with d_k = c[colorder[k]], in step order.
        for k in 0..self.m {
            let mut d = c[self.colorder[k]];
            for &(t, u) in &self.u_cols[k] {
                d -= u * v[t];
            }
            v[k] = d / self.udiag[k];
        }
        // Backward: Lᵀ y = v, in reverse step order. Rows appearing in
        // `l_cols[k]` are pivotal at later steps, so their `y` is known.
        for k in (0..self.m).rev() {
            let mut yk = v[k];
            for &(r, l) in &self.l_cols[k] {
                yk -= l * out[r];
            }
            out[self.perm[k]] = yk;
        }
    }
}

/// The column being eliminated in [`LuFactors::build`]: a dense vector
/// whose nonzero pattern is tracked, so each step costs its nonzeros.
struct WorkColumn {
    x: Vec<f64>,
    /// Rows written since the last [`clear`](Self::clear); only these can
    /// hold a nonzero.
    pattern: Vec<usize>,
    touched: Vec<bool>,
    /// Elimination steps whose pivot row is in `pattern`, smallest first.
    pending: BinaryHeap<Reverse<usize>>,
}

impl WorkColumn {
    fn new(m: usize) -> Self {
        WorkColumn {
            x: vec![0.0; m],
            pattern: Vec::new(),
            touched: vec![false; m],
            pending: BinaryHeap::new(),
        }
    }

    /// Record a write to row `r`, pivotal at step `step` if it already is;
    /// the first write to a pivotal row queues its step.
    fn touch(&mut self, r: usize, step: Option<usize>) {
        if !self.touched[r] {
            self.touched[r] = true;
            self.pattern.push(r);
            if let Some(t) = step {
                self.pending.push(Reverse(t));
            }
        }
    }

    /// Zero the touched entries only.
    fn clear(&mut self) {
        for r in self.pattern.drain(..) {
            self.x[r] = 0.0;
            self.touched[r] = false;
        }
    }
}

/// A factorized basis plus its eta file: the complete `B⁻¹` operator of the
/// revised simplex between two refactorizations.
#[derive(Debug, Clone)]
pub(crate) struct FactorizedBasis {
    factor: LuFactors,
    etas: Vec<Eta>,
    /// Scratch buffers reused across solves.
    scratch: Vec<f64>,
}

impl FactorizedBasis {
    pub(crate) fn new(factor: LuFactors) -> Self {
        let m = factor.m;
        FactorizedBasis {
            factor,
            etas: Vec::new(),
            scratch: vec![0.0; m],
        }
    }

    /// Etas accumulated since the factorization was built.
    pub(crate) fn num_etas(&self) -> usize {
        self.etas.len()
    }

    /// Record a pivot: basis position `pos` replaced by the column whose
    /// current FTRAN image is `w`. Returns the nonzeros stored.
    pub(crate) fn push_eta(&mut self, pos: usize, w: &[f64]) -> usize {
        let eta = Eta::new(pos, w);
        let nnz = eta.nnz();
        self.etas.push(eta);
        nnz
    }

    /// FTRAN: `x = B⁻¹ b`, input in original-row space, output indexed by
    /// basis position. Consumes `b` as workspace.
    pub(crate) fn ftran(&mut self, mut b: Vec<f64>) -> Vec<f64> {
        let m = self.factor.m;
        let mut out = vec![0.0; m];
        self.factor.solve(&mut b, &mut self.scratch, &mut out);
        for eta in &self.etas {
            let t = out[eta.pos] / eta.pivot;
            // A zero multiplier would only subtract zeros.
            if t == 0.0 {
                continue;
            }
            for (i, wi) in eta.entries() {
                out[i] -= wi * t;
            }
            out[eta.pos] = t;
        }
        out
    }

    /// BTRAN: `y = B⁻ᵀ c`, input indexed by basis position, output in
    /// original-row space. Consumes `c` as workspace.
    pub(crate) fn btran(&mut self, mut c: Vec<f64>) -> Vec<f64> {
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for (i, wi) in eta.entries() {
                dot += c[i] * wi;
            }
            c[eta.pos] = (c[eta.pos] - dot) / eta.pivot;
        }
        let m = self.factor.m;
        let mut out = vec![0.0; m];
        self.factor
            .solve_transposed(&c, &mut self.scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The dense left-looking build that [`LuFactors::build`] replaced:
    /// every earlier step is tried, every row is scanned for the pivot and
    /// for the `L` column, and the whole work vector is cleared. Kept as the
    /// oracle the sparse build must match bit for bit.
    fn dense_build(m: usize, cols: &[Vec<(usize, f64)>], order: &[usize]) -> Option<LuFactors> {
        let mut f = LuFactors {
            m,
            colorder: order.to_vec(),
            perm: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
        };
        let mut step_of_row: Vec<Option<usize>> = vec![None; m];
        let mut work = vec![0.0_f64; m];
        for k in 0..m {
            for &(r, a) in &cols[f.colorder[k]] {
                work[r] = a;
            }
            let mut u_col = Vec::new();
            for t in 0..k {
                let u = work[f.perm[t]];
                if u != 0.0 {
                    u_col.push((t, u));
                    for &(r, l) in &f.l_cols[t] {
                        work[r] -= l * u;
                    }
                }
            }
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0_f64;
            for (r, s) in step_of_row.iter().enumerate() {
                if s.is_none() && work[r].abs() > pivot_abs {
                    pivot_abs = work[r].abs();
                    pivot_row = r;
                }
            }
            if pivot_abs < SINGULAR_TOL {
                return None;
            }
            let d = work[pivot_row];
            let mut l_col = Vec::new();
            for (r, s) in step_of_row.iter().enumerate() {
                if s.is_none() && r != pivot_row && work[r] != 0.0 {
                    l_col.push((r, work[r] / d));
                }
            }
            step_of_row[pivot_row] = Some(k);
            f.perm.push(pivot_row);
            f.udiag.push(d);
            f.u_cols.push(u_col);
            f.l_cols.push(l_col);
            work.fill(0.0);
        }
        Some(f)
    }

    /// Everything a factorization consists of, with floats as bit patterns.
    type FactorBits = (
        Vec<usize>,
        Vec<usize>,
        Vec<u64>,
        Vec<Vec<(usize, u64)>>,
        Vec<Vec<(usize, u64)>>,
    );

    fn bits(f: &LuFactors) -> FactorBits {
        let entries = |cols: &[Vec<(usize, f64)>]| -> Vec<Vec<(usize, u64)>> {
            cols.iter()
                .map(|c| c.iter().map(|&(i, v)| (i, v.to_bits())).collect())
                .collect()
        };
        (
            f.colorder.clone(),
            f.perm.clone(),
            f.udiag.iter().map(|v| v.to_bits()).collect(),
            entries(&f.l_cols),
            entries(&f.u_cols),
        )
    }

    /// The simplex's canonical order, ascending `(nnz, column index)`, with
    /// basis positions standing in for column indices.
    fn canonical_order(cols: &[Vec<(usize, f64)>]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by_key(|&c| (cols[c].len(), c));
        order
    }

    /// A random simplex-like basis: with probability `slack_share` a
    /// position holds the slack of its own row (one `±1`), otherwise a
    /// structural column of up to four nonzeros. Small dyadic values keep
    /// the arithmetic exact, so entries regularly cancel to exactly `0.0`
    /// during elimination.
    fn random_basis(rng: &mut StdRng, m: usize, slack_share: f64) -> Vec<Vec<(usize, f64)>> {
        const VALUES: [f64; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0, -3.0];
        (0..m)
            .map(|pos| {
                if rng.random_bool(slack_share) {
                    let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                    return vec![(pos, sign)];
                }
                let mut rows: Vec<usize> = (0..rng.random_range(1..=4))
                    .map(|_| rng.random_range(0..m))
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                rows.into_iter()
                    .map(|r| (r, VALUES[rng.random_range(0..VALUES.len())]))
                    .collect()
            })
            .collect()
    }

    fn assert_builds_agree(m: usize, cols: &[Vec<(usize, f64)>], order: &[usize]) -> bool {
        let sparse = LuFactors::build(m, cols, order);
        let dense = dense_build(m, cols, order);
        assert_eq!(
            sparse.as_ref().map(bits),
            dense.as_ref().map(bits),
            "sparse and dense builds differ on {cols:?} in order {order:?}"
        );
        sparse.is_some()
    }

    #[test]
    fn sparse_build_matches_dense_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(12);
        let (mut nonsingular, mut singular) = (0, 0);
        for case in 0..600 {
            let m = rng.random_range(1..=30);
            let slack_share = [0.9, 0.6, 0.2][case % 3];
            let cols = random_basis(&mut rng, m, slack_share);
            let order = if case % 2 == 0 {
                canonical_order(&cols)
            } else {
                let mut order: Vec<usize> = (0..m).collect();
                for i in (1..m).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                order
            };
            if assert_builds_agree(m, &cols, &order) {
                nonsingular += 1;
            } else {
                singular += 1;
            }
        }
        assert!(
            nonsingular >= 100 && singular >= 100,
            "{nonsingular} / {singular}"
        );
    }

    #[test]
    fn sparse_build_matches_dense_oracle_on_cancellation_and_singular_bases() {
        // Column 1 minus column 0 cancels row 1 to exactly 0.0, which must
        // stay out of the L column in both builds.
        let mat: Vec<&[f64]> = vec![&[1.0, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]];
        let cols = dense_cols(&mat);
        assert!(assert_builds_agree(3, &cols, &[0, 1, 2]));
        let f = LuFactors::build(3, &cols, &[0, 1, 2]).unwrap();
        assert!(f.l_cols[1].is_empty(), "{:?}", f.l_cols);

        // Singular: an empty column, a repeated column, a column that is the
        // exact sum of two others, and two slacks on the same row.
        let singular: Vec<Vec<Vec<(usize, f64)>>> = vec![
            vec![vec![(0, 1.0)], vec![], vec![(2, 1.0)]],
            vec![
                vec![(0, 2.0), (1, 1.0)],
                vec![(1, 1.0)],
                vec![(0, 2.0), (1, 1.0)],
            ],
            vec![
                vec![(0, 1.0), (2, 2.0)],
                vec![(1, -1.0), (2, 0.5)],
                vec![(0, 1.0), (1, -1.0), (2, 2.5)],
            ],
            vec![vec![(1, 1.0)], vec![(0, 1.0)], vec![(1, -1.0)]],
        ];
        for cols in &singular {
            assert!(!assert_builds_agree(3, cols, &canonical_order(cols)));
            assert!(!assert_builds_agree(3, cols, &[2, 1, 0]));
        }
    }

    /// FTRAN with every eta applied densely, including zero multipliers:
    /// the oracle the sparse eta file must reproduce.
    fn dense_ftran(
        basis: &mut FactorizedBasis,
        etas: &[(usize, Vec<f64>)],
        mut b: Vec<f64>,
        zero_multipliers: &mut usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; basis.factor.m];
        basis.factor.solve(&mut b, &mut basis.scratch, &mut out);
        for (pos, w) in etas {
            let t = out[*pos] / w[*pos];
            *zero_multipliers += usize::from(t == 0.0);
            for (i, (x, &wi)) in out.iter_mut().zip(w).enumerate() {
                if i != *pos {
                    *x -= wi * t;
                }
            }
            out[*pos] = t;
        }
        out
    }

    /// BTRAN with every eta's dot product taken over the whole dense column.
    fn dense_btran(
        basis: &mut FactorizedBasis,
        etas: &[(usize, Vec<f64>)],
        mut c: Vec<f64>,
    ) -> Vec<f64> {
        for (pos, w) in etas.iter().rev() {
            let mut dot = 0.0;
            for (i, (&ci, &wi)) in c.iter().zip(w).enumerate() {
                if i != *pos {
                    dot += ci * wi;
                }
            }
            c[*pos] = (c[*pos] - dot) / w[*pos];
        }
        let mut out = vec![0.0; basis.factor.m];
        basis
            .factor
            .solve_transposed(&c, &mut basis.scratch, &mut out);
        out
    }

    /// Bit-for-bit equality, except that an exact zero may differ in sign.
    fn assert_equal_but_zero_signs(got: &[f64], want: &[f64], what: &str) {
        let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0);
        assert!(
            got.len() == want.len() && got.iter().zip(want).all(same),
            "{what}: sparse etas gave {got:?}, dense etas {want:?}"
        );
    }

    #[test]
    fn zero_skipping_ftran_equals_dense_eta_application() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut zero_multipliers, mut dropped_zeros) = (0, 0);
        let mut checked = 0;
        while checked < 400 {
            let m = rng.random_range(2..=16);
            let cols = random_basis(&mut rng, m, 0.7);
            let Some(f) = LuFactors::build(m, &cols, &canonical_order(&cols)) else {
                continue;
            };
            let mut basis = FactorizedBasis::new(f);
            let mut dense_etas = Vec::new();
            // A few pivots: enter a random sparse column wherever its FTRAN
            // image has a safe pivot element.
            for _ in 0..rng.random_range(1..=8) {
                let entering = random_basis(&mut rng, m, 0.0).swap_remove(0);
                let mut a = vec![0.0; m];
                for (r, v) in entering {
                    a[r] = v;
                }
                let w = basis.ftran(a);
                let pos = rng.random_range(0..m);
                if w[pos].abs() > 1e-3 {
                    dropped_zeros += m - basis.push_eta(pos, &w);
                    dense_etas.push((pos, w));
                }
            }
            // Sparse right-hand sides leave many multipliers exactly zero;
            // every fourth one is dense.
            let mut rhs = || {
                let mut v = vec![0.0; m];
                if checked % 4 == 3 {
                    v.iter_mut()
                        .for_each(|x| *x = rng.random_range(-4..=4) as f64);
                } else {
                    for _ in 0..rng.random_range(1..=2) {
                        v[rng.random_range(0..m)] = 1.0;
                    }
                }
                v
            };
            let (b, c) = (rhs(), rhs());
            let want = dense_ftran(&mut basis, &dense_etas, b.clone(), &mut zero_multipliers);
            assert_equal_but_zero_signs(&basis.ftran(b), &want, "FTRAN");
            let want = dense_btran(&mut basis, &dense_etas, c.clone());
            assert_equal_but_zero_signs(&basis.btran(c), &want, "BTRAN");
            checked += 1;
        }
        assert!(
            zero_multipliers >= 50 && dropped_zeros >= 500,
            "only {zero_multipliers} zero multipliers and {dropped_zeros} dropped zeros"
        );
    }

    fn dense_cols(mat: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        let m = mat.len();
        (0..m)
            .map(|c| {
                (0..m)
                    .filter(|&r| mat[r][c] != 0.0)
                    .map(|r| (r, mat[r][c]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(mat: &[&[f64]], x: &[f64]) -> Vec<f64> {
        mat.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn mat_t_vec(mat: &[&[f64]], y: &[f64]) -> Vec<f64> {
        let m = mat.len();
        (0..m)
            .map(|c| (0..m).map(|r| mat[r][c] * y[r]).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_roundtrip_dense_matrix() {
        let mat: Vec<&[f64]> = vec![
            &[2.0, 1.0, 0.0, 0.5],
            &[0.0, 3.0, 1.0, 0.0],
            &[1.0, 0.0, -1.0, 2.0],
            &[0.0, 4.0, 0.0, 1.0],
        ];
        let cols = dense_cols(&mat);
        let order = vec![2, 0, 3, 1]; // arbitrary canonical order
        let f = LuFactors::build(4, &cols, &order).expect("nonsingular");
        let mut basis = FactorizedBasis::new(f);

        // FTRAN: solve B x = b, check B x == b.
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x = basis.ftran(b.clone());
        let back = mat_vec(&mat, &x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }

        // BTRAN: solve Bᵀ y = c, check Bᵀ y == c.
        let c = vec![0.5, 1.0, -1.0, 2.0];
        let y = basis.btran(c.clone());
        let back = mat_t_vec(&mat, &y);
        for (got, want) in back.iter().zip(&c) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let mat: Vec<&[f64]> = vec![&[1.0, 2.0], &[2.0, 4.0]];
        let cols = dense_cols(&mat);
        assert!(LuFactors::build(2, &cols, &[0, 1]).is_none());
    }

    #[test]
    fn eta_updates_match_refactorization() {
        // Start from the identity, pivot a new column into position 1, and
        // compare the eta path against factorizing the updated basis.
        let m = 3;
        let id_cols: Vec<Vec<(usize, f64)>> = (0..m).map(|r| vec![(r, 1.0)]).collect();
        let order: Vec<usize> = (0..m).collect();
        let f = LuFactors::build(m, &id_cols, &order).unwrap();
        let mut basis = FactorizedBasis::new(f);

        // New column a = (1, 2, 1)ᵀ enters position 1: w = B⁻¹ a = a.
        let a = vec![1.0, 2.0, 1.0];
        let w = basis.ftran(a.clone());
        basis.push_eta(1, &w);

        // Updated basis matrix: columns e0, a, e2.
        let mat: Vec<&[f64]> = vec![&[1.0, 1.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 1.0, 1.0]];
        let b = vec![3.0, 4.0, 5.0];
        let x = basis.ftran(b.clone());
        let back = mat_vec(&mat, &x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        let c = vec![1.0, -1.0, 0.5];
        let y = basis.btran(c.clone());
        let back = mat_t_vec(&mat, &y);
        for (got, want) in back.iter().zip(&c) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }

        // Refactorizing the updated basis gives the same operator.
        let upd_cols = dense_cols(&mat);
        let f2 = LuFactors::build(m, &upd_cols, &order).unwrap();
        let mut fresh = FactorizedBasis::new(f2);
        let x2 = fresh.ftran(b);
        for (a, b) in x.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn canonical_order_is_history_independent() {
        // Two different processing orders of the same basis represent the
        // same operator (solutions agree to fp tolerance), but the canonical
        // order contract is that callers always pass the same one for the
        // same basis set — build() must be deterministic in (cols, order).
        let mat: Vec<&[f64]> = vec![&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]];
        let cols = dense_cols(&mat);
        let f1 = LuFactors::build(3, &cols, &[0, 1, 2]).unwrap();
        let f2 = LuFactors::build(3, &cols, &[0, 1, 2]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x1 = FactorizedBasis::new(f1).ftran(b.clone());
        let x2 = FactorizedBasis::new(f2).ftran(b);
        assert_eq!(x1, x2, "identical inputs must give bit-identical solves");
    }
}

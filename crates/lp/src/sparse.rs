//! Minimal sparse linear-algebra helpers for the simplex engine.
//!
//! The constraint matrix is stored column-major ([`ColMatrix`]) because the
//! revised simplex method consumes columns: pricing needs `y · a_j` per
//! column and FTRAN needs the entering column itself. Two basis
//! representations live here:
//!
//! * [`DenseMat`] — an explicit dense inverse (Gauss–Jordan refactorization,
//!   dense rank-1 eta updates). Simple, exact, O(m²) per pivot; kept as the
//!   differential-testing oracle behind `basis::DenseEngine`.
//! * [`LuFactors`] — a sparse LU factorization `P B Q = L U` with Markowitz
//!   ordering and threshold partial pivoting, plus permuted sparse
//!   triangular solves for FTRAN/BTRAN. This is the default engine: on the
//!   hypersparse bases that the Flexile LPs produce the factor nnz stays
//!   near the basis nnz, so refactorization and both solves run in roughly
//!   O(nnz) instead of O(m²)/O(m³).

/// Column supplier used by factorization: `col_of(j, out)` pushes the
/// `(row, value)` entries of column `j` into `out` (already cleared).
pub type ColSource<'a> = dyn FnMut(usize, &mut Vec<(u32, f64)>) + 'a;

/// A sparse column: parallel `(row, value)` arrays, rows strictly increasing.
#[derive(Debug, Clone, Default)]
pub struct SparseCol {
    /// Row indices with non-zero coefficients, strictly increasing.
    pub rows: Vec<u32>,
    /// Coefficients, parallel to `rows`.
    pub vals: Vec<f64>,
}

impl SparseCol {
    /// Build from an unsorted coefficient list; duplicate rows are summed and
    /// exact zeros dropped.
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_unstable_by_key(|e| e.0);
        let mut rows = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        for (r, v) in entries {
            if let (Some(&lr), Some(lv)) = (rows.last(), vals.last_mut()) {
                if lr == r {
                    *lv += v;
                    continue;
                }
            }
            rows.push(r);
            vals.push(v);
        }
        // Drop entries that cancelled to zero.
        let mut col = SparseCol { rows, vals };
        col.compact();
        col
    }

    fn compact(&mut self) {
        let mut w = 0;
        for i in 0..self.rows.len() {
            if self.vals[i] != 0.0 {
                self.rows[w] = self.rows[i];
                self.vals[w] = self.vals[i];
                w += 1;
            }
        }
        self.rows.truncate(w);
        self.vals.truncate(w);
    }

    /// Number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Iterate `(row, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows.iter().zip(self.vals.iter()).map(|(&r, &v)| (r as usize, v))
    }

    /// Sparse dot product with a dense vector.
    pub fn dot(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.iter() {
            acc += dense[r] * v;
        }
        acc
    }
}

/// Column-major sparse matrix: one [`SparseCol`] per structural variable.
#[derive(Debug, Clone, Default)]
pub struct ColMatrix {
    cols: Vec<SparseCol>,
    nrows: usize,
}

impl ColMatrix {
    /// Empty matrix with `nrows` rows and no columns.
    pub fn new(nrows: usize) -> Self {
        ColMatrix { cols: Vec::new(), nrows }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Grow the row dimension (existing columns keep their entries).
    pub fn grow_rows(&mut self, nrows: usize) {
        debug_assert!(nrows >= self.nrows);
        self.nrows = nrows;
    }

    /// Append a column, returning its index.
    pub fn push_col(&mut self, col: SparseCol) -> usize {
        debug_assert!(col.rows.iter().all(|&r| (r as usize) < self.nrows));
        self.cols.push(col);
        self.cols.len() - 1
    }

    /// Add `value` at `(row, col)`, extending the column entry list.
    pub fn add_entry(&mut self, row: usize, col: usize, value: f64) {
        if value == 0.0 {
            return;
        }
        debug_assert!(row < self.nrows);
        let c = &mut self.cols[col];
        // Fast path: append in row order (typical when building row by row).
        match c.rows.last() {
            Some(&last) if (last as usize) < row => {
                c.rows.push(row as u32);
                c.vals.push(value);
            }
            None => {
                c.rows.push(row as u32);
                c.vals.push(value);
            }
            _ => {
                // Out-of-order insert or duplicate: merge properly.
                match c.rows.binary_search(&(row as u32)) {
                    Ok(pos) => c.vals[pos] += value,
                    Err(pos) => {
                        c.rows.insert(pos, row as u32);
                        c.vals.insert(pos, value);
                    }
                }
            }
        }
    }

    /// Borrow a column.
    pub fn col(&self, j: usize) -> &SparseCol {
        &self.cols[j]
    }

    /// Total number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(|c| c.nnz()).sum()
    }
}

/// Dense square matrix stored row-major, used for the basis inverse.
#[derive(Debug, Clone)]
pub struct DenseMat {
    /// Row-major data, length `n * n`.
    pub data: Vec<f64>,
    /// Dimension.
    pub n: usize,
}

impl DenseMat {
    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        DenseMat { data, n }
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// `out = self * sparse_col` (FTRAN against a sparse column).
    pub fn mul_sparse(&self, col: &SparseCol, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let n = self.n;
        for (r, v) in col.iter() {
            // Column access of a row-major matrix: stride n.
            let mut idx = r;
            for o in out.iter_mut() {
                *o += v * self.data[idx];
                idx += n;
            }
        }
    }

    /// `out = vec^T * self` (BTRAN against a dense row vector).
    pub fn pre_mul_dense(&self, vec: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for (i, &c) in vec.iter().enumerate() {
            if c != 0.0 {
                let row = self.row(i);
                for (o, &r) in out.iter_mut().zip(row.iter()) {
                    *o += c * r;
                }
            }
        }
    }

    /// Gauss–Jordan inversion with partial pivoting, writing the inverse of
    /// the matrix whose columns are provided by `col_of`. Returns `false` if
    /// the matrix is numerically singular.
    pub fn invert_from_columns<F>(&mut self, n: usize, mut col_of: F) -> bool
    where
        F: FnMut(usize, &mut [f64]),
    {
        // Build the dense matrix B (column j = col_of(j)) in `work`, and run
        // Gauss–Jordan on [B | I], leaving the inverse in self.data.
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
        let mut b = vec![0.0; n * n]; // row-major copy of B
        let mut scratch = vec![0.0; n];
        for j in 0..n {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            col_of(j, &mut scratch);
            for i in 0..n {
                b[i * n + j] = scratch[i];
            }
        }
        for k in 0..n {
            // Partial pivot.
            let mut piv = k;
            let mut best = b[k * n + k].abs();
            for i in (k + 1)..n {
                let a = b[i * n + k].abs();
                if a > best {
                    best = a;
                    piv = i;
                }
            }
            if best < 1e-11 {
                return false;
            }
            if piv != k {
                for j in 0..n {
                    b.swap(k * n + j, piv * n + j);
                    self.data.swap(k * n + j, piv * n + j);
                }
            }
            let d = b[k * n + k];
            let inv = 1.0 / d;
            for j in 0..n {
                b[k * n + j] *= inv;
                self.data[k * n + j] *= inv;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = b[i * n + k];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    b[i * n + j] -= f * b[k * n + j];
                    self.data[i * n + j] -= f * self.data[k * n + j];
                }
            }
        }
        true
    }

    /// Eta update after a basis change: the entering column's FTRAN image is
    /// `w` and the leaving basic position is `r`. Applies `E · self` where
    /// `E` is the elementary matrix for the pivot.
    pub fn eta_update(&mut self, w: &[f64], r: usize) {
        let n = self.n;
        let wr = w[r];
        debug_assert!(wr.abs() > 1e-12);
        let inv = 1.0 / wr;
        // Row r := row r / w_r
        for j in 0..n {
            self.data[r * n + j] *= inv;
        }
        // Row i := row i - w_i * row r (i != r)
        // Split borrows: copy row r (n is small enough that this is cheap).
        let row_r: Vec<f64> = self.row(r).to_vec();
        for i in 0..n {
            if i == r {
                continue;
            }
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            let row_i = self.row_mut(i);
            for (a, &b) in row_i.iter_mut().zip(row_r.iter()) {
                *a -= wi * b;
            }
        }
    }
}

/// Threshold for Markowitz partial pivoting: an entry is an acceptable pivot
/// only if its magnitude is at least this fraction of the largest entry in
/// its column. Smaller values favour sparsity, larger values stability; 0.1
/// is the classical compromise.
const MARKOWITZ_TAU: f64 = 0.1;
/// Column-max magnitude below which the basis is declared singular (matches
/// the dense Gauss–Jordan pivot tolerance).
const LU_SINGULAR_TOL: f64 = 1e-11;
/// Active columns examined per pivot step, in ascending active-count order.
const MARKOWITZ_CANDIDATES: usize = 8;

/// Sparse LU factorization of a square basis matrix, `P B Q = L U`, built
/// with Markowitz ordering (minimize `(r_i − 1)(c_j − 1)` fill estimate)
/// under threshold partial pivoting.
///
/// `L` is unit lower triangular (strictly-lower part stored column-wise in
/// pivot order); `U` is upper triangular with its strictly-upper part stored
/// both row-wise (for transposed solves) and column-wise (for forward
/// solves). `rowperm[k]` / `colperm[k]` give the original row / column index
/// pivoted at step `k`.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    m: usize,
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    u_diag: Vec<f64>,
    u_rowptr: Vec<usize>,
    u_cols: Vec<u32>,
    u_rvals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rows: Vec<u32>,
    u_cvals: Vec<f64>,
    rowperm: Vec<u32>,
    colperm: Vec<u32>,
}

impl LuFactors {
    /// Empty factorization (dimension 0).
    pub fn new() -> Self {
        LuFactors::default()
    }

    /// Factored dimension.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Structural non-zeros in `L + U` (including the unit/diagonal entries).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_rvals.len() + 2 * self.m
    }

    /// Factorize the `m × m` matrix whose column `j` is supplied by
    /// `col_of(j, out)` as pushed `(row, value)` entries. Returns `false` if
    /// the matrix is numerically singular.
    pub fn factorize(
        &mut self,
        m: usize,
        col_of: &mut ColSource<'_>,
    ) -> bool {
        self.m = m;
        // Active submatrix: rows carry values; columns are (lazily stale)
        // lists of candidate rows. Counts are maintained exactly so the
        // Markowitz scan never needs to validate a whole column up front.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for j in 0..m {
            entries.clear();
            col_of(j, &mut entries);
            for &(r, v) in &entries {
                if v != 0.0 {
                    rows[r as usize].push((j as u32, v));
                    col_rows[j].push(r);
                }
            }
        }
        let mut row_count: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
        let mut col_count: Vec<u32> = col_rows.iter().map(|c| c.len() as u32).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];

        // Per-step factors in *original* indices; remapped to pivot order
        // once the permutations are complete.
        let mut l_steps: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_steps: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        self.u_diag.clear();
        self.rowperm.clear();
        self.colperm.clear();

        let mut scratch = vec![0.0f64; m];
        let mut mark = vec![false; m];
        let mut pattern: Vec<u32> = Vec::new();
        let mut cvals: Vec<(u32, f64)> = Vec::new();
        let mut pivot_entries: Vec<(u32, f64)> = Vec::new();
        let mut cand: Vec<u32> = Vec::new();

        for _step in 0..m {
            // The few active columns with the smallest counts, ascending
            // (ties keep the lower column index, so the order — and hence
            // the whole factorization — is deterministic).
            cand.clear();
            for j in 0..m {
                if col_done[j] {
                    continue;
                }
                let c = col_count[j];
                let pos = cand.iter().position(|&k| c < col_count[k as usize]);
                match pos {
                    Some(p) => {
                        cand.insert(p, j as u32);
                        if cand.len() > MARKOWITZ_CANDIDATES {
                            cand.pop();
                        }
                    }
                    None => {
                        if cand.len() < MARKOWITZ_CANDIDATES {
                            cand.push(j as u32);
                        }
                    }
                }
            }

            // Markowitz cost over the candidates, restricted to entries that
            // pass the stability threshold against their column max.
            let mut best: Option<(u32, u32, f64, u64)> = None; // (col, row, val, cost)
            for &jc in &cand {
                let j = jc as usize;
                // Validate + compact the stale row list, collecting values.
                // The list can hold a row twice (entry exactly cancelled,
                // then re-created by fill-in), so dedupe with the `mark`
                // scratch — a duplicate here would later eliminate that row
                // twice and silently corrupt the factors.
                cvals.clear();
                {
                    let cr = &mut col_rows[j];
                    let mut w = 0;
                    for idx in 0..cr.len() {
                        let r = cr[idx];
                        if row_done[r as usize] || mark[r as usize] {
                            continue;
                        }
                        if let Some(&(_, v)) =
                            rows[r as usize].iter().find(|&&(c, _)| c == jc)
                        {
                            mark[r as usize] = true;
                            cr[w] = r;
                            w += 1;
                            cvals.push((r, v));
                        }
                    }
                    cr.truncate(w);
                    for &(r, _) in &cvals {
                        mark[r as usize] = false;
                    }
                }
                col_count[j] = cvals.len() as u32;
                if cvals.is_empty() {
                    return false; // structurally empty active column
                }
                let colmax = cvals.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                if colmax < LU_SINGULAR_TOL {
                    return false;
                }
                let cc = (cvals.len() - 1) as u64;
                for &(r, v) in &cvals {
                    if v.abs() < MARKOWITZ_TAU * colmax {
                        continue;
                    }
                    let cost = (row_count[r as usize].saturating_sub(1)) as u64 * cc;
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bcost)) => {
                            cost < bcost || (cost == bcost && v.abs() > bv.abs())
                        }
                    };
                    if better {
                        best = Some((jc, r, v, cost));
                    }
                }
            }
            let (pc, pr, apq, _) = match best {
                Some(b) => b,
                None => return false,
            };
            let (pcu, pru) = (pc as usize, pr as usize);
            self.rowperm.push(pr);
            self.colperm.push(pc);
            self.u_diag.push(apq);
            row_done[pru] = true;
            col_done[pcu] = true;

            // Rows to eliminate: the pivot column's live entries (list was
            // just compacted while evaluating the candidate).
            pivot_entries.clear();
            for &r in &col_rows[pcu] {
                if r == pr {
                    continue;
                }
                if let Some(&(_, v)) = rows[r as usize].iter().find(|&&(c, _)| c == pc) {
                    pivot_entries.push((r, v));
                }
            }

            let prow = std::mem::take(&mut rows[pru]);
            let mut urow: Vec<(u32, f64)> = Vec::with_capacity(prow.len());
            for &(c, v) in &prow {
                if c != pc {
                    urow.push((c, v));
                    col_count[c as usize] -= 1; // pivot row leaves column c
                }
            }

            let inv_apq = 1.0 / apq;
            let mut lstep: Vec<(u32, f64)> = Vec::with_capacity(pivot_entries.len());
            for &(r, arv) in &pivot_entries {
                let ru = r as usize;
                let l = arv * inv_apq;
                lstep.push((r, l));
                // row_r ← row_r − l · pivot_row, dropping the pivot-column
                // entry exactly (no float cancellation residue).
                pattern.clear();
                for &(c, v) in &rows[ru] {
                    if c == pc {
                        continue;
                    }
                    let cu = c as usize;
                    scratch[cu] = v;
                    mark[cu] = true;
                    pattern.push(c);
                }
                for &(c, v) in &urow {
                    let cu = c as usize;
                    if !mark[cu] {
                        mark[cu] = true;
                        scratch[cu] = 0.0;
                        pattern.push(c);
                        col_rows[cu].push(r); // fill-in
                        col_count[cu] += 1;
                    }
                    scratch[cu] -= l * v;
                }
                let row = &mut rows[ru];
                row.clear();
                for &c in &pattern {
                    let cu = c as usize;
                    mark[cu] = false;
                    let v = scratch[cu];
                    scratch[cu] = 0.0;
                    if v != 0.0 {
                        row.push((c, v));
                    } else {
                        col_count[cu] -= 1; // exact cancellation
                    }
                }
                row_count[ru] = row.len() as u32;
            }
            l_steps.push(lstep);
            u_steps.push(urow);
        }

        // Remap original row/column ids to pivot-order positions.
        let mut row_pos = vec![0u32; m];
        let mut col_pos = vec![0u32; m];
        for k in 0..m {
            row_pos[self.rowperm[k] as usize] = k as u32;
            col_pos[self.colperm[k] as usize] = k as u32;
        }
        self.l_colptr.clear();
        self.l_rows.clear();
        self.l_vals.clear();
        self.l_colptr.push(0);
        for lstep in &l_steps {
            for &(r, l) in lstep {
                self.l_rows.push(row_pos[r as usize]);
                self.l_vals.push(l);
            }
            self.l_colptr.push(self.l_rows.len());
        }
        self.u_rowptr.clear();
        self.u_cols.clear();
        self.u_rvals.clear();
        self.u_rowptr.push(0);
        for ustep in &u_steps {
            for &(c, v) in ustep {
                self.u_cols.push(col_pos[c as usize]);
                self.u_rvals.push(v);
            }
            self.u_rowptr.push(self.u_cols.len());
        }
        // Column-wise copy of U via counting sort (rows stay ascending).
        let unnz = self.u_cols.len();
        let mut count = vec![0usize; m + 1];
        for &c in &self.u_cols {
            count[c as usize + 1] += 1;
        }
        for k in 0..m {
            count[k + 1] += count[k];
        }
        self.u_colptr.clone_from(&count);
        self.u_rows.clear();
        self.u_rows.resize(unnz, 0);
        self.u_cvals.clear();
        self.u_cvals.resize(unnz, 0.0);
        let mut next = count;
        for k in 0..m {
            for idx in self.u_rowptr[k]..self.u_rowptr[k + 1] {
                let c = self.u_cols[idx] as usize;
                let p = next[c];
                self.u_rows[p] = k as u32;
                self.u_cvals[p] = self.u_rvals[idx];
                next[c] += 1;
            }
        }
        true
    }

    /// In-place FTRAN: on entry `x` holds the right-hand side `a` (indexed
    /// by original row); on exit it holds `B⁻¹ a` (indexed by original
    /// column / basis position). `scratch` must be `m` zeros and is returned
    /// zeroed. Both triangular solves skip zero positions, so the cost
    /// scales with the solution's fill, not with `m`.
    pub fn ftran_in_place(&self, x: &mut [f64], scratch: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            scratch[k] = x[self.rowperm[k] as usize];
        }
        // L solve, forward column saxpy.
        for k in 0..m {
            let v = scratch[k];
            if v != 0.0 {
                for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                    scratch[self.l_rows[idx] as usize] -= self.l_vals[idx] * v;
                }
            }
        }
        // U solve, backward column saxpy.
        for k in (0..m).rev() {
            let v = scratch[k];
            if v != 0.0 {
                let v = v / self.u_diag[k];
                scratch[k] = v;
                for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                    scratch[self.u_rows[idx] as usize] -= self.u_cvals[idx] * v;
                }
            }
        }
        for k in 0..m {
            x[self.colperm[k] as usize] = scratch[k];
            scratch[k] = 0.0;
        }
    }

    /// In-place BTRAN: on entry `x` holds `c` (indexed by basis position);
    /// on exit it holds `y` with `yᵀB = cᵀ` (indexed by original row).
    /// `scratch` must be `m` zeros and is returned zeroed.
    pub fn btran_in_place(&self, x: &mut [f64], scratch: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            scratch[k] = x[self.colperm[k] as usize];
        }
        // Uᵀ solve, forward: once z_k is known, push it across row k of U.
        for k in 0..m {
            let v = scratch[k] / self.u_diag[k];
            scratch[k] = v;
            if v != 0.0 {
                for idx in self.u_rowptr[k]..self.u_rowptr[k + 1] {
                    scratch[self.u_cols[idx] as usize] -= self.u_rvals[idx] * v;
                }
            }
        }
        // Lᵀ solve, backward dot over column k of L.
        for k in (0..m).rev() {
            let mut acc = scratch[k];
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                acc -= self.l_vals[idx] * scratch[self.l_rows[idx] as usize];
            }
            scratch[k] = acc;
        }
        for k in 0..m {
            x[self.rowperm[k] as usize] = scratch[k];
            scratch[k] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_col_merges_duplicates_and_drops_zeros() {
        let c = SparseCol::from_entries(vec![(3, 1.0), (1, 2.0), (3, -1.0), (0, 5.0)]);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(0, 5.0), (1, 2.0)]);
    }

    #[test]
    fn sparse_dot() {
        let c = SparseCol::from_entries(vec![(0, 2.0), (2, 3.0)]);
        assert_eq!(c.dot(&[1.0, 10.0, 4.0]), 14.0);
    }

    #[test]
    fn dense_invert_2x2() {
        let mut m = DenseMat::identity(2);
        // B = [[2, 1], [1, 1]]; inverse = [[1, -1], [-1, 2]]
        let ok = m.invert_from_columns(2, |j, out| {
            if j == 0 {
                out[0] = 2.0;
                out[1] = 1.0;
            } else {
                out[0] = 1.0;
                out[1] = 1.0;
            }
        });
        assert!(ok);
        assert!((m.data[0] - 1.0).abs() < 1e-12);
        assert!((m.data[1] + 1.0).abs() < 1e-12);
        assert!((m.data[2] + 1.0).abs() < 1e-12);
        assert!((m.data[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_invert_singular_detected() {
        let mut m = DenseMat::identity(2);
        let ok = m.invert_from_columns(2, |_j, out| {
            out[0] = 1.0;
            out[1] = 1.0;
        });
        assert!(!ok);
    }

    #[test]
    fn eta_update_matches_reinversion() {
        // Start with B = I, replace column 1 with a = (1, 3)^T.
        let mut m = DenseMat::identity(2);
        let a = SparseCol::from_entries(vec![(0, 1.0), (1, 3.0)]);
        let mut w = vec![0.0; 2];
        m.mul_sparse(&a, &mut w);
        m.eta_update(&w, 1);
        // New basis = [e0, a]; inverse should satisfy inv * a = e1.
        let mut img = vec![0.0; 2];
        m.mul_sparse(&a, &mut img);
        assert!((img[0] - 0.0).abs() < 1e-12);
        assert!((img[1] - 1.0).abs() < 1e-12);
    }

    /// Deterministic pseudo-random sparse nonsingular matrix for LU tests:
    /// diagonally dominant with ~3 off-diagonal entries per column.
    fn test_matrix(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 // in [0, 1)
        };
        let mut cols = Vec::with_capacity(m);
        for j in 0..m {
            let mut col = vec![(j as u32, 4.0 + next())];
            for _ in 0..3 {
                let r = (next() * m as f64) as usize % m;
                if r != j && !col.iter().any(|&(rr, _)| rr as usize == r) {
                    col.push((r as u32, next() * 2.0 - 1.0));
                }
            }
            cols.push(col);
        }
        cols
    }

    #[test]
    fn lu_ftran_btran_match_dense_inverse() {
        let m = 40;
        let cols = test_matrix(m, 7);
        let mut lu = LuFactors::new();
        assert!(lu.factorize(m, &mut |j, out| out.extend_from_slice(&cols[j])));
        let mut inv = DenseMat::identity(m);
        assert!(inv.invert_from_columns(m, |j, out| {
            for &(r, v) in &cols[j] {
                out[r as usize] += v;
            }
        }));
        let mut scratch = vec![0.0; m];
        // FTRAN against a sparse RHS.
        let rhs = SparseCol::from_entries(vec![(3, 1.0), (17, -2.5), (31, 0.75)]);
        let mut dense_x = vec![0.0; m];
        inv.mul_sparse(&rhs, &mut dense_x);
        let mut lu_x = vec![0.0; m];
        for (r, v) in rhs.iter() {
            lu_x[r] = v;
        }
        lu.ftran_in_place(&mut lu_x, &mut scratch);
        for i in 0..m {
            assert!((lu_x[i] - dense_x[i]).abs() < 1e-9, "ftran row {i}");
        }
        // BTRAN against a dense cost vector.
        let c: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut dense_y = vec![0.0; m];
        inv.pre_mul_dense(&c, &mut dense_y);
        let mut lu_y = c.clone();
        lu.btran_in_place(&mut lu_y, &mut scratch);
        for i in 0..m {
            assert!((lu_y[i] - dense_y[i]).abs() < 1e-9, "btran row {i}");
        }
        assert!(scratch.iter().all(|&v| v == 0.0), "scratch handed back zeroed");
    }

    #[test]
    fn lu_identity_has_no_fill() {
        let m = 16;
        let mut lu = LuFactors::new();
        assert!(lu.factorize(m, &mut |j, out| out.push((j as u32, 1.0))));
        assert_eq!(lu.nnz(), 2 * m, "identity factors carry only diagonals");
        let mut scratch = vec![0.0; m];
        let mut x = vec![0.0; m];
        x[5] = 3.0;
        lu.ftran_in_place(&mut x, &mut scratch);
        assert_eq!(x[5], 3.0);
        assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn lu_detects_singular_matrix() {
        // Duplicate columns: rank m−1.
        let m = 6;
        let mut lu = LuFactors::new();
        let ok = lu.factorize(m, &mut |j, out| {
            let jj = if j == m - 1 { 0 } else { j };
            out.push((jj as u32, 1.0));
            out.push((((jj + 1) % m) as u32, 1.0));
        });
        assert!(!ok, "rank-deficient matrix must be rejected");
        // An exactly-zero column as well.
        let mut lu2 = LuFactors::new();
        let ok2 = lu2.factorize(3, &mut |j, out| {
            if j != 1 {
                out.push((j as u32, 1.0));
            }
        });
        assert!(!ok2, "empty column must be rejected");
    }

    #[test]
    fn lu_survives_exact_cancellation_then_fill_in() {
        // 0/1-valued network-style bases produce *exact* cancellations during
        // elimination; a later fill-in at the same position used to leave the
        // row listed twice in the column's candidate list, which eliminated
        // that row twice and corrupted the factors. Sweep many small random
        // 0/1-heavy matrices against the dense inverse.
        let mut checked = 0usize;
        for seed in 0..400u64 {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            };
            let m = 4 + (next() * 14.0) as usize;
            let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
            for _ in 0..m {
                let mut col: Vec<(u32, f64)> = Vec::new();
                let nnz = 1 + (next() * 4.0) as usize;
                for _ in 0..nnz {
                    let r = (next() * m as f64) as usize % m;
                    if !col.iter().any(|&(rr, _)| rr as usize == r) {
                        // Mostly exact 1.0s so eliminations cancel exactly.
                        let v = if next() < 0.85 { 1.0 } else { next() * 2.0 - 1.0 };
                        col.push((r as u32, v));
                    }
                }
                col.sort_by_key(|&(r, _)| r);
                cols.push(col);
            }
            let mut inv = DenseMat::identity(m);
            let ok_dense = inv.invert_from_columns(m, |j, out| {
                for &(r, v) in &cols[j] {
                    out[r as usize] += v;
                }
            });
            let mut lu = LuFactors::new();
            let ok_lu = lu.factorize(m, &mut |j, out| out.extend_from_slice(&cols[j]));
            assert_eq!(ok_dense, ok_lu, "singularity disagreement at seed {seed}");
            if !ok_dense {
                continue;
            }
            checked += 1;
            let mut scratch = vec![0.0; m];
            let rhs: Vec<f64> = (0..m).map(|i| ((i + 1) as f64 * 0.61).sin()).collect();
            let mut dense_x = vec![0.0; m];
            for (i, out) in dense_x.iter_mut().enumerate() {
                *out = (0..m).map(|k| inv.data[i * m + k] * rhs[k]).sum();
            }
            let mut lu_x = rhs.clone();
            lu.ftran_in_place(&mut lu_x, &mut scratch);
            for i in 0..m {
                assert!(
                    (lu_x[i] - dense_x[i]).abs() < 1e-8,
                    "seed {seed} ftran row {i}: lu {} dense {}",
                    lu_x[i],
                    dense_x[i]
                );
            }
        }
        assert!(checked > 30, "sweep must exercise many nonsingular bases, got {checked}");
    }

    #[test]
    fn lu_permuted_diagonal() {
        // A permutation matrix with mixed signs exercises the row/col perms.
        let m = 9;
        let mut lu = LuFactors::new();
        assert!(lu.factorize(m, &mut |j, out| {
            let r = (j + 4) % m;
            let s = if j % 2 == 0 { 1.0 } else { -2.0 };
            out.push((r as u32, s));
        }));
        let mut scratch = vec![0.0; m];
        for j in 0..m {
            let mut x = vec![0.0; m];
            let r = (j + 4) % m;
            let s = if j % 2 == 0 { 1.0 } else { -2.0 };
            x[r] = s;
            lu.ftran_in_place(&mut x, &mut scratch);
            for (i, &v) in x.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "col {j} row {i}: {v}");
            }
        }
    }

    #[test]
    fn col_matrix_out_of_order_insert() {
        let mut m = ColMatrix::new(4);
        let j = m.push_col(SparseCol::default());
        m.add_entry(2, j, 1.0);
        m.add_entry(0, j, 3.0);
        m.add_entry(2, j, 1.5);
        let entries: Vec<_> = m.col(j).iter().collect();
        assert_eq!(entries, vec![(0, 3.0), (2, 2.5)]);
    }
}

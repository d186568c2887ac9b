//! Minimal sparse linear-algebra helpers for the simplex engine.
//!
//! The constraint matrix is stored column-major ([`ColMatrix`]) because the
//! revised simplex method consumes columns: pricing needs `y · a_j` per
//! column and FTRAN needs the entering column itself. The basis is held as
//! [`LuFactors`] — a sparse LU factorization `P B Q = L U` with Markowitz
//! ordering and threshold partial pivoting, plus permuted sparse triangular
//! solves for FTRAN/BTRAN. On the hypersparse bases that the Flexile LPs
//! produce the factor nnz stays near the basis nnz, so refactorization and
//! both solves run in roughly O(nnz) instead of O(m²)/O(m³).
//!
//! Markowitz candidates come from count buckets (`ColCounts`): every
//! active column sits in a bitset bucket for its active count, so the 8
//! smallest `(count, column)` pairs read off the lowest non-empty buckets in
//! ascending bit order — `O(m/64)` words per pivot step where a scan of all
//! `m` columns used to be. A candidate whose entries and rows are unchanged
//! since it was last evaluated keeps its best entry instead of being
//! rescanned. Both shortcuts pick exactly the pivot the full scan picks, so
//! the factors are bit-identical to it. The elimination workspace
//! (`LuWork`) is owned by the [`LuFactors`], cleared rather than
//! reallocated per basis, and handed back clean however a call ends.

use std::sync::OnceLock;

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
}

/// Column-major sparse matrix: one [`SparseCol`] per structural variable,
/// with a row-major copy built on first use and dropped by every edit.
#[derive(Debug, Clone, Default)]
pub struct ColMatrix {
    cols: Vec<SparseCol>,
    nrows: usize,
    by_row: OnceLock<RowMatrix>,
}

impl ColMatrix {
    /// Empty matrix with `nrows` rows and no columns.
    pub fn new(nrows: usize) -> Self {
        ColMatrix { cols: Vec::new(), nrows, by_row: OnceLock::new() }
    }

    /// Grow the row dimension (existing columns keep their entries).
    pub fn grow_rows(&mut self, nrows: usize) {
        debug_assert!(nrows >= self.nrows);
        self.by_row.take();
        self.nrows = nrows;
    }

    /// Append a column, returning its index.
    pub fn push_col(&mut self, col: SparseCol) -> usize {
        debug_assert!(col.rows.iter().all(|&r| (r as usize) < self.nrows));
        self.by_row.take();
        self.cols.push(col);
        self.cols.len() - 1
    }

    /// Add `value` at `(row, col)`, extending the column entry list.
    pub fn add_entry(&mut self, row: usize, col: usize, value: f64) {
        if value == 0.0 {
            return;
        }
        debug_assert!(row < self.nrows);
        self.by_row.take();
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

    /// The row-major copy, built on the first call after an edit.
    pub fn by_row(&self) -> &RowMatrix {
        self.by_row.get_or_init(|| RowMatrix::of(self))
    }
}

/// Row-major copy of a [`ColMatrix`]: row `i` lists its non-zero
/// `(column, value)` entries in ascending column order, so a sum over a
/// row's entries adds its terms in the same order as the matching column
/// walks would.
#[derive(Debug, Clone)]
pub struct RowMatrix {
    start: Vec<usize>,
    entries: Vec<(u32, f64)>,
}

impl RowMatrix {
    fn of(a: &ColMatrix) -> Self {
        let mut start = vec![0usize; a.nrows + 1];
        for col in &a.cols {
            for (&r, &v) in col.rows.iter().zip(&col.vals) {
                if v != 0.0 {
                    start[r as usize + 1] += 1;
                }
            }
        }
        for i in 0..a.nrows {
            start[i + 1] += start[i];
        }
        // `start[i]` serves as row i's fill cursor, then shifts back.
        let mut entries = vec![(0u32, 0.0); start[a.nrows]];
        for (j, col) in a.cols.iter().enumerate() {
            for (&r, &v) in col.rows.iter().zip(&col.vals) {
                if v != 0.0 {
                    entries[start[r as usize]] = (j as u32, v);
                    start[r as usize] += 1;
                }
            }
        }
        start.copy_within(0..a.nrows, 1);
        start[0] = 0;
        RowMatrix { start, entries }
    }

    /// Row `i`'s non-zero `(column, value)` entries, columns ascending.
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
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
/// Count buckets of [`ColCounts`]: counts `0..BUCKETS - 1` each have their
/// own, the last holds every larger count. 64 buckets make the non-empty
/// summary one word.
const BUCKETS: usize = 64;

/// Active-column counts of the factorization's active submatrix, with every
/// active column also filed in a bitset bucket by its count. The
/// `MARKOWITZ_CANDIDATES` smallest `(count, column)` pairs then read off the
/// lowest non-empty buckets in ascending bit order, instead of a scan of all
/// `m` columns per pivot. Every count change goes through [`ColCounts::set`],
/// which keeps the bucket in step with the count.
#[derive(Debug, Clone, Default)]
struct ColCounts {
    count: Vec<u32>,
    /// `u64` words per bucket bitset.
    words: usize,
    /// `BUCKETS` bitsets of `words` words each, bucket `b` at `b * words`.
    bits: Vec<u64>,
    /// Members per bucket.
    len: Vec<u32>,
    /// Bit `b` set iff bucket `b` has a member.
    nonempty: u64,
}

impl ColCounts {
    fn bucket(count: u32) -> usize {
        (count as usize).min(BUCKETS - 1)
    }

    /// Size for `m` columns, none of them active yet. Expects every bucket
    /// empty, which each factorization leaves behind (see [`Self::clear`]).
    fn reset(&mut self, m: usize) {
        debug_assert!(self.is_clear());
        self.count.clear();
        self.count.resize(m, 0);
        self.words = m.div_ceil(64);
        self.bits.resize(BUCKETS * self.words, 0);
        self.len.resize(BUCKETS, 0);
    }

    fn get(&self, j: usize) -> u32 {
        self.count[j]
    }

    fn file(&mut self, j: usize, b: usize) {
        self.bits[b * self.words + j / 64] |= 1 << (j % 64);
        self.len[b] += 1;
        self.nonempty |= 1 << b;
    }

    fn unfile(&mut self, j: usize, b: usize) {
        debug_assert!(self.bits[b * self.words + j / 64] & (1 << (j % 64)) != 0);
        self.bits[b * self.words + j / 64] &= !(1 << (j % 64));
        self.len[b] -= 1;
        if self.len[b] == 0 {
            self.nonempty &= !(1 << b);
        }
    }

    /// Make column `j` active with `count`.
    fn activate(&mut self, j: usize, count: u32) {
        self.count[j] = count;
        self.file(j, Self::bucket(count));
    }

    /// Set the count of active column `j`.
    fn set(&mut self, j: usize, count: u32) {
        let (old, new) = (Self::bucket(self.count[j]), Self::bucket(count));
        if old != new {
            self.unfile(j, old);
            self.file(j, new);
        }
        self.count[j] = count;
    }

    /// Column `j` was pivoted: it leaves the active submatrix.
    fn retire(&mut self, j: usize) {
        self.unfile(j, Self::bucket(self.count[j]));
    }

    /// The `k` smallest `(count, column)` pairs among active columns,
    /// ascending, into `out` (ties keep the lower column index).
    fn smallest(&self, k: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut buckets = self.nonempty;
        while buckets != 0 && out.len() < k {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            let members = &self.bits[b * self.words..(b + 1) * self.words];
            if b < BUCKETS - 1 {
                // One count: ascending column order is ascending bit order.
                let mut left = self.len[b];
                for (w, &word) in members.iter().enumerate() {
                    let mut x = word;
                    while x != 0 && out.len() < k {
                        out.push((w * 64) as u32 + x.trailing_zeros());
                        x &= x - 1;
                        left -= 1;
                    }
                    if left == 0 || out.len() == k {
                        break;
                    }
                }
            } else {
                // Mixed large counts: pick each next-smallest pair in turn.
                let mut last: Option<(u32, u32)> = None;
                while out.len() < k {
                    let mut next: Option<(u32, u32)> = None;
                    for (w, &word) in members.iter().enumerate() {
                        let mut x = word;
                        while x != 0 {
                            let j = (w * 64) as u32 + x.trailing_zeros();
                            x &= x - 1;
                            let key = (self.count[j as usize], j);
                            if last.is_none_or(|l| key > l) && next.is_none_or(|n| key < n) {
                                next = Some(key);
                            }
                        }
                    }
                    let Some(key) = next else { break };
                    out.push(key.1);
                    last = Some(key);
                }
            }
        }
    }

    /// Empty every bucket (a factorization that stopped with columns still
    /// active).
    fn clear(&mut self) {
        self.bits.fill(0);
        self.len.fill(0);
        self.nonempty = 0;
    }

    fn is_clear(&self) -> bool {
        self.nonempty == 0 && self.bits.iter().all(|&w| w == 0) && self.len.iter().all(|&n| n == 0)
    }
}

/// Markowitz preference of a pivot candidate over the incumbent: lower cost,
/// then larger magnitude; a tie keeps the incumbent.
fn beats(cost: u64, v: f64, incumbent: Option<(u64, f64)>) -> bool {
    match incumbent {
        None => true,
        Some((bcost, bv)) => cost < bcost || (cost == bcost && v.abs() > bv.abs()),
    }
}

/// Factorization workspace, reused across [`LuFactors::factorize`] calls:
/// cleared (capacity kept) on entry, never reallocated per basis, dropped
/// with its [`LuFactors`]. Between calls `scratch` is all zeros, `mark` all
/// false and every count bucket empty, whichever way the call ended.
#[derive(Debug, Clone, Default)]
struct LuWork {
    /// Active rows with their values.
    rows: Vec<Vec<(u32, f64)>>,
    /// Per column, its (lazily stale) candidate rows.
    col_rows: Vec<Vec<u32>>,
    row_count: Vec<u32>,
    row_done: Vec<bool>,
    cols: ColCounts,
    /// Per column, whether `col_best` still holds: set when the column is
    /// evaluated as a candidate, cleared when any of its entries or their
    /// rows' counts change.
    fresh: Vec<bool>,
    /// Per column, its best pivot `(row, value, cost)` when last evaluated.
    col_best: Vec<(u32, f64, u64)>,
    scratch: Vec<f64>,
    mark: Vec<bool>,
    entries: Vec<(u32, f64)>,
    pattern: Vec<u32>,
    cvals: Vec<(u32, f64)>,
    pivot_entries: Vec<(u32, f64)>,
    cand: Vec<u32>,
    row_pos: Vec<u32>,
    col_pos: Vec<u32>,
}

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
    ws: LuWork,
}

impl LuFactors {
    /// Structural non-zeros in `L + U` (including the unit/diagonal entries).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_rvals.len() + 2 * self.m
    }

    /// Make `self` hold `src`'s factors, reusing `self`'s buffers. The
    /// elimination workspace is not copied: it holds no state between
    /// factorizations, so the copy solves exactly as `src` does.
    pub fn copy_factors_from(&mut self, src: &LuFactors) {
        self.m = src.m;
        self.l_colptr.clone_from(&src.l_colptr);
        self.l_rows.clone_from(&src.l_rows);
        self.l_vals.clone_from(&src.l_vals);
        self.u_diag.clone_from(&src.u_diag);
        self.u_rowptr.clone_from(&src.u_rowptr);
        self.u_cols.clone_from(&src.u_cols);
        self.u_rvals.clone_from(&src.u_rvals);
        self.u_colptr.clone_from(&src.u_colptr);
        self.u_rows.clone_from(&src.u_rows);
        self.u_cvals.clone_from(&src.u_cvals);
        self.rowperm.clone_from(&src.rowperm);
        self.colperm.clone_from(&src.colperm);
    }

    /// Order of the factored basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Factorize the `m × m` matrix whose column `j` is supplied by
    /// `col_of(j, out)` as pushed `(row, value)` entries. Returns `false` if
    /// the matrix is numerically singular.
    pub fn factorize(
        &mut self,
        m: usize,
        col_of: &mut ColSource<'_>,
    ) -> bool {
        let ok = self.eliminate(m, col_of);
        if ok {
            self.lay_out();
        } else {
            self.ws.cols.clear();
        }
        ok
    }

    /// Markowitz elimination. Writes `rowperm`, `colperm`, `u_diag`, `L` in
    /// original row ids and `U` row-wise in original column ids; on `false`
    /// leaves only the count buckets to clear.
    fn eliminate(&mut self, m: usize, col_of: &mut ColSource<'_>) -> bool {
        self.m = m;
        let ws = &mut self.ws;
        // Active submatrix: rows carry values; columns are (lazily stale)
        // lists of candidate rows. Counts are maintained exactly so the
        // Markowitz search never needs to validate a whole column up front.
        ws.rows.truncate(m);
        ws.rows.iter_mut().for_each(Vec::clear);
        ws.rows.resize_with(m, Vec::new);
        ws.col_rows.truncate(m);
        ws.col_rows.iter_mut().for_each(Vec::clear);
        ws.col_rows.resize_with(m, Vec::new);
        for j in 0..m {
            ws.entries.clear();
            col_of(j, &mut ws.entries);
            for &(r, v) in &ws.entries {
                if v != 0.0 {
                    ws.rows[r as usize].push((j as u32, v));
                    ws.col_rows[j].push(r);
                }
            }
        }
        ws.row_count.clear();
        ws.row_count.extend(ws.rows.iter().map(|r| r.len() as u32));
        ws.row_done.clear();
        ws.row_done.resize(m, false);
        ws.fresh.clear();
        ws.fresh.resize(m, false);
        ws.col_best.resize(m, (0, 0.0, 0));
        ws.cols.reset(m);
        for (j, rows) in ws.col_rows.iter().enumerate() {
            ws.cols.activate(j, rows.len() as u32);
        }
        debug_assert!(ws.scratch.iter().all(|&v| v == 0.0) && !ws.mark.contains(&true));
        ws.scratch.resize(m, 0.0);
        ws.mark.resize(m, false);

        self.u_diag.clear();
        self.rowperm.clear();
        self.colperm.clear();
        self.l_colptr.clear();
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_rowptr.clear();
        self.u_cols.clear();
        self.u_rvals.clear();
        self.l_colptr.push(0);
        self.u_rowptr.push(0);

        for _step in 0..m {
            ws.cols.smallest(MARKOWITZ_CANDIDATES, &mut ws.cand);

            // Markowitz cost over the candidates, restricted to entries that
            // pass the stability threshold against their column max.
            let mut best: Option<(u32, u32, f64, u64)> = None; // (col, row, val, cost)
            for &jc in &ws.cand {
                let j = jc as usize;
                if ws.fresh[j] {
                    // Nothing in the column changed since it was last
                    // evaluated: its own best entry stands for all of it.
                    let (r, v, cost) = ws.col_best[j];
                    if beats(cost, v, best.map(|b| (b.3, b.2))) {
                        best = Some((jc, r, v, cost));
                    }
                    continue;
                }
                // Validate + compact the stale row list, collecting values.
                // The list can hold a row twice (entry exactly cancelled,
                // then re-created by fill-in), so dedupe with the `mark`
                // scratch — a duplicate here would later eliminate that row
                // twice and silently corrupt the factors.
                ws.cvals.clear();
                {
                    let cr = &mut ws.col_rows[j];
                    let mut w = 0;
                    for idx in 0..cr.len() {
                        let r = cr[idx];
                        if ws.row_done[r as usize] || ws.mark[r as usize] {
                            continue;
                        }
                        if let Some(&(_, v)) =
                            ws.rows[r as usize].iter().find(|&&(c, _)| c == jc)
                        {
                            ws.mark[r as usize] = true;
                            cr[w] = r;
                            w += 1;
                            ws.cvals.push((r, v));
                        }
                    }
                    cr.truncate(w);
                    for &(r, _) in &ws.cvals {
                        ws.mark[r as usize] = false;
                    }
                }
                ws.cols.set(j, ws.cvals.len() as u32);
                if ws.cvals.is_empty() {
                    return false; // structurally empty active column
                }
                let colmax = ws.cvals.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                if colmax < LU_SINGULAR_TOL {
                    return false;
                }
                let cc = (ws.cvals.len() - 1) as u64;
                let mut own: Option<(u32, f64, u64)> = None;
                let mut nan = false;
                for &(r, v) in &ws.cvals {
                    if v.abs() < MARKOWITZ_TAU * colmax {
                        continue;
                    }
                    nan |= v.is_nan();
                    let cost = (ws.row_count[r as usize].saturating_sub(1)) as u64 * cc;
                    if beats(cost, v, best.map(|b| (b.3, b.2))) {
                        best = Some((jc, r, v, cost));
                    }
                    if beats(cost, v, own.map(|o| (o.2, o.1))) {
                        own = Some((r, v, cost));
                    }
                }
                // A NaN breaks the order `beats` relies on to stand one
                // entry for the column, so such a column is always rescanned.
                if let (Some(o), false) = (own, nan) {
                    ws.col_best[j] = o;
                    ws.fresh[j] = true;
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
            ws.row_done[pru] = true;
            ws.cols.retire(pcu);

            // Rows to eliminate: the pivot column's live entries (list was
            // just compacted while evaluating the candidate).
            ws.pivot_entries.clear();
            for &r in &ws.col_rows[pcu] {
                if r == pr {
                    continue;
                }
                if let Some(&(_, v)) = ws.rows[r as usize].iter().find(|&&(c, _)| c == pc) {
                    ws.pivot_entries.push((r, v));
                }
            }

            // The pivot row, less its pivot entry, is this step's row of U.
            let ustart = self.u_cols.len();
            for &(c, v) in &ws.rows[pru] {
                if c != pc {
                    self.u_cols.push(c);
                    self.u_rvals.push(v);
                    let cu = c as usize;
                    ws.cols.set(cu, ws.cols.get(cu) - 1); // pivot row leaves column c
                    ws.fresh[cu] = false;
                }
            }
            ws.rows[pru].clear();
            let urow = || self.u_cols[ustart..].iter().zip(&self.u_rvals[ustart..]);

            let inv_apq = 1.0 / apq;
            for &(r, arv) in &ws.pivot_entries {
                let ru = r as usize;
                let l = arv * inv_apq;
                self.l_rows.push(r);
                self.l_vals.push(l);
                // row_r ← row_r − l · pivot_row, dropping the pivot-column
                // entry exactly (no float cancellation residue).
                ws.pattern.clear();
                for &(c, v) in &ws.rows[ru] {
                    if c == pc {
                        continue;
                    }
                    let cu = c as usize;
                    ws.scratch[cu] = v;
                    ws.mark[cu] = true;
                    ws.pattern.push(c);
                }
                for (&c, &v) in urow() {
                    let cu = c as usize;
                    if !ws.mark[cu] {
                        ws.mark[cu] = true;
                        ws.scratch[cu] = 0.0;
                        ws.pattern.push(c);
                        ws.col_rows[cu].push(r); // fill-in
                        ws.cols.set(cu, ws.cols.get(cu) + 1);
                    }
                    ws.scratch[cu] -= l * v;
                }
                let row = &mut ws.rows[ru];
                row.clear();
                for &c in &ws.pattern {
                    let cu = c as usize;
                    ws.mark[cu] = false;
                    ws.fresh[cu] = false; // value or row count changed
                    let v = ws.scratch[cu];
                    ws.scratch[cu] = 0.0;
                    if v != 0.0 {
                        row.push((c, v));
                    } else {
                        ws.cols.set(cu, ws.cols.get(cu) - 1); // exact cancellation
                    }
                }
                ws.row_count[ru] = row.len() as u32;
            }
            self.l_colptr.push(self.l_rows.len());
            self.u_rowptr.push(self.u_cols.len());
        }
        true
    }

    /// Remap `L`/`U` from original ids to pivot-order positions and build
    /// the column-wise copy of `U`.
    fn lay_out(&mut self) {
        let m = self.m;
        let ws = &mut self.ws;
        ws.row_pos.resize(m, 0);
        ws.col_pos.resize(m, 0);
        for k in 0..m {
            ws.row_pos[self.rowperm[k] as usize] = k as u32;
            ws.col_pos[self.colperm[k] as usize] = k as u32;
        }
        for r in &mut self.l_rows {
            *r = ws.row_pos[*r as usize];
        }
        for c in &mut self.u_cols {
            *c = ws.col_pos[*c as usize];
        }
        // Column-wise copy of U via counting sort (rows stay ascending):
        // `u_colptr[c]` serves as column c's fill cursor, then shifts back.
        let unnz = self.u_cols.len();
        self.u_colptr.clear();
        self.u_colptr.resize(m + 1, 0);
        for &c in &self.u_cols {
            self.u_colptr[c as usize + 1] += 1;
        }
        for k in 0..m {
            self.u_colptr[k + 1] += self.u_colptr[k];
        }
        self.u_rows.clear();
        self.u_rows.resize(unnz, 0);
        self.u_cvals.clear();
        self.u_cvals.resize(unnz, 0.0);
        for k in 0..m {
            for idx in self.u_rowptr[k]..self.u_rowptr[k + 1] {
                let c = self.u_cols[idx] as usize;
                let p = self.u_colptr[c];
                self.u_rows[p] = k as u32;
                self.u_cvals[p] = self.u_rvals[idx];
                self.u_colptr[c] += 1;
            }
        }
        self.u_colptr.copy_within(0..m, 1);
        self.u_colptr[0] = 0;
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
    use crate::dense::DenseMat;

    #[test]
    fn sparse_col_merges_duplicates_and_drops_zeros() {
        let c = SparseCol::from_entries(vec![(3, 1.0), (1, 2.0), (3, -1.0), (0, 5.0)]);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(0, 5.0), (1, 2.0)]);
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
        let mut lu = LuFactors::default();
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
        let mut lu = LuFactors::default();
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
        let mut lu = LuFactors::default();
        let ok = lu.factorize(m, &mut |j, out| {
            let jj = if j == m - 1 { 0 } else { j };
            out.push((jj as u32, 1.0));
            out.push((((jj + 1) % m) as u32, 1.0));
        });
        assert!(!ok, "rank-deficient matrix must be rejected");
        // An exactly-zero column as well.
        let mut lu2 = LuFactors::default();
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
            let mut lu = LuFactors::default();
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
        let mut lu = LuFactors::default();
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

    /// Every word of a factorization: its outcome and, on success, the
    /// permutations, the bits of `U`'s diagonal and every `L`/`U` index and
    /// value. Two factorizations are bit-identical iff their snapshots are.
    fn snapshot(lu: &LuFactors, ok: bool) -> Vec<u64> {
        let mut s = vec![ok as u64, lu.m as u64];
        if !ok {
            return s;
        }
        let idx = [&lu.rowperm, &lu.colperm, &lu.l_rows, &lu.u_cols, &lu.u_rows];
        for v in idx {
            s.push(v.len() as u64);
            s.extend(v.iter().map(|&x| x as u64));
        }
        for v in [&lu.l_colptr, &lu.u_rowptr, &lu.u_colptr] {
            s.push(v.len() as u64);
            s.extend(v.iter().map(|&x| x as u64));
        }
        for v in [&lu.u_diag, &lu.l_vals, &lu.u_rvals, &lu.u_cvals] {
            s.push(v.len() as u64);
            s.extend(v.iter().map(|x| x.to_bits()));
        }
        s
    }

    /// FNV-1a over the snapshot words, for a golden value.
    fn fnv(words: &[u64], mut h: u64) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A basis as its columns' `(row, value)` entries.
    type Basis = Vec<Vec<(u32, f64)>>;

    struct Lcg(u64);
    impl Lcg {
        fn new(seed: u64) -> Self {
            Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
        }
        /// Uniform in [0, 1).
        fn f(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Uniform in 0..n.
        fn below(&mut self, n: usize) -> usize {
            (self.f() * n as f64) as usize % n
        }
    }

    /// Simplex-shaped basis: ~88% unit (slack) columns on a random row
    /// permutation, the rest structural columns with a "diagonal" entry on
    /// their own row plus a few 0/1-heavy off-diagonals, columns shuffled.
    fn slack_basis(m: usize, g: &mut Lcg) -> Basis {
        let mut perm: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            perm.swap(i, g.below(i + 1));
        }
        let mut cols: Vec<Vec<(u32, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(perm[j], if g.f() < 0.9 { 1.0 } else { -1.0 })];
                if g.f() >= 0.88 {
                    col[0].1 = if g.f() < 0.7 { 1.0 } else { 0.5 + g.f() * 40.0 };
                    for _ in 0..1 + g.below(4) {
                        let r = g.below(m) as u32;
                        if !col.iter().any(|&(rr, _)| rr == r) {
                            let v = if g.f() < 0.7 { 1.0 } else { -(1.0 + g.f() * 99.0) };
                            col.push((r, v));
                        }
                    }
                }
                col
            })
            .collect();
        for i in (1..m).rev() {
            cols.swap(i, g.below(i + 1));
        }
        cols
    }

    /// Small 0/1-heavy network basis whose eliminations cancel exactly and
    /// then refill (the `lu_survives_exact_cancellation_then_fill_in` shape),
    /// with a unit entry on each column's own row so most bases factor.
    fn cancel_basis(m: usize, g: &mut Lcg) -> Basis {
        (0..m)
            .map(|j| {
                let mut col = vec![(j as u32, 1.0)];
                for _ in 0..1 + g.below(4) {
                    let r = g.below(m) as u32;
                    if !col.iter().any(|&(rr, _)| rr == r) {
                        let v = if g.f() < 0.85 { 1.0 } else { g.f() * 2.0 - 1.0 };
                        col.push((r, v));
                    }
                }
                col.sort_by_key(|&(r, _)| r);
                col
            })
            .collect()
    }

    /// Diagonally dominant sparse basis with one fully dense column.
    fn dense_col_basis(m: usize, g: &mut Lcg) -> Basis {
        let mut cols = test_matrix(m, g.0);
        let d = g.below(m);
        cols[d] = (0..m as u32).map(|r| (r, g.f() * 2.0 - 1.0)).collect();
        cols[d][d].1 += 8.0;
        cols
    }

    /// A slack-shaped basis made singular one of four ways: an empty column,
    /// a column of tiny entries, a repeated column, or an empty row.
    fn singular_basis(m: usize, g: &mut Lcg, kind: usize) -> Basis {
        let mut cols = if kind.is_multiple_of(2) { slack_basis(m, g) } else { cancel_basis(m, g) };
        let a = g.below(m);
        let b = (a + 1 + g.below(m - 1)) % m;
        match kind {
            0 => cols[a].clear(),
            1 => {
                let r = g.below(m);
                cols[a] = vec![(r as u32, 1e-13), (((r + 1) % m) as u32, -3e-12)];
            }
            2 => cols[b] = cols[a].clone(),
            _ => {
                let r = g.below(m) as u32;
                for col in &mut cols {
                    col.retain(|&(rr, _)| rr != r);
                }
            }
        }
        cols
    }

    /// The four golden shapes, 100 seeded bases each, as `(singular, basis)`.
    fn golden_bases() -> Vec<(bool, Basis)> {
        let mut out = Vec::new();
        for seed in 0..100u64 {
            let mut g = Lcg::new(seed);
            let m = 20 + g.below(200);
            out.push((false, slack_basis(m, &mut g)));
            let m = 4 + g.below(14);
            out.push((false, cancel_basis(m, &mut g)));
            let m = 10 + g.below(110);
            out.push((false, dense_col_basis(m, &mut g)));
            let m = 5 + g.below(60);
            out.push((true, singular_basis(m, &mut g, seed as usize % 4)));
        }
        out
    }

    #[test]
    fn lu_pivot_order_is_pinned() {
        // Golden hash of every factor word over 400 seeded bases. A change
        // here means the Markowitz pivot order (or the arithmetic) moved,
        // which moves every LP's pivot sequence and every count downstream.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut factored = 0;
        for (i, (singular, cols)) in golden_bases().iter().enumerate() {
            let mut lu = LuFactors::default();
            let ok = lu.factorize(cols.len(), &mut |j, out| out.extend_from_slice(&cols[j]));
            assert!(!(ok && *singular), "singular basis {i} factored");
            factored += usize::from(ok);
            h = fnv(&snapshot(&lu, ok), h);
        }
        assert!(factored > 250, "most bases must factor, got {factored}");
        assert_eq!(h, 0x835d_ac93_cefd_249e, "pivot-order golden hash");
    }

    #[test]
    fn count_buckets_yield_the_smallest_pairs() {
        // Random activations, count changes across the exact buckets and the
        // shared large-count bucket, and retirements: the candidates must
        // always be the smallest `(count, column)` pairs of a full sort.
        let mut g = Lcg::new(5);
        let mut cc = ColCounts::default();
        let mut cand = Vec::new();
        for round in 0..40 {
            let m = 1 + g.below(300);
            cc.reset(m);
            let mut active: Vec<bool> = vec![true; m];
            // A third of the counts land in the shared large-count bucket.
            let count = |g: &mut Lcg| {
                (if g.f() < 0.3 { 50 + g.below(100) } else { g.below(6) }) as u32
            };
            for j in 0..m {
                let c = count(&mut g);
                cc.activate(j, c);
            }
            for _ in 0..4 * m {
                let j = g.below(m);
                if active[j] {
                    if g.f() < 0.1 {
                        cc.retire(j);
                        active[j] = false;
                    } else {
                        let c = count(&mut g);
                        cc.set(j, c);
                    }
                }
                cc.smallest(MARKOWITZ_CANDIDATES, &mut cand);
                let mut want: Vec<(u32, u32)> =
                    (0..m).filter(|&j| active[j]).map(|j| (cc.get(j), j as u32)).collect();
                want.sort_unstable();
                let want: Vec<u32> =
                    want.iter().take(MARKOWITZ_CANDIDATES).map(|&(_, j)| j).collect();
                assert_eq!(cand, want, "round {round}");
            }
            if round % 2 == 0 {
                cc.clear();
            } else {
                (0..m).filter(|&j| active[j]).for_each(|j| cc.retire(j));
            }
            assert!(cc.is_clear(), "round {round}");
        }
    }

    #[test]
    fn lu_workspace_reuse_matches_fresh_factors() {
        // One `LuFactors` runs bases that fail at both reachable exits (an
        // empty active column, a numerically tiny one), at the first step
        // and deep into the elimination, between nonsingular bases of
        // larger and smaller `m`. Each result must be bit-identical to a
        // fresh `LuFactors`, and each call must hand its workspace back clean.
        // (The third exit, no candidate entry passing the threshold, cannot
        // fire: a column's largest entry always passes.)
        let unit = |m: usize| -> Basis {
            (0..m).map(|j| vec![(j as u32, 1.0)]).collect()
        };
        let pair = |second: f64| {
            let mut cols = unit(4);
            cols[0] = vec![(0, 1.0), (1, 1.0)];
            cols[1] = vec![(0, 1.0), (1, second)];
            cols
        };
        let mut empty_first = unit(6);
        empty_first[3].clear();
        let mut tiny_first = unit(5);
        tiny_first[2] = vec![(2, 1e-13)];
        let mut g = Lcg::new(99);
        // (basis, pivot steps completed before the exit; `None` = factors)
        let sequence: Vec<(Basis, Option<usize>)> = vec![
            (tiny_first, Some(0)),
            (slack_basis(150, &mut g), None),
            (empty_first, Some(0)),
            (cancel_basis(7, &mut g), None),
            (pair(1.0 + 1e-13), Some(3)), // cancels to ~1e-13
            (dense_col_basis(60, &mut g), None),
            (pair(1.0), Some(3)), // cancels exactly to an empty column
            (slack_basis(200, &mut g), None),
            (cancel_basis(12, &mut g), None),
        ];
        let mut lu = LuFactors::default();
        for (i, (cols, fails_at)) in sequence.iter().enumerate() {
            let m = cols.len();
            let ok = lu.factorize(m, &mut |j, out| out.extend_from_slice(&cols[j]));
            let mut fresh = LuFactors::default();
            let ok_fresh = fresh.factorize(m, &mut |j, out| out.extend_from_slice(&cols[j]));
            assert_eq!(ok, fails_at.is_none(), "basis {i}");
            assert_eq!(snapshot(&lu, ok), snapshot(&fresh, ok_fresh), "basis {i}");
            if let Some(step) = fails_at {
                assert_eq!(lu.rowperm.len(), *step, "basis {i} exit step");
                assert_eq!(fresh.rowperm.len(), *step, "basis {i} exit step");
            }
            let ws = &lu.ws;
            assert!(ws.scratch.iter().all(|&v| v == 0.0), "basis {i}: scratch");
            assert!(!ws.mark.contains(&true), "basis {i}: mark");
            assert!(ws.cols.is_clear(), "basis {i}: count buckets");
        }
    }

    #[test]
    fn row_copy_sums_match_column_dots_bitwise() {
        // alpha_j = ρ·a_j summed row by row over the non-zeros of ρ must
        // equal the column walk to the bit: out-of-order inserts, merged
        // duplicates that cancel to an explicit zero, ±0 entries of ρ.
        let mut g = Lcg::new(17);
        for round in 0..50 {
            let (m, n) = (1 + g.below(30), 1 + g.below(40));
            let mut a = ColMatrix::new(m);
            for _ in 0..n {
                a.push_col(SparseCol::default());
            }
            for _ in 0..3 * n {
                let (r, j) = (g.below(m), g.below(n));
                let v = (g.f() - 0.5) * 8.0;
                a.add_entry(r, j, v);
                if g.f() < 0.1 {
                    a.add_entry(r, j, -v);
                }
            }
            let rho: Vec<f64> = (0..m)
                .map(|_| match g.below(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (g.f() - 0.5) * 1e3,
                })
                .collect();
            let mut by_row = vec![0.0; n];
            for (i, &ri) in rho.iter().enumerate() {
                if ri != 0.0 {
                    for &(j, v) in a.by_row().row(i) {
                        by_row[j as usize] += ri * v;
                    }
                }
            }
            for (j, &got) in by_row.iter().enumerate() {
                let mut want = 0.0;
                for (r, v) in a.col(j).iter() {
                    want += rho[r] * v;
                }
                assert_eq!(got.to_bits(), want.to_bits(), "round {round} column {j}");
            }
        }
    }

    #[test]
    fn an_edit_drops_the_row_copy() {
        let mut a = ColMatrix::new(2);
        let j = a.push_col(SparseCol::default());
        a.add_entry(1, j, 2.0);
        assert_eq!(a.by_row().row(1), &[(0, 2.0)]);
        a.add_entry(0, j, 3.0);
        assert_eq!(a.by_row().row(0), &[(0, 3.0)]);
        let k = a.push_col(SparseCol::default());
        a.add_entry(1, k, -1.0);
        assert_eq!(a.by_row().row(1), &[(0, 2.0), (1, -1.0)]);
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

//! `lp_basis` — dense explicit-inverse vs sparse-LU basis engine benchmark.
//!
//! Two sections, both CSV on stdout:
//!
//! * `kernel` rows time the basis kernels in isolation on synthetic
//!   network-style sparse bases (diagonally dominant, 0/1-heavy off-diagonal
//!   pattern): one refactorization plus a fixed budget of FTRAN/BTRAN solves
//!   per engine, for `m ∈ {100, 500, 1000}`.
//! * `solve` rows time the full simplex on min-MLU routing LPs (the same LP
//!   class [`flexile_traffic::mlu::min_mlu`] solves) over Sprint plus the
//!   three largest Table-2 topologies, once per engine. Iteration counts are
//!   printed so CI can assert the pivot sequence is deterministic.
//!
//! Under `repro --obs DIR` the run also lands the `lp.*` solver counters and
//! histograms (`lp.lu_fill`, `lp.eta_nnz`, `lp.ftran_nnz`, …) in
//! `BENCH_lp_basis.json`.

use crate::ExpConfig;
use flexile_lp::sparse::{DenseMat, LuFactors, SparseCol};
use flexile_lp::{solve_robust, EngineKind, Model, Sense, SimplexOptions};
use flexile_topo::{topology_by_name, Topology, TunnelSet};
use flexile_traffic::Instance;
use std::time::Instant;

/// Kernel sizes for the synthetic-basis section.
const KERNEL_SIZES: [usize; 3] = [100, 500, 1000];
/// Triangular solves timed per engine per size.
const KERNEL_SOLVES: usize = 200;
/// Sprint (the harness default) plus the three largest Table-2 topologies.
const SOLVE_TOPOLOGIES: [&str; 4] = ["Sprint", "BTNorthAmerica", "Tinet", "Deltacom"];

fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Deterministic sparse basis in the shape the simplex produces on network
/// LPs: unit diagonal dominance, a few mostly-`1.0` off-diagonal entries.
fn synthetic_basis(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
    let mut st = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut cols = Vec::with_capacity(m);
    for j in 0..m {
        let mut col = vec![(j as u32, 4.0 + lcg(&mut st))];
        for _ in 0..3 {
            let r = (lcg(&mut st) * m as f64) as usize % m;
            if r != j && !col.iter().any(|&(rr, _)| rr as usize == r) {
                let v = if lcg(&mut st) < 0.7 { 1.0 } else { lcg(&mut st) * 2.0 - 1.0 };
                col.push((r as u32, v));
            }
        }
        col.sort_by_key(|&(r, _)| r);
        cols.push(col);
    }
    cols
}

/// One kernel row: factor the same basis with both engines, then run the
/// same FTRAN/BTRAN budget through each. Returns CSV.
fn kernel_row(m: usize, seed: u64) -> String {
    let cols = synthetic_basis(m, seed);
    let rhs: Vec<SparseCol> = (0..KERNEL_SOLVES)
        .map(|k| {
            let mut st = seed.wrapping_add(k as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
            let mut entries = Vec::new();
            for _ in 0..4 {
                let r = (lcg(&mut st) * m as f64) as usize % m;
                entries.push((r as u32, lcg(&mut st) * 2.0 - 1.0));
            }
            SparseCol::from_entries(entries)
        })
        .collect();

    let t0 = Instant::now();
    let mut inv = DenseMat::identity(m);
    assert!(inv.invert_from_columns(m, |j, out| {
        for &(r, v) in &cols[j] {
            out[r as usize] += v;
        }
    }));
    let dense_factor_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut lu = LuFactors::new();
    assert!(lu.factorize(m, &mut |j, out| out.extend_from_slice(&cols[j])));
    let lu_factor_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Dense FTRAN+BTRAN: explicit inverse-vector products, O(m²) each.
    let mut x = vec![0.0; m];
    let mut y = vec![0.0; m];
    let mut sink = 0.0f64;
    let t0 = Instant::now();
    for col in &rhs {
        inv.mul_sparse(col, &mut x);
        inv.pre_mul_dense(&x, &mut y);
        sink += y[0];
    }
    let dense_solve_ms = t0.elapsed().as_secs_f64() * 1e3;

    // LU FTRAN+BTRAN: permuted sparse triangular solves.
    let mut scratch = vec![0.0; m];
    let t0 = Instant::now();
    for col in &rhs {
        x.iter_mut().for_each(|v| *v = 0.0);
        for (r, v) in col.iter() {
            x[r] = v;
        }
        lu.ftran_in_place(&mut x, &mut scratch);
        y.copy_from_slice(&x);
        lu.btran_in_place(&mut y, &mut scratch);
        sink += y[0];
    }
    let lu_solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);

    let fill = lu.nnz() as f64 / m as f64;
    format!(
        "kernel,{m},{dense_factor_ms:.3},{lu_factor_ms:.3},{dense_solve_ms:.3},\
         {lu_solve_ms:.3},{fill:.2}"
    )
}

/// Build the min-MLU routing LP for `inst` (mirrors
/// [`flexile_traffic::mlu::min_mlu`], which does not expose engine choice).
pub fn mlu_model(topo: &Topology, tunnels: &TunnelSet, demands: &[f64]) -> Model {
    let mut m = Model::new(Sense::Min);
    let mlu = m.add_var("mlu", 0.0, f64::INFINITY, 1.0);
    let num_arcs = 2 * topo.num_links();
    let mut arc_terms: Vec<Vec<(flexile_lp::VarId, f64)>> = vec![Vec::new(); num_arcs];
    for (p, ts) in tunnels.tunnels.iter().enumerate() {
        if demands[p] <= 0.0 {
            continue;
        }
        let vars: Vec<_> = ts
            .iter()
            .enumerate()
            .map(|(t, path)| {
                let v = m.add_var(&format!("x_{p}_{t}"), 0.0, f64::INFINITY, 0.0);
                for (i, &l) in path.links.iter().enumerate() {
                    let link = topo.link(l);
                    let a = if link.a == path.nodes[i] { 2 * l.index() } else { 2 * l.index() + 1 };
                    arc_terms[a].push((v, 1.0));
                }
                v
            })
            .collect();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_row_eq(&coeffs, demands[p]);
    }
    for (a, terms) in arc_terms.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        let cap = topo.link(flexile_topo::LinkId((a / 2) as u32)).capacity;
        let mut coeffs = terms;
        coeffs.push((mlu, -cap));
        m.add_row_le(&coeffs, 0.0);
    }
    m
}

/// End-to-end rows for one topology: the same LP solved cold by each engine.
fn solve_rows(name: &str, cfg: &ExpConfig, out: &mut Vec<String>) {
    let Some(topo) = topology_by_name(name) else {
        cfg.progress(format!("lp_basis: unknown topology {name}, skipped"));
        return;
    };
    // Sprint keeps the harness default pair cap; the large topologies get
    // enough pairs to push the basis dimension past 500 rows.
    let pairs_cap = if name == "Sprint" { cfg.max_pairs } else { Some(500) };
    let inst = Instance::single_class(topo, cfg.traffic_seed(name), cfg.target_mlu, pairs_cap);
    let model = mlu_model(&inst.topo, &inst.tunnels[0], &inst.demands[0]);
    let rows = model.num_rows();
    let ncols = model.num_vars();
    for (label, engine) in [("dense", EngineKind::Dense), ("lu", EngineKind::SparseLu)] {
        let opts = SimplexOptions { engine, ..SimplexOptions::default() };
        let t0 = Instant::now();
        let robust = solve_robust(&model, &opts, None);
        // Rungs 3-4 run on the dense engine; a row labelled `lu` must
        // time the sparse-LU engine only.
        assert!(
            robust.report.attempts.iter().all(|a| a.rung.on_caller_engine()),
            "{label} solve on {name} left its engine: {:?}",
            robust.report.attempts
        );
        let sol = robust.result.expect("min-MLU LP must solve");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push(format!(
            "solve,{name},{rows},{ncols},{label},{wall_ms:.3},{},{:.9}",
            sol.iterations, sol.objective
        ));
    }
}

/// Run the `lp_basis` experiment. `limit` caps the number of end-to-end
/// topologies (Sprint, BTNorthAmerica, Tinet, Deltacom in that order, so
/// `--limit 1` is a Sprint-only smoke run). CSV schema:
///
/// ```text
/// kernel,m,dense_factor_ms,lu_factor_ms,dense_solve_ms,lu_solve_ms,lu_fill
/// solve,topology,rows,cols,engine,wall_ms,iters,objective
/// ```
pub fn run_lp_basis(cfg: &ExpConfig, limit: usize) {
    println!("section,key,a,b,c,d,e");
    for &m in &KERNEL_SIZES {
        cfg.progress(format!("lp_basis: kernel m={m}"));
        println!("{}", kernel_row(m, cfg.seed));
    }
    let mut rows = Vec::new();
    for name in SOLVE_TOPOLOGIES.iter().take(limit.max(1)) {
        cfg.progress(format!("lp_basis: solving min-MLU on {name}"));
        solve_rows(name, cfg, &mut rows);
    }
    for r in rows {
        println!("{r}");
    }
}

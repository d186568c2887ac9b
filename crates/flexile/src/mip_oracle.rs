//! Brute-force oracle for the branch-and-bound callers (tests only): every
//! assignment of a model's integer columns is fixed in turn and the
//! continuous rest solved as an LP, so the optimum it finds shares no
//! code with the search in `flexile_lp::solve_mip`.

use flexile_lp::{solve_mip, LpError, MipOptions, MipStatus, Model, Sense};
use std::time::Duration;

/// Optimum of `m` by enumerating its integer columns; `None` when no
/// assignment is feasible.
pub(crate) fn brute_force(m: &Model) -> Option<f64> {
    let ints = m.integer_vars();
    let ranges: Vec<(f64, f64)> = ints
        .iter()
        .map(|&v| {
            let (lo, hi) = m.bounds(v);
            (lo.ceil(), hi.floor())
        })
        .collect();
    let mut point: Vec<f64> = ranges.iter().map(|r| r.0).collect();
    let mut work = m.clone();
    let mut best: Option<f64> = None;
    loop {
        for (&v, &x) in ints.iter().zip(&point) {
            work.set_bounds(v, x, x);
        }
        match work.solve() {
            Ok(sol) => {
                let better = best.is_none_or(|b| match m.sense() {
                    Sense::Min => sol.objective < b,
                    Sense::Max => sol.objective > b,
                });
                if better {
                    best = Some(sol.objective);
                }
            }
            Err(LpError::Infeasible) => {}
            Err(e) => panic!("enumerated LP failed: {e}"),
        }
        // Next assignment, odometer order.
        let mut i = 0;
        loop {
            if i == point.len() {
                return best;
            }
            if point[i] < ranges[i].1 {
                point[i] += 1.0;
                break;
            }
            point[i] = ranges[i].0;
            i += 1;
        }
    }
}

/// `solve_mip` proves the enumerated optimum (or infeasibility) with an
/// ample budget, and with a two-node budget still returns a feasible point
/// with `bound ≤ optimum ≤ objective` (in Min form).
pub(crate) fn assert_solve_mip_matches(m: &Model) {
    let opt = brute_force(m);
    let ample = MipOptions {
        max_nodes: usize::MAX,
        time_limit: Duration::from_secs(600),
        ..MipOptions::default()
    };
    let r = solve_mip(m, &ample).expect("MIP solves");
    match opt {
        None => assert_eq!(r.status, MipStatus::Infeasible),
        Some(opt) => {
            assert_eq!(r.status, MipStatus::Optimal);
            assert!(
                (r.objective - opt).abs() <= 1e-6,
                "{} vs enumerated {opt}",
                r.objective
            );
        }
    }

    let r = solve_mip(
        m,
        &MipOptions {
            max_nodes: 2,
            ..MipOptions::default()
        },
    )
    .expect("MIP solves");
    let sign = match m.sense() {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    match (r.status, opt) {
        (MipStatus::Infeasible, opt) => assert!(opt.is_none(), "feasible MIP reported infeasible"),
        (MipStatus::Unknown, _) => assert_eq!(r.nodes, 2),
        (status, Some(opt)) => {
            assert!(m.max_violation(&r.x) <= 1e-7);
            assert!(
                sign * r.bound <= sign * opt + 1e-6,
                "bound {} vs optimum {opt}",
                r.bound
            );
            assert!(
                sign * opt <= sign * r.objective + 1e-6,
                "incumbent {} vs optimum {opt}",
                r.objective
            );
            if status == MipStatus::Optimal {
                assert!((r.objective - opt).abs() <= 1e-6);
            }
        }
        (status, None) => panic!("{status:?} for an infeasible MIP"),
    }
}

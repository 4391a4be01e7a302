//! Crossover analysis: at which query frequency does each strategy take
//! the lead?
//!
//! Fig. 1 shows `noIndex` crossing `indexAll` somewhere between 1/600 and
//! 1/1800; Fig. 4 implies the selection algorithm crosses `indexAll`
//! between 1/120 and 1/300. These solvers locate the crossings exactly,
//! which makes the figure shapes testable as numbers.

use crate::params::Scenario;
use crate::selection::SelectionModel;
use crate::strategy::StrategyCosts;
use pdht_types::Result;

/// Bisection iterations — 64 halvings of an fQry interval is far below
/// f64 resolution.
const ITERS: u32 = 64;

/// Finds the query frequency in `[lo, hi]` where `f(fQry)` changes sign,
/// assuming it is monotone on the interval. Returns `None` unless the
/// endpoint values have strictly opposite signs — an endpoint *touching*
/// zero (e.g. ideal partial degenerating into the full index) is not a
/// crossing.
fn bisect_sign_change<F: Fn(f64) -> f64>(mut lo: f64, mut hi: f64, f: F) -> Option<f64> {
    let (flo, fhi) = (f(lo), f(hi));
    if !(flo < 0.0 && fhi > 0.0 || flo > 0.0 && fhi < 0.0) {
        return None;
    }
    for _ in 0..ITERS {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 {
            return Some(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// The frequency where `noIndex` and `indexAll` cost the same (Fig. 1's
/// visual crossover). `None` if they never cross on the searched interval
/// `[1/100000, 1]`.
///
/// # Errors
/// Propagates model-evaluation failures.
pub fn no_index_vs_index_all(s: &Scenario) -> Result<Option<f64>> {
    // Validate evaluability at the endpoints up front, then bisect with a
    // panic-free closure (costs are total functions once validated).
    StrategyCosts::evaluate(s, 1e-5)?;
    StrategyCosts::evaluate(s, 1.0)?;
    let diff = |f_qry: f64| {
        let c = StrategyCosts::evaluate(s, f_qry).expect("validated domain");
        c.no_index - c.index_all
    };
    Ok(bisect_sign_change(1e-5, 1.0, diff))
}

/// The frequency where the **selection algorithm** stops beating
/// `indexAll` (Fig. 4's zero crossing of the solid line).
///
/// # Errors
/// Propagates model-evaluation failures.
pub fn selection_vs_index_all(s: &Scenario) -> Result<Option<f64>> {
    SelectionModel::evaluate(s, 1e-5)?;
    SelectionModel::evaluate(s, 1.0)?;
    let diff = |f_qry: f64| {
        let m = SelectionModel::evaluate(s, f_qry).expect("validated domain");
        m.total_cost - m.index_all
    };
    Ok(bisect_sign_change(1e-5, 1.0, diff))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_crossover_lands_between_600_and_1800() {
        let s = Scenario::table1();
        let f = no_index_vs_index_all(&s).unwrap().expect("must cross");
        let period = 1.0 / f;
        assert!(
            (600.0..1800.0).contains(&period),
            "crossover at 1/{period:.0}, expected between 1/600 and 1/1800"
        );
    }

    #[test]
    fn fig4_crossover_lands_between_120_and_300() {
        let s = Scenario::table1();
        let f = selection_vs_index_all(&s).unwrap().expect("must cross");
        let period = 1.0 / f;
        assert!(
            (120.0..300.0).contains(&period),
            "selection crossover at 1/{period:.0}, expected between 1/120 and 1/300"
        );
    }

    #[test]
    fn crossovers_shift_with_replication() {
        // Cheaper broadcasts (higher repl) push the noIndex/indexAll
        // crossover towards *busier* frequencies (shorter periods).
        let base = Scenario::table1();
        let heavy = Scenario { repl: 200, stor: 400, ..base.clone() };
        let f_base = no_index_vs_index_all(&base).unwrap().unwrap();
        let f_heavy = no_index_vs_index_all(&heavy).unwrap().unwrap();
        assert!(
            f_heavy > f_base,
            "repl 200 should move the crossover to higher frequencies: {f_heavy} vs {f_base}"
        );
    }

    #[test]
    fn bisect_helper_behaviour() {
        assert!(bisect_sign_change(0.0, 1.0, |x| x - 2.0).is_none());
        let root = bisect_sign_change(0.0, 1.0, |x| x - 0.25).unwrap();
        assert!((root - 0.25).abs() < 1e-12);
    }
}

//! Cross-crate consistency of the analytical model: the strategy evaluator
//! and the selection model (whose sweeps are the paper's figures) must
//! agree with the primitive equations, across scenario perturbations — not
//! just at the Table 1 point.

use pdht::model::params::QUERY_FREQ_SWEEP;
use pdht::model::{CostModel, IdealPartial, Scenario, SelectionModel, StrategyCosts};
use pdht::zipf::RoundModel;
use proptest::prelude::*;

#[test]
fn strategy_costs_decompose_into_primitives() {
    let s = Scenario::table1();
    let cost = CostModel::new(&s);
    for &f_qry in &QUERY_FREQ_SWEEP {
        let c = StrategyCosts::evaluate(&s, f_qry).unwrap();
        let q = s.queries_per_round(f_qry);

        // Eq. 12 exactly.
        assert!((c.no_index - q * cost.c_s_unstr()).abs() < 1e-9);

        // Eq. 11 exactly.
        let nap = cost.num_active_peers(f64::from(s.keys));
        let expect =
            f64::from(s.keys) * cost.c_ind_key(nap, f64::from(s.keys)) + q * cost.c_s_indx(nap);
        assert!((c.index_all - expect).abs() < 1e-9);

        // Eq. 13 from the fixed-point solution.
        let ideal = &c.ideal;
        let expect = f64::from(ideal.max_rank) * ideal.c_ind_key
            + ideal.p_indexed * q * ideal.c_s_indx
            + (1.0 - ideal.p_indexed) * q * cost.c_s_unstr();
        assert!((c.partial_ideal - expect).abs() < 1e-9);
    }
}

#[test]
fn selection_model_reconstructs_eq17() {
    let s = Scenario::table1();
    let cost = CostModel::new(&s);
    for &f_qry in &QUERY_FREQ_SWEEP {
        let m = SelectionModel::evaluate(&s, f_qry).unwrap();
        let q = s.queries_per_round(f_qry);
        let round = RoundModel::new(s.keys as usize, s.alpha, q).unwrap();

        // Eq. 14/15 recomputed from the zipf crate directly.
        assert!((m.index_size - round.expected_index_size_ttl(m.key_ttl)).abs() < 1e-6);
        assert!((m.p_indexed - round.p_indexed_ttl(m.key_ttl)).abs() < 1e-9);

        // Eq. 17 reassembled.
        let nap = cost.num_active_peers(m.index_size);
        let c2 = cost.c_s_indx2(nap);
        let expect = m.index_size * cost.c_rtn(nap, m.index_size)
            + m.p_indexed * q * c2
            + (1.0 - m.p_indexed) * q * (c2 + cost.c_s_unstr() + c2);
        assert!((m.total_cost - expect).abs() < 1e-6);
    }
}

#[test]
fn paper_crossover_and_headline_numbers() {
    // The quantitative anchors hand-derived from the paper (DESIGN.md §4).
    let s = Scenario::table1();
    let cost = CostModel::new(&s);
    assert!((cost.c_s_unstr() - 720.0).abs() < 1e-9);

    let busy = StrategyCosts::evaluate(&s, 1.0 / 30.0).unwrap();
    assert!((busy.no_index - 480_000.0).abs() < 1.0);
    assert!((busy.index_all - 25_219.0).abs() < 50.0);
    assert!((busy.partial_ideal - 22_392.0).abs() < 200.0);

    // Fig. 1 crossover between 1/600 and 1/1800.
    let a = StrategyCosts::evaluate(&s, 1.0 / 600.0).unwrap();
    let b = StrategyCosts::evaluate(&s, 1.0 / 1800.0).unwrap();
    assert!(a.no_index > a.index_all && b.no_index < b.index_all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fixed point exists and is internally consistent for any sane
    /// scenario, not just Table 1.
    #[test]
    fn ideal_partial_solves_for_random_scenarios(
        num_peers in 100u32..5_000,
        keys_factor in 1u32..5,
        repl in 2u32..60,
        stor in prop::sample::select(vec![20u32, 50, 100, 200]),
        alpha in 0.5f64..1.8,
        f_qry_denom in 10f64..10_000.0,
    ) {
        let s = Scenario {
            num_peers,
            keys: num_peers * keys_factor,
            repl: repl.min(num_peers),
            stor,
            alpha,
            ..Scenario::table1()
        };
        prop_assume!(s.validate().is_ok());
        let f_qry = 1.0 / f_qry_denom;
        let sol = IdealPartial::solve(&s, f_qry).unwrap();
        prop_assert!(sol.max_rank <= s.keys);
        prop_assert!((0.0..=1.0).contains(&sol.p_indexed));
        prop_assert!(sol.f_min >= 0.0);
        if sol.max_rank > 0 {
            prop_assert!(sol.num_active_peers >= 2.0);
            prop_assert!(sol.num_active_peers <= f64::from(s.num_peers));
        }
    }

    /// Ideal partial indexing never loses to either pure strategy — it can
    /// always degenerate into one of them (maxRank = keys or 0).
    #[test]
    fn ideal_partial_never_loses(
        repl in 5u32..80,
        alpha in 0.7f64..1.5,
        f_qry_denom in 20f64..8_000.0,
    ) {
        let s = Scenario { repl, alpha, ..Scenario::table1() };
        prop_assume!(s.validate().is_ok());
        let c = StrategyCosts::evaluate(&s, 1.0 / f_qry_denom).unwrap();
        // Small tolerance: the discrete fixed point can sit one rank off
        // the continuous optimum.
        prop_assert!(c.partial_ideal <= c.index_all * 1.001 + 1e-6);
        prop_assert!(c.partial_ideal <= c.no_index * 1.001 + 1e-6);
    }

    /// Selection-algorithm cost responds monotonically to TTL extremes:
    /// zero TTL degenerates to ≥ noIndex; the savings stay bounded by 1.
    #[test]
    fn selection_model_bounds(
        f_qry_denom in 20f64..8_000.0,
        ttl in 1f64..100_000.0,
    ) {
        let s = Scenario::table1();
        let m = SelectionModel::evaluate_with_ttl(&s, 1.0 / f_qry_denom, ttl).unwrap();
        prop_assert!(m.total_cost >= 0.0);
        prop_assert!((0.0..=1.0).contains(&m.p_indexed));
        prop_assert!(m.index_size >= 0.0 && m.index_size <= f64::from(s.keys));
        prop_assert!(m.saving_vs_no_index() <= 1.0);
        prop_assert!(m.saving_vs_index_all() <= 1.0);
    }
}

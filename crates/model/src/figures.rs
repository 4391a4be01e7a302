//! The series of the paper's Figs. 1–4 are no types of their own: Figs. 1–3
//! are `StrategyCosts` and Fig. 4 is `SelectionModel`, each evaluated at
//! every point of `QUERY_FREQ_SWEEP` (the `pdht-bench` experiments F1–F4
//! tabulate exactly that). The tests below pin the shapes the paper plots.

#[cfg(test)]
mod tests {
    use crate::params::{Scenario, QUERY_FREQ_SWEEP};
    use crate::selection::SelectionModel;
    use crate::strategy::StrategyCosts;

    fn strategy_sweep(s: &Scenario) -> Vec<StrategyCosts> {
        QUERY_FREQ_SWEEP.iter().map(|&f| StrategyCosts::evaluate(s, f).unwrap()).collect()
    }

    #[test]
    fn fig1_and_fig2_are_consistent() {
        // Fig. 2's savings are Fig. 1's totals, compared.
        for c in strategy_sweep(&Scenario::table1()) {
            assert!(
                (c.saving_vs_index_all() - (1.0 - c.partial_ideal / c.index_all)).abs() < 1e-12
            );
            assert!((c.saving_vs_no_index() - (1.0 - c.partial_ideal / c.no_index)).abs() < 1e-12);
        }
    }

    #[test]
    fn fig3_series_decline_with_load() {
        let s = Scenario::table1();
        let f3 = strategy_sweep(&s);
        for w in f3.windows(2) {
            assert!(w[0].ideal.index_fraction(&s) >= w[1].ideal.index_fraction(&s));
            assert!(w[0].ideal.p_indexed >= w[1].ideal.p_indexed);
        }
        // And pIndxd stays well above the index fraction (the Zipf gap).
        for c in &f3 {
            assert!(c.ideal.p_indexed > c.ideal.index_fraction(&s));
        }
    }

    #[test]
    fn fig4_savings_peak_at_average_frequencies() {
        let s = Scenario::table1();
        let at = |f: f64| SelectionModel::evaluate(&s, f).unwrap();
        let busy = at(1.0 / 30.0);
        let mid = at(1.0 / 600.0);
        assert!(mid.saving_vs_index_all() > busy.saving_vs_index_all());
    }
}

//! Benchmarks of the analytical model: one figure = eight sweep points,
//! each with a fixed-point solve over the 40 000-key Zipf.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pdht_model::params::QUERY_FREQ_SWEEP;
use pdht_model::{IdealPartial, Scenario, SelectionModel, StrategyCosts};

fn bench_fixed_point(c: &mut Criterion) {
    let s = Scenario::table1();
    c.bench_function("model/ideal_fixed_point", |b| {
        b.iter(|| IdealPartial::solve(black_box(&s), black_box(1.0 / 300.0)).unwrap())
    });
}

fn bench_strategy_point(c: &mut Criterion) {
    let s = Scenario::table1();
    c.bench_function("model/strategy_costs", |b| {
        b.iter(|| StrategyCosts::evaluate(black_box(&s), black_box(1.0 / 300.0)).unwrap())
    });
}

fn bench_selection_point(c: &mut Criterion) {
    let s = Scenario::table1();
    c.bench_function("model/selection_eq17", |b| {
        b.iter(|| SelectionModel::evaluate(black_box(&s), black_box(1.0 / 300.0)).unwrap())
    });
}

fn bench_whole_figures(c: &mut Criterion) {
    let s = Scenario::table1();
    // A figure is its model type evaluated at every sweep point.
    c.bench_function("model/fig1_sweep", |b| {
        b.iter(|| QUERY_FREQ_SWEEP.map(|f| StrategyCosts::evaluate(black_box(&s), f).unwrap()))
    });
    c.bench_function("model/fig4_sweep", |b| {
        b.iter(|| QUERY_FREQ_SWEEP.map(|f| SelectionModel::evaluate(black_box(&s), f).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_fixed_point,
    bench_strategy_point,
    bench_selection_point,
    bench_whole_figures
);
criterion_main!(benches);

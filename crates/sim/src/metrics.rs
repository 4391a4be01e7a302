//! Message accounting, gauges and histograms.
//!
//! The simulators' single source of truth for cost numbers. Counters are
//! cumulative; [`Metrics::mark_round`] snapshots them at round boundaries so
//! per-round rates (the unit of every figure in the paper) fall out as
//! differences.

use pdht_types::{MessageKind, MsgCounts, Round};
use std::collections::BTreeMap;

/// Simulation metrics: cumulative message counts, round snapshots, named
/// gauges, and named histograms.
#[derive(Default)]
pub struct Metrics {
    msgs: MsgCounts,
    /// Snapshot of `msgs` taken at the *end* of each round, keyed by round.
    round_marks: Vec<(Round, MsgCounts)>,
    /// Named time series of gauge readings.
    gauges: BTreeMap<&'static str, Vec<(Round, f64)>>,
    /// Named histograms (e.g. lookup hop counts).
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind`.
    #[inline]
    pub fn record(&mut self, kind: MessageKind) {
        self.msgs.incr(kind);
    }

    /// Records `n` messages of `kind`.
    #[inline]
    pub fn record_n(&mut self, kind: MessageKind, n: u64) {
        self.msgs.add(kind, n);
    }

    /// Cumulative counts so far.
    pub fn totals(&self) -> &MsgCounts {
        &self.msgs
    }

    /// Snapshots the cumulative counters as the end-of-round state of
    /// `round`. Rounds must be marked in increasing order.
    ///
    /// # Panics
    /// Panics if `round` is not greater than the last marked round.
    pub fn mark_round(&mut self, round: Round) {
        if let Some(&(last, _)) = self.round_marks.last() {
            assert!(round > last, "rounds must be marked in increasing order");
        }
        self.round_marks.push((round, self.msgs));
    }

    /// Messages recorded during `round` (between its two boundary marks).
    /// Returns `None` if the round was not fully marked.
    pub fn round_delta(&self, round: Round) -> Option<MsgCounts> {
        let idx = self.round_marks.binary_search_by_key(&round, |&(r, _)| r).ok()?;
        let end = self.round_marks[idx].1;
        let start = if idx == 0 { MsgCounts::new() } else { self.round_marks[idx - 1].1 };
        Some(end.since(&start))
    }

    /// Raw message counts accumulated over the closed round interval
    /// `[from, to]`.
    pub fn counts_between(&self, from: Round, to: Round) -> Option<MsgCounts> {
        if to < from {
            return None;
        }
        let idx_to = self.round_marks.binary_search_by_key(&to, |&(r, _)| r).ok()?;
        let end = self.round_marks[idx_to].1;
        let start = if from.0 == 0 {
            MsgCounts::new()
        } else {
            let idx_prev =
                self.round_marks.binary_search_by_key(&Round(from.0 - 1), |&(r, _)| r).ok()?;
            self.round_marks[idx_prev].1
        };
        Some(end.since(&start))
    }

    /// Records a gauge reading (e.g. `"index_size"`) for `round`.
    pub fn gauge(&mut self, name: &'static str, round: Round, value: f64) {
        self.gauges.entry(name).or_default().push((round, value));
    }

    /// The recorded series for gauge `name` (empty if never recorded).
    pub fn gauge_series(&self, name: &str) -> &[(Round, f64)] {
        self.gauges.get(name).map_or(&[], Vec::as_slice)
    }

    /// Most recent reading of gauge `name`.
    pub fn gauge_last(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).and_then(|v| v.last()).map(|&(_, v)| v)
    }

    /// Mean of gauge `name` over rounds in `[from, to]`.
    pub fn gauge_mean(&self, name: &str, from: Round, to: Round) -> Option<f64> {
        let series = self.gauges.get(name)?;
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(r, v) in series {
            if r >= from && r <= to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The histogram `name`, if any values were observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds another metrics object's message counters and histograms into
    /// this one. The shard-parallel engine accumulates per-lane metrics and
    /// merges them at round barriers; merging is additive, so the result is
    /// independent of merge order.
    ///
    /// `other` must carry only counters and histograms — round marks and
    /// gauges are boundary bookkeeping that belongs to the owner of the
    /// round clock.
    ///
    /// # Panics
    /// Panics if `other` has round marks or gauges.
    pub fn merge_from(&mut self, other: &Metrics) {
        assert!(
            other.round_marks.is_empty() && other.gauges.is_empty(),
            "merge_from expects counter/histogram-only metrics"
        );
        for (kind, n) in other.msgs.iter() {
            self.msgs.add(kind, n);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name).or_default().merge_from(hist);
        }
    }
}

/// A compact fixed-bucket histogram for small non-negative integers
/// (hop counts, walk lengths): exact buckets 0..=63, then power-of-two
/// ranges up to 2^32.
#[derive(Clone, Debug)]
pub struct Histogram {
    exact: [u64; 64],
    /// `coarse[i]` counts values in `[2^(i+6), 2^(i+7))`.
    coarse: [u64; 27],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { exact: [0; 64], coarse: [0; 27], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        if value < 64 {
            self.exact[value as usize] += 1;
        } else {
            let bucket = (63 - value.leading_zeros()) as usize - 6;
            let bucket = bucket.min(self.coarse.len() - 1);
            self.coarse[bucket] += 1;
        }
    }

    /// Adds every observation of `other` into this histogram. Buckets are
    /// counts, so merging is exact and order-independent.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.exact.iter_mut().zip(other.exact.iter()) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(other.coarse.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The p50/p95/p99 summary reports hand out.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: exact below 64; above, the
    /// *inclusive* upper bound of the hit bucket (`2^(i+7) - 1` for
    /// `coarse[i]`, which covers `[2^(i+6), 2^(i+7))`), clamped to the
    /// observed max so the reported value is always attainable. The
    /// clamped top bucket is open-ended and reports the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, &c) in self.exact.iter().enumerate() {
            seen += c;
            if seen >= target {
                return v as u64;
            }
        }
        for (i, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= target {
                if i == self.coarse.len() - 1 {
                    return self.max; // clamped top bucket: open-ended
                }
                return ((1u64 << (i + 7)) - 1).min(self.max);
            }
        }
        self.max
    }
}

/// Quantile summary of a [`Histogram`] (what reports expose).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Median (exact below 64, bucket upper bound above).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdht_types::MessageKind as MK;

    #[test]
    fn round_deltas_isolate_activity() {
        let mut m = Metrics::new();
        m.record_n(MK::Probe, 5);
        m.mark_round(Round(0));
        m.record_n(MK::Probe, 2);
        m.record(MK::RouteHop);
        m.mark_round(Round(1));
        m.mark_round(Round(2)); // idle round

        let d0 = m.round_delta(Round(0)).unwrap();
        assert_eq!(d0[MK::Probe], 5);
        let d1 = m.round_delta(Round(1)).unwrap();
        assert_eq!(d1[MK::Probe], 2);
        assert_eq!(d1[MK::RouteHop], 1);
        let d2 = m.round_delta(Round(2)).unwrap();
        assert_eq!(d2.total(), 0);
        assert!(m.round_delta(Round(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn marking_out_of_order_panics() {
        let mut m = Metrics::new();
        m.mark_round(Round(3));
        m.mark_round(Round(3));
    }

    #[test]
    fn gauges_record_series() {
        let mut m = Metrics::new();
        m.gauge("index_size", Round(0), 10.0);
        m.gauge("index_size", Round(1), 20.0);
        m.gauge("index_size", Round(2), 30.0);
        assert_eq!(m.gauge_last("index_size"), Some(30.0));
        assert_eq!(m.gauge_mean("index_size", Round(0), Round(2)), Some(20.0));
        assert_eq!(m.gauge_mean("index_size", Round(1), Round(1)), Some(20.0));
        assert!(m.gauge_mean("nonexistent", Round(0), Round(2)).is_none());
        assert_eq!(m.gauge_series("index_size").len(), 3);
    }

    #[test]
    fn histogram_exact_range() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 14.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.max(), 3);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), 3);
    }

    #[test]
    fn histogram_coarse_range() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(1000);
        h.record(100_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 100_000);
        // Quantiles are bucket upper bounds out there; just check ordering
        // and boundedness.
        assert!(h.quantile(0.34) >= 100);
        assert!(h.quantile(1.0) <= 1 << 33);
    }

    #[test]
    fn histogram_exact_to_coarse_crossover_is_pinned() {
        // 63 is the last exact value: reported verbatim.
        let mut h = Histogram::new();
        h.record(63);
        assert_eq!(h.quantile(1.0), 63);

        // 64 is the first coarse value (coarse[0] covers [64, 128)); the
        // bucket bound must clamp to the observed max, never overshoot.
        let mut h = Histogram::new();
        h.record(64);
        assert_eq!(h.quantile(0.5), 64);
        assert_eq!(h.quantile(1.0), 64);

        // 127 is coarse[0]'s largest attainable value; the pre-fix code
        // reported the exclusive bound 128 here.
        let mut h = Histogram::new();
        h.record(127);
        assert_eq!(h.quantile(1.0), 127);
        assert!(h.quantile(1.0) <= h.max());

        // 128 starts coarse[1] ([128, 256)).
        let mut h = Histogram::new();
        h.record(128);
        assert_eq!(h.quantile(1.0), 128);

        // A full coarse[0] bucket under a larger max: the inclusive bound
        // 127, not 128.
        let mut h = Histogram::new();
        h.record(100);
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 127);
    }

    #[test]
    fn histogram_clamped_top_bucket_reports_observed_max() {
        // Values at/above 2^32 all clamp into the last coarse bucket; its
        // quantile is the observed max (the bucket has no upper bound).
        let mut h = Histogram::new();
        h.record(1 << 40);
        h.record(1 << 50);
        assert_eq!(h.quantile(0.5), 1 << 50);
        assert_eq!(h.quantile(1.0), 1 << 50);
        assert_eq!(h.max(), 1 << 50);
    }

    #[test]
    fn histogram_empty_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn metrics_observe_routes_to_histogram() {
        let mut m = Metrics::new();
        m.observe("hops", 4);
        m.observe("hops", 6);
        let h = m.histogram("hops").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!(m.histogram("none").is_none());
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, v) in [1u64, 2, 2, 63, 64, 100, 5000].iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.summary(), whole.summary());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn metrics_merge_folds_counters_and_histograms() {
        let mut base = Metrics::new();
        base.record_n(MK::Probe, 3);
        base.observe("hops", 2);
        let mut lane = Metrics::new();
        lane.record_n(MK::Probe, 4);
        lane.record(MK::RouteHop);
        lane.observe("hops", 6);
        lane.observe("walk", 1);
        base.merge_from(&lane);
        assert_eq!(base.totals()[MK::Probe], 7);
        assert_eq!(base.totals()[MK::RouteHop], 1);
        assert_eq!(base.histogram("hops").unwrap().count(), 2);
        assert_eq!(base.histogram("walk").unwrap().count(), 1);
        // The lane itself is untouched (callers mem::take it anyway).
        assert_eq!(lane.totals()[MK::Probe], 4);
    }

    #[test]
    #[should_panic(expected = "counter/histogram-only")]
    fn metrics_merge_rejects_marked_lanes() {
        let mut base = Metrics::new();
        let mut lane = Metrics::new();
        lane.mark_round(Round(0));
        base.merge_from(&lane);
    }
}

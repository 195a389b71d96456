//! Metrics registry: counters, gauges and log-scale histograms keyed by
//! `&'static str`, with mergeable [`MetricsSnapshot`]s.
//!
//! The registry is owned by [`crate::Sim`] and fed automatically by
//! [`crate::Sim::emit`]: every event increments the counter named by
//! [`crate::Event::key`], and events carrying a measurement
//! ([`crate::Event::measure`]) feed a histogram. Models may also record
//! directly (`sim.metrics.inc(…)`) for quantities that are not events.
//!
//! Like sinks, metrics are **off by default** and cost one branch per
//! emission when disabled, so the spine stays out of the hot path unless a
//! campaign asks for it. Snapshots are plain values that merge across
//! trials, which is how per-campaign rollups are built in the bench
//! binaries.

use std::collections::BTreeMap;
use std::fmt;

/// A log₂-bucketed histogram of non-negative samples. Bucket `i` holds
/// samples in `[2^(i-1), 2^i)` (bucket 0 holds `[0, 1)`), so ns-scale
/// latencies and byte counts both fit 64 buckets with ~2× resolution —
/// enough to read p50/p99 orders of magnitude without storing samples.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

fn bucket_of(v: f64) -> usize {
    if v < 1.0 {
        return 0;
    }
    let b = 64 - (v as u64).leading_zeros() as usize;
    b.min(63)
}

impl LogHistogram {
    pub fn observe(&mut self, v: f64) {
        let v = v.max(0.0);
        self.buckets[bucket_of(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q·count` (so within 2× of the true value),
    /// clamped to the observed max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i == 0 { 1.0 } else { (1u64 << i) as f64 };
                return upper.min(self.max());
            }
        }
        self.max()
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The live registry owned by [`crate::Sim`].
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Metrics {
    /// The default: recording is a no-op (one branch per call).
    pub fn disabled() -> Self {
        Metrics::default()
    }

    pub fn enabled() -> Self {
        Metrics {
            enabled: true,
            ..Metrics::default()
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn inc(&mut self, key: &'static str, by: u64) {
        if self.enabled {
            *self.counters.entry(key).or_insert(0) += by;
        }
    }

    pub fn set_gauge(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            self.gauges.insert(key, v);
        }
    }

    pub fn observe(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            self.hists.entry(key).or_default().observe(v);
        }
    }

    /// Record one typed event: count its key and feed its measurement.
    /// Called by [`crate::Sim::emit`]; callers do not normally use this.
    /// Span boundaries are skipped: whether a trial had a span sink attached
    /// must not change its metrics snapshot, or campaign rollups would
    /// depend on which trial exported a trace.
    pub fn record(&mut self, ev: &crate::Event) {
        if !self.enabled || matches!(ev, crate::Event::Span(_)) {
            return;
        }
        self.inc(ev.key(), 1);
        if let Some((k, v)) = ev.measure() {
            self.observe(k, v);
        }
    }

    /// Fold the engine's own counters ([`crate::SimStats`]) into the
    /// registry so queue health rolls up across a campaign: the event
    /// totals sum, the queue high-water mark takes the per-trial max.
    pub fn record_sim_stats(&mut self, s: &crate::SimStats) {
        if !self.enabled {
            return;
        }
        self.inc("sim.events_scheduled", s.scheduled);
        self.inc("sim.events_executed", s.executed);
        self.inc("sim.noop_pops", s.noop_pops);
        let peak = self
            .gauges
            .get("sim.peak_queue_depth")
            .copied()
            .unwrap_or(0.0);
        self.set_gauge("sim.peak_queue_depth", peak.max(s.peak_queue_depth as f64));
    }

    pub fn counter(&self, key: &'static str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Freeze the registry contents for aggregation across trials.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// A frozen, mergeable copy of one registry's contents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, f64>,
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Fold another snapshot in: counters add, histograms merge, gauges keep
    /// the maximum (the only cross-trial reduction that is order-free).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k).or_insert(*v);
            *e = e.max(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Multi-line rollup: counters first (sorted by key), then histograms
    /// with approximate quantiles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "  {k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "  {k} = {v:.3} (gauge)")?;
        }
        for (k, h) in &self.hists {
            writeln!(
                f,
                "  {k}: n={} mean={:.0} p50≈{:.0} p99≈{:.0} max={:.0}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = Metrics::disabled();
        m.inc("a", 1);
        m.observe("h", 10.0);
        m.set_gauge("g", 1.0);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let mut m = Metrics::enabled();
        m.inc("tcp.retransmit", 2);
        m.inc("tcp.retransmit", 3);
        for v in [1.0, 2.0, 4.0, 1000.0] {
            m.observe("lat", v);
        }
        assert_eq!(m.counter("tcp.retransmit"), 5);
        let s = m.snapshot();
        let h = &s.hists["lat"];
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000.0);
        assert!(h.quantile(0.5) >= 2.0 && h.quantile(0.5) <= 4.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn log_buckets_span_magnitudes() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.9), 0);
        assert_eq!(bucket_of(1.0), 1);
        assert_eq!(bucket_of(2.0), 2);
        assert_eq!(bucket_of(3.0), 2);
        assert_eq!(bucket_of(1e18), 60);
        assert_eq!(bucket_of(f64::MAX.min(1e300)), 63);
    }

    #[test]
    fn snapshots_merge_across_trials() {
        let mut a = Metrics::enabled();
        a.inc("c", 1);
        a.observe("h", 10.0);
        a.set_gauge("g", 2.0);
        let mut b = Metrics::enabled();
        b.inc("c", 2);
        b.observe("h", 1000.0);
        b.set_gauge("g", 1.0);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counters["c"], 3);
        assert_eq!(s.hists["h"].count(), 2);
        assert_eq!(s.hists["h"].max(), 1000.0);
        assert_eq!(s.gauges["g"], 2.0);
    }

    #[test]
    fn event_record_counts_key_and_measure() {
        use crate::event::{Event, LscEvent};
        use crate::time::SimDuration;
        let mut m = Metrics::enabled();
        m.record(&Event::Lsc(LscEvent::WindowClosed {
            run: 1,
            vc: 0,
            skew: SimDuration::from_secs(1),
            stored: true,
        }));
        assert_eq!(m.counter("lsc.window_closed"), 1);
        assert_eq!(m.snapshot().hists["lsc.pause_skew_ns"].count(), 1);
    }
}

//! Statistics collection for models and experiment harnesses.
//!
//! * [`OnlineStats`] — Welford single-pass mean/variance (no sample storage).
//! * [`Histogram`] — stores samples for exact quantiles; the experiment
//!   campaigns are small enough (≤ millions of samples) that exact quantiles
//!   beat the complexity of a sketch.

use std::fmt;

/// Welford's online mean/variance accumulator.
#[derive(Clone, Copy, Default, Debug)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// A sample-storing histogram with exact quantiles.
#[derive(Clone, Default, Debug)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in histogram"));
            self.sorted = true;
        }
    }

    /// Exact quantile with linear interpolation; `q` in [0, 1]. An empty
    /// histogram reports 0.0 (not NaN), so rollups over runs that never
    /// exercised a phase render as zeros instead of poisoning comparisons.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = pos - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0.0 when empty (see [`Histogram::quantile`]).
    pub fn min(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        self.samples[0]
    }

    /// Largest sample, or 0.0 when empty (see [`Histogram::quantile`]).
    pub fn max(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.samples.last().unwrap()
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive sample variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean());
        a.merge(&OnlineStats::new());
        assert_eq!((a.count(), a.mean()), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in (1..=100).rev() {
            h.push(i as f64);
        }
        assert_eq!(h.len(), 100);
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((h.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((h.median() - 50.5).abs() < 1e-12);
        assert!((h.mean() - 50.5).abs() < 1e-12);
        assert!((h.min() - 1.0).abs() < 1e-12);
        assert!((h.max() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.push(1.0);
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.median() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        // mean stays NaN: an undefined average is a fact, not a zero.
        assert!(h.mean().is_nan());
    }
}

//! Deterministic, named random streams.
//!
//! All randomness in a simulation flows from one master seed. Consumers ask
//! for a stream by label (`"net.loss"`, `"lsc.naive.jitter"`, …); each label
//! maps to an independent `SmallRng` seeded by `splitmix64(master ⊕ fnv(label))`.
//!
//! This gives two properties the experiment campaigns rely on:
//!
//! 1. **Reproducibility** — a `(seed, label)` pair fully determines a stream.
//! 2. **Insensitivity** — adding a new random consumer (new label) never
//!    perturbs draws on existing labels, so an experiment's control and
//!    treatment arms stay comparable across code revisions.
//!
//! The module also carries the distribution helpers used by the models
//! (exponential, log-normal, truncated normal) so callers don't each reinvent
//! inverse-CDF sampling.

use crate::hash::{fnv1a, FastMap, FNV_BASIS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The FNV-1a hash of a stream label (not security sensitive).
fn label_key(label: &str) -> u64 {
    fnv1a(FNV_BASIS, label.as_bytes())
}

/// SplitMix64 finalizer: turns correlated inputs into well-mixed seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A registry of independent named RNG streams derived from one master seed.
pub struct RngStreams {
    master: u64,
    streams: FastMap<u64, SmallRng>,
}

impl RngStreams {
    pub fn new(master_seed: u64) -> Self {
        RngStreams {
            master: master_seed,
            streams: FastMap::default(),
        }
    }

    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// The stream for `label`, created on first use.
    pub fn stream(&mut self, label: &str) -> &mut SmallRng {
        let key = label_key(label);
        let master = self.master;
        self.streams
            .entry(key)
            .or_insert_with(|| SmallRng::seed_from_u64(splitmix64(master ^ key)))
    }

    /// A stream keyed by label *and* an index (e.g. per-node jitter streams).
    pub fn stream_idx(&mut self, label: &str, idx: u64) -> &mut SmallRng {
        let key = label_key(label) ^ splitmix64(idx.wrapping_add(1));
        let master = self.master;
        self.streams
            .entry(key)
            .or_insert_with(|| SmallRng::seed_from_u64(splitmix64(master ^ key)))
    }

    /// Derive a fresh child seed (for spawning sub-simulations / trials).
    pub fn derive_seed(&self, label: &str, idx: u64) -> u64 {
        derive_seed(self.master, label, idx)
    }
}

/// Derive a child seed from `(master, label, idx)` without materializing an
/// [`RngStreams`]. This is the scenario-serialization contract: a fuzz
/// trial's entire randomness is reachable from one `u64` plus string
/// labels, so a scenario written to disk as `(seed, parameters)` replays
/// bit-for-bit — the generator, the fault plan, and the world all re-derive
/// their streams from the same master. Same derivation as
/// [`RngStreams::derive_seed`].
pub fn derive_seed(master: u64, label: &str, idx: u64) -> u64 {
    splitmix64(master ^ label_key(label) ^ splitmix64(idx))
}

/// Sample an exponential with the given mean (inverse-CDF method).
pub fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Sample a standard normal via Box–Muller (deterministic given the stream).
pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Log-normal with the given *underlying* normal parameters (μ, σ).
///
/// Mean of the sample is exp(μ + σ²/2); heavy right tail grows with σ.
pub fn lognormal_sample<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal_sample(rng, mu, sigma).exp()
}

/// Normal truncated below at `min` (rejection-free: clamps rare tail draws).
pub fn truncated_normal_sample<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    min: f64,
) -> f64 {
    normal_sample(rng, mean, std_dev).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = RngStreams::new(42);
        let mut b = RngStreams::new(42);
        let xa: Vec<u32> = (0..16).map(|_| a.stream("x").gen()).collect();
        let xb: Vec<u32> = (0..16).map(|_| b.stream("x").gen()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn streams_are_independent_of_creation_order() {
        let mut a = RngStreams::new(7);
        let mut b = RngStreams::new(7);
        // `a` touches an extra stream first; `x` draws must be unaffected.
        let _: u64 = a.stream("extra").gen();
        let xa: u64 = a.stream("x").gen();
        let xb: u64 = b.stream("x").gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_labels_differ() {
        let mut s = RngStreams::new(1);
        let a: u64 = s.stream("a").gen();
        let b: u64 = s.stream("b").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_differ() {
        let mut s = RngStreams::new(1);
        let a: u64 = s.stream_idx("node", 0).gen();
        let b: u64 = s.stream_idx("node", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_varies() {
        let s = RngStreams::new(99);
        assert_ne!(s.derive_seed("trial", 0), s.derive_seed("trial", 1));
        assert_ne!(s.derive_seed("trial", 0), s.derive_seed("other", 0));
        // and is stable
        assert_eq!(s.derive_seed("trial", 3), s.derive_seed("trial", 3));
    }

    #[test]
    fn exp_sample_has_right_mean() {
        let mut s = RngStreams::new(5);
        let r = s.stream("exp");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_sample_has_right_moments() {
        let mut s = RngStreams::new(6);
        let r = s.stream("norm");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal_sample(r, 3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut s = RngStreams::new(8);
        let r = s.stream("ln");
        let xs: Vec<f64> = (0..10_000).map(|_| lognormal_sample(r, 0.0, 1.0)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        // log-normal: mean (≈ e^0.5 ≈ 1.65) well above median (≈ 1.0)
        assert!(mean > median * 1.3, "mean {mean} median {median}");
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let mut s = RngStreams::new(9);
        let r = s.stream("tn");
        for _ in 0..5_000 {
            assert!(truncated_normal_sample(r, 0.0, 10.0, 0.25) >= 0.25);
        }
    }
}

//! NTP client math: offset/delay estimation, clock filtering, discipline.
//!
//! The protocol exchange itself (UDP packets between an `ntpd` client on each
//! node and a server on the head node) lives in `dvc-cluster`; this module is
//! the pure arithmetic, following Mills' improved algorithms at the level of
//! detail that matters for LSC:
//!
//! * [`offset_delay`] — the classic four-timestamp estimator.
//! * `ClockFilter` — keep the last 8 samples, trust the one with minimum
//!   round-trip delay (minimum-delay samples have the least asymmetry error).
//! * [`Discipline`] — a small PI-style loop: step on large offsets, otherwise
//!   slew the full filtered offset and nudge the frequency estimate by the
//!   observed offset rate. Converges to sub-ms residuals on symmetric LAN
//!   paths and a few ms under jittery/asymmetric delays — the regime the
//!   paper's prototype depends on.

use crate::clock::{HwClock, LocalNs, STEP_THRESHOLD_NS};
use dvc_sim_core::SimTime;

/// One completed client↔server exchange.
///
/// Timestamps are in the units the protocol actually has access to:
/// `t1`, `t4` on the *client's* clock; `t2`, `t3` on the *server's*.
#[derive(Clone, Copy, Debug)]
pub struct NtpSample {
    /// Estimated clock offset θ (server − client), ns. Positive means the
    /// client is behind and must move forward.
    pub offset_ns: f64,
    /// Estimated round-trip delay δ, ns.
    pub delay_ns: f64,
    /// Client local time at which the sample completed.
    pub completed_at: LocalNs,
}

/// The four-timestamp offset/delay estimator:
/// θ = ((t2−t1) + (t3−t4)) / 2, δ = (t4−t1) − (t3−t2).
pub fn offset_delay(t1: LocalNs, t2: LocalNs, t3: LocalNs, t4: LocalNs) -> (f64, f64) {
    let theta = ((t2 - t1) as f64 + (t3 - t4) as f64) / 2.0;
    let delta = (t4 - t1) as f64 - (t3 - t2) as f64;
    (theta, delta)
}

/// An 8-deep minimum-delay clock filter.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClockFilter {
    samples: Vec<NtpSample>,
}

pub(crate) const FILTER_DEPTH: usize = 8;

impl ClockFilter {
    pub fn new() -> Self {
        ClockFilter {
            samples: Vec::with_capacity(FILTER_DEPTH),
        }
    }

    pub fn push(&mut self, s: NtpSample) {
        if self.samples.len() == FILTER_DEPTH {
            self.samples.remove(0);
        }
        self.samples.push(s);
    }

    /// The best retained sample: minimum delay, newest among ties (ties are
    /// common on quiet LANs where delay is nearly deterministic).
    pub fn best(&self) -> Option<NtpSample> {
        self.samples
            .iter()
            .min_by(|a, b| {
                a.delay_ns
                    .partial_cmp(&b.delay_ns)
                    .unwrap()
                    .then(b.completed_at.cmp(&a.completed_at))
            })
            .copied()
    }
}

/// Fraction of the filtered offset corrected per update (0 < g ≤ 1).
const OFFSET_GAIN: f64 = 1.0;
/// Gain on the frequency term (per update, dimensionless).
const FREQ_GAIN: f64 = 0.1;
/// Clamp on any single frequency adjustment, ppm.
const MAX_FREQ_ADJ_PPM: f64 = 10.0;

/// The clock discipline loop driven by filtered NTP samples. Offsets at or
/// above [`STEP_THRESHOLD_NS`] step the clock; smaller ones slew it.
#[derive(Clone, Debug, Default)]
pub struct Discipline {
    filter: ClockFilter,
    last_update: Option<(LocalNs, f64)>,
    /// Count of hard steps applied (diagnostics).
    pub steps: u32,
    /// Count of updates applied (diagnostics).
    pub updates: u32,
}

impl Discipline {
    pub fn new() -> Self {
        Discipline {
            filter: ClockFilter::new(),
            last_update: None,
            steps: 0,
            updates: 0,
        }
    }

    /// Ingest a completed exchange and, if warranted, correct `clock`.
    ///
    /// Returns the offset applied (ns), if any.
    pub fn on_sample(
        &mut self,
        clock: &mut HwClock,
        true_now: SimTime,
        sample: NtpSample,
    ) -> Option<f64> {
        self.filter.push(sample);
        let best = self.filter.best()?;
        // Outlier ("popcorn") suppression: ignore samples whose round-trip
        // delay is far above the filter's floor — their offset estimate is
        // dominated by asymmetric queueing. Everything else is acted on, so
        // the loop keeps updating even on perfectly quiet networks.
        if sample.delay_ns > 2.0 * best.delay_ns + 100_000.0 {
            return None;
        }

        let theta = sample.offset_ns;
        self.updates += 1;

        if theta.abs() >= STEP_THRESHOLD_NS {
            clock.set_correction(true_now, theta);
            self.steps += 1;
            self.last_update = Some((sample.completed_at, 0.0));
            return Some(theta);
        }

        // Frequency term: residual offset accumulating between updates
        // indicates a rate error of θ/τ.
        if let Some((last_t, _)) = self.last_update {
            let tau_ns = (sample.completed_at - last_t) as f64;
            if tau_ns > 1e6 {
                let rate_err_ppm = theta / tau_ns * 1e6;
                let adj = (rate_err_ppm * FREQ_GAIN).clamp(-MAX_FREQ_ADJ_PPM, MAX_FREQ_ADJ_PPM);
                clock.adjust_freq(true_now, adj);
            }
        }

        let applied = theta * OFFSET_GAIN;
        clock.set_correction(true_now, applied);
        self.last_update = Some((sample.completed_at, theta));
        Some(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockConfig;
    use dvc_sim_core::rng;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn offset_delay_symmetric_path() {
        // Client is 5 ms behind the server; one-way delay 1 ms each way.
        // client t1 = 0; server receives at server-time 6 ms (t1+delay+offset),
        // replies at 6.5 ms; client receives at t4 = 2.5 ms client time.
        let (theta, delta) = offset_delay(0, 6_000_000, 6_500_000, 2_500_000);
        assert!((theta - 5_000_000.0).abs() < 1.0, "theta {theta}");
        assert!((delta - 2_000_000.0).abs() < 1.0, "delta {delta}");
    }

    #[test]
    fn offset_delay_asymmetry_biases_offset_by_half() {
        // True offset 0; forward delay 3 ms, reverse 1 ms.
        let (theta, delta) = offset_delay(0, 3_000_000, 3_000_000, 4_000_000);
        assert!((theta - 1_000_000.0).abs() < 1.0); // (3-1)/2 = +1 ms bias
        assert!((delta - 4_000_000.0).abs() < 1.0);
    }

    #[test]
    fn filter_prefers_min_delay() {
        let mut f = ClockFilter::new();
        f.push(NtpSample {
            offset_ns: 9.0e6,
            delay_ns: 8.0e6,
            completed_at: 1,
        });
        f.push(NtpSample {
            offset_ns: 1.0e6,
            delay_ns: 2.0e6,
            completed_at: 2,
        });
        f.push(NtpSample {
            offset_ns: 5.0e6,
            delay_ns: 5.0e6,
            completed_at: 3,
        });
        assert_eq!(f.best().unwrap().offset_ns, 1.0e6);
    }

    #[test]
    fn filter_caps_depth() {
        let mut f = ClockFilter::new();
        for i in 0..20 {
            f.push(NtpSample {
                offset_ns: i as f64,
                delay_ns: 1.0,
                completed_at: i,
            });
        }
        assert_eq!(f.samples.len(), FILTER_DEPTH);
    }

    /// End-to-end: a drifting, badly-set clock polling a perfect server over
    /// a jittery LAN converges to a few-ms residual, the paper's operating
    /// assumption for LSC.
    #[test]
    fn discipline_converges_on_lan() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut clock = HwClock::new(ClockConfig {
            initial_offset_ns: 350.0e6, // 350 ms off at boot → first poll steps
            drift_ppm: 40.0,
            wander_ppm: 0.05,
        });
        let mut disc = Discipline::new();

        let poll = 4.0; // seconds between polls
        let mut worst_late = 0.0f64;
        for i in 0..200 {
            let t = SimTime::from_secs_f64(i as f64 * poll);
            clock.advance(t, Some(&mut rng));

            // Simulate the exchange: one-way delays ~100 µs ± jitter.
            let fwd = rng::truncated_normal_sample(&mut rng, 100e3, 30e3, 20e3);
            let rev = rng::truncated_normal_sample(&mut rng, 100e3, 30e3, 20e3);
            let t1 = clock.read(t);
            let t_arrive = SimTime(t.nanos() + fwd as u64);
            let t2 = t_arrive.nanos() as LocalNs; // perfect server clock
            let t3 = t2 + 10_000; // 10 µs server processing
            let t_back = SimTime(t3 as u64 + rev as u64);
            let t4 = clock.read(t_back);
            let (offset_ns, delay_ns) = offset_delay(t1, t2, t3, t4);
            disc.on_sample(
                &mut clock,
                t_back,
                NtpSample {
                    offset_ns,
                    delay_ns,
                    completed_at: t4,
                },
            );

            if i > 50 {
                worst_late = worst_late.max(clock.error_ns(t_back).abs());
            }
        }
        assert!(disc.steps >= 1, "initial 350 ms offset should step");
        assert!(
            worst_late < 3.0e6,
            "converged residual should be < 3 ms, got {} ms",
            worst_late / 1e6
        );
    }

    /// With higher WAN-like jitter the residual degrades gracefully but stays
    /// bounded — LSC across clusters still has a workable window.
    #[test]
    fn discipline_bounded_under_wan_jitter() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut clock = HwClock::new(ClockConfig {
            initial_offset_ns: 10.0e6,
            drift_ppm: -25.0,
            wander_ppm: 0.05,
        });
        let mut disc = Discipline::new();
        let mut worst_late = 0.0f64;
        for i in 0..300 {
            let t = SimTime::from_secs_f64(i as f64 * 8.0);
            clock.advance(t, Some(&mut rng));
            let fwd = rng::lognormal_sample(&mut rng, (2.0e6f64).ln(), 0.5);
            let rev = rng::lognormal_sample(&mut rng, (2.0e6f64).ln(), 0.5);
            let t1 = clock.read(t);
            let t2 = (t.nanos() + fwd as u64) as LocalNs;
            let t3 = t2 + 10_000;
            let t_back = SimTime(t3 as u64 + rev as u64);
            let t4 = clock.read(t_back);
            let (offset_ns, delay_ns) = offset_delay(t1, t2, t3, t4);
            disc.on_sample(
                &mut clock,
                t_back,
                NtpSample {
                    offset_ns,
                    delay_ns,
                    completed_at: t4,
                },
            );
            if i > 100 {
                worst_late = worst_late.max(clock.error_ns(t_back).abs());
            }
        }
        assert!(
            worst_late < 15.0e6,
            "WAN residual should stay < 15 ms, got {} ms",
            worst_late / 1e6
        );
    }
}

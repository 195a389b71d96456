//! Hardware clock model.
//!
//! A [`HwClock`] converts the simulation's true time into a node-local
//! reading. The model is piecewise linear:
//!
//! ```text
//! local(t) = base_local + (t − base_true) · rate        (+ bounded slew)
//! ```
//!
//! * `rate = 1 + drift` captures the oscillator's frequency error
//!   (commodity crystals: tens of ppm).
//! * Random *wander* perturbs `drift` as a slow random walk, so even a
//!   perfectly disciplined clock re-drifts between NTP polls.
//! * Corrections are applied ntpd-style: offsets below [`STEP_THRESHOLD_NS`]
//!   are *slewed* (rate temporarily biased by at most `MAX_SLEW_PPM`,
//!   keeping local time monotonic); larger offsets *step* the clock.
//!
//! Guest time in the paper is **not virtualized**: a guest reads its host's
//! clock, so a checkpoint/restore cycle appears to the guest as a forward
//! jump of wall time — reproduced here simply by the guest re-reading the
//! host clock after restore.

use dvc_sim_core::SimTime;
use rand::Rng;

/// Node-local time in nanoseconds (signed: a badly set clock may read
/// "before" simulation start).
pub type LocalNs = i64;

const PPM: f64 = 1e-6;

/// Maximum slew rate used to absorb corrections, ppm (ntpd: 500).
const MAX_SLEW_PPM: f64 = 500.0;

/// Corrections at or above this magnitude step the clock instead of
/// slewing (ntpd: 128 ms). The NTP discipline ([`crate::ntp::Discipline`])
/// steps on the same threshold.
pub const STEP_THRESHOLD_NS: f64 = 128.0e6;

/// Configuration for a hardware clock.
#[derive(Clone, Copy, Debug)]
pub struct ClockConfig {
    /// Initial offset from true time, ns (what boot-time mis-set looks like).
    pub initial_offset_ns: f64,
    /// Constant frequency error, parts per million.
    pub drift_ppm: f64,
    /// Std-dev of the per-√second random walk on drift, ppm.
    pub wander_ppm: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            initial_offset_ns: 0.0,
            drift_ppm: 0.0,
            wander_ppm: 0.01,
        }
    }
}

/// A drifting, disciplinable hardware clock.
#[derive(Clone, Debug)]
pub struct HwClock {
    cfg: ClockConfig,
    /// True time of the segment origin.
    base_true: SimTime,
    /// Local reading at the segment origin, ns.
    base_local: f64,
    /// Current frequency error, ppm (drift + accumulated wander + discipline).
    freq_ppm: f64,
    /// Remaining offset correction to slew out, ns (signed).
    pending_slew_ns: f64,
}

impl HwClock {
    pub fn new(cfg: ClockConfig) -> Self {
        HwClock {
            base_true: SimTime::ZERO,
            base_local: cfg.initial_offset_ns,
            freq_ppm: cfg.drift_ppm,
            pending_slew_ns: 0.0,
            cfg,
        }
    }

    /// A perfect clock (offset 0, drift 0, no wander).
    pub fn perfect() -> Self {
        HwClock::new(ClockConfig {
            initial_offset_ns: 0.0,
            drift_ppm: 0.0,
            wander_ppm: 0.0,
        })
    }

    /// A clock with randomized imperfections typical of an undisciplined
    /// commodity node: offset uniform in ±`max_offset_ms`, drift normal with
    /// σ = `drift_sigma_ppm`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, max_offset_ms: f64, drift_sigma_ppm: f64) -> Self {
        let offset = rng.gen_range(-max_offset_ms..=max_offset_ms) * 1e6;
        let drift = dvc_sim_core::rng::normal_sample(rng, 0.0, drift_sigma_ppm);
        HwClock::new(ClockConfig {
            initial_offset_ns: offset,
            drift_ppm: drift,
            ..ClockConfig::default()
        })
    }

    /// Advance the segment origin to `true_now`, consuming pending slew and
    /// (optionally) applying frequency wander. Call this at discipline points
    /// and periodic ticks; between calls the clock runs at constant rate.
    pub fn advance<R: Rng + ?Sized>(&mut self, true_now: SimTime, rng: Option<&mut R>) {
        if true_now <= self.base_true {
            return;
        }
        let dt_ns = (true_now - self.base_true).nanos() as f64;
        let dt_s = dt_ns * 1e-9;

        // Natural progression at the current rate.
        let mut local = self.base_local + dt_ns * (1.0 + self.freq_ppm * PPM);

        // Slew absorption, capped by the max slew rate over this interval.
        if self.pending_slew_ns != 0.0 {
            let cap = MAX_SLEW_PPM * PPM * dt_ns;
            let applied = self.pending_slew_ns.clamp(-cap, cap);
            local += applied;
            self.pending_slew_ns -= applied;
        }

        // Frequency wander: random walk with per-√s standard deviation.
        if let Some(rng) = rng {
            if self.cfg.wander_ppm > 0.0 {
                let sigma = self.cfg.wander_ppm * dt_s.sqrt();
                self.freq_ppm += dvc_sim_core::rng::normal_sample(rng, 0.0, sigma);
            }
        }

        self.base_true = true_now;
        self.base_local = local;
    }

    /// Read the local clock at true time `true_now` (≥ the last `advance`).
    pub fn read(&self, true_now: SimTime) -> LocalNs {
        debug_assert!(
            true_now >= self.base_true,
            "clock read before segment origin"
        );
        let dt_ns = true_now.since(self.base_true).nanos() as f64;
        let mut local = self.base_local + dt_ns * (1.0 + self.freq_ppm * PPM);
        // Include in-progress slew so reads between advances stay continuous.
        if self.pending_slew_ns != 0.0 {
            let cap = MAX_SLEW_PPM * PPM * dt_ns;
            local += self.pending_slew_ns.clamp(-cap, cap);
        }
        local.round() as LocalNs
    }

    /// Signed error of the local clock vs. true time, ns (positive = fast).
    pub fn error_ns(&self, true_now: SimTime) -> f64 {
        self.read(true_now) as f64 - true_now.nanos() as f64
    }

    /// Apply a measured offset correction `theta_ns` (the amount local time
    /// is *behind*; positive θ moves local time forward). Steps if large,
    /// otherwise queues a slew. Returns `true` if the clock stepped.
    pub fn correct(&mut self, true_now: SimTime, theta_ns: f64) -> bool {
        self.advance::<rand::rngs::SmallRng>(true_now, None);
        if theta_ns.abs() >= STEP_THRESHOLD_NS {
            self.base_local += theta_ns + self.pending_slew_ns;
            self.pending_slew_ns = 0.0;
            true
        } else {
            self.pending_slew_ns += theta_ns;
            false
        }
    }

    /// Like [`HwClock::correct`], but *replaces* any still-queued slew
    /// instead of adding to it. A freshly measured offset already includes
    /// whatever the previous correction has not yet absorbed, so a
    /// discipline loop that updates faster than the slew rate must use this
    /// form to avoid double-counting.
    pub(crate) fn set_correction(&mut self, true_now: SimTime, theta_ns: f64) -> bool {
        self.advance::<rand::rngs::SmallRng>(true_now, None);
        if theta_ns.abs() >= STEP_THRESHOLD_NS {
            self.base_local += theta_ns + self.pending_slew_ns;
            self.pending_slew_ns = 0.0;
            true
        } else {
            self.pending_slew_ns = theta_ns;
            false
        }
    }

    /// Adjust the frequency estimate by `adj_ppm` (discipline feedback).
    pub(crate) fn adjust_freq(&mut self, true_now: SimTime, adj_ppm: f64) {
        self.advance::<rand::rngs::SmallRng>(true_now, None);
        self.freq_ppm += adj_ppm;
    }

    /// Correction still being slewed out, ns.
    pub fn pending_slew_ns(&self) -> f64 {
        self.pending_slew_ns
    }

    /// How long (in *true* nanoseconds, from `true_now`) until the local
    /// clock reads `target_local`. Returns `None` if the target has already
    /// passed. This is what a checkpoint agent uses to arm "save at local
    /// time T" with a microsecond-precision timer.
    pub fn true_delay_until_local(&self, true_now: SimTime, target_local: LocalNs) -> Option<u64> {
        let now_local = self.read(true_now);
        if target_local <= now_local {
            return None;
        }
        let remaining_local = (target_local - now_local) as f64;
        // First-order inversion; slew/wander effects over the interval are
        // second-order (≤ ppm-scale) and the agent re-checks on wake anyway.
        let rate = 1.0 + self.freq_ppm * PPM;
        Some((remaining_local / rate).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvc_sim_core::SimDuration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn at(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn perfect_clock_tracks_true_time() {
        let c = HwClock::perfect();
        assert_eq!(c.read(at(5.0)), 5_000_000_000);
        assert_eq!(c.error_ns(at(5.0)), 0.0);
    }

    #[test]
    fn drift_accumulates() {
        // +100 ppm fast clock gains 100 µs per second.
        let c = HwClock::new(ClockConfig {
            drift_ppm: 100.0,
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        let err = c.error_ns(at(10.0));
        assert!((err - 10.0 * 100_000.0).abs() < 1.0, "err {err}");
    }

    #[test]
    fn initial_offset_visible() {
        let c = HwClock::new(ClockConfig {
            initial_offset_ns: 3.0e6,
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        assert!((c.error_ns(at(1.0)) - 3.0e6).abs() < 1.0);
    }

    #[test]
    fn small_correction_slews_monotonically() {
        let mut c = HwClock::perfect();
        c.correct(at(0.0), 1.0e6); // +1 ms, below the step threshold
                                   // Immediately after, only a sliver is applied.
        let e0 = c.error_ns(at(0.001));
        assert!(e0 < 1.0e6 * 0.01, "applied too fast: {e0}");
        // After 10 s at 500 ppm ⇒ capacity 5 ms ≫ 1 ms: fully absorbed.
        c.advance::<SmallRng>(at(10.0), None);
        assert!((c.error_ns(at(10.0)) - 1.0e6).abs() < 10.0);
        assert_eq!(c.pending_slew_ns(), 0.0);
        // Monotonicity through the slew.
        let mut last = c.read(at(10.0));
        for i in 1..100 {
            let t = at(10.0 + i as f64 * 0.01);
            let r = c.read(t);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn large_correction_steps() {
        let mut c = HwClock::perfect();
        let stepped = c.correct(at(1.0), 500.0e6); // +500 ms
        assert!(stepped);
        assert!((c.error_ns(at(1.0)) - 500.0e6).abs() < 1.0);
    }

    #[test]
    fn negative_slew_converges() {
        let mut c = HwClock::new(ClockConfig {
            initial_offset_ns: 2.0e6,
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        c.correct(at(0.0), -2.0e6);
        c.advance::<SmallRng>(at(20.0), None);
        assert!(c.error_ns(at(20.0)).abs() < 100.0);
    }

    #[test]
    fn freq_adjustment_changes_rate() {
        let mut c = HwClock::new(ClockConfig {
            drift_ppm: 50.0,
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        c.adjust_freq(at(0.0), -50.0);
        assert_eq!(c.freq_ppm, 0.0);
        assert!(c.error_ns(at(10.0)).abs() < 1.0);
    }

    #[test]
    fn wander_perturbs_frequency() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = HwClock::new(ClockConfig {
            wander_ppm: 1.0,
            ..ClockConfig::default()
        });
        for i in 1..=100 {
            c.advance(at(i as f64 * 10.0), Some(&mut rng));
        }
        assert_ne!(c.freq_ppm, 0.0);
        // Random walk: 100 steps of σ = √10 ppm ⇒ total σ ≈ 32 ppm; 5σ bound.
        assert!(c.freq_ppm.abs() < 160.0, "freq {}", c.freq_ppm);
    }

    #[test]
    fn true_delay_until_local_inverts_rate() {
        let c = HwClock::new(ClockConfig {
            drift_ppm: 1000.0, // exaggerated for a visible effect
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        let now = at(0.0);
        let target: LocalNs = 1_000_000_000; // local t=1s
        let d = c.true_delay_until_local(now, target).unwrap();
        // A fast clock reaches local 1 s *earlier* than true 1 s.
        assert!(d < 1_000_000_000);
        let fire = now + SimDuration::from_nanos(d);
        let local_at_fire = c.read(fire);
        assert!(
            (local_at_fire - target).abs() < 1_000,
            "fired at local {local_at_fire}"
        );
    }

    #[test]
    fn true_delay_none_when_past() {
        let c = HwClock::perfect();
        assert!(c.true_delay_until_local(at(2.0), 1_000_000_000).is_none());
    }

    #[test]
    fn random_clock_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let c = HwClock::random(&mut rng, 50.0, 20.0);
            assert!(c.error_ns(SimTime::ZERO).abs() <= 50.0e6);
        }
    }

    #[test]
    fn advance_is_idempotent_for_same_instant() {
        let mut c = HwClock::new(ClockConfig {
            drift_ppm: 10.0,
            wander_ppm: 0.0,
            ..ClockConfig::default()
        });
        c.advance::<SmallRng>(at(5.0), None);
        let r1 = c.read(at(5.0));
        c.advance::<SmallRng>(at(5.0), None);
        assert_eq!(c.read(at(5.0)), r1);
    }
}

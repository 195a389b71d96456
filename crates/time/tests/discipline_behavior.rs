//! Integration tests for the clock + discipline stack through its public
//! API: step-vs-slew behavior at the ntpd 128 ms threshold, slew-rate
//! capping, end-to-end convergence, recovery from a clock step that lands
//! during an NTP outage, and the local-deadline misfire a stepped clock
//! causes — the exact mechanism behind blown LSC windows (see the
//! `hardened-clock-step-blown-window` fuzz-corpus case in `dvc-bench`).

use dvc_sim_core::SimTime;
use dvc_time::clock::{ClockConfig, HwClock, LocalNs, STEP_THRESHOLD_NS};
use dvc_time::ntp::{offset_delay, Discipline, NtpSample};
use proptest::prelude::*;

/// One symmetric client↔server exchange against a perfect server with
/// fixed 100 µs one-way delays; returns the sample and its completion
/// (true) time.
fn exchange(clock: &HwClock, t: SimTime) -> (NtpSample, SimTime) {
    let one_way = 100_000u64;
    let t1 = clock.read(t);
    let t2 = (t.nanos() + one_way) as LocalNs; // perfect server clock
    let t3 = t2 + 10_000; // 10 µs server processing
    let t_back = SimTime(t3 as u64 + one_way);
    let t4 = clock.read(t_back);
    let (offset_ns, delay_ns) = offset_delay(t1, t2, t3, t4);
    (
        NtpSample {
            offset_ns,
            delay_ns,
            completed_at: t4,
        },
        t_back,
    )
}

proptest! {
    /// `correct()` steps exactly when |θ| reaches the 128 ms threshold and
    /// slews below it — the boundary itself steps (ntpd semantics: "at or
    /// above").
    #[test]
    fn step_threshold_is_exact(theta_ms in -400.0f64..400.0) {
        let mut clock = HwClock::perfect();
        let t = SimTime::from_secs(1);
        let theta_ns = theta_ms * 1e6;
        let stepped = clock.correct(t, theta_ns);
        prop_assert_eq!(stepped, theta_ns.abs() >= STEP_THRESHOLD_NS);
        if stepped {
            // The whole correction lands instantly.
            prop_assert!((clock.error_ns(t) - theta_ns).abs() < 2.0);
            prop_assert_eq!(clock.pending_slew_ns(), 0.0);
        } else {
            // Queued, not applied... yet absorbed only at the slew cap.
            prop_assert_eq!(clock.pending_slew_ns(), theta_ns);
        }
    }
}

/// The clock and the discipline share one threshold: an offset exactly at
/// it steps in both, and one ns below it slews in both.
#[test]
fn clock_and_discipline_step_at_the_same_boundary() {
    let t = SimTime::from_secs(1);
    for (theta, steps) in [(STEP_THRESHOLD_NS, true), (STEP_THRESHOLD_NS - 1.0, false)] {
        let mut clock = HwClock::perfect();
        assert_eq!(clock.correct(t, theta), steps, "clock at θ = {theta}");

        let mut clock = HwClock::perfect();
        let mut disc = Discipline::new();
        let sample = NtpSample {
            offset_ns: theta,
            delay_ns: 200_000.0,
            completed_at: clock.read(t),
        };
        assert_eq!(disc.on_sample(&mut clock, t, sample), Some(theta));
        assert_eq!(disc.steps, u32::from(steps), "discipline at θ = {theta}");
        let pending = if steps { 0.0 } else { theta };
        assert_eq!(clock.pending_slew_ns(), pending);
    }
}

/// A sub-threshold correction is absorbed at no more than `MAX_SLEW_PPM`
/// — 500 ppm means 100 ms takes 200 s to slew out, not one tick.
#[test]
fn slew_rate_is_capped() {
    let mut clock = HwClock::perfect();
    let t0 = SimTime::from_secs(1);
    assert!(!clock.correct(t0, 100.0e6)); // 100 ms: below threshold
                                          // 10 s later at 500 ppm at most 5 ms may have been absorbed.
    let t1 = SimTime::from_secs(11);
    clock.advance::<rand::rngs::SmallRng>(t1, None);
    let absorbed = 100.0e6 - clock.pending_slew_ns();
    assert!(
        (absorbed - 5.0e6).abs() < 1e3,
        "absorbed {absorbed} ns in 10 s, expected ~5 ms at the 500 ppm cap"
    );
    // After 200 s the whole correction is in.
    let t2 = SimTime::from_secs(250);
    clock.advance::<rand::rngs::SmallRng>(t2, None);
    assert_eq!(clock.pending_slew_ns(), 0.0);
    assert!((clock.error_ns(t2) - 100.0e6).abs() < 1e3);
}

/// A badly-set drifting clock polling every 4 s steps once at boot and
/// then converges to sub-ms residuals — the paper's operating assumption.
#[test]
fn discipline_converges_from_boot_offset() {
    let mut clock = HwClock::new(ClockConfig {
        initial_offset_ns: 500.0e6,
        drift_ppm: 30.0,
        wander_ppm: 0.0,
    });
    let mut disc = Discipline::new();
    let mut worst_late = 0.0f64;
    for i in 1..=100 {
        let t = SimTime::from_secs(4 * i);
        clock.advance::<rand::rngs::SmallRng>(t, None);
        let (sample, t_back) = exchange(&clock, t);
        disc.on_sample(&mut clock, t_back, sample);
        if i > 25 {
            worst_late = worst_late.max(clock.error_ns(t_back).abs());
        }
    }
    assert_eq!(disc.steps, 1, "exactly the boot offset should step");
    assert!(
        worst_late < 1.0e6,
        "steady-state residual should be < 1 ms, got {} ms",
        worst_late / 1e6
    );
}

/// A +6 s step landing while NTP is unreachable goes uncorrected for the
/// whole outage, and the first exchange after service resumes steps the
/// clock straight back.
#[test]
fn step_during_outage_is_recovered_on_resume() {
    let mut clock = HwClock::new(ClockConfig {
        initial_offset_ns: 3.0e6,
        drift_ppm: 20.0,
        wander_ppm: 0.0,
    });
    let mut disc = Discipline::new();
    // Phase 1: disciplined normally for 200 s.
    for i in 1..=50 {
        let t = SimTime::from_secs(4 * i);
        clock.advance::<rand::rngs::SmallRng>(t, None);
        let (sample, t_back) = exchange(&clock, t);
        disc.on_sample(&mut clock, t_back, sample);
    }
    let steps_before = disc.steps;

    // Phase 2: outage begins; a fault steps the clock +6 s. No samples
    // arrive, so the error persists across the entire outage.
    let t_step = SimTime::from_secs(210);
    assert!(clock.correct(t_step, 6.0e9));
    let t_mid_outage = SimTime::from_secs(400);
    clock.advance::<rand::rngs::SmallRng>(t_mid_outage, None);
    assert!(
        clock.error_ns(t_mid_outage) > 5.9e9,
        "nothing may correct the step while NTP is out"
    );

    // Phase 3: service resumes; the first sample measures ~-6 s and steps.
    let mut recovered = f64::INFINITY;
    for i in 0..10 {
        let t = SimTime::from_secs(410 + 4 * i);
        clock.advance::<rand::rngs::SmallRng>(t, None);
        let (sample, t_back) = exchange(&clock, t);
        disc.on_sample(&mut clock, t_back, sample);
        recovered = recovered.min(clock.error_ns(t_back).abs());
    }
    assert!(
        disc.steps > steps_before,
        "recovery must be a step, not a slew"
    );
    assert!(
        recovered < 1.0e6,
        "post-outage residual should be < 1 ms, got {} ms",
        recovered / 1e6
    );
}

/// A single high-delay ("popcorn") sample is discarded by the filter and
/// moves nothing, even if its offset estimate is wildly wrong.
#[test]
fn popcorn_sample_is_ignored() {
    let mut clock = HwClock::perfect();
    let mut disc = Discipline::new();
    for i in 1..=10 {
        let t = SimTime::from_secs(4 * i);
        clock.advance::<rand::rngs::SmallRng>(t, None);
        let (sample, t_back) = exchange(&clock, t);
        disc.on_sample(&mut clock, t_back, sample);
    }
    let t = SimTime::from_secs(60);
    let completed_at = clock.read(t);
    let applied = disc.on_sample(
        &mut clock,
        t,
        NtpSample {
            offset_ns: 1.0e9, // claims we're a second off...
            delay_ns: 50.0e6, // ...through 250x the usual round-trip
            completed_at,
        },
    );
    assert_eq!(applied, None, "popcorn sample must be suppressed");
    assert!(clock.error_ns(t).abs() < 1e3);
}

/// The LSC failure mechanism in miniature: "fire at shared local time T"
/// armed on a clock that stepped +6 s fires immediately (6 s early),
/// because the local deadline has already "passed". This is why the
/// clock-based hardened coordinator cannot promise an in-budget window
/// under adversarial steps — only the clock-free GO broadcast can.
#[test]
fn shared_local_deadline_misfires_on_stepped_clock() {
    let head = HwClock::perfect();
    let mut member = HwClock::perfect();
    let now = SimTime::from_secs(100);
    let lead = 2_000_000_000i64; // fire 2 s from now, by the head's clock
    let target_local = head.read(now) + lead;

    // Sane member: the timer arms ~2 s out.
    let delay = member.true_delay_until_local(now, target_local).unwrap();
    assert!((delay as f64 - 2.0e9).abs() < 2.0);

    // Member stepped +6 s: the deadline reads as 4 s in the past.
    assert!(member.correct(now, 6.0e9));
    assert_eq!(
        member.true_delay_until_local(now, target_local),
        None,
        "a fast clock sees the shared deadline as already passed"
    );
}

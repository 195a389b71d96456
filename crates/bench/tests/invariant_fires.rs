//! The stream-checked window invariant must actually *fire* when a seeded
//! fault makes a stored checkpoint set illegal — a checker that only ever
//! reports "clean" proves nothing.
//!
//! Scenario: an NTP outage blankets the whole run, and one member's clock
//! steps +6 s mid-outage. The NTP-scheduled coordinator keeps trusting
//! wall-clock fire instants, so that member pauses ~6 s out of step with
//! its peers — far past the ≈3 s guest-TCP silence budget the
//! [`InvariantChecker`] enforces on stored windows.
//!
//! The clean control runs the same checker over a fault-free world and
//! must find nothing, so a checker that fires on everything fails too.

use dvc_bench::scen::{ring_load, run_cycles, settle, TrialWorld};
use dvc_cluster::faults::install_fault_plan;
use dvc_core::lsc::LscMethod;
use dvc_sim_core::{FaultPlan, InvariantChecker, Metrics, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn window_invariant_is_clean_without_faults() {
    let tw = TrialWorld {
        nodes: 8,
        spares: 1,
        mem_mb: 64,
        seed: 7,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    sim.metrics = Metrics::enabled();
    let checker = Rc::new(RefCell::new(InvariantChecker::new(
        sim.world.cfg.silence_budget(),
    )));
    sim.attach_sink(checker.clone());

    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(30));
    let outs = run_cycles(
        &mut sim,
        vc_id,
        LscMethod::ntp_default(),
        2,
        SimDuration::from_secs(5),
    );
    settle(&mut sim, SimDuration::from_secs(20));
    assert_eq!(outs.len(), 2, "both checkpoint cycles must run");
    assert!(outs.iter().all(|o| o.success), "a checkpoint cycle failed");

    let c = checker.borrow();
    assert!(c.is_clean(), "violations: {:?}", c.violations());
    let counts = c.counts();
    assert!(
        counts.windows > 0 && counts.sets > 0,
        "the checker saw no checkpoint traffic: {counts:?}"
    );
    assert!(sim.metrics.counter("lsc.save_fired") > 0);
}

#[test]
fn window_invariant_fires_on_seeded_clock_step() {
    let tw = TrialWorld {
        nodes: 6,
        seed: 1907,
        mem_mb: 64,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let checker = Rc::new(RefCell::new(InvariantChecker::new(
        sim.world.cfg.silence_budget(),
    )));
    sim.attach_sink(checker.clone());

    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(20));

    // NTP goes dark for the rest of the run; node 2's clock steps +6 s
    // shortly before the checkpoint is scheduled.
    let t0 = sim.now();
    let mut plan = FaultPlan::new(0xBAD);
    plan.window(
        "ntp.outage",
        None,
        t0,
        t0 + SimDuration::from_secs(600),
        1.0,
    );
    plan.window(
        "clock.step",
        Some(2),
        t0 + SimDuration::from_secs(2),
        t0 + SimDuration::from_secs(2),
        6.0,
    );
    install_fault_plan(&mut sim, plan);

    let outs = run_cycles(
        &mut sim,
        vc_id,
        LscMethod::ntp_default(),
        1,
        SimDuration::from_secs(10),
    );
    assert_eq!(outs.len(), 1, "the checkpoint cycle must run");

    let c = checker.borrow();
    let counts = c.counts();
    assert!(counts.windows > 0, "the window must have closed and stored");
    assert!(
        !c.is_clean(),
        "a +6 s clock step under an NTP outage must trip the window \
         invariant (budget ≈3 s); counts: {counts:?}"
    );
    assert!(
        c.violations()
            .iter()
            .any(|v| v.contains("window") || v.contains("skew") || v.contains("spread")),
        "violation should describe the window/skew breach: {:?}",
        c.violations()
    );
}

//! Running one declarative scenario under the full oracle stack.
//!
//! The oracles, and what each would catch:
//!
//! 1. **invariants** ([`InvariantChecker`]) — blown stored windows, run
//!    lifecycle breaches (a save fired after its window closed, a window
//!    closed twice, an event after its run finished), generation
//!    regressions, jobs on dead nodes. A blown stored
//!    window is a *failure* only for coordinators whose design guarantees
//!    the window under the scenario's fault plan: clock-free
//!    `hardened-naive` always, clock-based `hardened` only absent
//!    adversarial clock steps (acks prove control-path health, not clock
//!    agreement). Everywhere else it is the paper's documented failure
//!    mode and is reported as a **detection** — pinning that asymmetry is
//!    itself regression coverage.
//! 2. **spans** ([`SpanChecker`]) — malformed causal trees, id reuse,
//!    spans left open after the trial drains.
//! 3. **cross-check** — event/metrics bookkeeping that must tie out
//!    exactly: every `vmm.save` span wraps exactly one snapshot
//!    begin/end pair; a stored round fired every member exactly once
//!    (`fires == VC size` — the "span count == generation members" check:
//!    save spans can exceed members only by checksum re-saves, which the
//!    snapshot pairing covers); one `SetStored` per stored window; the
//!    [`Metrics`] registry agrees with an independent count of the same
//!    stream.
//! 4. **liveness** — every checkpoint round resolves within a generous
//!    sim-time deadline; a coordinator that strands a cycle (or lets the
//!    event queue drain mid-round) fails loudly instead of hanging the
//!    campaign.
//! 5. **determinism** ([`Tuning::replay_check`]) — the trial is re-run
//!    from the same spec and must reproduce the identical event/span
//!    digest, outcome vector and end time.

use super::spec::ScenarioSpec;
use crate::scen::{ring_load, settle, TrialWorld};
use dvc_cluster::faults::install_fault_plan;
use dvc_cluster::world::ClusterWorld;
use dvc_core::lsc::{self, LscMethod};
use dvc_core::vc::{self, VcId};
use dvc_mpi::harness;
use dvc_sim_core::rng;
use dvc_sim_core::{
    fnv1a, kind_from_str, Event, EventSink, FaultPlan, InvariantChecker, LscEvent, Metrics,
    PhaseAttribution, Sim, SimDuration, SimTime, SpanChecker, SpanEvent, VmmEvent, FNV_BASIS,
};
use dvc_workloads::{hpl, ptrans, stream};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-cycle sim-time deadline for the liveness oracle. The model's own
/// save-phase watchdog declares a run failed after 3600 s (see
/// `lsc::SAVE_TIMEOUT`), and a baseline coordinator whose arm command was
/// eaten by `control.drop` legitimately stalls until then — so the oracle
/// only flags rounds that outlive the watchdog too. (The first fuzz
/// campaign ran with 600 s here and "found" exactly that stall; the
/// `baseline-arm-drop-stall` corpus case pins the corrected behavior.)
const ROUND_DEADLINE: SimDuration = SimDuration::from_secs(3700);
/// Post-cycle drain so transport fallout lands and timeouts close spans.
const DRAIN: SimDuration = SimDuration::from_secs(45);

/// Knobs the tests (and the forced-violation acceptance check) turn.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tuning {
    /// Replace the world-derived silence budget the oracles check against.
    /// This is the sabotage hook: a near-zero budget must make the window
    /// oracle fire on any stored round, and the shrinker must then reduce
    /// the scenario to (almost) nothing.
    pub budget_override: Option<SimDuration>,
    /// Run the spec twice and compare digests (the determinism oracle).
    pub replay_check: bool,
}

/// One oracle objection.
#[derive(Clone, Debug)]
pub struct OracleFailure {
    pub oracle: &'static str,
    pub detail: String,
}

/// Everything one trial reports back to the campaign.
#[derive(Clone, Debug, Default)]
pub struct TrialReport {
    /// FNV digest over the event stream, span stream, outcomes and end
    /// time — the determinism fingerprint.
    pub digest: u64,
    /// Oracle objections — genuine bugs (or sabotage). Empty ⇒ clean.
    pub failures: Vec<OracleFailure>,
    /// Expected-by-design detections: blown stored windows from
    /// non-hardened coordinators (the paper's failure mode, observed).
    pub detections: Vec<String>,
    /// Checkpoint outcomes delivered / successful.
    pub outcomes: u32,
    pub successes: u32,
    /// Oracle exercise counts (vacuous-trial accounting).
    pub windows_checked: u64,
    pub spans_opened: u64,
    pub events: u64,
    pub faults_injected: u64,
    /// The application survived (no rank crashed or saw a socket error).
    pub app_alive: bool,
    pub end_s: f64,
}

impl TrialReport {
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "{}: {} outcome(s) ({} ok), {} window(s), {} span(s), {} fault(s), \
             {} detection(s), app {}",
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} FAILURE(S)", self.failures.len())
            },
            self.outcomes,
            self.successes,
            self.windows_checked,
            self.spans_opened,
            self.faults_injected,
            self.detections.len(),
            if self.app_alive { "alive" } else { "dead" },
        )
    }
}

/// Independent bookkeeping over the raw stream, for the cross-check oracle
/// and the determinism digest. Deliberately *not* reusing the metrics
/// registry: agreeing with it is one of the checks.
#[derive(Debug, Default)]
struct CrossCheck {
    digest: u64,
    events: u64,
    snap_begin: u64,
    snap_end: u64,
    set_stored: u64,
    windows_stored: u64,
    vmm_save_spans: u64,
}

impl EventSink for CrossCheck {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        if self.events == 0 {
            self.digest = FNV_BASIS;
        }
        self.events += 1;
        self.digest = fnv1a(self.digest, &time.nanos().to_le_bytes());
        self.digest = fnv1a(self.digest, event.key().as_bytes());
        match event {
            Event::Vmm(VmmEvent::SnapshotBegin { .. }) => self.snap_begin += 1,
            Event::Vmm(VmmEvent::SnapshotEnd { .. }) => self.snap_end += 1,
            Event::Lsc(LscEvent::SetStored { .. }) => self.set_stored += 1,
            Event::Lsc(LscEvent::WindowClosed { stored: true, .. }) => self.windows_stored += 1,
            Event::Span(SpanEvent::Open {
                name: "vmm.save", ..
            }) => self.vmm_save_spans += 1,
            _ => {}
        }
    }
}

/// Run a validated spec once (twice with [`Tuning::replay_check`]) and
/// render the oracle verdicts.
pub fn run_scenario(spec: &ScenarioSpec, tuning: &Tuning) -> Result<TrialReport, String> {
    spec.validate()?;
    let mut report = run_once(spec, tuning)?;
    if tuning.replay_check {
        let twin = run_once(spec, tuning)?;
        if twin.digest != report.digest {
            report.failures.push(OracleFailure {
                oracle: "determinism",
                detail: format!(
                    "same-spec replay diverged: digest {:#x} vs {:#x} \
                     ({} vs {} events, end {:.3}s vs {:.3}s)",
                    report.digest,
                    twin.digest,
                    report.events,
                    twin.events,
                    report.end_s,
                    twin.end_s
                ),
            });
        }
    }
    Ok(report)
}

fn launch_workload(
    sim: &mut Sim<ClusterWorld>,
    spec: &ScenarioSpec,
    vc_id: VcId,
) -> harness::MpiJob {
    let vms = vc::vc(sim, vc_id).expect("vc just provisioned").vms.clone();
    let n = spec.nodes;
    match spec.workload.as_str() {
        "ring" => ring_load(sim, vc_id, u64::MAX / 2),
        // The sequential workload: rank 0's VM computes, the rest idle
        // (their saves are still coordinated). Sized to outlast the trial.
        "stream" => {
            let cfg = stream::StreamConfig {
                len: 1 << 12,
                reps: 5_000,
                mem_bw_bps: 5.0e5,
                scalar: 3.0,
            };
            harness::launch_on_vms(sim, &vms[..1], move |r, s| stream::program(cfg, r, s))
        }
        "hpl" => {
            let cfg = hpl::HplConfig::new(8 * n, 8, spec.seed);
            harness::launch_on_vms(sim, &vms, move |r, s| hpl::program(cfg, r, s))
        }
        "ptrans" => {
            let cfg = ptrans::PtransConfig::new(8 * n, spec.seed).with_reps(50);
            harness::launch_on_vms(sim, &vms, move |r, s| ptrans::program(cfg, r, s))
        }
        other => unreachable!("validated workload {other:?}"),
    }
}

fn build_plan(spec: &ScenarioSpec, t0: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::new(rng::derive_seed(spec.seed, "fuzz.plan", 0));
    for f in &spec.faults {
        let kind = kind_from_str(&f.kind).expect("validated kind");
        plan.window(
            kind,
            f.target,
            t0 + SimDuration::from_secs_f64(f.from_s),
            t0 + SimDuration::from_secs_f64(f.until_s),
            f.magnitude,
        );
    }
    for s in &spec.steady {
        plan.steady(kind_from_str(&s.kind).expect("validated kind"), s.prob);
    }
    plan
}

fn run_once(spec: &ScenarioSpec, tuning: &Tuning) -> Result<TrialReport, String> {
    let method = LscMethod::from_name(&spec.method).expect("validated method");
    let tw = TrialWorld {
        nodes: spec.nodes,
        spares: spec.spares,
        clusters: spec.clusters,
        seed: spec.seed,
        tcp_retries: spec.tcp_retries,
        clock_offset_ms: spec.clock_offset_ms,
        mem_mb: spec.mem_mb,
        ntp: spec.ntp,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let budget = tuning
        .budget_override
        .unwrap_or_else(|| sim.world.cfg.silence_budget());

    sim.metrics = Metrics::enabled();
    let inv = Rc::new(RefCell::new(InvariantChecker::new(budget)));
    let spans = Rc::new(RefCell::new(SpanChecker::new()));
    let attrib = Rc::new(RefCell::new(PhaseAttribution::new(budget)));
    let cross = Rc::new(RefCell::new(CrossCheck::default()));
    sim.attach_sink(inv.clone());
    sim.attach_sink(spans.clone());
    sim.attach_sink(attrib.clone());
    sim.attach_sink(cross.clone());

    let job = launch_workload(&mut sim, spec, vc_id);
    settle(&mut sim, SimDuration::from_secs_f64(spec.settle_s));
    let t0 = sim.now();
    install_fault_plan(&mut sim, build_plan(spec, t0));

    // Drive the checkpoint cycles with a per-round liveness deadline.
    let mut outcomes = Vec::new();
    let mut failures: Vec<OracleFailure> = Vec::new();
    let gap = SimDuration::from_secs_f64(spec.gap_s);
    for k in 0..spec.cycles {
        let at = sim.now() + gap;
        let deadline = at + ROUND_DEADLINE;
        let out = sim.await_reply(deadline, |sim, reply| {
            sim.schedule_at(at, move |sim| {
                lsc::checkpoint_vc(sim, vc_id, method, reply);
            });
        });
        let Some(out) = out else {
            failures.push(OracleFailure {
                oracle: "liveness",
                detail: format!(
                    "cycle {k}: no outcome by t={:.1}s (queue {})",
                    deadline.as_secs_f64(),
                    if sim.now() > deadline {
                        "live"
                    } else {
                        "drained"
                    },
                ),
            });
            break;
        };
        outcomes.push(out);
    }
    settle(&mut sim, DRAIN);

    let app_alive = harness::first_failure(&sim, &job).is_none();
    let faults_injected = sim.world.faults.injected_total();
    let end = sim.now();
    let m_snap_begin = sim.metrics.counter("vmm.snapshot_begin");
    let m_set_stored = sim.metrics.counter("lsc.set_stored");

    sim.clear_sinks();
    drop(sim);
    let inv = Rc::try_unwrap(inv).expect("sim dropped").into_inner();
    let spans = Rc::try_unwrap(spans).expect("sim dropped").into_inner();
    let attrib = Rc::try_unwrap(attrib).expect("sim dropped").into_inner();
    let cross = Rc::try_unwrap(cross).expect("sim dropped").into_inner();

    let mut detections: Vec<String> = Vec::new();

    // Which coordinators actually promise an in-budget stored window here?
    // `hardened-naive` always: its GO broadcast is clock-free. Clock-based
    // `hardened` promises it only while member clocks are sane — an
    // adversarial `clock.step` between arm and fire defeats the ack guard,
    // because acks prove control-path health, not clock agreement. (Found
    // by campaign seed 1, trial 162: a −7.1 s step with NTP off made
    // `hardened` store a 7.1 s window. See the
    // `hardened-clock-step-blown-window` corpus case.) Naive/ntp never
    // promise it — blown windows there are the paper's phenomenon.
    let steps_clocks = spec.faults.iter().any(|f| f.kind == "clock.step");
    let window_guaranteed = match method {
        LscMethod::HardenedNaive { .. } => true,
        LscMethod::Hardened { .. } => !steps_clocks,
        _ => false,
    };

    // Oracle 1: invariants (window violations split by coordinator family).
    for v in inv.violations().iter().cloned() {
        if v.starts_with("lsc window") && !window_guaranteed {
            detections.push(v);
        } else {
            failures.push(OracleFailure {
                oracle: "invariants",
                detail: v,
            });
        }
    }

    // Oracle 2: span well-formedness (unclosed spans included).
    for v in spans.findings() {
        failures.push(OracleFailure {
            oracle: "spans",
            detail: v,
        });
    }

    // Oracle 3: stream bookkeeping ties out exactly.
    let mut cross_eq = |label: &str, a: u64, b: u64| {
        if a != b {
            failures.push(OracleFailure {
                oracle: "cross-check",
                detail: format!("{label}: {a} != {b}"),
            });
        }
    };
    cross_eq("snapshot begin vs end", cross.snap_begin, cross.snap_end);
    cross_eq(
        "vmm.save spans vs snapshots",
        cross.vmm_save_spans,
        cross.snap_begin,
    );
    cross_eq(
        "stored sets vs stored windows",
        cross.set_stored,
        cross.windows_stored,
    );
    cross_eq("metrics vmm.snapshot_begin", m_snap_begin, cross.snap_begin);
    cross_eq("metrics lsc.set_stored", m_set_stored, cross.set_stored);
    for r in attrib.rounds() {
        if r.stored == Some(true) && r.fires != spec.nodes as u32 {
            failures.push(OracleFailure {
                oracle: "cross-check",
                detail: format!(
                    "stored round {} fired {} member(s), VC has {}",
                    r.run, r.fires, spec.nodes
                ),
            });
        }
    }

    let mut digest = fnv1a(FNV_BASIS, &cross.digest.to_le_bytes());
    digest = fnv1a(digest, &spans.digest().to_le_bytes());
    digest = fnv1a(digest, &cross.events.to_le_bytes());
    digest = fnv1a(digest, &end.nanos().to_le_bytes());
    for o in &outcomes {
        digest = fnv1a(digest, &[o.success as u8]);
    }

    Ok(TrialReport {
        digest,
        failures,
        detections,
        outcomes: outcomes.len() as u32,
        successes: outcomes.iter().filter(|o| o.success).count() as u32,
        windows_checked: inv.counts().windows,
        spans_opened: spans.opened(),
        events: cross.events,
        faults_injected,
        app_alive,
        end_s: end.as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small calm hardened-naive trial must come back clean with every
    /// oracle exercised.
    #[test]
    fn calm_trial_is_clean_and_exercised() {
        let spec = ScenarioSpec {
            seed: 11,
            nodes: 4,
            method: "hardened-naive".into(),
            settle_s: 10.0,
            ..ScenarioSpec::default()
        };
        let r = run_scenario(&spec, &Tuning::default()).unwrap();
        assert!(r.is_clean(), "{:?}", r.failures);
        assert_eq!(r.outcomes, 1);
        assert!(r.windows_checked >= 1, "window oracle never exercised");
        assert!(r.spans_opened > 0, "span oracle never exercised");
        assert!(r.app_alive);
    }

    /// The sabotage hook: with a near-zero budget every stored round blows
    /// the window, and the blown windows are the only failures (the
    /// budget judges no other oracle).
    #[test]
    fn sabotaged_budget_is_caught_coherently() {
        let spec = ScenarioSpec {
            seed: 12,
            nodes: 4,
            method: "hardened-naive".into(),
            settle_s: 10.0,
            ..ScenarioSpec::default()
        };
        let tuning = Tuning {
            budget_override: Some(SimDuration::from_nanos(1)),
            replay_check: false,
        };
        let r = run_scenario(&spec, &tuning).unwrap();
        assert!(!r.is_clean(), "sabotaged budget must trip the oracles");
        assert!(
            r.failures
                .iter()
                .all(|f| f.oracle == "invariants" && f.detail.starts_with("lsc window")),
            "expected only window violations: {:?}",
            r.failures
        );
    }
}

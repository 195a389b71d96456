//! Stream-checked invariants and exporters — [`crate::EventSink`]
//! implementations that consume the typed event spine.
//!
//! [`InvariantChecker`] watches the stream online and records violations of
//! the four invariants the DVC correctness argument rests on:
//!
//! 1. **LSC window** — within one coordinated save, every member's pause
//!    instant must fall inside the transport silence budget of the first
//!    (the paper's "save every VM before any TCP timeout expires"). The
//!    checker derives the window from [`LscEvent::SaveFired`] times itself
//!    rather than trusting the coordinator's own skew arithmetic, and flags
//!    only windows the coordinator *closed as stored* — a blown window on a
//!    failed attempt is the system working as designed.
//! 2. **Run lifecycle** — a coordinated save is a barrier every member
//!    passes once: all of a run's [`LscEvent::SaveFired`] come before its
//!    single [`LscEvent::WindowClosed`], and no event of the run follows
//!    its [`LscEvent::RunFinished`]. Every judgement of a run's pause
//!    spread — this checker's at window close, [`crate::PhaseAttribution`]'s
//!    at stream end — then sees the same fires.
//! 3. **Checkpoint-generation monotonicity** — per VC, stored set ids and
//!    store instants strictly advance ([`LscEvent::SetStored`]).
//! 4. **No job on a dead node** — the resource manager never starts a job
//!    on a node currently down ([`RmEvent`] lifecycle vs. node liveness).
//!
//! Attach with `sim.attach_sink(checker.clone())`, run, then read
//! [`InvariantChecker::findings`]. The bench binaries surface this as
//! `--check-invariants`.

use crate::event::{Event, LscEvent, RmEvent};
use crate::sim::EventSink;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;

#[derive(Clone, Copy, Debug, Default)]
struct RunWindow {
    first_fire: Option<SimTime>,
    last_fire: Option<SimTime>,
    fires: u32,
    closed: bool,
}

/// Counts of how often each invariant was actually exercised — so "no
/// violations" from a run that closed zero windows is distinguishable from
/// a clean bill of health.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckCounts {
    /// Save windows closed as stored and checked against the budget.
    pub windows: u64,
    /// Stored sets checked for monotonicity.
    pub sets: u64,
    /// Job starts checked against node liveness.
    pub job_starts: u64,
}

impl AddAssign for CheckCounts {
    fn add_assign(&mut self, o: CheckCounts) {
        self.windows += o.windows;
        self.sets += o.sets;
        self.job_starts += o.job_starts;
    }
}

/// Online checker for the four DVC invariants. See the module docs.
#[derive(Debug)]
pub struct InvariantChecker {
    budget: SimDuration,
    /// Runs seen and not yet finished.
    windows: BTreeMap<u64, RunWindow>,
    /// Finished runs. A trial finishes a handful, so a scan is cheap.
    finished: Vec<u64>,
    last_set: BTreeMap<u32, (u64, SimTime)>,
    down: BTreeSet<u32>,
    violations: Vec<String>,
    counts: CheckCounts,
}

impl InvariantChecker {
    /// `budget` is the transport silence budget the LSC window is checked
    /// against — `rto_min · (2^retries − 1)` for the world's TCP config.
    pub fn new(budget: SimDuration) -> Self {
        InvariantChecker {
            budget,
            windows: BTreeMap::new(),
            finished: Vec::new(),
            last_set: BTreeMap::new(),
            down: BTreeSet::new(),
            violations: Vec::new(),
            counts: CheckCounts::default(),
        }
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    pub fn counts(&self) -> CheckCounts {
        self.counts
    }

    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The checkpoint run an event belongs to, if any.
fn run_of(ev: &LscEvent) -> Option<u64> {
    match ev {
        LscEvent::ArmSent { run, .. }
        | LscEvent::SaveFired { run, .. }
        | LscEvent::SaveAcked { run, .. }
        | LscEvent::WindowClosed { run, .. }
        | LscEvent::AbortReArm { run, .. }
        | LscEvent::RunFinished { run, .. } => Some(*run),
        _ => None,
    }
}

impl EventSink for InvariantChecker {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        if let Event::Lsc(ev) = event {
            if let Some(run) = run_of(ev).filter(|r| self.finished.contains(r)) {
                self.violations.push(format!(
                    "run lifecycle: run {run} emitted {} after it finished",
                    event.key()
                ));
            }
        }
        match event {
            Event::Lsc(LscEvent::SaveFired { run, .. }) => {
                let w = self.windows.entry(*run).or_default();
                if w.closed {
                    self.violations.push(format!(
                        "run lifecycle: run {run} fired a save after its window closed"
                    ));
                }
                if w.first_fire.is_none() {
                    w.first_fire = Some(time);
                }
                w.last_fire = Some(time);
                w.fires += 1;
            }
            Event::Lsc(LscEvent::WindowClosed {
                run, vc, stored, ..
            }) => {
                let w = self.windows.entry(*run).or_default();
                if w.closed {
                    self.violations
                        .push(format!("run lifecycle: run {run} closed its window twice"));
                }
                w.closed = true;
                if let (true, Some(a), Some(b)) = (*stored, w.first_fire, w.last_fire) {
                    self.counts.windows += 1;
                    let spread = b - a;
                    if spread > self.budget {
                        self.violations.push(format!(
                            "lsc window: run {run} on vc {vc} stored a set with \
                             pause spread {spread} > budget {} ({} fires)",
                            self.budget, w.fires
                        ));
                    }
                }
            }
            Event::Lsc(LscEvent::RunFinished { run, .. }) => {
                self.windows.remove(run);
                self.finished.push(*run);
            }
            Event::Lsc(LscEvent::SetStored { vc, set, .. }) => {
                self.counts.sets += 1;
                if let Some((last_id, last_t)) = self.last_set.get(vc) {
                    if set <= last_id {
                        self.violations.push(format!(
                            "generation monotonicity: vc {vc} stored set {set} after set {last_id}"
                        ));
                    }
                    if time <= *last_t {
                        self.violations.push(format!(
                            "generation monotonicity: vc {vc} set {set} stored at {time}, \
                             not after previous at {last_t}"
                        ));
                    }
                }
                self.last_set.insert(*vc, (*set, time));
            }
            Event::Rm(RmEvent::NodeDown { node }) => {
                self.down.insert(*node);
            }
            Event::Rm(RmEvent::NodeUp { node }) => {
                self.down.remove(node);
            }
            Event::Rm(RmEvent::JobStarted { job, nodes }) => {
                self.counts.job_starts += 1;
                for n in nodes {
                    if self.down.contains(n) {
                        self.violations.push(format!(
                            "job on dead node: job {job} started on down node {n}"
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    fn findings(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// Collects every event as one JSONL line (see [`Event::jsonl`]), bounded so
/// a runaway campaign cannot exhaust memory.
#[derive(Debug)]
pub struct JsonlSink {
    pub lines: Vec<String>,
    cap: usize,
    pub dropped: u64,
}

impl JsonlSink {
    pub fn new(cap: usize) -> Self {
        JsonlSink {
            lines: Vec::new(),
            cap,
            dropped: 0,
        }
    }
}

impl EventSink for JsonlSink {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        if self.lines.len() < self.cap {
            self.lines.push(event.jsonl(time));
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LscEvent, RmEvent};

    fn fire(t: u64, run: u64) -> (SimTime, Event) {
        (
            SimTime(t),
            Event::Lsc(LscEvent::SaveFired {
                run,
                vc: 0,
                member: 0,
                vm: 0,
            }),
        )
    }

    fn close(t: u64, run: u64, stored: bool) -> (SimTime, Event) {
        (
            SimTime(t),
            Event::Lsc(LscEvent::WindowClosed {
                run,
                vc: 0,
                skew: SimDuration::ZERO,
                stored,
            }),
        )
    }

    fn feed(c: &mut InvariantChecker, evs: &[(SimTime, Event)]) {
        for (t, e) in evs {
            c.on_event(*t, e);
        }
    }

    #[test]
    fn tight_window_is_clean() {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        feed(&mut c, &[fire(0, 1), fire(1_000_000, 1), close(5, 1, true)]);
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(c.counts().windows, 1);
    }

    #[test]
    fn blown_stored_window_fires() {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        feed(
            &mut c,
            &[
                fire(0, 1),
                fire(6_000_000_000, 1),
                close(7_000_000_000, 1, true),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("lsc window"));
    }

    #[test]
    fn blown_unstored_window_is_the_system_working() {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        feed(
            &mut c,
            &[
                fire(0, 1),
                fire(6_000_000_000, 1),
                close(7_000_000_000, 1, false),
            ],
        );
        assert!(c.is_clean());
        assert_eq!(c.counts().windows, 0, "unstored windows are not counted");
    }

    #[test]
    fn set_ids_must_advance() {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        let stored = |t, set| {
            (
                SimTime(t),
                Event::Lsc(LscEvent::SetStored {
                    vc: 0,
                    set,
                    skew: SimDuration::ZERO,
                }),
            )
        };
        feed(&mut c, &[stored(10, 1), stored(20, 2), stored(30, 2)]);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("monotonicity"));
        assert_eq!(c.counts().sets, 3);
        // Store instants must strictly advance too: a fresh id at the
        // previous set's instant is a violation.
        feed(&mut c, &[stored(30, 3)]);
        assert_eq!(c.violations().len(), 2);
        assert!(c.violations()[1].contains("stored at"));
    }

    fn finish(t: u64, run: u64) -> (SimTime, Event) {
        (
            SimTime(t),
            Event::Lsc(LscEvent::RunFinished {
                run,
                vc: 0,
                success: true,
            }),
        )
    }

    fn lifecycle(evs: &[(SimTime, Event)]) -> Vec<String> {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        feed(&mut c, evs);
        c.violations().to_vec()
    }

    #[test]
    fn ordered_lifecycle_is_clean() {
        let v = lifecycle(&[fire(0, 1), fire(1, 1), close(2, 1, true), finish(3, 1)]);
        assert!(v.is_empty(), "{v:?}");
        // Run ids are per coordinator, not per checker: a fresh run is fine.
        let v = lifecycle(&[fire(0, 1), close(1, 1, true), finish(2, 1), fire(3, 2)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fire_after_window_close_is_a_lifecycle_violation() {
        let v = lifecycle(&[fire(0, 1), close(1, 1, true), fire(2, 1)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("run lifecycle:") && v[0].contains("after its window closed"));
    }

    #[test]
    fn second_window_close_is_a_lifecycle_violation() {
        let v = lifecycle(&[fire(0, 1), close(1, 1, true), close(2, 1, true)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("run lifecycle:") && v[0].contains("twice"));
    }

    #[test]
    fn event_after_run_finished_is_a_lifecycle_violation() {
        let v = lifecycle(&[
            fire(0, 1),
            close(1, 1, true),
            finish(2, 1),
            close(3, 1, true),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("run lifecycle:") && v[0].contains("after it finished"));
    }

    #[test]
    fn job_on_dead_node_fires_and_repair_clears() {
        let mut c = InvariantChecker::new(SimDuration::from_secs(3));
        let start = |t, job, nodes: &[u32]| {
            (
                SimTime(t),
                Event::Rm(RmEvent::JobStarted {
                    job,
                    nodes: nodes.to_vec(),
                }),
            )
        };
        feed(
            &mut c,
            &[
                (SimTime(0), Event::Rm(RmEvent::NodeDown { node: 3 })),
                start(1, 1, &[1, 2, 3]),
                (SimTime(2), Event::Rm(RmEvent::NodeUp { node: 3 })),
                start(3, 2, &[3]),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("job 1"));
        assert_eq!(c.counts().job_starts, 2);
    }

    #[test]
    fn jsonl_sink_caps() {
        let mut s = JsonlSink::new(2);
        for i in 0..4 {
            s.on_event(SimTime(i), &Event::Rm(RmEvent::JobQueued { job: i }));
        }
        assert_eq!(s.lines.len(), 2);
        assert_eq!(s.dropped, 2);
    }
}

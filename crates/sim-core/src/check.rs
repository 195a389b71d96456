//! Stream-checked invariants and exporters — [`crate::EventSink`]
//! implementations that consume the typed event spine.
//!
//! [`InvariantChecker`] watches the stream online and records violations of
//! the three cross-layer invariants the DVC correctness argument rests on:
//!
//! 1. **LSC window** — within one coordinated save, every member's pause
//!    instant must fall inside the transport silence budget of the first
//!    (the paper's "save every VM before any TCP timeout expires"). The
//!    checker derives the window from [`LscEvent::SaveFired`] times itself
//!    rather than trusting the coordinator's own skew arithmetic, and flags
//!    only windows the coordinator *closed as stored* — a blown window on a
//!    failed attempt is the system working as designed.
//! 2. **Checkpoint-generation monotonicity** — per VC, stored set ids and
//!    store instants strictly advance ([`LscEvent::SetStored`]).
//! 3. **No job on a dead node** — the resource manager never starts a job
//!    on a node currently down ([`RmEvent`] lifecycle vs. node liveness).
//!
//! Attach with `sim.attach_sink(checker.clone())`, run, then read
//! [`InvariantChecker::findings`]. The bench binaries surface this as
//! `--check-invariants`.

use crate::event::{Event, LscEvent, RmEvent};
use crate::sim::EventSink;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Copy, Debug, Default)]
struct RunWindow {
    first_fire: Option<SimTime>,
    last_fire: Option<SimTime>,
    fires: u32,
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

/// Online checker for the three DVC invariants. See the module docs.
#[derive(Debug)]
pub struct InvariantChecker {
    budget: SimDuration,
    windows: BTreeMap<u64, RunWindow>,
    last_set: BTreeMap<u32, (u64, SimTime)>,
    down: BTreeSet<u32>,
    violations: Vec<String>,
    window_violation_runs: Vec<u64>,
    counts: CheckCounts,
}

impl InvariantChecker {
    /// `budget` is the transport silence budget the LSC window is checked
    /// against — `rto_min · (2^retries − 1)` for the world's TCP config.
    pub fn new(budget: SimDuration) -> Self {
        InvariantChecker {
            budget,
            windows: BTreeMap::new(),
            last_set: BTreeMap::new(),
            down: BTreeSet::new(),
            violations: Vec::new(),
            window_violation_runs: Vec::new(),
            counts: CheckCounts::default(),
        }
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Run ids of the stored windows that blew the budget, in detection
    /// order. Structured counterpart to the `lsc window` strings in
    /// [`violations`](Self::violations) — cross-checkers (the fuzz oracle
    /// stack compares this against the margins
    /// [`crate::PhaseAttribution`] derives independently) should consume
    /// this rather than parse messages.
    pub fn window_violation_runs(&self) -> &[u64] {
        &self.window_violation_runs
    }

    pub fn counts(&self) -> CheckCounts {
        self.counts
    }

    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line report: `ok (…)` or `N violation(s) (…)`.
    pub fn report(&self) -> String {
        let c = self.counts;
        let exercised = format!(
            "{} save windows, {} stored sets, {} job starts checked",
            c.windows, c.sets, c.job_starts
        );
        if self.violations.is_empty() {
            format!("ok ({exercised})")
        } else {
            format!("{} violation(s) ({exercised})", self.violations.len())
        }
    }
}

impl EventSink for InvariantChecker {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        match event {
            Event::Lsc(LscEvent::SaveFired { run, .. }) => {
                let w = self.windows.entry(*run).or_default();
                if w.first_fire.is_none() {
                    w.first_fire = Some(time);
                }
                w.last_fire = Some(time);
                w.fires += 1;
            }
            Event::Lsc(LscEvent::WindowClosed {
                run, vc, stored, ..
            }) => {
                if let Some(w) = self.windows.remove(run) {
                    if *stored {
                        self.counts.windows += 1;
                        if let (Some(a), Some(b)) = (w.first_fire, w.last_fire) {
                            let spread = b - a;
                            if spread > self.budget {
                                self.window_violation_runs.push(*run);
                                self.violations.push(format!(
                                    "lsc window: run {run} on vc {vc} stored a set with \
                                     pause spread {spread} > budget {} ({} fires)",
                                    self.budget, w.fires
                                ));
                            }
                        }
                    }
                }
            }
            Event::Lsc(LscEvent::RunFinished { run, .. }) => {
                // A run that never closed its window (failed mid-save)
                // leaves no stale state behind.
                self.windows.remove(run);
            }
            Event::Lsc(LscEvent::SetStored { vc, set, .. }) => {
                self.counts.sets += 1;
                if let Some((last_id, last_t)) = self.last_set.get(vc) {
                    if set <= last_id {
                        self.violations.push(format!(
                            "generation monotonicity: vc {vc} stored set {set} after set {last_id}"
                        ));
                    }
                    if time < *last_t {
                        self.violations.push(format!(
                            "generation monotonicity: vc {vc} set {set} stored at {time} \
                             before previous at {last_t}"
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
        assert_eq!(c.window_violation_runs(), &[1]);
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

//! The unified fault-injection plane.
//!
//! A [`FaultPlan`] is a *pre-generated, seeded* schedule of fault windows
//! plus steady-state fault probabilities, built before the simulation runs.
//! Model layers consult the plan at their injection points (a storage
//! transfer completing, a control message being dispatched, an NTP request
//! arriving) and ask "does this fault fire here, now?". Because the plan is
//! data generated from its own seed — not ambient mutation of the world —
//! an experiment's entire fault history is replayable from `(plan seed,
//! sim seed)` alone, and two arms of an experiment can face *identical*
//! fault schedules while differing only in policy.
//!
//! Fault *kinds* are open-ended string labels; the conventions used by the
//! cluster layers are:
//!
//! | kind                | target         | magnitude                      |
//! |---------------------|----------------|--------------------------------|
//! | `storage.fail`      | —              | probability a transfer fails   |
//! | `storage.brownout`  | —              | bandwidth multiplier (0..1]    |
//! | `control.drop`      | node           | probability a message vanishes |
//! | `control.partition` | node           | 1.0 (all messages dropped)     |
//! | `ntp.outage`        | —              | 1.0 (server silent)            |
//! | `clock.step`        | node           | step size, seconds (signed)    |
//! | `image.corrupt`     | —              | probability a stored image rots|
//!
//! Steady probabilities apply for the whole run; windows override them while
//! active (the window's magnitude replaces the steady value). Rolls are
//! drawn from the caller's RNG stream, so installing a plan with all-zero
//! rates never perturbs an existing simulation's random draws — zero-
//! probability rolls return without sampling.

use crate::time::SimTime;
use rand::Rng;
use std::collections::BTreeMap;

/// Every fault kind the cluster layers consult (the table above). Plans
/// built from serialized scenarios (fuzz corpus cases travel as TOML, where
/// kinds are plain strings) map back through [`kind_from_str`] — an unknown
/// kind in a stored scenario is a malformed-case error, not a silently
/// inert fault.
pub const FAULT_KINDS: &[&str] = &[
    "storage.fail",
    "storage.brownout",
    "control.drop",
    "control.partition",
    "ntp.outage",
    "clock.step",
    "image.corrupt",
];

/// Map a fault kind from a serialized scenario back to its registry entry.
pub fn kind_from_str(s: &str) -> Option<&'static str> {
    FAULT_KINDS.iter().find(|k| **k == s).copied()
}

/// One scheduled fault window.
#[derive(Clone, Debug)]
pub struct FaultWindow {
    pub kind: &'static str,
    /// Restrict to one entity (e.g. a node id); `None` = everywhere.
    pub target: Option<u64>,
    pub from: SimTime,
    pub until: SimTime,
    /// Kind-specific magnitude (probability, rate factor, step seconds…).
    pub magnitude: f64,
}

impl FaultWindow {
    fn covers(&self, target: Option<u64>, now: SimTime) -> bool {
        now >= self.from && now < self.until && (self.target.is_none() || self.target == target)
    }
}

/// The seeded fault schedule for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed the plan was generated from (diagnostics/replay bookkeeping).
    pub seed: u64,
    windows: Vec<FaultWindow>,
    steady: BTreeMap<&'static str, f64>,
    /// Count of faults actually injected, per kind (deterministic order).
    injected: BTreeMap<&'static str, u64>,
}

impl FaultPlan {
    /// The empty plan: nothing ever fires, no RNG is ever consumed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when no fault can ever fire (lets hot paths skip entirely).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.steady.values().all(|&p| p <= 0.0)
    }

    /// Add one explicit window.
    pub fn window(
        &mut self,
        kind: &'static str,
        target: Option<u64>,
        from: SimTime,
        until: SimTime,
        magnitude: f64,
    ) -> &mut Self {
        assert!(from <= until, "window ends before it starts");
        self.windows.push(FaultWindow {
            kind,
            target,
            from,
            until,
            magnitude,
        });
        self
    }

    /// Set a steady-state probability for `kind` (applies outside windows).
    pub fn steady(&mut self, kind: &'static str, prob: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.steady.insert(kind, prob);
        self
    }

    /// The active window of `kind` covering (`target`, `now`), if any.
    /// Later-added windows win overlaps (they are refinements).
    pub fn active(
        &self,
        kind: &'static str,
        target: Option<u64>,
        now: SimTime,
    ) -> Option<&FaultWindow> {
        self.windows
            .iter()
            .rev()
            .find(|w| w.kind == kind && w.covers(target, now))
    }

    /// Effective magnitude of `kind` at (`target`, `now`): the covering
    /// window's magnitude, else the steady value, else 0.
    pub fn magnitude(&self, kind: &'static str, target: Option<u64>, now: SimTime) -> f64 {
        match self.active(kind, target, now) {
            Some(w) => w.magnitude,
            None => self.steady.get(kind).copied().unwrap_or(0.0),
        }
    }

    /// Roll the dice for a probabilistic fault. Returns `true` when the
    /// fault fires (and counts it). A zero effective probability returns
    /// `false` **without consuming randomness**, so fault-free plans leave
    /// every other consumer's draws untouched.
    pub fn roll<R: Rng + ?Sized>(
        &mut self,
        kind: &'static str,
        target: Option<u64>,
        now: SimTime,
        rng: &mut R,
    ) -> bool {
        let p = self.magnitude(kind, target, now);
        if p <= 0.0 {
            return false;
        }
        let fired = p >= 1.0 || rng.gen_bool(p);
        if fired {
            *self.injected.entry(kind).or_insert(0) += 1;
        }
        fired
    }

    /// Count a non-probabilistic injection (window-driven effects like
    /// brownouts or clock steps, applied by an installer).
    pub fn note_injected(&mut self, kind: &'static str) {
        *self.injected.entry(kind).or_insert(0) += 1;
    }

    /// Faults injected so far, per kind, in deterministic order.
    pub fn injected(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.injected.iter().map(|(&k, &v)| (k, v))
    }

    pub fn injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// All windows (installers walk this to schedule boundary events).
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_plan_never_fires_and_consumes_no_rng() {
        let mut p = FaultPlan::none();
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        for i in 0..100 {
            assert!(!p.roll("storage.fail", None, SimTime::from_secs(i), &mut a));
        }
        // RNG untouched: next draw matches a fresh twin.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        assert!(p.is_empty());
        assert_eq!(p.injected_total(), 0);
    }

    #[test]
    fn window_overrides_steady_probability() {
        let mut p = FaultPlan::new(7);
        p.steady("control.drop", 0.0);
        p.window(
            "control.drop",
            Some(3),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            1.0,
        );
        let mut rng = SmallRng::seed_from_u64(2);
        // Outside the window: steady 0 → never.
        assert!(!p.roll("control.drop", Some(3), SimTime::from_secs(5), &mut rng));
        // Inside, wrong target → steady.
        assert!(!p.roll("control.drop", Some(4), SimTime::from_secs(15), &mut rng));
        // Inside, right target, magnitude 1 → always.
        assert!(p.roll("control.drop", Some(3), SimTime::from_secs(15), &mut rng));
        // End is exclusive.
        assert!(!p.roll("control.drop", Some(3), SimTime::from_secs(20), &mut rng));
        assert_eq!(p.injected().collect::<Vec<_>>(), vec![("control.drop", 1)]);
    }

    #[test]
    fn untargeted_window_covers_every_target() {
        let mut p = FaultPlan::new(1);
        p.window(
            "ntp.outage",
            None,
            SimTime::ZERO,
            SimTime::from_secs(60),
            1.0,
        );
        assert!(p
            .active("ntp.outage", None, SimTime::from_secs(1))
            .is_some());
        assert!(p
            .active("ntp.outage", Some(9), SimTime::from_secs(1))
            .is_some());
        assert!(p
            .active("ntp.outage", None, SimTime::from_secs(61))
            .is_none());
    }

    #[test]
    fn every_registered_kind_round_trips() {
        for k in FAULT_KINDS {
            assert_eq!(kind_from_str(k), Some(*k));
        }
        assert_eq!(kind_from_str("node.melt"), None);
    }

    #[test]
    fn probabilistic_roll_tracks_magnitude() {
        let mut p = FaultPlan::new(5);
        p.steady("image.corrupt", 0.3);
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 4000;
        let mut hits = 0;
        for i in 0..n {
            if p.roll("image.corrupt", None, SimTime::from_millis(i), &mut rng) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        assert_eq!(p.injected_total(), hits);
    }
}

//! Phase attribution — decomposing each checkpoint round's wall time.
//!
//! [`PhaseAttribution`] is an [`EventSink`] that folds the causal span
//! stream (see [`crate::span`]) together with the LSC lifecycle events into
//! one [`RoundRecord`] per coordinated checkpoint round: when the round
//! started and ended, which phase spans it contained, how many storage
//! retries and control-channel losses landed inside it, and — the
//! paper-critical quantity — its **margin**:
//!
//! > margin = TCP silence budget − observed pause spread
//!
//! For a *stored* round the spread is the fan of the members' pause
//! instants (`last SaveFired − first SaveFired`), exactly what
//! [`crate::InvariantChecker`] checks against the budget. For a *failed*
//! round the paused members stay silent until the coordinator resolves the
//! window, so the exposure runs from the first pause to the window close —
//! which is why failed rounds report negative margins: the guests' peers
//! saw silence past the retransmission budget.
//!
//! Records are campaign-mergeable ([`PhaseAttribution::merge`]) and the
//! per-phase duration histograms use the exact-quantile
//! [`crate::stats::Histogram`].

use crate::event::{Event, FaultEvent, LscEvent, SpanEvent, StorageEvent};
use crate::sim::EventSink;
use crate::span::{ClosedSpan, Span, SpanTree};
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// One closed phase span, attributed to a round (or free-floating for
/// restore/migration trees).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    pub name: &'static str,
    /// The span's `arg` (member index, vm id, byte count — span-specific).
    pub arg: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// `false` for a span still open when the stream ended ([`seal`]ed
    /// with the stream end): a dispatch whose member never fired, an ack
    /// collection that never resolved. Excluded from duration histograms.
    ///
    /// [`seal`]: PhaseAttribution::seal
    pub complete: bool,
}

impl PhaseSample {
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Everything attributed to one coordinated checkpoint round.
#[derive(Clone, Debug, Default)]
pub struct RoundRecord {
    pub run: u64,
    pub vc: u32,
    pub start: SimTime,
    pub end: Option<SimTime>,
    /// `Some(true)` once a set was stored, `Some(false)` once the window
    /// closed without storing, `None` if the window never closed.
    pub stored: Option<bool>,
    pub success: Option<bool>,
    pub first_fire: Option<SimTime>,
    pub last_fire: Option<SimTime>,
    pub fires: u32,
    pub window_closed_at: Option<SimTime>,
    pub phases: Vec<PhaseSample>,
    pub aborts: u32,
    pub storage_retries: u32,
    pub storage_failures: u32,
    pub ctrl_losses: u32,
}

impl RoundRecord {
    /// A round counts as failed unless its window closed with a stored set.
    pub fn is_failed(&self) -> bool {
        self.stored != Some(true)
    }

    /// The observed pause exposure: fan of pause instants for stored
    /// rounds, first pause → window resolution for failed ones. `None` for
    /// rounds that never paused anybody (e.g. aborted pre-fire).
    pub fn spread(&self) -> Option<SimDuration> {
        let first = self.first_fire?;
        if self.stored == Some(true) {
            Some(self.last_fire? - first)
        } else {
            Some(self.window_closed_at.or(self.end)? - first)
        }
    }

    /// margin = budget − spread, in seconds (negative: the round held
    /// guests silent past their peers' retransmission budget).
    pub fn margin_s(&self, budget: SimDuration) -> Option<f64> {
        self.spread()
            .map(|s| budget.as_secs_f64() - s.as_secs_f64())
    }
}

/// The attribution sink. Attach alongside the other sinks, run, then read
/// [`PhaseAttribution::rounds`] / [`PhaseAttribution::margin_hist`].
#[derive(Debug)]
pub struct PhaseAttribution {
    budget: SimDuration,
    rounds: Vec<RoundRecord>,
    by_run: BTreeMap<u64, usize>,
    active: BTreeSet<u64>,
    tree: SpanTree,
    /// `lsc.round` span id → index into `rounds`. A round span is always a
    /// root, so every span finds its round through its root id; entries
    /// outlive the round span, since children may close after it.
    round_of: BTreeMap<u64, usize>,
    /// Closed spans with no `lsc.round` ancestor (restore/migration trees).
    free_phases: Vec<PhaseSample>,
    /// Latest event time seen — the stream's observed end.
    stream_end: Option<SimTime>,
}

impl PhaseAttribution {
    /// `budget` is the guest TCP silence budget margins are computed
    /// against (`WorldConfig::silence_budget` in `dvc-cluster`).
    pub fn new(budget: SimDuration) -> Self {
        PhaseAttribution {
            budget,
            rounds: Vec::new(),
            by_run: BTreeMap::new(),
            active: BTreeSet::new(),
            tree: SpanTree::default(),
            round_of: BTreeMap::new(),
            free_phases: Vec::new(),
            stream_end: None,
        }
    }

    /// Extend the observed stream end past the last *typed* event — replay
    /// tools call this with the last timestamp of the raw export, since a
    /// dead job's trial keeps logging transport/fault noise (evidence the
    /// members were still paused) that never reconstructs into an
    /// [`Event`] this sink consumes.
    pub fn observe_end(&mut self, t: SimTime) {
        self.stream_end = Some(self.stream_end.map_or(t, |e| e.max(t)));
    }

    /// Close the books on a finished stream: a round whose `lsc.round`
    /// span never closed (the job died mid-round and the trial ended with
    /// members still paused) gets the stream's last event time as its
    /// observed end, so [`RoundRecord::spread`] reports the real exposure
    /// — first pause to end of evidence — instead of `None`.
    pub fn seal(&mut self) {
        let Some(end) = self.stream_end else { return };
        for r in &mut self.rounds {
            if r.end.is_none() {
                r.end = Some(end);
            }
        }
        // Spans still open at stream end become *incomplete* samples: a
        // dispatch whose member never fired or an ack collection that
        // never resolved is exactly the evidence a failed round's
        // waterfall needs to show.
        let tree = std::mem::take(&mut self.tree);
        for s in tree.spans() {
            if s.name != "lsc.round" {
                self.attribute(s, end, false);
            }
        }
    }

    pub fn budget(&self) -> SimDuration {
        self.budget
    }

    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    pub fn free_phases(&self) -> &[PhaseSample] {
        &self.free_phases
    }

    /// Fold another campaign's attribution in (records concatenate; the
    /// budgets must agree for merged margins to mean anything).
    pub fn merge(&mut self, other: &PhaseAttribution) {
        self.rounds.extend(other.rounds.iter().cloned());
        self.free_phases.extend(other.free_phases.iter().copied());
    }

    /// Per-phase duration histograms (seconds), across every round and the
    /// free-floating restore/migration spans.
    pub fn phase_histograms(&self) -> BTreeMap<&'static str, Histogram> {
        let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let all = self
            .rounds
            .iter()
            .flat_map(|r| r.phases.iter())
            .chain(self.free_phases.iter());
        for p in all {
            if !p.complete {
                continue;
            }
            out.entry(p.name)
                .or_default()
                .push(p.duration().as_secs_f64());
        }
        out
    }

    /// Histogram of per-round margins in seconds (rounds that paused
    /// nobody contribute no sample).
    pub fn margin_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.rounds {
            if let Some(m) = r.margin_s(self.budget) {
                h.push(m);
            }
        }
        h
    }

    fn round_idx(&mut self, run: u64, t: SimTime) -> usize {
        *self.by_run.entry(run).or_insert_with(|| {
            self.rounds.push(RoundRecord {
                run,
                start: t,
                ..RoundRecord::default()
            });
            self.active.insert(run);
            self.rounds.len() - 1
        })
    }

    fn round_mut(&mut self, run: u64, t: SimTime) -> &mut RoundRecord {
        let idx = self.round_idx(run, t);
        &mut self.rounds[idx]
    }

    /// File a phase span under the round its root opened, or as free.
    fn attribute(&mut self, s: &Span, end: SimTime, complete: bool) {
        let sample = PhaseSample {
            name: s.name,
            arg: s.arg,
            start: s.start,
            end,
            complete,
        };
        match self.round_of.get(&s.root) {
            Some(&i) => self.rounds[i].phases.push(sample),
            None => self.free_phases.push(sample),
        }
    }
}

impl EventSink for PhaseAttribution {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        self.stream_end = Some(self.stream_end.map_or(time, |e| e.max(time)));
        match event {
            Event::Span(SpanEvent::Open {
                id,
                parent,
                name,
                arg,
            }) => {
                if *name == "lsc.round" {
                    let idx = self.round_idx(*arg, time);
                    self.round_of.insert(*id, idx);
                }
                let _ = self.tree.open(time, *id, *parent, name, *arg);
            }
            Event::Span(SpanEvent::Close { id }) => {
                let Ok(ClosedSpan { span: s, end }) = self.tree.close(time, *id) else {
                    return;
                };
                if s.name != "lsc.round" {
                    self.attribute(&s, end, true);
                } else if let Some(&i) = self.by_run.get(&s.arg) {
                    self.rounds[i].end = Some(end);
                }
            }
            Event::Lsc(LscEvent::SaveFired { run, vc, .. }) => {
                let r = self.round_mut(*run, time);
                r.vc = *vc;
                if r.first_fire.is_none() {
                    r.first_fire = Some(time);
                }
                r.last_fire = Some(time);
                r.fires += 1;
            }
            Event::Lsc(LscEvent::WindowClosed {
                run, vc, stored, ..
            }) => {
                let r = self.round_mut(*run, time);
                r.vc = *vc;
                r.stored = Some(*stored);
                r.window_closed_at = Some(time);
            }
            Event::Lsc(LscEvent::AbortReArm { run, vc, .. }) => {
                let r = self.round_mut(*run, time);
                r.vc = *vc;
                r.aborts += 1;
            }
            Event::Lsc(LscEvent::RunFinished { run, vc, success }) => {
                let r = self.round_mut(*run, time);
                r.vc = *vc;
                r.success = Some(*success);
                if r.end.is_none() {
                    r.end = Some(time);
                }
                self.active.remove(run);
            }
            Event::Storage(StorageEvent::TransferRetry { .. }) => {
                for run in self.active.clone() {
                    self.round_mut(run, time).storage_retries += 1;
                }
            }
            Event::Storage(StorageEvent::TransferFailed { .. }) => {
                for run in self.active.clone() {
                    self.round_mut(run, time).storage_failures += 1;
                }
            }
            Event::Fault(FaultEvent::CtrlDropped { .. } | FaultEvent::CtrlPartitioned { .. }) => {
                for run in self.active.clone() {
                    self.round_mut(run, time).ctrl_losses += 1;
                }
            }
            _ => {}
        }
    }

    fn findings(&self) -> Vec<String> {
        let failed = self.rounds.iter().filter(|r| r.is_failed()).count();
        if self.rounds.is_empty() {
            Vec::new()
        } else {
            vec![format!(
                "{} round(s), {} failed, worst margin {:.3}s",
                self.rounds.len(),
                failed,
                self.margin_hist().min()
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_feed(p: &mut PhaseAttribution, evs: &[(u64, Event)]) {
        for (t, e) in evs {
            p.on_event(SimTime(*t), e);
        }
    }

    fn open(id: u64, parent: u64, name: &'static str, arg: u64) -> Event {
        Event::Span(SpanEvent::Open {
            id,
            parent,
            name,
            arg,
        })
    }

    fn close(id: u64) -> Event {
        Event::Span(SpanEvent::Close { id })
    }

    fn fired(run: u64) -> Event {
        Event::Lsc(LscEvent::SaveFired {
            run,
            vc: 0,
            member: 0,
            vm: 0,
        })
    }

    fn window(run: u64, stored: bool) -> Event {
        Event::Lsc(LscEvent::WindowClosed {
            run,
            vc: 0,
            skew: SimDuration::ZERO,
            stored,
        })
    }

    fn finished(run: u64, success: bool) -> Event {
        Event::Lsc(LscEvent::RunFinished {
            run,
            vc: 0,
            success,
        })
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn stored_round_margin_is_budget_minus_fire_spread() {
        let mut p = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut p,
            &[
                (0, open(1, 0, "lsc.round", 7)),
                (S, fired(7)),
                (S + S / 2, fired(7)),
                (3 * S, window(7, true)),
                (4 * S, close(1)),
                (4 * S, finished(7, true)),
            ],
        );
        let r = &p.rounds()[0];
        assert_eq!(r.run, 7);
        assert!(!r.is_failed());
        assert!((r.margin_s(p.budget()).unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(r.end, Some(SimTime(4 * S)));
    }

    #[test]
    fn failed_round_margin_uses_window_close_and_goes_negative() {
        let mut p = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut p,
            &[
                (0, open(1, 0, "lsc.round", 8)),
                (S, fired(8)),
                (9 * S, window(8, false)),
                (10 * S, close(1)),
                (10 * S, finished(8, false)),
            ],
        );
        let r = &p.rounds()[0];
        assert!(r.is_failed());
        // exposure 8 s > 3 s budget
        assert!((r.margin_s(p.budget()).unwrap() + 5.0).abs() < 1e-9);
    }

    #[test]
    fn seal_gives_unfinished_rounds_the_stream_end() {
        let mut p = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut p,
            &[
                (0, open(1, 0, "lsc.round", 9)),
                (0, open(2, 1, "lsc.dispatch", 0)),
                (S, fired(9)),
                // The job dies with members still paused; fault noise
                // keeps the stream alive but the round never closes.
                (30 * S, Event::Fault(FaultEvent::CtrlDropped { node: 0 })),
            ],
        );
        assert_eq!(p.rounds()[0].spread(), None);
        p.seal();
        let r = &p.rounds()[0];
        assert!(r.is_failed());
        // Exposure runs 1 s → 30 s: 29 s against a 3 s budget.
        assert!((r.margin_s(p.budget()).unwrap() + 26.0).abs() < 1e-9);
        // The dispatch that never resolved surfaces as an incomplete
        // sample (visible in waterfalls, excluded from histograms).
        assert_eq!(r.phases.len(), 1);
        assert!(!r.phases[0].complete);
        assert_eq!(r.phases[0].end, SimTime(30 * S));
        assert!(p.phase_histograms().is_empty());
    }

    #[test]
    fn phases_attach_to_their_round_through_the_parent_chain() {
        let mut p = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut p,
            &[
                (0, open(1, 0, "lsc.round", 1)),
                (0, open(2, 1, "vmm.save", 4)),
                (0, open(3, 2, "storage.write", 999)),
                (2 * S, close(3)),
                (2 * S, close(2)),
                (3 * S, close(1)),
                (3 * S, finished(1, true)),
            ],
        );
        let r = &p.rounds()[0];
        assert_eq!(r.phases.len(), 2);
        let h = p.phase_histograms();
        assert_eq!(h["storage.write"].len(), 1);
        assert!((h["vmm.save"].clone().max() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn retries_and_ctrl_losses_land_on_the_active_round_only() {
        let mut p = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut p,
            &[
                (
                    0,
                    Event::Storage(StorageEvent::TransferRetry {
                        attempt: 1,
                        max_attempts: 4,
                        bytes: 10,
                        backoff: SimDuration::ZERO,
                    }),
                ),
                (S, open(1, 0, "lsc.round", 2)),
                (S, Event::Fault(FaultEvent::CtrlDropped { node: 3 })),
                (2 * S, close(1)),
                (2 * S, finished(2, true)),
                (3 * S, Event::Fault(FaultEvent::CtrlDropped { node: 3 })),
            ],
        );
        let r = &p.rounds()[0];
        assert_eq!(r.ctrl_losses, 1);
        assert_eq!(r.storage_retries, 0);
    }

    #[test]
    fn restore_spans_float_free_and_merge_concatenates() {
        let mut a = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut a,
            &[
                (0, open(1, 0, "lsc.restore", 0)),
                (0, open(2, 1, "storage.stage", 5)),
                (S, close(2)),
                (2 * S, close(1)),
            ],
        );
        assert_eq!(a.free_phases().len(), 2);
        assert!(a.rounds().is_empty());

        let mut b = PhaseAttribution::new(SimDuration::from_secs(3));
        sink_feed(
            &mut b,
            &[
                (0, open(1, 0, "lsc.round", 1)),
                (S, fired(1)),
                (S, window(1, true)),
                (2 * S, close(1)),
                (2 * S, finished(1, true)),
            ],
        );
        a.merge(&b);
        assert_eq!(a.rounds().len(), 1);
        assert_eq!(a.margin_hist().len(), 1);
    }
}

//! The simulation engine.
//!
//! [`Sim<W>`] bundles the clock, the event queue, the RNG streams, the
//! observability spine (metrics and sinks) and the user world `W` into one
//! value, so event handlers — boxed `FnOnce(&mut Sim<W>)` — can mutate the
//! world *and* schedule further events without fighting the borrow checker.
//!
//! Trials are driven by [`Sim::run_until`] (step until a predicate holds, a
//! horizon passes or the queue drains) and [`Sim::await_reply`] (start an
//! operation that answers through a callback and step until it does).
//!
//! The [`EventQueue`] is a monotone radix queue: it relies on no event
//! being scheduled before the last one popped. The engine keeps that true by
//! clamping `schedule_at` to now and by never moving the clock backwards
//! (a [`Sim::run`] horizon behind the clock leaves it where it is). Events
//! run in `(time, seq)` order.
//!
//! Cancellation uses tombstones inside the queue: an [`EventHandle`] names
//! its entry's slab slot, so [`Sim::cancel`] drops the handler at once, with
//! no lookup. When the dead entry surfaces it still advances the clock to
//! its timestamp (so the engine's step timeline is identical to the
//! generation-guard scheme it replaced) but nothing is dispatched — the pop
//! is counted as a no-op. Components that re-arm timers aggressively (the
//! TCP stack, NTP pollers) should hold the [`EventHandle`] of their armed
//! wakeup and cancel it on re-arm — the legacy alternative, a generation
//! counter checked inside the closure, still works but pays the closure
//! dispatch and the caller-side staleness lookup for every stale pop.
//! [`Sim::stats`] exposes the no-op ratio so that flood is visible.

use crate::event::{Event, SpanEvent};
use crate::metrics::Metrics;
pub use crate::queue::EventHandle;
use crate::queue::EventQueue;
use crate::rng::RngStreams;
use crate::span::SpanId;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A subscriber on the typed event spine (see [`crate::event`]).
///
/// Sinks are attached to a [`Sim`] as `Rc<RefCell<…>>` so the caller keeps a
/// handle and can read results (findings, collected lines) after the run:
///
/// ```ignore
/// let checker = Rc::new(RefCell::new(InvariantChecker::new(budget)));
/// sim.attach_sink(checker.clone());
/// // … run …
/// assert!(checker.borrow().is_clean());
/// ```
///
/// `on_event` must be passive: it observes the stream but cannot reach back
/// into the sim, so attaching a sink can never perturb scheduling, RNG
/// draws, or any simulated outcome.
pub trait EventSink {
    fn on_event(&mut self, time: SimTime, event: &Event);

    /// Human-readable findings accumulated so far (violations, summaries).
    fn findings(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Engine-level counters for perf accounting (see [`Sim::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events ever scheduled (live + cancelled + fired).
    pub scheduled: u64,
    /// Handlers actually dispatched.
    pub executed: u64,
    /// Cancelled entries discarded at the queue head without dispatch.
    pub noop_pops: u64,
    /// High-water mark of the event-queue depth.
    pub peak_queue_depth: u64,
}

type BoxedEvent<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// Why [`Sim::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// The time horizon was reached (the clock is set to the horizon unless
    /// it was already past it).
    Horizon,
    /// The event budget was exhausted (livelock guard).
    EventBudget,
}

/// The discrete-event simulation engine.
pub struct Sim<W> {
    now: SimTime,
    queue: EventQueue<BoxedEvent<W>>,
    executed: u64,
    /// Named deterministic RNG streams (see [`RngStreams`]).
    pub rng: RngStreams,
    /// Metrics registry fed by [`Sim::emit`] (disabled by default).
    pub metrics: Metrics,
    /// The user world: every model layer keeps its state here.
    pub world: W,
    sinks: Vec<Rc<RefCell<dyn EventSink>>>,
    next_span: u64,
}

impl<W> Sim<W> {
    pub fn new(world: W, seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            rng: RngStreams::new(seed),
            metrics: Metrics::disabled(),
            world,
            sinks: Vec::new(),
            next_span: 0,
        }
    }

    /// Subscribe a sink to the typed event spine. The caller keeps its own
    /// `Rc` handle to read results after the run (see [`EventSink`]).
    pub fn attach_sink(&mut self, sink: Rc<RefCell<dyn EventSink>>) {
        self.sinks.push(sink);
    }

    /// Detach every sink (they stay alive through the callers' handles).
    pub fn clear_sinks(&mut self) {
        self.sinks.clear();
    }

    /// Emit a typed observability event (see [`crate::event`]). Fans out to
    /// the metrics registry and every attached sink. With no sink attached
    /// and metrics disabled — the default — this is two branches, which is
    /// what keeps the spine out of the hot path.
    pub fn emit(&mut self, ev: Event) {
        if self.sinks.is_empty() && !self.metrics.is_enabled() {
            return;
        }
        let now = self.now;
        self.metrics.record(&ev);
        for s in &self.sinks {
            s.borrow_mut().on_event(now, &ev);
        }
    }

    /// Open a causal span (see [`crate::span`]): allocate an id, emit a
    /// [`SpanEvent::Open`] to the attached sinks, and return the id for the
    /// matching [`Sim::close_span`]. With **no sink attached** this returns
    /// [`SpanId::NONE`] without touching the id counter or emitting — the
    /// instrumented layers cost two branches and produce a byte-identical
    /// run, and same-seed runs with the same sinks see the same ids.
    pub fn open_span(&mut self, name: &'static str, parent: SpanId, arg: u64) -> SpanId {
        if self.sinks.is_empty() {
            return SpanId::NONE;
        }
        self.next_span += 1;
        let id = SpanId(self.next_span);
        self.emit(Event::Span(SpanEvent::Open {
            id: id.0,
            parent: parent.0,
            name,
            arg,
        }));
        id
    }

    /// Close a span opened by [`Sim::open_span`]. Closing [`SpanId::NONE`]
    /// (the no-sink case) is a no-op, so call sites never branch themselves.
    pub fn close_span(&mut self, id: SpanId) {
        if id.is_none() || self.sinks.is_empty() {
            return;
        }
        self.emit(Event::Span(SpanEvent::Close { id: id.0 }));
    }

    /// Current simulated (true) time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (includes not-yet-reclaimed
    /// tombstones of cancelled events).
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Engine counters: scheduled/executed totals, no-op (cancelled) pops and
    /// the event-queue high-water mark.
    pub fn stats(&self) -> SimStats {
        SimStats {
            scheduled: self.queue.scheduled_total(),
            executed: self.executed,
            noop_pops: self.queue.noop_pops(),
            peak_queue_depth: self.queue.peak_len() as u64,
        }
    }

    /// Schedule `f` to run at absolute time `at` (clamped to now if in the past).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        self.queue.push(at.max(self.now), Box::new(f))
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventHandle
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        self.queue.push(self.now + delay, Box::new(f))
    }

    /// Cancel a scheduled event. Cancelling an already-fired or already-
    /// cancelled event is a no-op.
    pub fn cancel(&mut self, h: EventHandle) {
        self.queue.cancel(h);
    }

    /// Execute the next event, if any. Returns `false` when the queue is
    /// empty. A cancelled entry at the head still advances the clock to its
    /// timestamp (it remains a queue instant — see the queue docs) but
    /// dispatches nothing and does not count as executed.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        if let Some(f) = entry.event {
            self.executed += 1;
            f(self);
        }
        true
    }

    /// Run until the queue empties, `horizon` is reached or `max_events`
    /// are executed. Events scheduled exactly at the horizon do not run;
    /// the clock is left at the horizon, or where it was if that is later.
    pub fn run(&mut self, horizon: SimTime, max_events: u64) -> StopReason {
        let budget_end = self.executed.saturating_add(max_events);
        loop {
            if self.executed >= budget_end {
                return StopReason::EventBudget;
            }
            match self.queue.peek_time() {
                None => return StopReason::QueueEmpty,
                Some(t) if t >= horizon => {
                    self.now = self.now.max(horizon);
                    return StopReason::Horizon;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run with no time horizon (still bounded by `max_events`).
    pub fn run_to_completion(&mut self, max_events: u64) -> StopReason {
        self.run(SimTime::NEVER, max_events)
    }

    /// The trial driver: step until `pred` holds, the queue drains or the
    /// clock has passed `horizon`. `pred` is checked before every step, so
    /// a predicate already true takes no step; the step that carries the
    /// clock past `horizon` still runs (unlike [`Sim::run`], which stops
    /// short of it). Returns whether `pred` holds at the stop.
    pub fn run_until(&mut self, horizon: SimTime, mut pred: impl FnMut(&mut Self) -> bool) -> bool {
        while !pred(self) {
            if self.now > horizon || !self.step() {
                return pred(self);
            }
        }
        true
    }

    /// Wait for one callback: `start` receives the reply callback and
    /// kicks off the operation that will answer through it, then the sim
    /// steps by [`Sim::run_until`] until the reply lands. `None` when the
    /// horizon passes or the queue drains first. A reply made inside
    /// `start` itself is delivered without a step.
    pub fn await_reply<T: 'static>(
        &mut self,
        horizon: SimTime,
        start: impl FnOnce(&mut Self, Box<dyn FnOnce(&mut Self, T)>),
    ) -> Option<T> {
        let slot = Rc::new(RefCell::new(None));
        let tx = slot.clone();
        start(self, Box::new(move |_, v| *tx.borrow_mut() = Some(v)));
        self.run_until(horizon, |_| slot.borrow().is_some());
        slot.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
        ticks: u32,
    }

    fn logit(sim: &mut Sim<World>, tag: &'static str) {
        let t = sim.now().nanos();
        sim.world.log.push((t, tag));
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(World::default(), 1);
        sim.schedule_at(SimTime(300), |s| logit(s, "c"));
        sim.schedule_at(SimTime(100), |s| logit(s, "a"));
        sim.schedule_at(SimTime(200), |s| logit(s, "b"));
        assert_eq!(sim.run_to_completion(1000), StopReason::QueueEmpty);
        assert_eq!(sim.world.log, vec![(100, "a"), (200, "b"), (300, "c")]);
        assert_eq!(sim.now(), SimTime(300));
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(World::default(), 1);
        fn tick(sim: &mut Sim<World>) {
            sim.world.ticks += 1;
            if sim.world.ticks < 5 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_in(SimDuration::ZERO, tick);
        sim.run_to_completion(1000);
        assert_eq!(sim.world.ticks, 5);
        assert_eq!(sim.now(), SimTime::from_secs_f64(4.0));
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut sim = Sim::new(World::default(), 1);
        let h = sim.schedule_at(SimTime(50), |s| logit(s, "dead"));
        sim.schedule_at(SimTime(60), |s| logit(s, "alive"));
        sim.cancel(h);
        sim.run_to_completion(100);
        assert_eq!(sim.world.log, vec![(60, "alive")]);
    }

    #[test]
    fn stats_count_noops_and_peak_depth() {
        let mut sim = Sim::new(World::default(), 1);
        let handles: Vec<EventHandle> = (0..8)
            .map(|i| sim.schedule_at(SimTime(10 + i), |s| logit(s, "t")))
            .collect();
        for h in &handles[..6] {
            sim.cancel(*h);
        }
        sim.run_to_completion(100);
        let st = sim.stats();
        assert_eq!(st.scheduled, 8);
        assert_eq!(st.executed, 2);
        assert_eq!(st.noop_pops, 6);
        assert_eq!(st.peak_queue_depth, 8);
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut sim = Sim::new(World::default(), 1);
        sim.schedule_at(SimTime(100), |s| logit(s, "early"));
        sim.schedule_at(SimTime(500), |s| logit(s, "late"));
        let r = sim.run(SimTime(200), 1000);
        assert_eq!(r, StopReason::Horizon);
        assert_eq!(sim.now(), SimTime(200));
        assert_eq!(sim.world.log, vec![(100, "early")]);
        // resuming picks the late event back up
        sim.run_to_completion(1000);
        assert_eq!(sim.world.log.len(), 2);
    }

    #[test]
    fn horizon_behind_the_clock_does_not_rewind_it() {
        let mut sim = Sim::new(World::default(), 1);
        sim.schedule_at(SimTime(500), |s| logit(s, "a"));
        sim.schedule_at(SimTime(900), |s| logit(s, "b"));
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime(500));
        assert_eq!(sim.run(SimTime(200), 10), StopReason::Horizon);
        assert_eq!(sim.now(), SimTime(500));
        // A zero-delay event still lands at the clock, before `b`.
        sim.schedule_in(SimDuration::ZERO, |s| logit(s, "c"));
        sim.run_to_completion(10);
        assert_eq!(sim.world.log, vec![(500, "a"), (500, "c"), (900, "b")]);
    }

    #[test]
    fn event_budget_guards_livelock() {
        let mut sim = Sim::new(World::default(), 1);
        fn forever(sim: &mut Sim<World>) {
            sim.schedule_in(SimDuration::ZERO, forever);
        }
        sim.schedule_in(SimDuration::ZERO, forever);
        assert_eq!(sim.run_to_completion(100), StopReason::EventBudget);
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn run_until_checks_before_each_step_and_runs_the_crossing_step() {
        let mut sim = Sim::new(World::default(), 1);
        for t in [100, 200, 300] {
            sim.schedule_at(SimTime(t), |s| logit(s, "x"));
        }
        // True at entry: no step.
        assert!(sim.run_until(SimTime(1000), |_| true));
        assert_eq!(sim.stats().executed, 0);
        // The step from 100 to 200 crosses the horizon at 150 and still
        // runs; the loop stops after it.
        assert!(!sim.run_until(SimTime(150), |_| false));
        assert_eq!(sim.now(), SimTime(200));
        assert_eq!(sim.world.log.len(), 2);
        // Drained queue: the final answer is `pred`'s.
        assert!(sim.run_until(SimTime::NEVER, |s| s.world.log.len() == 3));
        assert!(!sim.run_until(SimTime::NEVER, |s| s.world.log.len() == 4));
    }

    #[test]
    fn await_reply_delivers_or_times_out() {
        let mut sim = Sim::new(World::default(), 1);
        // Reply lands on a later event; the wait stops at that step.
        sim.schedule_at(SimTime(900), |s| logit(s, "after"));
        let got = sim.await_reply(SimTime::NEVER, |s, reply| {
            s.schedule_at(SimTime(50), move |s| reply(s, 7u32));
        });
        assert_eq!(got, Some(7));
        assert_eq!(sim.now(), SimTime(50));
        assert!(sim.world.log.is_empty());
        // A reply made synchronously inside `start` takes no step.
        let executed = sim.stats().executed;
        assert_eq!(
            sim.await_reply(SimTime::NEVER, |s, reply| reply(s, "now")),
            Some("now")
        );
        assert_eq!(sim.stats().executed, executed);
        // Horizon: the crossing step runs, then the wait gives up.
        let late = sim.await_reply(SimTime(100), |s, reply| {
            s.schedule_at(SimTime(2000), move |s| reply(s, ()));
        });
        assert_eq!(late, None);
        assert_eq!(sim.now(), SimTime(900));
        // Drained queue: the reply is never sent.
        let never: Option<u8> = sim.await_reply(SimTime::NEVER, |_, _reply| {});
        assert_eq!(never, None);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = Sim::new(World::default(), 1);
        for i in 0..10u64 {
            sim.schedule_at(SimTime(42), move |s| {
                s.world.log.push((i, "x"));
            });
        }
        sim.run_to_completion(100);
        let seq: Vec<u64> = sim.world.log.iter().map(|&(i, _)| i).collect();
        assert_eq!(seq, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn emit_feeds_metrics_and_sinks() {
        use crate::event::{Event, RmEvent};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Recorder(Vec<(SimTime, &'static str)>);
        impl EventSink for Recorder {
            fn on_event(&mut self, time: SimTime, event: &Event) {
                self.0.push((time, event.key()));
            }
        }

        let mut sim = Sim::new(World::default(), 1);
        sim.metrics = Metrics::enabled();
        let rec = Rc::new(RefCell::new(Recorder::default()));
        sim.attach_sink(rec.clone());
        sim.schedule_at(SimTime(5), |s| {
            s.emit(Event::Rm(RmEvent::JobQueued { job: 7 }));
        });
        sim.run_to_completion(10);
        assert_eq!(sim.metrics.counter("rm.job_queued"), 1);
        assert_eq!(rec.borrow().0, vec![(SimTime(5), "rm.job_queued")]);
    }

    #[test]
    fn emit_with_everything_disabled_is_a_noop() {
        use crate::event::{Event, TcpEvent};
        let mut sim = Sim::new(World::default(), 1);
        sim.emit(Event::Tcp(TcpEvent::Retransmit { ep: 0 }));
        assert!(sim.metrics.snapshot().is_empty());
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut sim = Sim::new(World::default(), 1);
        sim.schedule_at(SimTime(100), |s| {
            // attempt to schedule in the past: must fire at `now` instead
            s.schedule_at(SimTime(10), |s2| logit(s2, "clamped"));
        });
        sim.run_to_completion(100);
        assert_eq!(sim.world.log, vec![(100, "clamped")]);
    }
}

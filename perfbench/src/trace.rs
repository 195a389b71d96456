//! The traced run's bookkeeping, all on the benchmark side of the API.
//!
//! A [`Tracer`] keeps benchmark spans in memory (name, host start/end,
//! parent, and the [`SimStats`] delta across the span) and splits every
//! trial's engine work into four phases: **setup** (`TrialWorld::build`),
//! **steady** (application traffic between rounds), **rounds** (an
//! `lsc.round` span is open) and **drain** (the closing settle). Phase
//! boundaries are read after each `Sim::step`, so a handler that opens or
//! closes a round is charged to the phase it started in. Host time inside
//! a handler cannot be split by layer from out here; that waits for an
//! in-engine layer tag.

use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{
    Event, EventSink, LscEvent, Metrics, PhaseAttribution, Sim, SimStats, SimTime, SpanEvent,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The four phases a trial's engine work is split into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Steady,
    Rounds,
    Drain,
}

impl Phase {
    pub const ALL: [Phase; 4] = [Phase::Setup, Phase::Steady, Phase::Rounds, Phase::Drain];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Steady => "steady",
            Phase::Rounds => "rounds",
            Phase::Drain => "drain",
        }
    }

    /// Name of the benchmark span one segment of this phase becomes.
    fn span_name(self) -> &'static str {
        match self {
            Phase::Rounds => "core.round",
            p => p.name(),
        }
    }
}

/// Engine work and host time charged to one phase, summed over trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    pub handlers: u64,
    pub noop_pops: u64,
    pub scheduled: u64,
    /// Deepest event queue (tombstones included) seen during the phase.
    pub peak_queue_depth: u64,
    pub host: Duration,
    pub sim_s: f64,
}

impl PhaseTotals {
    pub fn ns_per_handler(&self) -> f64 {
        if self.handlers == 0 {
            0.0
        } else {
            self.host.as_nanos() as f64 / self.handlers as f64
        }
    }
}

/// One benchmark span: a layer call timed from outside.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Engine work done inside the span.
    pub work: SimStats,
}

/// Sink that marks open `lsc.round` spans and collects window skews. It is
/// the only way to see the rounds `reliability::manage` issues internally.
#[derive(Default)]
struct RoundMarks {
    open: Vec<u64>,
    skews_ns: Vec<u64>,
}

impl EventSink for RoundMarks {
    fn on_event(&mut self, _time: SimTime, event: &Event) {
        match event {
            Event::Span(SpanEvent::Open {
                id,
                name: "lsc.round",
                ..
            }) => self.open.push(*id),
            Event::Span(SpanEvent::Close { id }) => self.open.retain(|o| o != id),
            Event::Lsc(LscEvent::WindowClosed { skew, .. }) => self.skews_ns.push(skew.nanos()),
            _ => {}
        }
    }
}

/// Engine work between two readings of [`Sim::stats`].
pub fn delta(a: SimStats, b: SimStats) -> SimStats {
    SimStats {
        scheduled: b.scheduled - a.scheduled,
        executed: b.executed - a.executed,
        noop_pops: b.noop_pops - a.noop_pops,
        peak_queue_depth: b.peak_queue_depth,
    }
}

/// The trial being traced: its sinks and the open phase segment.
struct Live {
    marks: Rc<RefCell<RoundMarks>>,
    attrib: Rc<RefCell<PhaseAttribution>>,
    trial_span: usize,
    /// Phase the workload loop is in; a round in progress overrides it.
    base: Phase,
    cur: Phase,
    seg_host: Instant,
    seg_stats: SimStats,
    seg_sim: SimTime,
}

/// Registry counters the traced run reports, summed over trials.
pub const COUNTERS: &[&str] = &[
    "tcp.retransmit",
    "tcp.fast_retransmit",
    "tcp.rto_fired",
    "tcp.conn_aborted",
    "vmm.snapshot_begin",
    "lsc.save_fired",
    "lsc.set_stored",
    "lsc.abort_rearm",
    "lsc.checksum_resave",
    "storage.transfer_retry",
    "storage.transfer_failed",
    "rm.node_down",
    "fault.injected",
    "ntp.unanswered",
    "ntp.sync_stale",
];

/// Everything a traced run records.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub phases: [PhaseTotals; 4],
    pub counters: BTreeMap<&'static str, u64>,
    pub snapshot_bytes: f64,
    pub dirty_pages: (f64, u64),
    pub skews_ns: Vec<u64>,
    pub attrib: Option<PhaseAttribution>,
    live: Option<Live>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            phases: [PhaseTotals::default(); 4],
            counters: BTreeMap::new(),
            snapshot_bytes: 0.0,
            dirty_pages: (0.0, 0),
            skews_ns: Vec::new(),
            attrib: None,
            live: None,
        }
    }
}

impl Tracer {
    /// Record a finished span that started at `start`.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        work: SimStats,
    ) {
        self.spans.push(Span {
            name,
            parent,
            start: start - self.t0,
            end: self.t0.elapsed(),
            work,
        });
    }

    /// Open a trial's root span; [`Tracer::close_trial`] ends it.
    pub fn open_trial(&mut self) -> usize {
        self.span("trial", None, Instant::now(), SimStats::default());
        self.spans.len() - 1
    }

    pub fn close_trial(&mut self, i: usize, work: SimStats) {
        self.spans[i].end = self.t0.elapsed();
        self.spans[i].work = work;
    }

    fn charge(&mut self, phase: Phase, work: SimStats, host: Duration, sim_s: f64) {
        let p = &mut self.phases[phase as usize];
        p.handlers += work.executed;
        p.noop_pops += work.noop_pops;
        p.scheduled += work.scheduled;
        p.host += host;
        p.sim_s += sim_s;
    }

    /// Start tracing a freshly built trial: charge the build to setup,
    /// turn the metrics registry on and attach the sinks.
    pub fn begin_trial(&mut self, sim: &mut Sim<ClusterWorld>, build: Duration, trial_span: usize) {
        let st = sim.stats();
        self.charge(Phase::Setup, st, build, sim.now().as_secs_f64());
        let setup = &mut self.phases[Phase::Setup as usize];
        setup.peak_queue_depth = setup.peak_queue_depth.max(st.peak_queue_depth);
        sim.metrics = Metrics::enabled();
        let marks = Rc::new(RefCell::new(RoundMarks::default()));
        let attrib = Rc::new(RefCell::new(PhaseAttribution::new(
            sim.world.cfg.silence_budget(),
        )));
        sim.attach_sink(marks.clone());
        sim.attach_sink(attrib.clone());
        self.live = Some(Live {
            marks,
            attrib,
            trial_span,
            base: Phase::Steady,
            cur: Phase::Steady,
            seg_host: Instant::now(),
            seg_stats: st,
            seg_sim: sim.now(),
        });
    }

    /// Switch the workload loop's phase (steady or drain).
    pub fn set_phase(&mut self, sim: &Sim<ClusterWorld>, base: Phase) {
        if let Some(l) = self.live.as_mut() {
            l.base = base;
        }
        self.after_step(sim);
    }

    /// Called after every engine step of a traced trial.
    pub fn after_step(&mut self, sim: &Sim<ClusterWorld>) {
        let Some(l) = self.live.as_ref() else { return };
        let want = if l.marks.borrow().open.is_empty() {
            l.base
        } else {
            Phase::Rounds
        };
        let cur = l.cur;
        let p = &mut self.phases[cur as usize];
        p.peak_queue_depth = p.peak_queue_depth.max(sim.events_pending() as u64);
        if want != cur {
            self.boundary(sim, want);
        }
    }

    /// End the open segment: charge it to its phase and record its span.
    fn boundary(&mut self, sim: &Sim<ClusterWorld>, next: Phase) {
        let l = self.live.as_mut().expect("a trial is being traced");
        let st = sim.stats();
        let work = delta(l.seg_stats, st);
        let (prev, start, parent) = (l.cur, l.seg_host, l.trial_span);
        let sim_s = (sim.now() - l.seg_sim).as_secs_f64();
        l.seg_host = Instant::now();
        l.seg_stats = st;
        l.seg_sim = sim.now();
        l.cur = next;
        let host = start.elapsed();
        self.charge(prev, work, host, sim_s);
        self.span(prev.span_name(), Some(parent), start, work);
    }

    /// Close the trial: flush the open segment and harvest the sinks and
    /// the registry.
    pub fn end_trial(&mut self, sim: &mut Sim<ClusterWorld>) {
        if self.live.is_none() {
            return;
        }
        // Flush the open segment; the phase it switches to is never used.
        self.boundary(sim, Phase::Setup);
        let l = self.live.take().expect("checked above");
        for &k in COUNTERS {
            *self.counters.entry(k).or_insert(0) += sim.metrics.counter(k);
        }
        let snap = sim.metrics.snapshot();
        if let Some(h) = snap.hists.get("vmm.snapshot_bytes") {
            self.snapshot_bytes += h.sum();
        }
        if let Some(h) = snap.hists.get("vmm.dirty_pages") {
            self.dirty_pages.0 += h.sum();
            self.dirty_pages.1 += h.count();
        }
        let end = sim.now();
        sim.clear_sinks();
        self.close_trial(l.trial_span, sim.stats());
        self.skews_ns.extend_from_slice(&l.marks.borrow().skews_ns);
        let mut a = Rc::try_unwrap(l.attrib)
            .expect("sinks detached")
            .into_inner();
        a.observe_end(end);
        a.seal();
        match self.attrib.as_mut() {
            Some(all) => all.merge(&a),
            None => self.attrib = Some(a),
        }
    }

    /// Write the spans as Chrome trace-event JSON (one complete event per
    /// span, host microseconds), readable by Perfetto.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"handlers\":{},\"noop_pops\":{},\"scheduled\":{}}}}}{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.parent.map_or(-1, |p| p as i64),
                s.work.executed,
                s.work.noop_pops,
                s.work.scheduled,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

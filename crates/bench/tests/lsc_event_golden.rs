//! Golden digest over the typed LSC event stream.
//!
//! The observability spine must be as deterministic as the simulation it
//! watches: for a fixed seed, the exact sequence of [`Event::Lsc`]
//! emissions — arm, fire, ack, window close, set store — is part of the
//! reproducibility contract, the same way the TCP segment traces are
//! (`dvc-net/tests/tcp_golden_traces.rs`). Each line is `"{t_ns} {key}"`;
//! we pin an FNV-1a digest plus the line count rather than the full dump.
//!
//! If an intentional change to LSC scheduling or event emission shifts the
//! stream, regenerate with:
//!
//! `DUMP_LSC_EVENT_GOLDEN=1 cargo test -p dvc-bench --test lsc_event_golden -- --nocapture`
//!
//! and paste the printed digest/line-count into the test.
//!
//! A second table pins every coordinator path under one fault: the four
//! checkpoint methods under control-plane loss (save watchdog, save
//! abort/re-arm, resume re-arm and give-up) and a restore onto spares. Each
//! row pins the digest of the full `jsonl` event stream, `Sim::stats()` and
//! the outcomes, so a refactor of the coordinators that moves one RNG draw
//! or one scheduled event shows here.

use dvc_bench::scen::{ring_load, run_cycles, settle, TrialWorld};
use dvc_cluster::faults::install_fault_plan;
use dvc_cluster::node::NodeId;
use dvc_cluster::world::ClusterWorld;
use dvc_core::lsc::{restore_vc, LscMethod};
use dvc_sim_core::{fnv1a, Event, EventSink, FaultPlan, Sim, SimDuration, SimTime, FNV_BASIS};
use std::cell::RefCell;
use std::rc::Rc;

/// Records `"{t_ns} {key}"` for every LSC event it sees.
#[derive(Default)]
struct LscRecorder {
    lines: Vec<String>,
}

impl EventSink for LscRecorder {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        if matches!(event, Event::Lsc(_)) {
            self.lines.push(format!("{} {}", time.0, event.key()));
        }
    }
}

/// One small E3-like trial: 8-VM ring under NTP-scheduled LSC, two
/// checkpoint cycles. Returns the recorded LSC event lines.
fn lsc_event_lines(seed: u64) -> Vec<String> {
    let tw = TrialWorld {
        nodes: 8,
        seed,
        mem_mb: 64,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let rec = Rc::new(RefCell::new(LscRecorder::default()));
    sim.attach_sink(rec.clone());
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
    assert_eq!(outs.len(), 2, "both checkpoint cycles must complete");
    assert!(outs.iter().all(|o| o.success), "cycles must succeed");
    let lines = std::mem::take(&mut rec.borrow_mut().lines);
    lines
}

/// FNV-1a over every line, with a virtual `\n` after each.
fn fnv64(lines: &[String]) -> u64 {
    lines
        .iter()
        .fold(FNV_BASIS, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

#[test]
fn lsc_event_stream_matches_golden() {
    let lines = lsc_event_lines(42);
    if std::env::var("DUMP_LSC_EVENT_GOLDEN").is_ok() {
        for l in &lines {
            println!("{l}");
        }
        println!("lines = {}, digest = 0x{:016x}", lines.len(), fnv64(&lines));
        return;
    }
    // Shape checks that hold regardless of exact timing: two full windows
    // over 8 members — arm + fire + ack per member per cycle, one window
    // close and one stored set per cycle.
    let count = |k: &str| lines.iter().filter(|l| l.ends_with(k)).count();
    assert_eq!(count("lsc.arm_sent"), 16);
    assert_eq!(count("lsc.save_fired"), 16);
    assert_eq!(count("lsc.save_acked"), 16);
    assert_eq!(count("lsc.window_closed"), 2);
    assert_eq!(count("lsc.set_stored"), 2);

    let digest = fnv64(&lines);
    assert_eq!(
        (lines.len(), digest),
        GOLDEN,
        "typed LSC event stream drifted from its golden digest; if the \
         change is intentional, regenerate with DUMP_LSC_EVENT_GOLDEN=1"
    );
}

#[test]
fn same_seed_same_event_stream() {
    let a = lsc_event_lines(7);
    let b = lsc_event_lines(7);
    assert_eq!(a, b, "typed event stream must replay bit-identically");
    assert_ne!(
        fnv64(&a),
        fnv64(&lsc_event_lines(8)),
        "different seeds should time events differently"
    );
}

/// Pinned (line count, FNV-1a digest) for seed 42.
const GOLDEN: (usize, u64) = (54, 0x6e5655edb97c0719);

// ---------------------------------------------------------------------
// Coordinator path table
// ---------------------------------------------------------------------

/// Records the `jsonl` line of every event (all families, not just LSC).
#[derive(Default)]
struct JsonlRecorder {
    lines: Vec<String>,
}

impl EventSink for JsonlRecorder {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        self.lines.push(event.jsonl(time));
    }
}

/// What one coordinator row pins: the full event stream (line count and
/// digest), the engine's work counts, and the outcomes the row reports.
#[derive(Debug, PartialEq)]
struct Pinned {
    lines: usize,
    digest: u64,
    /// `Sim::stats()`: scheduled / executed / noop pops / peak queue depth.
    stats: (u64, u64, u64, u64),
    outcomes: String,
}

fn recorded(sim: &mut Sim<ClusterWorld>) -> Rc<RefCell<JsonlRecorder>> {
    let rec = Rc::new(RefCell::new(JsonlRecorder::default()));
    sim.attach_sink(rec.clone());
    rec
}

fn pin(sim: &Sim<ClusterWorld>, rec: &RefCell<JsonlRecorder>, outcomes: String) -> Pinned {
    let lines = &rec.borrow().lines;
    let s = sim.stats();
    Pinned {
        lines: lines.len(),
        digest: fnv64(lines),
        stats: (s.scheduled, s.executed, s.noop_pops, s.peak_queue_depth),
        outcomes,
    }
}

/// One coordinator under control-plane loss: a 6-VM ring, a `control.drop`
/// window at p = 0.3 over the first cycle's arming and resume, two cycles.
/// Naive and NTP hit the save watchdog; the hardened pair abort and
/// re-arm their save, re-arm their resume and finally give it up.
fn method_row(name: &str) -> Pinned {
    let method = LscMethod::from_name(name).expect("registered method");
    let tw = TrialWorld {
        nodes: 6,
        spares: 1,
        seed: 77,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let rec = recorded(&mut sim);
    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(20));
    let t0 = sim.now();
    let mut plan = FaultPlan::new(9);
    plan.window(
        "control.drop",
        None,
        t0 + SimDuration::from_secs(4),
        t0 + SimDuration::from_secs(40),
        0.3,
    );
    install_fault_plan(&mut sim, plan);
    let outs = run_cycles(&mut sim, vc_id, method, 2, SimDuration::from_secs(5));
    settle(&mut sim, SimDuration::from_secs(20));
    let outcomes = outs
        .iter()
        .map(|o| format!("({}, {})", o.success, o.attempts))
        .collect::<Vec<_>>()
        .join(" ");
    pin(&sim, &rec, outcomes)
}

/// A `hardened-naive` checkpoint of a 6-VM ring restored onto six spares.
fn restore_row() -> Pinned {
    let tw = TrialWorld {
        nodes: 6,
        spares: 6,
        seed: 78,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let rec = recorded(&mut sim);
    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(20));
    let outs = run_cycles(
        &mut sim,
        vc_id,
        LscMethod::hardened_naive_default(),
        1,
        SimDuration::from_secs(5),
    );
    let set_id = outs[0].set_id.expect("checkpoint stored a set");
    let targets: Vec<NodeId> = (7..=12).map(NodeId).collect();
    let out = sim
        .await_reply(SimTime::from_secs_f64(1e7), |sim, reply| {
            restore_vc(sim, set_id, targets, SimDuration::from_secs(5), reply)
                .expect("restore starts");
        })
        .expect("restore must finish");
    settle(&mut sim, SimDuration::from_secs(20));
    let outcomes = format!(
        "{} {} {}",
        out.success,
        out.resume_skew.nanos(),
        out.duration.nanos()
    );
    pin(&sim, &rec, outcomes)
}

#[test]
fn coordinator_paths_match_golden_table() {
    let mut rows: Vec<(&str, Pinned)> = LscMethod::NAMES
        .iter()
        .map(|&n| (n, method_row(n)))
        .collect();
    rows.push(("restore", restore_row()));
    if std::env::var("DUMP_LSC_EVENT_GOLDEN").is_ok() {
        for (name, got) in &rows {
            println!("{name}: {got:?}");
        }
        return;
    }
    assert_eq!(rows.len(), COORDINATOR_GOLDEN.len());
    for ((name, got), &(want_name, lines, digest, stats, outcomes)) in
        rows.iter().zip(COORDINATOR_GOLDEN)
    {
        assert_eq!(*name, want_name);
        let want = Pinned {
            lines,
            digest,
            stats,
            outcomes: outcomes.to_string(),
        };
        assert_eq!(
            *got, want,
            "{name}: coordinator row drifted from its golden; if the change \
             is intentional, regenerate with DUMP_LSC_EVENT_GOLDEN=1"
        );
    }
}

/// Pinned coordinator rows: name, event lines, FNV-1a digest of the
/// `jsonl` stream, `Sim::stats()`, outcomes. Method rows list each cycle
/// as `(success, attempts)`; the restore row is `success resume_skew_ns
/// duration_ns`.
#[allow(clippy::type_complexity)]
const COORDINATOR_GOLDEN: &[(&str, usize, u64, (u64, u64, u64, u64), &str)] = &[
    (
        "naive",
        161,
        0x7367a1904bb56335,
        (82835, 70711, 12108, 234),
        "(false, 1) (true, 1)",
    ),
    (
        "ntp",
        155,
        0x4a50b47eb6670a5b,
        (85713, 72907, 12790, 234),
        "(false, 1) (true, 1)",
    ),
    (
        "hardened",
        206,
        0x415e2a605444f3f1,
        (89407, 69283, 20056, 234),
        "(false, 2) (true, 1)",
    ),
    (
        "hardened-naive",
        224,
        0x00bf64e957768707,
        (84759, 65734, 18957, 234),
        "(false, 2) (true, 1)",
    ),
    (
        "restore",
        104,
        0x4c6a45176e52053e,
        (75919, 59031, 16818, 239),
        "true 337743 6006671425",
    ),
];

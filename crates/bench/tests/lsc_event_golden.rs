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

use dvc_bench::scen::{ring_load, run_cycles, settle, TrialWorld};
use dvc_core::lsc::LscMethod;
use dvc_sim_core::{fnv1a, Event, EventSink, SimDuration, SimTime, FNV_BASIS};
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

//! Span-tree well-formedness and replay stability on a real trial.
//!
//! The causal span layer rides the same typed event spine the golden LSC
//! digest pins (`lsc_event_golden.rs`), so it inherits the same contract:
//! for a fixed seed with the same sinks attached, the span stream — ids,
//! parents, open/close times — must replay bit-identically. On top of
//! that the tree itself must be well-formed: every opened span closed by
//! trial end, parents outliving children, no id reuse.

use dvc_bench::scen::{ring_load, run_cycles, settle, TrialWorld};
use dvc_bench::traceio;
use dvc_cluster::world::WorldConfig;
use dvc_core::lsc::LscMethod;
use dvc_sim_core::{EventSink, JsonlSink, PhaseAttribution, SimDuration, SpanChecker};
use std::cell::RefCell;
use std::rc::Rc;

/// One small E3-like trial: 8-VM ring under NTP-scheduled LSC, two
/// checkpoint cycles, with a [`SpanChecker`] and a [`JsonlSink`] attached.
/// Returns the checker and the exported JSONL lines.
fn span_trial(seed: u64) -> (SpanChecker, Vec<String>) {
    let tw = TrialWorld {
        nodes: 8,
        seed,
        mem_mb: 64,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let checker = Rc::new(RefCell::new(SpanChecker::new()));
    sim.attach_sink(checker.clone());
    let exporter = Rc::new(RefCell::new(JsonlSink::new(200_000)));
    sim.attach_sink(exporter.clone());
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
    let lines = std::mem::take(&mut exporter.borrow_mut().lines);
    drop(sim); // release the sim's clones of the sink Rcs
    let checker = Rc::try_unwrap(checker)
        .expect("sim dropped; checker uniquely owned")
        .into_inner();
    (checker, lines)
}

#[test]
fn span_tree_is_well_formed_over_a_full_trial() {
    let (c, _) = span_trial(42);
    assert!(c.is_clean(), "span violations: {:?}", c.violations());
    assert_eq!(c.unclosed(), 0, "every opened span must close by trial end");
    assert!(c.opened() > 0, "the instrumented trial must emit spans");
    assert_eq!(c.opened(), c.closed());
    // Two rounds over 8 members: at least round + dispatch + vmm.save +
    // storage.write per member + ack_collect + resume per cycle.
    assert!(
        c.opened() >= 2 * (1 + 8 * 3 + 2),
        "span count suspiciously low: {}",
        c.opened()
    );
}

#[test]
fn span_digest_is_replay_stable() {
    let (a, _) = span_trial(7);
    let (b, _) = span_trial(7);
    assert_eq!(
        a.digest(),
        b.digest(),
        "same seed + same sinks must replay the same span stream"
    );
    let (c, _) = span_trial(8);
    assert_ne!(
        a.digest(),
        c.digest(),
        "different seeds should time spans differently"
    );
}

#[test]
fn exported_jsonl_replays_to_the_same_span_digest() {
    let (live, lines) = span_trial(42);
    let text = lines.join("\n") + "\n";
    let stream = traceio::parse_stream(&text).expect("exported stream must parse");
    assert_eq!(stream.lines, lines.len());
    let mut replayed = SpanChecker::new();
    let mut attrib = PhaseAttribution::new(WorldConfig::default().silence_budget());
    for (t, e) in &stream.events {
        replayed.on_event(*t, e);
        attrib.on_event(*t, e);
    }
    assert!(replayed.is_clean(), "{:?}", replayed.violations());
    assert_eq!(
        replayed.digest(),
        live.digest(),
        "parsing the export must reconstruct the exact span stream"
    );
    // Phase attribution over a clean trial: both rounds stored, margin
    // positive (the pause spread stayed inside the TCP silence budget).
    assert_eq!(attrib.rounds().len(), 2);
    for r in attrib.rounds() {
        assert!(!r.is_failed(), "no round fails in a fault-free trial");
        let m = r
            .margin_s(WorldConfig::default().silence_budget())
            .expect("stored rounds have a margin");
        assert!(m > 0.0, "margin must be positive on a clean round: {m}");
    }
}

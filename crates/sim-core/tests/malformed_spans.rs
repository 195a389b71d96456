//! One malformed span stream, fed to every span consumer.
//!
//! The stream holds an open under an unknown parent, a parent closed before
//! its child, a close of an id that was never opened, and spans that never
//! close. Each consumer's reaction is pinned exactly as it stands, so a
//! change to the shared span fold cannot silently change any of them.

use dvc_sim_core::{
    Event, EventSink, LscEvent, PerfettoTrace, PhaseAttribution, PhaseSample, SimDuration, SimTime,
    SpanChecker, SpanEvent,
};

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

fn stream() -> Vec<(u64, Event)> {
    vec![
        (0, open(1, 0, "lsc.round", 5)),
        (1, open(2, 1, "vmm.save", 3)),
        // Unknown parent: 99 was never opened.
        (2, open(3, 99, "lsc.dispatch", 0)),
        (
            3,
            Event::Lsc(LscEvent::SaveFired {
                run: 5,
                vc: 0,
                member: 0,
                vm: 3,
            }),
        ),
        // The round closes while its vmm.save child is still open.
        (4, close(1)),
        // A grandchild opened after the round closed still belongs to it.
        (5, open(4, 2, "storage.write", 4096)),
        (6, close(4)),
        (7, open(5, 0, "lsc.restore", 0)),
        (8, open(6, 5, "storage.stage", 7)),
        // Close of an id nobody opened.
        (9, close(42)),
        (10, close(3)),
        (11, open(7, 2, "storage.write", 1)),
        (12, close(5)),
        // Never closed: 2 (vmm.save), 6 (storage.stage), 7 (storage.write).
    ]
}

fn feed(sink: &mut dyn EventSink) {
    for (t, e) in stream() {
        sink.on_event(SimTime(t), &e);
    }
}

fn sample(name: &'static str, arg: u64, start: u64, end: u64, complete: bool) -> PhaseSample {
    PhaseSample {
        name,
        arg,
        start: SimTime(start),
        end: SimTime(end),
        complete,
    }
}

#[test]
fn span_checker_on_the_malformed_stream() {
    let mut c = SpanChecker::new();
    feed(&mut c);
    assert_eq!(
        c.violations(),
        [
            "span 3 (lsc.dispatch): parent 99 is not open",
            "span 1 (lsc.round): closed with 1 open child(ren)",
            "span 42: closed but never opened",
            "span 5 (lsc.restore): closed with 1 open child(ren)",
        ]
    );
    assert_eq!((c.opened(), c.closed(), c.unclosed()), (7, 5, 3));
    assert_eq!(
        c.findings()[4..],
        [
            "span 2 (vmm.save): never closed",
            "span 6 (storage.stage): never closed",
            "span 7 (storage.write): never closed",
        ]
    );
    assert_eq!(c.report(), "4 violation(s), 3 unclosed of 7 opened");
    assert_eq!(c.digest(), 0x5234_4676_89d4_59ad);
}

#[test]
fn perfetto_on_the_malformed_stream() {
    let mut p = PerfettoTrace::new();
    feed(&mut p);
    assert_eq!(p.span_count(), 4);
    assert_eq!(p.unclosed(), 3);
    assert_eq!(p.unmatched_closes, 1);
    // Track 3 (the orphan's own id) gets no thread_name: only true roots do.
    let want = [
        r#"{"displayTimeUnit":"ms","traceEvents":["#,
        r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"lsc.round 5"}},"#,
        r#"{"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"lsc.restore 0"}},"#,
        r#"{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.004,"name":"lsc.round","args":{"id":1,"parent":0,"arg":5}},"#,
        r#"{"ph":"X","pid":1,"tid":1,"ts":0.005,"dur":0.001,"name":"storage.write","args":{"id":4,"parent":2,"arg":4096}},"#,
        r#"{"ph":"X","pid":1,"tid":3,"ts":0.002,"dur":0.008,"name":"lsc.dispatch","args":{"id":3,"parent":99,"arg":0}},"#,
        r#"{"ph":"X","pid":1,"tid":5,"ts":0.007,"dur":0.005,"name":"lsc.restore","args":{"id":5,"parent":0,"arg":0}}"#,
        "]}",
    ];
    assert_eq!(p.to_json(), want.join("\n") + "\n");
}

#[test]
fn phase_attribution_on_the_malformed_stream() {
    let mut a = PhaseAttribution::new(SimDuration::from_secs(3));
    feed(&mut a);
    a.seal();
    let rounds = a.rounds();
    assert_eq!(rounds.len(), 1);
    assert_eq!((rounds[0].run, rounds[0].end), (5, Some(SimTime(4))));
    assert_eq!(
        rounds[0].phases,
        [
            sample("storage.write", 4096, 5, 6, true),
            sample("vmm.save", 3, 1, 12, false),
            sample("storage.write", 1, 11, 12, false),
        ]
    );
    assert_eq!(
        a.free_phases(),
        [
            sample("lsc.dispatch", 0, 2, 10, true),
            sample("lsc.restore", 0, 7, 12, true),
            sample("storage.stage", 7, 8, 12, false),
        ]
    );
}

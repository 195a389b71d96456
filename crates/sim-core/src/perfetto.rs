//! Chrome-trace / Perfetto JSON export of the causal span stream.
//!
//! [`PerfettoTrace`] is an [`EventSink`] that records every span and
//! renders the closed ones as Chrome-trace "X" (complete) events —
//! loadable in `ui.perfetto.dev` or `chrome://tracing`. Each causal tree
//! gets its own track (`tid` = the root span's id, named after the root),
//! so one checkpoint round's dispatch fan-out, VMM saves, storage writes
//! and ack collection stack up visually under the round that caused them.
//!
//! The format is hand-rolled: every value is numeric or a registry name
//! (see [`crate::span::SPAN_NAMES`]), so no escaping machinery is needed.

use crate::event::{Event, SpanEvent};
use crate::sim::EventSink;
use crate::span::{ClosedSpan, SpanTree};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Collects spans and renders Chrome-trace JSON. See the module docs.
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    tree: SpanTree,
    done: Vec<ClosedSpan>,
    /// Root span id → (name, arg), for track naming.
    roots: BTreeMap<u64, (&'static str, u64)>,
    /// Closes that matched no open span (malformed input stream).
    pub unmatched_closes: u64,
}

impl PerfettoTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans closed and ready for export.
    pub fn span_count(&self) -> usize {
        self.done.len()
    }

    /// Spans still open — nonzero at end of run means the stream was
    /// truncated; they are not exported.
    pub fn unclosed(&self) -> usize {
        self.tree.len()
    }

    /// Render the collected spans as one Chrome-trace JSON document.
    /// Timestamps are microseconds (the format's unit), durations too.
    pub fn to_json(&self) -> String {
        let us = |t: SimTime| t.nanos() as f64 / 1000.0;
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for (root, (name, arg)) in &self.roots {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{root},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name} {arg}\"}}}}"
            );
        }
        for ClosedSpan { span: d, end } in &self.done {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"args\":{{\"id\":{},\"parent\":{},\"arg\":{}}}}}",
                d.root,
                us(d.start),
                us(*end) - us(d.start),
                d.name,
                d.id,
                d.parent,
                d.arg
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

impl EventSink for PerfettoTrace {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        let Event::Span(se) = event else { return };
        match *se {
            SpanEvent::Open {
                id,
                parent,
                name,
                arg,
            } => {
                if parent == 0 {
                    self.roots.insert(id, (name, arg));
                }
                // An orphan gets its own track, without a track name.
                let _ = self.tree.open(time, id, parent, name, arg);
            }
            SpanEvent::Close { id } => match self.tree.close(time, id) {
                Ok(c) => self.done.push(c),
                Err(_) => self.unmatched_closes += 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_their_roots_track() {
        let mut p = PerfettoTrace::new();
        let evs = [
            (
                0,
                SpanEvent::Open {
                    id: 1,
                    parent: 0,
                    name: "lsc.round",
                    arg: 3,
                },
            ),
            (
                1_000,
                SpanEvent::Open {
                    id: 2,
                    parent: 1,
                    name: "vmm.save",
                    arg: 0,
                },
            ),
            (2_000, SpanEvent::Close { id: 2 }),
            (3_000, SpanEvent::Close { id: 1 }),
        ];
        for (t, e) in evs {
            p.on_event(SimTime(t), &Event::Span(e));
        }
        assert_eq!(p.span_count(), 2);
        assert_eq!(p.unclosed(), 0);
        let json = p.to_json();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"lsc.round 3\""));
        // both X events sit on the round's track (tid 1)
        assert_eq!(json.matches("\"ph\":\"X\",\"pid\":1,\"tid\":1,").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":1.000,\"name\":\"vmm.save\""));
    }

    #[test]
    fn unclosed_spans_are_counted_not_exported() {
        let mut p = PerfettoTrace::new();
        p.on_event(
            SimTime(0),
            &Event::Span(SpanEvent::Open {
                id: 1,
                parent: 0,
                name: "lsc.round",
                arg: 0,
            }),
        );
        p.on_event(SimTime(1), &Event::Span(SpanEvent::Close { id: 9 }));
        assert_eq!(p.span_count(), 0);
        assert_eq!(p.unclosed(), 1);
        assert_eq!(p.unmatched_closes, 1);
    }
}

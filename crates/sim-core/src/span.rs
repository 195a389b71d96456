//! Causal spans — parent-linked intervals carried on the typed event spine.
//!
//! Flat events say *what* happened; spans say *where the time went*. A span
//! is an interval opened and closed around a phase of work, linked to the
//! span that caused it, so one checkpoint round becomes a tree:
//!
//! ```text
//! lsc.round (run)
//! ├── lsc.dispatch (member)      arm send → member pause
//! ├── vmm.save (vm)              pause + snapshot + persist, per member
//! │   └── storage.write (bytes)  the shared-array transfer
//! ├── lsc.ack_collect            first pause → every save resolved
//! └── lsc.resume                 coordinated resume → run finished
//! ```
//!
//! Spans ride the existing [`crate::Event`] stream as
//! [`Event::Span`] values, so every
//! [`crate::EventSink`] sees them with zero new plumbing — and when no sink
//! is attached, [`Sim::open_span`](crate::Sim::open_span) returns
//! [`SpanId::NONE`] without allocating an id or emitting anything, which is
//! what keeps the instrumented hot paths byte-identical (and cost-free) in
//! legacy runs.
//!
//! Ids are per-[`Sim`](crate::Sim) and only advance while a sink is
//! attached, so same-seed runs with the same sinks see the same ids — the
//! [`SpanChecker::digest`] replay test depends on that.

use crate::event::{Event, SpanEvent};
use crate::hash::{fnv1a, FNV_BASIS};
use crate::sim::EventSink;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Identifier of an open span. `NONE` (id 0) is the null parent: a span
/// with parent `NONE` is a root of its causal tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: used as "no parent" and returned by
    /// [`Sim::open_span`](crate::Sim::open_span) when no sink is attached.
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Every span name the instrumented layers emit. The registry exists so
/// exported streams (where names travel as strings) can be mapped back to
/// `&'static str` by [`name_from_str`] — an unknown name in a stream is a
/// malformed-stream error, not a silently new phase.
pub const SPAN_NAMES: &[&str] = &[
    "lsc.round",
    "lsc.dispatch",
    "lsc.ack_collect",
    "lsc.resume",
    "lsc.restore",
    "lsc.restore_resume",
    "vmm.save",
    "storage.write",
    "storage.stage",
];

/// Map a span name from an exported stream back to its registry entry.
pub fn name_from_str(s: &str) -> Option<&'static str> {
    SPAN_NAMES.iter().find(|n| **n == s).copied()
}

/// One span in a [`SpanTree`], as recorded when it opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    pub id: u64,
    /// The parent named at open (0 for a root), whether or not it was open.
    pub parent: u64,
    pub name: &'static str,
    pub arg: u64,
    pub start: SimTime,
    /// Id of the root of this span's tree: its own id when it opened as a
    /// root or under a parent that was not open.
    pub root: u64,
    /// Children opened under this span and not yet closed.
    pub open_children: u32,
}

/// A span that [`SpanTree::close`] took off the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ClosedSpan {
    /// The span as it stood at close; `open_children > 0` means it closed
    /// before some of its children did.
    pub span: Span,
    pub end: SimTime,
}

/// A structural fault in a span stream, reported by [`SpanTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpanFault {
    /// An open named a parent that is not open. The span is recorded
    /// anyway, as the root of its own tree.
    UnknownParent,
    /// A close named an id that is not open. Nothing changes.
    UnknownClose,
}

/// The open-span fold every span consumer shares: which spans are open,
/// under which parent and root, and how many open children each has.
/// [`SpanChecker`], [`crate::PerfettoTrace`] and [`crate::PhaseAttribution`]
/// each keep one and differ only in what they do with its answers.
#[derive(Debug, Default)]
pub(crate) struct SpanTree {
    open: BTreeMap<u64, Span>,
}

impl SpanTree {
    /// Open span `id` under `parent` (0: a root). An id that is already
    /// open is replaced.
    pub fn open(
        &mut self,
        start: SimTime,
        id: u64,
        parent: u64,
        name: &'static str,
        arg: u64,
    ) -> Result<(), SpanFault> {
        let mut fault = Ok(());
        let mut root = id;
        if parent != 0 {
            match self.open.get_mut(&parent) {
                Some(p) => {
                    p.open_children += 1;
                    root = p.root;
                }
                None => fault = Err(SpanFault::UnknownParent),
            }
        }
        self.open.insert(
            id,
            Span {
                id,
                parent,
                name,
                arg,
                start,
                root,
                open_children: 0,
            },
        );
        fault
    }

    /// Close span `id` at `end` and return it; its parent, if still open,
    /// loses one open child.
    pub fn close(&mut self, end: SimTime, id: u64) -> Result<ClosedSpan, SpanFault> {
        let span = self.open.remove(&id).ok_or(SpanFault::UnknownClose)?;
        if let Some(p) = self.open.get_mut(&span.parent) {
            p.open_children = p.open_children.saturating_sub(1);
        }
        Ok(ClosedSpan { span, end })
    }

    /// Spans still open.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// The open spans in ascending id order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.open.values()
    }
}

/// Checks span-tree well-formedness online and digests the stream for
/// replay-stability tests.
///
/// Violations recorded: reused ids, opens naming a parent that is not
/// currently open, closes of unknown ids, and closes of spans that still
/// have open children (parents must outlive children). At trial end
/// [`SpanChecker::unclosed`] must be zero — every opened span closed.
#[derive(Debug)]
pub struct SpanChecker {
    tree: SpanTree,
    seen_ids: u64,
    opened: u64,
    closed: u64,
    violations: Vec<String>,
    digest: u64,
}

impl Default for SpanChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanChecker {
    pub fn new() -> Self {
        SpanChecker {
            tree: SpanTree::default(),
            seen_ids: 0,
            opened: 0,
            closed: 0,
            violations: Vec::new(),
            digest: FNV_BASIS,
        }
    }

    pub fn opened(&self) -> u64 {
        self.opened
    }

    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Spans still open — must be 0 at trial end.
    pub fn unclosed(&self) -> usize {
        self.tree.len()
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a digest over `(t, kind, id, parent, name, arg)` of every span
    /// event seen, in stream order. Two same-seed runs with the same sinks
    /// attached must produce equal digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// One-line report: `ok (N spans)` or the violation/unclosed counts.
    pub fn report(&self) -> String {
        if self.violations.is_empty() && self.tree.is_empty() {
            format!("ok ({} spans opened+closed)", self.opened)
        } else {
            format!(
                "{} violation(s), {} unclosed of {} opened",
                self.violations.len(),
                self.tree.len(),
                self.opened
            )
        }
    }
}

impl EventSink for SpanChecker {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        let Event::Span(se) = event else { return };
        match *se {
            SpanEvent::Open {
                id,
                parent,
                name,
                arg,
            } => {
                for bytes in [
                    &time.nanos().to_le_bytes()[..],
                    &[0u8],
                    &id.to_le_bytes(),
                    &parent.to_le_bytes(),
                    name.as_bytes(),
                    &arg.to_le_bytes(),
                ] {
                    self.digest = fnv1a(self.digest, bytes);
                }
                self.opened += 1;
                if id == 0 || id <= self.seen_ids {
                    self.violations
                        .push(format!("span {id} ({name}): id reused or zero"));
                } else {
                    self.seen_ids = id;
                }
                if self.tree.open(time, id, parent, name, arg).is_err() {
                    self.violations
                        .push(format!("span {id} ({name}): parent {parent} is not open"));
                }
            }
            SpanEvent::Close { id } => {
                for bytes in [&time.nanos().to_le_bytes()[..], &[1u8], &id.to_le_bytes()] {
                    self.digest = fnv1a(self.digest, bytes);
                }
                self.closed += 1;
                match self.tree.close(time, id) {
                    Ok(ClosedSpan { span: s, .. }) if s.open_children > 0 => {
                        self.violations.push(format!(
                            "span {id} ({}): closed with {} open child(ren)",
                            s.name, s.open_children
                        ))
                    }
                    Ok(_) => {}
                    Err(_) => self
                        .violations
                        .push(format!("span {id}: closed but never opened")),
                }
            }
        }
    }

    fn findings(&self) -> Vec<String> {
        let mut v = self.violations.clone();
        for s in self.tree.spans() {
            v.push(format!("span {} ({}): never closed", s.id, s.name));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(t: u64, id: u64, parent: u64, name: &'static str) -> (SimTime, Event) {
        (
            SimTime(t),
            Event::Span(SpanEvent::Open {
                id,
                parent,
                name,
                arg: 0,
            }),
        )
    }

    fn close(t: u64, id: u64) -> (SimTime, Event) {
        (SimTime(t), Event::Span(SpanEvent::Close { id }))
    }

    fn feed(c: &mut SpanChecker, evs: &[(SimTime, Event)]) {
        for (t, e) in evs {
            c.on_event(*t, e);
        }
    }

    #[test]
    fn tree_tracks_roots_open_children_and_faults() {
        let mut t = SpanTree::default();
        assert_eq!(t.open(SimTime(0), 1, 0, "lsc.round", 0), Ok(()));
        assert_eq!(t.open(SimTime(1), 2, 1, "vmm.save", 0), Ok(()));
        assert_eq!(t.open(SimTime(2), 3, 2, "storage.write", 0), Ok(()));
        assert_eq!(
            t.open(SimTime(2), 4, 9, "lsc.dispatch", 0),
            Err(SpanFault::UnknownParent)
        );
        let c = t.close(SimTime(3), 2).unwrap();
        assert_eq!(
            (c.span.root, c.span.open_children, c.span.start, c.end),
            (1, 1, SimTime(1), SimTime(3))
        );
        let open: Vec<_> = t.spans().map(|s| (s.id, s.root)).collect();
        assert_eq!(open, [(1, 1), (3, 1), (4, 4)]);
        assert_eq!(t.close(SimTime(4), 2), Err(SpanFault::UnknownClose));
        assert_eq!(t.close(SimTime(4), 1).unwrap().span.open_children, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn well_formed_tree_is_clean() {
        let mut c = SpanChecker::new();
        feed(
            &mut c,
            &[
                open(0, 1, 0, "lsc.round"),
                open(1, 2, 1, "lsc.dispatch"),
                close(2, 2),
                open(3, 3, 1, "vmm.save"),
                open(3, 4, 3, "storage.write"),
                close(5, 4),
                close(5, 3),
                close(6, 1),
            ],
        );
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(c.unclosed(), 0);
        assert_eq!(c.opened(), 4);
        assert_eq!(c.closed(), 4);
    }

    #[test]
    fn parent_closed_before_child_fires() {
        let mut c = SpanChecker::new();
        feed(
            &mut c,
            &[
                open(0, 1, 0, "lsc.round"),
                open(1, 2, 1, "vmm.save"),
                close(2, 1),
                close(3, 2),
            ],
        );
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("open child"));
    }

    #[test]
    fn unknown_parent_and_reused_id_fire() {
        let mut c = SpanChecker::new();
        feed(
            &mut c,
            &[
                open(0, 5, 9, "lsc.dispatch"),
                close(1, 5),
                open(2, 5, 0, "lsc.round"),
            ],
        );
        assert_eq!(c.violations().len(), 2);
        assert!(c.violations()[0].contains("not open"));
        assert!(c.violations()[1].contains("reused"));
    }

    #[test]
    fn unclosed_spans_surface_in_findings() {
        let mut c = SpanChecker::new();
        feed(&mut c, &[open(0, 1, 0, "lsc.round")]);
        assert_eq!(c.unclosed(), 1);
        assert!(c.findings()[0].contains("never closed"));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = SpanChecker::new();
        let mut b = SpanChecker::new();
        let evs = [open(0, 1, 0, "lsc.round"), close(9, 1)];
        feed(&mut a, &evs);
        feed(&mut b, &evs);
        assert_eq!(a.digest(), b.digest());
        let mut c = SpanChecker::new();
        feed(&mut c, &[open(0, 1, 0, "lsc.round"), close(10, 1)]);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn every_emitted_name_is_registered() {
        for n in SPAN_NAMES {
            assert_eq!(name_from_str(n), Some(*n));
        }
        assert_eq!(name_from_str("bogus.phase"), None);
    }
}

//! Reading exported event streams back into typed [`Event`]s.
//!
//! The bench binaries export JSONL via [`dvc_sim_core::JsonlSink`]
//! (`EVENTS_E3.jsonl`, `EVENTS_E13.jsonl`); `dvc-trace` consumes those
//! files. This module reconstructs the subset of events the trace tools
//! need — span boundaries, the LSC round lifecycle, storage retries and
//! control-plane faults — so the files can be replayed straight into the
//! [`dvc_sim_core::EventSink`] analyzers ([`dvc_sim_core::SpanChecker`],
//! [`dvc_sim_core::PhaseAttribution`], [`dvc_sim_core::PerfettoTrace`])
//! instead of growing a parallel half-typed representation.
//!
//! The JSONL format is flat (every value numeric, boolean, or a registry
//! identifier; one object per line), so extraction is plain string
//! scanning — no JSON dependency. Lines with recognized keys but missing
//! fields, or span names outside [`dvc_sim_core::SPAN_NAMES`], are
//! malformed-stream errors; lines with keys the tools don't consume are
//! skipped.

use dvc_sim_core::{
    name_from_str, Event, FaultEvent, LscEvent, SimDuration, SimTime, SpanEvent, StorageEvent,
};

/// Find `"name":` in a flat JSON object line and return the raw value text
/// (up to the next `,` or `}`), unquoted if it was a string.
fn field_raw<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        return Some(&stripped[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_u64(line: &str, name: &str) -> Option<u64> {
    field_raw(line, name)?.parse().ok()
}

fn field_u32(line: &str, name: &str) -> Option<u32> {
    field_raw(line, name)?.parse().ok()
}

fn field_bool(line: &str, name: &str) -> Option<bool> {
    match field_raw(line, name)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Parse one JSONL line. `Ok(Some(..))` for events the trace tools
/// consume, `Ok(None)` for valid lines with other keys, `Err` for
/// malformed input (no timestamp/key, missing fields on a known key, or an
/// unregistered span name).
pub(crate) fn parse_line(line: &str) -> Result<Option<(SimTime, Event)>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let t = field_u64(line, "t").ok_or_else(|| format!("no \"t\" field: {line}"))?;
    let key = field_raw(line, "key").ok_or_else(|| format!("no \"key\" field: {line}"))?;
    let t = SimTime(t);
    let missing = |f: &str| format!("key {key}: missing \"{f}\": {line}");
    let ev = match key {
        "span.open" => {
            let name = field_raw(line, "name").ok_or_else(|| missing("name"))?;
            let name =
                name_from_str(name).ok_or_else(|| format!("unregistered span name: {name}"))?;
            Event::Span(SpanEvent::Open {
                id: field_u64(line, "id").ok_or_else(|| missing("id"))?,
                parent: field_u64(line, "parent").ok_or_else(|| missing("parent"))?,
                name,
                arg: field_u64(line, "arg").ok_or_else(|| missing("arg"))?,
            })
        }
        "span.close" => Event::Span(SpanEvent::Close {
            id: field_u64(line, "id").ok_or_else(|| missing("id"))?,
        }),
        "lsc.save_fired" => Event::Lsc(LscEvent::SaveFired {
            run: field_u64(line, "run").ok_or_else(|| missing("run"))?,
            vc: field_u32(line, "vc").ok_or_else(|| missing("vc"))?,
            member: field_u32(line, "member").ok_or_else(|| missing("member"))?,
            vm: field_u32(line, "vm").ok_or_else(|| missing("vm"))?,
        }),
        "lsc.window_closed" => Event::Lsc(LscEvent::WindowClosed {
            run: field_u64(line, "run").ok_or_else(|| missing("run"))?,
            vc: field_u32(line, "vc").ok_or_else(|| missing("vc"))?,
            skew: SimDuration(field_u64(line, "skew_ns").ok_or_else(|| missing("skew_ns"))?),
            stored: field_bool(line, "stored").ok_or_else(|| missing("stored"))?,
        }),
        "lsc.abort_rearm" => Event::Lsc(LscEvent::AbortReArm {
            run: field_u64(line, "run").ok_or_else(|| missing("run"))?,
            vc: field_u32(line, "vc").ok_or_else(|| missing("vc"))?,
            attempt: field_u32(line, "attempt").ok_or_else(|| missing("attempt"))?,
        }),
        "lsc.run_finished" => Event::Lsc(LscEvent::RunFinished {
            run: field_u64(line, "run").ok_or_else(|| missing("run"))?,
            vc: field_u32(line, "vc").ok_or_else(|| missing("vc"))?,
            success: field_bool(line, "success").ok_or_else(|| missing("success"))?,
        }),
        "storage.transfer_retry" => Event::Storage(StorageEvent::TransferRetry {
            attempt: field_u32(line, "attempt").ok_or_else(|| missing("attempt"))?,
            max_attempts: field_u32(line, "max").ok_or_else(|| missing("max"))?,
            bytes: field_u64(line, "bytes").ok_or_else(|| missing("bytes"))?,
            backoff: SimDuration(
                field_u64(line, "backoff_ns").ok_or_else(|| missing("backoff_ns"))?,
            ),
        }),
        "storage.transfer_failed" => Event::Storage(StorageEvent::TransferFailed {
            bytes: field_u64(line, "bytes").ok_or_else(|| missing("bytes"))?,
        }),
        "fault.ctrl_dropped" => Event::Fault(FaultEvent::CtrlDropped {
            node: field_u32(line, "node").ok_or_else(|| missing("node"))?,
        }),
        "fault.ctrl_partitioned" => Event::Fault(FaultEvent::CtrlPartitioned {
            node: field_u32(line, "node").ok_or_else(|| missing("node"))?,
            in_flight: field_bool(line, "in_flight").ok_or_else(|| missing("in_flight"))?,
        }),
        _ => return Ok(None),
    };
    Ok(Some((t, ev)))
}

/// A parsed export: the reconstructed events plus stream-level facts the
/// events alone can't carry.
#[derive(Debug)]
pub struct ParsedStream {
    pub events: Vec<(SimTime, Event)>,
    /// Non-empty lines seen (consumed or skipped).
    pub lines: usize,
    /// Latest timestamp on *any* valid line, skipped keys included — the
    /// stream's true end. A trial whose job died mid-round keeps emitting
    /// fault/transport noise long after the last span event, and that tail
    /// is exactly the paused-member exposure
    /// [`dvc_sim_core::PhaseAttribution`] needs to see
    /// (via [`dvc_sim_core::PhaseAttribution::observe_end`]).
    pub end: Option<SimTime>,
}

/// Parse a whole exported stream; the first malformed line aborts with its
/// line number.
pub fn parse_stream(text: &str) -> Result<ParsedStream, String> {
    let mut out = ParsedStream {
        events: Vec::new(),
        lines: 0,
        end: None,
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.lines += 1;
        let err = |e| format!("line {}: {e}", i + 1);
        let t = SimTime(
            field_u64(line, "t").ok_or_else(|| err(format!("no \"t\" field: {}", line.trim())))?,
        );
        out.end = Some(out.end.map_or(t, |e| e.max(t)));
        if let Some(ev) = parse_line(line).map_err(err)? {
            out.events.push(ev);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_round_trip_through_jsonl() {
        let open = Event::Span(SpanEvent::Open {
            id: 7,
            parent: 2,
            name: "vmm.save",
            arg: 3,
        });
        let line = open.jsonl(SimTime(5));
        let (t, ev) = parse_line(&line).unwrap().unwrap();
        assert_eq!(t, SimTime(5));
        assert_eq!(ev, open);

        let close = Event::Span(SpanEvent::Close { id: 7 });
        let line = close.jsonl(SimTime(6));
        assert_eq!(parse_line(&line).unwrap().unwrap(), (SimTime(6), close));
    }

    #[test]
    fn lifecycle_lines_round_trip() {
        for ev in [
            Event::Lsc(LscEvent::SaveFired {
                run: 3,
                vc: 1,
                member: 4,
                vm: 9,
            }),
            Event::Lsc(LscEvent::WindowClosed {
                run: 3,
                vc: 1,
                skew: SimDuration::from_millis(7),
                stored: false,
            }),
            Event::Lsc(LscEvent::RunFinished {
                run: 3,
                vc: 1,
                success: true,
            }),
            Event::Storage(StorageEvent::TransferRetry {
                attempt: 2,
                max_attempts: 4,
                bytes: 1 << 20,
                backoff: SimDuration::from_millis(300),
            }),
            Event::Fault(FaultEvent::CtrlPartitioned {
                node: 5,
                in_flight: true,
            }),
        ] {
            let line = ev.jsonl(SimTime(42));
            assert_eq!(
                parse_line(&line).unwrap(),
                Some((SimTime(42), ev)),
                "{line}"
            );
        }
    }

    #[test]
    fn unknown_keys_skip_and_malformed_lines_error() {
        // Unconsumed-but-valid keys are skipped.
        assert_eq!(
            parse_line("{\"t\":1,\"key\":\"tcp.retransmit\",\"ep\":4}").unwrap(),
            None
        );
        // No timestamp / no key / bad span name / missing field all error.
        assert!(parse_line("{\"key\":\"span.close\",\"id\":1}").is_err());
        assert!(parse_line("{\"t\":1}").is_err());
        assert!(parse_line(
            "{\"t\":1,\"key\":\"span.open\",\"id\":1,\"parent\":0,\"name\":\"x\",\"arg\":0}"
        )
        .is_err());
        assert!(parse_line("{\"t\":1,\"key\":\"span.close\"}").is_err());
    }

    #[test]
    fn parse_stream_counts_lines_and_reports_position() {
        let text = "{\"t\":1,\"key\":\"span.open\",\"id\":1,\"parent\":0,\"name\":\"lsc.round\",\"arg\":1}\n\
                    {\"t\":2,\"key\":\"mpi.job_launched\",\"ranks\":8}\n\
                    \n\
                    {\"t\":3,\"key\":\"span.close\",\"id\":1}\n\
                    {\"t\":9,\"key\":\"ntp.unanswered\",\"src\":\"p1\"}\n";
        let s = parse_stream(text).unwrap();
        assert_eq!(s.lines, 4);
        assert_eq!(s.events.len(), 2);
        // The stream end counts skipped keys too.
        assert_eq!(s.end, Some(SimTime(9)));

        let bad = "{\"t\":1,\"key\":\"span.close\",\"id\":1}\nnot json\n";
        let err = parse_stream(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

//! `dvc-trace` — offline analyzer for exported span streams.
//!
//! The experiment binaries export their typed event stream as JSONL
//! (`EVENTS_E3.jsonl`, `EVENTS_E13.jsonl`). This tool replays such a file
//! through the sim-core analyzers and renders:
//!
//! * `summary`   — stream health (spans opened/closed, violations), round
//!   counts, per-phase duration quantiles and the margin distribution.
//!   Exits nonzero on a malformed stream, unclosed spans, span-tree
//!   violations, or a stream with no checkpoint rounds at all.
//! * `waterfall` — ASCII timelines of the worst-margin rounds: every phase
//!   span as a bar on the round's time axis, with the TCP silence budget
//!   marked from the first pause, so a failed round shows *which phase*
//!   pushed the pause spread past the budget.
//! * `diff`      — two streams side by side: per-phase p50/p99 and margin
//!   shifts (for comparing a chaos run against a clean baseline).
//! * `perfetto`  — Chrome-trace JSON export for `ui.perfetto.dev`.

use dvc_bench::traceio::{parse_stream, ParsedStream};
use dvc_cluster::world::WorldConfig;
use dvc_sim_core::{EventSink, PerfettoTrace, PhaseAttribution, RoundRecord, SimTime, SpanChecker};

const USAGE: &str = "dvc-trace — span-stream analyzer for DVC event exports

USAGE:
  dvc-trace summary   <events.jsonl>            stream health + phase/margin stats
  dvc-trace waterfall <events.jsonl> [--worst N] timelines of the N worst-margin rounds (default 3)
  dvc-trace diff      <a.jsonl> <b.jsonl>       compare two runs phase by phase
  dvc-trace perfetto  <events.jsonl> [-o FILE]  export Chrome-trace JSON (default <input>.perfetto.json)";

fn fail(msg: &str) -> ! {
    eprintln!("dvc-trace: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> ParsedStream {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let stream =
        parse_stream(&text).unwrap_or_else(|e| fail(&format!("{path}: malformed stream: {e}")));
    eprintln!(
        "{path}: {} events, {} consumed",
        stream.lines,
        stream.events.len()
    );
    stream
}

struct Analysis {
    checker: SpanChecker,
    attrib: PhaseAttribution,
}

fn analyze(stream: &ParsedStream) -> Analysis {
    let mut checker = SpanChecker::new();
    let mut attrib = PhaseAttribution::new(WorldConfig::default().silence_budget());
    for (t, ev) in &stream.events {
        checker.on_event(*t, ev);
        attrib.on_event(*t, ev);
    }
    if let Some(end) = stream.end {
        attrib.observe_end(end);
    }
    attrib.seal();
    Analysis { checker, attrib }
}

fn secs(s: f64) -> String {
    if s.abs() < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

// ---------------------------------------------------------------- summary

fn cmd_summary(path: &str) {
    let stream = load(path);
    let Analysis { checker, attrib } = analyze(&stream);

    println!("stream: {path}");
    println!("spans:  {}", checker.report());
    for v in checker.violations().iter().take(10) {
        println!("  violation: {v}");
    }

    let rounds = attrib.rounds();
    let failed = rounds.iter().filter(|r| r.is_failed()).count();
    let budget = attrib.budget();
    println!(
        "rounds: {} checkpoint round(s), {failed} failed (budget {})",
        rounds.len(),
        secs(budget.as_secs_f64()),
    );

    let mut margins = attrib.margin_hist();
    if !margins.is_empty() {
        let neg = margins.samples().iter().filter(|m| **m < 0.0).count();
        println!(
            "margin: min {} / p50 {} / max {}  ({neg} round(s) negative)",
            secs(margins.min()),
            secs(margins.median()),
            secs(margins.max()),
        );
    }

    let phases = attrib.phase_histograms();
    if !phases.is_empty() {
        println!(
            "\n{:<18} {:>6} {:>10} {:>10} {:>10}",
            "phase", "n", "p50", "p99", "max"
        );
        for (name, h) in &phases {
            let mut h = h.clone();
            println!(
                "{name:<18} {:>6} {:>10} {:>10} {:>10}",
                h.len(),
                secs(h.median()),
                secs(h.p99()),
                secs(h.max()),
            );
        }
    }

    let free = attrib.free_phases().len();
    if free > 0 {
        println!("\n{free} restore/migration phase span(s) outside checkpoint rounds");
    }

    // Health gate: a stream that parsed but carries a broken or empty span
    // layer is a failure for CI purposes.
    if !checker.is_clean() {
        eprintln!("dvc-trace: span-tree violations present");
        std::process::exit(1);
    }
    if checker.unclosed() > 0 {
        eprintln!("dvc-trace: {} span(s) never closed", checker.unclosed());
        std::process::exit(1);
    }
    if rounds.is_empty() {
        eprintln!("dvc-trace: no checkpoint rounds in stream");
        std::process::exit(1);
    }
}

// -------------------------------------------------------------- waterfall

const BAR_W: usize = 56;

fn bar(round_start: SimTime, round_end: SimTime, s: SimTime, e: SimTime) -> String {
    let span = (round_end.0.saturating_sub(round_start.0)).max(1) as f64;
    let col = |t: SimTime| -> usize {
        let frac = (t.0.saturating_sub(round_start.0)) as f64 / span;
        ((frac * BAR_W as f64) as usize).min(BAR_W - 1)
    };
    let (a, b) = (col(s), col(e).max(col(s)));
    let mut out = String::with_capacity(BAR_W + 2);
    out.push('|');
    for i in 0..BAR_W {
        out.push(if i >= a && i <= b { '#' } else { '.' });
    }
    out.push('|');
    out
}

fn print_round(r: &RoundRecord, budget_s: f64) {
    let start = r.start;
    let full_end = r.end.or(r.window_closed_at).unwrap_or(r.start);
    // A round that never resolved its window was sealed with the stream
    // end, which can be minutes of dead air after the job died; truncate
    // the axis just past the budget deadline so the bars stay readable.
    let mut truncated = false;
    let end = if r.window_closed_at.is_none() && r.is_failed() {
        let phase_end = r
            .phases
            .iter()
            .filter(|p| p.complete)
            .map(|p| p.end)
            .max()
            .unwrap_or(full_end);
        let deadline = r
            .first_fire
            .map(|ff| SimTime(ff.0 + (budget_s * 1e9) as u64))
            .unwrap_or(phase_end);
        let cap = phase_end.max(deadline);
        truncated = cap < full_end;
        cap.min(full_end)
    } else {
        full_end
    };
    let dur = (end - start).as_secs_f64();
    let verdict = if r.is_failed() { "FAILED" } else { "stored" };
    let margin = r
        .margin_s(dvc_sim_core::SimDuration::from_secs_f64(budget_s))
        .map(secs)
        .unwrap_or_else(|| "n/a".into());
    println!(
        "round {} (vc {}) — {verdict}, margin {margin}, spread {}, {} fire(s), \
         {} abort(s), {} storage retr{}, {} ctrl loss(es)",
        r.run,
        r.vc,
        r.spread()
            .map(|s| secs(s.as_secs_f64()))
            .unwrap_or_else(|| "n/a".into()),
        r.fires,
        r.aborts,
        r.storage_retries,
        if r.storage_retries == 1 { "y" } else { "ies" },
        r.ctrl_losses,
    );
    println!(
        "  t = {:.3} s … {:.3} s  ({})",
        start.0 as f64 / 1e9,
        end.0 as f64 / 1e9,
        secs(dur),
    );
    if truncated {
        println!(
            "  window never resolved — members stayed paused; evidence runs to \
             {:.3} s (axis truncated past the budget deadline)",
            full_end.0 as f64 / 1e9,
        );
    }

    // The silence window: first pause → first pause + budget. Everything a
    // failed round does past the '>' is time its peers spent retransmitting
    // into frozen guests.
    if let Some(ff) = r.first_fire {
        let deadline = SimTime(ff.0 + (budget_s * 1e9) as u64);
        println!(
            "  {:<24} {}  (first pause + {})",
            "tcp silence budget",
            bar(start, end, ff, deadline.min(end)),
            secs(budget_s),
        );
    }

    let mut phases = r.phases.clone();
    phases.sort_by_key(|p| (p.start, p.name, p.arg));
    const MAX_ROWS: usize = 48;
    for p in phases.iter().take(MAX_ROWS) {
        let label = format!("{}[{}]", p.name, p.arg);
        let tail = if p.complete {
            format!("for {}", secs(p.duration().as_secs_f64()))
        } else {
            "NEVER COMPLETED".into()
        };
        println!(
            "  {label:<24} {}  +{} {tail}",
            bar(start, end, p.start, p.end),
            secs((p.start - start).as_secs_f64()),
        );
    }
    if phases.len() > MAX_ROWS {
        println!(
            "  … {} more phase span(s) not shown",
            phases.len() - MAX_ROWS
        );
    }
    println!();
}

fn cmd_waterfall(path: &str, worst: usize) {
    let stream = load(path);
    let Analysis { attrib, .. } = analyze(&stream);
    let budget_s = attrib.budget().as_secs_f64();

    // Worst margin first; rounds that paused nobody sort last.
    let mut rounds: Vec<&RoundRecord> = attrib.rounds().iter().collect();
    if rounds.is_empty() {
        fail("no checkpoint rounds in stream");
    }
    rounds.sort_by(|a, b| {
        let ma = a.margin_s(attrib.budget()).unwrap_or(f64::INFINITY);
        let mb = b.margin_s(attrib.budget()).unwrap_or(f64::INFINITY);
        ma.total_cmp(&mb)
    });
    println!(
        "{} round(s); showing the {} worst by margin (budget {}):\n",
        rounds.len(),
        worst.min(rounds.len()),
        secs(budget_s),
    );
    for r in rounds.iter().take(worst) {
        print_round(r, budget_s);
    }
}

// ------------------------------------------------------------------- diff

fn cmd_diff(path_a: &str, path_b: &str) {
    let a = analyze(&load(path_a));
    let b = analyze(&load(path_b));
    let (pa, pb) = (a.attrib.phase_histograms(), b.attrib.phase_histograms());

    println!("phase-level diff — A = {path_a}, B = {path_b}\n");
    println!(
        "{:<18} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "phase", "n(A)", "n(B)", "p50(A)", "p50(B)", "p99(A)", "p99(B)"
    );
    let names: std::collections::BTreeSet<&str> = pa.keys().chain(pb.keys()).copied().collect();
    for name in names {
        let q = |h: Option<&dvc_sim_core::stats::Histogram>, f: f64| {
            h.map(|h| secs(h.clone().quantile(f)))
                .unwrap_or_else(|| "-".into())
        };
        let n = |h: Option<&dvc_sim_core::stats::Histogram>| {
            h.map(|h| h.len().to_string()).unwrap_or_else(|| "0".into())
        };
        println!(
            "{name:<18} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
            n(pa.get(name)),
            n(pb.get(name)),
            q(pa.get(name), 0.5),
            q(pb.get(name), 0.5),
            q(pa.get(name), 0.99),
            q(pb.get(name), 0.99),
        );
    }

    let row = |tag: &str, an: &Analysis| {
        let rounds = an.attrib.rounds();
        let failed = rounds.iter().filter(|r| r.is_failed()).count();
        let mut m = an.attrib.margin_hist();
        if m.is_empty() {
            println!(
                "{tag}: {} round(s), {failed} failed, no margins",
                rounds.len()
            );
        } else {
            println!(
                "{tag}: {} round(s), {failed} failed, margin min {} / p50 {}",
                rounds.len(),
                secs(m.min()),
                secs(m.median()),
            );
        }
    };
    println!();
    row("A", &a);
    row("B", &b);
}

// --------------------------------------------------------------- perfetto

fn cmd_perfetto(path: &str, out: Option<String>) {
    let stream = load(path);
    let mut trace = PerfettoTrace::new();
    for (t, ev) in &stream.events {
        trace.on_event(*t, ev);
    }
    let out = out.unwrap_or_else(|| format!("{path}.perfetto.json"));
    std::fs::write(&out, trace.to_json())
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!(
        "{out}: {} span(s) exported ({} unclosed dropped, {} unmatched closes)",
        trace.span_count(),
        trace.unclosed(),
        trace.unmatched_closes,
    );
    if trace.span_count() == 0 {
        eprintln!("dvc-trace: stream contained no closed spans");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("summary") => match it.next() {
            Some(path) => cmd_summary(path),
            None => fail(USAGE),
        },
        Some("waterfall") => {
            let Some(path) = it.next() else { fail(USAGE) };
            let worst = match (it.next(), it.next()) {
                (Some("--worst"), Some(n)) => {
                    n.parse().unwrap_or_else(|_| fail("--worst takes a number"))
                }
                (None, _) => 3,
                _ => fail(USAGE),
            };
            cmd_waterfall(path, worst);
        }
        Some("diff") => match (it.next(), it.next()) {
            (Some(a), Some(b)) => cmd_diff(a, b),
            _ => fail(USAGE),
        },
        Some("perfetto") => {
            let Some(path) = it.next() else { fail(USAGE) };
            let out = match (it.next(), it.next()) {
                (Some("-o"), Some(f)) => Some(f.to_string()),
                (None, _) => None,
                _ => fail(USAGE),
            };
            cmd_perfetto(path, out);
        }
        _ => {
            println!("{USAGE}");
            std::process::exit(2);
        }
    }
}

//! The experiment harness: regenerates every table/figure of the paper.
//!
//! ```text
//! cargo run --release -p dvc-bench --bin experiments -- all
//! cargo run --release -p dvc-bench --bin experiments -- e2 e3
//! cargo run --release -p dvc-bench --bin experiments -- --trials 200 e2
//! cargo run --release -p dvc-bench --bin experiments -- --quick all
//! ```
//!
//! Every experiment prints a self-contained markdown section; `tee` the
//! output to capture it for EXPERIMENTS.md.

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;

use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{CheckCounts, InvariantChecker, JsonlSink, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Trial multiplier: 1.0 = paper-comparable defaults.
    pub scale: f64,
    pub seed: u64,
    pub threads: usize,
    /// Attach [`dvc_sim_core::InvariantChecker`] sinks to every trial of
    /// E3 and E13 and fail the run on any violation (E3 and E13's hardened
    /// arm must stay clean; E13's baseline arm under injected clock faults
    /// reports its violations as detections). Other experiments ignore it.
    pub check_invariants: bool,
}

impl Opts {
    /// Scale a default trial count.
    pub fn trials(&self, default: usize) -> usize {
        ((default as f64 * self.scale).round() as usize).max(1)
    }
}

/// Events one exported trial stream may hold before [`JsonlSink`] drops
/// the rest.
pub const EXPORT_CAP: usize = 200_000;

/// Write an exported event stream to `path` and say so; warn when the cap
/// cut it short, since the file then ends before the trial did.
pub fn write_export(exp: &str, path: &str, sink: &JsonlSink, what: &str) {
    match std::fs::write(path, sink.lines.join("\n") + "\n") {
        Ok(()) => println!(
            "\n_exported {} typed events ({what}) to {path}_",
            sink.lines.len()
        ),
        Err(e) => eprintln!("{exp}: could not write {path}: {e}"),
    }
    if sink.dropped > 0 {
        println!(
            "warning: {path} is truncated: {} event(s) dropped at cap {EXPORT_CAP}",
            sink.dropped
        );
    }
}

/// What a trial's checker and exporter sinks collected (see
/// [`attach_sinks`]).
pub struct SinkReport {
    pub violations: Vec<String>,
    /// `None` when no checker was attached.
    pub checked: Option<CheckCounts>,
    pub jsonl: Option<JsonlSink>,
}

/// Attach an [`InvariantChecker`] (against the world's silence budget) when
/// `check`, and a [`JsonlSink`] capped at [`EXPORT_CAP`] when `export`.
/// Call the returned closure once the trial has run to collect both.
pub fn attach_sinks(
    sim: &mut Sim<ClusterWorld>,
    check: bool,
    export: bool,
) -> impl FnOnce() -> SinkReport {
    let checker = check.then(|| {
        let c = Rc::new(RefCell::new(InvariantChecker::new(
            sim.world.cfg.silence_budget(),
        )));
        sim.attach_sink(c.clone());
        c
    });
    let exporter = export.then(|| {
        let s = Rc::new(RefCell::new(JsonlSink::new(EXPORT_CAP)));
        sim.attach_sink(s.clone());
        s
    });
    move || SinkReport {
        violations: checker
            .as_ref()
            .map(|c| c.borrow().violations().to_vec())
            .unwrap_or_default(),
        checked: checker.map(|c| c.borrow().counts()),
        jsonl: exporter.map(|s| s.replace(JsonlSink::new(0))),
    }
}

fn main() {
    let mut scale = 1.0f64;
    let mut seed = 20070926; // CLUSTER 2007 ;-)
    let mut check_invariants = false;
    let mut picked: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = 0.15,
            "--check-invariants" => check_invariants = true,
            "--trials-scale" => {
                scale = args
                    .next()
                    .expect("--trials-scale <f64>")
                    .parse()
                    .expect("bad scale");
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed <u64>")
                    .parse()
                    .expect("bad seed");
            }
            "all" => picked.extend(dvc_bench::ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            e if dvc_bench::ALL_EXPERIMENTS.contains(&e) => picked.push(e.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: experiments [--quick] [--trials-scale X] [--seed S] \
                     [--check-invariants] <e1..e13|all>..."
                );
                std::process::exit(2);
            }
        }
    }
    if picked.is_empty() {
        picked.extend(dvc_bench::ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    // Run each named experiment once, at its first mention (`e3 all` runs
    // E3 once and writes EVENTS_E3.jsonl once).
    let mut seen = dvc_sim_core::FastSet::default();
    picked.retain(|e| seen.insert(e.clone()));

    let opts = Opts {
        scale,
        seed,
        threads: dvc_sim_core::trial::default_threads(),
        check_invariants,
    };
    println!(
        "# DVC experiment run (seed {seed}, trial scale {scale}, {} threads)\n",
        opts.threads
    );
    for e in picked {
        let t0 = std::time::Instant::now();
        match e.as_str() {
            "e1" => e1::run(opts),
            "e2" => e2::run(opts),
            "e3" => e3::run(opts),
            "e4" => e4::run(opts),
            "e5" => e5::run(opts),
            "e6" => e6::run(opts),
            "e7" => e7::run(opts),
            "e8" => e8::run(opts),
            "e9" => e9::run(opts),
            "e10" => e10::run(opts),
            "e11" => e11::run(opts),
            "e12" => e12::run(opts),
            "e13" => e13::run(opts),
            _ => unreachable!(),
        }
        println!("_({e} took {:.1}s wall)_\n", t0.elapsed().as_secs_f64());
    }
}

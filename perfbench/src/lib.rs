//! Campaign benchmark for the DVC simulator.
//!
//! Four workloads modelled on the suite's dominant campaigns (E3, E4, E10
//! and the fuzzer) run as closed loops of trials on one thread. The model
//! is driven only through its public entry points and every timing is host
//! time taken from outside those calls. See `perfbench/README.md` for the
//! workload rationale, the metric map and the known gaps.

mod trace;
mod workloads;

use std::time::Duration;
use trace::{Phase, Tracer};
pub use workloads::Shape;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    E3Rounds,
    E4Scale,
    E10Failover,
    FuzzOracles,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::E3Rounds,
        Workload::E4Scale,
        Workload::E10Failover,
        Workload::FuzzOracles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::E3Rounds => "e3_rounds",
            Workload::E4Scale => "e4_scale",
            Workload::E10Failover => "e10_failover",
            Workload::FuzzOracles => "fuzz_oracles",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The benchmark-size trial shape.
    pub fn shape(self) -> Shape {
        let (nodes, rounds, laps, warm_s, drain_s) = match self {
            Workload::E3Rounds => (26, 2, 0, 20.0, 10.0),
            Workload::E4Scale => (512, 1, 0, 5.0, 10.0),
            Workload::E10Failover => (16, 0, 500, 20.0, 0.0),
            Workload::FuzzOracles => (0, 0, 0, 0.0, 0.0),
        };
        Shape {
            nodes,
            rounds,
            laps,
            warm_s,
            drain_s,
        }
    }

    /// A shape small enough for a debug-build test.
    pub fn tiny(self) -> Shape {
        let full = self.shape();
        match self {
            Workload::E3Rounds => Shape {
                nodes: 4,
                rounds: 2,
                ..full
            },
            Workload::E4Scale => Shape { nodes: 8, ..full },
            Workload::E10Failover => Shape {
                nodes: 4,
                laps: 100,
                ..full
            },
            Workload::FuzzOracles => full,
        }
    }

    /// Trials in one pass, and worlds built per pass to time set-up.
    /// A pass takes about 2 s on the reference host (see the README).
    pub fn pass_trials(self) -> usize {
        match self {
            Workload::E3Rounds => 3,
            Workload::E4Scale | Workload::E10Failover => 1,
            Workload::FuzzOracles => 20,
        }
    }

    fn setup_builds(self) -> usize {
        match self {
            Workload::E4Scale => 2,
            _ => 64,
        }
    }
}

/// Host seconds of work per pass that `--seconds` is counted in: a run of
/// `s` seconds makes `s / 2` passes (at least one). The count depends on
/// the seconds alone, never on the host, so a run is a fixed amount of work.
pub const PASS_SECONDS: u64 = 2;

/// FNV-1a over the simulated outcomes of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf29ce484222325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What one trial reports back.
#[derive(Clone, Debug, Default)]
pub struct TrialOut {
    /// Host time after set-up (launch, traffic, rounds, drain), cut into
    /// segments of a fixed number of engine steps.
    pub segs: Vec<Duration>,
    /// Simulated seconds advanced after set-up.
    pub sim_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Host ms of each `checkpoint_vc` call → outcome.
    pub round_ms: Vec<f64>,
    pub restores: u64,
    pub digest: Digest,
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Trials per pass.
    pub trials: usize,
    /// Untraced passes over the same trials.
    pub passes: usize,
    pub shape: Shape,
    pub traced: bool,
    /// Check every operation against an impossible expectation: each one
    /// must then count as failed (the benchmark's own self-test).
    pub sabotage: bool,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Self {
        RunConfig {
            workload,
            seed,
            trials: workload.pass_trials(),
            passes: (seconds / PASS_SECONDS).max(1) as usize,
            shape: workload.shape(),
            traced: false,
            sabotage: false,
        }
    }
}

/// A named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Everything a run prints.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    /// Every pass gave the same digest, and in a traced run the traced
    /// pass gave it too.
    pub consistent: bool,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host ms of every round the benchmark issued itself, sorted.
    pub round_ms: Vec<f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn op_fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.consistent
    }
}

/// `q`-quantile of sorted `xs` by linear interpolation (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One pass: the set-up builds, then every trial.
struct Pass {
    setup: Vec<Duration>,
    outs: Vec<TrialOut>,
    digest: Digest,
}

/// Run one pass. `twin` selects the traced run's twin path (see
/// `workloads::trial`).
fn run_pass(cfg: &RunConfig, twin: bool, mut tracer: Option<&mut Tracer>) -> Pass {
    let w = cfg.workload;
    let setup = (0..w.setup_builds())
        .map(|i| workloads::setup_probe(w, i, cfg.seed, &cfg.shape, tracer.as_deref_mut()))
        .collect();
    let mut outs = Vec::with_capacity(cfg.trials);
    let mut digest = Digest::default();
    for i in 0..cfg.trials {
        let out = workloads::trial(
            w,
            i,
            cfg.seed,
            &cfg.shape,
            cfg.sabotage,
            twin,
            tracer.as_deref_mut(),
        );
        eprintln!(
            "{} trial {i}: run {:.3}s sim {:.1}s ops {}/{} failed, restores {}",
            w.name(),
            out.run_s(),
            out.sim_s,
            out.failed,
            out.attempted,
            out.restores
        );
        digest.u64(out.digest.0);
        outs.push(out);
    }
    Pass {
        setup,
        outs,
        digest,
    }
}

impl TrialOut {
    pub fn run_s(&self) -> f64 {
        self.segs.iter().map(Duration::as_secs_f64).sum()
    }
}

/// Elementwise minimum over passes, in seconds. Contention from elsewhere
/// on the host only ever slows a pass down, and the passes repeat the same
/// deterministic work, so the fastest of them is the least disturbed
/// reading of each piece.
fn fastest(per_pass: &[&[Duration]]) -> Vec<f64> {
    let n = per_pass.iter().map(|x| x.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            per_pass
                .iter()
                .map(|x| x[k].as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Run the benchmark as `cfg` says. Untraced runs report the end-to-end
/// metrics; traced runs make one untraced and one traced pass, report the
/// per-layer metrics and the tracing overhead, and write their spans to
/// `spans_out` if given.
pub fn run(cfg: &RunConfig, spans_out: Option<&std::path::Path>) -> RunReport {
    let passes: Vec<Pass> = (0..if cfg.traced { 1 } else { cfg.passes })
        .map(|_| run_pass(cfg, false, None))
        .collect();
    let first = &passes[0];
    // Deterministic trials cut into the same segments in every pass.
    let same_work = passes.iter().all(|p| {
        p.digest == first.digest
            && p.outs
                .iter()
                .zip(&first.outs)
                .all(|(a, b)| a.segs.len() == b.segs.len())
    });
    let trial_s: Vec<f64> = (0..cfg.trials)
        .map(|t| {
            let segs: Vec<&[Duration]> = passes.iter().map(|p| &p.outs[t].segs[..]).collect();
            fastest(&segs).iter().sum()
        })
        .collect();
    let setup: Vec<&[Duration]> = passes.iter().map(|p| &p.setup[..]).collect();
    let setup_s: f64 = fastest(&setup).iter().sum();
    let run_s: f64 = trial_s.iter().sum();
    // Geometric mean of the trials' rates: a fuzz trial that idles through
    // a 3,700 s watchdog wait would dominate a ratio of sums.
    let log_rate = trial_s
        .iter()
        .zip(&first.outs)
        .map(|(s, o)| (o.sim_s / s).ln())
        .sum::<f64>()
        / cfg.trials as f64;
    let all = || passes.iter().flat_map(|p| &p.outs);
    let mut report = RunReport {
        attempted: all().map(|o| o.attempted).sum(),
        failed: all().map(|o| o.failed).sum(),
        digest: first.digest,
        consistent: same_work,
        metrics: Vec::new(),
        round_ms: sorted(all().flat_map(|o| o.round_ms.iter().copied()).collect()),
        notes: Vec::new(),
    };
    if !same_work {
        report
            .notes
            .push("passes differ in digest or segment count: the run is not deterministic".into());
    }
    if !cfg.traced {
        let m = &mut report.metrics;
        metric(m, "run_s", run_s, "s");
        metric(m, "setup_s", setup_s, "s");
        metric(m, "sim_s_per_s", log_rate.exp(), "sim_s/s");
        metric(m, "peak_rss_mb", peak_rss_mb(), "MB");
        return report;
    }

    // The traced pass's untraced twin: the same pass for the simulation
    // workloads, the twin path for fuzz_oracles.
    let fuzz = cfg.workload == Workload::FuzzOracles;
    let twin = if fuzz {
        run_pass(cfg, true, None)
    } else {
        passes.into_iter().next().expect("one pass")
    };
    let mut tracer = Tracer::default();
    let traced = run_pass(cfg, true, Some(&mut tracer));
    for (label, p) in [("untraced twin", &twin), ("traced", &traced)] {
        if p.digest != report.digest {
            report.consistent = false;
            report.notes.push(format!(
                "{label} digest {:#018x} differs from {:#018x}",
                p.digest.0, report.digest.0
            ));
        }
    }
    let pass_s = |p: &Pass| p.outs.iter().map(TrialOut::run_s).sum::<f64>();
    if let Some(path) = spans_out {
        match tracer.write_spans(path) {
            Ok(()) => report.notes.push(format!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            )),
            Err(e) => report
                .notes
                .push(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    report.notes.extend(phase_table(&tracer));
    report.metrics = per_layer(&traced, &tracer, pass_s(&twin), pass_s(&traced));
    report
}

fn per_layer(t: &Pass, tr: &Tracer, run_s: f64, traced_run_s: f64) -> Vec<Metric> {
    let mut m = Vec::new();
    let span_ms = |name: &str| {
        sorted(
            tr.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
                .collect(),
        )
    };
    // Host time of the calls into each layer (medians).
    metric(
        &mut m,
        "cluster.build_ms",
        quantile(&span_ms("cluster.build"), 0.5),
        "ms",
    );
    metric(
        &mut m,
        "core.provision_ms",
        quantile(&span_ms("core.provision"), 0.5),
        "ms",
    );
    metric(
        &mut m,
        "mpi.launch_ms",
        quantile(&span_ms("mpi.launch"), 0.5),
        "ms",
    );
    let round_ms = span_ms("core.round");
    metric(&mut m, "core.round_p50_ms", quantile(&round_ms, 0.5), "ms");
    metric(&mut m, "core.round_p90_ms", quantile(&round_ms, 0.9), "ms");
    let round_handlers: u64 = tr
        .spans
        .iter()
        .filter(|s| s.name == "core.round")
        .map(|s| s.work.executed)
        .sum();
    metric(
        &mut m,
        "core.round_handlers",
        round_handlers as f64 / round_ms.len().max(1) as f64,
        "count",
    );
    let steady = &tr.phases[Phase::Steady as usize];
    let steady_ms_per_sim_s = if steady.sim_s > 0.0 {
        steady.host.as_secs_f64() * 1e3 / steady.sim_s
    } else {
        0.0
    };
    metric(
        &mut m,
        "steady.ms_per_sim_s",
        steady_ms_per_sim_s,
        "ms/sim_s",
    );

    // Engine work by phase (exact counts).
    let (mut handlers, mut noops) = (0u64, 0u64);
    for p in Phase::ALL {
        let x = &tr.phases[p as usize];
        handlers += x.handlers;
        noops += x.noop_pops;
        let n = p.name();
        metric(
            &mut m,
            format!("sim-core.handlers.{n}"),
            x.handlers as f64,
            "count",
        );
        metric(
            &mut m,
            format!("sim-core.noop_pops.{n}"),
            x.noop_pops as f64,
            "count",
        );
        metric(
            &mut m,
            format!("sim-core.scheduled.{n}"),
            x.scheduled as f64,
            "count",
        );
        metric(
            &mut m,
            format!("sim-core.peak_queue_depth.{n}"),
            x.peak_queue_depth as f64,
            "count",
        );
        metric(
            &mut m,
            format!("sim-core.ns_per_handler.{n}"),
            x.ns_per_handler(),
            "ns",
        );
    }
    let useful = if handlers + noops == 0 {
        0.0
    } else {
        handlers as f64 / (handlers + noops) as f64
    };
    metric(&mut m, "sim-core.useful_pop_ratio", useful, "ratio");

    // Model-layer counters from the metrics registry, summed over trials.
    for &k in trace::COUNTERS {
        let v = tr.counters.get(k).copied().unwrap_or(0);
        metric(&mut m, k, v as f64, "count");
    }
    metric(&mut m, "vmm.snapshot_bytes", tr.snapshot_bytes, "B");
    let (dirty_sum, dirty_n) = tr.dirty_pages;
    metric(
        &mut m,
        "vmm.dirty_pages",
        dirty_sum / dirty_n.max(1) as f64,
        "pages",
    );
    metric(
        &mut m,
        "core.restores",
        t.outs.iter().map(|o| o.restores).sum::<u64>() as f64,
        "count",
    );

    // Simulated quantities: identical under any simulator-only change.
    let skews = sorted(tr.skews_ns.iter().map(|&s| s as f64).collect());
    metric(&mut m, "lsc.pause_skew_ns.p50", quantile(&skews, 0.5), "ns");
    metric(
        &mut m,
        "lsc.pause_skew_ns.max",
        skews.last().copied().unwrap_or(0.0),
        "ns",
    );
    let (hists, margin_min) = match &tr.attrib {
        Some(a) => {
            let h = a.phase_histograms();
            let mut margins = a.margin_hist();
            let min = if margins.is_empty() {
                0.0
            } else {
                margins.min()
            };
            (h, min)
        }
        None => (Default::default(), 0.0),
    };
    for phase in [
        "lsc.dispatch",
        "lsc.ack_collect",
        "vmm.save",
        "storage.write",
        "lsc.resume",
    ] {
        let p50 = hists.get(phase).map_or(0.0, |h| h.clone().median());
        metric(&mut m, format!("{phase}.p50_sim_s"), p50, "sim_s");
    }
    metric(&mut m, "lsc.margin_min_sim_s", margin_min, "sim_s");

    // What tracing cost: the same trials, untraced then traced.
    metric(&mut m, "trace.run_s", traced_run_s, "s");
    metric(
        &mut m,
        "trace.overhead_pct",
        (traced_run_s / run_s - 1.0) * 100.0,
        "%",
    );
    m
}

/// The phase table: where handlers, tombstone pops and host time go.
fn phase_table(tr: &Tracer) -> Vec<String> {
    let mut lines = vec![
        "| phase | handlers | tombstone pops | scheduled | peak queue | host s | ns/handler | sim s |".into(),
        "|---|---:|---:|---:|---:|---:|---:|---:|".into(),
    ];
    for p in Phase::ALL {
        let x = &tr.phases[p as usize];
        lines.push(format!(
            "| {} | {} | {} | {} | {} | {:.3} | {:.0} | {:.1} |",
            p.name(),
            x.handlers,
            x.noop_pops,
            x.scheduled,
            x.peak_queue_depth,
            x.host.as_secs_f64(),
            x.ns_per_handler(),
            x.sim_s
        ));
    }
    lines
}

//! E13 — chaos drill: the failure-aware checkpoint pipeline under a
//! compound fault schedule.
//!
//! A 6-vnode ring job (~270 s of work) runs while a seeded [`FaultPlan`]
//! throws everything at once, scaled by a severity knob *x*:
//!
//! * steady faults for the whole run — storage transfers fail (p = 0.2·x),
//!   control messages vanish (p = 0.1·x), saved images rot silently
//!   (p = 0.3·x);
//! * a 2-minute NTP outage with a +6·x s clock step on one member mid-way
//!   through it;
//! * a storage brownout (bandwidth × (1 − 0.7·x)) across one checkpoint;
//! * two 8·x s control partitions of individual members;
//! * and, at every severity including x = 0, one VC host crashes outright
//!   mid-run.
//!
//! Two arms face the *same* fault schedule (same plan seed per trial):
//!
//! * **baseline** — NTP-scheduled LSC on a 45 s cadence, no storage
//!   retries, no checksum verification, restores blindly from the newest
//!   generation;
//! * **hardened** — the full pipeline: verify-on-save with re-save,
//!   bounded storage retry, abort-and-re-arm coordination, degradation to
//!   the clock-free protocol while NTP sync is stale, and restore from the
//!   newest *intact* generation.
//!
//! The claim: at full severity the baseline loses every job while the
//! hardened pipeline still finishes ≥ 99% of them — and the whole campaign
//! replays bit-identically from its seed.

use crate::{attach_sinks, write_export, Opts, SinkReport};
use dvc_bench::scen::{ring_verdict, settle, TrialWorld};
use dvc_bench::table::{pct, secs, Table};
use dvc_cluster::failure;
use dvc_cluster::faults::install_fault_plan;
use dvc_cluster::node::NodeId;
use dvc_core::reliability::{self, Policy};
use dvc_core::vc;
use dvc_mpi::harness;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::{
    CheckCounts, FaultPlan, JsonlSink, Metrics, MetricsSnapshot, SimDuration, SimTime,
};
use dvc_workloads::ring;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Baseline,
    Hardened,
}

struct TrialOut {
    success: bool,
    completion_s: f64,
    restores: u32,
    degraded: u32,
    injected: u64,
    metrics: MetricsSnapshot,
    sinks: SinkReport,
}

const CKPT_EVERY: u64 = 45;

/// The compound fault schedule, anchored at `t0` (job steady-state) and
/// scaled by severity `x ∈ [0, 1]`.
fn plan_for(seed: u64, x: f64, t0: SimTime) -> FaultPlan {
    let rel = |s: f64| t0 + SimDuration::from_secs_f64(s);
    let mut p = FaultPlan::new(seed);
    p.steady("storage.fail", 0.2 * x);
    p.steady("control.drop", 0.1 * x);
    p.steady("image.corrupt", 0.3 * x);
    // The NTP server goes dark for two minutes; one member's clock steps
    // mid-outage, so local-clock fire instants become poison.
    p.window("ntp.outage", None, rel(30.0), rel(150.0), 1.0);
    p.window("clock.step", Some(2), rel(70.0), rel(70.0), 6.0 * x);
    // Shared storage browns out across one checkpoint window.
    p.window(
        "storage.brownout",
        None,
        rel(40.0),
        rel(70.0),
        1.0 - 0.7 * x,
    );
    // Two members drop off the control network, one during the post-crash
    // recovery and one late in the run.
    p.window(
        "control.partition",
        Some(4),
        rel(95.0),
        rel(95.0 + 8.0 * x),
        1.0,
    );
    p.window(
        "control.partition",
        Some(5),
        rel(170.0),
        rel(170.0 + 8.0 * x),
        1.0,
    );
    p
}

fn one(seed: u64, x: f64, arm: Arm, check: bool, export: bool) -> TrialOut {
    let laps: u64 = 1300; // ~270 s of work at ~210 ms/lap
    let tw = TrialWorld {
        nodes: 6,
        spares: 8,
        seed,
        mem_mb: 64,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    sim.metrics = Metrics::enabled();
    let sinks = attach_sinks(&mut sim, check, export);
    if arm == Arm::Baseline {
        // The un-hardened pipeline: a failed storage transfer is final.
        sim.world.cfg.storage_retry.max_attempts = 1;
    }
    let cfg = ring::RingConfig {
        payload_len: 1024,
        iters: laps,
        compute_ns: 200_000_000,
    };
    let vms = vc::vc(&sim, vc_id).unwrap().vms.clone();
    let job = harness::launch_on_vms(&mut sim, &vms, move |r, s| ring::program(cfg, r, s));
    settle(&mut sim, SimDuration::from_secs(20));
    let t_start = sim.now();

    if x > 0.0 {
        install_fault_plan(&mut sim, plan_for(seed ^ 0xFA17, x, t_start));
    }
    let every = SimDuration::from_secs(CKPT_EVERY);
    let policy = match arm {
        Arm::Baseline => Policy::periodic(every),
        Arm::Hardened => Policy::hardened(every),
    };
    reliability::manage(&mut sim, vc_id, policy);

    // The hard kill, present at every severity: one VC host dies outright.
    let crash_at = t_start + SimDuration::from_secs(130);
    sim.schedule_at(crash_at, |sim| failure::crash_node(sim, NodeId(3)));

    let horizon = t_start + SimDuration::from_secs_f64(6.0 * 300.0);
    let done = sim.run_until(horizon, |sim| harness::all_done(sim, &job));
    let v = ring_verdict(&sim, &job);
    let rel = reliability::stats(&mut sim, vc_id);
    // Fold the engine's own queue-health counters into the rollup.
    let st = sim.stats();
    sim.metrics.record_sim_stats(&st);
    TrialOut {
        success: done && v.alive && v.data_ok,
        completion_s: (sim.now() - t_start).as_secs_f64(),
        restores: rel.restores,
        degraded: rel.degraded_checkpoints,
        injected: sim.world.faults.injected_total(),
        metrics: sim.metrics.snapshot(),
        sinks: sinks(),
    }
}

pub fn run(opts: Opts) {
    println!("## E13 — chaos drill: failure-aware checkpointing under compound faults\n");
    let trials = opts.trials(8);
    let mut rollup = MetricsSnapshot::default();
    let mut exported: Option<JsonlSink> = None;
    let mut exported_baseline: Option<JsonlSink> = None;
    let mut baseline_viol: Vec<String> = Vec::new();
    let mut hardened_viol: Vec<String> = Vec::new();
    let mut counts = CheckCounts::default();
    let mut t = Table::new(&[
        "severity",
        "policy",
        "job success",
        "mean completion (successes)",
        "mean restores",
        "degraded ckpts",
        "faults injected",
    ]);
    for &x in &[0.0f64, 0.25, 0.5, 1.0] {
        for (arm, name) in [
            (Arm::Baseline, "baseline LSC"),
            (Arm::Hardened, "hardened LSC"),
        ] {
            // Same seed base per severity: both arms face identical fault
            // schedules, so the gap is the pipeline, not luck.
            // Export full event streams at full severity from both arms:
            // the hardened trial is the richest stream the drill produces,
            // the baseline one contains genuinely *failed* rounds (negative
            // margin) for `dvc-trace waterfall` to dissect.
            let export_here = x == 1.0;
            let mut rs = run_trials(
                trials,
                opts.seed ^ 0xE13 ^ (x * 100.0) as u64,
                opts.threads,
                |i, seed| one(seed, x, arm, opts.check_invariants, export_here && i == 0),
            );
            if let Some(sink) = rs.iter_mut().find_map(|r| r.sinks.jsonl.take()) {
                match arm {
                    Arm::Baseline => exported_baseline = Some(sink),
                    Arm::Hardened => exported = Some(sink),
                }
            }
            let succ = rs.iter().filter(|r| r.success).count();
            let mean_t = rs
                .iter()
                .filter(|r| r.success)
                .map(|r| r.completion_s)
                .sum::<f64>()
                / succ.max(1) as f64;
            let mean = |f: &dyn Fn(&TrialOut) -> f64| rs.iter().map(f).sum::<f64>() / trials as f64;
            for r in &rs {
                rollup.merge(&r.metrics);
                if let Some(c) = r.sinks.checked {
                    counts += c;
                }
                let sink = match arm {
                    Arm::Baseline => &mut baseline_viol,
                    Arm::Hardened => &mut hardened_viol,
                };
                sink.extend(r.sinks.violations.iter().map(|v| format!("x={x:.2}: {v}")));
            }
            t.row(&[
                format!("{x:.2}"),
                name.into(),
                pct(succ as f64 / trials as f64),
                if succ == 0 { "-".into() } else { secs(mean_t) },
                format!("{:.1}", mean(&|r| r.restores as f64)),
                format!("{:.1}", mean(&|r| r.degraded as f64)),
                format!("{:.0}", mean(&|r| r.injected as f64)),
            ]);
        }
    }
    println!("{}", t.render());
    if !rollup.is_empty() {
        println!("\nmetrics rollup (both arms, all severities):\n");
        println!("```");
        print!("{rollup}");
        println!("```");
    }
    for (sink, path, label) in [
        (&exported, "EVENTS_E13.jsonl", "hardened arm"),
        (
            &exported_baseline,
            "EVENTS_E13_BASELINE.jsonl",
            "baseline arm",
        ),
    ] {
        if let Some(sink) = sink {
            write_export("e13", path, sink, &format!("{label}, x=1.00, trial 0"));
        }
    }
    if opts.check_invariants {
        println!(
            "\ninvariants ({} save windows, {} stored sets, {} job starts checked):",
            counts.windows, counts.sets, counts.job_starts
        );
        println!("  hardened arm: {} violation(s)", hardened_viol.len());
        for v in hardened_viol.iter().take(10) {
            println!("    - {v}");
        }
        if baseline_viol.is_empty() {
            println!("  baseline arm: 0 violation(s)");
        } else {
            println!(
                "  baseline arm: {} violation(s) — expected detections: the un-hardened \
                 coordinator keeps local-clock scheduling through the seeded clock step, \
                 so a stored window can legitimately blow the silence budget",
                baseline_viol.len()
            );
            for v in baseline_viol.iter().take(5) {
                println!("    - {v}");
            }
        }
        assert!(
            hardened_viol.is_empty(),
            "the hardened pipeline must never store a set that violates the window invariant"
        );
    }
    println!();
    println!(
        "Both arms of each severity face identical seeded fault schedules. \
         The baseline dies to whichever fault lands first — an unretried \
         save failure leaves members paused past the guest TCP budget, a \
         stepped clock wrecks the scheduled pause skew, a corrupt image \
         restores as garbage. The hardened pipeline verifies and re-saves \
         images, retries storage, aborts and re-arms around partitions, \
         drops to clock-free coordination while NTP sync is stale, and \
         restores from the newest generation that passes its checksums.\n"
    );
}

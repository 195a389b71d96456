//! E3 — §3.2: the NTP-scheduled prototype. "In more than 2000 tests
//! involving 26 virtual machines on 26 different nodes, no failures to
//! either save or restore all virtual machines occurred."
//!
//! We run checkpoint/restore *cycles* on 26-VM virtual clusters running the
//! communication-heavy ring workload (PTRANS's role: continuous cross-rank
//! traffic with payload verification), across many independent worlds with
//! varying checkpoint gaps and VM memory footprints, until >2000 cycles
//! have been executed. Every cycle must save all 26 VMs, resume them, and
//! leave the application alive with verified data.
//!
//! Each trial also runs with the typed-event [`Metrics`] registry on; the
//! merged rollup prints under the tables, the first trial's full event
//! stream is exported to `EVENTS_E3.jsonl`, and `--check-invariants`
//! attaches a [`dvc_sim_core::InvariantChecker`] to every trial (this
//! campaign injects no faults, so it must come back clean).

use crate::{attach_sinks, write_export, Opts, SinkReport};
use dvc_bench::scen::{ring_load, ring_verdict, run_cycles, settle, TrialWorld};
use dvc_bench::table::{secs, Table};
use dvc_core::lsc::LscMethod;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::{CheckCounts, Metrics, MetricsSnapshot, SimDuration};

struct TrialOut {
    cycles: usize,
    cycle_fails: usize,
    app_ok: bool,
    skew_max: f64,
    save_mean: f64,
    mem_mb: u32,
    metrics: MetricsSnapshot,
    sinks: SinkReport,
}

pub fn run(opts: Opts) {
    println!("## E3 — NTP-scheduled LSC: the >2000-test campaign (paper §3.2)\n");
    // 105 worlds × 20 cycles = 2100 checkpoint/restore tests at scale 1.
    let worlds = opts.trials(105);
    let cycles_per_world = 20u32;

    let results = run_trials(worlds, opts.seed ^ 0xE3, opts.threads, |i, seed| {
        // Vary the paper's knobs across trials: gap between checkpoints and
        // VM image size ("multiple problem sizes … varying times between
        // checkpoints").
        let gap_s = [10.0, 20.0, 40.0][i % 3];
        let mem_mb = [64u32, 128, 256][(i / 3) % 3];
        let tw = TrialWorld {
            nodes: 26,
            seed,
            mem_mb,
            ..TrialWorld::default()
        };
        let (mut sim, vc_id) = tw.build();
        sim.metrics = Metrics::enabled();
        let sinks = attach_sinks(&mut sim, opts.check_invariants, i == 0);
        let job = ring_load(&mut sim, vc_id, u64::MAX / 2);
        settle(&mut sim, SimDuration::from_secs(40));
        let outs = run_cycles(
            &mut sim,
            vc_id,
            LscMethod::ntp_default(),
            cycles_per_world,
            SimDuration::from_secs_f64(gap_s),
        );
        settle(&mut sim, SimDuration::from_secs(60));
        let v = ring_verdict(&sim, &job);
        let cycle_fails =
            outs.iter().filter(|o| !o.success).count() + (cycles_per_world as usize - outs.len());
        // Fold the engine's own queue-health counters into the rollup.
        let st = sim.stats();
        sim.metrics.record_sim_stats(&st);
        let skew_max = outs
            .iter()
            .map(|o| o.pause_skew.as_secs_f64())
            .fold(0.0f64, f64::max);
        let save_mean = outs
            .iter()
            .map(|o| o.save_duration.as_secs_f64())
            .sum::<f64>()
            / outs.len().max(1) as f64;
        TrialOut {
            cycles: outs.len(),
            cycle_fails,
            app_ok: v.alive && v.data_ok,
            skew_max,
            save_mean,
            mem_mb,
            metrics: sim.metrics.snapshot(),
            sinks: sinks(),
        }
    });

    let total_cycles: usize = results.iter().map(|r| r.cycles).sum();
    let failed_cycles: usize = results.iter().map(|r| r.cycle_fails).sum();
    let bad_apps = results.iter().filter(|r| !r.app_ok).count();
    let worst_skew = results.iter().map(|r| r.skew_max).fold(0.0f64, f64::max);

    let mut t = Table::new(&["quantity", "value", "paper"]);
    t.row(&[
        "checkpoint/restore tests".into(),
        total_cycles.to_string(),
        ">2000".into(),
    ]);
    t.row(&[
        "VMs per test".into(),
        "26 on 26 nodes".into(),
        "26 on 26 nodes".into(),
    ]);
    t.row(&[
        "save/restore failures".into(),
        failed_cycles.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "application failures / data corruption".into(),
        bad_apps.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "worst pause skew".into(),
        secs(worst_skew),
        "few ms (NTP residual)".into(),
    ]);
    println!("{}", t.render());

    // Per-memory-size save cost summary (leads into E9).
    let mut t2 = Table::new(&["VM memory", "mean save duration (26 VMs, shared storage)"]);
    for mem in [64u32, 128, 256] {
        let xs: Vec<f64> = results
            .iter()
            .filter(|r| r.mem_mb == mem && r.cycles > 0)
            .map(|r| r.save_mean)
            .collect();
        if xs.is_empty() {
            continue;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        t2.row(&[format!("{mem} MB"), secs(mean)]);
    }
    println!("{}", t2.render());

    // Typed-event metrics rollup across the whole campaign.
    let mut rollup = MetricsSnapshot::default();
    for r in &results {
        rollup.merge(&r.metrics);
    }
    if !rollup.is_empty() {
        println!("metrics rollup ({} trials):\n", results.len());
        println!("```");
        print!("{rollup}");
        println!("```");
    }
    if let Some(sink) = results.iter().find_map(|r| r.sinks.jsonl.as_ref()) {
        write_export("e3", "EVENTS_E3.jsonl", sink, "trial 0");
    }
    if opts.check_invariants {
        let mut counts = CheckCounts::default();
        let mut violations: Vec<&String> = Vec::new();
        for r in &results {
            if let Some(c) = r.sinks.checked {
                counts += c;
            }
            violations.extend(&r.sinks.violations);
        }
        println!(
            "\ninvariants: {} violation(s) across {} save windows, {} stored sets, \
             {} job starts",
            violations.len(),
            counts.windows,
            counts.sets,
            counts.job_starts
        );
        for v in violations.iter().take(10) {
            println!("  - {v}");
        }
        assert!(
            violations.is_empty(),
            "E3 injects no faults; the invariant stream must be clean"
        );
        assert!(
            counts.windows > 0 && counts.sets > 0,
            "E3 invariant checkers saw no checkpoint traffic — wiring broken?"
        );
    }
    println!();
}

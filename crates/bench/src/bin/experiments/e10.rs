//! E10 — the title claim: *increasing reliability*. "If a single physical
//! node dies, we can restart a checkpoint of the entire virtual cluster on
//! a different set of physical nodes."
//!
//! A fixed-size ring job (16 vnodes, 1000 laps, ~106 s from launch) runs
//! while its nodes crash with exponential MTBF (and repair). Completion is
//! timed from 20 s after launch, so a clean run reads ~86 s. Three policies:
//!
//! * **none** — no checkpoints: the first node loss kills the job;
//! * **LSC @ fixed 60 s** — periodic checkpoints, automatic restore onto
//!   healthy nodes;
//! * **LSC @ Young** — the same, with Young's √(2·C·MTBF) cadence driven by
//!   the measured checkpoint cost.
//!
//! We report job success probability within a 6× deadline, mean completion
//! time of successful runs, and restores performed.

use crate::Opts;
use dvc_bench::scen::{ring_verdict, settle, TrialWorld};
use dvc_bench::table::{pct, secs, Table};
use dvc_cluster::failure::{arm_failures, FailureProcess};
use dvc_core::lsc::LscMethod;
use dvc_core::reliability::{self, Cadence, Policy};
use dvc_core::vc;
use dvc_mpi::harness;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::SimDuration;
use dvc_workloads::ring;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    None,
    Fixed,
    Young,
}

struct TrialOut {
    success: bool,
    completion_s: f64,
    restores: u32,
}

fn one(seed: u64, mtbf_s: f64, arm: Arm) -> TrialOut {
    let laps: u64 = 1000; // ~106 ms/lap: 100 ms of compute plus the hop
    let tw = TrialWorld {
        nodes: 16,
        spares: 16,
        seed,
        mem_mb: 64,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let cfg = ring::RingConfig {
        payload_len: 4096,
        iters: laps,
        compute_ns: 100_000_000,
    };
    let vms = vc::vc(&sim, vc_id).unwrap().vms.clone();
    let job = harness::launch_on_vms(&mut sim, &vms, move |r, s| ring::program(cfg, r, s));
    settle(&mut sim, SimDuration::from_secs(20));
    let t_start = sim.now();

    match arm {
        Arm::None => {}
        Arm::Fixed => reliability::manage(
            &mut sim,
            vc_id,
            Policy {
                cadence: Cadence::Fixed(SimDuration::from_secs(60)),
                method: LscMethod::ntp_default(),
                max_restores: 32,
                ..Policy::periodic(SimDuration::from_secs(60))
            },
        ),
        Arm::Young => reliability::manage(
            &mut sim,
            vc_id,
            Policy {
                cadence: Cadence::Young {
                    mtbf: SimDuration::from_secs_f64(mtbf_s / 16.0), // VC-level MTBF
                    initial: SimDuration::from_secs(60),
                },
                method: LscMethod::ntp_default(),
                max_restores: 32,
                ..Policy::periodic(SimDuration::from_secs(60))
            },
        ),
    }

    // Failures on all non-head nodes, for the whole horizon.
    let horizon = t_start + SimDuration::from_secs_f64(6.0 * 220.0);
    let victims: Vec<_> = sim
        .world
        .node_ids()
        .into_iter()
        .filter(|n| n.0 != 0)
        .collect();
    arm_failures(
        &mut sim,
        &victims,
        FailureProcess {
            mtbf: SimDuration::from_secs_f64(mtbf_s),
            repair_time: SimDuration::from_secs(90),
            horizon,
        },
    );

    let done = sim.run_until(horizon, |sim| harness::all_done(sim, &job));
    let v = ring_verdict(&sim, &job);
    let restores = reliability::stats(&mut sim, vc_id).restores;
    TrialOut {
        success: done && v.alive && v.data_ok,
        completion_s: (sim.now() - t_start).as_secs_f64(),
        restores,
    }
}

pub fn run(opts: Opts) {
    println!("## E10 — reliability gain: job survival under node failures (title claim)\n");
    let trials = opts.trials(8);
    let mut t = Table::new(&[
        "per-node MTBF",
        "policy",
        "job success",
        "mean completion (successes)",
        "mean restores",
    ]);
    for &mtbf in &[400.0f64, 800.0, 1600.0, 3200.0] {
        for (arm, name) in [
            (Arm::None, "no checkpointing"),
            (Arm::Fixed, "LSC every 60 s"),
            (Arm::Young, "LSC @ Young interval"),
        ] {
            // Same seed base per MTBF: all three arms face the *same*
            // failure traces, so arm differences are policy, not luck.
            let rs = run_trials(
                trials,
                opts.seed ^ 0xE10 ^ mtbf as u64,
                opts.threads,
                |_i, seed| {
                    let o = one(seed, mtbf, arm);
                    (o.success, o.completion_s, o.restores)
                },
            );
            let succ = rs.iter().filter(|r| r.0).count();
            let mean_t = rs.iter().filter(|r| r.0).map(|r| r.1).sum::<f64>() / succ.max(1) as f64;
            let mean_restores = rs.iter().map(|r| r.2 as f64).sum::<f64>() / trials as f64;
            t.row(&[
                format!("{mtbf:.0} s"),
                name.into(),
                pct(succ as f64 / trials as f64),
                if succ == 0 { "-".into() } else { secs(mean_t) },
                format!("{mean_restores:.1}"),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "Without checkpoints, survival is the probability that no VC node \
         fails for the job's whole runtime — hopeless at low MTBF. With \
         LSC + automatic restore, jobs ride through repeated node losses \
         at the cost of replayed work per failure.\n"
    );
}

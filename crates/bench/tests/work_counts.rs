//! Exact engine work for two fixed checkpoint scenarios: one LSC cycle on
//! an 8-node ring and a two-trial campaign of the same shape.
//!
//! `Sim::stats()` counts are deterministic, so they are pinned exactly,
//! debug and release alike. A change that makes the engine schedule,
//! dispatch or discard different work moves one of these numbers even
//! when every simulated outcome stays the same; the host-time side of the
//! same question is `perfbench/`.

use dvc_bench::scen::{ring_load, run_cycles, settle, TrialWorld};
use dvc_core::lsc::LscMethod;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::{SimDuration, SimStats};

/// Warm a ring job up, run one naive LSC cycle, let the transport settle.
/// Returns whether the cycle succeeded and the engine counters.
fn one_cycle(tw: TrialWorld) -> (bool, SimStats) {
    let (mut sim, vc_id) = tw.build();
    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(30));
    let outs = run_cycles(
        &mut sim,
        vc_id,
        LscMethod::Naive,
        1,
        SimDuration::from_secs(1),
    );
    settle(&mut sim, SimDuration::from_secs(20));
    (outs.first().is_some_and(|o| o.success), sim.stats())
}

#[test]
fn lsc_cycle_work_counts() {
    let tw = TrialWorld {
        nodes: 8,
        spares: 1,
        mem_mb: 64,
        seed: 7,
        ..TrialWorld::default()
    };
    let want = SimStats {
        scheduled: 89748,
        executed: 67098,
        noop_pops: 22630,
        peak_queue_depth: 380,
    };
    assert_eq!(one_cycle(tw), (true, want));
}

#[test]
fn mini_campaign_work_counts() {
    let trials = run_trials(2, 0xD5C0_0001, 2, |_, seed| {
        one_cycle(TrialWorld {
            nodes: 8,
            seed,
            ..TrialWorld::default()
        })
    });
    let want = [
        SimStats {
            scheduled: 122373,
            executed: 93694,
            noop_pops: 28593,
            peak_queue_depth: 381,
        },
        SimStats {
            scheduled: 123365,
            executed: 94448,
            noop_pops: 28831,
            peak_queue_depth: 381,
        },
    ];
    assert_eq!(trials, want.map(|s| (true, s)));
}

//! Same seed → same campaign output, whatever the thread count.
//!
//! This is the regression fence for the zero-copy/cancellation work on the
//! hot path: an E2-style checkpoint campaign (full cluster world, ring job,
//! one coordinated checkpoint cycle per trial) must produce byte-identical
//! outcome tables run single-threaded or fanned out across 8 workers, for
//! multiple master seeds. Any hidden nondeterminism — iteration-order leaks,
//! time-dependent buffering, cross-trial state — shows up as a digest
//! mismatch here long before it corrupts a paper table.

use dvc_bench::scen::{one_cycle_trial, TrialWorld};
use dvc_core::lsc::LscMethod;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::{fnv1a, SimDuration, FNV_BASIS};

const TRIALS: usize = 6;

/// One campaign: `TRIALS` independent single-cycle trials, rendered to the
/// exact per-trial lines an experiment table would be built from.
fn campaign_lines(master_seed: u64, threads: usize) -> Vec<String> {
    let results = run_trials(TRIALS, master_seed, threads, |i, seed| {
        let tw = TrialWorld {
            nodes: 6,
            seed,
            ..TrialWorld::default()
        };
        let method = LscMethod::Ntp {
            lead: SimDuration::from_secs(2),
        };
        let (ok, out) = one_cycle_trial(tw, method);
        match out {
            Some(o) => format!(
                "trial={i} ok={ok} success={} set={:?} attempts={} \
                 pause_skew={:?} resume_skew={:?} save={:?} total={:?}",
                o.success,
                o.set_id,
                o.attempts,
                o.pause_skew,
                o.resume_skew,
                o.save_duration,
                o.total_duration
            ),
            None => format!("trial={i} ok={ok} no-outcome"),
        }
    });
    results
}

fn fnv64(lines: &[String]) -> u64 {
    lines
        .iter()
        .fold(FNV_BASIS, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

#[test]
fn campaign_is_thread_count_and_rerun_invariant() {
    for master_seed in [20070926u64, 0xD5C0_BEEF] {
        let single = campaign_lines(master_seed, 1);
        let fanned = campaign_lines(master_seed, 8);
        assert_eq!(
            single, fanned,
            "seed {master_seed}: 1-thread and 8-thread campaigns diverged"
        );
        assert_eq!(
            fnv64(&single),
            fnv64(&fanned),
            "seed {master_seed}: digest mismatch"
        );
        // Trials must be genuinely distinct runs, not one result repeated.
        let mut uniq = single.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() > 1, "all trials identical — seeding is broken");
    }
    // And the two seeds must not collide with each other.
    assert_ne!(
        fnv64(&campaign_lines(20070926, 1)),
        fnv64(&campaign_lines(0xD5C0_BEEF, 1)),
        "different master seeds produced identical campaigns"
    );
}

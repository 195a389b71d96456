//! Property-based tests of the headline invariant: for arbitrary checkpoint
//! instants, cycle counts, cluster shapes and seeds, an NTP-coordinated
//! checkpoint of a running verified workload is transparent — the
//! application survives with intact data and the set is complete.

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{dvc, mpi, workloads};
use proptest::prelude::*;

fn cycle_trial(seed: u64, vnodes: usize, offset_ms: u64, cycles: u32) -> Result<(), String> {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: vnodes + 2,
        seed,
        ..Testbed::default()
    });
    let hosts: Vec<NodeId> = (1..=vnodes as u32).map(NodeId).collect();
    let mut spec = VcSpec::new("prop", vnodes, 32);
    spec.os_image_bytes = 16 << 20;
    spec.boot_time = SimDuration::from_secs(2);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);

    let cfg = workloads::ring::RingConfig {
        payload_len: 1024,
        iters: u64::MAX / 2, // effectively endless
        compute_ns: 120_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });

    // Warm up NTP + the job, then run the cycles back-to-back with an
    // arbitrary sub-second phase.
    let warm = sim.now() + SimDuration::from_secs(30) + SimDuration::from_millis(offset_ms);
    let _ = sim.run_until(warm, |_| false);
    for k in 0..cycles {
        let out = sim.await_reply(SimTime::from_secs_f64(1e6), |sim, reply| {
            dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), reply);
        });
        match out {
            None => return Err(format!("cycle {k}: sim drained before outcome")),
            Some(o) if !o.success => return Err(format!("cycle {k}: checkpoint failed")),
            Some(_) => {}
        }
    }
    // Let any transport fallout surface.
    let until = sim.now() + SimDuration::from_secs(60);
    let _ = sim.run_until(until, |_| false);

    if let Some((r, e)) = mpi::harness::first_failure(&sim, &job) {
        return Err(format!("rank {r} failed: {e}"));
    }
    for r in 0..job.size {
        let d = &mpi::harness::rank(&sim, &job, r).data;
        if d.u64("ring.errors") != 0 {
            return Err(format!("rank {r}: payload corruption"));
        }
        if d.u64("ring.iter") < 10 {
            return Err(format!("rank {r}: no progress ({})", d.u64("ring.iter")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is a full multi-VM simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn ntp_checkpoints_are_transparent_anywhere(
        seed in any::<u64>(),
        vnodes in 3usize..8,
        offset_ms in 0u64..1000,
        cycles in 1u32..4,
    ) {
        if let Err(e) = cycle_trial(seed, vnodes, offset_ms, cycles) {
            return Err(TestCaseError::fail(format!(
                "seed={seed} vnodes={vnodes} offset={offset_ms}ms cycles={cycles}: {e}"
            )));
        }
    }
}

//! Predicted-fault evacuation (paper §1: "avoidance of job failure when
//! hardware faults can be predicted").
//!
//! A node starts reporting a predicted fault (think: ECC error counters,
//! SMART warnings) 40 s before it actually dies. The reliability layer
//! reacts by checkpointing the virtual cluster and migrating it off the
//! sick node *before* the crash — the job never notices.
//!
//! Run: `cargo run --release --example fault_masking`

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{cluster, dvc, mpi, workloads};

fn main() {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: 9,
        ..Testbed::default()
    });

    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("evac-vc", 4, 64);
    spec.os_image_bytes = 64 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);

    let cfg = workloads::ring::RingConfig {
        payload_len: 4096,
        iters: 800,
        compute_ns: 150_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });
    println!("== 4-rank ring job on nodes 1-4");

    // Node 2 will warn at t≈60 s and die at t≈100 s.
    let warn_at = SimTime::from_secs_f64(60.0);
    let fail_at = SimTime::from_secs_f64(100.0);
    cluster::failure::arm_predicted_fault(
        &mut sim,
        NodeId(2),
        warn_at,
        fail_at,
        move |sim, sick| {
            println!(
                "== t={}: node {sick:?} reports a predicted fault — evacuating",
                sim.now()
            );
            // Checkpoint now, then migrate the whole VC onto healthy nodes.
            dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), move |sim, out| {
                assert!(out.success, "evacuation checkpoint failed: {}", out.detail);
                let set = out.set_id.unwrap();
                let targets: Vec<NodeId> = (5..=8).map(NodeId).collect();
                dvc::lsc::restore_vc(sim, set, targets, SimDuration::from_secs(5), |sim, o| {
                    println!(
                        "== t={}: VC migrated to nodes 5-8 (resume skew {})",
                        sim.now(),
                        o.resume_skew
                    );
                    assert!(o.success);
                })
                .expect("restore should start");
            });
        },
    );

    let done = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        mpi::harness::all_done(sim, &job)
    });
    assert!(
        done,
        "job stalled: {:?}",
        mpi::harness::first_failure(&sim, &job)
    );
    for r in 0..job.size {
        assert!(workloads::ring::ring_ok(
            &mpi::harness::rank(&sim, &job, r).data
        ));
    }
    let crashed = !sim.world.node(NodeId(2)).up;
    println!(
        "== node 2 crashed as predicted: {crashed}; job finished at t={} with data verified",
        sim.now()
    );
    println!("== the predicted fault was masked: zero lost work, zero application changes");
}

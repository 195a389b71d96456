//! A virtual cluster spanning two physical clusters (paper goal 3, Fig. 1).
//!
//! Two 8-node clusters are joined by a campus WAN link. Neither cluster has
//! 12 free nodes, but DVC provisions a 12-vnode virtual cluster across both
//! and runs a PTRANS job on it — the all-to-all traffic crosses the
//! inter-cluster trunk transparently. The job is then checkpointed with the
//! NTP coordinator, which still works because both clusters discipline
//! their clocks against the same head node.
//!
//! Run: `cargo run --release --example multi_cluster_span`

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{dvc, mpi, workloads};

fn main() {
    let mut sim = scenarios::testbed(Testbed {
        clusters: 2,
        nodes_per_cluster: 8,
        ..Testbed::default()
    });
    println!("== two 8-node clusters joined by a 1 ms campus trunk");

    // 6 nodes from each cluster → a 12-vnode spanning VC.
    let hosts: Vec<NodeId> = (1..=6).chain(8..14).map(NodeId).collect();
    let mut spec = VcSpec::new("span-vc", 12, 64);
    spec.os_image_bytes = 64 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);
    let mapping = dvc::vc::vc(&sim, vc).unwrap().mapping(&sim.world);
    println!("== VC up, mapping = {mapping:?}");
    assert_eq!(mapping, dvc::vc::Mapping::Spanning);

    // PTRANS: all-to-all across the trunk.
    let cfg = workloads::ptrans::PtransConfig::new(480, 11).with_reps(1500);
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ptrans::program(cfg, r, s)
    });
    println!("== PTRANS n=480 ×1500 reps launched across both clusters");

    // Checkpoint mid-run with the NTP coordinator.
    let at = sim.now() + SimDuration::from_secs(8);
    let horizon = SimTime::from_secs_f64(7200.0);
    let out = sim
        .await_reply(horizon, |sim, reply| {
            sim.schedule_at(at, move |sim| {
                dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), reply);
            });
        })
        .expect("checkpoint never happened");
    println!(
        "== spanning checkpoint: success={} pause_skew={} (WAN-synced clocks)",
        out.success, out.pause_skew
    );
    assert!(out.success);
    assert!(
        !mpi::harness::all_done(&sim, &job),
        "checkpoint never happened (job finished too early)"
    );

    let done = sim.run_until(horizon, |sim| mpi::harness::all_done(sim, &job));
    assert!(
        done,
        "PTRANS stalled: {:?}",
        mpi::harness::first_failure(&sim, &job)
    );

    for r in 0..job.size {
        let d = &mpi::harness::rank(&sim, &job, r).data;
        assert_eq!(d.f64("pt.worst_err"), 0.0, "rank {r} corrupted");
    }
    println!(
        "== PTRANS finished at t={} with every element verified — one job, \
         two clusters, one transparent checkpoint",
        sim.now()
    );

    // Cross-trunk traffic proof: ranks on cluster 0 exchanged bytes with
    // ranks on cluster 1.
    let s0 = mpi::harness::rank(&sim, &job, 0).stats.clone();
    println!(
        "== rank 0 moved {:.1} MB through the fabric ({} msgs)",
        s0.bytes_sent as f64 / 1e6,
        s0.msgs_sent
    );
}

//! Parallel live migration (§4 future work): the whole virtual cluster
//! moves to new nodes with **seconds of downtime instead of a full
//! checkpoint+restore**, while the application keeps running through the
//! pre-copy phase and survives the coordinated cutover.

use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::ClusterBuilder;
use dvc_core::migrate::{live_migrate_vc, LiveMigrateCfg};
use dvc_core::vc::{self, VcSpec};
use dvc_mpi::harness;
use dvc_sim_core::{Sim, SimDuration, SimTime};
use dvc_workloads::ring;

#[test]
fn live_migration_moves_vc_with_short_downtime() {
    let mut sim = Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(9)
            .tweak(|c| {
                c.guest_tcp.max_data_retries = 4;
                c.clock_max_offset_ms = 5.0;
            })
            .build(60_001),
        60_001,
    );
    ntp::start_ntp(&mut sim, SimDuration::from_secs(4));

    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("live", 4, 256); // 256 MB guests
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc_id = vc::provision_vc(&mut sim, spec, hosts, |_s, _i| {});
    while vc::vc(&sim, vc_id).map(|v| v.state) != Some(vc::VcState::Up) {
        assert!(sim.step());
    }

    let cfg = ring::RingConfig {
        payload_len: 1024,
        iters: 1200,
        compute_ns: 150_000_000,
    };
    let vms = vc::vc(&sim, vc_id).unwrap().vms.clone();
    let job = harness::launch_on_vms(&mut sim, &vms, move |r, s| ring::program(cfg, r, s));

    // Kick off the live migration mid-run, onto the spare nodes.
    let at = sim.now() + SimDuration::from_secs(40);
    let horizon = SimTime::from_secs_f64(3600.0);
    let out = sim
        .await_reply(horizon, |sim, reply| {
            sim.schedule_at(at, move |sim| {
                let targets: Vec<NodeId> = (5..=8).map(NodeId).collect();
                live_migrate_vc(sim, vc_id, targets, LiveMigrateCfg::default(), reply);
            });
        })
        .expect("outcome");
    assert!(!harness::all_done(&sim, &job), "landed after the job");
    let done = sim.run_until(horizon, |sim| harness::all_done(sim, &job));
    assert!(done, "job failed: {:?}", harness::first_failure(&sim, &job));
    assert!(out.success, "{}", out.detail);
    // The whole point: downtime ≪ moving 4×256 MB while stopped (≈10 s over
    // shared storage each way). With a 4 MB residue per VM it is sub-second
    // transfer + the coordinated cutover.
    assert!(
        out.downtime < SimDuration::from_secs(2),
        "downtime {} too long",
        out.downtime
    );
    assert!(
        out.live_phase > SimDuration::from_secs(2),
        "pre-copy should take noticeable live time ({})",
        out.live_phase
    );
    assert!(
        out.pause_skew < SimDuration::from_millis(20),
        "cutover must be NTP-coordinated ({})",
        out.pause_skew
    );
    // Placement moved; job data verified end-to-end.
    assert_eq!(
        vc::vc(&sim, vc_id).unwrap().hosts,
        (5..=8).map(NodeId).collect::<Vec<_>>()
    );
    for r in 0..job.size {
        assert!(ring::ring_ok(&harness::rank(&sim, &job, r).data));
    }
}

#[test]
fn live_migration_reports_nonconvergent_guests_via_long_downtime() {
    // A guest dirtying memory faster than the link can drain never
    // converges: the plan caps the rounds and the residue (and thus the
    // downtime) stays large — the signal to fall back to plain LSC.
    let plan = dvc_vmm::migrate::plan_precopy(dvc_vmm::migrate::PrecopyParams {
        mem_bytes: 256 << 20,
        dirty_bps: 150.0e6,
        link_bps: 110.0e6,
        stop_threshold_bytes: 4 << 20,
        max_rounds: 10,
    });
    assert!(plan.final_bytes > (32 << 20));
    assert!(plan.downtime > SimDuration::from_millis(300));
}

//! Cross-crate end-to-end tests against the facade's public API: the full
//! user stories a DVC adopter would script.

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{cluster, dvc, mpi, workloads};

/// The quickstart story, as a regression test: provision → run → checkpoint
/// → lose every host → migrate → finish verified.
#[test]
fn checkpoint_migrate_survive_story() {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: 9,
        seed: 424242,
        ..Testbed::default()
    });
    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("story", 4, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);

    let cfg = workloads::ring::RingConfig {
        payload_len: 2048,
        iters: 400,
        compute_ns: 150_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });

    let at = sim.now() + SimDuration::from_secs(30);
    sim.schedule_at(at, move |sim| {
        dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), move |sim, out| {
            assert!(out.success);
            let set = out.set_id.unwrap();
            sim.schedule_in(SimDuration::from_secs(10), move |sim| {
                for n in 1..=4 {
                    cluster::failure::crash_node(sim, NodeId(n));
                }
                let targets: Vec<NodeId> = (5..=8).map(NodeId).collect();
                dvc::lsc::restore_vc(sim, set, targets, SimDuration::from_secs(5), |_s, o| {
                    assert!(o.success);
                })
                .expect("restore should start");
            });
        });
    });

    let done = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        mpi::harness::all_done(sim, &job)
    });
    assert!(done, "{:?}", mpi::harness::first_failure(&sim, &job));
    for r in 0..job.size {
        assert!(workloads::ring::ring_ok(
            &mpi::harness::rank(&sim, &job, r).data
        ));
    }
    assert_eq!(
        dvc::vc::vc(&sim, vc).unwrap().hosts,
        (5..=8).map(NodeId).collect::<Vec<_>>()
    );
}

/// The whole stack is bit-deterministic: identical seeds produce identical
/// trajectories through provisioning, NTP, MPI, checkpointing and restore.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| -> (u64, u64, String) {
        let mut sim = scenarios::testbed(Testbed {
            nodes_per_cluster: 6,
            seed,
            ..Testbed::default()
        });
        let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let mut spec = VcSpec::new("det", 4, 64);
        spec.os_image_bytes = 32 << 20;
        spec.boot_time = SimDuration::from_secs(5);
        let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);
        let cfg = workloads::ring::RingConfig {
            payload_len: 1024,
            iters: 150,
            compute_ns: 100_000_000,
        };
        let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
            workloads::ring::program(cfg, r, s)
        });
        let at = sim.now() + SimDuration::from_secs(10);
        let horizon = SimTime::from_secs_f64(3600.0);
        let out = sim
            .await_reply(horizon, |sim, reply| {
                sim.schedule_at(at, move |sim| {
                    dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), reply);
                });
            })
            .unwrap();
        assert!(!mpi::harness::all_done(&sim, &job), "landed after the job");
        let done = sim.run_until(horizon, |sim| mpi::harness::all_done(sim, &job));
        assert!(done);
        let st = mpi::harness::rank(&sim, &job, 0).stats.clone();
        (
            sim.now().nanos(),
            st.bytes_sent,
            format!("{:?}|{:?}", out.pause_skew, out.save_duration),
        )
    };
    let a = run(777);
    let b = run(777);
    assert_eq!(a, b, "same seed must replay identically");
    let c = run(778);
    assert_ne!(a.0, c.0, "different seed must differ");
}

/// HPL checkpointed and migrated mid-factorization still produces a
/// machine-precision residual — numerical transparency across migration.
#[test]
fn hpl_residual_survives_migration() {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: 9,
        seed: 31337,
        ..Testbed::default()
    });
    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("hpl", 4, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);

    let cfg = workloads::hpl::HplConfig::new(128, 16, 9);
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        let (mut ops, data) = workloads::hpl::program(cfg, r, s);
        // Stretch the run so the checkpoint lands mid-factorization.
        ops.insert(1, dvc_suite::mpi::ops::Op::ComputeNs(30_000_000_000));
        (ops, data)
    });

    let at = sim.now() + SimDuration::from_secs(10);
    sim.schedule_at(at, move |sim| {
        dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), move |sim, out| {
            assert!(out.success);
            let set = out.set_id.unwrap();
            // Migrate immediately (no crash needed — planned migration).
            let targets: Vec<NodeId> = (5..=8).map(NodeId).collect();
            dvc::lsc::restore_vc(sim, set, targets, SimDuration::from_secs(5), |_s, o| {
                assert!(o.success);
            })
            .expect("restore should start");
        });
    });

    let done = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
        mpi::harness::all_done(sim, &job)
    });
    assert!(done, "{:?}", mpi::harness::first_failure(&sim, &job));
    let residual = mpi::harness::rank(&sim, &job, 0).data.f64("hpl.residual");
    assert!(residual < 1e-10, "residual {residual}");
}

/// A spanning virtual cluster runs PTRANS across two physical clusters and
/// checkpoints over the WAN trunk.
#[test]
fn spanning_vc_checkpoints_across_clusters() {
    let mut sim = scenarios::testbed(Testbed {
        clusters: 2,
        nodes_per_cluster: 5,
        seed: 99,
        ..Testbed::default()
    });
    // 3 nodes from each cluster.
    let hosts: Vec<NodeId> = vec![1, 2, 3, 6, 7, 8].into_iter().map(NodeId).collect();
    let mut spec = VcSpec::new("span", 6, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);
    assert_eq!(
        dvc::vc::vc(&sim, vc).unwrap().mapping(&sim.world),
        dvc::vc::Mapping::Spanning
    );

    let cfg = workloads::ptrans::PtransConfig::new(180, 3).with_reps(3000);
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ptrans::program(cfg, r, s)
    });
    let at = sim.now() + SimDuration::from_secs(8);
    let horizon = SimTime::from_secs_f64(7200.0);
    let out = sim
        .await_reply(horizon, |sim, reply| {
            sim.schedule_at(at, move |sim| {
                dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), reply);
            });
        })
        .unwrap();
    assert!(out.success, "{}", out.detail);
    assert!(
        !mpi::harness::all_done(&sim, &job),
        "checkpoint should have landed mid-run"
    );
    let done = sim.run_until(horizon, |sim| mpi::harness::all_done(sim, &job));
    assert!(done, "{:?}", mpi::harness::first_failure(&sim, &job));
    for r in 0..job.size {
        let d = &mpi::harness::rank(&sim, &job, r).data;
        assert_eq!(d.f64("pt.worst_err"), 0.0);
    }
}

/// The resource manager + DVC placement: a job too wide for either cluster
/// runs when spanning is allowed and stays queued when it is not.
#[test]
fn rm_spanning_placement_end_to_end() {
    use cluster::rm::{self, JobSpec, Placement};
    let mut sim = scenarios::testbed(Testbed {
        clusters: 2,
        nodes_per_cluster: 4,
        seed: 5,
        ..Testbed::default()
    });
    let narrow = rm::submit(
        &mut sim,
        JobSpec {
            nodes: 6,
            est_duration: SimDuration::from_secs(100),
            placement: Placement::SingleCluster,
        },
        |_s, _id, _n| {},
    );
    let wide = rm::submit(
        &mut sim,
        JobSpec {
            nodes: 6,
            est_duration: SimDuration::from_secs(100),
            placement: Placement::AllowSpan,
        },
        |_s, _id, _n| {},
    );
    // 8 nodes total, 4 per cluster: the 6-node single-cluster job can never
    // start; the spanning one starts immediately (backfilled past it).
    assert_eq!(
        sim.world.rm.job(narrow).unwrap().state,
        cluster::rm::JobState::Queued
    );
    assert_eq!(
        sim.world.rm.job(wide).unwrap().state,
        cluster::rm::JobState::Running
    );
}

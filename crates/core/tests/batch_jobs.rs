//! Batch integration (§4): MPI jobs through the resource manager, with DVC
//! provisioning, reliability management, and node recycling.

use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::rm::Placement;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_core::batch::{self, DvcJobSpec, DvcJobState};
use dvc_core::reliability::Policy;
use dvc_mpi::data::RankData;
use dvc_sim_core::{Sim, SimDuration, SimTime};
use dvc_workloads::ring;

fn testbed(nodes: usize, seed: u64) -> Sim<ClusterWorld> {
    let mut sim = Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(nodes)
            .tweak(|c| {
                c.guest_tcp.max_data_retries = 4;
                c.clock_max_offset_ms = 5.0;
            })
            .build(seed),
        seed,
    );
    ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
    sim
}

fn ring_spec(name: &str, vnodes: usize, laps: u64) -> DvcJobSpec {
    let cfg = ring::RingConfig {
        payload_len: 1024,
        iters: laps,
        compute_ns: 100_000_000,
    };
    DvcJobSpec {
        name: name.into(),
        vnodes,
        mem_mb: 64,
        placement: Placement::SingleCluster,
        est_duration: SimDuration::from_secs(120),
        program: Box::new(move |r, s| ring::program(cfg, r, s)),
        reliability: None,
        kill_after: SimDuration::from_secs(3600),
    }
}

#[test]
fn queued_jobs_run_serially_and_release_nodes() {
    // 5 nodes (head + 4 workers); two 4-vnode jobs must run one after the
    // other, each through provision → run → teardown.
    let mut sim = testbed(5, 70_001);
    let a = batch::submit_dvc_job(&mut sim, ring_spec("a", 4, 100));
    let b = batch::submit_dvc_job(&mut sim, ring_spec("b", 4, 100));

    assert_eq!(
        batch::job_status(&mut sim, b).unwrap().state,
        DvcJobState::Queued,
        "no room for b while a provisions"
    );
    let ok = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
        batch::job_status(sim, a).map(|s| s.state) == Some(DvcJobState::Completed)
            && batch::job_status(sim, b).map(|s| s.state) == Some(DvcJobState::Completed)
    });
    assert!(
        ok,
        "a={:?} b={:?}",
        batch::job_status(&mut sim, a),
        batch::job_status(&mut sim, b)
    );
    // Nodes recycled.
    assert_eq!(sim.world.rm.busy_nodes(), 0);
    // Job b really started after job a finished.
    let ja = sim.world.rm.job(a).unwrap().finished.unwrap();
    let jb = sim.world.rm.job(b).unwrap().started.unwrap();
    assert!(jb >= ja, "b started at {jb}, a finished at {ja}");
}

#[test]
fn managed_batch_job_survives_node_crash() {
    let mut sim = testbed(9, 70_002);
    let mut spec = ring_spec("resilient", 4, 700);
    spec.reliability = Some(Policy::periodic(SimDuration::from_secs(30)));
    let id = batch::submit_dvc_job(&mut sim, spec);

    // Crash one of the job's nodes mid-run.
    sim.schedule_at(SimTime::from_secs_f64(60.0), |sim| {
        // The job runs on nodes 1..=4 (head is 0).
        dvc_cluster::failure::crash_node(sim, NodeId(2));
    });
    let ok = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
        matches!(
            batch::job_status(sim, id).map(|s| s.state),
            Some(DvcJobState::Completed) | Some(DvcJobState::Failed) | Some(DvcJobState::Killed)
        )
    });
    assert!(ok, "job never terminated");
    let st = batch::job_status(&mut sim, id).unwrap();
    assert_eq!(st.state, DvcJobState::Completed, "detail: {}", st.detail);
    // The data is verified.
    let mpi = batch::mpi_job(&mut sim, id).unwrap();
    for r in 0..mpi.size {
        assert!(ring::ring_ok(&dvc_mpi::harness::rank(&sim, &mpi, r).data));
    }
}

#[test]
fn unmanaged_batch_job_fails_on_crash_and_frees_nodes() {
    let mut sim = testbed(6, 70_003);
    let id = batch::submit_dvc_job(&mut sim, ring_spec("fragile", 4, 700));
    sim.schedule_at(SimTime::from_secs_f64(60.0), |sim| {
        dvc_cluster::failure::crash_node(sim, NodeId(2));
    });
    let ok = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
        matches!(
            batch::job_status(sim, id).map(|s| s.state),
            Some(DvcJobState::Completed) | Some(DvcJobState::Failed)
        )
    });
    assert!(ok);
    let st = batch::job_status(&mut sim, id).unwrap();
    assert_eq!(st.state, DvcJobState::Failed);
    assert_eq!(
        sim.world.rm.busy_nodes(),
        0,
        "failed job must release nodes"
    );
}

#[test]
fn walltime_limit_kills_runaway_jobs() {
    let mut sim = testbed(5, 70_004);
    let mut spec = ring_spec("runaway", 4, u64::MAX / 2); // never finishes
    spec.kill_after = SimDuration::from_secs(120);
    let id = batch::submit_dvc_job(&mut sim, spec);
    let ok = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        batch::job_status(sim, id).map(|s| s.state) == Some(DvcJobState::Killed)
    });
    assert!(ok, "{:?}", batch::job_status(&mut sim, id));
    assert_eq!(sim.world.rm.busy_nodes(), 0);
}

#[test]
fn program_results_are_extractable_after_completion() {
    let mut sim = testbed(4, 70_005);
    let spec = DvcJobSpec {
        name: "sum".into(),
        vnodes: 3,
        mem_mb: 64,
        placement: Placement::SingleCluster,
        est_duration: SimDuration::from_secs(60),
        program: Box::new(|rank, size| {
            let mut data = RankData::new();
            data.set("x", dvc_mpi::data::Value::F64((rank + 1) as f64));
            let ops = dvc_mpi::collectives::allreduce(rank, size, 400, "x", |d, _r, s| {
                let mut total = d.f64("x");
                for i in 0..s {
                    let key = format!("x.from.{i}");
                    if d.contains(&key) {
                        total += d.f64(&key);
                    }
                }
                d.set("x", dvc_mpi::data::Value::F64(total));
            });
            (ops, data)
        }),
        reliability: None,
        kill_after: SimDuration::from_secs(600),
    };
    let id = batch::submit_dvc_job(&mut sim, spec);
    let ok = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        batch::job_status(sim, id).map(|s| s.state) == Some(DvcJobState::Completed)
    });
    assert!(ok);
    // VC is torn down but the (dead) VMs' final state is still inspectable.
    let mpi = batch::mpi_job(&mut sim, id).unwrap();
    for r in 0..3 {
        let vm = sim.world.vm(mpi.vms[r]).unwrap();
        let rt = vm.guest.procs[0]
            .app
            .as_any()
            .downcast_ref::<dvc_mpi::runtime::MpiRuntime>()
            .unwrap();
        assert_eq!(rt.data.f64("x"), 6.0, "rank {r}");
    }
}

/// Staging cache: re-provisioning the same image on the same nodes skips
/// the storage transfers entirely (paper §1's image management).
#[test]
fn image_cache_accelerates_reprovisioning() {
    use dvc_core::images::{self, ImageId};
    let mut sim = testbed(5, 70_010);
    let img = ImageId(42);
    images::manager(&mut sim).publish(img);

    let provision = |sim: &mut Sim<ClusterWorld>| -> f64 {
        let t0 = sim.now();
        let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let mut spec = dvc_core::vc::VcSpec::new("cached", 4, 64).with_image(img);
        spec.os_image_bytes = 512 << 20;
        spec.boot_time = SimDuration::from_secs(5);
        let id = dvc_core::vc::provision_vc(sim, spec, hosts, |_s, _i| {});
        while dvc_core::vc::vc(sim, id).map(|v| v.state) != Some(dvc_core::vc::VcState::Up) {
            assert!(sim.step());
        }
        dvc_core::vc::teardown_vc(sim, id);
        (sim.now() - t0).as_secs_f64()
    };
    let cold = provision(&mut sim);
    let warm = provision(&mut sim);
    // Cold: 4×512 MB over 400 MB/s shared storage (≈5 s) + 5 s boot.
    // Warm: boot only.
    assert!(cold > 9.0, "cold provision took {cold}");
    assert!(warm < 5.5, "warm provision took {warm} (cache not used?)");
    let m = images::manager(&mut sim);
    assert_eq!(m.cache_misses, 4);
    assert_eq!(m.cache_hits, 4);

    // Publishing a new version forces restaging.
    images::manager(&mut sim).publish(img);
    let after_publish = provision(&mut sim);
    assert!(
        after_publish > 9.0,
        "publish must invalidate: {after_publish}"
    );
}

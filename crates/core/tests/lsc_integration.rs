//! LSC end-to-end: coordinated checkpoints of *running MPI applications*.
//!
//! These are the paper's claims as executable tests:
//!
//! * NTP-scheduled LSC checkpoints a communication-heavy job with
//!   millisecond pause skew and the job finishes, data verified;
//! * the naive coordinator works at small node counts and collapses at
//!   larger ones, with the failure emerging from TCP retry exhaustion;
//! * a checkpoint set restores onto *different physical nodes* and the job
//!   still completes (migration transparency);
//! * the hardened coordinator survives agent faults that kill plain NTP
//!   LSC; and
//! * the reliability manager recovers a job from a node crash.

use dvc_cluster::failure;
use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_core::lsc::{self, LscFaults, LscMethod, LscOutcome};
use dvc_core::vc::{self, VcSpec};
use dvc_core::{reliability, VcId};
use dvc_mpi::harness::{self, MpiJob};
use dvc_sim_core::{Sim, SimDuration, SimTime};
use dvc_workloads::ring;

/// World: one cluster of `n` nodes + 4 spares, NTP running, guests with the
/// HPC-tuned retry budget from DESIGN.md §2.
fn world(n: usize, seed: u64) -> Sim<ClusterWorld> {
    let mut sim = Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(n + 4)
            .tweak(|c| {
                c.guest_tcp.max_data_retries = 4;
                c.clock_max_offset_ms = 5.0; // boot-time ntpdate already stepped the clocks
            })
            .build(seed),
        seed,
    );
    ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
    sim
}

/// Provision a VC on nodes 1..=n, run a ring job on it, returning ids.
/// The world runs until the VC is up and the job is launched.
fn vc_with_ring(sim: &mut Sim<ClusterWorld>, n: usize, laps: u64) -> (VcId, MpiJob) {
    let hosts: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
    let mut spec = VcSpec::new("job-vc", n, 64);
    spec.os_image_bytes = 64 << 20; // small image: fast tests
    spec.boot_time = SimDuration::from_secs(5);
    let id = vc::provision_vc(sim, spec, hosts, |_sim, _id| {});
    // Run until the VC is up.
    while vc::vc(sim, id).map(|v| v.state) != Some(vc::VcState::Up) {
        assert!(sim.step(), "provisioning stalled");
        assert!(sim.now() < SimTime::from_secs_f64(600.0));
    }
    let cfg = ring::RingConfig {
        payload_len: 4096, // 32 KiB payload per hop: keeps data in flight
        iters: laps,
        compute_ns: 150_000_000, // 150 ms/lap
    };
    let vms = vc::vc(sim, id).unwrap().vms.clone();
    let job = harness::launch_on_vms(sim, &vms, move |r, s| ring::program(cfg, r, s));
    (id, job)
}

fn stash_outcome(sim: &mut Sim<ClusterWorld>, out: LscOutcome) {
    sim.world.ext.get_or_default::<Vec<LscOutcome>>().push(out);
}

fn outcomes(sim: &Sim<ClusterWorld>) -> &[LscOutcome] {
    sim.world
        .ext
        .get::<Vec<LscOutcome>>()
        .map(|v| v.as_slice())
        .unwrap_or(&[])
}

#[test]
fn ntp_lsc_checkpoints_running_job_with_ms_skew() {
    let mut sim = world(8, 1001);
    let (vc_id, job) = vc_with_ring(&mut sim, 8, 1200);
    // Give NTP time to discipline the clocks, then checkpoint mid-run.
    let at = sim.now() + SimDuration::from_secs(60);
    let horizon = SimTime::from_secs_f64(3600.0);
    let o = sim
        .await_reply(horizon, |sim, reply| {
            sim.schedule_at(at, move |sim| {
                lsc::checkpoint_vc(sim, vc_id, LscMethod::ntp_default(), reply);
            });
        })
        .expect("checkpoint never completed");
    let ok = sim.run_until(horizon, |sim| {
        harness::all_done(sim, &job) || harness::first_failure(sim, &job).is_some()
    });
    assert!(ok, "job never finished");
    assert!(
        harness::first_failure(&sim, &job).is_none(),
        "job failed: {:?}",
        harness::first_failure(&sim, &job)
    );
    assert!(o.success, "checkpoint failed: {}", o.detail);
    assert!(
        o.pause_skew < SimDuration::from_millis(20),
        "NTP pause skew should be ms-scale, got {}",
        o.pause_skew
    );
    assert!(o.set_id.is_some());
    // Ring data intact on every rank.
    for r in 0..job.size {
        assert!(ring::ring_ok(&harness::rank(&sim, &job, r).data));
    }
    // Each VM paused exactly twice: once while provisioning (pre-boot
    // hold) and once for the checkpoint.
    let v = vc::vc(&sim, vc_id).unwrap();
    for &vm in &v.vms {
        assert_eq!(sim.world.vm(vm).unwrap().pause_count, 2);
    }
}

#[test]
fn naive_lsc_succeeds_at_4_nodes() {
    let mut sim = world(4, 1002);
    let (vc_id, job) = vc_with_ring(&mut sim, 4, 400);
    let at = sim.now() + SimDuration::from_secs(60);
    sim.schedule_at(at, move |sim| {
        lsc::checkpoint_vc(sim, vc_id, LscMethod::Naive, stash_outcome);
    });
    let ok = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        harness::all_done(sim, &job) || harness::first_failure(sim, &job).is_some()
    });
    assert!(ok);
    assert!(
        harness::first_failure(&sim, &job).is_none(),
        "4-node naive checkpoint should survive: {:?}",
        harness::first_failure(&sim, &job)
    );
    let o = &outcomes(&sim)[0];
    assert!(o.success);
    // Serial dispatch: seconds of skew even when it succeeds.
    assert!(
        o.pause_skew > SimDuration::from_millis(500),
        "expected multi-second naive skew, got {}",
        o.pause_skew
    );
}

#[test]
fn naive_lsc_kills_the_job_at_12_nodes() {
    let mut sim = world(12, 1003);
    let (vc_id, job) = vc_with_ring(&mut sim, 12, 2000);
    let at = sim.now() + SimDuration::from_secs(60);
    sim.schedule_at(at, move |sim| {
        lsc::checkpoint_vc(sim, vc_id, LscMethod::Naive, stash_outcome);
    });
    let _ = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        harness::first_failure(sim, &job).is_some() || harness::all_done(sim, &job)
    });
    // The transport gave up somewhere: the app observes a socket error.
    let failure = harness::first_failure(&sim, &job);
    assert!(
        failure.is_some(),
        "12-node naive checkpoint should exceed the TCP budget (skew {:?})",
        outcomes(&sim).first().map(|o| o.pause_skew)
    );
    let (_, err) = failure.unwrap();
    assert!(
        err.contains("RetryTimeout") || err.contains("Reset"),
        "failure must come from the transport: {err}"
    );
}

#[test]
fn checkpoint_set_restores_onto_different_nodes() {
    let mut sim = world(4, 1004);
    let (vc_id, job) = vc_with_ring(&mut sim, 4, 1500);
    let at = sim.now() + SimDuration::from_secs(60);
    let horizon = SimTime::from_secs_f64(3600.0);
    let restore = sim.await_reply(horizon, |sim, reply| {
        sim.schedule_at(at, move |sim| {
            lsc::checkpoint_vc(sim, vc_id, LscMethod::ntp_default(), move |sim, out| {
                assert!(out.success, "checkpoint failed: {}", out.detail);
                let set_id = out.set_id.unwrap();
                // Simulate catastrophe: all four original hosts die.
                sim.schedule_in(SimDuration::from_secs(30), move |sim| {
                    for n in 1..=4 {
                        failure::crash_node(sim, NodeId(n));
                    }
                    // Migrate the whole VC to the spares (and the head node).
                    let targets: Vec<NodeId> = vec![NodeId(5), NodeId(6), NodeId(7), NodeId(0)];
                    lsc::restore_vc(sim, set_id, targets, SimDuration::from_secs(5), reply)
                        .expect("restore should start");
                });
            });
        });
    });
    let restore = restore.expect("restore never resolved");
    assert!(restore.success, "restore failed: {}", restore.detail);
    let ok = sim.run_until(horizon, |sim| harness::all_done(sim, &job));
    assert!(
        ok,
        "job should complete after migration; failure: {:?}",
        harness::first_failure(&sim, &job)
    );
    // Placement really moved.
    let v = vc::vc(&sim, vc_id).unwrap();
    assert_eq!(v.hosts, vec![NodeId(5), NodeId(6), NodeId(7), NodeId(0)]);
    for r in 0..job.size {
        assert!(ring::ring_ok(&harness::rank(&sim, &job, r).data));
    }
    assert!(restore.resume_skew < SimDuration::from_millis(20));
}

#[test]
fn hardened_lsc_survives_agent_faults_that_kill_plain_ntp() {
    // Plain NTP with a 40%-per-agent fault: some VM never pauses → job dies.
    let run = |method: LscMethod, seed: u64| -> (bool, u32) {
        let mut sim = world(8, seed);
        lsc::set_faults(
            &mut sim,
            LscFaults {
                arm_loss_prob: 0.25,
            },
        );
        let (vc_id, job) = vc_with_ring(&mut sim, 8, 2000);
        let at = sim.now() + SimDuration::from_secs(60);
        sim.schedule_at(at, move |sim| {
            lsc::checkpoint_vc(sim, vc_id, method, stash_outcome);
        });
        let _ = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
            (harness::first_failure(sim, &job).is_some() || harness::all_done(sim, &job))
                && !outcomes(sim).is_empty()
        });
        let job_ok = harness::first_failure(&sim, &job).is_none();
        let attempts = outcomes(&sim).first().map(|o| o.attempts).unwrap_or(0);
        (
            job_ok && outcomes(&sim).first().is_some_and(|o| o.success),
            attempts,
        )
    };

    // With 8 nodes and p=0.25 the chance all 8 arms survive is ~10%; this
    // (deterministic) seed loses at least one arm.
    let (plain_ok, _) = run(LscMethod::ntp_default(), 2001);
    assert!(!plain_ok, "plain NTP should fail under 25% agent faults");

    let (hard_ok, attempts) = run(LscMethod::hardened_default(), 2001);
    assert!(hard_ok, "hardened LSC should retry through agent faults");
    assert!(attempts >= 2, "expected at least one retry, got {attempts}");
}

#[test]
fn reliability_manager_recovers_job_from_node_crash() {
    let mut sim = world(4, 1006);
    let (vc_id, job) = vc_with_ring(&mut sim, 4, 800);
    reliability::manage(
        &mut sim,
        vc_id,
        reliability::Policy::periodic(SimDuration::from_secs(45)),
    );
    // Crash one VC host well after the first periodic checkpoint.
    sim.schedule_in(SimDuration::from_secs(100), |sim| {
        failure::crash_node(sim, NodeId(2));
    });
    let ok = sim.run_until(SimTime::from_secs_f64(7200.0), |sim| {
        harness::all_done(sim, &job)
    });
    let st = reliability::stats(&mut sim, vc_id);
    assert!(
        ok,
        "job should survive the crash via restore; stats {st:?}, failure {:?}",
        harness::first_failure(&sim, &job)
    );
    assert!(st.checkpoints_ok >= 1, "stats {st:?}");
    assert!(st.restores >= 1, "stats {st:?}");
    assert!(!st.lost);
    for r in 0..job.size {
        assert!(ring::ring_ok(&harness::rank(&sim, &job, r).data));
    }
}

/// The paper's Figure-2 consistency argument, at the application level: a
/// checkpoint taken at an adversarial instant (mid-lap, payloads in flight)
/// preserves exactly-once data delivery — validated by the ring checksums.
#[test]
fn adversarial_instant_checkpoints_keep_exactly_once_semantics() {
    for offset_ms in [0u64, 37, 71, 113] {
        let mut sim = world(6, 3000 + offset_ms);
        let (vc_id, job) = vc_with_ring(&mut sim, 6, 900);
        let at = sim.now() + SimDuration::from_secs(60) + SimDuration::from_millis(offset_ms);
        sim.schedule_at(at, move |sim| {
            lsc::checkpoint_vc(sim, vc_id, LscMethod::ntp_default(), stash_outcome);
        });
        let ok = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
            harness::all_done(sim, &job) || harness::first_failure(sim, &job).is_some()
        });
        assert!(ok && harness::first_failure(&sim, &job).is_none());
        for r in 0..job.size {
            let d = &harness::rank(&sim, &job, r).data;
            assert_eq!(d.u64("ring.errors"), 0, "offset {offset_ms}: rank {r}");
        }
        assert!(outcomes(&sim)[0].success);
    }
}

/// The clock-free hardened coordinator (the degraded mode used when NTP is
/// lost) checkpoints a running job, and its arm/ack abort guard waits out a
/// control-plane partition: the first attempt(s) abort with *nothing
/// paused* — the job never notices — and a later attempt commits.
#[test]
fn hardened_naive_survives_control_partition_via_abort_and_rearm() {
    let mut sim = world(6, 4001);
    let (vc_id, job) = vc_with_ring(&mut sim, 6, 900);
    let at = sim.now() + SimDuration::from_secs(60);
    // Partition one member's control path exactly when the checkpoint
    // starts, lasting past the first arm window.
    sim.world.faults.window(
        "control.partition",
        Some(2),
        at,
        at + SimDuration::from_secs(8),
        1.0,
    );
    sim.schedule_at(at, move |sim| {
        lsc::checkpoint_vc(
            sim,
            vc_id,
            LscMethod::hardened_naive_default(),
            stash_outcome,
        );
    });
    let ok = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        !outcomes(sim).is_empty()
            && (harness::all_done(sim, &job) || harness::first_failure(sim, &job).is_some())
    });
    assert!(ok, "job never finished");
    assert!(
        harness::first_failure(&sim, &job).is_none(),
        "job failed: {:?}",
        harness::first_failure(&sim, &job)
    );
    let out = &outcomes(&sim)[0];
    assert!(out.success, "checkpoint failed: {}", out.detail);
    assert_eq!(out.method, "hardened-naive");
    assert!(
        out.attempts >= 2,
        "partition should abort at least the first attempt: {out:?}"
    );
    // Clock-free GO keeps skew inside the TCP silence budget (~3 s).
    assert!(
        out.pause_skew < SimDuration::from_secs_f64(3.0),
        "pause skew {}",
        out.pause_skew
    );
    for r in 0..job.size {
        assert!(ring::ring_ok(&harness::rank(&sim, &job, r).data));
    }
}

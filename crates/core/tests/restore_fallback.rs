//! Failure paths of the restore pipeline (PR: failure-aware checkpointing).
//!
//! * a corrupt latest generation makes `restore_vc` fail cleanly (checksum
//!   caught at staging) and `restore_vc_intact` fall back to the newest
//!   intact generation;
//! * when every generation is corrupt the caller gets a typed
//!   [`RestoreError`] instead of a panic;
//! * GC can never drop the only intact generation of a VC.

use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_core::lsc::{self, LscMethod, RestoreError};
use dvc_core::vc::{self, VcSpec};
use dvc_core::VcId;
use dvc_sim_core::{Sim, SimDuration, SimTime};

fn world(seed: u64) -> Sim<ClusterWorld> {
    let mut sim = Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(9)
            .tweak(|c| c.clock_max_offset_ms = 5.0)
            .build(seed),
        seed,
    );
    ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
    sim
}

/// Provision a 3-vnode VC on nodes 1..=3 and take `n_ckpts` checkpoints,
/// returning the VC id and the stored set ids (oldest first).
fn vc_with_sets(sim: &mut Sim<ClusterWorld>, n_ckpts: usize) -> (VcId, Vec<u64>) {
    let hosts: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let mut spec = VcSpec::new("fb-vc", 3, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let id = vc::provision_vc(sim, spec, hosts, |_sim, _id| {});
    sim.run_until(SimTime::from_secs_f64(600.0), |sim| {
        vc::vc(sim, id).map(|v| v.state) == Some(vc::VcState::Up)
    });
    let mut set_ids = Vec::new();
    for _ in 0..n_ckpts {
        let out = sim
            .await_reply(SimTime::from_secs_f64(7200.0), |sim, reply| {
                lsc::checkpoint_vc(sim, id, LscMethod::ntp_default(), reply);
            })
            .expect("checkpoint never resolved");
        assert!(out.success, "checkpoint failed: {}", out.detail);
        set_ids.push(out.set_id.unwrap());
    }
    (id, set_ids)
}

fn corrupt_set(sim: &mut Sim<ClusterWorld>, set_id: u64) {
    let st = vc::store(sim);
    let set = st.sets.iter_mut().find(|s| s.id == set_id).unwrap();
    for img in &mut set.images {
        img.corrupt_silently();
    }
}

#[test]
fn corrupt_latest_generation_fails_restore_with_checksum_detail() {
    let mut sim = world(41);
    let (_vc, sets) = vc_with_sets(&mut sim, 2);
    corrupt_set(&mut sim, sets[1]);

    let targets: Vec<NodeId> = (4..=6).map(NodeId).collect();
    let out = sim
        .await_reply(SimTime::from_secs_f64(7200.0), |sim, reply| {
            lsc::restore_vc(sim, sets[1], targets, SimDuration::from_secs(5), reply)
                .expect("restore of an existing set starts");
        })
        .unwrap();
    assert!(!out.success, "corrupt set must not restore");
    assert!(out.detail.contains("checksum"), "detail: {}", out.detail);
}

#[test]
fn restore_vc_intact_falls_back_past_corrupt_latest() {
    let mut sim = world(42);
    let (vc_id, sets) = vc_with_sets(&mut sim, 2);
    corrupt_set(&mut sim, sets[1]);

    let targets: Vec<NodeId> = (4..=6).map(NodeId).collect();
    let mut chosen = None;
    let out = sim.await_reply(SimTime::from_secs_f64(7200.0), |sim, reply| {
        let set = lsc::restore_vc_intact(sim, vc_id, targets, SimDuration::from_secs(5), reply);
        chosen = Some(set.expect("an intact generation exists"));
    });
    assert_eq!(
        chosen,
        Some(sets[0]),
        "must pick the older, intact generation"
    );
    assert_eq!(out.map(|o| o.success), Some(true));
    // The VC is back up on the new hosts.
    let v = vc::vc(&sim, vc_id).unwrap();
    assert_eq!(v.state, vc::VcState::Up);
    assert_eq!(v.hosts, (4..=6).map(NodeId).collect::<Vec<_>>());
}

#[test]
fn all_generations_corrupt_is_a_typed_error_not_a_panic() {
    let mut sim = world(43);
    let (vc_id, sets) = vc_with_sets(&mut sim, 2);
    for &s in &sets {
        corrupt_set(&mut sim, s);
    }
    let targets: Vec<NodeId> = (4..=6).map(NodeId).collect();
    let err = lsc::restore_vc_intact(
        &mut sim,
        vc_id,
        targets,
        SimDuration::from_secs(5),
        |_sim, _o| {},
    )
    .unwrap_err();
    assert_eq!(err, RestoreError::NoIntactGeneration(vc_id));
}

#[test]
fn unknown_set_and_target_mismatch_are_typed_errors() {
    let mut sim = world(44);
    let (_vc, sets) = vc_with_sets(&mut sim, 1);
    let err = lsc::restore_vc(
        &mut sim,
        9999,
        vec![NodeId(4)],
        SimDuration::from_secs(5),
        |_s, _o| {},
    )
    .unwrap_err();
    assert_eq!(err, RestoreError::UnknownSet(9999));

    let err = lsc::restore_vc(
        &mut sim,
        sets[0],
        vec![NodeId(4)], // 3 vnodes, 1 target
        SimDuration::from_secs(5),
        |_s, _o| {},
    )
    .unwrap_err();
    assert_eq!(
        err,
        RestoreError::TargetCountMismatch {
            expected: 3,
            got: 1
        }
    );
}

#[test]
fn prune_never_drops_the_only_intact_generation() {
    let mut sim = world(45);
    let (vc_id, sets) = vc_with_sets(&mut sim, 3);
    // Only the OLDEST generation survives verification.
    corrupt_set(&mut sim, sets[1]);
    corrupt_set(&mut sim, sets[2]);

    // Aggressive GC: keep just one set. Without the intact-set guard this
    // would leave only the newest (corrupt) generation behind.
    vc::store(&mut sim).prune(vc_id, 1);
    let st = vc::store(&mut sim);
    let remaining: Vec<u64> = st.sets.iter().map(|s| s.id).collect();
    assert!(
        remaining.contains(&sets[0]),
        "intact set pruned away: {remaining:?}"
    );
    assert!(
        remaining.contains(&sets[2]),
        "newest set should stay in the keep window: {remaining:?}"
    );
    assert_eq!(st.latest_intact_for(vc_id).unwrap().id, sets[0]);
    // And a fallback restore still works after the aggressive prune.
    let targets: Vec<NodeId> = (4..=6).map(NodeId).collect();
    let mut chosen = None;
    let out = sim.await_reply(SimTime::from_secs_f64(7200.0), |sim, reply| {
        let set = lsc::restore_vc_intact(sim, vc_id, targets, SimDuration::from_secs(5), reply);
        chosen = Some(set.expect("intact generation survived the prune"));
    });
    assert_eq!(chosen, Some(sets[0]));
    assert_eq!(out.map(|o| o.success), Some(true));
}

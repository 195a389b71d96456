//! Failure injection: node crashes, repairs, MTBF-driven failure processes.
//!
//! A crashed node takes its NIC down and destroys every domain it hosts —
//! the failure DVC masks by restoring the virtual cluster's last checkpoint
//! set on different hardware.

use crate::glue::destroy_vm;
use crate::node::NodeId;
use crate::world::ClusterWorld;
use dvc_sim_core::rng::exp_sample;
use dvc_sim_core::{Event, RmEvent, Sim, SimDuration, SimTime};

/// Crash `node`: NIC down, all hosted domains destroyed.
pub fn crash_node(sim: &mut Sim<ClusterWorld>, node: NodeId) {
    let domains: Vec<_> = {
        let n = sim.world.node_mut(node);
        if !n.up {
            return;
        }
        n.up = false;
        n.crashes += 1;
        n.domains.clone()
    };
    let nic = sim.world.node(node).nic;
    sim.world.fabric.set_nic_up(nic, false);
    for vm in domains {
        destroy_vm(sim, vm);
    }
    sim.world.rm.note_node_down(node);
    sim.emit(Event::Rm(RmEvent::NodeDown { node: node.0 }));
}

/// Bring `node` back up (empty, clock unchanged — it kept ticking in BIOS).
pub fn repair_node(sim: &mut Sim<ClusterWorld>, node: NodeId) {
    let nic = {
        let n = sim.world.node_mut(node);
        if n.up {
            return;
        }
        n.up = true;
        n.domains.clear();
        n.nic
    };
    sim.world.fabric.set_nic_up(nic, true);
    sim.emit(Event::Rm(RmEvent::NodeUp { node: node.0 }));
}

/// Configuration of an MTBF-driven failure process.
#[derive(Clone, Copy, Debug)]
pub struct FailureProcess {
    /// Per-node mean time between failures.
    pub mtbf: SimDuration,
    /// Time a crashed node stays down before repair.
    pub repair_time: SimDuration,
    /// Stop injecting failures after this horizon.
    pub horizon: SimTime,
}

/// Arm independent exponential failure processes on `nodes`. Each node
/// crashes at exponential intervals with the given MTBF, stays down for
/// `repair_time`, and the cycle repeats until the horizon.
pub fn arm_failures(sim: &mut Sim<ClusterWorld>, nodes: &[NodeId], p: FailureProcess) {
    for &n in nodes {
        schedule_next_failure(sim, n, p);
    }
}

fn schedule_next_failure(sim: &mut Sim<ClusterWorld>, node: NodeId, p: FailureProcess) {
    let gap = {
        let rng = sim.rng.stream_idx("failure.mtbf", node.0 as u64);
        SimDuration::from_secs_f64(exp_sample(rng, p.mtbf.as_secs_f64()))
    };
    let at = sim.now() + gap;
    if at >= p.horizon {
        return;
    }
    sim.schedule_at(at, move |sim| {
        crash_node(sim, node);
        sim.schedule_in(p.repair_time, move |sim| {
            repair_node(sim, node);
            schedule_next_failure(sim, node, p);
        });
    });
}

/// A *predicted* fault signal (paper §1: "avoidance of job failure when
/// hardware faults can be predicted"): announce at `warn`, crash at `fail`.
/// The announcement invokes `on_warning` so a reliability manager can
/// evacuate the node first.
pub fn arm_predicted_fault(
    sim: &mut Sim<ClusterWorld>,
    node: NodeId,
    warn: SimTime,
    fail: SimTime,
    on_warning: impl FnOnce(&mut Sim<ClusterWorld>, NodeId) + 'static,
) {
    assert!(warn <= fail);
    sim.schedule_at(warn, move |sim| {
        on_warning(sim, node);
    });
    sim.schedule_at(fail, move |sim| {
        crash_node(sim, node);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glue::create_vm;
    use crate::world::ClusterBuilder;
    use dvc_vmm::VmState;

    fn sim() -> Sim<ClusterWorld> {
        Sim::new(ClusterBuilder::new().nodes_per_cluster(4).build(9), 9)
    }

    #[test]
    fn crash_destroys_domains_and_downs_nic() {
        let mut sim = sim();
        let vm = create_vm(&mut sim, NodeId(1), 128, 1);
        crash_node(&mut sim, NodeId(1));
        let n = sim.world.node(NodeId(1));
        assert!(!n.up);
        assert!(n.domains.is_empty());
        assert!(!sim.world.fabric.nic_is_up(n.nic));
        assert_eq!(sim.world.vm(vm).unwrap().state, VmState::Dead);
        // Idempotent.
        crash_node(&mut sim, NodeId(1));
        assert_eq!(sim.world.node(NodeId(1)).crashes, 1);
    }

    #[test]
    fn repair_restores_empty_node() {
        let mut sim = sim();
        crash_node(&mut sim, NodeId(2));
        repair_node(&mut sim, NodeId(2));
        let n = sim.world.node(NodeId(2));
        assert!(n.up);
        assert!(sim.world.fabric.nic_is_up(n.nic));
    }

    #[test]
    fn mtbf_process_produces_plausible_crash_count() {
        let mut sim = sim();
        let nodes = sim.world.node_ids();
        let horizon = SimTime::from_secs_f64(10_000.0);
        arm_failures(
            &mut sim,
            &nodes,
            FailureProcess {
                mtbf: SimDuration::from_secs(1000),
                repair_time: SimDuration::from_secs(60),
                horizon,
            },
        );
        sim.run(horizon, 1_000_000);
        let total: u32 = sim.world.nodes.iter().map(|n| n.crashes).sum();
        // 4 nodes × 10 000 s / (1000 + 60) s per cycle ≈ 38 expected.
        assert!(
            (15..=70).contains(&total),
            "expected ≈38 crashes, got {total}"
        );
    }

    #[test]
    fn predicted_fault_warns_before_crash() {
        let mut sim = sim();
        sim.world.ext.insert(Vec::<f64>::new());
        arm_predicted_fault(
            &mut sim,
            NodeId(3),
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(8.0),
            |sim, node| {
                assert_eq!(node, NodeId(3));
                assert!(sim.world.node(node).up, "warning precedes the crash");
                let t = sim.now().as_secs_f64();
                sim.world.ext.get_mut::<Vec<f64>>().unwrap().push(t);
            },
        );
        sim.run_to_completion(1000);
        assert_eq!(sim.world.ext.get::<Vec<f64>>().unwrap().as_slice(), &[5.0]);
        assert!(!sim.world.node(NodeId(3)).up);
    }
}

//! The out-of-band management network.
//!
//! Checkpoint coordinators talk to per-node agents over a control plane
//! (think: the head node ssh-ing / RPC-ing into dom0s). Two operations are
//! modelled, both with heavy-tailed (log-normal) latency scaled by the
//! target node's background load — the mechanism behind the naive LSC
//! approach's poor scaling:
//!
//! * [`open_delay`] — establishing a terminal connection to a node;
//! * [`cmd_delay`]  — dispatching one command and having the remote side
//!   begin executing it.
//!
//! [`ctrl_call`] composes a sampled delay with an action that runs on the
//! target node (it silently vanishes if the node crashed meanwhile, like a
//! TCP session to a dead host).

use crate::node::NodeId;
use crate::world::ClusterWorld;
use dvc_sim_core::rng::lognormal_sample;
use dvc_sim_core::{Event, FaultEvent, Sim, SimDuration};

/// Median of a terminal-connection *open*, seconds. Calibrated so
/// serialized terminal fan-out reproduces the paper's naive-LSC failure
/// curve (DESIGN.md §2): ≈0.55 s median per-connection open, heavy upper
/// tail.
const OPEN_MEDIAN_S: f64 = 0.55;
/// Log-normal σ of a terminal-connection open.
const OPEN_SIGMA: f64 = 0.55;
/// Log-normal σ of command dispatch + remote service (its μ is
/// [`crate::world::ControlCfg::cmd_mu`]).
const CMD_SIGMA: f64 = 0.45;
/// Fixed floor added to every control exchange, seconds.
const BASE_LATENCY_S: f64 = 0.02;

/// Sample the latency of opening a terminal connection to `node`.
pub fn open_delay(sim: &mut Sim<ClusterWorld>, node: NodeId) -> SimDuration {
    let load = sim.world.node(node).load;
    let rng = sim.rng.stream("ctrl.open");
    let s = lognormal_sample(rng, OPEN_MEDIAN_S.ln(), OPEN_SIGMA);
    SimDuration::from_secs_f64(BASE_LATENCY_S + s * (1.0 + 3.0 * load))
}

/// Sample the latency of dispatching a command to `node`.
pub fn cmd_delay(sim: &mut Sim<ClusterWorld>, node: NodeId) -> SimDuration {
    let cmd_mu = sim.world.cfg.ctrl.cmd_mu;
    let load = sim.world.node(node).load;
    let rng = sim.rng.stream("ctrl.cmd");
    let s = lognormal_sample(rng, cmd_mu, CMD_SIGMA);
    SimDuration::from_secs_f64(BASE_LATENCY_S + s * (1.0 + 3.0 * load))
}

/// True when the control path to `node` is severed by a partition window
/// right now.
pub(crate) fn partitioned(sim: &Sim<ClusterWorld>, node: NodeId) -> bool {
    sim.world
        .faults
        .active("control.partition", Some(node.0 as u64), sim.now())
        .is_some()
}

/// Run `action` on `node` after `delay`, unless the node is down by then.
///
/// Fault injection: the message is lost at dispatch if a `control.partition`
/// window covers the node or a `control.drop` roll fires, and lost at
/// arrival if a partition has started while it was in flight. Losses are
/// silent, like an ssh session into a dead management network — the caller
/// only notices through its own timeouts, which is exactly the failure the
/// hardened coordinator's ack/abort protocol exists to survive.
pub fn ctrl_call(
    sim: &mut Sim<ClusterWorld>,
    node: NodeId,
    delay: SimDuration,
    action: impl FnOnce(&mut Sim<ClusterWorld>) + 'static,
) {
    if partitioned(sim, node) {
        sim.world.faults.note_injected("control.partition");
        sim.emit(Event::Fault(FaultEvent::Injected {
            what: "control.partition",
        }));
        sim.emit(Event::Fault(FaultEvent::CtrlPartitioned {
            node: node.0,
            in_flight: false,
        }));
        return;
    }
    let now = sim.now();
    let rng = sim.rng.stream("fault.control");
    if sim
        .world
        .faults
        .roll("control.drop", Some(node.0 as u64), now, rng)
    {
        sim.emit(Event::Fault(FaultEvent::Injected {
            what: "control.drop",
        }));
        sim.emit(Event::Fault(FaultEvent::CtrlDropped { node: node.0 }));
        return;
    }
    sim.schedule_in(delay, move |sim| {
        if partitioned(sim, node) {
            sim.world.faults.note_injected("control.partition");
            sim.emit(Event::Fault(FaultEvent::Injected {
                what: "control.partition",
            }));
            sim.emit(Event::Fault(FaultEvent::CtrlPartitioned {
                node: node.0,
                in_flight: true,
            }));
            return;
        }
        if sim.world.node(node).up {
            action(sim);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ClusterBuilder;

    fn sim() -> Sim<ClusterWorld> {
        Sim::new(ClusterBuilder::new().nodes_per_cluster(4).build(5), 5)
    }

    #[test]
    fn delays_are_positive_and_heavy_tailed() {
        let mut sim = sim();
        let mut ds: Vec<f64> = (0..2000)
            .map(|_| open_delay(&mut sim, NodeId(1)).as_secs_f64())
            .collect();
        ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ds[ds.len() / 2];
        let p99 = ds[(ds.len() as f64 * 0.99) as usize];
        assert!(median > 0.3 && median < 1.0, "median {median}");
        assert!(
            p99 > 2.0 * median,
            "tail too light: p99 {p99} median {median}"
        );
    }

    #[test]
    fn load_inflates_latency() {
        let mut sim = sim();
        let base: f64 = (0..500)
            .map(|_| cmd_delay(&mut sim, NodeId(1)).as_secs_f64())
            .sum::<f64>()
            / 500.0;
        sim.world.node_mut(NodeId(2)).load = 0.8;
        let loaded: f64 = (0..500)
            .map(|_| cmd_delay(&mut sim, NodeId(2)).as_secs_f64())
            .sum::<f64>()
            / 500.0;
        assert!(
            loaded > base * 2.0,
            "load 0.8 should ~3.4× latency: {base} -> {loaded}"
        );
    }

    #[test]
    fn ctrl_call_runs_unless_node_died() {
        let mut sim = sim();
        sim.world.ext.insert(0u64);
        ctrl_call(&mut sim, NodeId(1), SimDuration::from_secs(1), |sim| {
            *sim.world.ext.get_mut::<u64>().unwrap() += 1;
        });
        ctrl_call(&mut sim, NodeId(2), SimDuration::from_secs(1), |sim| {
            *sim.world.ext.get_mut::<u64>().unwrap() += 10;
        });
        // Node 2 dies before the command lands.
        sim.schedule_in(SimDuration::from_millis(500), |sim| {
            sim.world.node_mut(NodeId(2)).up = false;
        });
        sim.run_to_completion(100);
        assert_eq!(*sim.world.ext.get::<u64>().unwrap(), 1);
    }

    #[test]
    fn partition_window_severs_control_to_target_only() {
        use dvc_sim_core::SimTime;
        let mut sim = sim();
        sim.world.ext.insert(0u64);
        sim.world.faults.window(
            "control.partition",
            Some(2),
            SimTime::ZERO,
            SimTime::from_secs(10),
            1.0,
        );
        ctrl_call(&mut sim, NodeId(2), SimDuration::from_secs(1), |sim| {
            *sim.world.ext.get_mut::<u64>().unwrap() += 10;
        });
        ctrl_call(&mut sim, NodeId(1), SimDuration::from_secs(1), |sim| {
            *sim.world.ext.get_mut::<u64>().unwrap() += 1;
        });
        // After the window lifts, node 2 is reachable again.
        sim.schedule_at(SimTime::from_secs(11), |sim| {
            ctrl_call(sim, NodeId(2), SimDuration::from_secs(1), |sim| {
                *sim.world.ext.get_mut::<u64>().unwrap() += 100;
            });
        });
        sim.run_to_completion(100);
        assert_eq!(*sim.world.ext.get::<u64>().unwrap(), 101);
        assert!(sim.world.faults.injected_total() >= 1);
    }

    #[test]
    fn partition_starting_mid_flight_eats_the_message() {
        use dvc_sim_core::SimTime;
        let mut sim = sim();
        sim.world.ext.insert(0u64);
        // Dispatch at t=0 (healthy), arrival at t=1 falls inside the window.
        sim.world.faults.window(
            "control.partition",
            Some(1),
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs(5),
            1.0,
        );
        ctrl_call(&mut sim, NodeId(1), SimDuration::from_secs(1), |sim| {
            *sim.world.ext.get_mut::<u64>().unwrap() += 1;
        });
        sim.run_to_completion(100);
        assert_eq!(*sim.world.ext.get::<u64>().unwrap(), 0);
    }

    #[test]
    fn control_drop_probability_one_loses_everything() {
        let mut sim = sim();
        sim.world.ext.insert(0u64);
        sim.world.faults.steady("control.drop", 1.0);
        for n in 1..4 {
            ctrl_call(&mut sim, NodeId(n), SimDuration::from_secs(1), |sim| {
                *sim.world.ext.get_mut::<u64>().unwrap() += 1;
            });
        }
        sim.run_to_completion(100);
        assert_eq!(*sim.world.ext.get::<u64>().unwrap(), 0);
        assert_eq!(sim.world.faults.injected_total(), 3);
    }
}

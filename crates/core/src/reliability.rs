//! Reliability management: periodic checkpointing + automatic recovery.
//!
//! This is the paper's thesis operationalized: "If a single physical node
//! dies, we can restart a checkpoint of the entire virtual cluster on a
//! different set of physical nodes" — plus the §4 integration with the
//! resource manager. The checkpoint cadence is either fixed or Young's
//! optimum √(2·C·MTBF), with C continuously re-estimated from measured
//! checkpoint cost.

use crate::lsc::{self, LscMethod};
use crate::vc::{self, VcId};
use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{Event, FastMap, NtpEvent, Sim, SimDuration};
use dvc_vmm::VmState;

/// Checkpoint cadence policy.
#[derive(Clone, Copy, Debug)]
pub enum Cadence {
    /// No periodic checkpoints (failures lose everything).
    None,
    Fixed(SimDuration),
    /// Young's optimum for the given node MTBF; falls back to `initial`
    /// until a checkpoint cost has been measured.
    Young {
        mtbf: SimDuration,
        initial: SimDuration,
    },
}

/// Reliability policy for one virtual cluster.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    pub cadence: Cadence,
    pub method: LscMethod,
    /// Give up after this many recoveries.
    pub max_restores: u32,
    /// Health-scan period (failure detection latency).
    pub scan_every: SimDuration,
    /// Degrade a [`LscMethod::Hardened`] checkpoint to the clock-free
    /// [`LscMethod::HardenedNaive`] protocol whenever any member host
    /// hasn't completed an NTP exchange for this long (the coordinator
    /// can't trust local-clock fire instants then). Recovery back to the
    /// scheduled protocol is automatic once sync returns.
    pub degrade_on_stale_sync: Option<SimDuration>,
    /// Recover from the newest *intact* generation instead of blindly the
    /// newest one (multi-generation fallback on corrupt images).
    pub restore_fallback: bool,
}

impl Policy {
    pub fn periodic(interval: SimDuration) -> Self {
        Policy {
            cadence: Cadence::Fixed(interval),
            method: LscMethod::ntp_default(),
            max_restores: 16,
            scan_every: SimDuration::from_secs(5),
            degrade_on_stale_sync: None,
            restore_fallback: false,
        }
    }

    /// The full failure-aware pipeline: hardened coordination, degradation
    /// to clock-free mode on stale NTP sync, and intact-generation
    /// fallback restores.
    pub fn hardened(interval: SimDuration) -> Self {
        Policy {
            cadence: Cadence::Fixed(interval),
            method: LscMethod::hardened_default(),
            max_restores: 16,
            scan_every: SimDuration::from_secs(5),
            degrade_on_stale_sync: Some(SimDuration::from_secs(30)),
            restore_fallback: true,
        }
    }
}

/// Young's optimal checkpoint interval √(2·C·M).
pub(crate) fn young_interval(ckpt_cost: SimDuration, mtbf: SimDuration) -> SimDuration {
    SimDuration::from_secs_f64((2.0 * ckpt_cost.as_secs_f64() * mtbf.as_secs_f64()).sqrt())
}

/// Per-VC reliability statistics (experiment output).
#[derive(Clone, Copy, Debug, Default)]
pub struct RelStats {
    pub checkpoints_ok: u32,
    pub checkpoints_failed: u32,
    /// Checkpoints taken in clock-free degraded mode (stale NTP sync).
    pub degraded_checkpoints: u32,
    pub restores: u32,
    pub lost: bool,
}

struct RelState {
    policy: Policy,
    last_cost: Option<SimDuration>,
    stats: RelStats,
    active: bool,
    busy: bool,
}

#[derive(Default)]
struct RelMgrs(FastMap<VcId, RelState>);

fn mgrs(sim: &mut Sim<ClusterWorld>) -> &mut RelMgrs {
    sim.world.ext.get_or_default::<RelMgrs>()
}

/// Start managing `vc_id` under `policy`. An initial checkpoint is taken
/// right away — a job with no set yet cannot be recovered at all, so the
/// window before the first periodic tick is the riskiest of the run.
pub fn manage(sim: &mut Sim<ClusterWorld>, vc_id: VcId, policy: Policy) {
    mgrs(sim).0.insert(
        vc_id,
        RelState {
            policy,
            last_cost: None,
            stats: RelStats::default(),
            active: true,
            busy: false,
        },
    );
    if !matches!(policy.cadence, Cadence::None) {
        checkpoint_now(sim, vc_id, false);
    }
    schedule_ckpt_tick(sim, vc_id);
    schedule_scan(sim, vc_id);
}

/// The method to use right now: the configured one, or its clock-free
/// degradation when NTP sync has gone stale on any member host. The head
/// node is the time reference itself and never counts as stale.
fn effective_method(sim: &Sim<ClusterWorld>, vc_id: VcId, policy: Policy) -> (LscMethod, bool) {
    let Some(stale_after) = policy.degrade_on_stale_sync else {
        return (policy.method, false);
    };
    let LscMethod::Hardened {
        lead,
        max_attempts,
        verify_fraction,
        ..
    } = policy.method
    else {
        return (policy.method, false);
    };
    let Some(v) = vc::vc(sim, vc_id) else {
        return (policy.method, false);
    };
    let head = sim.world.head;
    let stale = v
        .hosts
        .iter()
        .any(|&h| h != head && ntp::sync_age(sim, h).is_none_or(|a| a > stale_after));
    if stale {
        (
            LscMethod::HardenedNaive {
                ack_timeout: lead,
                max_attempts,
                verify_fraction,
            },
            true,
        )
    } else {
        (policy.method, false)
    }
}

/// Take a checkpoint now if the VC is managed, idle and healthy. The
/// periodic caller passes `then_tick`: the next tick is scheduled when this
/// one is skipped, or once its checkpoint ends.
fn checkpoint_now(sim: &mut Sim<ClusterWorld>, vc_id: VcId, then_tick: bool) {
    let (active, busy, policy) = {
        let Some(st) = mgrs(sim).0.get(&vc_id) else {
            return;
        };
        (st.active, st.busy, st.policy)
    };
    if !active {
        return;
    }
    if busy || !vc_healthy(sim, vc_id) {
        // A checkpoint or recovery is in flight, or the VC is down; try
        // again next tick.
        if then_tick {
            schedule_ckpt_tick(sim, vc_id);
        }
        return;
    }
    let (method, degraded) = effective_method(sim, vc_id, policy);
    if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
        st.busy = true;
        if degraded {
            st.stats.degraded_checkpoints += 1;
        }
    }
    if degraded {
        sim.emit(Event::Ntp(NtpEvent::SyncStale { vc: vc_id.0 }));
    }
    lsc::checkpoint_vc(sim, vc_id, method, move |sim, outcome| {
        if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
            st.busy = false;
            if outcome.success {
                st.stats.checkpoints_ok += 1;
                st.last_cost = Some(outcome.total_duration);
            } else {
                st.stats.checkpoints_failed += 1;
            }
        }
        // Keep a bounded history of sets.
        vc::store(sim).prune(vc_id, 2);
        if then_tick {
            schedule_ckpt_tick(sim, vc_id);
        }
    });
}

/// Stop managing (e.g. the job finished).
pub fn stop(sim: &mut Sim<ClusterWorld>, vc_id: VcId) {
    if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
        st.active = false;
    }
}

/// Statistics accessor.
pub fn stats(sim: &mut Sim<ClusterWorld>, vc_id: VcId) -> RelStats {
    mgrs(sim).0.get(&vc_id).map(|s| s.stats).unwrap_or_default()
}

fn current_interval(st: &RelState) -> Option<SimDuration> {
    match st.policy.cadence {
        Cadence::None => None,
        Cadence::Fixed(d) => Some(d),
        Cadence::Young { mtbf, initial } => Some(match st.last_cost {
            Some(c) => young_interval(c, mtbf),
            None => initial,
        }),
    }
}

fn schedule_ckpt_tick(sim: &mut Sim<ClusterWorld>, vc_id: VcId) {
    let Some(st) = mgrs(sim).0.get(&vc_id) else {
        return;
    };
    if !st.active {
        return;
    }
    let Some(interval) = current_interval(st) else {
        return;
    };
    sim.schedule_in(interval, move |sim| checkpoint_now(sim, vc_id, true));
}

fn vc_healthy(sim: &Sim<ClusterWorld>, vc_id: VcId) -> bool {
    let Some(v) = vc::vc(sim, vc_id) else {
        return false;
    };
    v.vms
        .iter()
        .all(|&vm| sim.world.vm(vm).is_some_and(|x| x.state != VmState::Dead))
        && v.hosts.iter().all(|&h| sim.world.node(h).up)
}

fn schedule_scan(sim: &mut Sim<ClusterWorld>, vc_id: VcId) {
    let Some(st) = mgrs(sim).0.get(&vc_id) else {
        return;
    };
    if !st.active {
        return;
    }
    let every = st.policy.scan_every;
    sim.schedule_in(every, move |sim| {
        let (active, busy) = {
            let Some(st) = mgrs(sim).0.get(&vc_id) else {
                return;
            };
            (st.active, st.busy)
        };
        if !active {
            return;
        }
        if !busy && !vc_healthy(sim, vc_id) {
            recover(sim, vc_id);
        }
        schedule_scan(sim, vc_id);
    });
}

/// Pick replacement hosts: up nodes, fewest domains first, stable order.
fn pick_targets(sim: &Sim<ClusterWorld>, n: usize, avoid_down: bool) -> Option<Vec<NodeId>> {
    let mut candidates: Vec<NodeId> = sim
        .world
        .nodes
        .iter()
        .filter(|node| !avoid_down || node.up)
        .map(|node| node.id)
        .collect();
    candidates.sort_by_key(|&id| (sim.world.node(id).domains.len(), id.0));
    if candidates.len() < n {
        return None;
    }
    Some(candidates[..n].to_vec())
}

/// Restore the latest (or latest *intact*, with `restore_fallback`) set
/// onto fresh hosts.
fn recover(sim: &mut Sim<ClusterWorld>, vc_id: VcId) {
    let (allowed, restores, fallback) = {
        let Some(st) = mgrs(sim).0.get_mut(&vc_id) else {
            return;
        };
        if st.busy {
            return;
        }
        st.busy = true;
        (
            st.policy.max_restores,
            st.stats.restores,
            st.policy.restore_fallback,
        )
    };
    let set_id = if fallback {
        vc::store(sim).latest_intact_for(vc_id).map(|s| s.id)
    } else {
        vc::store(sim).latest_for(vc_id).map(|s| s.id)
    };
    let n = vc::vc(sim, vc_id).map(|v| v.vms.len()).unwrap_or(0);
    let give_up = |sim: &mut Sim<ClusterWorld>| {
        if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
            st.stats.lost = true;
            st.active = false;
            st.busy = false;
        }
    };
    if restores >= allowed {
        give_up(sim);
        return;
    }
    let Some(set_id) = set_id else {
        give_up(sim);
        return;
    };
    let Some(targets) = pick_targets(sim, n, true) else {
        give_up(sim);
        return;
    };
    if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
        st.stats.restores += 1;
    }
    let started = lsc::restore_vc(
        sim,
        set_id,
        targets,
        SimDuration::from_secs(5),
        move |sim, _out| {
            // A failed restore leaves the VC unhealthy: the scan tries
            // again (counting against the budget).
            if let Some(st) = mgrs(sim).0.get_mut(&vc_id) {
                st.busy = false;
            }
        },
    );
    if started.is_err() {
        give_up(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_interval_matches_formula() {
        let c = SimDuration::from_secs(50);
        let m = SimDuration::from_secs(10_000);
        let tau = young_interval(c, m);
        assert!((tau.as_secs_f64() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn young_interval_shrinks_with_mtbf() {
        let c = SimDuration::from_secs(30);
        let t1 = young_interval(c, SimDuration::from_secs(100_000));
        let t2 = young_interval(c, SimDuration::from_secs(1_000));
        assert!(t2 < t1);
    }
}

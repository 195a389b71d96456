//! The concrete simulation world: clusters of nodes, VMs, fabric, storage.

use crate::ext::Extensions;
use crate::node::{ClusterId, Node, NodeId};
use crate::rm::ResourceManager;
use crate::storage::SharedStorage;
use dvc_net::addr::{PhysAddr, VirtAddr};
use dvc_net::fabric::{Fabric, LinkParams, NetWorld, SwitchId};
use dvc_net::packet::Packet;
use dvc_net::tcp::TcpConfig;
use dvc_net::NicId;
use dvc_sim_core::{EventHandle, FastMap, FaultPlan, Sim, SimDuration};
use dvc_time::clock::HwClock;
use dvc_vmm::{OverheadProfile, Vm, VmId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Control-channel latency model (see `control.rs` for semantics and the
/// fixed parameters).
#[derive(Clone, Copy, Debug)]
pub struct ControlCfg {
    /// Log-normal μ of command dispatch + remote service (seconds).
    pub cmd_mu: f64,
}

/// Bounded-retry policy for shared-storage transfers (the hardened
/// checkpoint pipeline's answer to transient storage failures).
#[derive(Clone, Copy, Debug)]
pub struct StorageRetryCfg {
    /// Total attempts per transfer (1 = no retry, the unhardened baseline).
    pub max_attempts: u32,
}

impl Default for StorageRetryCfg {
    fn default() -> Self {
        StorageRetryCfg { max_attempts: 4 }
    }
}

impl Default for ControlCfg {
    fn default() -> Self {
        ControlCfg {
            cmd_mu: (0.35f64).ln(),
        }
    }
}

/// Oscillator drift σ of a node's hardware clock, ppm.
const CLOCK_DRIFT_SIGMA_PPM: f64 = 30.0;

/// World-wide configuration knobs.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    pub guest_tcp: TcpConfig,
    /// Guest watchdog period, ns.
    pub watchdog_period_ns: i64,
    pub vm_overhead: OverheadProfile,
    pub ctrl: ControlCfg,
    /// Boot-time clock offsets are uniform in ±this many ms.
    pub clock_max_offset_ms: f64,
    /// Retry policy for checkpoint storage transfers.
    pub storage_retry: StorageRetryCfg,
}

impl WorldConfig {
    /// The guest-TCP silence budget this world's transport tolerates:
    /// `rto_min · (2^max_data_retries − 1)` — the span of exponential
    /// backoff a peer sits through before aborting the connection. This is
    /// the budget the LSC window invariant is checked against
    /// ([`dvc_sim_core::InvariantChecker`]); deriving it from the actual
    /// TCP config matters once scenarios randomize `max_data_retries`
    /// instead of using the default 4-retry ≈3 s constant.
    pub fn silence_budget(&self) -> SimDuration {
        let spread = (1u64 << self.guest_tcp.max_data_retries.min(40)) - 1;
        SimDuration(self.guest_tcp.rto_min_ns.max(0) as u64 * spread)
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            guest_tcp: TcpConfig::default(),
            watchdog_period_ns: 30_000_000_000,
            vm_overhead: OverheadProfile::PARAVIRT,
            ctrl: ControlCfg::default(),
            clock_max_offset_ms: 250.0,
            storage_retry: StorageRetryCfg::default(),
        }
    }
}

/// Static description of one cluster.
#[derive(Clone, Debug)]
pub struct ClusterInfo {
    pub id: ClusterId,
    pub switch: SwitchId,
    pub nodes: Vec<NodeId>,
}

/// The whole simulated testbed.
pub struct ClusterWorld {
    pub cfg: WorldConfig,
    pub nodes: Vec<Node>,
    pub clusters: Vec<ClusterInfo>,
    /// Domains by VmId index (`None` after destruction).
    pub vms: Vec<Option<Vm>>,
    /// Current placement of each live domain.
    pub vm_host: FastMap<VmId, NodeId>,
    /// Virtual address → domain (the DVC overlay's directory).
    pub vaddr_vm: FastMap<VirtAddr, VmId>,
    pub fabric: Fabric,
    pub storage: SharedStorage,
    /// The run's fault-injection schedule (empty by default). Install a
    /// populated plan with [`crate::faults::install_fault_plan`] so window-
    /// driven effects (brownouts, clock steps) get their boundary events.
    pub faults: FaultPlan,
    pub rm: ResourceManager,
    /// Layer-private state from `dvc-core` and experiment harnesses.
    pub ext: Extensions,
    /// Head node: NTP server, control-plane origin.
    pub head: NodeId,
    /// Reverse map NIC → owning node (packet delivery dispatch).
    pub nic_node: FastMap<NicId, NodeId>,
    /// Armed guest events per domain, indexed by `VmId` (see [`VmArms`]).
    arms: Vec<VmArms>,
    next_vaddr: u32,
}

/// The events `glue` keeps armed for one domain: its TCP timer interrupt
/// and one poll per guest process. Re-arming cancels the previous handle
/// instead of leaving it in the heap to fire as a stale no-op; a firing
/// event clears its own slot.
#[derive(Default)]
pub(crate) struct VmArms {
    pub(crate) timer: Option<EventHandle>,
    polls: Vec<Option<EventHandle>>,
}

impl VmArms {
    /// The poll slot of guest process `idx`.
    pub(crate) fn poll(&mut self, idx: usize) -> &mut Option<EventHandle> {
        if self.polls.len() <= idx {
            self.polls.resize(idx + 1, None);
        }
        &mut self.polls[idx]
    }
}

impl ClusterWorld {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(id.0 as usize).and_then(|v| v.as_ref())
    }

    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms.get_mut(id.0 as usize).and_then(|v| v.as_mut())
    }

    /// The armed-event slots of `vm`.
    pub(crate) fn arms(&mut self, vm: VmId) -> &mut VmArms {
        let i = vm.0 as usize;
        if self.arms.len() <= i {
            self.arms.resize_with(i + 1, VmArms::default);
        }
        &mut self.arms[i]
    }

    pub(crate) fn alloc_vaddr(&mut self) -> VirtAddr {
        let a = VirtAddr(self.next_vaddr);
        self.next_vaddr += 1;
        a
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Nodes of one cluster.
    pub fn cluster_nodes(&self, c: ClusterId) -> &[NodeId] {
        &self.clusters[c.0 as usize].nodes
    }
}

impl NetWorld for ClusterWorld {
    fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
    fn deliver(sim: &mut Sim<Self>, nic: NicId, pkt: Packet) {
        crate::glue::deliver(sim, nic, pkt);
    }
}

/// Builds a multi-cluster world: one switch per cluster, nodes behind LAN
/// edges, cluster switches joined to cluster 0 by WAN-ish trunks, shared
/// storage attached at the head.
pub struct ClusterBuilder {
    n_clusters: usize,
    nodes_per_cluster: usize,
    storage_agg_bps: f64,
    storage_stream_bps: f64,
    cfg: WorldConfig,
    perfect_clocks: bool,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    pub fn new() -> Self {
        ClusterBuilder {
            n_clusters: 1,
            nodes_per_cluster: 4,
            storage_agg_bps: 400.0e6,
            storage_stream_bps: 110.0e6,
            cfg: WorldConfig::default(),
            perfect_clocks: false,
        }
    }

    pub fn clusters(mut self, n: usize) -> Self {
        self.n_clusters = n.max(1);
        self
    }

    pub fn nodes_per_cluster(mut self, n: usize) -> Self {
        self.nodes_per_cluster = n.max(1);
        self
    }

    pub fn storage(mut self, agg_bps: f64, stream_bps: f64) -> Self {
        self.storage_agg_bps = agg_bps;
        self.storage_stream_bps = stream_bps;
        self
    }

    pub fn tweak(mut self, f: impl FnOnce(&mut WorldConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Disable clock imperfections (tests that don't exercise NTP).
    pub fn perfect_clocks(mut self) -> Self {
        self.perfect_clocks = true;
        self
    }

    pub fn build(self, seed: u64) -> ClusterWorld {
        let mut rng = SmallRng::seed_from_u64(dvc_sim_core::rng::splitmix64(seed ^ 0xC10C));
        let mut fabric = Fabric::new();
        let mut nodes = Vec::new();
        let mut clusters = Vec::new();

        let mut switches = Vec::new();
        for _ in 0..self.n_clusters {
            switches.push(fabric.add_switch());
        }
        for c in 1..self.n_clusters {
            fabric.connect_switches(switches[0], switches[c], LinkParams::campus_wan());
        }

        for (c, &cluster_switch) in switches.iter().enumerate().take(self.n_clusters) {
            let mut members = Vec::new();
            for _ in 0..self.nodes_per_cluster {
                let id = NodeId(nodes.len() as u32);
                let addr = PhysAddr(id.0);
                let nic = fabric.add_nic(cluster_switch, LinkParams::gige_lan());
                fabric.bind(addr.into(), nic);
                let clock = if self.perfect_clocks {
                    HwClock::perfect()
                } else {
                    HwClock::random(
                        &mut rng,
                        self.cfg.clock_max_offset_ms,
                        CLOCK_DRIFT_SIGMA_PPM,
                    )
                };
                nodes.push(Node::new(id, ClusterId(c as u32), addr, nic, clock));
                members.push(id);
            }
            clusters.push(ClusterInfo {
                id: ClusterId(c as u32),
                switch: cluster_switch,
                nodes: members,
            });
        }

        let nic_node = nodes.iter().map(|n| (n.nic, n.id)).collect();
        ClusterWorld {
            cfg: self.cfg,
            nodes,
            clusters,
            vms: Vec::new(),
            vm_host: FastMap::default(),
            vaddr_vm: FastMap::default(),
            fabric,
            storage: SharedStorage::new(self.storage_agg_bps, self.storage_stream_bps),
            faults: FaultPlan::none(),
            rm: ResourceManager::new(),
            ext: Extensions::new(),
            head: NodeId(0),
            nic_node,
            arms: Vec::new(),
            next_vaddr: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_budget_tracks_the_retry_schedule() {
        let mut cfg = WorldConfig::default();
        cfg.guest_tcp.rto_min_ns = 200_000_000;
        cfg.guest_tcp.max_data_retries = 4;
        // 200 ms · (2^4 − 1) = 3 s — the default-world constant.
        assert_eq!(cfg.silence_budget(), SimDuration::from_secs(3));
        cfg.guest_tcp.max_data_retries = 6;
        assert_eq!(cfg.silence_budget(), SimDuration::from_millis(12_600));
    }

    #[test]
    fn builder_lays_out_multi_cluster_topology() {
        let w = ClusterBuilder::new()
            .clusters(3)
            .nodes_per_cluster(4)
            .build(1);
        assert_eq!(w.nodes.len(), 12);
        assert_eq!(w.clusters.len(), 3);
        assert_eq!(w.cluster_nodes(ClusterId(2)).len(), 4);
        // Every node's address resolves on the fabric.
        for n in &w.nodes {
            assert_eq!(w.fabric.lookup(n.addr.into()), Some(n.nic));
        }
        // Node→cluster assignment is consistent.
        for (c, info) in w.clusters.iter().enumerate() {
            for &nid in &info.nodes {
                assert_eq!(w.node(nid).cluster.0 as usize, c);
            }
        }
    }

    #[test]
    fn clocks_are_imperfect_by_default_and_perfect_on_request() {
        let w = ClusterBuilder::new().nodes_per_cluster(8).build(3);
        let worst = w
            .nodes
            .iter()
            .map(|n| n.clock.error_ns(dvc_sim_core::SimTime::ZERO).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.0, "expected imperfect clocks");
        assert!(worst <= 250.0e6);

        let w = ClusterBuilder::new()
            .nodes_per_cluster(8)
            .perfect_clocks()
            .build(3);
        for n in &w.nodes {
            assert_eq!(n.clock.error_ns(dvc_sim_core::SimTime::ZERO), 0.0);
        }
    }

    #[test]
    fn vaddr_allocation_is_sequential() {
        let mut w = ClusterBuilder::new().build(1);
        assert_eq!(w.alloc_vaddr(), VirtAddr(0));
        assert_eq!(w.alloc_vaddr(), VirtAddr(1));
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = ClusterBuilder::new().nodes_per_cluster(6).build(9);
        let b = ClusterBuilder::new().nodes_per_cluster(6).build(9);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(
                x.clock.error_ns(dvc_sim_core::SimTime::ZERO),
                y.clock.error_ns(dvc_sim_core::SimTime::ZERO)
            );
        }
        let c = ClusterBuilder::new().nodes_per_cluster(6).build(10);
        let same = a.nodes.iter().zip(&c.nodes).all(|(x, y)| {
            x.clock.error_ns(dvc_sim_core::SimTime::ZERO)
                == y.clock.error_ns(dvc_sim_core::SimTime::ZERO)
        });
        assert!(!same, "different seeds must differ");
    }
}

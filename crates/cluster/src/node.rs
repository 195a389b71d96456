//! Physical nodes.

use dvc_net::addr::{NicId, PhysAddr};
use dvc_net::udp::UdpStack;
use dvc_sim_core::SimTime;
use dvc_time::clock::HwClock;
use dvc_time::ntp::Discipline;
use dvc_vmm::VmId;

/// Physical node identifier (index into `ClusterWorld::nodes`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Cluster identifier (index into `ClusterWorld::clusters`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u32);

/// A physical cluster node.
pub struct Node {
    pub id: NodeId,
    pub cluster: ClusterId,
    pub addr: PhysAddr,
    pub nic: NicId,
    /// Drifting hardware clock; guests read this (time is not virtualized).
    pub clock: HwClock,
    /// The node's NTP client state.
    pub ntp: Discipline,
    /// True time of the last successful NTP exchange (a reply arrived and
    /// passed the filter). `None` until first sync. Coordinators use this to
    /// detect lost clock synchronization and degrade their scheduling mode.
    pub ntp_last_sync: Option<SimTime>,
    pub up: bool,
    /// Background load ∈ [0, 1); inflates control-plane service latency
    /// ("this implementation does not take into account a heavily loaded
    /// server which may not be able to service a checkpoint request
    /// immediately" — paper §3.1, which we model and sweep in E12).
    pub load: f64,
    /// Domains currently placed on this node.
    pub domains: Vec<VmId>,
    /// dom0 UDP endpoint (NTP and other host services).
    pub host_udp: UdpStack,
    /// Crash/repair counters for diagnostics.
    pub crashes: u32,
}

impl Node {
    pub fn new(id: NodeId, cluster: ClusterId, addr: PhysAddr, nic: NicId, clock: HwClock) -> Self {
        Node {
            id,
            cluster,
            addr,
            nic,
            clock,
            ntp: Discipline::new(),
            ntp_last_sync: None,
            up: true,
            load: 0.0,
            domains: Vec::new(),
            host_udp: UdpStack::new(addr.into()),
            crashes: 0,
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Node({:?} c{} {:?} up={} domains={})",
            self.id,
            self.cluster.0,
            self.addr,
            self.up,
            self.domains.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvc_time::clock::HwClock;

    #[test]
    fn node_basics() {
        let n = Node::new(
            NodeId(3),
            ClusterId(0),
            PhysAddr(3),
            NicId(3),
            HwClock::perfect(),
        );
        assert!(n.up);
        assert_eq!(n.domains.len(), 0);
        assert_eq!(n.load, 0.0);
        assert!(format!("{n:?}").contains("Node"));
    }
}

//! # dvc-suite
//!
//! Facade crate for the Dynamic Virtual Clustering (DVC) reproduction —
//! *Increasing Reliability through Dynamic Virtual Clustering* (Emeneker &
//! Stanzione, IEEE CLUSTER 2007) — rebuilt as a deterministic simulation.
//!
//! Layer map (bottom → top):
//!
//! | crate | role |
//! |---|---|
//! | [`sim_core`] | deterministic discrete-event engine, RNG streams, stats |
//! | [`timebase`] | drifting hardware clocks + NTP discipline |
//! | [`net`] | switched fabric, UDP, and a full TCP implementation |
//! | [`vmm`] | Xen-like domains: snapshot/restore, watchdog, overhead |
//! | [`cluster`] | nodes, shared storage, control plane, failures, RM |
//! | [`mpi`] | rank runtime + collectives over guest TCP |
//! | [`workloads`] | HPL-like LU, PTRANS-like transpose, STREAM, ring |
//! | [`dvc`] | **the contribution**: virtual clusters + LSC + reliability |
//!
//! The [`scenarios`] module assembles ready-made testbeds so examples and
//! integration tests read like the paper's experiment descriptions.

pub use dvc_cluster as cluster;
pub use dvc_core as dvc;
pub use dvc_mpi as mpi;
pub use dvc_net as net;
pub use dvc_sim_core as sim_core;
pub use dvc_time as timebase;
pub use dvc_vmm as vmm;
pub use dvc_workloads as workloads;

/// Commonly used items, glob-importable.
pub mod prelude {
    pub use dvc_cluster::node::NodeId;
    pub use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
    pub use dvc_core::lsc::{LscMethod, LscOutcome};
    pub use dvc_core::vc::{VcId, VcSpec};
    pub use dvc_mpi::harness::MpiJob;
    pub use dvc_sim_core::{Sim, SimDuration, SimTime};
}

pub mod scenarios {
    //! Ready-made testbeds and job launchers.

    use crate::prelude::*;
    use dvc_cluster::ntp;
    use dvc_mpi::data::RankData;
    use dvc_mpi::harness;
    use dvc_mpi::ops::Op;
    use dvc_sim_core::Sim;

    /// Testbed shape.
    #[derive(Clone, Copy, Debug)]
    pub struct Testbed {
        pub clusters: usize,
        pub nodes_per_cluster: usize,
        pub seed: u64,
        /// Guest TCP data-retry budget (DESIGN.md §2 calibration).
        pub tcp_retries: u32,
        /// Boot-time clock error bound, ms (ntpdate-stepped clocks: small).
        pub clock_offset_ms: f64,
    }

    impl Default for Testbed {
        fn default() -> Self {
            Testbed {
                clusters: 1,
                nodes_per_cluster: 8,
                seed: 42,
                tcp_retries: 4,
                clock_offset_ms: 5.0,
            }
        }
    }

    /// Build the world and start NTP on it.
    pub fn testbed(t: Testbed) -> Sim<ClusterWorld> {
        let mut sim = Sim::new(
            ClusterBuilder::new()
                .clusters(t.clusters)
                .nodes_per_cluster(t.nodes_per_cluster)
                .tweak(|c| {
                    c.guest_tcp.max_data_retries = t.tcp_retries;
                    c.clock_max_offset_ms = t.clock_offset_ms;
                })
                .build(t.seed),
            t.seed,
        );
        ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
        sim
    }

    /// Provision a VC on `hosts` and run the sim until it is up.
    pub fn provision_and_wait(
        sim: &mut Sim<ClusterWorld>,
        spec: VcSpec,
        hosts: Vec<NodeId>,
    ) -> VcId {
        let id = dvc_core::vc::provision_vc(sim, spec, hosts, |_s, _id| {});
        let up = sim.run_until(SimTime::NEVER, |sim| {
            dvc_core::vc::vc(sim, id).map(|v| v.state) == Some(dvc_core::vc::VcState::Up)
        });
        assert!(up, "provisioning stalled");
        id
    }

    /// Launch `program` on a VC's vnodes (one rank per vnode).
    pub fn launch_on_vc(
        sim: &mut Sim<ClusterWorld>,
        vc: VcId,
        program: impl Fn(usize, usize) -> (Vec<Op>, RankData),
    ) -> MpiJob {
        let vms = dvc_core::vc::vc(sim, vc).expect("vc").vms.clone();
        harness::launch_on_vms(sim, &vms, program)
    }
}

//! Scenario builders and trial drivers shared by the experiments.

use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_core::lsc::{self, LscFaults, LscMethod, LscOutcome};
use dvc_core::vc::{self, VcId, VcSpec};
use dvc_mpi::harness::{self, MpiJob};
use dvc_sim_core::{Sim, SimDuration, SimTime};
use dvc_vmm::OverheadProfile;
use dvc_workloads::ring;

/// One trial's world parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrialWorld {
    /// VC size (vnodes / job nodes).
    pub nodes: usize,
    /// Extra spare nodes beyond the head + job nodes.
    pub spares: usize,
    pub clusters: usize,
    pub seed: u64,
    /// Guest TCP retry budget (effective silence tolerance ≈
    /// `rto_min · (2^retries − 1)`; 4 → ≈3 s to reach the abort count).
    pub tcp_retries: u32,
    /// Boot-time clock error bound, ms.
    pub clock_offset_ms: f64,
    /// Median of the naive coordinator's per-node command service time, s
    /// (the E2 calibration constant; see DESIGN.md §2).
    pub cmd_median_s: f64,
    /// VM memory footprint (checkpoint image size), MB.
    pub mem_mb: u32,
    pub overhead: OverheadProfile,
    /// Shared storage: aggregate and per-stream bandwidth, bytes/s.
    pub storage_agg: f64,
    pub storage_stream: f64,
    /// Per-agent arm-fault probability (E4).
    pub arm_loss: f64,
    /// Guest watchdog period, seconds (E8 shrinks it).
    pub watchdog_period_s: f64,
    /// Run NTP daemons (E12b disables them to expose raw clock error).
    pub ntp: bool,
}

impl Default for TrialWorld {
    fn default() -> Self {
        TrialWorld {
            nodes: 8,
            spares: 2,
            clusters: 1,
            seed: 1,
            tcp_retries: 4,
            clock_offset_ms: 5.0,
            cmd_median_s: 0.28,
            mem_mb: 64,
            overhead: OverheadProfile::PARAVIRT,
            storage_agg: 400.0e6,
            storage_stream: 110.0e6,
            arm_loss: 0.0,
            watchdog_period_s: 30.0,
            ntp: true,
        }
    }
}

impl TrialWorld {
    /// Build the world (NTP running) and provision a VC on nodes
    /// `1..=nodes`, running the sim until the VC is up.
    pub fn build(self) -> (Sim<ClusterWorld>, VcId) {
        let per_cluster = (1 + self.nodes + self.spares).div_ceil(self.clusters);
        let mut sim = Sim::new(
            ClusterBuilder::new()
                .clusters(self.clusters)
                .nodes_per_cluster(per_cluster)
                .storage(self.storage_agg, self.storage_stream)
                .tweak(|c| {
                    c.guest_tcp.max_data_retries = self.tcp_retries;
                    c.clock_max_offset_ms = self.clock_offset_ms;
                    c.vm_overhead = self.overhead;
                    c.ctrl.cmd_mu = self.cmd_median_s.ln();
                    c.watchdog_period_ns = (self.watchdog_period_s * 1e9) as i64;
                })
                .build(self.seed),
            self.seed,
        );
        if self.ntp {
            ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
        }
        if self.arm_loss > 0.0 {
            lsc::set_faults(
                &mut sim,
                LscFaults {
                    arm_loss_prob: self.arm_loss,
                },
            );
        }
        let hosts: Vec<NodeId> = (1..=self.nodes as u32).map(NodeId).collect();
        let mut spec = VcSpec::new("trial-vc", self.nodes, self.mem_mb);
        spec.os_image_bytes = 32 << 20;
        spec.boot_time = SimDuration::from_secs(5);
        let id = vc::provision_vc(&mut sim, spec, hosts, |_s, _i| {});
        let up = sim.run_until(SimTime::NEVER, |sim| {
            vc::vc(sim, id).map(|v| v.state) == Some(vc::VcState::Up)
        });
        assert!(up, "provisioning stalled");
        (sim, id)
    }
}

/// Launch the standard checkpoint-stress ring: 32 KiB per hop, ~100 ms of
/// compute per lap, effectively endless (`laps`).
pub fn ring_load(sim: &mut Sim<ClusterWorld>, vc_id: VcId, laps: u64) -> MpiJob {
    let cfg = ring::RingConfig {
        payload_len: 1024,
        iters: laps,
        compute_ns: 200_000_000,
    };
    let vms = vc::vc(sim, vc_id).unwrap().vms.clone();
    harness::launch_on_vms(sim, &vms, move |r, s| ring::program(cfg, r, s))
}

/// Sparse (ring-hinted) variant for very large VCs.
pub fn ring_load_sparse(sim: &mut Sim<ClusterWorld>, vc_id: VcId, laps: u64) -> MpiJob {
    let cfg = ring::RingConfig {
        payload_len: 1024,
        iters: laps,
        compute_ns: 200_000_000,
    };
    let vms = vc::vc(sim, vc_id).unwrap().vms.clone();
    harness::launch_ranks(
        sim,
        vms,
        move |r, s| ring::program(cfg, r, s),
        Some(harness::ring_hint),
    )
}

/// Execute `cycles` sequential checkpoint(+resume) cycles, `gap` apart,
/// synchronously collecting the outcomes.
pub fn run_cycles(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    method: LscMethod,
    cycles: u32,
    gap: SimDuration,
) -> Vec<LscOutcome> {
    let mut outs = Vec::new();
    for _ in 0..cycles {
        let at = sim.now() + gap;
        let out = sim.await_reply(SimTime::from_secs_f64(1e7), |sim, reply| {
            sim.schedule_at(at, move |sim| {
                lsc::checkpoint_vc(sim, vc_id, method, reply);
            });
        });
        match out {
            Some(out) => outs.push(out),
            None => break, // sim drained (job crashed and nothing is scheduled)
        }
    }
    outs
}

/// Post-trial application verdict for a ring job.
pub struct AppVerdict {
    /// No rank observed a socket error or crashed.
    pub alive: bool,
    /// All per-lap payload checks passed so far.
    pub data_ok: bool,
    /// Laps completed by rank 0 (progress proof).
    pub laps_done: u64,
}

pub fn ring_verdict(sim: &Sim<ClusterWorld>, job: &MpiJob) -> AppVerdict {
    let alive = harness::first_failure(sim, job).is_none();
    let mut data_ok = true;
    let mut laps = 0;
    if alive {
        for r in 0..job.size {
            let d = &harness::rank(sim, job, r).data;
            if d.u64("ring.errors") != 0 {
                data_ok = false;
            }
            if r == 0 {
                laps = d.u64("ring.iter");
            }
        }
    } else {
        data_ok = false;
    }
    AppVerdict {
        alive,
        data_ok,
        laps_done: laps,
    }
}

/// Let post-checkpoint transport fallout surface: run `settle` longer.
pub fn settle(sim: &mut Sim<ClusterWorld>, settle: SimDuration) {
    sim.run_until(sim.now() + settle, |_| false);
}

/// A full single-checkpoint trial on a ring load: returns (vm_ok && app
/// survived && data intact, outcome).
pub fn one_cycle_trial(tw: TrialWorld, method: LscMethod) -> (bool, Option<LscOutcome>) {
    let (mut sim, vc_id) = tw.build();
    let job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    // Let the job and NTP warm up.
    settle(&mut sim, SimDuration::from_secs(30));
    let outs = run_cycles(&mut sim, vc_id, method, 1, SimDuration::from_secs(1));
    // Give the transport time to abort if the skew overran the budget.
    settle(&mut sim, SimDuration::from_secs(45));
    let v = ring_verdict(&sim, &job);
    let out = outs.into_iter().next();
    let ok = out.as_ref().is_some_and(|o| o.success) && v.alive && v.data_ok;
    (ok, out)
}

//! Launch helpers: put an MPI program onto a set of VMs.
//!
//! One rank per VM; VMs are placed round-robin onto the given physical
//! nodes. Returns a handle used to query progress, extract results, and —
//! by the DVC layer — to checkpoint the whole set.

use crate::data::RankData;
use crate::ops::Op;
use crate::runtime::MpiRuntime;
use dvc_cluster::glue::{create_vm, spawn_proc};
use dvc_cluster::node::NodeId;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{Event, MpiEvent, Sim, SimTime};
use dvc_vmm::VmId;

/// Peak double-precision rate of every node (a 2007-era dual-core node),
/// used to convert workload flops to time.
const NODE_GFLOPS: f64 = 8.0;

/// A launched MPI job.
#[derive(Clone, Debug)]
pub struct MpiJob {
    /// `vms[i]` hosts rank i.
    pub vms: Vec<VmId>,
    pub size: usize,
}

/// Create `n_ranks` VMs (round-robin over `nodes`) and start `program(rank)`
/// in each. The per-rank program builder receives `(rank, size)`.
pub fn launch(
    sim: &mut Sim<ClusterWorld>,
    nodes: &[NodeId],
    n_ranks: usize,
    mem_mb: u32,
    program: impl Fn(usize, usize) -> (Vec<Op>, RankData),
) -> MpiJob {
    let vms = place_vms(sim, nodes, n_ranks, mem_mb);
    launch_ranks(sim, vms, program, None)
}

/// Start `program(rank, size)` on an *existing* set of VMs (one rank per
/// VM) — e.g. the vnodes of a provisioned virtual cluster. The rank map is
/// taken from the VMs' virtual addresses in order.
pub fn launch_on_vms(
    sim: &mut Sim<ClusterWorld>,
    vms: &[VmId],
    program: impl Fn(usize, usize) -> (Vec<Op>, RankData),
) -> MpiJob {
    launch_ranks(sim, vms.to_vec(), program, None)
}

/// Like [`launch`], but with a sparse connectivity hint: `hint(rank, size)`
/// names the only peers each rank talks to (e.g. [`ring_hint`]), avoiding
/// a full mesh on very large jobs.
pub fn launch_hinted(
    sim: &mut Sim<ClusterWorld>,
    nodes: &[NodeId],
    n_ranks: usize,
    mem_mb: u32,
    program: impl Fn(usize, usize) -> (Vec<Op>, RankData),
    hint: fn(usize, usize) -> Vec<usize>,
) -> MpiJob {
    let vms = place_vms(sim, nodes, n_ranks, mem_mb);
    launch_ranks(sim, vms, program, Some(hint))
}

/// Create `n_ranks` single-vCPU VMs, round-robin over `nodes`.
fn place_vms(
    sim: &mut Sim<ClusterWorld>,
    nodes: &[NodeId],
    n_ranks: usize,
    mem_mb: u32,
) -> Vec<VmId> {
    assert!(!nodes.is_empty());
    (0..n_ranks)
        .map(|i| create_vm(sim, nodes[i % nodes.len()], mem_mb, 1))
        .collect()
}

/// The one rank-spawn loop: rank `i` runs `program(i, size)` on `vms[i]`,
/// addressing its peers through the VMs' virtual addresses. With a `hint`,
/// each rank connects only to the peers `hint(rank, size)` names.
pub fn launch_ranks(
    sim: &mut Sim<ClusterWorld>,
    vms: Vec<VmId>,
    program: impl Fn(usize, usize) -> (Vec<Op>, RankData),
    hint: Option<fn(usize, usize) -> Vec<usize>>,
) -> MpiJob {
    let n_ranks = vms.len();
    let map: Vec<dvc_net::Addr> = vms
        .iter()
        .map(|&vm| sim.world.vm(vm).expect("vm exists").guest.addr)
        .collect();
    for (rank, &vm) in vms.iter().enumerate() {
        let (ops, data) = program(rank, n_ranks);
        let mut rt = MpiRuntime::new(rank, n_ranks, map.clone(), NODE_GFLOPS, ops, data);
        if let Some(hint) = hint {
            rt = rt.with_peer_hint(hint(rank, n_ranks));
        }
        spawn_proc(sim, vm, format!("rank{rank}"), Box::new(rt));
    }
    sim.emit(Event::Mpi(MpiEvent::JobLaunched {
        ranks: n_ranks as u32,
    }));
    MpiJob { vms, size: n_ranks }
}

/// The ring-neighbour hint: `{rank−1, rank+1} mod size`.
pub fn ring_hint(rank: usize, size: usize) -> Vec<usize> {
    if size <= 1 {
        return vec![];
    }
    vec![(rank + 1) % size, (rank + size - 1) % size]
}

/// Borrow rank `r`'s runtime (panics if the VM or process is gone).
pub fn rank<'a>(sim: &'a Sim<ClusterWorld>, job: &MpiJob, r: usize) -> &'a MpiRuntime {
    let vm = sim.world.vm(job.vms[r]).expect("rank VM missing");
    vm.guest.procs[0]
        .app
        .as_any()
        .downcast_ref::<MpiRuntime>()
        .expect("proc 0 is the MPI runtime")
}

/// True when every rank finished successfully.
pub fn all_done(sim: &Sim<ClusterWorld>, job: &MpiJob) -> bool {
    job.vms.iter().all(|&vm| {
        sim.world
            .vm(vm)
            .is_some_and(|v| v.is_running() && v.guest.all_done())
    })
}

/// First failure across ranks, if any: (rank, error).
pub fn first_failure(sim: &Sim<ClusterWorld>, job: &MpiJob) -> Option<(usize, String)> {
    for (r, &vm) in job.vms.iter().enumerate() {
        match sim.world.vm(vm) {
            None => return Some((r, "vm destroyed".into())),
            Some(v) => {
                if v.state == dvc_vmm::VmState::Dead {
                    return Some((r, "vm dead".into()));
                }
                if let Some((_, err)) = v.guest.first_failure() {
                    return Some((r, err.to_string()));
                }
            }
        }
    }
    None
}

/// Run the sim until the job completes, fails, or the horizon passes.
/// Returns `Ok(completion_time)` or `Err(description)`.
pub fn run_job(
    sim: &mut Sim<ClusterWorld>,
    job: &MpiJob,
    horizon: SimTime,
) -> Result<SimTime, String> {
    sim.run_until(horizon, |sim| {
        all_done(sim, job) || first_failure(sim, job).is_some()
    });
    if all_done(sim, job) {
        return Ok(sim.now());
    }
    if let Some((r, e)) = first_failure(sim, job) {
        return Err(format!("rank {r}: {e}"));
    }
    if sim.now() > horizon {
        return Err(format!(
            "horizon exceeded at {} (remaining ops: {:?})",
            sim.now(),
            (0..job.size)
                .map(|r| rank(sim, job, r).remaining_ops())
                .collect::<Vec<_>>()
        ));
    }
    Err("event queue drained before completion".into())
}

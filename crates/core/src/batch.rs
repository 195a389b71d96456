//! Batch integration: DVC jobs through the resource manager.
//!
//! The paper's §4: "Much work needs to be done … including integration with
//! resource managers and schedulers like Torque and Moab." This module is
//! that integration: a user submits an *MPI program* (not VMs); the RM
//! queues it, allocates physical nodes under a placement policy, DVC
//! provisions a virtual cluster on them (staging images, booting), the
//! program runs one rank per vnode under an optional reliability policy,
//! and completion releases the nodes back to the scheduler.

use crate::reliability::{self, Policy};
use crate::vc::{self, VcId, VcSpec};
use dvc_cluster::rm::{self, JobId, JobSpec, Placement};
use dvc_cluster::world::ClusterWorld;
use dvc_mpi::data::RankData;
use dvc_mpi::harness;
use dvc_mpi::ops::Op;
use dvc_sim_core::{FastMap, Sim, SimDuration};

/// A batch DVC job: an MPI program plus its virtual-cluster shape.
pub struct DvcJobSpec {
    pub name: String,
    /// vnodes = ranks (one rank per vnode).
    pub vnodes: usize,
    pub mem_mb: u32,
    pub placement: Placement,
    /// Scheduler walltime estimate.
    pub est_duration: SimDuration,
    /// Per-rank program builder.
    pub program: Box<dyn Fn(usize, usize) -> (Vec<Op>, RankData)>,
    /// Optional reliability management while the job runs.
    pub reliability: Option<Policy>,
    /// Horizon after which a running job is killed (walltime limit × slack).
    pub kill_after: SimDuration,
}

/// Lifecycle of a batch DVC job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DvcJobState {
    Queued,
    Provisioning,
    Running,
    Completed,
    Failed,
    Killed,
}

/// Tracking record, queryable by the submitter.
#[derive(Clone, Debug)]
pub struct DvcJobStatus {
    pub rm_job: JobId,
    pub state: DvcJobState,
    pub vc: Option<VcId>,
    pub detail: String,
}

#[derive(Default)]
struct BatchState {
    jobs: FastMap<JobId, DvcJobStatus>,
    mpi: FastMap<JobId, harness::MpiJob>,
}

fn batch(sim: &mut Sim<ClusterWorld>) -> &mut BatchState {
    sim.world.ext.get_or_default::<BatchState>()
}

/// Submit a DVC batch job. Returns the RM job id for status queries.
pub fn submit_dvc_job(sim: &mut Sim<ClusterWorld>, spec: DvcJobSpec) -> JobId {
    let DvcJobSpec {
        name,
        vnodes,
        mem_mb,
        placement,
        est_duration,
        program,
        reliability: rel,
        kill_after,
    } = spec;
    let rm_spec = JobSpec {
        name: name.clone(),
        nodes: vnodes,
        est_duration,
        placement,
    };
    // The launcher runs when the scheduler assigns nodes.
    let id = rm::submit(sim, rm_spec, move |sim, job_id, nodes| {
        if let Some(st) = batch(sim).jobs.get_mut(&job_id) {
            st.state = DvcJobState::Provisioning;
        }
        let mut vc_spec = VcSpec::new(name.clone(), nodes.len(), mem_mb);
        vc_spec.os_image_bytes = 64 << 20;
        vc_spec.boot_time = SimDuration::from_secs(10);
        let program = program; // move the builder into the ready callback
        vc::provision_vc(sim, vc_spec, nodes, move |sim, vc_id| {
            if let Some(st) = batch(sim).jobs.get_mut(&job_id) {
                st.state = DvcJobState::Running;
                st.vc = Some(vc_id);
            }
            let vms = vc::vc(sim, vc_id).unwrap().vms.clone();
            let mpi_job = harness::launch_on_vms(sim, &vms, program);
            batch(sim).mpi.insert(job_id, mpi_job);
            if let Some(policy) = rel {
                reliability::manage(sim, vc_id, policy);
            }
            watch_job(sim, job_id, vc_id, kill_after);
        });
    });
    batch(sim).jobs.insert(
        id,
        DvcJobStatus {
            rm_job: id,
            state: DvcJobState::Queued,
            vc: None,
            detail: String::new(),
        },
    );
    id
}

/// Poll the job every few seconds: completion, failure, or walltime kill.
fn watch_job(sim: &mut Sim<ClusterWorld>, job_id: JobId, vc_id: VcId, kill_after: SimDuration) {
    let deadline = sim.now() + kill_after;
    fn tick(
        sim: &mut Sim<ClusterWorld>,
        job_id: JobId,
        vc_id: VcId,
        deadline: dvc_sim_core::SimTime,
    ) {
        let Some(mpi_job) = batch(sim).mpi.get(&job_id).cloned() else {
            return;
        };
        let rel_active = {
            // A managed job in recovery shows transient failures; only the
            // reliability layer's verdict ("lost") is terminal then.
            let s = reliability::stats(sim, vc_id);
            !s.lost && (s.restores > 0 || s.checkpoints_ok > 0 || s.checkpoints_failed > 0)
        };
        let lost = reliability::stats(sim, vc_id).lost;

        if harness::all_done(sim, &mpi_job) {
            finish(sim, job_id, vc_id, DvcJobState::Completed, "ok".into());
            return;
        }
        if lost {
            finish(
                sim,
                job_id,
                vc_id,
                DvcJobState::Failed,
                "unrecoverable".into(),
            );
            return;
        }
        if let Some((rank, err)) = harness::first_failure(sim, &mpi_job) {
            if !rel_active {
                finish(
                    sim,
                    job_id,
                    vc_id,
                    DvcJobState::Failed,
                    format!("rank {rank}: {err}"),
                );
                return;
            }
        }
        if sim.now() > deadline {
            finish(sim, job_id, vc_id, DvcJobState::Killed, "walltime".into());
            return;
        }
        sim.schedule_in(SimDuration::from_secs(5), move |sim| {
            tick(sim, job_id, vc_id, deadline)
        });
    }
    tick(sim, job_id, vc_id, deadline);
}

fn finish(
    sim: &mut Sim<ClusterWorld>,
    job_id: JobId,
    vc_id: VcId,
    state: DvcJobState,
    detail: String,
) {
    reliability::stop(sim, vc_id);
    vc::teardown_vc(sim, vc_id);
    if let Some(st) = batch(sim).jobs.get_mut(&job_id) {
        st.state = state;
        st.detail = detail;
    }
    rm::complete_job(sim, job_id, state == DvcJobState::Completed);
}

/// Status of a batch DVC job.
pub fn job_status(sim: &mut Sim<ClusterWorld>, id: JobId) -> Option<DvcJobStatus> {
    batch(sim).jobs.get(&id).cloned()
}

/// Borrow the MPI job handle of a running/finished batch job.
pub fn mpi_job(sim: &mut Sim<ClusterWorld>, id: JobId) -> Option<harness::MpiJob> {
    batch(sim).mpi.get(&id).cloned()
}

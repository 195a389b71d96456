//! The resource manager: a Torque/Moab-flavoured batch scheduler.
//!
//! FIFO queue with EASY backfill, node allocation that can stay within one
//! cluster or span clusters (DVC goal 3), and a node crash failing the jobs
//! running on it. E11 runs its job mix through it. The paper's §4 leaves
//! "integration with resource managers and schedulers like Torque and Moab"
//! to future work, and the model follows it: no virtual cluster is
//! provisioned through this scheduler.

use crate::node::{ClusterId, NodeId};
use crate::world::ClusterWorld;
use dvc_sim_core::{Event, FastMap, FastSet, RmEvent, Sim, SimDuration, SimTime};
use std::collections::VecDeque;

/// Batch job identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// Where a job's nodes may come from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// All nodes from any *single* cluster.
    SingleCluster,
    /// All nodes from the given cluster.
    Cluster(ClusterId),
    /// Nodes may span clusters (requires DVC to homogenize the stack).
    AllowSpan,
}

/// A job request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub nodes: usize,
    /// User walltime estimate (drives backfill reservations).
    pub est_duration: SimDuration,
    pub placement: Placement,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    Failed,
}

/// A job record.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    pub state: JobState,
    pub started: Option<SimTime>,
    pub assigned: Vec<NodeId>,
}

type Launcher = Box<dyn FnOnce(&mut Sim<ClusterWorld>, JobId, Vec<NodeId>)>;

/// Scheduler state (a field of the world).
pub struct ResourceManager {
    pub jobs: FastMap<JobId, Job>,
    queue: VecDeque<JobId>,
    busy: FastSet<NodeId>,
    launchers: FastMap<JobId, Launcher>,
    next_id: u64,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceManager {
    pub fn new() -> Self {
        ResourceManager {
            jobs: FastMap::default(),
            queue: VecDeque::new(),
            busy: FastSet::default(),
            launchers: FastMap::default(),
            next_id: 1,
        }
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Called when a node crashes: running jobs that used it fail and free
    /// their nodes. A repaired node needs no call: the next scheduling pass
    /// sees it up and not busy.
    pub(crate) fn note_node_down(&mut self, node: NodeId) {
        self.busy.remove(&node);
        for j in self.jobs.values_mut() {
            if j.state == JobState::Running && j.assigned.contains(&node) {
                j.state = JobState::Failed;
                for n in &j.assigned {
                    self.busy.remove(n);
                }
            }
        }
    }
}

/// Submit a job; `launcher` runs when the scheduler starts it.
pub fn submit(
    sim: &mut Sim<ClusterWorld>,
    spec: JobSpec,
    launcher: impl FnOnce(&mut Sim<ClusterWorld>, JobId, Vec<NodeId>) + 'static,
) -> JobId {
    let rm = &mut sim.world.rm;
    let id = JobId(rm.next_id);
    rm.next_id += 1;
    rm.jobs.insert(
        id,
        Job {
            id,
            spec,
            state: JobState::Queued,
            started: None,
            assigned: Vec::new(),
        },
    );
    rm.queue.push_back(id);
    rm.launchers.insert(id, Box::new(launcher));
    sim.emit(Event::Rm(RmEvent::JobQueued { job: id.0 }));
    try_schedule(sim);
    id
}

/// Free nodes (up and not busy), per cluster.
fn free_by_cluster(world: &ClusterWorld) -> Vec<Vec<NodeId>> {
    world
        .clusters
        .iter()
        .map(|c| {
            c.nodes
                .iter()
                .copied()
                .filter(|&n| world.node(n).up && !world.rm.busy.contains(&n))
                .collect()
        })
        .collect()
}

/// Try to allocate nodes for a spec from the current free set.
fn allocate(world: &ClusterWorld, spec: &JobSpec) -> Option<Vec<NodeId>> {
    let free = free_by_cluster(world);
    match spec.placement {
        Placement::Cluster(c) => {
            let f = &free[c.0 as usize];
            (f.len() >= spec.nodes).then(|| f[..spec.nodes].to_vec())
        }
        Placement::SingleCluster => free
            .iter()
            .find(|f| f.len() >= spec.nodes)
            .map(|f| f[..spec.nodes].to_vec()),
        Placement::AllowSpan => {
            let total: usize = free.iter().map(|f| f.len()).sum();
            if total < spec.nodes {
                return None;
            }
            // Prefer a single cluster; otherwise take greedily from the
            // fullest clusters to minimize the span.
            if let Some(f) = free.iter().find(|f| f.len() >= spec.nodes) {
                return Some(f[..spec.nodes].to_vec());
            }
            let mut order: Vec<&Vec<NodeId>> = free.iter().collect();
            order.sort_by_key(|f| std::cmp::Reverse(f.len()));
            let mut out = Vec::with_capacity(spec.nodes);
            for f in order {
                for &n in f {
                    if out.len() == spec.nodes {
                        break;
                    }
                    out.push(n);
                }
            }
            Some(out)
        }
    }
}

/// Scheduling pass: FIFO head first; EASY backfill behind a blocked head.
pub(crate) fn try_schedule(sim: &mut Sim<ClusterWorld>) {
    loop {
        let Some(&head) = sim.world.rm.queue.front() else {
            return;
        };
        let spec = sim.world.rm.jobs[&head].spec.clone();
        if let Some(nodes) = allocate(&sim.world, &spec) {
            sim.world.rm.queue.pop_front();
            start_job(sim, head, nodes);
            continue;
        }
        // Head is blocked: EASY backfill behind its reservation.
        backfill_pass(sim, head, &spec);
        return;
    }
}

/// EASY backfill: compute the head job's shadow time (earliest instant its
/// allocation fits, assuming running jobs end at their estimates), then
/// start any later queued job that fits now without pushing the head past
/// its shadow time.
fn backfill_pass(sim: &mut Sim<ClusterWorld>, _head: JobId, head_spec: &JobSpec) {
    let now = sim.now();
    // Free count now and release schedule of running jobs.
    let free_now: usize = free_by_cluster(&sim.world).iter().map(|f| f.len()).sum();
    let mut releases: Vec<(SimTime, usize)> = sim
        .world
        .rm
        .jobs
        .values()
        .filter(|j| j.state == JobState::Running)
        .map(|j| {
            let end = j.started.unwrap_or(now) + j.spec.est_duration;
            (end.max(now), j.assigned.len())
        })
        .collect();
    releases.sort();
    let mut avail = free_now;
    let mut shadow = SimTime::NEVER;
    let mut avail_at_shadow = 0usize;
    for (t, n) in releases {
        avail += n;
        if avail >= head_spec.nodes {
            shadow = t;
            avail_at_shadow = avail;
            break;
        }
    }
    sim.emit(Event::Rm(RmEvent::BackfillReservation {
        head_job: _head.0,
        shadow,
    }));
    // Nodes spare even after the head starts at shadow time.
    let extra = avail_at_shadow.saturating_sub(head_spec.nodes);

    let candidates: Vec<JobId> = sim.world.rm.queue.iter().skip(1).copied().collect();
    for cand in candidates {
        let spec = sim.world.rm.jobs[&cand].spec.clone();
        let fits_now = allocate(&sim.world, &spec);
        let Some(nodes) = fits_now else { continue };
        let ends_before_shadow = now + spec.est_duration <= shadow;
        let within_extra = spec.nodes <= extra;
        if ends_before_shadow || within_extra {
            sim.world.rm.queue.retain(|&j| j != cand);
            sim.emit(Event::Rm(RmEvent::BackfillStarted { job: cand.0 }));
            start_job(sim, cand, nodes);
        }
    }
}

fn start_job(sim: &mut Sim<ClusterWorld>, id: JobId, nodes: Vec<NodeId>) {
    let now = sim.now();
    {
        let rm = &mut sim.world.rm;
        let j = rm.jobs.get_mut(&id).expect("starting unknown job");
        j.state = JobState::Running;
        j.started = Some(now);
        j.assigned = nodes.clone();
        for &n in &nodes {
            rm.busy.insert(n);
        }
    }
    sim.emit(Event::Rm(RmEvent::JobStarted {
        job: id.0,
        nodes: nodes.iter().map(|n| n.0).collect(),
    }));
    if let Some(launcher) = sim.world.rm.launchers.remove(&id) {
        launcher(sim, id, nodes);
    }
}

/// Mark a running job completed, free its nodes, reschedule.
pub fn complete_job(sim: &mut Sim<ClusterWorld>, id: JobId) {
    {
        let rm = &mut sim.world.rm;
        let Some(j) = rm.jobs.get_mut(&id) else {
            return;
        };
        if j.state != JobState::Running {
            return;
        }
        j.state = JobState::Completed;
        let assigned = j.assigned.clone();
        for n in assigned {
            rm.busy.remove(&n);
        }
    }
    sim.emit(Event::Rm(RmEvent::JobCompleted { job: id.0 }));
    try_schedule(sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ClusterBuilder;

    fn sim(clusters: usize, nodes: usize) -> Sim<ClusterWorld> {
        Sim::new(
            ClusterBuilder::new()
                .clusters(clusters)
                .nodes_per_cluster(nodes)
                .build(11),
            11,
        )
    }

    fn spec(nodes: usize, est_s: u64, placement: Placement) -> JobSpec {
        JobSpec {
            nodes,
            est_duration: SimDuration::from_secs(est_s),
            placement,
        }
    }

    /// Record (job, started-at, node-count) into ext.
    fn recording_launcher() -> impl FnOnce(&mut Sim<ClusterWorld>, JobId, Vec<NodeId>) {
        |sim, id, nodes| {
            let t = sim.now().as_secs_f64();
            sim.world
                .ext
                .get_or_default::<Vec<(JobId, f64, usize)>>()
                .push((id, t, nodes.len()));
        }
    }

    #[test]
    fn fifo_start_and_completion_frees_nodes() {
        let mut sim = sim(1, 4);
        let a = submit(
            &mut sim,
            spec(3, 100, Placement::SingleCluster),
            recording_launcher(),
        );
        let b = submit(
            &mut sim,
            spec(3, 100, Placement::SingleCluster),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(a).unwrap().state, JobState::Running);
        assert_eq!(sim.world.rm.job(b).unwrap().state, JobState::Queued);
        complete_job(&mut sim, a);
        assert_eq!(sim.world.rm.job(a).unwrap().state, JobState::Completed);
        assert_eq!(sim.world.rm.job(b).unwrap().state, JobState::Running);
        assert_eq!(sim.world.rm.busy.len(), 3);
    }

    #[test]
    fn easy_backfill_starts_small_job_behind_blocked_head() {
        let mut sim = sim(1, 4);
        // A takes 3 nodes for 100 s; head B needs 4 (blocked); C needs 1
        // node for 10 s → backfills into the idle node.
        let _a = submit(
            &mut sim,
            spec(3, 100, Placement::SingleCluster),
            recording_launcher(),
        );
        let b = submit(
            &mut sim,
            spec(4, 50, Placement::SingleCluster),
            recording_launcher(),
        );
        let c = submit(
            &mut sim,
            spec(1, 10, Placement::SingleCluster),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(b).unwrap().state, JobState::Queued);
        assert_eq!(
            sim.world.rm.job(c).unwrap().state,
            JobState::Running,
            "C should backfill"
        );
        assert_eq!(sim.world.rm.busy.len(), 4);
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let mut sim = sim(1, 4);
        // A: 3 nodes, ends at t=100 (shadow for the 4-node head B).
        // C wants the idle node for 200 s — starting it would push B.
        let _a = submit(
            &mut sim,
            spec(3, 100, Placement::SingleCluster),
            recording_launcher(),
        );
        let b = submit(
            &mut sim,
            spec(4, 50, Placement::SingleCluster),
            recording_launcher(),
        );
        let c = submit(
            &mut sim,
            spec(1, 200, Placement::SingleCluster),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(c).unwrap().state, JobState::Queued);
        assert_eq!(sim.world.rm.job(b).unwrap().state, JobState::Queued);
    }

    #[test]
    fn single_cluster_placement_rejects_fragmented_space() {
        let mut sim = sim(2, 4);
        // Occupy 2 nodes in each cluster: 4 free total, max 2 contiguous.
        let _fill1 = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(0))),
            recording_launcher(),
        );
        let _fill2 = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(1))),
            recording_launcher(),
        );
        let narrow = submit(
            &mut sim,
            spec(3, 10, Placement::SingleCluster),
            recording_launcher(),
        );
        let wide = submit(
            &mut sim,
            spec(3, 10, Placement::AllowSpan),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(narrow).unwrap().state, JobState::Queued);
        // AllowSpan backfills across the two clusters.
        assert_eq!(sim.world.rm.job(wide).unwrap().state, JobState::Running);
        let w = sim.world.rm.job(wide).unwrap();
        let c0: usize = w
            .assigned
            .iter()
            .filter(|&&n| sim.world.node(n).cluster == ClusterId(0))
            .count();
        assert!(c0 > 0 && c0 < 3, "must actually span: {c0} in cluster 0");
    }

    #[test]
    fn spanning_head_is_not_starved_by_backfill() {
        let mut sim = sim(2, 3);
        // A pins 2 nodes of cluster 0 until t=100; B pins all of cluster 1
        // until t=40. One node (in cluster 0) is free.
        let _a = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(0))),
            recording_launcher(),
        );
        let b = submit(
            &mut sim,
            spec(3, 40, Placement::Cluster(ClusterId(1))),
            recording_launcher(),
        );
        // Head H needs 4 nodes spanning clusters: blocked, shadow = t=40
        // (B's release gives 1 + 3 ≥ 4) with zero spare nodes at shadow.
        let h = submit(
            &mut sim,
            spec(4, 50, Placement::AllowSpan),
            recording_launcher(),
        );
        // C wants the free node far past the shadow: starting it would
        // push the spanning head — EASY must hold it back.
        let c = submit(
            &mut sim,
            spec(1, 200, Placement::SingleCluster),
            recording_launcher(),
        );
        // D fits entirely before the shadow: legitimate backfill.
        let d = submit(
            &mut sim,
            spec(1, 10, Placement::SingleCluster),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(h).unwrap().state, JobState::Queued);
        assert_eq!(
            sim.world.rm.job(c).unwrap().state,
            JobState::Queued,
            "long filler would delay the spanning head past its shadow"
        );
        assert_eq!(
            sim.world.rm.job(d).unwrap().state,
            JobState::Running,
            "short filler backfills without touching the head's reservation"
        );
        // B releases cluster 1: still only 3 free (D holds the 4th), so the
        // spanning head keeps waiting rather than starting short.
        complete_job(&mut sim, b);
        assert_eq!(sim.world.rm.job(h).unwrap().state, JobState::Queued);
        complete_job(&mut sim, d);
        let job_h = sim.world.rm.job(h).unwrap();
        assert_eq!(job_h.state, JobState::Running);
        let in_c1 = job_h
            .assigned
            .iter()
            .filter(|&&n| sim.world.node(n).cluster == ClusterId(1))
            .count();
        assert!(
            in_c1 > 0 && in_c1 < 4,
            "head must actually span clusters: {in_c1} of 4 in cluster 1"
        );
    }

    #[test]
    fn spanning_allocation_respects_per_cluster_accounting() {
        let mut sim = sim(2, 3);
        // Fragment the free space: 2 busy in each cluster, 1 free in each.
        let fill0 = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(0))),
            recording_launcher(),
        );
        let fill1 = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(1))),
            recording_launcher(),
        );
        let span = submit(
            &mut sim,
            spec(2, 10, Placement::AllowSpan),
            recording_launcher(),
        );
        let job = sim.world.rm.job(span).unwrap().clone();
        assert_eq!(job.state, JobState::Running);
        // Exactly one node from each cluster, disjoint from the fillers,
        // every assigned node accounted busy.
        for c in [ClusterId(0), ClusterId(1)] {
            let in_c = job
                .assigned
                .iter()
                .filter(|&&n| sim.world.node(n).cluster == c)
                .count();
            assert_eq!(in_c, 1, "one node from each cluster");
        }
        let mut all: Vec<NodeId> = job.assigned.clone();
        all.extend(&sim.world.rm.job(fill0).unwrap().assigned);
        all.extend(&sim.world.rm.job(fill1).unwrap().assigned);
        let uniq: FastSet<NodeId> = all.iter().copied().collect();
        assert_eq!(uniq.len(), all.len(), "no node is double-assigned");
        assert_eq!(sim.world.rm.busy.len(), 6);
        for &n in &job.assigned {
            assert!(sim.world.rm.busy.contains(&n));
        }
        // Completion frees exactly the spanning job's nodes, in both
        // clusters, so pinned jobs can start in either.
        complete_job(&mut sim, span);
        assert_eq!(sim.world.rm.busy.len(), 4);
        let pinned = submit(
            &mut sim,
            spec(1, 10, Placement::Cluster(ClusterId(1))),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(pinned).unwrap().state, JobState::Running);
    }

    #[test]
    fn spanning_job_backfills_behind_a_blocked_head() {
        let mut sim = sim(2, 3);
        // 1 node free in each cluster; the head needs 3 in one cluster.
        let _fill0 = submit(
            &mut sim,
            spec(2, 30, Placement::Cluster(ClusterId(0))),
            recording_launcher(),
        );
        let _fill1 = submit(
            &mut sim,
            spec(2, 100, Placement::Cluster(ClusterId(1))),
            recording_launcher(),
        );
        let head = submit(
            &mut sim,
            spec(3, 50, Placement::SingleCluster),
            recording_launcher(),
        );
        // Spanning 2-node candidate that finishes before the head's shadow
        // (t=30): it may take the two cross-cluster leftovers.
        let span = submit(
            &mut sim,
            spec(2, 10, Placement::AllowSpan),
            recording_launcher(),
        );
        assert_eq!(sim.world.rm.job(head).unwrap().state, JobState::Queued);
        assert_eq!(
            sim.world.rm.job(span).unwrap().state,
            JobState::Running,
            "spanning candidate must be allowed to backfill fragmented space"
        );
        assert_eq!(sim.world.rm.busy.len(), 6);
    }

    #[test]
    fn node_crash_fails_running_jobs_and_frees_the_rest() {
        let mut sim = sim(1, 4);
        let a = submit(
            &mut sim,
            spec(3, 100, Placement::SingleCluster),
            recording_launcher(),
        );
        let victim = sim.world.rm.job(a).unwrap().assigned[0];
        crate::failure::crash_node(&mut sim, victim);
        assert_eq!(sim.world.rm.job(a).unwrap().state, JobState::Failed);
        assert_eq!(sim.world.rm.busy.len(), 0);
    }

    #[test]
    fn node_loss_fails_every_running_job_on_the_node() {
        // The scheduler never shares a node, so co-located running jobs are
        // set up by hand.
        let mut rm = ResourceManager::new();
        let node = NodeId(0);
        for (id, state, assigned) in [
            (7, JobState::Running, vec![node]),
            (3, JobState::Running, vec![NodeId(1), node]),
            (9, JobState::Completed, vec![node]),
            (5, JobState::Running, vec![NodeId(2)]),
            (1, JobState::Running, vec![node]),
            (4, JobState::Running, vec![node]),
        ] {
            let id = JobId(id);
            rm.jobs.insert(
                id,
                Job {
                    id,
                    spec: spec(assigned.len(), 10, Placement::AllowSpan),
                    state,
                    started: Some(SimTime::ZERO),
                    assigned,
                },
            );
        }
        rm.note_node_down(node);
        for id in [1, 3, 4, 7] {
            assert_eq!(rm.job(JobId(id)).unwrap().state, JobState::Failed);
        }
        assert_eq!(rm.job(JobId(5)).unwrap().state, JobState::Running);
        assert_eq!(rm.job(JobId(9)).unwrap().state, JobState::Completed);
    }
}

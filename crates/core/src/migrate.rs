//! Parallel live migration — the paper's §4 next step: "Extending LSC to
//! enable parallel migration is the next step in the process to increasing
//! cluster reliability with Dynamic Virtual Clusters."
//!
//! Stop-and-copy migration (checkpoint to storage + restore elsewhere) is
//! what [`crate::lsc::restore_vc`] gives; its downtime is the full image
//! transfer. *Live* migration pre-copies memory while the guests keep
//! running and only pauses for the final dirty residue. The parallel twist
//! is the same one LSC solves for checkpoints: **every VM of the cluster
//! must enter its stop-and-copy phase within the transport's retry budget**,
//! so the final cutover is an NTP-coordinated simultaneous pause.
//!
//! Phases:
//!
//! 1. every VM pre-copies concurrently, node-to-node, per
//!    [`dvc_vmm::migrate::plan_precopy`] (the guests keep running);
//! 2. once every VM's residue is below the stop threshold, the coordinator
//!    schedules a shared local-clock cutover instant;
//! 3. at the instant, all VMs pause; each ships its residue; all VMs are
//!    placed on their targets and resumed together.
//!
//! Downtime is `residue/bandwidth + resume skew` — seconds instead of the
//! full-image minutes of stop-and-copy, which the outcome reports so the
//! two strategies can be compared (bench `experiments e6`/`e9` vs. the
//! `live_migration` test).

use crate::lsc::{close_run, end_run, get_run, open_run, skew_of, Done};
use crate::vc::{self, VcId, VcState};
use dvc_cluster::glue;
use dvc_cluster::node::NodeId;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{Event, Sim, SimDuration, SimTime, SpanId, VmmEvent};
use dvc_vmm::migrate::{plan_precopy, PrecopyParams};
use dvc_vmm::VmImage;

/// Parameters of a parallel live migration.
#[derive(Clone, Copy, Debug)]
pub struct LiveMigrateCfg {
    /// Estimated dirty rate of each guest, bytes/s.
    pub dirty_bps: f64,
    /// Node-to-node migration bandwidth per VM pair, bytes/s.
    pub link_bps: f64,
    /// Residue below which a VM is ready to cut over, bytes.
    pub stop_threshold_bytes: u64,
    /// Pre-copy round cap (a hot guest never converges; see
    /// [`dvc_vmm::migrate`]).
    pub max_rounds: u32,
    /// NTP lead for the coordinated cutover.
    pub cutover_lead: SimDuration,
}

impl Default for LiveMigrateCfg {
    fn default() -> Self {
        LiveMigrateCfg {
            dirty_bps: 20.0e6,
            link_bps: 110.0e6,
            stop_threshold_bytes: 4 << 20,
            max_rounds: 30,
            cutover_lead: SimDuration::from_secs(5),
        }
    }
}

/// Result of a parallel live migration.
#[derive(Clone, Debug)]
pub struct LiveMigrateOutcome {
    pub vc: VcId,
    pub success: bool,
    /// Wall time of the live (pre-copy) phase — guests running throughout.
    pub live_phase: SimDuration,
    /// Guest downtime: pause → resume (the quantity live migration buys).
    pub downtime: SimDuration,
    /// Pause skew across the VC at cutover.
    pub pause_skew: SimDuration,
    /// Total bytes shipped (all rounds + residues).
    pub total_bytes: u64,
    pub detail: String,
}

struct LiveRun {
    vc: VcId,
    targets: Vec<NodeId>,
    residue_done: usize,
    pause_times: Vec<Option<SimTime>>,
    images: Vec<Option<VmImage>>,
    total_bytes: u64,
    started: SimTime,
    live_end: Option<SimTime>,
    on_done: Done<LiveMigrateOutcome>,
    /// Causal spans, owned by the record (see [`crate::lsc`]): any terminal
    /// path closes what is still open, children before the root.
    span: SpanId,
    precopy_span: SpanId,
    cutover_spans: Vec<SpanId>,
}

fn live(sim: &mut Sim<ClusterWorld>, run_id: u64) -> Option<&mut LiveRun> {
    get_run(sim, run_id)
}

/// Live-migrate an entire virtual cluster onto `targets`.
pub fn live_migrate_vc(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    targets: Vec<NodeId>,
    cfg: LiveMigrateCfg,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, LiveMigrateOutcome) + 'static,
) {
    let v = vc::vc(sim, vc_id).expect("live migrate of unknown vc");
    assert_eq!(v.vms.len(), targets.len(), "one target per vnode");
    let n = v.vms.len();
    let vms = v.vms.clone();
    if let Some(v) = vc::vc_mut(sim, vc_id) {
        v.state = VcState::Checkpointing;
    }

    // Plan each VM's pre-copy (uniform guests ⇒ identical plans, but we
    // plan per VM so heterogeneous memory sizes work).
    let mut live_end = SimDuration::ZERO;
    let mut total_bytes = 0u64;
    let mut residues = Vec::with_capacity(n);
    for &vm in &vms {
        let mem = sim.world.vm(vm).expect("vm").image_bytes();
        let plan = plan_precopy(PrecopyParams {
            mem_bytes: mem,
            dirty_bps: cfg.dirty_bps,
            link_bps: cfg.link_bps,
            stop_threshold_bytes: cfg.stop_threshold_bytes,
            max_rounds: cfg.max_rounds,
        });
        live_end = live_end.max(plan.live_time);
        total_bytes += plan.total_bytes();
        residues.push(plan.final_bytes);
    }

    let run_id = open_run(
        sim,
        LiveRun {
            vc: vc_id,
            targets,
            residue_done: 0,
            pause_times: vec![None; n],
            images: vec![None; n],
            total_bytes,
            started: sim.now(),
            live_end: None,
            on_done: Box::new(on_done),
            span: SpanId::NONE,
            precopy_span: SpanId::NONE,
            cutover_spans: vec![SpanId::NONE; n],
        },
    );
    let root = sim.open_span("migrate.live", SpanId::NONE, run_id);
    let pspan = sim.open_span("migrate.precopy", root, total_bytes);
    let r = live(sim, run_id).expect("run");
    r.span = root;
    r.precopy_span = pspan;

    // Phase 1: the live phase runs concurrently for all VMs (guests keep
    // executing). When the slowest finishes, schedule the coordinated
    // cutover one NTP lead ahead.
    sim.schedule_in(live_end, move |sim| {
        let head = sim.world.head;
        let t_fire = glue::local_now(sim, head) + cfg.cutover_lead.nanos() as i64;
        let now = sim.now();
        let pspan = live(sim, run_id).map_or(SpanId::NONE, |r| {
            r.live_end = Some(now);
            std::mem::take(&mut r.precopy_span)
        });
        sim.close_span(pspan);
        for (i, &vm) in vms.iter().enumerate() {
            let Some(&host) = sim.world.vm_host.get(&vm) else {
                finish(
                    sim,
                    run_id,
                    false,
                    format!("vnode {i} disappeared pre-cutover"),
                );
                return;
            };
            let residue = residues[i];
            let at = glue::local_deadline_to_true(sim, host, t_fire);
            sim.schedule_at(at, move |sim| {
                cutover_one(sim, run_id, i, vm, residue, cfg);
            });
        }
    });
}

/// Pause one VM and ship its dirty residue to the target node.
fn cutover_one(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    member: usize,
    vm: dvc_vmm::VmId,
    residue: u64,
    cfg: LiveMigrateCfg,
) {
    let alive = sim.world.vm(vm).is_some_and(|v| v.is_running());
    if !alive {
        finish(
            sim,
            run_id,
            false,
            format!("vnode {member} not running at cutover"),
        );
        return;
    }
    glue::pause_vm(sim, vm);
    sim.emit(Event::Vmm(VmmEvent::MigrateCutover { vm: vm.0 }));
    let now = sim.now();
    let image = sim.world.vm_mut(vm).unwrap().snapshot(now);
    let Some(r) = live(sim, run_id) else {
        return;
    };
    r.pause_times[member] = Some(now);
    r.images[member] = Some(image);
    let root = r.span;
    let cspan = sim.open_span("migrate.cutover", root, vm.0 as u64);
    live(sim, run_id).expect("run").cutover_spans[member] = cspan;
    // Ship the residue point-to-point (not via shared storage).
    let ship = SimDuration::from_secs_f64(residue as f64 / cfg.link_bps);
    sim.schedule_in(ship, move |sim| {
        let (cspan, all_done) = {
            let Some(r) = live(sim, run_id) else {
                return;
            };
            r.residue_done += 1;
            let c = std::mem::take(&mut r.cutover_spans[member]);
            (c, r.residue_done == r.targets.len())
        };
        sim.close_span(cspan);
        if all_done {
            place_and_resume_all(sim, run_id);
        }
    });
}

/// All residues landed: place every image on its target and resume together.
fn place_and_resume_all(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, images, targets) = {
        let r = live(sim, run_id).expect("run");
        let images: Vec<VmImage> = r
            .images
            .iter_mut()
            .map(|i| i.take().expect("image"))
            .collect();
        (r.vc, images, r.targets.clone())
    };
    // Destroy sources, place paused, then resume everyone at one instant
    // (they were paused together; resuming together keeps the cut lazy).
    let mut vm_ids = Vec::with_capacity(images.len());
    for (image, &target) in images.iter().zip(&targets) {
        glue::destroy_vm(sim, image.vm);
        let id = glue::place_image_paused(sim, image, target);
        vm_ids.push(id);
    }
    if let Some(v) = vc::vc_mut(sim, vc_id) {
        v.hosts = targets;
    }
    for vm in vm_ids {
        glue::resume_vm(sim, vm);
    }
    finish(sim, run_id, true, "ok".into());
}

fn finish(sim: &mut Sim<ClusterWorld>, run_id: u64, success: bool, detail: String) {
    let now = sim.now();
    let Some(r) = close_run::<LiveRun>(sim, run_id) else {
        return;
    };
    let outcome = LiveMigrateOutcome {
        vc: r.vc,
        success,
        live_phase: r.live_end.map_or(SimDuration::ZERO, |t| t - r.started),
        // Guests paused together, so downtime runs from the first pause.
        downtime: r
            .pause_times
            .iter()
            .flatten()
            .min()
            .map_or(SimDuration::ZERO, |&t| now - t),
        pause_skew: skew_of(&r.pause_times),
        total_bytes: r.total_bytes,
        detail,
    };
    let mut spans = r.cutover_spans;
    spans.extend([r.precopy_span, r.span]);
    let state = if success { VcState::Up } else { VcState::Down };
    let on_done = r.on_done;
    end_run(sim, r.vc, state, spans, move |sim| on_done(sim, outcome));
}

//! Lazy Synchronous Checkpointing.
//!
//! "There is a finite amount of time to save all virtual machines
//! participating in the parallel computation before a network timeout occurs
//! and causes the application to crash." (paper §3)
//!
//! This module implements the three coordinators:
//!
//! * [`LscMethod::Naive`] — §3.1's first attempt: the coordinator opens a
//!   terminal connection to every node (serially), then walks the open
//!   terminals issuing `vm save`; each dispatch occupies the coordinator for
//!   a heavy-tailed service time, so the **pause skew grows ~linearly with
//!   node count** and eventually exceeds the transport's retry budget. The
//!   resume side is dispatched the same way — the paper counts "failures to
//!   either save or restore".
//! * [`LscMethod::Ntp`] — §3.1's working prototype: the coordinator picks a
//!   fire instant `T` a lead time in the future, arms every node's agent,
//!   and each agent's microsecond timer fires `vm save` when its *local*
//!   disciplined clock reads `T`. Pause skew = residual NTP error.
//! * [`LscMethod::Hardened`] — §4's future work: arm acknowledgements with
//!   an abort-before-fire guard, per-image verification, health checks and
//!   bounded retry, which is what lets the scheme survive per-agent
//!   failures at large node counts (experiment E4).
//! * [`LscMethod::HardenedNaive`] — the hardened protocol with the clock
//!   taken out: arm every agent in parallel, collect acks, and broadcast GO
//!   instead of scheduling a local-clock fire instant. Pause skew is the
//!   spread of parallel control dispatches — worse than NTP scheduling, far
//!   better than the serial naive walk — and nothing depends on clock
//!   discipline, so the reliability manager degrades to this mode when NTP
//!   sync is lost (experiment E13).
//!
//! Checkpoint failures are **never injected at the transport level** — they
//! emerge from peers of a paused guest exhausting TCP retransmissions. The
//! only injectable fault is an *agent* fault ([`LscFaults`]), modelling the
//! paper's "the larger the likelihood of a single VM checkpoint failing".

use crate::vc::{self, CheckpointSet, VcId, VcState};
use dvc_cluster::control;
use dvc_cluster::glue;
use dvc_cluster::node::NodeId;
use dvc_cluster::storage;
use dvc_cluster::world::ClusterWorld;
use dvc_sim_core::{Event, FastMap, LscEvent, Sim, SimDuration, SimTime, SpanId};
use dvc_vmm::{VmId, VmImage};
use rand::Rng;

/// Which coordinator to use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LscMethod {
    Naive,
    Ntp {
        /// How far in the future the fire instant is set.
        lead: SimDuration,
    },
    Hardened {
        lead: SimDuration,
        /// Arms must be acknowledged this long before the fire instant or
        /// the attempt is aborted (nothing pauses) and retried.
        ack_guard: SimDuration,
        max_attempts: u32,
        /// Fraction of each image read back for verification after the save.
        verify_fraction: f64,
    },
    /// Clock-free hardened coordination: all agents are armed in parallel
    /// and must ack within `ack_timeout`, then the coordinator broadcasts
    /// GO (repeated, so a dropped control message doesn't strand one
    /// member). No local-clock scheduling anywhere — usable while NTP is
    /// down or a member clock has been stepped.
    HardenedNaive {
        ack_timeout: SimDuration,
        max_attempts: u32,
        verify_fraction: f64,
    },
}

impl LscMethod {
    pub fn ntp_default() -> Self {
        LscMethod::Ntp {
            lead: SimDuration::from_secs(5),
        }
    }

    pub fn hardened_default() -> Self {
        LscMethod::Hardened {
            lead: SimDuration::from_secs(5),
            ack_guard: SimDuration::from_secs(1),
            max_attempts: 5,
            verify_fraction: 0.05,
        }
    }

    pub fn hardened_naive_default() -> Self {
        LscMethod::HardenedNaive {
            ack_timeout: SimDuration::from_secs(5),
            max_attempts: 5,
            verify_fraction: 0.05,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            LscMethod::Naive => "naive",
            LscMethod::Ntp { .. } => "ntp",
            LscMethod::Hardened { .. } => "hardened",
            LscMethod::HardenedNaive { .. } => "hardened-naive",
        }
    }

    /// Every coordinator name [`name`](Self::name) can produce, in a fixed
    /// order — the scenario-space the fuzz generator samples from and the
    /// corpus format validates against.
    pub const NAMES: &'static [&'static str] = &["naive", "ntp", "hardened", "hardened-naive"];

    /// Construct the default-parameterized coordinator for a serialized
    /// method name (inverse of [`name`](Self::name) over [`Self::NAMES`]).
    /// Declarative scenarios (fuzz corpus TOML) carry methods as strings;
    /// an unknown name is a malformed-scenario error.
    pub fn from_name(name: &str) -> Option<LscMethod> {
        match name {
            "naive" => Some(LscMethod::Naive),
            "ntp" => Some(LscMethod::ntp_default()),
            "hardened" => Some(LscMethod::hardened_default()),
            "hardened-naive" => Some(LscMethod::hardened_naive_default()),
            _ => None,
        }
    }

    /// Hardened-family coordinators verify image checksums, re-save corrupt
    /// images, and never leave a partially-paused VC behind.
    pub fn is_hardened(&self) -> bool {
        matches!(
            self,
            LscMethod::Hardened { .. } | LscMethod::HardenedNaive { .. }
        )
    }

    fn verify_fraction(&self) -> f64 {
        match *self {
            LscMethod::Hardened {
                verify_fraction, ..
            }
            | LscMethod::HardenedNaive {
                verify_fraction, ..
            } => verify_fraction,
            _ => 0.0,
        }
    }
}

/// Injectable agent faults (experiment knobs; transport faults are never
/// injected — they emerge).
#[derive(Clone, Copy, Debug, Default)]
pub struct LscFaults {
    /// Probability that a node's checkpoint agent silently dies on arm
    /// (its VM then never pauses — the paper's per-VM failure mode).
    pub arm_loss_prob: f64,
}

/// Set the world-wide agent-fault configuration.
pub fn set_faults(sim: &mut Sim<ClusterWorld>, faults: LscFaults) {
    sim.world.ext.insert(faults);
}

fn faults(sim: &Sim<ClusterWorld>) -> LscFaults {
    sim.world
        .ext
        .get::<LscFaults>()
        .copied()
        .unwrap_or_default()
}

/// Result of one checkpoint (save + coordinated resume) cycle.
#[derive(Clone, Debug)]
pub struct LscOutcome {
    pub vc: VcId,
    pub method: &'static str,
    /// All images captured and all guests resumed.
    pub success: bool,
    pub set_id: Option<u64>,
    /// Max − min guest pause instant (the skew LSC must keep under the
    /// transport budget).
    pub pause_skew: SimDuration,
    /// Max − min guest resume instant.
    pub resume_skew: SimDuration,
    /// Coordinator start → all images stored.
    pub save_duration: SimDuration,
    /// Coordinator start → everything resumed (or failed).
    pub total_duration: SimDuration,
    pub attempts: u32,
    pub detail: String,
}

/// Result of restoring a set onto (possibly different) hosts.
#[derive(Clone, Debug)]
pub struct RestoreOutcome {
    pub vc: VcId,
    pub success: bool,
    pub resume_skew: SimDuration,
    pub duration: SimDuration,
    pub detail: String,
}

/// Alias kept for the public API: a full checkpoint report.
pub type LscReport = LscOutcome;

type DoneCb = Box<dyn FnOnce(&mut Sim<ClusterWorld>, LscOutcome)>;

struct CkptRun {
    vc: VcId,
    method: LscMethod,
    started: SimTime,
    expected: usize,
    images: Vec<Option<VmImage>>,
    resolved: usize,
    failed_members: usize,
    pause_times: Vec<Option<SimTime>>,
    resume_times: Vec<Option<SimTime>>,
    resumed: usize,
    attempts: u32,
    /// Hardened: arm acks collected for the current attempt.
    acks: usize,
    /// Per-member agent liveness: once an agent has come up (acked/armed),
    /// later attempts re-arm it reliably; only dead agents re-roll the
    /// fault dice (a retry restarts the crashed checkpoint process).
    agent_ok: Vec<bool>,
    /// Hardened: attempt epoch; stale arms check this before firing.
    attempt_epoch: u32,
    aborted: bool,
    /// Hardened family: per-member re-save counts (checksum failures).
    save_attempts: Vec<u32>,
    /// False once any member's save is given up on; the hardened family
    /// still resumes everyone, then reports the run as failed.
    save_ok: bool,
    /// Hardened family: resume-side arm/ack state (the abort guard applied
    /// to the resume broadcast).
    resume_epoch: u32,
    resume_acks: usize,
    resume_attempts: u32,
    save_done_at: Option<SimTime>,
    finished: bool,
    on_done: Option<DoneCb>,
    /// Causal spans (all [`SpanId::NONE`] when no sink is attached). The
    /// run record owns them so every code path that can end the run —
    /// watchdogs included — can close what is still open: a child span must
    /// never outlive the `lsc.round` root.
    round_span: SpanId,
    dispatch_spans: Vec<SpanId>,
    ack_span: SpanId,
    save_spans: Vec<SpanId>,
    resume_span: SpanId,
}

#[derive(Default)]
struct LscRuns {
    runs: FastMap<u64, CkptRun>,
    next: u64,
}

fn runs(sim: &mut Sim<ClusterWorld>) -> &mut LscRuns {
    sim.world.ext.get_or_default::<LscRuns>()
}

/// Checkpoint a virtual cluster with the chosen method, then resume it the
/// same way. `on_done` receives the outcome; on success the set is in the
/// [`vc::CheckpointStore`].
pub fn checkpoint_vc(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    method: LscMethod,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, LscOutcome) + 'static,
) -> u64 {
    let Some(v) = vc::vc(sim, vc_id) else {
        panic!("checkpoint of unknown vc {vc_id:?}");
    };
    let n = v.vms.len();
    let started = sim.now();
    if let Some(v) = vc::vc_mut(sim, vc_id) {
        v.state = VcState::Checkpointing;
    }
    let run_id = {
        let r = runs(sim);
        r.next += 1;
        let id = r.next;
        r.runs.insert(
            id,
            CkptRun {
                vc: vc_id,
                method,
                started,
                expected: n,
                images: std::iter::repeat_with(|| None).take(n).collect(),
                resolved: 0,
                failed_members: 0,
                pause_times: vec![None; n],
                resume_times: vec![None; n],
                resumed: 0,
                attempts: 0,
                acks: 0,
                agent_ok: vec![false; n],
                attempt_epoch: 0,
                aborted: false,
                save_attempts: vec![0; n],
                save_ok: true,
                resume_epoch: 0,
                resume_acks: 0,
                resume_attempts: 0,
                save_done_at: None,
                finished: false,
                on_done: Some(Box::new(on_done)),
                round_span: SpanId::NONE,
                dispatch_spans: vec![SpanId::NONE; n],
                ack_span: SpanId::NONE,
                save_spans: vec![SpanId::NONE; n],
                resume_span: SpanId::NONE,
            },
        );
        id
    };
    let round_span = sim.open_span("lsc.round", SpanId::NONE, run_id);
    if let Some(r) = runs(sim).runs.get_mut(&run_id) {
        r.round_span = round_span;
    }
    start_attempt(sim, run_id);
    run_id
}

fn member_hosts(sim: &Sim<ClusterWorld>, vc_id: VcId) -> Vec<(usize, VmId, NodeId)> {
    let v = vc::vc(sim, vc_id).expect("vc");
    v.vms
        .iter()
        .enumerate()
        .map(|(i, &vm)| (i, vm, v.hosts[i]))
        .collect()
}

fn start_attempt(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, method, attempt, round_span) = {
        let r = runs(sim).runs.get_mut(&run_id).expect("run");
        r.attempts += 1;
        r.attempt_epoch += 1;
        r.acks = 0;
        r.aborted = false;
        (r.vc, r.method, r.attempt_epoch, r.round_span)
    };
    let members = member_hosts(sim, vc_id);
    for &(i, _, _) in &members {
        // A re-arm after an abort replaces the member's dispatch span: the
        // stale one closes here (it covered arm → abort), the fresh one
        // runs arm → pause.
        let stale = {
            let r = runs(sim).runs.get_mut(&run_id).expect("run");
            std::mem::replace(&mut r.dispatch_spans[i], SpanId::NONE)
        };
        sim.close_span(stale);
        let ds = sim.open_span("lsc.dispatch", round_span, i as u64);
        runs(sim).runs.get_mut(&run_id).expect("run").dispatch_spans[i] = ds;
        sim.emit(Event::Lsc(LscEvent::ArmSent {
            run: run_id,
            vc: vc_id.0,
            member: i as u32,
        }));
    }

    match method {
        LscMethod::Naive => {
            // Phase 1: serial terminal opens.
            let mut t = SimDuration::ZERO;
            for &(_, _, host) in &members {
                t += control::open_delay(sim, host);
            }
            // Phase 2: walk the terminals issuing `vm save`; each dispatch
            // occupies the coordinator for a service time, so guest i pauses
            // at the *cumulative* offset — the skew that kills this scheme.
            for (i, vm, host) in members {
                t += control::cmd_delay(sim, host);
                let delay = t;
                control::ctrl_call(sim, host, delay, move |sim| {
                    fire_save(sim, run_id, i, vm);
                });
            }
            arm_run_watchdog(sim, run_id, t + save_timeout());
        }
        LscMethod::Ntp { lead } => {
            let t_fire_local = fire_instant(sim, lead);
            for (i, vm, host) in members {
                if !roll_agent(sim, run_id, i) {
                    continue; // agent died; this VM will never pause
                }
                let d = control::cmd_delay(sim, host);
                control::ctrl_call(sim, host, d, move |sim| {
                    schedule_local_fire(sim, host, t_fire_local, move |sim| {
                        fire_save(sim, run_id, i, vm);
                    });
                });
            }
            arm_run_watchdog(sim, run_id, lead + save_timeout());
        }
        LscMethod::Hardened {
            lead, ack_guard, ..
        } => {
            let t_fire_local = fire_instant(sim, lead);
            for (i, vm, host) in members {
                if !roll_agent(sim, run_id, i) {
                    continue;
                }
                let d = control::cmd_delay(sim, host);
                control::ctrl_call(sim, host, d, move |sim| {
                    // Ack back to the coordinator.
                    let back = control::cmd_delay(sim, host);
                    sim.schedule_in(back, move |sim| {
                        if let Some(r) = runs(sim).runs.get_mut(&run_id) {
                            if r.attempt_epoch == attempt && !r.aborted {
                                r.acks += 1;
                            }
                        }
                    });
                    // Fire unless the attempt was aborted meanwhile.
                    schedule_local_fire(sim, host, t_fire_local, move |sim| {
                        let ok = runs(sim)
                            .runs
                            .get(&run_id)
                            .is_some_and(|r| r.attempt_epoch == attempt && !r.aborted);
                        if ok {
                            fire_save(sim, run_id, i, vm);
                        }
                    });
                });
            }
            // Ack review, `ack_guard` before the fire instant.
            let review_in = lead
                .saturating_sub(ack_guard)
                .max(SimDuration::from_millis(1));
            sim.schedule_in(review_in, move |sim| {
                let (ok, vc_id, attempts_left) = {
                    let Some(r) = runs(sim).runs.get_mut(&run_id) else {
                        return;
                    };
                    if r.attempt_epoch != attempt || r.finished {
                        return;
                    }
                    let max = match r.method {
                        LscMethod::Hardened { max_attempts, .. } => max_attempts,
                        _ => 1,
                    };
                    (r.acks == r.expected, r.vc, r.attempts < max)
                };
                let _ = vc_id;
                if ok {
                    return; // commit: arms fire at T
                }
                // Abort this attempt before anything pauses, then retry.
                if let Some(r) = runs(sim).runs.get_mut(&run_id) {
                    r.aborted = true;
                }
                if attempts_left {
                    let vc = runs(sim).runs.get(&run_id).map(|r| r.vc.0).unwrap_or(0);
                    sim.emit(Event::Lsc(LscEvent::AbortReArm {
                        run: run_id,
                        vc,
                        attempt,
                    }));
                    start_attempt(sim, run_id);
                } else {
                    finish_run(
                        sim,
                        run_id,
                        false,
                        "arm acks incomplete after retries".into(),
                    );
                }
            });
            arm_run_watchdog(sim, run_id, lead + save_timeout());
        }
        LscMethod::HardenedNaive {
            ack_timeout,
            max_attempts,
            ..
        } => {
            // Arm every agent in parallel; each ack back tells the
            // coordinator the control path round-trips *right now*. Only
            // when every member is armed does GO go out — so a partition
            // or drop during arming aborts with nothing paused.
            for &(i, _vm, host) in &members {
                if !roll_agent(sim, run_id, i) {
                    continue;
                }
                let d = control::cmd_delay(sim, host);
                control::ctrl_call(sim, host, d, move |sim| {
                    let back = control::cmd_delay(sim, host);
                    sim.schedule_in(back, move |sim| {
                        let all_armed = {
                            let Some(r) = runs(sim).runs.get_mut(&run_id) else {
                                return;
                            };
                            if r.attempt_epoch != attempt || r.aborted || r.finished {
                                return;
                            }
                            r.acks += 1;
                            r.acks == r.expected
                        };
                        if all_armed {
                            broadcast_save_go(sim, run_id, attempt, GO_REPEATS);
                        }
                    });
                });
            }
            // Ack review at the timeout: an incomplete arm set aborts
            // (nothing has paused yet) and re-arms from scratch, which
            // simply waits out a partition window.
            sim.schedule_in(ack_timeout, move |sim| {
                let (ok, attempts_left) = {
                    let Some(r) = runs(sim).runs.get_mut(&run_id) else {
                        return;
                    };
                    if r.attempt_epoch != attempt || r.finished {
                        return;
                    }
                    (r.acks == r.expected, r.attempts < max_attempts)
                };
                if ok {
                    return;
                }
                if let Some(r) = runs(sim).runs.get_mut(&run_id) {
                    r.aborted = true;
                }
                if attempts_left {
                    let vc = runs(sim).runs.get(&run_id).map(|r| r.vc.0).unwrap_or(0);
                    sim.emit(Event::Lsc(LscEvent::AbortReArm {
                        run: run_id,
                        vc,
                        attempt,
                    }));
                    start_attempt(sim, run_id);
                } else {
                    finish_run(
                        sim,
                        run_id,
                        false,
                        "arm acks incomplete after retries".into(),
                    );
                }
            });
            arm_run_watchdog(sim, run_id, ack_timeout + save_timeout());
        }
    }
}

/// How many times a clock-free GO broadcast is repeated (a lost control
/// message must not strand one member un-paused while its peers freeze).
/// Repeats only go to members not yet seen firing, so the common case is a
/// single round; the worst-case extra skew, `GO_REPEATS × go_spacing`, must
/// stay under the guest TCP silence budget (~3 s at the default config).
const GO_REPEATS: u32 = 8;

fn go_spacing() -> SimDuration {
    SimDuration::from_millis(350)
}

/// Clock-free save GO: tell every not-yet-paused member to fire now.
/// Repeated `repeats_left − 1` more times; `fire_save` dedupes arrivals.
fn broadcast_save_go(sim: &mut Sim<ClusterWorld>, run_id: u64, attempt: u32, repeats_left: u32) {
    let vc_id = {
        let Some(r) = runs(sim).runs.get(&run_id) else {
            return;
        };
        if r.attempt_epoch != attempt || r.aborted || r.finished {
            return;
        }
        r.vc
    };
    for (i, vm, host) in member_hosts(sim, vc_id) {
        let already = runs(sim)
            .runs
            .get(&run_id)
            .is_some_and(|r| r.pause_times[i].is_some());
        if already {
            continue;
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| {
            let ok = runs(sim)
                .runs
                .get(&run_id)
                .is_some_and(|r| r.attempt_epoch == attempt && !r.aborted);
            if ok {
                fire_save(sim, run_id, i, vm);
            }
        });
    }
    if repeats_left > 1 {
        sim.schedule_in(go_spacing(), move |sim| {
            broadcast_save_go(sim, run_id, attempt, repeats_left - 1);
        });
    }
}

/// Roll the agent-fault dice for member `i` of a run: an agent that has
/// already come up stays up; a dead one gets a fresh chance per attempt
/// (retries restart crashed checkpoint processes).
fn roll_agent(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize) -> bool {
    let already = runs(sim)
        .runs
        .get(&run_id)
        .map(|r| r.agent_ok[member])
        .unwrap_or(false);
    if already {
        return true;
    }
    let loss = faults(sim).arm_loss_prob;
    let ok = loss <= 0.0 || !sim.rng.stream("lsc.arm_loss").gen_bool(loss);
    if ok {
        if let Some(r) = runs(sim).runs.get_mut(&run_id) {
            r.agent_ok[member] = true;
        }
    }
    ok
}

/// Shared-local-clock fire instant `lead` from now (head-node clock).
fn fire_instant(sim: &Sim<ClusterWorld>, lead: SimDuration) -> i64 {
    let head = sim.world.head;
    glue::local_now(sim, head) + lead.nanos() as i64
}

/// Run `f` when `host`'s local clock reads `t_local` (immediately if past —
/// a late arm does its best).
fn schedule_local_fire(
    sim: &mut Sim<ClusterWorld>,
    host: NodeId,
    t_local: i64,
    f: impl FnOnce(&mut Sim<ClusterWorld>) + 'static,
) {
    let at = glue::local_deadline_to_true(sim, host, t_local);
    sim.schedule_at(at, f);
}

/// Generous bound on how long the save phase may take before the run is
/// declared failed (covers storage time for large sets).
fn save_timeout() -> SimDuration {
    SimDuration::from_secs(3600)
}

fn arm_run_watchdog(sim: &mut Sim<ClusterWorld>, run_id: u64, after: SimDuration) {
    sim.schedule_in(after, move |sim| {
        let unfinished = runs(sim)
            .runs
            .get(&run_id)
            .is_some_and(|r| !r.finished && r.save_done_at.is_none());
        if unfinished {
            finish_run(sim, run_id, false, "save phase timed out".into());
        }
    });
}

/// `vm save` lands on a member: pause + snapshot + stream to storage.
fn fire_save(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize, vm: VmId) {
    let now = sim.now();
    let (vc_id, dispatch_span, round_span, first_fire) = {
        let Some(r) = runs(sim).runs.get_mut(&run_id) else {
            return;
        };
        if r.finished || r.pause_times[member].is_some() {
            return;
        }
        r.pause_times[member] = Some(now);
        let ds = std::mem::replace(&mut r.dispatch_spans[member], SpanId::NONE);
        (r.vc, ds, r.round_span, r.ack_span.is_none())
    };
    sim.close_span(dispatch_span);
    if first_fire {
        // The ack-collection window opens at the first pause and closes when
        // the last member's save resolves — its width is what the TCP
        // silence budget is spent on.
        let ack = sim.open_span("lsc.ack_collect", round_span, run_id);
        if let Some(r) = runs(sim).runs.get_mut(&run_id) {
            r.ack_span = ack;
        }
    }
    sim.emit(Event::Lsc(LscEvent::SaveFired {
        run: run_id,
        vc: vc_id.0,
        member: member as u32,
        vm: vm.0,
    }));
    let alive = sim
        .world
        .vm(vm)
        .is_some_and(|v| v.state != dvc_vmm::VmState::Dead);
    if !alive {
        member_resolved(sim, run_id, member, None);
        return;
    }
    let vspan = sim.open_span("vmm.save", round_span, vm.0 as u64);
    if let Some(r) = runs(sim).runs.get_mut(&run_id) {
        r.save_spans[member] = vspan;
    }
    glue::save_vm_in(sim, vm, vspan, move |sim, image| {
        on_save_complete(sim, run_id, member, vm, image);
    });
}

/// Bound on checksum-triggered re-saves per member (the VM stays paused
/// between attempts, so each retry costs one more image write).
const MAX_SAVE_RETRIES: u32 = 3;

/// A member's save-and-store resolved (or storage gave up after its
/// retries). The hardened family verifies the end-to-end image checksum
/// and re-saves on mismatch — the guest is still paused, so a fresh
/// snapshot is consistent; the baseline coordinators trust storage and
/// pass whatever came back straight into the set.
fn on_save_complete(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    member: usize,
    vm: VmId,
    image: Option<VmImage>,
) {
    let hardened = runs(sim)
        .runs
        .get(&run_id)
        .is_some_and(|r| r.method.is_hardened());
    if let Some(img) = &image {
        if hardened && !img.verify() {
            let attempts = {
                let Some(r) = runs(sim).runs.get_mut(&run_id) else {
                    return;
                };
                if r.finished {
                    return;
                }
                r.save_attempts[member] += 1;
                r.save_attempts[member]
            };
            if attempts <= MAX_SAVE_RETRIES {
                sim.emit(Event::Lsc(LscEvent::ChecksumResave {
                    vm: vm.0,
                    attempt: attempts,
                }));
                // Each re-save is its own vmm.save span: the trace shows
                // one save attempt per bar, not one bar hiding retries.
                let (old, round_span) = {
                    let r = runs(sim).runs.get_mut(&run_id).expect("run");
                    (
                        std::mem::replace(&mut r.save_spans[member], SpanId::NONE),
                        r.round_span,
                    )
                };
                sim.close_span(old);
                let vspan = sim.open_span("vmm.save", round_span, vm.0 as u64);
                if let Some(r) = runs(sim).runs.get_mut(&run_id) {
                    r.save_spans[member] = vspan;
                }
                glue::save_vm_in(sim, vm, vspan, move |sim, image| {
                    on_save_complete(sim, run_id, member, vm, image);
                });
                return;
            }
            sim.emit(Event::Lsc(LscEvent::ChecksumGiveUp {
                vm: vm.0,
                retries: MAX_SAVE_RETRIES,
            }));
            member_resolved(sim, run_id, member, None);
            return;
        }
    }
    member_resolved(sim, run_id, member, image);
}

fn member_resolved(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    member: usize,
    image: Option<VmImage>,
) {
    let (save_phase_complete, vc_id, ok, vspan) = {
        let Some(r) = runs(sim).runs.get_mut(&run_id) else {
            return;
        };
        if r.finished {
            return;
        }
        let ok = image.is_some();
        if image.is_none() {
            r.failed_members += 1;
        }
        r.images[member] = image;
        r.resolved += 1;
        let vspan = std::mem::replace(&mut r.save_spans[member], SpanId::NONE);
        (r.resolved == r.expected, r.vc, ok, vspan)
    };
    sim.close_span(vspan);
    sim.emit(Event::Lsc(LscEvent::SaveAcked {
        run: run_id,
        vc: vc_id.0,
        member: member as u32,
        ok,
    }));
    if save_phase_complete {
        on_all_saves_resolved(sim, run_id);
    }
}

fn on_all_saves_resolved(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let now = sim.now();
    let (ok, method, vc_id, skew, ack_span) = {
        let r = runs(sim).runs.get_mut(&run_id).expect("run");
        r.save_done_at = Some(now);
        (
            r.failed_members == 0,
            r.method,
            r.vc,
            skew_of(&r.pause_times),
            std::mem::replace(&mut r.ack_span, SpanId::NONE),
        )
    };
    sim.close_span(ack_span);
    sim.emit(Event::Lsc(LscEvent::WindowClosed {
        run: run_id,
        vc: vc_id.0,
        skew,
        stored: ok,
    }));
    if !ok {
        if method.is_hardened() {
            // Don't leave the survivors paused bleeding their peers' TCP
            // budgets: resume everyone, then report the failed run. The VC
            // keeps computing on its previously stored generations.
            if let Some(r) = runs(sim).runs.get_mut(&run_id) {
                r.save_ok = false;
            }
            sim.emit(Event::Lsc(LscEvent::SavePhaseFailed));
            coordinated_resume(sim, run_id);
        } else {
            finish_run(sim, run_id, false, "one or more VM saves failed".into());
        }
        return;
    }

    // Persist the set.
    let set_id = {
        let images: Vec<VmImage> = {
            let r = runs(sim).runs.get_mut(&run_id).unwrap();
            r.images.iter().map(|i| i.clone().expect("image")).collect()
        };
        let skew = {
            let r = runs(sim).runs.get(&run_id).unwrap();
            skew_of(&r.pause_times)
        };
        let st = vc::store(sim);
        let id = st.alloc_id();
        st.sets.push(CheckpointSet {
            id,
            vc: vc_id,
            taken_at: now,
            images,
            pause_skew: skew,
        });
        sim.emit(Event::Lsc(LscEvent::SetStored {
            vc: vc_id.0,
            set: id,
            skew,
        }));
        id
    };
    sim.world
        .ext
        .get_or_default::<LastSetId>()
        .0
        .insert(run_id, set_id);

    // Hardened family: verify images (read back a fraction) before
    // resuming.
    let verify_fraction = method.verify_fraction();
    if verify_fraction > 0.0 {
        let bytes: u64 = {
            let r = runs(sim).runs.get(&run_id).unwrap();
            r.images
                .iter()
                .flatten()
                .map(|i| (i.size_bytes() as f64 * verify_fraction) as u64)
                .sum()
        };
        storage::start_transfer(sim, bytes.max(1), move |sim| {
            coordinated_resume(sim, run_id);
        });
        return;
    }
    coordinated_resume(sim, run_id);
}

/// Map run → stored set id (so `finish_run` can report it).
#[derive(Default)]
struct LastSetId(FastMap<u64, u64>);

/// Resume every member using the same coordination discipline as the save.
fn coordinated_resume(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, method, round_span) = {
        let r = runs(sim).runs.get(&run_id).expect("run");
        (r.vc, r.method, r.round_span)
    };
    let rspan = sim.open_span("lsc.resume", round_span, run_id);
    if let Some(r) = runs(sim).runs.get_mut(&run_id) {
        r.resume_span = rspan;
    }
    let members = member_hosts(sim, vc_id);
    match method {
        LscMethod::Naive => {
            let mut t = SimDuration::ZERO;
            for (i, vm, host) in members {
                t += control::cmd_delay(sim, host);
                control::ctrl_call(sim, host, t, move |sim| {
                    fire_resume(sim, run_id, i, vm);
                });
            }
        }
        LscMethod::Ntp { lead } => {
            let t_fire_local = fire_instant(sim, lead);
            for (i, vm, host) in members {
                let d = control::cmd_delay(sim, host);
                control::ctrl_call(sim, host, d, move |sim| {
                    schedule_local_fire(sim, host, t_fire_local, move |sim| {
                        fire_resume(sim, run_id, i, vm);
                    });
                });
            }
        }
        LscMethod::Hardened { .. } | LscMethod::HardenedNaive { .. } => {
            // The resume side gets the same abort guard as the save side:
            // no member resumes until every member's agent has acked, so a
            // partition can delay the resume but can't split it.
            resume_attempt(sim, run_id);
        }
    }
    // Resume watchdog: arms can be lost to node crashes.
    sim.schedule_in(SimDuration::from_secs(600), move |sim| {
        let stuck = runs(sim).runs.get(&run_id).is_some_and(|r| !r.finished);
        if stuck {
            finish_run(sim, run_id, false, "resume phase timed out".into());
        }
    });
}

/// One arm/ack round of the hardened resume. Members that already resumed
/// (a straggler GO from a previous round) are skipped; the round commits —
/// broadcasts GO — only when every remaining member acks within the
/// window, otherwise it re-arms, which waits out partitions. A paused
/// guest is frozen, so patience here costs wall-clock, not correctness.
fn resume_attempt(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, epoch, ack_window, max_attempts, attempts) = {
        let Some(r) = runs(sim).runs.get_mut(&run_id) else {
            return;
        };
        if r.finished {
            return;
        }
        r.resume_attempts += 1;
        r.resume_epoch += 1;
        r.resume_acks = 0;
        let (win, max) = match r.method {
            LscMethod::Hardened {
                lead, max_attempts, ..
            } => (lead, max_attempts),
            LscMethod::HardenedNaive {
                ack_timeout,
                max_attempts,
                ..
            } => (ack_timeout, max_attempts),
            _ => (SimDuration::from_secs(5), 1),
        };
        (r.vc, r.resume_epoch, win, max, r.resume_attempts)
    };
    let members = member_hosts(sim, vc_id);
    let needed = {
        let r = runs(sim).runs.get(&run_id).expect("run");
        r.expected - r.resumed
    };
    for &(i, _vm, host) in &members {
        let skip = runs(sim)
            .runs
            .get(&run_id)
            .is_some_and(|r| r.resume_times[i].is_some());
        if skip {
            continue;
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| {
            let back = control::cmd_delay(sim, host);
            sim.schedule_in(back, move |sim| {
                let all_armed = {
                    let Some(r) = runs(sim).runs.get_mut(&run_id) else {
                        return;
                    };
                    if r.resume_epoch != epoch || r.finished {
                        return;
                    }
                    r.resume_acks += 1;
                    r.resume_acks == needed
                };
                if all_armed {
                    broadcast_resume_go(sim, run_id, epoch, GO_REPEATS);
                }
            });
        });
    }
    sim.schedule_in(ack_window, move |sim| {
        let ok = {
            let Some(r) = runs(sim).runs.get(&run_id) else {
                return;
            };
            if r.resume_epoch != epoch || r.finished {
                return;
            }
            r.resume_acks == needed
        };
        if ok {
            return;
        }
        if attempts < max_attempts {
            resume_attempt(sim, run_id);
        } else {
            finish_run(
                sim,
                run_id,
                false,
                "resume arms incomplete after retries".into(),
            );
        }
    });
}

/// Clock-free resume GO, repeated for drop resilience; `fire_resume`
/// dedupes arrivals.
fn broadcast_resume_go(sim: &mut Sim<ClusterWorld>, run_id: u64, epoch: u32, repeats_left: u32) {
    let vc_id = {
        let Some(r) = runs(sim).runs.get(&run_id) else {
            return;
        };
        if r.resume_epoch != epoch || r.finished {
            return;
        }
        r.vc
    };
    for (i, vm, host) in member_hosts(sim, vc_id) {
        let already = runs(sim)
            .runs
            .get(&run_id)
            .is_some_and(|r| r.resume_times[i].is_some());
        if already {
            continue;
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| {
            fire_resume(sim, run_id, i, vm);
        });
    }
    if repeats_left > 1 {
        sim.schedule_in(go_spacing(), move |sim| {
            broadcast_resume_go(sim, run_id, epoch, repeats_left - 1);
        });
    }
}

fn fire_resume(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize, vm: VmId) {
    let now = sim.now();
    let (all_resumed, save_ok) = {
        let Some(r) = runs(sim).runs.get_mut(&run_id) else {
            return;
        };
        if r.finished || r.resume_times[member].is_some() {
            return;
        }
        r.resume_times[member] = Some(now);
        r.resumed += 1;
        (r.resumed == r.expected, r.save_ok)
    };
    glue::resume_vm(sim, vm);
    if all_resumed {
        let detail = if save_ok {
            "ok".into()
        } else {
            "one or more VM saves failed (members resumed)".into()
        };
        finish_run(sim, run_id, save_ok, detail);
    }
}

fn skew_of(times: &[Option<SimTime>]) -> SimDuration {
    let known: Vec<SimTime> = times.iter().flatten().copied().collect();
    if known.len() < 2 {
        return SimDuration::ZERO;
    }
    let min = known.iter().min().unwrap();
    let max = known.iter().max().unwrap();
    *max - *min
}

fn finish_run(sim: &mut Sim<ClusterWorld>, run_id: u64, success: bool, detail: String) {
    let now = sim.now();
    let (outcome, cb, spans) = {
        let Some(r) = runs(sim).runs.get_mut(&run_id) else {
            return;
        };
        if r.finished {
            return;
        }
        r.finished = true;
        let set_id = sim
            .world
            .ext
            .get::<LastSetId>()
            .and_then(|m| m.0.get(&run_id).copied());
        let r = runs(sim).runs.get_mut(&run_id).unwrap();
        let outcome = LscOutcome {
            vc: r.vc,
            method: r.method.name(),
            success,
            set_id,
            pause_skew: skew_of(&r.pause_times),
            resume_skew: skew_of(&r.resume_times),
            save_duration: r
                .save_done_at
                .map(|t| t - r.started)
                .unwrap_or(SimDuration::ZERO),
            total_duration: now - r.started,
            attempts: r.attempts,
            detail,
        };
        // Whatever phase the run died in, its open spans close now —
        // children first, the round root last.
        let mut spans: Vec<SpanId> = Vec::new();
        spans.extend(r.dispatch_spans.iter().copied());
        spans.extend(r.save_spans.iter().copied());
        spans.push(r.ack_span);
        spans.push(r.resume_span);
        spans.push(r.round_span);
        (outcome, r.on_done.take(), spans)
    };
    if let Some(v) = vc::vc_mut(sim, outcome.vc) {
        v.state = VcState::Up;
    }
    runs(sim).runs.remove(&run_id);
    for s in spans {
        sim.close_span(s);
    }
    sim.emit(Event::Lsc(LscEvent::RunFinished {
        run: run_id,
        vc: outcome.vc.0,
        success,
    }));
    if let Some(cb) = cb {
        cb(sim, outcome);
    }
}

// ---------------------------------------------------------------------
// Restore / migration
// ---------------------------------------------------------------------

/// Why a restore could not even start. Failures *during* a started restore
/// (down targets, storage giving up, corrupt staged images) are reported
/// through [`RestoreOutcome`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// No stored set has this id (it may have been pruned).
    UnknownSet(u64),
    /// Every stored generation of this VC fails its image checksums (or
    /// none exists at all).
    NoIntactGeneration(VcId),
    /// `targets` does not provide exactly one host per vnode.
    TargetCountMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnknownSet(id) => write!(f, "unknown checkpoint set {id}"),
            RestoreError::NoIntactGeneration(vc) => {
                write!(f, "no intact checkpoint generation for {vc:?}")
            }
            RestoreError::TargetCountMismatch { expected, got } => {
                write!(f, "need {expected} targets (one per vnode), got {got}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

type RestoreCb = Box<dyn FnOnce(&mut Sim<ClusterWorld>, RestoreOutcome)>;

struct RestoreRun {
    vc: VcId,
    started: SimTime,
    expected: usize,
    placed: usize,
    resume_times: Vec<Option<SimTime>>,
    resumed: usize,
    finished: bool,
    on_done: Option<RestoreCb>,
    /// Causal spans, same ownership rule as [`CkptRun`]: the record holds
    /// them so any terminal path can close what is still open.
    span: SpanId,
    stage_spans: Vec<SpanId>,
    resume_span: SpanId,
}

#[derive(Default)]
struct RestoreRuns {
    runs: FastMap<u64, RestoreRun>,
    next: u64,
}

/// Restore checkpoint set `set_id` onto `targets` (one per vnode; may be a
/// completely different node set — this is migration). Old instances, if
/// any survive, are destroyed first. Resumes are NTP-coordinated.
///
/// Staged reads retry per the world's [`StorageRetryCfg`]; every staged
/// image is checksum-verified before placement, so a corrupt generation
/// fails the restore instead of silently resuming garbage (callers then
/// fall back via [`restore_vc_intact`]).
///
/// [`StorageRetryCfg`]: dvc_cluster::world::StorageRetryCfg
pub fn restore_vc(
    sim: &mut Sim<ClusterWorld>,
    set_id: u64,
    targets: Vec<NodeId>,
    lead: SimDuration,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, RestoreOutcome) + 'static,
) -> Result<(), RestoreError> {
    let (vc_id, images): (VcId, Vec<VmImage>) = {
        let Some(st) = sim.world.ext.get::<crate::vc::CheckpointStore>() else {
            return Err(RestoreError::UnknownSet(set_id));
        };
        let Some(set) = st.sets.iter().find(|s| s.id == set_id) else {
            return Err(RestoreError::UnknownSet(set_id));
        };
        (set.vc, set.images.clone())
    };
    if images.len() != targets.len() {
        return Err(RestoreError::TargetCountMismatch {
            expected: images.len(),
            got: targets.len(),
        });
    }

    if let Some(v) = vc::vc_mut(sim, vc_id) {
        v.state = VcState::Restoring;
        v.hosts = targets.clone();
    }
    // Destroy any survivors of the old incarnation.
    let old_vms: Vec<VmId> = vc::vc(sim, vc_id)
        .map(|v| v.vms.clone())
        .unwrap_or_default();
    for vm in old_vms {
        glue::destroy_vm(sim, vm);
    }

    let now = sim.now();
    let n_images = images.len();
    let run_id = {
        let rr = sim.world.ext.get_or_default::<RestoreRuns>();
        rr.next += 1;
        let id = rr.next;
        rr.runs.insert(
            id,
            RestoreRun {
                vc: vc_id,
                started: now,
                expected: images.len(),
                placed: 0,
                resume_times: vec![None; images.len()],
                resumed: 0,
                finished: false,
                on_done: Some(Box::new(on_done)),
                span: SpanId::NONE,
                stage_spans: vec![SpanId::NONE; n_images],
                resume_span: SpanId::NONE,
            },
        );
        id
    };
    let root = sim.open_span("lsc.restore", SpanId::NONE, run_id);
    if let Some(r) = sim
        .world
        .ext
        .get_or_default::<RestoreRuns>()
        .runs
        .get_mut(&run_id)
    {
        r.span = root;
    }

    // Stage all images (contended storage reads, retried per config),
    // verifying each checksum end-to-end before placing it paused.
    for (i, (image, target)) in images.into_iter().zip(targets).enumerate() {
        let bytes = image.size_bytes();
        storage::note_bytes(sim, bytes);
        let sspan = sim.open_span("storage.stage", root, bytes);
        if let Some(r) = sim
            .world
            .ext
            .get_or_default::<RestoreRuns>()
            .runs
            .get_mut(&run_id)
        {
            r.stage_spans[i] = sspan;
        }
        storage::transfer_with_retry(sim, bytes, move |sim, ok| {
            // Take the stage span from the record (a run ended early may
            // have closed it already — then this is NONE and a no-op).
            let sspan = sim
                .world
                .ext
                .get_or_default::<RestoreRuns>()
                .runs
                .get_mut(&run_id)
                .map(|r| std::mem::replace(&mut r.stage_spans[i], SpanId::NONE))
                .unwrap_or(SpanId::NONE);
            sim.close_span(sspan);
            if !ok {
                restore_failed(sim, run_id, "storage read gave up after retries".into());
                return;
            }
            if !sim.world.node(target).up {
                restore_failed(sim, run_id, format!("target node {target:?} is down"));
                return;
            }
            if !image.verify() {
                restore_failed(
                    sim,
                    run_id,
                    format!("staged image of {:?} failed its checksum", image.vm),
                );
                return;
            }
            glue::place_image_paused(sim, &image, target);
            let all_placed = {
                let rr = sim.world.ext.get_or_default::<RestoreRuns>();
                let Some(r) = rr.runs.get_mut(&run_id) else {
                    return;
                };
                r.placed += 1;
                r.placed == r.expected
            };
            if all_placed {
                restore_resume_all(sim, run_id, lead);
            }
        });
    }
    Ok(())
}

/// Multi-generation fallback restore: pick the newest stored generation of
/// `vc_id` whose images all pass their checksums and restore that. Returns
/// the chosen set id, or [`RestoreError::NoIntactGeneration`] when every
/// generation is corrupt (or none exists).
pub fn restore_vc_intact(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    targets: Vec<NodeId>,
    lead: SimDuration,
    on_done: impl FnOnce(&mut Sim<ClusterWorld>, RestoreOutcome) + 'static,
) -> Result<u64, RestoreError> {
    let set_id = vc::store(sim)
        .latest_intact_for(vc_id)
        .map(|s| s.id)
        .ok_or(RestoreError::NoIntactGeneration(vc_id))?;
    restore_vc(sim, set_id, targets, lead, on_done)?;
    Ok(set_id)
}

fn restore_resume_all(sim: &mut Sim<ClusterWorld>, run_id: u64, lead: SimDuration) {
    let root = sim
        .world
        .ext
        .get_or_default::<RestoreRuns>()
        .runs
        .get(&run_id)
        .map(|r| r.span)
        .unwrap_or(SpanId::NONE);
    let rspan = sim.open_span("lsc.restore_resume", root, run_id);
    if let Some(r) = sim
        .world
        .ext
        .get_or_default::<RestoreRuns>()
        .runs
        .get_mut(&run_id)
    {
        r.resume_span = rspan;
    }
    let t_fire_local = fire_instant(sim, lead);
    restore_resume_round(sim, run_id, t_fire_local, GO_REPEATS);
}

/// One round of restore resume arms. Arms are re-sent a few times (to
/// members not yet seen resuming) so a single dropped control message
/// can't strand the whole restore; the fire instant is shared, so repeats
/// add no skew, and the per-member dedupe makes duplicates harmless.
fn restore_resume_round(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    t_fire_local: i64,
    repeats_left: u32,
) {
    let vc_id = {
        let rr = sim.world.ext.get_or_default::<RestoreRuns>();
        let Some(r) = rr.runs.get(&run_id) else {
            return;
        };
        if r.finished {
            return;
        }
        r.vc
    };
    let members = member_hosts(sim, vc_id);
    for (i, vm, host) in members {
        let already = sim
            .world
            .ext
            .get::<RestoreRuns>()
            .and_then(|rr| rr.runs.get(&run_id))
            .is_some_and(|r| r.resume_times[i].is_some());
        if already {
            continue;
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| {
            schedule_local_fire(sim, host, t_fire_local, move |sim| {
                let now = sim.now();
                let done = {
                    let rr = sim.world.ext.get_or_default::<RestoreRuns>();
                    let Some(r) = rr.runs.get_mut(&run_id) else {
                        return;
                    };
                    if r.finished || r.resume_times[i].is_some() {
                        return;
                    }
                    r.resume_times[i] = Some(now);
                    r.resumed += 1;
                    r.resumed == r.expected
                };
                glue::resume_vm(sim, vm);
                if done {
                    restore_finished(sim, run_id, true, "ok".into());
                }
            });
        });
    }
    if repeats_left > 1 {
        sim.schedule_in(go_spacing(), move |sim| {
            restore_resume_round(sim, run_id, t_fire_local, repeats_left - 1);
        });
    }
}

fn restore_failed(sim: &mut Sim<ClusterWorld>, run_id: u64, detail: String) {
    restore_finished(sim, run_id, false, detail);
}

fn restore_finished(sim: &mut Sim<ClusterWorld>, run_id: u64, success: bool, detail: String) {
    let now = sim.now();
    let (outcome, cb, spans) = {
        let rr = sim.world.ext.get_or_default::<RestoreRuns>();
        let Some(r) = rr.runs.get_mut(&run_id) else {
            return;
        };
        if r.finished {
            return;
        }
        r.finished = true;
        let outcome = RestoreOutcome {
            vc: r.vc,
            success,
            resume_skew: skew_of(&r.resume_times),
            duration: now - r.started,
            detail,
        };
        // Close whatever is still open, children before the restore root.
        // Stage spans are *taken* (not just read) so an in-flight staging
        // transfer's callback finds NONE and cannot double-close.
        let mut spans: Vec<SpanId> = r
            .stage_spans
            .iter_mut()
            .map(|s| std::mem::replace(s, SpanId::NONE))
            .collect();
        spans.push(std::mem::replace(&mut r.resume_span, SpanId::NONE));
        spans.push(std::mem::replace(&mut r.span, SpanId::NONE));
        (outcome, r.on_done.take(), spans)
    };
    if let Some(v) = vc::vc_mut(sim, outcome.vc) {
        v.state = if success { VcState::Up } else { VcState::Down };
    }
    sim.world
        .ext
        .get_or_default::<RestoreRuns>()
        .runs
        .remove(&run_id);
    for s in spans {
        sim.close_span(s);
    }
    if let Some(cb) = cb {
        cb(sim, outcome);
    }
}

#[cfg(test)]
mod method_tests {
    use super::*;

    #[test]
    fn method_names_round_trip_from_name() {
        for n in LscMethod::NAMES {
            let m = LscMethod::from_name(n).expect("registered name must construct");
            assert_eq!(m.name(), *n);
        }
        assert!(LscMethod::from_name("chrony").is_none());
    }
}

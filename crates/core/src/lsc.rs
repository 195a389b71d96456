//! Lazy Synchronous Checkpointing.
//!
//! "There is a finite amount of time to save all virtual machines
//! participating in the parallel computation before a network timeout occurs
//! and causes the application to crash." (paper §3)
//!
//! This module implements the four coordinators:
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
    pub(crate) fn is_hardened(&self) -> bool {
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

    /// Hardened family: arm attempts per phase, and how long the resume
    /// side waits for its acks.
    fn retry(&self) -> (u32, SimDuration) {
        match *self {
            LscMethod::Hardened {
                lead, max_attempts, ..
            } => (max_attempts, lead),
            LscMethod::HardenedNaive {
                ack_timeout,
                max_attempts,
                ..
            } => (max_attempts, ack_timeout),
            _ => (1, SimDuration::from_secs(5)),
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

/// How a run reports its outcome.
type Done<O> = Box<dyn FnOnce(&mut Sim<ClusterWorld>, O)>;

/// The in-flight runs of one coordinator kind (checkpoint or restore),
/// keyed by run id. A run is removed in the same call that ends it, so a
/// callback that lands afterwards finds nothing to act on.
struct Runs<R> {
    runs: FastMap<u64, R>,
    next: u64,
}

impl<R> Default for Runs<R> {
    fn default() -> Self {
        Runs {
            runs: FastMap::default(),
            next: 0,
        }
    }
}

/// Register a new run and return its id (ids count from 1 per kind).
fn open_run<R: 'static>(sim: &mut Sim<ClusterWorld>, run: R) -> u64 {
    let rs = sim.world.ext.get_or_default::<Runs<R>>();
    rs.next += 1;
    rs.runs.insert(rs.next, run);
    rs.next
}

fn get_run<R: 'static>(sim: &mut Sim<ClusterWorld>, id: u64) -> Option<&mut R> {
    sim.world.ext.get_or_default::<Runs<R>>().runs.get_mut(&id)
}

/// Remove a run; `None` when it has already ended.
fn close_run<R: 'static>(sim: &mut Sim<ClusterWorld>, id: u64) -> Option<R> {
    sim.world.ext.get_or_default::<Runs<R>>().runs.remove(&id)
}

/// The tail every run ends with, once [`close_run`] has taken its record:
/// the VC takes `state`, the run's still-open spans close (listed children
/// first, the root last — a child span never outlives its root), and
/// `report` hands the outcome on.
fn end_run(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    state: VcState,
    spans: Vec<SpanId>,
    report: impl FnOnce(&mut Sim<ClusterWorld>),
) {
    if let Some(v) = vc::vc_mut(sim, vc_id) {
        v.state = state;
    }
    for s in spans {
        sim.close_span(s);
    }
    report(sim);
}

/// Max − min over the instants known so far (zero below two).
fn skew_of(times: &[Option<SimTime>]) -> SimDuration {
    let mut known = times.iter().flatten();
    let Some(&first) = known.next() else {
        return SimDuration::ZERO;
    };
    let (min, max) = known.fold((first, first), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    max - min
}

/// The save or the resume half of a checkpoint round.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Save,
    Resume,
}

/// One side's coordination state.
struct Phase {
    /// Arm attempts so far. Acks, fires and GOs carry the attempt they
    /// answer and are void once a re-arm has superseded it.
    attempt: u32,
    /// Hardened family: acks collected for the current attempt.
    acks: usize,
    /// When each member paused (save) or resumed (resume).
    fired: Vec<Option<SimTime>>,
}

impl Phase {
    fn new(n: usize) -> Self {
        Phase {
            attempt: 0,
            acks: 0,
            fired: vec![None; n],
        }
    }
}

struct CkptRun {
    vc: VcId,
    method: LscMethod,
    started: SimTime,
    expected: usize,
    images: Vec<Option<VmImage>>,
    resolved: usize,
    failed_members: usize,
    /// Per-member agent liveness: once an agent has come up (acked/armed),
    /// later attempts re-arm it reliably; only dead agents re-roll the
    /// fault dice (a retry restarts the crashed checkpoint process).
    agent_ok: Vec<bool>,
    /// Hardened family: per-member re-save counts (checksum failures).
    save_attempts: Vec<u32>,
    /// False once any member's save is given up on; the hardened family
    /// still resumes everyone, then reports the run as failed.
    save_ok: bool,
    save: Phase,
    resume: Phase,
    save_done_at: Option<SimTime>,
    set_id: Option<u64>,
    on_done: Done<LscOutcome>,
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

impl CkptRun {
    fn phase(&mut self, side: Side) -> &mut Phase {
        match side {
            Side::Save => &mut self.save,
            Side::Resume => &mut self.resume,
        }
    }
}

fn ckpt(sim: &mut Sim<ClusterWorld>, run_id: u64) -> Option<&mut CkptRun> {
    get_run(sim, run_id)
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
    let run_id = open_run(
        sim,
        CkptRun {
            vc: vc_id,
            method,
            started,
            expected: n,
            images: vec![None; n],
            resolved: 0,
            failed_members: 0,
            agent_ok: vec![false; n],
            save_attempts: vec![0; n],
            save_ok: true,
            save: Phase::new(n),
            resume: Phase::new(n),
            save_done_at: None,
            set_id: None,
            on_done: Box::new(on_done),
            round_span: SpanId::NONE,
            dispatch_spans: vec![SpanId::NONE; n],
            ack_span: SpanId::NONE,
            save_spans: vec![SpanId::NONE; n],
            resume_span: SpanId::NONE,
        },
    );
    let round_span = sim.open_span("lsc.round", SpanId::NONE, run_id);
    ckpt(sim, run_id).expect("run").round_span = round_span;
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
    let (vc_id, method, round_span) = {
        let r = ckpt(sim, run_id).expect("run");
        r.save.attempt += 1;
        r.save.acks = 0;
        (r.vc, r.method, r.round_span)
    };
    let members = member_hosts(sim, vc_id);
    for &(i, _, _) in &members {
        // A re-arm after an abort replaces the member's dispatch span: the
        // stale one closes here (it covered arm → abort), the fresh one
        // runs arm → pause.
        let stale = std::mem::take(&mut ckpt(sim, run_id).expect("run").dispatch_spans[i]);
        sim.close_span(stale);
        let ds = sim.open_span("lsc.dispatch", round_span, i as u64);
        ckpt(sim, run_id).expect("run").dispatch_spans[i] = ds;
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
            arm_run_watchdog(sim, run_id, t + SAVE_TIMEOUT);
        }
        LscMethod::Ntp { lead } | LscMethod::Hardened { lead, .. } => {
            let t_fire_local = fire_instant(sim, lead);
            arm_members(sim, run_id, Side::Save, members, Some(t_fire_local));
            if let LscMethod::Hardened { ack_guard, .. } = method {
                // Ack review, `ack_guard` before the fire instant.
                let review_in = lead
                    .saturating_sub(ack_guard)
                    .max(SimDuration::from_millis(1));
                review_acks(sim, run_id, Side::Save, review_in);
            }
            arm_run_watchdog(sim, run_id, lead + SAVE_TIMEOUT);
        }
        LscMethod::HardenedNaive { ack_timeout, .. } => {
            // Arm every agent in parallel; each ack back tells the
            // coordinator the control path round-trips *right now*. Only
            // when every member is armed does GO go out — so a partition
            // or drop during arming aborts with nothing paused.
            arm_members(sim, run_id, Side::Save, members, None);
            review_acks(sim, run_id, Side::Save, ack_timeout);
            arm_run_watchdog(sim, run_id, ack_timeout + SAVE_TIMEOUT);
        }
    }
}

/// Arm every member's agent for the current attempt of `side`. Given a
/// local-clock instant `t_fire`, each agent fires when its clock reads it;
/// without one, agents wait for the GO the coordinator broadcasts once the
/// last ack is in. Hardened-family agents ack every arm. Only save arms
/// roll the agent-fault dice.
fn arm_members(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    side: Side,
    members: Vec<(usize, VmId, NodeId)>,
    t_fire: Option<i64>,
) {
    let (attempt, ack) = {
        let r = ckpt(sim, run_id).expect("run");
        (r.phase(side).attempt, r.method.is_hardened())
    };
    for (i, vm, host) in members {
        if side == Side::Save && !roll_agent(sim, run_id, i) {
            continue; // agent died; this VM will never pause
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| {
            if ack {
                send_ack(sim, run_id, side, attempt, host, t_fire.is_none());
            }
            if let Some(t) = t_fire {
                schedule_local_fire(sim, host, t, move |sim| {
                    fire(sim, run_id, side, attempt, i, vm);
                });
            }
        });
    }
}

/// An armed agent's ack back to the coordinator. It counts only toward the
/// attempt it answers; with `go`, the ack that completes the set
/// broadcasts GO.
fn send_ack(
    sim: &mut Sim<ClusterWorld>,
    run_id: u64,
    side: Side,
    attempt: u32,
    host: NodeId,
    go: bool,
) {
    let back = control::cmd_delay(sim, host);
    sim.schedule_in(back, move |sim| {
        let all_armed = {
            let Some(r) = ckpt(sim, run_id) else {
                return;
            };
            let expected = r.expected;
            let p = r.phase(side);
            if p.attempt != attempt {
                return;
            }
            p.acks += 1;
            p.acks == expected
        };
        if go && all_armed {
            broadcast_phase_go(sim, run_id, side, attempt);
        }
    });
}

/// Review the acks of `side`'s current attempt `after` from now. A complete
/// set commits: the clock or the GO fires it. Otherwise the attempt is
/// abandoned before anything fires for it and re-armed from scratch, which
/// simply waits out a partition; once the attempts are spent the run fails.
/// A paused guest is frozen, so patience on the resume side costs
/// wall-clock, not correctness.
fn review_acks(sim: &mut Sim<ClusterWorld>, run_id: u64, side: Side, after: SimDuration) {
    let attempt = ckpt(sim, run_id).expect("run").phase(side).attempt;
    sim.schedule_in(after, move |sim| {
        let Some(r) = ckpt(sim, run_id) else {
            return;
        };
        let (vc, expected, (max_attempts, _)) = (r.vc.0, r.expected, r.method.retry());
        let p = r.phase(side);
        if p.attempt != attempt || p.acks == expected {
            return;
        }
        match (side, attempt < max_attempts) {
            (Side::Save, true) => {
                sim.emit(Event::Lsc(LscEvent::AbortReArm {
                    run: run_id,
                    vc,
                    attempt,
                }));
                start_attempt(sim, run_id);
            }
            (Side::Resume, true) => resume_attempt(sim, run_id),
            (Side::Save, false) => finish_run(
                sim,
                run_id,
                false,
                "arm acks incomplete after retries".into(),
            ),
            (Side::Resume, false) => finish_run(
                sim,
                run_id,
                false,
                "resume arms incomplete after retries".into(),
            ),
        }
    });
}

/// Member `i`'s arm or GO for `attempt` of `side` lands: fire, unless a
/// re-arm has superseded the attempt.
fn fire(sim: &mut Sim<ClusterWorld>, run_id: u64, side: Side, attempt: u32, i: usize, vm: VmId) {
    if ckpt(sim, run_id).is_none_or(|r| r.phase(side).attempt != attempt) {
        return;
    }
    match side {
        Side::Save => fire_save(sim, run_id, i, vm),
        Side::Resume => fire_resume(sim, run_id, i, vm),
    }
}

/// How many times a clock-free GO broadcast is repeated (a lost control
/// message must not strand one member un-paused while its peers freeze).
/// Repeats only go to members not yet seen firing, so the common case is a
/// single round; the worst-case extra skew, `GO_REPEATS × GO_SPACING`, must
/// stay under the guest TCP silence budget (~3 s at the default config).
const GO_REPEATS: u32 = 8;

const GO_SPACING: SimDuration = SimDuration::from_millis(350);

/// Broadcast GO to every member that has not fired yet, `repeats_left`
/// times, [`GO_SPACING`] apart. `state` gives the VC and who has fired so
/// far, or `None` once the run has ended or moved on, which stops the
/// repeats; `land` runs on the member's agent, which dedupes arrivals.
fn broadcast_go<S, L>(sim: &mut Sim<ClusterWorld>, repeats_left: u32, state: S, land: L)
where
    S: Fn(&mut Sim<ClusterWorld>) -> Option<(VcId, Vec<Option<SimTime>>)> + 'static,
    L: Fn(&mut Sim<ClusterWorld>, usize, VmId, NodeId) + Copy + 'static,
{
    let Some((vc_id, fired)) = state(sim) else {
        return;
    };
    for (i, vm, host) in member_hosts(sim, vc_id) {
        if fired[i].is_some() {
            continue;
        }
        let d = control::cmd_delay(sim, host);
        control::ctrl_call(sim, host, d, move |sim| land(sim, i, vm, host));
    }
    if repeats_left > 1 {
        sim.schedule_in(GO_SPACING, move |sim| {
            broadcast_go(sim, repeats_left - 1, state, land);
        });
    }
}

/// Clock-free GO for `attempt` of one side of a checkpoint round.
fn broadcast_phase_go(sim: &mut Sim<ClusterWorld>, run_id: u64, side: Side, attempt: u32) {
    broadcast_go(
        sim,
        GO_REPEATS,
        move |sim| {
            let r = ckpt(sim, run_id)?;
            let vc_id = r.vc;
            let p = r.phase(side);
            (p.attempt == attempt).then(|| (vc_id, p.fired.clone()))
        },
        move |sim, i, vm, _host| fire(sim, run_id, side, attempt, i, vm),
    );
}

/// Roll the agent-fault dice for member `i` of a run: an agent that has
/// already come up stays up; a dead one gets a fresh chance per attempt
/// (retries restart crashed checkpoint processes).
fn roll_agent(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize) -> bool {
    if ckpt(sim, run_id).is_some_and(|r| r.agent_ok[member]) {
        return true;
    }
    let loss = faults(sim).arm_loss_prob;
    let ok = loss <= 0.0 || !sim.rng.stream("lsc.arm_loss").gen_bool(loss);
    if ok {
        if let Some(r) = ckpt(sim, run_id) {
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
const SAVE_TIMEOUT: SimDuration = SimDuration::from_secs(3600);

fn arm_run_watchdog(sim: &mut Sim<ClusterWorld>, run_id: u64, after: SimDuration) {
    sim.schedule_in(after, move |sim| {
        if ckpt(sim, run_id).is_some_and(|r| r.save_done_at.is_none()) {
            finish_run(sim, run_id, false, "save phase timed out".into());
        }
    });
}

/// `vm save` lands on a member: pause + snapshot + stream to storage.
fn fire_save(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize, vm: VmId) {
    let now = sim.now();
    let (vc_id, dispatch_span, round_span, first_fire) = {
        let Some(r) = ckpt(sim, run_id) else {
            return;
        };
        if r.save.fired[member].is_some() {
            return;
        }
        r.save.fired[member] = Some(now);
        let ds = std::mem::take(&mut r.dispatch_spans[member]);
        (r.vc, ds, r.round_span, r.ack_span.is_none())
    };
    sim.close_span(dispatch_span);
    if first_fire {
        // The ack-collection window opens at the first pause and closes when
        // the last member's save resolves — its width is what the TCP
        // silence budget is spent on.
        let ack = sim.open_span("lsc.ack_collect", round_span, run_id);
        if let Some(r) = ckpt(sim, run_id) {
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
    if let Some(r) = ckpt(sim, run_id) {
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
    let hardened = ckpt(sim, run_id).is_some_and(|r| r.method.is_hardened());
    if let Some(img) = &image {
        if hardened && !img.verify() {
            let Some(r) = ckpt(sim, run_id) else {
                return;
            };
            r.save_attempts[member] += 1;
            let attempts = r.save_attempts[member];
            if attempts <= MAX_SAVE_RETRIES {
                let (old, round_span) = (std::mem::take(&mut r.save_spans[member]), r.round_span);
                sim.emit(Event::Lsc(LscEvent::ChecksumResave {
                    vm: vm.0,
                    attempt: attempts,
                }));
                // Each re-save is its own vmm.save span: the trace shows
                // one save attempt per bar, not one bar hiding retries.
                sim.close_span(old);
                let vspan = sim.open_span("vmm.save", round_span, vm.0 as u64);
                ckpt(sim, run_id).expect("run").save_spans[member] = vspan;
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
        let Some(r) = ckpt(sim, run_id) else {
            return;
        };
        let ok = image.is_some();
        if image.is_none() {
            r.failed_members += 1;
        }
        r.images[member] = image;
        r.resolved += 1;
        let vspan = std::mem::take(&mut r.save_spans[member]);
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
        let r = ckpt(sim, run_id).expect("run");
        r.save_done_at = Some(now);
        (
            r.failed_members == 0,
            r.method,
            r.vc,
            skew_of(&r.save.fired),
            std::mem::take(&mut r.ack_span),
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
            ckpt(sim, run_id).expect("run").save_ok = false;
            sim.emit(Event::Lsc(LscEvent::SavePhaseFailed));
            coordinated_resume(sim, run_id);
        } else {
            finish_run(sim, run_id, false, "one or more VM saves failed".into());
        }
        return;
    }

    // Persist the set.
    let images: Vec<VmImage> = ckpt(sim, run_id)
        .expect("run")
        .images
        .iter()
        .map(|i| i.clone().expect("image"))
        .collect();
    let st = vc::store(sim);
    let set_id = st.alloc_id();
    st.sets.push(CheckpointSet {
        id: set_id,
        vc: vc_id,
        taken_at: now,
        images,
        pause_skew: skew,
    });
    sim.emit(Event::Lsc(LscEvent::SetStored {
        vc: vc_id.0,
        set: set_id,
        skew,
    }));
    ckpt(sim, run_id).expect("run").set_id = Some(set_id);

    // Hardened family: verify images (read back a fraction) before
    // resuming.
    let verify_fraction = method.verify_fraction();
    if verify_fraction > 0.0 {
        let bytes: u64 = ckpt(sim, run_id)
            .expect("run")
            .images
            .iter()
            .flatten()
            .map(|i| (i.size_bytes() as f64 * verify_fraction) as u64)
            .sum();
        storage::start_transfer(sim, bytes.max(1), move |sim| {
            coordinated_resume(sim, run_id);
        });
        return;
    }
    coordinated_resume(sim, run_id);
}

/// Resume every member using the same coordination discipline as the save.
fn coordinated_resume(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, method, round_span) = {
        let r = ckpt(sim, run_id).expect("run");
        (r.vc, r.method, r.round_span)
    };
    let rspan = sim.open_span("lsc.resume", round_span, run_id);
    if let Some(r) = ckpt(sim, run_id) {
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
            arm_members(sim, run_id, Side::Resume, members, Some(t_fire_local));
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
        if ckpt(sim, run_id).is_some() {
            finish_run(sim, run_id, false, "resume phase timed out".into());
        }
    });
}

/// One arm/ack round of the hardened resume: GO goes out only once every
/// member has acked within the window; otherwise [`review_acks`] re-arms.
fn resume_attempt(sim: &mut Sim<ClusterWorld>, run_id: u64) {
    let (vc_id, window) = {
        let r = ckpt(sim, run_id).expect("run");
        r.resume.attempt += 1;
        r.resume.acks = 0;
        (r.vc, r.method.retry().1)
    };
    let members = member_hosts(sim, vc_id);
    arm_members(sim, run_id, Side::Resume, members, None);
    review_acks(sim, run_id, Side::Resume, window);
}

fn fire_resume(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize, vm: VmId) {
    let now = sim.now();
    let (all_resumed, save_ok) = {
        let Some(r) = ckpt(sim, run_id) else {
            return;
        };
        let fired = &mut r.resume.fired;
        if fired[member].is_some() {
            return;
        }
        fired[member] = Some(now);
        (fired.iter().all(Option::is_some), r.save_ok)
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

fn finish_run(sim: &mut Sim<ClusterWorld>, run_id: u64, success: bool, detail: String) {
    let now = sim.now();
    let Some(r) = close_run::<CkptRun>(sim, run_id) else {
        return;
    };
    let outcome = LscOutcome {
        vc: r.vc,
        method: r.method.name(),
        success,
        set_id: r.set_id,
        pause_skew: skew_of(&r.save.fired),
        resume_skew: skew_of(&r.resume.fired),
        save_duration: r.save_done_at.map_or(SimDuration::ZERO, |t| t - r.started),
        total_duration: now - r.started,
        attempts: r.save.attempt,
        detail,
    };
    // Whatever phase the run died in, its open spans close now.
    let mut spans = r.dispatch_spans;
    spans.extend(r.save_spans);
    spans.extend([r.ack_span, r.resume_span, r.round_span]);
    let on_done = r.on_done;
    end_run(sim, r.vc, VcState::Up, spans, move |sim| {
        sim.emit(Event::Lsc(LscEvent::RunFinished {
            run: run_id,
            vc: outcome.vc.0,
            success,
        }));
        on_done(sim, outcome);
    });
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

struct RestoreRun {
    vc: VcId,
    started: SimTime,
    placed: usize,
    resume_times: Vec<Option<SimTime>>,
    on_done: Done<RestoreOutcome>,
    /// Causal spans, same ownership rule as [`CkptRun`]: the record holds
    /// them so any terminal path can close what is still open.
    span: SpanId,
    stage_spans: Vec<SpanId>,
    resume_span: SpanId,
}

fn restore_run(sim: &mut Sim<ClusterWorld>, run_id: u64) -> Option<&mut RestoreRun> {
    get_run(sim, run_id)
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

    let n = images.len();
    let run_id = open_run(
        sim,
        RestoreRun {
            vc: vc_id,
            started: sim.now(),
            placed: 0,
            resume_times: vec![None; n],
            on_done: Box::new(on_done),
            span: SpanId::NONE,
            stage_spans: vec![SpanId::NONE; n],
            resume_span: SpanId::NONE,
        },
    );
    let root = sim.open_span("lsc.restore", SpanId::NONE, run_id);
    restore_run(sim, run_id).expect("run").span = root;

    // Stage all images (contended storage reads, retried per config),
    // verifying each checksum end-to-end before placing it paused.
    for (i, (image, target)) in images.into_iter().zip(targets).enumerate() {
        let bytes = image.size_bytes();
        storage::note_bytes(sim, bytes);
        let sspan = sim.open_span("storage.stage", root, bytes);
        if let Some(r) = restore_run(sim, run_id) {
            r.stage_spans[i] = sspan;
        }
        storage::transfer_with_retry(sim, bytes, move |sim, ok| {
            // A restore that has already ended closed its stage spans and
            // left no record; its late images are still placed (paused).
            if let Some(r) = restore_run(sim, run_id) {
                let sspan = std::mem::take(&mut r.stage_spans[i]);
                sim.close_span(sspan);
            }
            let failure = if !ok {
                Some("storage read gave up after retries".to_string())
            } else if !sim.world.node(target).up {
                Some(format!("target node {target:?} is down"))
            } else if !image.verify() {
                Some(format!(
                    "staged image of {:?} failed its checksum",
                    image.vm
                ))
            } else {
                None
            };
            if let Some(detail) = failure {
                restore_finished(sim, run_id, false, detail);
                return;
            }
            glue::place_image_paused(sim, &image, target);
            let all_placed = {
                let Some(r) = restore_run(sim, run_id) else {
                    return;
                };
                r.placed += 1;
                r.placed == r.resume_times.len()
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

/// Every image is placed: resume all members at one shared local-clock
/// instant. The arms go out as a repeated GO, so a single dropped control
/// message can't strand the whole restore; the instant is shared, so
/// repeats add no skew.
fn restore_resume_all(sim: &mut Sim<ClusterWorld>, run_id: u64, lead: SimDuration) {
    let root = restore_run(sim, run_id).expect("run").span;
    let rspan = sim.open_span("lsc.restore_resume", root, run_id);
    restore_run(sim, run_id).expect("run").resume_span = rspan;
    let t_fire_local = fire_instant(sim, lead);
    broadcast_go(
        sim,
        GO_REPEATS,
        move |sim| restore_run(sim, run_id).map(|r| (r.vc, r.resume_times.clone())),
        move |sim, i, vm, host| {
            schedule_local_fire(sim, host, t_fire_local, move |sim| {
                restore_resume(sim, run_id, i, vm);
            });
        },
    );
}

fn restore_resume(sim: &mut Sim<ClusterWorld>, run_id: u64, member: usize, vm: VmId) {
    let now = sim.now();
    let done = {
        let Some(r) = restore_run(sim, run_id) else {
            return;
        };
        if r.resume_times[member].is_some() {
            return;
        }
        r.resume_times[member] = Some(now);
        r.resume_times.iter().all(Option::is_some)
    };
    glue::resume_vm(sim, vm);
    if done {
        restore_finished(sim, run_id, true, "ok".into());
    }
}

fn restore_finished(sim: &mut Sim<ClusterWorld>, run_id: u64, success: bool, detail: String) {
    let now = sim.now();
    let Some(r) = close_run::<RestoreRun>(sim, run_id) else {
        return;
    };
    let outcome = RestoreOutcome {
        vc: r.vc,
        success,
        resume_skew: skew_of(&r.resume_times),
        duration: now - r.started,
        detail,
    };
    let mut spans = r.stage_spans;
    spans.extend([r.resume_span, r.span]);
    let state = if success { VcState::Up } else { VcState::Down };
    let on_done = r.on_done;
    end_run(sim, r.vc, state, spans, move |sim| on_done(sim, outcome));
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

//! The four workloads, each a closed loop of trials on one thread, driven
//! through the model's public entry points and timed from outside.

use crate::trace::{delta, Phase, Tracer};
use crate::{Digest, TrialOut, Workload};
use dvc_bench::fuzz::{gen, run::run_scenario, run::Tuning, spec::ScenarioSpec};
use dvc_bench::scen::{self, TrialWorld};
use dvc_cluster::failure::{crash_node, repair_node};
use dvc_cluster::faults::install_fault_plan;
use dvc_cluster::node::NodeId;
use dvc_cluster::ntp;
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_core::lsc::{self, LscFaults, LscMethod, LscOutcome};
use dvc_core::reliability::{self, Cadence, Policy};
use dvc_core::vc::{self, VcId, VcSpec};
use dvc_mpi::harness::{self, MpiJob};
use dvc_sim_core::{
    kind_from_str, rng, Event, EventSink, FaultPlan, Metrics, Sim, SimDuration, SimTime,
    SpanChecker,
};
use dvc_workloads::{hpl, ptrans, ring, stream};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Shape of one trial: [`Workload::shape`] is the benchmark's size, and
/// [`Workload::tiny`] the one the benchmark's own tests run.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// VC size (job VMs).
    pub nodes: usize,
    /// Checkpoint rounds per world (`e3_rounds`, `e4_scale`).
    pub rounds: u32,
    /// Ring laps of the `e10_failover` job.
    pub laps: u64,
    /// Warm-up and drain settles, sim seconds.
    pub warm_s: f64,
    pub drain_s: f64,
}

/// `e10_failover`: sim seconds after the first stored set at which a VC
/// host crashes (it is repaired 90 s later).
const E10_CRASHES_S: [f64; 2] = [10.0, 40.0];
/// E10's estimate of sim seconds per lap, which sets the job's horizon.
const E10_LAP_S: f64 = 0.22;
/// E3's checkpoint gaps (seconds) and image sizes (MB); world `i` of a
/// pass takes entry `i mod 3` of each.
const E3_GAPS: [f64; 3] = [10.0, 20.0, 40.0];
const E3_MEMS: [u32; 3] = [64, 128, 256];
/// `run_scenario`'s per-round liveness deadline and closing drain.
const FUZZ_ROUND_DEADLINE: SimDuration = SimDuration::from_secs(3700);
const FUZZ_DRAIN: SimDuration = SimDuration::from_secs(45);

/// Engine steps in one timed segment (about 50 ms of host time).
const SEG_STEPS: u64 = 1 << 15;

/// What a trial is timed and traced through. After set-up, the trial's
/// host time is cut into segments of [`SEG_STEPS`] engine steps. The
/// engine is deterministic, so segment *k* of a trial is the same work in
/// every pass, and passes can be compared segment by segment.
pub(crate) struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    steps: u64,
    mark: Instant,
    segs: Vec<Duration>,
}

impl<'a> Probe<'a> {
    fn new(tracer: Option<&'a mut Tracer>) -> Self {
        Probe {
            tracer,
            steps: 0,
            mark: Instant::now(),
            segs: Vec::new(),
        }
    }

    /// Start the run clock: set-up is over.
    fn start(&mut self) {
        self.steps = 0;
        self.segs.clear();
        self.mark = Instant::now();
    }

    fn cut(&mut self) {
        let now = Instant::now();
        self.segs.push(now - self.mark);
        self.mark = now;
    }

    fn after_step(&mut self, sim: &Sim<ClusterWorld>) {
        self.steps += 1;
        if self.steps.is_multiple_of(SEG_STEPS) {
            self.cut();
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.after_step(sim);
        }
    }

    fn set_phase(&mut self, sim: &Sim<ClusterWorld>, p: Phase) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.set_phase(sim, p);
        }
    }

    /// Time a layer call, as a span when traced.
    fn timed<T>(
        &mut self,
        sim: &mut Sim<ClusterWorld>,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Sim<ClusterWorld>) -> T,
    ) -> T {
        let start = Instant::now();
        let before = sim.stats();
        let out = f(sim);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.span(name, parent, start, delta(before, sim.stats()));
        }
        out
    }

    /// Close the run clock and, when traced, the trial.
    fn finish(&mut self, sim: &mut Sim<ClusterWorld>, out: &mut TrialOut, sim_start: SimTime) {
        self.cut();
        out.segs = std::mem::take(&mut self.segs);
        out.sim_s = (sim.now() - sim_start).as_secs_f64();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.end_trial(sim);
        }
    }
}

/// `scen::run_until`, stepping through the probe.
fn run_until(
    sim: &mut Sim<ClusterWorld>,
    horizon: SimTime,
    p: &mut Probe,
    mut pred: impl FnMut(&mut Sim<ClusterWorld>) -> bool,
) -> bool {
    while !pred(sim) {
        if sim.now() > horizon || !sim.step() {
            return pred(sim);
        }
        p.after_step(sim);
    }
    true
}

fn settle(sim: &mut Sim<ClusterWorld>, secs: f64, p: &mut Probe) {
    let until = sim.now() + SimDuration::from_secs_f64(secs);
    run_until(sim, until, p, |_| false);
}

/// `TrialWorld::build`. Traced, the same steps run split in two so cluster
/// build and VC provisioning get spans of their own under `parent`; the
/// traced run's digest check proves the split build made the same world.
fn build_world(
    tw: &TrialWorld,
    tracer: Option<&mut Tracer>,
    parent: Option<usize>,
) -> (Sim<ClusterWorld>, VcId) {
    let Some(t) = tracer else {
        return tw.build();
    };
    let start = Instant::now();
    let per_cluster = (1 + tw.nodes + tw.spares).div_ceil(tw.clusters);
    let mut sim = Sim::new(
        ClusterBuilder::new()
            .clusters(tw.clusters)
            .nodes_per_cluster(per_cluster)
            .storage(tw.storage_agg, tw.storage_stream)
            .tweak(|c| {
                c.guest_tcp.max_data_retries = tw.tcp_retries;
                c.clock_max_offset_ms = tw.clock_offset_ms;
                c.vm_overhead = tw.overhead;
                c.ctrl.cmd_mu = tw.cmd_median_s.ln();
                c.watchdog_period_ns = (tw.watchdog_period_s * 1e9) as i64;
            })
            .build(tw.seed),
        tw.seed,
    );
    if tw.ntp {
        ntp::start_ntp(&mut sim, SimDuration::from_secs(4));
    }
    if tw.arm_loss > 0.0 {
        lsc::set_faults(
            &mut sim,
            LscFaults {
                arm_loss_prob: tw.arm_loss,
            },
        );
    }
    t.span("cluster.build", parent, start, sim.stats());
    let provision = Instant::now();
    let before = sim.stats();
    let hosts: Vec<NodeId> = (1..=tw.nodes as u32).map(NodeId).collect();
    let mut spec = VcSpec::new("trial-vc", tw.nodes, tw.mem_mb);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let id = vc::provision_vc(&mut sim, spec, hosts, |_s, _i| {});
    while vc::vc(&sim, id).map(|v| v.state) != Some(vc::VcState::Up) {
        assert!(sim.step(), "provisioning stalled");
    }
    t.span(
        "core.provision",
        parent,
        provision,
        delta(before, sim.stats()),
    );
    (sim, id)
}

/// Build a trial's world; when traced, open the trial's span, charge the
/// build to the setup phase and attach the sinks.
fn build(tw: &TrialWorld, p: &mut Probe) -> (Sim<ClusterWorld>, VcId, Option<usize>) {
    let Some(t) = p.tracer.as_deref_mut() else {
        let (sim, id) = tw.build();
        return (sim, id, None);
    };
    let trial = t.open_trial();
    let start = Instant::now();
    let (mut sim, id) = build_world(tw, Some(&mut *t), Some(trial));
    t.begin_trial(&mut sim, start.elapsed(), trial);
    (sim, id, Some(trial))
}

/// One checkpoint round as the benchmark saw it.
struct Round {
    out: LscOutcome,
    host: Duration,
}

#[derive(Default)]
struct Rounds(Vec<Round>);

/// `scen::run_cycles` with each `checkpoint_vc` call → outcome timed on
/// the host: round *k+1* is issued `gap` after round *k*'s outcome. A
/// round that has no outcome by `deadline` after its issue ends the loop.
/// The outcomes stay in the world (a late one still lands there) until
/// [`take_rounds`].
fn run_rounds(
    sim: &mut Sim<ClusterWorld>,
    vc_id: VcId,
    method: LscMethod,
    rounds: u32,
    gap: SimDuration,
    deadline: SimDuration,
    p: &mut Probe,
) {
    sim.world.ext.insert(Rounds::default());
    for k in 0..rounds {
        let at = sim.now() + gap;
        sim.schedule_at(at, move |sim| {
            let issued = Instant::now();
            lsc::checkpoint_vc(sim, vc_id, method, move |sim, out| {
                let host = issued.elapsed();
                sim.world
                    .ext
                    .get_or_default::<Rounds>()
                    .0
                    .push(Round { out, host });
            });
        });
        let want = (k + 1) as usize;
        let ok = run_until(sim, at + deadline, p, |sim| {
            sim.world
                .ext
                .get::<Rounds>()
                .is_some_and(|b| b.0.len() >= want)
        });
        if !ok {
            break;
        }
    }
}

fn take_rounds(sim: &mut Sim<ClusterWorld>) -> Vec<Round> {
    sim.world
        .ext
        .remove::<Rounds>()
        .map(|b| b.0)
        .unwrap_or_default()
}

/// No deadline: the loop ends only when the queue drains (the job crashed).
const NO_DEADLINE: SimDuration = SimDuration::from_secs(10_000_000);

/// Shared body of `e3_rounds` and `e4_scale`: ring under `rounds`
/// sequential checkpoint rounds, then the application verdict. Every round
/// is an operation; a round fails if its outcome is unsuccessful, its pause
/// skew exceeds `skew_limit`, or the application is dead or corrupt at the
/// end.
#[allow(clippy::too_many_arguments)]
fn ring_rounds(
    tw: TrialWorld,
    sparse: bool,
    metrics: bool,
    method: LscMethod,
    shape: &Shape,
    gap_s: f64,
    sabotage: bool,
    p: &mut Probe,
) -> TrialOut {
    let (mut sim, vc_id, trial) = build(&tw, p);
    if metrics {
        sim.metrics = Metrics::enabled();
    }
    let skew_limit = if sabotage {
        SimDuration::ZERO
    } else {
        sim.world.cfg.silence_budget()
    };
    p.start();
    let sim_start = sim.now();
    let job = p.timed(&mut sim, trial, "mpi.launch", |sim| {
        if sparse {
            scen::ring_load_sparse(sim, vc_id, u64::MAX / 2)
        } else {
            scen::ring_load(sim, vc_id, u64::MAX / 2)
        }
    });
    p.set_phase(&sim, Phase::Steady);
    settle(&mut sim, shape.warm_s, p);
    run_rounds(
        &mut sim,
        vc_id,
        method,
        shape.rounds,
        SimDuration::from_secs_f64(gap_s),
        NO_DEADLINE,
        p,
    );
    p.set_phase(&sim, Phase::Drain);
    settle(&mut sim, shape.drain_s, p);
    let rounds = take_rounds(&mut sim);
    let v = scen::ring_verdict(&sim, &job);
    let app_ok = v.alive && v.data_ok;

    let mut out = TrialOut {
        attempted: shape.rounds as u64,
        ..TrialOut::default()
    };
    let mut bad = shape.rounds as u64 - rounds.len() as u64;
    for r in &rounds {
        let ok = r.out.success && r.out.pause_skew <= skew_limit;
        bad += u64::from(!ok);
        out.round_ms.push(r.host.as_secs_f64() * 1e3);
        out.digest.u64(u64::from(r.out.success));
        out.digest.u64(r.out.pause_skew.nanos());
        out.digest.u64(r.out.save_duration.nanos());
        out.digest.u64(u64::from(r.out.attempts));
    }
    out.failed = if app_ok { bad } else { shape.rounds as u64 };
    out.digest.u64(u64::from(app_ok));
    out.digest.u64(v.laps_done);
    out.digest.u64(sim.stats().executed);
    out.digest.u64(sim.now().nanos());
    p.finish(&mut sim, &mut out, sim_start);
    out
}

/// `e10_failover`: E10's world — a 16-VM ring of 4 KiB messages at
/// 100 ms compute per lap on 16 spares, LSC every 60 s under
/// `reliability::manage` with automatic restore, and scheduled host crashes
/// (see [`E10_CRASHES_S`]). The job is the operation: it must finish, alive
/// and intact, before its horizon.
fn e10_trial(tw: TrialWorld, shape: &Shape, sabotage: bool, p: &mut Probe) -> TrialOut {
    let (mut sim, vc_id, trial) = build(&tw, p);
    p.start();
    let sim_start = sim.now();
    let cfg = ring::RingConfig {
        payload_len: 4096,
        iters: shape.laps,
        compute_ns: 100_000_000,
    };
    let vms = vc::vc(&sim, vc_id).expect("vc is up").vms.clone();
    let job: MpiJob = p.timed(&mut sim, trial, "mpi.launch", |sim| {
        harness::launch_on_vms(sim, &vms, move |r, s| ring::program(cfg, r, s))
    });
    p.set_phase(&sim, Phase::Steady);
    settle(&mut sim, shape.warm_s, p);
    // E10's horizon: six times 220 s of work per 1,000 laps.
    let horizon = sim.now()
        + SimDuration::from_secs_f64(if sabotage {
            1.0
        } else {
            6.0 * E10_LAP_S * shape.laps as f64
        });
    p.timed(&mut sim, trial, "core.manage", |sim| {
        reliability::manage(
            sim,
            vc_id,
            Policy {
                cadence: Cadence::Fixed(SimDuration::from_secs(60)),
                method: LscMethod::ntp_default(),
                max_restores: 32,
                ..Policy::periodic(SimDuration::from_secs(60))
            },
        )
    });
    // Crashes start once the first set is stored (a node lost before then
    // is unrecoverable by design and measures no restore). Each trial
    // crashes the same number of VC hosts at the same offsets, so every
    // trial does comparable restore work; the seed picks the victims.
    let first_by = sim.now() + SimDuration::from_secs(600);
    run_until(&mut sim, first_by, p, |sim| {
        reliability::stats(sim, vc_id).checkpoints_ok > 0
    });
    for (k, &offset_s) in E10_CRASHES_S.iter().enumerate() {
        let pick = rng::splitmix64(tw.seed ^ k as u64);
        sim.schedule_in(SimDuration::from_secs_f64(offset_s), move |sim| {
            let Some(v) = vc::vc(sim, vc_id) else { return };
            let victim = v.hosts[(pick % v.hosts.len() as u64) as usize];
            crash_node(sim, victim);
            sim.schedule_in(SimDuration::from_secs(90), move |sim| {
                repair_node(sim, victim)
            });
        });
    }
    let done = run_until(&mut sim, horizon, p, |sim| harness::all_done(sim, &job));
    let v = scen::ring_verdict(&sim, &job);
    let restores = reliability::stats(&mut sim, vc_id).restores;
    let ok = done && sim.now() <= horizon && v.alive && v.data_ok;
    let mut out = TrialOut {
        attempted: 1,
        failed: u64::from(!ok),
        restores: restores as u64,
        ..TrialOut::default()
    };
    out.digest.u64(u64::from(ok));
    out.digest.u64(v.laps_done);
    out.digest.u64(restores as u64);
    out.digest.u64(sim.stats().executed);
    out.digest.u64(sim.now().nanos());
    p.finish(&mut sim, &mut out, sim_start);
    out
}

/// The world `run_scenario` builds for `spec`.
fn fuzz_world(spec: &ScenarioSpec) -> TrialWorld {
    TrialWorld {
        nodes: spec.nodes,
        spares: spec.spares,
        clusters: spec.clusters,
        seed: spec.seed,
        tcp_retries: spec.tcp_retries,
        clock_offset_ms: spec.clock_offset_ms,
        mem_mb: spec.mem_mb,
        ntp: spec.ntp,
        ..TrialWorld::default()
    }
}

/// `fuzz_oracles`: fuzz trial `i` (see [`fuzz_spec`]) under every oracle
/// with the replay check on. The trial is the operation: any oracle
/// failure fails it (expected detections do not). `run_scenario` builds
/// its own worlds, so this trial's run time includes them.
fn fuzz_trial(i: usize, seed: u64, sabotage: bool, p: &mut Probe) -> TrialOut {
    let spec = fuzz_spec(i, seed);
    let tuning = Tuning {
        budget_override: sabotage.then_some(SimDuration::from_nanos(1)),
        replay_check: true,
    };
    p.start();
    let report = run_scenario(&spec, &tuning);
    p.cut();
    let mut out = TrialOut {
        attempted: 1,
        segs: std::mem::take(&mut p.segs),
        ..TrialOut::default()
    };
    match report {
        Ok(r) => {
            // Sabotaged, the 1 ns budget must also surface as a failure
            // where the coordinator only promises a detection.
            let broken = sabotage && !r.detections.is_empty();
            out.failed = u64::from(!r.is_clean() || broken);
            // Both runs of the replay check advance the clock to `end_s`.
            out.sim_s = 2.0 * r.end_s;
            out.digest = fuzz_digest(r.digest, r.outcomes, r.successes, r.app_alive);
        }
        Err(e) => {
            eprintln!("fuzz trial {i}: invalid spec: {e}");
            out.failed = 1;
        }
    }
    out
}

/// What `fuzz_oracles` folds into its digest: the trial report's event
/// digest and outcome counts.
fn fuzz_digest(event_digest: u64, outcomes: u32, successes: u32, alive: bool) -> Digest {
    let mut d = Digest::default();
    d.u64(event_digest);
    d.u64(u64::from(outcomes));
    d.u64(u64::from(successes));
    d.u64(u64::from(alive));
    d
}

/// The event-stream half of `run_scenario`'s determinism digest: FNV over
/// each event's time and key.
#[derive(Default)]
struct EventDigest {
    digest: Digest,
    events: u64,
}

impl EventSink for EventDigest {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        self.events += 1;
        self.digest.bytes(&time.nanos().to_le_bytes());
        self.digest.bytes(event.key().as_bytes());
    }
}

/// The traced twin of [`fuzz_trial`]. `run_scenario` keeps its `Sim` to
/// itself, so this drives the same scenario once through the same public
/// calls — build, launch, settle, fault plan, checkpoint cycles with a
/// liveness deadline, drain — where the probe can see it. It recomputes
/// `run_scenario`'s trial digest, so the run's digest check proves it
/// simulated exactly what `run_scenario` did. It runs no oracles.
fn fuzz_twin(i: usize, seed: u64, p: &mut Probe) -> TrialOut {
    let spec = fuzz_spec(i, seed);
    let method = LscMethod::from_name(&spec.method).expect("generated method");
    let (mut sim, vc_id, trial) = build(&fuzz_world(&spec), p);
    sim.metrics = Metrics::enabled();
    let events = Rc::new(RefCell::new(EventDigest::default()));
    let spans = Rc::new(RefCell::new(SpanChecker::new()));
    sim.attach_sink(events.clone());
    sim.attach_sink(spans.clone());
    p.start();
    let sim_start = sim.now();
    let job = p.timed(&mut sim, trial, "mpi.launch", |sim| {
        launch_fuzz_workload(sim, &spec, vc_id)
    });
    p.set_phase(&sim, Phase::Steady);
    settle(&mut sim, spec.settle_s, p);
    let t0 = sim.now();
    let mut plan = FaultPlan::new(rng::derive_seed(spec.seed, "fuzz.plan", 0));
    for f in &spec.faults {
        let kind = kind_from_str(&f.kind).expect("generated kind");
        plan.window(
            kind,
            f.target,
            t0 + SimDuration::from_secs_f64(f.from_s),
            t0 + SimDuration::from_secs_f64(f.until_s),
            f.magnitude,
        );
    }
    for s in &spec.steady {
        plan.steady(kind_from_str(&s.kind).expect("generated kind"), s.prob);
    }
    install_fault_plan(&mut sim, plan);
    run_rounds(
        &mut sim,
        vc_id,
        method,
        spec.cycles,
        SimDuration::from_secs_f64(spec.gap_s),
        FUZZ_ROUND_DEADLINE,
        p,
    );
    p.set_phase(&sim, Phase::Drain);
    settle(&mut sim, FUZZ_DRAIN.as_secs_f64(), p);
    let alive = harness::first_failure(&sim, &job).is_none();
    let end = sim.now();

    let rounds = take_rounds(&mut sim);

    // run_scenario's digest: event stream (0 if there was none), span
    // stream, event count, end time, then one byte per outcome.
    let ev = events.borrow();
    let mut d = Digest::default();
    d.u64(if ev.events == 0 { 0 } else { ev.digest.0 });
    d.u64(spans.borrow().digest());
    d.u64(ev.events);
    d.u64(end.nanos());
    for r in &rounds {
        d.bytes(&[u8::from(r.out.success)]);
    }
    let successes = rounds.iter().filter(|r| r.out.success).count() as u32;
    let digest = fuzz_digest(d.0, rounds.len() as u32, successes, alive);
    drop(ev);

    let mut out = TrialOut {
        attempted: 1,
        digest,
        round_ms: rounds.iter().map(|r| r.host.as_secs_f64() * 1e3).collect(),
        ..TrialOut::default()
    };
    p.finish(&mut sim, &mut out, sim_start);
    out
}

/// `run_scenario`'s guest workloads.
fn launch_fuzz_workload(sim: &mut Sim<ClusterWorld>, spec: &ScenarioSpec, vc_id: VcId) -> MpiJob {
    let vms = vc::vc(sim, vc_id).expect("vc is up").vms.clone();
    let n = spec.nodes;
    match spec.workload.as_str() {
        "ring" => scen::ring_load(sim, vc_id, u64::MAX / 2),
        "stream" => {
            let cfg = stream::StreamConfig {
                len: 1 << 12,
                reps: 5_000,
                mem_bw_bps: 5.0e5,
                scalar: 3.0,
            };
            harness::launch_on_vms(sim, &vms[..1], move |r, s| stream::program(cfg, r, s))
        }
        "hpl" => {
            let cfg = hpl::HplConfig::new(8 * n, 8, spec.seed);
            harness::launch_on_vms(sim, &vms, move |r, s| hpl::program(cfg, r, s))
        }
        "ptrans" => {
            let cfg = ptrans::PtransConfig::new(8 * n, spec.seed).with_reps(50);
            harness::launch_on_vms(sim, &vms, move |r, s| ptrans::program(cfg, r, s))
        }
        other => unreachable!("generated workload {other:?}"),
    }
}

/// The world of trial `i`.
fn world(w: Workload, i: usize, seed: u64, shape: &Shape) -> TrialWorld {
    let base = TrialWorld {
        nodes: shape.nodes,
        seed,
        ..TrialWorld::default()
    };
    match w {
        Workload::E3Rounds => TrialWorld {
            mem_mb: E3_MEMS[i % 3],
            ..base
        },
        // No agent faults: E4's p = 0.004 makes the round retry on some
        // seeds and not others, which doubles its work (see the README).
        Workload::E4Scale => TrialWorld { mem_mb: 16, ..base },
        Workload::E10Failover => TrialWorld {
            spares: shape.nodes,
            mem_mb: 64,
            ..base
        },
        Workload::FuzzOracles => fuzz_world(&fuzz_spec(i, seed)),
    }
}

/// The fuzz campaign whose trials `fuzz_oracles` runs (the CI smoke
/// campaign's seed).
const FUZZ_CAMPAIGN: u64 = 1;

/// Seed of trial `i`'s world, derived from the workload seed.
fn trial_seed(w: Workload, seed: u64, i: usize) -> u64 {
    rng::derive_seed(seed, w.name(), i as u64)
}

/// The scenario of fuzz trial `i`: trial `i` of the fixed campaign, so
/// every run weighs the same mix of topologies, coordinators and fault
/// plans, re-seeded with `seed` so the worlds and fault draws differ.
fn fuzz_spec(i: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        ..gen::generate(FUZZ_CAMPAIGN, i as u64)
    }
}

/// Run trial `i` of workload `w`. `twin` picks, for `fuzz_oracles`, the
/// traced run's twin of `run_scenario`; the other workloads have one path.
pub(crate) fn trial(
    w: Workload,
    i: usize,
    seed: u64,
    shape: &Shape,
    sabotage: bool,
    twin: bool,
    tracer: Option<&mut Tracer>,
) -> TrialOut {
    let p = &mut Probe::new(tracer);
    let seed = trial_seed(w, seed, i);
    let tw = world(w, i, seed, shape);
    match w {
        // World i of a pass takes gap and image size i mod 3, so a pass of
        // three worlds covers every gap and every image size.
        Workload::E3Rounds => ring_rounds(
            tw,
            false,
            true,
            LscMethod::ntp_default(),
            shape,
            E3_GAPS[i % 3],
            sabotage,
            p,
        ),
        Workload::E4Scale => {
            let mut out = ring_rounds(
                tw,
                true,
                false,
                LscMethod::hardened_default(),
                shape,
                1.0,
                sabotage,
                p,
            );
            out.attempted = 1;
            out.failed = u64::from(out.failed > 0);
            out
        }
        Workload::E10Failover => e10_trial(tw, shape, sabotage, p),
        Workload::FuzzOracles if twin => fuzz_twin(i, seed, p),
        Workload::FuzzOracles => fuzz_trial(i, seed, sabotage, p),
    }
}

/// Time `TrialWorld::build` of trial `i` alone (the world is dropped).
pub(crate) fn setup_probe(
    w: Workload,
    i: usize,
    seed: u64,
    shape: &Shape,
    tracer: Option<&mut Tracer>,
) -> Duration {
    let tw = world(w, i, trial_seed(w, seed, i), shape);
    let start = Instant::now();
    let built = build_world(&tw, tracer, None);
    let took = start.elapsed();
    drop(built);
    took
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark issues rounds exactly as `scen::run_cycles` does: the
    /// same world yields the same outcomes, end time and engine work.
    #[test]
    fn run_rounds_matches_run_cycles() {
        let tw = TrialWorld {
            nodes: 4,
            seed: 3,
            ..TrialWorld::default()
        };
        let go = |mine: bool| {
            let (mut sim, vc_id) = tw.build();
            let _job = scen::ring_load(&mut sim, vc_id, u64::MAX / 2);
            scen::settle(&mut sim, SimDuration::from_secs(10));
            let (method, gap) = (LscMethod::ntp_default(), SimDuration::from_secs(10));
            let outs: Vec<LscOutcome> = if mine {
                let p = &mut Probe::new(None);
                run_rounds(&mut sim, vc_id, method, 2, gap, NO_DEADLINE, p);
                take_rounds(&mut sim).into_iter().map(|r| r.out).collect()
            } else {
                scen::run_cycles(&mut sim, vc_id, method, 2, gap)
            };
            let key: Vec<_> = outs
                .iter()
                .map(|o| (o.success, o.pause_skew, o.save_duration))
                .collect();
            (key, sim.now(), sim.stats())
        };
        assert_eq!(go(true), go(false));
    }

    /// The traced twin of a fuzz trial reproduces `run_scenario`'s digest,
    /// traced or not, on a spread of campaign trials.
    #[test]
    fn fuzz_twin_reproduces_run_scenario() {
        for i in [0, 1, 5] {
            let plain = trial(
                Workload::FuzzOracles,
                i,
                7,
                &Workload::FuzzOracles.tiny(),
                false,
                false,
                None,
            );
            let mut t = Tracer::default();
            let twin = trial(
                Workload::FuzzOracles,
                i,
                7,
                &Workload::FuzzOracles.tiny(),
                false,
                true,
                Some(&mut t),
            );
            assert_eq!(plain.failed, 0, "trial {i}");
            assert_eq!(plain.digest, twin.digest, "trial {i}");
        }
    }
}

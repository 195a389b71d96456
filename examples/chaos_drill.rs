//! Chaos drill: the failure-aware checkpoint pipeline versus everything
//! at once, in one seeded, replayable run.
//!
//! A 4-vnode ring job runs under the hardened reliability policy while a
//! [`FaultPlan`] injects a compound schedule: steady storage/control/image
//! faults, a 2-minute NTP outage with a clock step mid-way, a storage
//! brownout, a control partition of one member — and one VC host simply
//! crashes. The job finishes anyway, with verified data; the fault
//! timeline below is rebuilt from the typed event stream, so the whole
//! incident is auditable after the fact.
//!
//! Run: `cargo run --release --example chaos_drill`

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::sim_core::{Event, EventSink, FaultEvent, FaultPlan, NtpEvent};
use dvc_suite::{cluster, dvc, mpi, workloads};
use std::cell::RefCell;
use std::rc::Rc;

/// Records the fault-plane, storage and NTP events the timeline reports.
#[derive(Default)]
struct Timeline(Vec<(SimTime, Event)>);

impl EventSink for Timeline {
    fn on_event(&mut self, time: SimTime, event: &Event) {
        if matches!(event, Event::Fault(_) | Event::Storage(_) | Event::Ntp(_)) {
            self.0.push((time, event.clone()));
        }
    }
}

/// `[t] key {fields}`, the fields taken from the event's JSONL record.
fn line(time: SimTime, event: &Event) -> String {
    let json = event.jsonl(time);
    // `{"t":…,"key":…,fields…}`: keep what follows the first two members.
    let fields = json.splitn(3, ',').nth(2).unwrap_or("}");
    format!("   [{time}] {} {{{fields}", event.key())
}

fn main() {
    let seed = 1337;
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: 11,
        seed,
        ..Testbed::default()
    });
    let timeline = Rc::new(RefCell::new(Timeline::default()));
    sim.attach_sink(timeline.clone());

    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("drill-vc", 4, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);
    println!("== drill VC up on nodes 1-4 at t={}", sim.now());

    let cfg = workloads::ring::RingConfig {
        payload_len: 1024,
        iters: 1200,
        compute_ns: 200_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });
    println!("== 4-rank ring job launched (~250 s of work)");

    // The compound fault schedule, anchored 20 s in (job steady state).
    let t0 = sim.now() + SimDuration::from_secs(20);
    let rel = |s: f64| t0 + SimDuration::from_secs_f64(s);
    let mut plan = FaultPlan::new(seed);
    plan.steady("storage.fail", 0.1);
    plan.steady("control.drop", 0.05);
    plan.steady("image.corrupt", 0.2);
    plan.window("ntp.outage", None, rel(30.0), rel(150.0), 1.0);
    plan.window("clock.step", Some(2), rel(70.0), rel(70.0), 4.0);
    plan.window("storage.brownout", None, rel(40.0), rel(70.0), 0.4);
    plan.window("control.partition", Some(3), rel(95.0), rel(101.0), 1.0);
    cluster::faults::install_fault_plan(&mut sim, plan);
    println!("== fault plan installed (seed {seed}): the next ~3 minutes will be rough");

    // The full hardened pipeline: verify-on-save, retries, abort-and-re-arm,
    // clock-free degradation, intact-generation fallback restores.
    dvc::reliability::manage(
        &mut sim,
        vc,
        dvc::reliability::Policy::hardened(SimDuration::from_secs(45)),
    );

    // And, on top of everything, a host dies outright.
    let crash_at = t0 + SimDuration::from_secs(110);
    sim.schedule_at(crash_at, |sim| {
        println!("== t={}: node 4 crashes", sim.now());
        cluster::failure::crash_node(sim, NodeId(4));
    });

    let done = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        mpi::harness::all_done(sim, &job)
    });

    // --- the incident timeline, from the typed events --------------------
    println!("\n== fault timeline (from the typed event stream):");
    let timeline = timeline.borrow();
    let mut ntp_suppressed = 0u64;
    let mut stale = Vec::new();
    for (t, ev) in &timeline.0 {
        match ev {
            // The outage spams one event per unanswered poll; summarize those.
            Event::Ntp(NtpEvent::Unanswered { .. }) => ntp_suppressed += 1,
            Event::Ntp(NtpEvent::SyncStale { .. }) => stale.push(line(*t, ev)),
            // Tallied per kind below.
            Event::Fault(FaultEvent::Injected { .. }) => {}
            _ => println!("{}", line(*t, ev)),
        }
    }
    if ntp_suppressed > 0 {
        println!("   (+ {ntp_suppressed} unanswered NTP polls during the outage)");
    }
    println!("== reliability events:");
    for l in &stale {
        println!("{l}");
    }
    let injected: Vec<String> = sim
        .world
        .faults
        .injected()
        .map(|(k, n)| format!("{k}: {n}"))
        .collect();
    println!("== faults injected: {}", injected.join(", "));

    // --- verdict -----------------------------------------------------------
    assert!(
        done,
        "job did not finish: {:?}",
        mpi::harness::first_failure(&sim, &job)
    );
    for r in 0..job.size {
        assert!(workloads::ring::ring_ok(
            &mpi::harness::rank(&sim, &job, r).data
        ));
    }
    let st = dvc::reliability::stats(&mut sim, vc);
    println!(
        "== job finished at t={} with data verified: {} checkpoints ok, {} failed, \
         {} in clock-free degraded mode, {} restore(s)",
        sim.now(),
        st.checkpoints_ok,
        st.checkpoints_failed,
        st.degraded_checkpoints,
        st.restores
    );
    println!("== replay me: same seed, same faults, same timeline, same verdict");
}

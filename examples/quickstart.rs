//! Quickstart: the whole DVC story in one file.
//!
//! 1. Build a simulated 8-node cluster (drifting clocks, NTP, shared
//!    storage, gigabit fabric).
//! 2. Provision a 4-vnode virtual cluster and run a communication-heavy
//!    ring job on it.
//! 3. Take a transparent NTP-scheduled LSC checkpoint mid-run.
//! 4. Kill every node the job runs on.
//! 5. Restore the checkpoint set onto different physical nodes and watch
//!    the job finish with verified data.
//!
//! Run: `cargo run --release --example quickstart`

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{cluster, dvc, mpi, workloads};

fn main() {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: 9, // head + 4 job nodes + 4 spares
        ..Testbed::default()
    });
    println!("== testbed: 9 nodes, NTP running, shared storage attached");

    // --- provision a virtual cluster on nodes 1..4 -----------------------
    let hosts: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let mut spec = VcSpec::new("demo-vc", 4, 64);
    spec.os_image_bytes = 64 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);
    println!(
        "== virtual cluster up at t={} (staging + boot), mapping: {:?}",
        sim.now(),
        dvc::vc::vc(&sim, vc).unwrap().mapping(&sim.world)
    );

    // --- run a ring job on it --------------------------------------------
    let cfg = workloads::ring::RingConfig {
        payload_len: 4096,
        iters: 600,
        compute_ns: 150_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });
    println!("== 4-rank ring job launched (600 laps, 32 KiB per hop)");

    // --- checkpoint mid-run ------------------------------------------------
    let ckpt_at = sim.now() + SimDuration::from_secs(45);
    sim.schedule_at(ckpt_at, move |sim| {
        dvc::lsc::checkpoint_vc(sim, vc, LscMethod::ntp_default(), |sim, out| {
            println!(
                "== checkpoint: success={} pause_skew={} save={} (set {:?})",
                out.success, out.pause_skew, out.save_duration, out.set_id
            );
            let set = out.set_id.expect("set stored");
            // --- catastrophe: all four hosts die 20 s later ---------------
            sim.schedule_in(SimDuration::from_secs(20), move |sim| {
                println!("== CRASH: nodes 1-4 fail at t={}", sim.now());
                for n in 1..=4 {
                    cluster::failure::crash_node(sim, NodeId(n));
                }
                // --- restore the whole VC on the spare nodes --------------
                let targets: Vec<NodeId> = (5..=8).map(NodeId).collect();
                dvc::lsc::restore_vc(sim, set, targets, SimDuration::from_secs(5), |sim, out| {
                    println!(
                        "== restored onto nodes 5-8 at t={}: success={} resume_skew={}",
                        sim.now(),
                        out.success,
                        out.resume_skew
                    );
                })
                .expect("restore should start");
            });
        });
    });

    // --- drive to completion ----------------------------------------------
    // Note: while the crashed VC is being restored its VMs are transiently
    // "dead", so we wait for completion rather than reacting to transient
    // state; a stuck job is caught by the horizon.
    let done = sim.run_until(SimTime::from_secs_f64(3600.0), |sim| {
        mpi::harness::all_done(sim, &job)
    });
    if !done {
        println!(
            "!! job did not complete: {:?}",
            mpi::harness::first_failure(&sim, &job)
        );
        std::process::exit(1);
    }

    // --- verify ------------------------------------------------------------
    for r in 0..job.size {
        let data = &mpi::harness::rank(&sim, &job, r).data;
        assert!(workloads::ring::ring_ok(data), "rank {r} data corrupted");
    }
    let v = dvc::vc::vc(&sim, vc).unwrap();
    println!(
        "== job completed at t={} on hosts {:?} with all payload checksums OK",
        sim.now(),
        v.hosts
    );
    println!("== the node crash was completely transparent to the application");
}

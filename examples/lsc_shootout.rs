//! LSC shootout: naive vs. NTP-scheduled vs. hardened, live.
//!
//! For a range of node counts, take one checkpoint of a running ring job
//! with each coordinator and print what happened: pause skew, success, and
//! whether the application survived. This is the qualitative version of
//! experiments E2–E4 (run `cargo run -p dvc-bench --bin experiments` for
//! the full campaigns).
//!
//! Run: `cargo run --release --example lsc_shootout`

use dvc_suite::prelude::*;
use dvc_suite::scenarios::{self, Testbed};
use dvc_suite::{dvc, mpi, workloads};

fn trial(n: usize, method: LscMethod, seed: u64) -> (bool, bool, SimDuration) {
    let mut sim = scenarios::testbed(Testbed {
        nodes_per_cluster: n + 1,
        seed,
        ..Testbed::default()
    });
    let hosts: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
    let mut spec = VcSpec::new("vc", n, 64);
    spec.os_image_bytes = 32 << 20;
    spec.boot_time = SimDuration::from_secs(5);
    let vc = scenarios::provision_and_wait(&mut sim, spec, hosts);

    let cfg = workloads::ring::RingConfig {
        payload_len: 4096,
        iters: 3000,
        compute_ns: 100_000_000,
    };
    let job = scenarios::launch_on_vc(&mut sim, vc, move |r, s| {
        workloads::ring::program(cfg, r, s)
    });

    let at = sim.now() + SimDuration::from_secs(60);
    let horizon = SimTime::from_secs_f64(400.0);
    let out = sim.await_reply(horizon, |sim, reply| {
        sim.schedule_at(at, move |sim| {
            dvc::lsc::checkpoint_vc(sim, vc, method, reply);
        });
    });
    // Give any transport fallout time to surface.
    sim.run_until(horizon, |sim| sim.now() > at + SimDuration::from_secs(120));
    let app_ok = mpi::harness::first_failure(&sim, &job).is_none();
    match out {
        Some(o) => (o.success, app_ok, o.pause_skew),
        None => (false, app_ok, SimDuration::ZERO),
    }
}

fn main() {
    println!("| nodes | method   | vm saves | app survived | pause skew |");
    println!("|-------|----------|----------|--------------|------------|");
    for &n in &[4usize, 8, 12] {
        for (method, name) in [
            (LscMethod::Naive, "naive"),
            (LscMethod::ntp_default(), "ntp"),
            (dvc::lsc::LscMethod::hardened_default(), "hardened"),
        ] {
            let (saved, app_ok, skew) = trial(n, method, 9000 + n as u64);
            println!(
                "| {:>5} | {:<8} | {:<8} | {:<12} | {:>10} |",
                n,
                name,
                if saved { "ok" } else { "FAILED" },
                if app_ok { "yes" } else { "NO" },
                format!("{skew}")
            );
        }
    }
    println!();
    println!(
        "naive skew grows with node count until it crosses the TCP retry \
         budget; ntp/hardened stay at clock-sync residuals (paper §3.1)."
    );
}

//! E7 — §3.2: the wall-time jump. "Since time was not virtualized in any
//! virtual machine, the jump in wall time due to the checkpoint caused HPL
//! to report a greatly increased execution time."
//!
//! HPL stamps its own start/end with the guest clock (which is the host
//! clock — not virtualized). We run the same factorization with k ∈
//! {0,1,2,4,8} checkpoint cycles and report HPL's self-reported runtime vs
//! the k = 0 baseline: the inflation is k × (save + suspension + resume).

use crate::Opts;
use dvc_bench::scen::{run_cycles, TrialWorld};
use dvc_bench::table::{secs, Table};
use dvc_core::lsc::LscMethod;
use dvc_core::vc;
use dvc_mpi::harness;
use dvc_mpi::ops::Op;
use dvc_sim_core::{SimDuration, SimTime};
use dvc_workloads::hpl;

fn reported_runtime(opts: Opts, k: u32) -> (f64, f64) {
    let tw = TrialWorld {
        nodes: 8,
        seed: opts.seed ^ 0xE7,
        mem_mb: 128,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let cfg = hpl::HplConfig::new(256, 32, 5);
    let vms = vc::vc(&sim, vc_id).unwrap().vms.clone();
    let job = harness::launch_on_vms(&mut sim, &vms, move |r, s| {
        let (mut ops, data) = hpl::program(cfg, r, s);
        // Pad the run so k checkpoints at 10 s gaps fit inside it.
        ops.insert(1, Op::ComputeNs(120_000_000_000));
        (ops, data)
    });
    if k > 0 {
        let _ = run_cycles(
            &mut sim,
            vc_id,
            LscMethod::ntp_default(),
            k,
            SimDuration::from_secs(10),
        );
    }
    let ok = sim.run_until(SimTime::from_secs_f64(86000.0), |sim| {
        harness::all_done(sim, &job)
    });
    assert!(ok, "E7 HPL failed (k={k})");
    let st = &harness::rank(&sim, &job, 0).stats;
    let t0 = st.markers.iter().find(|m| m.0 == "hpl-start").unwrap().1;
    let t1 = st.markers.iter().find(|m| m.0 == "hpl-end").unwrap().1;
    let reported = (t1 - t0) as f64 / 1e9;
    let residual = harness::rank(&sim, &job, 0).data.f64("hpl.residual");
    (reported, residual)
}

pub fn run(opts: Opts) {
    println!("## E7 — HPL's self-reported runtime vs checkpoint count (paper §3.2)\n");
    let (base, _) = reported_runtime(opts, 0);
    let mut t = Table::new(&[
        "checkpoints",
        "HPL-reported runtime",
        "inflation vs k=0",
        "per-cycle downtime",
        "residual still ok",
    ]);
    for k in [0u32, 1, 2, 4, 8] {
        let (rep, residual) = if k == 0 {
            (base, reported_runtime(opts, 0).1)
        } else {
            reported_runtime(opts, k)
        };
        let infl = rep - base;
        t.row(&[
            k.to_string(),
            secs(rep),
            if k == 0 { "-".into() } else { secs(infl) },
            if k == 0 {
                "-".into()
            } else {
                secs(infl / k as f64)
            },
            if residual < 1e-10 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "The factorization's *answer* is identical every time (residual \
         unchanged); only the benchmark's self-measured wall time grows, by \
         one save+suspend+resume per checkpoint — exactly the reporting \
         artifact the paper describes.\n"
    );
}

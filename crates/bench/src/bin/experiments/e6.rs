//! E6 — §1/§2: whole-VM (DVC) vs application-level checkpointing.
//!
//! "This approach has even more overhead than user level checkpointing
//! since the state of the entire guest environment is saved … but in many
//! ways is simpler to deal with since all guest kernel state is saved."
//!
//! For HPL at several problem sizes we measure, per checkpoint:
//! * DVC: total image bytes (= guest memory), parallel save time, parallel
//!   restore time — fully transparent;
//! * application-level: bytes the application itself persists (its live
//!   matrix + pivots), and the time those writes take on the local scratch
//!   disks — minimal data, but the application must implement it.

use crate::Opts;
use dvc_bench::scen::TrialWorld;
use dvc_bench::table::{secs, Table};
use dvc_core::lsc::{self, LscMethod};
use dvc_core::vc;
use dvc_mpi::harness;
use dvc_sim_core::{SimDuration, SimTime};
use dvc_workloads::hpl;

struct DvcCost {
    image_mb: f64,
    save_s: f64,
    restore_s: f64,
}

fn dvc_cost(opts: Opts, ranks: usize, mem_mb: u32) -> DvcCost {
    let tw = TrialWorld {
        nodes: ranks,
        spares: ranks,
        seed: opts.seed ^ 0xE6,
        mem_mb,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    // An idle-ish guest is fine: image size is the memory footprint either
    // way; what we time is the storage path.
    let _job = dvc_bench::scen::ring_load(&mut sim, vc_id, u64::MAX / 2);
    dvc_bench::scen::settle(&mut sim, SimDuration::from_secs(30));

    let horizon = SimTime::from_secs_f64(36000.0);
    // The image size is read off the store when the outcome lands.
    let (save_s, set_id, image_mb) = sim
        .await_reply(horizon, |sim, reply| {
            lsc::checkpoint_vc(sim, vc_id, LscMethod::ntp_default(), |sim, out| {
                assert!(out.success, "E6 checkpoint failed: {}", out.detail);
                let set_id = out.set_id.unwrap();
                let bytes = vc::store(sim)
                    .sets
                    .iter()
                    .find(|s| s.id == set_id)
                    .unwrap()
                    .total_bytes();
                let got = (out.save_duration.as_secs_f64(), set_id, bytes as f64 / 1e6);
                reply(sim, got);
            });
        })
        .unwrap();

    // Restore onto the spare nodes, timing the parallel read + resume.
    let targets: Vec<_> = ((ranks as u32 + 1)..=(2 * ranks as u32))
        .map(dvc_cluster::node::NodeId)
        .collect();
    let out = sim
        .await_reply(horizon, |sim, reply| {
            lsc::restore_vc(sim, set_id, targets, SimDuration::from_secs(5), reply)
                .expect("restore should start");
        })
        .unwrap();
    assert!(out.success);
    let restore_s = out.duration.as_secs_f64();
    DvcCost {
        image_mb,
        save_s,
        // The coordinated restore includes its 5 s NTP lead; report the
        // storage+resume part.
        restore_s: (restore_s - 5.0).max(0.0),
    }
}

struct AppCost {
    ckpt_mb: f64,
    write_s: f64,
}

/// Application-level arm: run HPL with periodic self-checkpoints and read
/// the per-checkpoint byte volume off the guests' scratch disks.
fn app_cost(opts: Opts, ranks: usize, n: usize) -> AppCost {
    let tw = TrialWorld {
        nodes: ranks,
        seed: opts.seed ^ 0xE6 ^ 7,
        mem_mb: 256,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let mut cfg = hpl::HplConfig::new(n, 16, 5);
    let every = 2usize;
    cfg.app_ckpt_every = Some(every);
    let vms = vc::vc(&sim, vc_id).unwrap().vms.clone();
    let job = harness::launch_on_vms(&mut sim, &vms, move |r, s| hpl::program(cfg, r, s));
    let ok = sim.run_until(SimTime::from_secs_f64(36000.0), |sim| {
        harness::all_done(sim, &job)
    });
    assert!(ok, "E6 app-level HPL failed");
    // Bytes each rank persisted, divided by number of checkpoints.
    let ckpts = (n / 16 - 1) / every; // panels 2,4,… below n/nb
    let mut total_bytes = 0u64;
    let mut max_write_s = 0.0f64;
    for &vm in &vms {
        let g = &sim.world.vm(vm).unwrap().guest;
        total_bytes += g.disk.bytes_written;
        let per_ckpt = g.disk.bytes_written as f64 / ckpts.max(1) as f64;
        max_write_s = max_write_s.max(per_ckpt / g.disk.write_bps);
    }
    AppCost {
        ckpt_mb: total_bytes as f64 / ckpts.max(1) as f64 / 1e6,
        write_s: max_write_s,
    }
}

pub fn run(opts: Opts) {
    println!("## E6 — checkpoint efficiency: whole-VM (DVC) vs application-level (paper §2)\n");
    let ranks = 8;
    let mut t = Table::new(&[
        "HPL n",
        "method",
        "data per checkpoint",
        "save time",
        "restore",
        "app changes needed",
    ]);
    for (n, mem_mb) in [(128usize, 128u32), (256, 256), (384, 512)] {
        let d = dvc_cost(opts, ranks, mem_mb);
        let a = app_cost(opts, ranks, n);
        t.row(&[
            n.to_string(),
            "DVC whole-VM".into(),
            format!("{:.0} MB (guest memory × {ranks})", d.image_mb),
            secs(d.save_s),
            secs(d.restore_s),
            "none".into(),
        ]);
        t.row(&[
            n.to_string(),
            "application-level".into(),
            format!("{:.1} MB (live matrix + pivots)", a.ckpt_mb),
            secs(a.write_s),
            "requires app restart logic".into(),
            "checkpoint code in app".into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The paper's trade-off, quantified: DVC writes orders of magnitude \
         more bytes (full guest memory) but needs zero application \
         involvement and restores anywhere; application-level checkpoints \
         are minimal but exist only if every application implements them.\n"
    );
}

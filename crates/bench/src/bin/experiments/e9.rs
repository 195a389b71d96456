//! E9 — §3.2/§4: parallel save & restore cost. The paper times "the amount
//! of time required by a parallel save and restore" across problem sizes
//! and intervals; the dominant term is streaming N×mem through the shared
//! storage system.
//!
//! We sweep the VM memory footprint and the storage array's aggregate
//! bandwidth on the paper's 26-VM configuration, report measured parallel
//! save / restore durations, and compare with the analytic floor
//! `N·mem / agg_bw`.

use crate::Opts;
use dvc_bench::scen::{ring_load, settle, TrialWorld};
use dvc_bench::table::{secs, Table};
use dvc_core::lsc::{self, LscMethod};
use dvc_sim_core::{SimDuration, SimTime};

struct Cost {
    save_s: f64,
    restore_s: f64,
    skew_s: f64,
}

fn one(opts: Opts, mem_mb: u32, agg_mbps: f64) -> Cost {
    let n = 26usize;
    let tw = TrialWorld {
        nodes: n,
        spares: n, // restore targets
        seed: opts.seed ^ 0xE9 ^ mem_mb as u64 ^ agg_mbps as u64,
        mem_mb,
        storage_agg: agg_mbps * 1e6,
        storage_stream: 110.0e6,
        ..TrialWorld::default()
    };
    let (mut sim, vc_id) = tw.build();
    let _job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, SimDuration::from_secs(30));

    let horizon = SimTime::from_secs_f64(86000.0);
    let save = sim
        .await_reply(horizon, |sim, reply| {
            lsc::checkpoint_vc(sim, vc_id, LscMethod::ntp_default(), reply);
        })
        .unwrap();
    assert!(save.success, "E9 save failed: {}", save.detail);

    let targets: Vec<_> = ((n as u32 + 1)..=(2 * n as u32))
        .map(dvc_cluster::node::NodeId)
        .collect();
    let restore = sim
        .await_reply(horizon, |sim, reply| {
            let set_id = save.set_id.unwrap();
            lsc::restore_vc(sim, set_id, targets, SimDuration::from_secs(5), reply)
                .expect("restore should start");
        })
        .unwrap();
    assert!(restore.success, "E9 restore failed: {}", restore.detail);
    Cost {
        save_s: save.save_duration.as_secs_f64(),
        restore_s: restore.duration.as_secs_f64() - 5.0, // minus resume lead
        skew_s: save.pause_skew.as_secs_f64(),
    }
}

pub fn run(opts: Opts) {
    println!("## E9 — parallel save/restore cost, 26 VMs on shared storage (paper §3.2)\n");
    let mut t = Table::new(&[
        "VM memory",
        "storage agg bw",
        "analytic floor 26·mem/bw",
        "parallel save",
        "parallel restore",
        "pause skew",
    ]);
    for &mem in &[128u32, 256, 512] {
        for &bw in &[200.0f64, 400.0, 800.0] {
            let c = one(opts, mem, bw);
            let floor = 26.0 * mem as f64 / bw;
            t.row(&[
                format!("{mem} MB"),
                format!("{bw:.0} MB/s"),
                secs(floor),
                secs(c.save_s),
                secs(c.restore_s),
                secs(c.skew_s),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "Save/restore track the storage floor (26 images through the \
         array); pause skew stays at NTP residuals regardless of image \
         size, so growing VMs stretch the *suspension*, never the \
         consistency window.\n"
    );
}

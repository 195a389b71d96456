//! Full workload runs over the simulated cluster: distributed HPL with
//! residual verification, PTRANS with element-wise checks, STREAM, ring.

use dvc_cluster::world::ClusterBuilder;
use dvc_mpi::harness::{self, run_job};
use dvc_sim_core::{Sim, SimTime};
use dvc_workloads::{hpl, ptrans, ring, stream};

fn sim(nodes: usize) -> Sim<dvc_cluster::world::ClusterWorld> {
    Sim::new(
        ClusterBuilder::new()
            .nodes_per_cluster(nodes)
            .perfect_clocks()
            .build(55),
        55,
    )
}

fn horizon() -> SimTime {
    SimTime::from_secs_f64(3600.0)
}

#[test]
fn distributed_hpl_verifies_residual() {
    // The n=256 shapes give each rank several panels and do swap rows,
    // which is what exposed pivots applied twice to the owner's columns.
    for (n, nb, ranks, pivots) in [
        (64, 8, 4, false),
        (96, 8, 3, false),
        (128, 16, 4, false),
        (256, 16, 8, true),
        (256, 16, 4, true),
    ] {
        let mut s = sim(ranks);
        let nodes = s.world.node_ids();
        let cfg = hpl::HplConfig::new(n, nb, 99);
        let job = harness::launch(&mut s, &nodes, ranks, 128, move |r, sz| {
            hpl::program(cfg, r, sz)
        });
        run_job(&mut s, &job, horizon())
            .unwrap_or_else(|e| panic!("hpl n={n} ranks={ranks} failed: {e}"));
        for r in 0..ranks {
            let res = harness::rank(&s, &job, r).data.f64("hpl.residual");
            assert!(
                res.is_finite() && res < 1e-10,
                "n={n} ranks={ranks} rank {r}: residual {res}"
            );
        }
        if pivots {
            let piv = harness::rank(&s, &job, 0).data.get("piv");
            let piv = piv.and_then(|v| v.as_u64_vec()).expect("piv");
            assert!(
                piv.iter().enumerate().any(|(j, &p)| p != j as u64),
                "n={n} nb={nb} ranks={ranks}: no row was ever swapped"
            );
        }
        // Both markers present → self-reported runtime is measurable.
        let st = &harness::rank(&s, &job, 0).stats;
        let names: Vec<_> = st.markers.iter().map(|m| m.0).collect();
        assert!(names.contains(&"hpl-start") && names.contains(&"hpl-end"));
    }
}

#[test]
fn hpl_app_level_checkpoints_write_to_disk() {
    let mut s = sim(4);
    let nodes = s.world.node_ids();
    let mut cfg = hpl::HplConfig::new(64, 8, 3);
    cfg.app_ckpt_every = Some(2);
    let job = harness::launch(&mut s, &nodes, 4, 128, move |r, sz| {
        hpl::program(cfg, r, sz)
    });
    run_job(&mut s, &job, horizon()).expect("hpl with app ckpt failed");
    for r in 0..4 {
        let vm = s.world.vm(job.vms[r]).unwrap();
        assert!(
            vm.guest.disk.bytes_written > 0,
            "rank {r} never wrote an app checkpoint"
        );
        let st = &harness::rank(&s, &job, r).stats;
        let ckpts = st.markers.iter().filter(|m| m.0 == "hpl-app-ckpt").count();
        // Panels 2,4,6 of 8 → 3 app checkpoints.
        assert_eq!(ckpts, 3, "rank {r}");
    }
    // Residual still verifies.
    assert!(harness::rank(&s, &job, 0).data.f64("hpl.residual") < 1e-10);
}

#[test]
fn ptrans_transposes_correctly_across_ranks() {
    for (n, ranks) in [(48, 4), (64, 8), (60, 5)] {
        let mut s = sim(ranks.min(8));
        let nodes = s.world.node_ids();
        let cfg = ptrans::PtransConfig::new(n, 12).with_reps(2);
        let job = harness::launch(&mut s, &nodes, ranks, 128, move |r, sz| {
            ptrans::program(cfg, r, sz)
        });
        run_job(&mut s, &job, horizon())
            .unwrap_or_else(|e| panic!("ptrans n={n} ranks={ranks} failed: {e}"));
        for r in 0..ranks {
            let d = &harness::rank(&s, &job, r).data;
            assert_eq!(d.f64("pt.worst_err"), 0.0, "rank {r} corrupted");
            assert!(!d.contains("pt.corrupt"));
        }
    }
}

#[test]
fn stream_runs_and_verifies() {
    let mut s = sim(1);
    let nodes = s.world.node_ids();
    let cfg = stream::StreamConfig {
        len: 1 << 12,
        reps: 10,
        ..Default::default()
    };
    let job = harness::launch(&mut s, &nodes, 1, 128, move |r, sz| {
        stream::program(cfg, r, sz)
    });
    run_job(&mut s, &job, horizon()).expect("stream failed");
    let d = &harness::rank(&s, &job, 0).data;
    assert_eq!(d.f64("st.worst_err"), 0.0);
    // Wall time ≈ reps × pass time (plus small overheads), stretched by the
    // para-virt CPU factor.
    let st = &harness::rank(&s, &job, 0).stats;
    let t0 = st.markers.iter().find(|m| m.0 == "stream-start").unwrap().1;
    let t1 = st.markers.iter().find(|m| m.0 == "stream-end").unwrap().1;
    let measured = (t1 - t0) as f64;
    let ideal = cfg.pass_ns() as f64 * cfg.reps as f64;
    assert!(
        measured >= ideal,
        "measured {measured} must include the modelled passes {ideal}"
    );
    assert!(
        measured < ideal * 1.3,
        "overhead too large: {measured} vs {ideal}"
    );
}

#[test]
fn ring_completes_with_zero_errors() {
    let ranks = 6;
    let mut s = sim(ranks);
    let nodes = s.world.node_ids();
    let cfg = ring::RingConfig {
        payload_len: 2048,
        iters: 30,
        compute_ns: 100_000,
    };
    let job = harness::launch(&mut s, &nodes, ranks, 128, move |r, sz| {
        ring::program(cfg, r, sz)
    });
    run_job(&mut s, &job, horizon()).expect("ring failed");
    for r in 0..ranks {
        assert!(
            ring::ring_ok(&harness::rank(&s, &job, r).data),
            "rank {r} had ring errors"
        );
    }
}

#[test]
fn hpl_partitions_compute_evenly_across_ranks() {
    // At laptop-scale matrix sizes communication latency dominates wall
    // time (as on a real cluster), so the meaningful scaling check is that
    // the *computational* load splits ~evenly: each of 4 ranks should burn
    // ≈ 1/4 of the single-rank compute time.
    let compute_ns_for = |ranks: usize| -> Vec<u64> {
        let mut s = sim(ranks);
        let nodes = s.world.node_ids();
        let cfg = hpl::HplConfig::new(128, 16, 2);
        let job = harness::launch(&mut s, &nodes, ranks, 128, move |r, sz| {
            hpl::program(cfg, r, sz)
        });
        run_job(&mut s, &job, horizon()).expect("hpl failed");
        (0..ranks)
            .map(|r| harness::rank(&s, &job, r).stats.compute_ns)
            .collect()
    };
    let solo = compute_ns_for(1)[0] as f64;
    let four = compute_ns_for(4);
    let total: u64 = four.iter().sum();
    // Work conserved (within a few % for the panel-factor duplication).
    assert!(
        (total as f64 - solo).abs() / solo < 0.1,
        "work not conserved: solo={solo} four={total}"
    );
    for (r, &c) in four.iter().enumerate() {
        let share = c as f64 / solo;
        assert!(
            (0.15..0.40).contains(&share),
            "rank {r} got share {share:.3} of the flops"
        );
    }
}

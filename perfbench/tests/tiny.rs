//! The benchmark's own tests: every workload at a tiny size prints every
//! metric `BENCHMARK.json` names, with its unit, fails no operation, and
//! counts a deliberately broken expectation as failed operations.

use dvc_perfbench::{run, RunConfig, RunReport, Workload};

fn tiny(w: Workload, traced: bool, sabotage: bool) -> RunReport {
    tiny_n(w, 1, 1, traced, sabotage)
}

fn tiny_n(w: Workload, trials: usize, passes: usize, traced: bool, sabotage: bool) -> RunReport {
    let cfg = RunConfig {
        workload: w,
        seed: 7,
        trials,
        passes,
        shape: w.tiny(),
        traced,
        sabotage,
    };
    run(&cfg, None)
}

fn value(r: &RunReport, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} printed"))
        .value
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |item: &str, key: &str| {
        let at = item.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        item[at..at + item[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

fn printed(r: &RunReport) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_fails_nothing() {
    let want = declared("end_to_end");
    for w in Workload::ALL {
        let r = tiny(w, false, false);
        assert_eq!(printed(&r), want, "{}", w.name());
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(r.op_fail_ratio(), 0.0, "{}: {r:?}", w.name());
        assert!(r.correct(), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
    }
}

/// Passes repeat the same deterministic work: they agree on the digest
/// and the run counts every pass's operations.
#[test]
fn passes_repeat_the_same_work() {
    for w in [Workload::E3Rounds, Workload::FuzzOracles] {
        let one = tiny_n(w, 2, 1, false, false);
        let three = tiny_n(w, 2, 3, false, false);
        assert!(three.consistent, "{}: {:?}", w.name(), three.notes);
        assert_eq!(one.digest, three.digest, "{}", w.name());
        assert_eq!(three.attempted, 3 * one.attempted, "{}", w.name());
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_replay_the_digest() {
    let want = declared("per_layer");
    for w in Workload::ALL {
        let r = tiny(w, true, false);
        assert_eq!(printed(&r), want, "{}", w.name());
        assert!(
            r.consistent,
            "{}: traced digest differs: {:?}",
            w.name(),
            r.notes
        );
        assert_eq!(r.op_fail_ratio(), 0.0, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
        }
        // Every workload, fuzz_oracles through its twin of run_scenario,
        // is measured inside the engine, not only around it.
        for name in [
            "sim-core.handlers.steady",
            "sim-core.handlers.rounds",
            "core.round_p50_ms",
            "cluster.build_ms",
            "lsc.save_fired",
        ] {
            assert!(value(&r, name) > 0.0, "{} {name}", w.name());
        }
    }
}

/// Sabotaged, sim workloads demand a zero pause skew (or a 1 s job
/// horizon), which no operation meets. Fuzz trials get a 1 ns silence
/// budget, which only a trial that pauses two or more VMs can blow.
#[test]
fn a_broken_expectation_fails_operations() {
    for w in Workload::ALL {
        let r = tiny_n(w, 3, 1, false, true);
        assert!(r.attempted > 0, "{}", w.name());
        if w == Workload::FuzzOracles {
            assert!(r.failed > 0, "{}: {r:?}", w.name());
        } else {
            assert_eq!(r.failed, r.attempted, "{}: {r:?}", w.name());
        }
        assert!(!r.correct(), "{}", w.name());
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let w = Workload::E3Rounds;
    let a = tiny(w, false, false);
    let b = tiny(w, false, false);
    assert_eq!(a.digest, b.digest);
    let other = run(
        &RunConfig {
            workload: w,
            seed: 8,
            trials: 1,
            passes: 1,
            shape: w.tiny(),
            traced: false,
            sabotage: false,
        },
        None,
    );
    assert_ne!(a.digest, other.digest);
}

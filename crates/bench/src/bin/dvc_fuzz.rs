//! `dvc-fuzz` — deterministic simulation fuzzing over the DVC model.
//!
//! Samples random scenarios (topology × workload × coordinator × fault
//! plan) from a campaign seed, runs each under the full oracle stack
//! (invariants, span well-formedness, event/metrics cross-checks,
//! liveness, same-seed determinism), and on a violation
//! shrinks the scenario to a minimal TOML reproducer.
//!
//! Campaigns are bit-replayable: `(campaign seed, trial index)` fully
//! determines a trial regardless of thread count.

use dvc_bench::fuzz::{corpus, gen, run, shrink};
use dvc_sim_core::trial::run_trials;
use dvc_sim_core::SimDuration;

const USAGE: &str = "dvc-fuzz — deterministic simulation fuzzer for the DVC model

USAGE:
  dvc-fuzz [--seed N] [--trials M] [--threads K] [--no-shrink] [--no-replay-check]
           [--sabotage-budget-ns NS] [--reproducer FILE]
      Run a campaign. Exits 1 if any oracle failed; the first failing
      trial is shrunk and written to FILE (default FUZZ_REPRODUCER.toml).
      --sabotage-budget-ns overrides the oracle silence budget — a
      deliberately tiny value is the self-test that the pipeline catches
      and shrinks a forced violation.

  dvc-fuzz replay <file.toml>...
      Re-run scenario or corpus-case files. Corpus cases (with name/expect
      headers) are held to their expectation; bare specs just report.

  dvc-fuzz corpus [DIR]
      Replay every case in DIR (default crates/bench/fuzz-corpus).

  dvc-fuzz gen --seed N --trial I
      Print the spec trial I of campaign N would run (corpus harvesting).";

fn fail(msg: &str) -> ! {
    eprintln!("dvc-fuzz: {msg}");
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    match v.parse() {
        Ok(v) => Some(v),
        Err(_) => fail(&format!("{flag}: bad value {v:?}")),
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(args.get(1).map(String::as_str)),
        Some("gen") => cmd_gen(&mut args),
        _ => cmd_campaign(&mut args),
    }
}

fn cmd_campaign(args: &mut Vec<String>) {
    let seed: u64 = parse_flag(args, "--seed").unwrap_or(1);
    let trials: usize = parse_flag(args, "--trials").unwrap_or(100);
    let threads: usize = parse_flag(args, "--threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let no_shrink = take_switch(args, "--no-shrink");
    let replay_check = !take_switch(args, "--no-replay-check");
    let sabotage: Option<u64> = parse_flag(args, "--sabotage-budget-ns");
    let repro_path: String =
        parse_flag(args, "--reproducer").unwrap_or_else(|| "FUZZ_REPRODUCER.toml".into());
    if !args.is_empty() {
        fail(&format!("unknown arguments {args:?}\n\n{USAGE}"));
    }
    let tuning = run::Tuning {
        budget_override: sabotage.map(SimDuration::from_nanos),
        replay_check,
    };

    eprintln!(
        "campaign: seed {seed}, {trials} trial(s), {threads} thread(s){}",
        if sabotage.is_some() {
            " [SABOTAGED BUDGET]"
        } else {
            ""
        }
    );
    let reports = run_trials(trials, seed, threads, |i, _| {
        let spec = gen::generate(seed, i as u64);
        run::run_scenario(&spec, &tuning).map_err(|e| format!("trial {i}: {e}"))
    });

    let mut failed: Vec<usize> = Vec::new();
    let mut detections = 0u64;
    let mut windows = 0u64;
    let mut spans = 0u64;
    let mut events = 0u64;
    let mut faults = 0u64;
    let mut outcomes = 0u64;
    for (i, r) in reports.iter().enumerate() {
        match r {
            Err(e) => fail(e),
            Ok(r) => {
                detections += r.detections.len() as u64;
                windows += r.windows_checked;
                spans += r.spans_opened;
                events += r.events;
                faults += r.faults_injected;
                outcomes += r.outcomes as u64;
                if !r.is_clean() {
                    if failed.len() < 5 {
                        eprintln!("trial {i} FAILED: {}", r.summary());
                        for f in &r.failures {
                            eprintln!("  [{}] {}", f.oracle, f.detail);
                        }
                    }
                    failed.push(i);
                }
            }
        }
    }
    println!(
        "{} trial(s): {} clean, {} failed; {} round outcome(s), {} window(s), \
         {} span(s), {} event(s), {} fault injection(s), {} expected detection(s)",
        trials,
        trials - failed.len(),
        failed.len(),
        outcomes,
        windows,
        spans,
        events,
        faults,
        detections,
    );
    if failed.is_empty() {
        return;
    }

    let first = failed[0];
    let spec = gen::generate(seed, first as u64);
    let spec = if no_shrink {
        spec
    } else {
        eprintln!("shrinking trial {first}…");
        let res = shrink::shrink(&spec, &tuning, 150);
        for s in &res.steps {
            eprintln!("  {s}");
        }
        eprintln!(
            "shrunk in {} trial(s): {} node(s), {} window(s), {} steady",
            res.trials,
            res.spec.nodes,
            res.spec.faults.len(),
            res.spec.steady.len()
        );
        res.spec
    };
    let report = run::run_scenario(&spec, &tuning).unwrap_or_else(|e| fail(&e));
    let mut text = String::new();
    text.push_str(&format!(
        "# dvc-fuzz reproducer: campaign --seed {seed}, trial {first}{}\n",
        if sabotage.is_some() {
            " (sabotaged budget — self-test, not a model bug)"
        } else {
            ""
        }
    ));
    for f in &report.failures {
        text.push_str(&format!("# [{}] {}\n", f.oracle, f.detail));
    }
    text.push('\n');
    text.push_str(&spec.to_toml());
    std::fs::write(&repro_path, &text)
        .unwrap_or_else(|e| fail(&format!("cannot write {repro_path}: {e}")));
    eprintln!("reproducer written to {repro_path} (re-run: dvc-fuzz replay {repro_path})");
    std::process::exit(1);
}

fn cmd_replay(paths: &[String]) {
    if paths.is_empty() {
        fail("replay needs at least one file");
    }
    let mut bad = 0;
    for path in paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let verdict = match corpus::parse_case(&text) {
            Ok(case) => corpus::replay(&case).map(|r| r.summary()),
            // Not a corpus case (no header): run the bare spec and report.
            Err(_) => dvc_bench::fuzz::spec::parse_spec(&text).and_then(|p| {
                let tuning = run::Tuning {
                    budget_override: None,
                    replay_check: true,
                };
                run::run_scenario(&p.spec, &tuning).map(|r| {
                    if r.is_clean() {
                        r.summary()
                    } else {
                        format!("{}\n{:#?}", r.summary(), r.failures)
                    }
                })
            }),
        };
        match verdict {
            Ok(s) => println!("{path}: {s}"),
            Err(e) => {
                println!("{path}: FAILED: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        std::process::exit(1);
    }
}

fn cmd_corpus(dir: Option<&str>) {
    let dir = dir.map_or_else(corpus::default_dir, std::path::PathBuf::from);
    let cases = corpus::load_dir(&dir).unwrap_or_else(|e| fail(&e));
    if cases.is_empty() {
        fail(&format!("no cases under {}", dir.display()));
    }
    let mut bad = 0;
    for (path, case) in &cases {
        // Relative to the corpus directory, so every checkout prints alike.
        let path = path.strip_prefix(&dir).unwrap_or(path).display();
        match corpus::replay(case) {
            Ok(r) => println!("{path}: {} — {}", case.name, r.summary()),
            Err(e) => {
                println!("{path}: FAILED: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        std::process::exit(1);
    }
}

fn cmd_gen(args: &mut Vec<String>) {
    let seed: u64 = parse_flag(args, "--seed").unwrap_or(1);
    let trial: u64 = parse_flag(args, "--trial").unwrap_or(0);
    print!("{}", gen::generate(seed, trial).to_toml());
}

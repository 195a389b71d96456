//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--expect-digest <hex>] [--spans <path>]`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones and the tracing overhead. `correct` is false, and the
//! exit code 1, when an operation failed, the run was not deterministic or
//! the digest differs from `--expect-digest`.

use dvc_perfbench::{quantile, run, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <e3_rounds|e4_scale|e10_failover|fuzz_oracles> \
                     --seed <n> --seconds <s> --trace <0|1> [--expect-digest <hex>] [--spans <path>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    expect_digest: Option<u64>,
    spans: Option<std::path::PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut expect_digest, mut spans) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--expect-digest" => {
                let hex = val.trim_start_matches("0x");
                expect_digest =
                    Some(u64::from_str_radix(hex, 16).map_err(|e| format!("{val}: {e}"))?)
            }
            "--spans" => spans = Some(val.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expect_digest,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        traced: args.trace,
        ..RunConfig::new(args.workload, args.seed, args.seconds)
    };
    let name = args.workload.name();
    let r = run(&cfg, args.spans.as_deref());

    println!(
        "{name} seed={} trials={} passes={} traced={}",
        args.seed,
        cfg.trials,
        if args.trace { 1 } else { cfg.passes },
        args.trace
    );
    for line in &r.notes {
        println!("{line}");
    }
    for m in &r.metrics {
        println!("{name} {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name} op_fail_ratio = {} ({} of {} operations failed)",
        r.op_fail_ratio(),
        r.failed,
        r.attempted
    );
    if !r.round_ms.is_empty() {
        println!(
            "{name} round_p50_ms = {} ms, round_p90_ms = {} ms ({} rounds)",
            quantile(&r.round_ms, 0.5),
            quantile(&r.round_ms, 0.9),
            r.round_ms.len()
        );
    }
    let digest_match = args.expect_digest.map(|d| d == r.digest.0);
    let verdict = match (digest_match, args.expect_digest) {
        (Some(true), _) => "matches the recorded digest".to_string(),
        (_, Some(d)) => format!("DIFFERS from the recorded {d:#018x}"),
        _ => "no recorded digest for this seed".to_string(),
    };
    println!("{name} digest = {:#018x} ({verdict})", r.digest.0);
    let correct = r.correct() && digest_match != Some(false);

    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

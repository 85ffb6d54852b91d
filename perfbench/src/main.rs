//! The PANDA serving-path benchmark.
//!
//! ```text
//! perfbench --workload <policy_churn|trace_rounds> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs made from `--seed`, measures whole rounds
//! for about `--seconds` seconds, checks the program's outputs, and prints
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`.

mod ingest_checks;
mod layers;
mod model;
mod policy_churn;
mod replay;
mod report;
mod trace;
mod trace_rounds;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["policy_churn", "trace_rounds"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new("perfbench")
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks0 = model::host_ticks();
    let outcome = match args.workload.as_str() {
        "policy_churn" => policy_churn::run(&args),
        "trace_rounds" => trace_rounds::run(&args),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} rounds={} available_parallelism={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.rounds
    );
    for op in &outcome.ops {
        println!(
            "ops {}: attempted={} failed={}",
            op.kind, op.attempted, op.failed
        );
    }
    for c in outcome.checks.iter() {
        println!(
            "check {}: {} — {}",
            if c.passed { "pass" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("digest={:016x}", outcome.digest);
    let ticks1 = model::host_ticks();
    let total = ticks1.1.saturating_sub(ticks0.1).max(1);
    println!(
        "host_steal_share={:.4}",
        ticks1.0.saturating_sub(ticks0.0) as f64 / total as f64
    );
    match report::result_json(&outcome, args.trace, model::peak_rss_mib()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

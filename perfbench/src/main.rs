//! The HABF benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is
//! the result with every end-to-end metric; with `--trace 1` it carries
//! every per-layer metric, timed from outside each layer through its
//! public functions. The line before it is the host and run record.
//! Scratch files go under `.bench_work/` in the working directory. Any
//! false negative exits with code 1; bad arguments or a broken setup exit
//! with code 2 and print no result.

mod build_shalla;
mod host;
mod inputs;
mod metrics;
mod serving;
mod summary;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Measured, Ops};
use serving::Kind;

pub const WORKLOADS: [&str; 3] = [
    "build-shalla-zipf",
    "serve-tiny-frames",
    "serve-adapt-mixed",
];

/// What a workload run hands back to be printed.
pub struct Outcome {
    pub measured: Measured,
    pub ops: Ops,
    pub notes: Vec<(String, String)>,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("build-shalla-zipf", false) => build_shalla::run(seed, secs),
        ("build-shalla-zipf", true) => build_shalla::run_traced(seed, secs, work),
        ("serve-tiny-frames", false) => serving::run(Kind::Tiny, seed, secs, work),
        ("serve-tiny-frames", true) => serving::run_traced(Kind::Tiny, seed, secs, work),
        ("serve-adapt-mixed", false) => serving::run(Kind::Adapt, seed, secs, work),
        ("serve-adapt-mixed", true) => serving::run_traced(Kind::Adapt, seed, secs, work),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Runs one workload and returns the lines to print: the run record,
/// then the result line.
fn execute(args: &Args) -> Result<(Vec<String>, Ops), String> {
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let steal_before = host::steal_ticks();
    let outcome = run(args, &work);
    let steal_after = host::steal_ticks();
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    let host_steal = match (steal_before, steal_after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unavailable".to_string(),
    };

    let (client_threads, reactor_workers) = if args.workload.starts_with("serve-") {
        (serving::CLIENT_THREADS, serving::REACTOR_WORKERS)
    } else {
        (1, 0)
    };
    let settings = host::RunSettings {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        client_threads,
        reactor_workers,
    };
    let mut notes = outcome.notes;
    notes.push(("host_steal_frac".into(), host_steal));
    notes.push(("attempted".into(), outcome.ops.attempted.to_string()));
    notes.push(("failed".into(), outcome.ops.failed.to_string()));
    notes.push(("failed_frac".into(), outcome.ops.failed_frac().to_string()));
    notes.push((
        "false_negatives".into(),
        outcome.ops.false_negatives.to_string(),
    ));
    let correct = outcome.ops.failed == 0 && outcome.ops.false_negatives == 0;
    let lines = vec![
        host::run_record(&settings, &notes),
        outcome
            .measured
            .result_line(args.trace, correct, outcome.ops),
    ];
    Ok((lines, outcome.ops))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok((lines, ops)) => {
            for line in &lines {
                println!("{line}");
            }
            if ops.false_negatives > 0 {
                eprintln!("perfbench: {} false negatives", ops.false_negatives);
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "serve-tiny-frames",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.seed, 4);
        assert!(a.trace);
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "serve-tiny-frames", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "serve-tiny-frames",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-tiny-frames",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// A seed no tuning used: every workload runs clean, traced and not,
    /// and prints exactly the declared metrics. Slow (it builds the
    /// 9 MiB tenant); run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn held_out_seed_runs_clean() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: workload.to_string(),
                    seed: 987_654_321,
                    seconds: 1.0,
                    trace,
                };
                let (lines, ops) = execute(&a).expect("run completes");
                assert_eq!(ops.failed, 0, "{workload} trace={trace}: {lines:?}");
                assert_eq!(ops.false_negatives, 0);
                let result = lines.last().expect("result line");
                assert!(result.starts_with("{\"correct\":true,"), "{result}");
                let table: &[(&str, &str)] = if trace {
                    &metrics::PER_LAYER
                } else {
                    &metrics::END_TO_END
                };
                for (name, unit) in table {
                    let field = format!("\"{name}\":{{\"value\":");
                    assert!(result.contains(&field), "{name} missing: {result}");
                    assert!(result.contains(&format!("\"unit\":\"{unit}\"")));
                }
            }
        }
    }
}

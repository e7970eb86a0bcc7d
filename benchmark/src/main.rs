//! The repo benchmark. One run = one workload:
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--aa N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that yields the per-layer table. The last line of stdout is
//! the result object; `info …` lines before it are for people. See
//! README.md for workloads, metrics and the layer → end-to-end map.

mod fixture;
mod gen;
mod layers;
mod loadgen;
mod report;
mod serving;
mod stats;
mod stream;
mod trace;
mod train;

use report::{RunResult, END_TO_END, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

const USAGE: &str = "usage: benchmark --workload <name|all> --seed <u64> --seconds <n> \
                     --trace <0|1> [--smoke] [--aa N]";

/// A run in `--smoke` mode: phases ≤1.5 s each, same checks, numbers not
/// comparable.
const SMOKE_SECONDS: f64 = 3.75;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        aa: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed must be a u64".to_string())?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => {
                args.aa = Some(
                    value("a run count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--aa needs a count of at least 2")?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.workload = "all".to_string();
        args.seconds = args.seconds.min(SMOKE_SECONDS);
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> RunResult {
    println!(
        "info workload={name} seed={} seconds={} trace={} nproc={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        fixture::nproc()
    );
    if let Some(spec) = serving::specs().iter().find(|s| s.name == name) {
        return if args.trace {
            layers::trace_serving(spec, args.seed, args.seconds)
        } else {
            serving::run_e2e(spec, args.seed, args.seconds)
        };
    }
    match (name, args.trace) {
        ("train_paper", false) => train::run_e2e(args.seed, args.seconds),
        ("train_paper", true) => layers::trace_train(args.seed),
        ("stream_publish", false) => stream::run_e2e(args.seed, args.seconds),
        ("stream_publish", true) => layers::trace_stream(args.seed, args.seconds),
        _ => unreachable!("parse_args admits only registered workloads"),
    }
}

/// Runs one workload in a child process of this same binary and returns
/// its stdout. Each workload gets a process of its own so that `peak_rss_mb`
/// is that workload's, and a crash in one cannot take the others' results.
fn run_child(name: &str, seed: u64, args: &Args) -> Option<String> {
    let exe = std::env::current_exe().expect("benchmark executable path");
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn benchmark child");
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `--aa N`: runs every selected workload N times (seeds `seed..seed+N`) on
/// this same binary and prints, per metric, the median, the quartiles and
/// the interquartile range as a share of the median — the spread the
/// committed bounds are derived from.
fn run_aa(args: &Args, names: &[&str], runs: usize) -> bool {
    let mut all_correct = true;
    let defs = if args.trace {
        report::PER_LAYER
    } else {
        END_TO_END
    };
    for name in names {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
        for i in 0..runs {
            let stdout = run_child(name, args.seed + i as u64, args).unwrap_or_default();
            let line = stdout.lines().last().unwrap_or("");
            let Some(values) = report::parse_result_metrics(line) else {
                println!("info aa {name} run {i}: no result line");
                all_correct = false;
                continue;
            };
            all_correct &= report::parse_result_correct(line);
            for (metric, value) in values {
                if let Some(i) = defs.iter().position(|d| d.name == metric) {
                    series[i].push(value);
                }
            }
        }
        println!(
            "aa {name}: {runs} runs, seeds {}..{}",
            args.seed,
            args.seed + runs as u64 - 1
        );
        for (def, values) in defs.iter().zip(&series) {
            let (q1, q2, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            println!(
                "aa {name} {} [{}, {} is better]: median={q2:.4} q1={q1:.4} q3={q3:.4} spread={:.4}",
                def.name,
                def.unit,
                def.better,
                stats::relative_spread(values).unwrap_or(f64::NAN)
            );
        }
    }
    all_correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    if args.smoke {
        println!("info SMOKE: runs cut to {SMOKE_SECONDS} s; numbers are not comparable");
    }
    if let Some(runs) = args.aa {
        return if run_aa(&args, &names, runs) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // A run whose outputs were wrong says so in its result line
    // (`"correct": false`) and still exits 0: the numbers must reach
    // whoever asked for them.
    if let [name] = names[..] {
        println!("{}", run_workload(name, &args).to_json());
        return ExitCode::SUCCESS;
    }
    let mut all_ran = true;
    for name in names {
        match run_child(name, args.seed, &args) {
            Some(stdout) => print!("{stdout}"),
            None => {
                println!("info {name}: child run failed");
                all_ran = false;
            }
        }
    }
    if all_ran {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload paper_f32 --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paper_f32", 7, 15.0, true)
        );
        assert!(!a.smoke && a.aa.is_none());
    }

    #[test]
    fn smoke_selects_every_workload_with_short_phases() {
        let a = parse_args(&argv("--smoke --seed 3")).unwrap();
        assert_eq!(a.workload, "all");
        assert!(a.seconds <= SMOKE_SECONDS);
    }

    #[test]
    fn rejects_unknown_workloads_and_malformed_flags() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload paper_f32 --trace yes")).is_err());
        assert!(parse_args(&argv("--workload paper_f32 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload paper_f32 --aa 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
        assert!(parse_args(&argv("")).is_err());
    }
}

//! The benchmark's command line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!     [--size full|smoke] [--out DIR]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check-pins [--workload W]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-pins > perfbench/pins.json
//! ```
//!
//! `--workload all` runs every workload's timed run and its traced run (or
//! only the one `--trace` names), each in a process of its own.
//!
//! The last line of a run is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; everything before it is for people.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::report;
use perfbench::run::{self, Options, Outcome};
use perfbench::workloads::{Size, DEFAULT_SEED, NAMES};
use serde::Value;

const USAGE: &str =
    "usage: perfbench --workload <oblivious-global|geo-local|adaptive-global|geo-scale-csr|all> \
[--seed N] [--seconds S] [--trace 0|1] [--size full|smoke] [--out DIR]
       perfbench --check-pins [--workload W] [--size full|smoke]
       perfbench --emit-pins";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    CheckPins,
    EmitPins,
}

/// The mode, the options, and `--trace` if it was given.
fn parse(args: &[String]) -> Result<(Mode, Options, Option<bool>), String> {
    let mut mode = Mode::Run;
    let mut trace = None;
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        size: Size::Full,
        threads: report::available_parallelism(),
        out: PathBuf::from(".perfbench-out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--size" => {
                opts.size = Size::parse(&value()?).ok_or("--size needs full or smoke")?;
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--check-pins" => mode = Mode::CheckPins,
            "--emit-pins" => mode = Mode::EmitPins,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let known = opts.workload == "all" || NAMES.contains(&opts.workload.as_str());
    match mode {
        Mode::Run if !known => Err(format!("unknown workload {:?}", opts.workload)),
        Mode::CheckPins if opts.workload.is_empty() => {
            opts.workload = "all".into();
            Ok((mode, opts, trace))
        }
        Mode::CheckPins if !known => Err(format!("unknown workload {:?}", opts.workload)),
        _ => Ok((mode, opts, trace)),
    }
}

fn selected(workload: &str) -> Vec<&'static str> {
    NAMES
        .iter()
        .copied()
        .filter(|&w| workload == "all" || w == workload)
        .collect()
}

fn print_outcome(outcome: &Outcome, trace: bool) {
    if outcome.correct {
        for line in &outcome.lines {
            println!("{line}");
        }
    }
    if !trace {
        println!(
            "metric failed_cells_share {} ratio ({} of {} cells)",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
    }
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("FAILED: {p}");
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's timed or traced run, ending with its result line.
fn run_one(opts: &Options, trace: bool) -> ExitCode {
    println!(
        "provenance {}",
        report::provenance(&opts.workload, opts.size, opts.seed, opts.threads)
    );
    let outcome = if trace {
        run::traced_run(opts)
    } else {
        run::timed_run(opts)
    };
    print_outcome(&outcome, trace);
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            report::metric_entries(&outcome.metrics)
        )
    );
    exit_code(outcome.correct)
}

/// `--workload all`: every workload's timed and traced runs (or only the
/// one `trace` names), each in a child process of this program, so each
/// reports the peak RSS of its own process. Forwards each child's lines and
/// folds their result lines into one, every metric name prefixed with its
/// workload.
fn run_all(opts: &Options, trace: Option<bool>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = trace.map_or(vec![false, true], |t| vec![t]);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for workload in NAMES {
        for &trace in &traces {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--size", opts.size.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out)
                .stderr(Stdio::inherit())
                .output();
            let (ok, stdout) = match output {
                Ok(out) => (
                    out.status.success(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                ),
                Err(e) => {
                    println!("FAILED: cannot run {workload}: {e}");
                    (false, String::new())
                }
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(report::parse_json);
            for line in lines {
                println!("{line}");
            }
            let field = |key: &str| result.as_ref().and_then(|r| r.get(key));
            let count = |key: &str| field(key).and_then(Value::as_u64).unwrap_or(0) as usize;
            correct &= ok && field("correct").and_then(Value::as_bool) == Some(true);
            attempted += count("attempted");
            failed += count("failed");
            if let Some(Value::Map(entries)) = field("metrics") {
                metrics.extend(
                    entries
                        .iter()
                        .map(|(name, value)| (format!("{workload}/{name}"), value.clone())),
                );
            }
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    exit_code(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    match mode {
        Mode::Run if opts.workload == "all" => run_all(&opts, trace),
        Mode::Run => run_one(&opts, trace.unwrap_or(false)),
        Mode::CheckPins => {
            let mut drifted = false;
            for workload in selected(&opts.workload) {
                let drift = match (
                    run::measure_pins(workload, opts.size, opts.threads, opts.out.clone()),
                    report::pinned(workload, opts.size),
                ) {
                    (Ok(got), Some(want)) => got.drift(&want),
                    (Err(e), _) => vec![e],
                    (_, None) => vec!["no pins recorded".to_string()],
                };
                println!(
                    "{workload} ({}): {}",
                    opts.size.name(),
                    if drift.is_empty() {
                        "pins match"
                    } else {
                        "DRIFT"
                    }
                );
                for d in &drift {
                    println!("  {d}");
                }
                drifted |= !drift.is_empty();
            }
            exit_code(!drifted)
        }
        Mode::EmitPins => {
            let mut sizes = Vec::new();
            for size in [Size::Full, Size::Smoke] {
                let mut pins = Vec::new();
                for workload in NAMES {
                    match run::measure_pins(workload, size, opts.threads, opts.out.clone()) {
                        Ok(p) => pins.push((workload, p)),
                        Err(e) => {
                            eprintln!("perfbench: {workload} ({}): {e}", size.name());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                sizes.push((size, pins));
            }
            print!("{}", report::pins_file(&sizes));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let (mode, opts, trace) = parse(&args(&[
            "--workload",
            "geo-local",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(mode, Mode::Run);
        assert_eq!(opts.workload, "geo-local");
        assert_eq!(opts.seed, 3);
        assert_eq!(opts.seconds, 12.0);
        assert_eq!(trace, Some(true));
        let (_, _, trace) = parse(&args(&["--workload", "all"])).unwrap();
        assert_eq!(trace, None);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "geo-local", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "geo-local", "--seed"])).is_err());
        assert!(parse(&args(&["--bogus"])).is_err());
    }
}

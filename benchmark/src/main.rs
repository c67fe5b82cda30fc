//! The repo's benchmark. See README.md beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! streambal-benchmark [run] --workload <name|all> --seed <n>
//!                     [--seconds <s>] [--trace <0|1>] [--quick] [--save <file>]
//! streambal-benchmark compare <setA> <setB> [--spec <BENCHMARK.json>]
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last
//! line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`. It exits 0 only when every output verified.

#![cfg(unix)]

mod children;
mod compare;
mod control;
mod loadgen;
mod proxy;
mod replay;
mod spec;
mod stats;
mod trace;

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use spec::{MetricSpec, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// Where the traced run's span files go, relative to the working
/// directory (the repo root).
const OUT_DIR: &str = "benchmark/out";
/// Set-ups per run of a socket workload; `setup_s` is their median.
/// (A controller workload sets up afresh for every episode.)
const PROXY_SETUPS: usize = 5;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    save: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: streambal-benchmark [run] --workload <{}|all> --seed <n> \
         [--seconds <s>] [--trace <0|1>] [--quick] [--save <file>]\n       \
         streambal-benchmark compare <setA> <setB> [--spec <BENCHMARK.json>]",
        WORKLOADS.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        save: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => run.quick = true,
            "--save" => run.save = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload '{}'", run.workload));
    }
    if run.quick {
        run.seconds = 2.0;
    }
    Ok(run)
}

fn run_workload(name: &str, run: &RunArgs) -> io::Result<Outcome> {
    let (seed, seconds) = (run.seed, run.seconds);
    let setups = if run.quick { 1 } else { PROXY_SETUPS };
    let trace_path = PathBuf::from(OUT_DIR).join(format!("trace-{name}.jsonl"));
    if let Some(shape) = proxy::SHAPES.iter().find(|s| s.name == name) {
        return if run.trace {
            proxy::run_traced(shape, seed, seconds, &trace_path)
        } else {
            proxy::run(shape, seed, seconds, setups)
        };
    }
    if run.trace {
        control::run_traced(name, seed, seconds, &trace_path)
    } else {
        Ok(control::run(name, seed, seconds))
    }
}

/// The contract's result line: exactly the metrics of `specs`, in their
/// order. A per-layer metric the workload does not exercise reads 0; a
/// missing or non-finite end-to-end metric is a bug and fails the run.
fn result_json(outcome: &Outcome, specs: &[MetricSpec], correct: bool) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = outcome.metrics.get(s.name).copied().unwrap_or(0.0);
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", s.name, s.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args).map_err(|e| format!("{e}\n{}", usage()))?;
    let names: Vec<&str> = if run.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![run.workload.as_str()]
    };
    let specs = if run.trace { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for name in names {
        let outcome = run_workload(name, &run).map_err(|e| format!("{name}: {e}"))?;
        let finite = specs
            .iter()
            .all(|s| outcome.metrics.get(s.name).is_none_or(|v| v.is_finite()));
        let measured = run.trace
            || specs
                .iter()
                .all(|s| outcome.metrics.get(s.name).is_some_and(|&v| v > 0.0));
        let correct = outcome.failed == 0 && outcome.attempted > 0 && finite && measured;
        all_correct &= correct;
        println!(
            "== {name} (seed {}, {} s, trace {}) ==",
            run.seed,
            run.seconds,
            u8::from(run.trace)
        );
        for s in specs {
            let v = outcome.metrics.get(s.name).copied().unwrap_or(0.0);
            println!("{:<36} {v:>16.4} {}", s.name, s.unit);
        }
        let line = result_json(&outcome, specs, correct);
        if let Some(path) = &run.save {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(
                f,
                "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"result\":{line}}}",
                run.seed,
                u8::from(run.trace)
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{line}");
    }
    Ok(all_correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(a);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(usage());
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let bounds = compare::bounds_from_spec(&read(&spec)?)?;
    let set_a = compare::parse_set(&read(a.as_ref())?)?;
    let set_b = compare::parse_set(&read(b.as_ref())?)?;
    let (text, clean) = compare::report(&set_a, &set_b, &bounds)?;
    print!("{text}");
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => {
            return match children::run_child(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("streambal-benchmark child: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("compare") => compare_command(&args[1..]),
        Some("run") => run_command(&args[1..]),
        _ => run_command(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("streambal-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

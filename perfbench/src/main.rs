//! `pm-perfbench` — the repository benchmark.
//!
//! ```text
//! pm-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!              --bin-dir DIR --work-dir DIR [--port BASE]
//! ```
//!
//! With `--trace 0` it starts real `pm-server`/`pm-coord` processes (from
//! `--bin-dir`) with an empty population, drives the workload over TCP
//! from this one process, checks every reply against an exact `pm-core`
//! reference and prints the end-to-end metrics. With `--trace 1` it feeds
//! one identical input up the layer ladder in-process (kernel, cluster
//! maintenance, bare monitor, sharded engine, service, reactor, WAL,
//! coordinator) and prints the per-layer metrics. Informational lines go
//! first; the last stdout line is the JSON result.

mod e2e;
mod gen;
mod procs;
mod reference;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{number, quote, Metrics};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    port: u16,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        work_dir: PathBuf::from(".bench_work"),
        port: 21_300,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--port" => args.port = value.parse().map_err(|e| format!("--port: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Host facts recorded with every result.
fn host_facts(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("PM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}, \"seed\": {seed}",
        quote(&cpu),
        quote(&commit)
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = gen::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
    else {
        eprintln!("pm-perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "pm-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let started = std::time::Instant::now();
    let inputs = gen::generate(&spec, args.seed, args.seconds);
    let calibration_ns = trace::compare_ns(&inputs);
    println!(
        "info {{{}, \"workload\": {}, \"why\": {}, \"porder.compare_ns\": {}, \
         \"input.dup_vector_share\": {}, \"input.users_per_pref\": {}, \"inputs_s\": {}}}",
        host_facts(args.seed),
        quote(spec.name),
        quote(spec.why),
        number(calibration_ns),
        number(gen::dup_vector_share(&inputs.objects)),
        number(gen::users_per_pref(&inputs.population)),
        number(started.elapsed().as_secs_f64()),
    );

    if args.trace {
        return match trace::run(&spec, &inputs, &args.work_dir) {
            Ok(outcome) => {
                for line in &outcome.notes {
                    println!("trace {line}");
                }
                println!(
                    "{}",
                    result_line(
                        outcome.correct,
                        outcome.attempted,
                        outcome.failed,
                        &outcome.metrics
                    )
                );
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("pm-perfbench: traced run failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let ticks = procs::CpuTicks::now();
    let opts = e2e::Options {
        bin_dir: &args.bin_dir,
        work: &args.work_dir,
        port: args.port,
        seconds: args.seconds,
    };
    match e2e::run(&spec, &inputs, &opts) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("run {line}");
            }
            println!(
                "info {{\"loadgen.late_p99_ms\": {}, \"valid\": {}, \"host.steal_share\": {}}}",
                number(outcome.gen_late_p99_ms),
                outcome.valid,
                number(procs::CpuTicks::steal_share_since(ticks))
            );
            // Generator lateness skews only the open-loop figures, none of
            // which is registered: an invalid run marks those and keeps
            // its result line, whose metrics do not depend on the schedule.
            if !outcome.valid {
                eprintln!(
                    "pm-perfbench: the load generator fell behind its schedule \
                     (late p99 {:.3} ms): this run's open-loop figures are invalid, not slow",
                    outcome.gen_late_p99_ms
                );
            }
            for (name, value, unit, registered) in outcome.metrics.iter() {
                let kind = match (*registered, outcome.valid) {
                    (true, _) => "metric",
                    (false, true) => "metric (info)",
                    (false, false) => "metric (info; run invalid: generator late)",
                };
                println!("{kind} {name} = {} {unit}", number(*value));
            }
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pm-perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

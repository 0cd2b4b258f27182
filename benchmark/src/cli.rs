//! Command line: `run`, `trace`, `aa`, `spec`.

use crate::report::{self, Better, END_TO_END, RUN_SECONDS};
use crate::trace;
use crate::workload::{self, Kind, Params, Plan, THREADS};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: gdp-benchmark run   [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace 0|1]
                           [--quick] [--out <dir>]
       gdp-benchmark trace ...            same as run --trace 1
       gdp-benchmark aa    [--seed <u64>] [--seconds <n>] [--quick] [--out <dir>]
       gdp-benchmark spec                 print BENCHMARK.json
workloads: append_durable append_pipelined read_proof read_scan cold_start (default: all)";

struct Args {
    workloads: Vec<Kind>,
    params: Params,
    trace: bool,
    out: PathBuf,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        params: Params { seed: 1, seconds: RUN_SECONDS as f64, quick: false },
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = vec![Kind::parse(&v).ok_or(format!("unknown workload {v}"))?];
            }
            "--seed" => args.params.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.params.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.params.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload's run in this process, printed; returns whether every
/// check passed.
fn run_one(kind: Kind, params: Params, trace: bool, out: &Path) -> Result<bool, String> {
    let rounds = Plan::of(kind, params.quick).rounds;
    let window = params.seconds / rounds as f64;
    println!(
        "workload {} seed {}: {rounds} round(s) of {window:.2} s (+{:.2} s warm-up), closed loop, \
         {THREADS} threads x 1 connection{}",
        kind.name(),
        params.seed,
        workload::warmup_for(window),
        if params.quick { ", quick sizes" } else { "" },
    );
    println!("  why: {}", kind.why());
    // The restart-and-read-back check (and `store.restart_ms`) belongs to
    // the traced run: on `append_pipelined` the restart alone replays and
    // re-verifies every record on three nodes.
    let live = workload::run_live(kind, params, out, trace)?;
    for problem in &live.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!(
        "  end-to-end ({} operations in the window, {} failed, {} latency samples)",
        live.attempted, live.failed, live.latency_samples
    );
    for (name, unit, value) in report::end_to_end_rows(&live.e2e) {
        println!("    {name:<28} {value:>16.4} {unit}");
    }
    let mut correct = live.correct;
    let rows = if trace {
        let mut layers = live.layers.clone();
        match trace::run_traced(kind, params, out, live.e2e["p50_us"]) {
            Ok(traced) => {
                println!(
                    "  per-layer ({} traced requests, {} spans in {})",
                    traced.requests,
                    traced.spans.len(),
                    traced.file.display()
                );
                layers.insert("node.trace_requests", traced.requests as f64);
                layers.extend(traced.layers);
            }
            Err(why) => {
                println!("  CHECK FAILED: traced run: {why}");
                correct = false;
            }
        }
        let rows = report::per_layer_rows(&layers);
        for (name, unit, value) in &rows {
            println!("    {name:<28} {value:>16.4} {unit:<6} [{}]", report::source_of(name));
        }
        rows
    } else {
        report::end_to_end_rows(&live.e2e)
    };
    let line = report::result_json(correct, live.attempted.max(1), live.failed, &rows)?;
    crate::sut::json_valid(&line).map_err(|e| format!("result line is not valid JSON: {e}"))?;
    println!("{line}");
    Ok(correct)
}

/// One workload's run in a process of its own, as the driver runs it, so
/// that `peak_rss_mb` is that workload's and nothing carries over. Prints
/// the child's output; returns whether every check passed and the result
/// line.
fn run_child(kind: Kind, args: &Args, trace: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["run", "--workload", kind.name()])
        .args(["--seed", &args.params.seed.to_string()])
        .args(["--seconds", &args.params.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--out"])
        .arg(&args.out);
    if args.params.quick {
        child.arg("--quick");
    }
    let output = child.output().map_err(|e| format!("run {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The environment line was printed once already.
    let body: Vec<&str> = stdout.lines().filter(|l| !l.starts_with("env: ")).collect();
    println!("{}", body.join("\n"));
    match body.last() {
        Some(line) if line.starts_with("{\"correct\"") => {
            Ok((output.status.success(), line.to_string()))
        }
        _ => Err(format!("{} printed no result (exit {})", kind.name(), output.status)),
    }
}

/// The value of metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Creates the output directory and prints the environment line.
fn prepare(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    println!("{}", report::environment(&args.out));
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    prepare(args)?;
    if let [kind] = args.workloads[..] {
        return run_one(kind, args.params, args.trace, &args.out);
    }
    let mut all_correct = true;
    for &kind in &args.workloads {
        all_correct &= run_child(kind, args, args.trace)?.0;
    }
    Ok(all_correct)
}

/// Runs the full set twice on the same build and compares every
/// end-to-end metric of every workload with its bound.
fn aa(args: &Args) -> Result<bool, String> {
    prepare(args)?;
    let mut sets = Vec::new();
    let mut ok = true;
    for _ in 0..2 {
        let mut set = Vec::new();
        for &kind in &args.workloads {
            let (correct, line) = run_child(kind, args, false)?;
            ok &= correct;
            set.push(line);
        }
        sets.push(set);
    }
    println!("A/A: the same build twice; worse = how much worse the second run is");
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (i, &kind) in args.workloads.iter().enumerate() {
        for m in &END_TO_END {
            let value = |set: usize| {
                metric_in(&sets[set][i], m.name).ok_or(format!(
                    "{} reported no {}",
                    kind.name(),
                    m.name
                ))
            };
            let (a, b) = (value(0)?, value(1)?);
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if worse > m.bound { "  EXCEEDS" } else { "" };
            ok &= worse <= m.bound;
            println!(
                "{:<18} {:<26} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}%{verdict}",
                kind.name(),
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let mut it = argv.into_iter().skip(1);
    let command = it.next().unwrap_or_default();
    let result = match command.as_str() {
        "spec" => {
            print!("{}", report::benchmark_json());
            return 0;
        }
        "run" => parse(it).and_then(|a| run(&a)),
        "trace" => parse(it).and_then(|mut a| {
            a.trace = true;
            run(&a)
        }),
        "aa" => parse(it).and_then(|a| aa(&a)),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("gdp-benchmark: {why}");
            2
        }
    }
}

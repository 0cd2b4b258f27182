//! Runs the benchmark binary on `--quick` sizes (2 s windows, 200 traced
//! requests) and checks what it prints and writes: every declared metric
//! once per workload with a finite value and its unit, every check passed,
//! well-formed spans, and a `/BENCHMARK.json` equal to what the program
//! declares.

use gdp_benchmark::report::{benchmark_json, END_TO_END, PER_LAYER};
use gdp_benchmark::sut::json_valid;
use gdp_benchmark::workload::Kind;
use std::path::PathBuf;
use std::process::Command;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the binary; returns its result lines (one per workload).
fn bench(args: &[&str], out: &PathBuf) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_gdp-benchmark"))
        .args(args)
        .args(["--quick", "--seconds", "2", "--seed", "20260926", "--out"])
        .arg(out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "benchmark failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.lines().next().is_some_and(|l| l.starts_with("env: nproc=")), "{stdout}");
    stdout.lines().filter(|l| l.starts_with("{\"correct\"")).map(str::to_string).collect()
}

/// The raw text of `"key": <value>` in a flat JSON object.
fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let at = doc.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = doc[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(value, unit)` of `name` in a result line; asserts it appears once.
fn metric(line: &str, name: &str) -> (f64, String) {
    let key = format!("\"{name}\": {{");
    assert_eq!(line.matches(&key).count(), 1, "{name} must appear once in {line}");
    let obj = &line[line.find(&key).unwrap() + key.len() - 1..];
    let obj = &obj[..=obj.find('}').unwrap()];
    let value: f64 = field(obj, "value").unwrap().parse().expect("numeric value");
    assert!(value.is_finite());
    (value, field(obj, "unit").unwrap().to_string())
}

fn assert_all_passed(lines: &[String]) {
    assert_eq!(lines.len(), Kind::ALL.len(), "one result line per workload");
    for line in lines {
        json_valid(line).expect("result line is valid JSON");
        assert_eq!(field(line, "correct"), Some("true"), "{line}");
        assert_eq!(field(line, "failed"), Some("0"), "{line}");
        assert!(field(line, "attempted").unwrap().parse::<u64>().unwrap() >= 1);
    }
}

#[test]
fn benchmark_json_is_what_the_program_declares() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("read /BENCHMARK.json");
    assert_eq!(on_disk, benchmark_json(), "regenerate with `gdp-benchmark spec`");
    json_valid(&on_disk).expect("BENCHMARK.json is valid JSON");
    for kind in Kind::ALL {
        assert!(kind.why().len() <= 200 && !kind.why().contains('\n'));
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    let lines = bench(&["run", "--trace", "0"], &out_dir("smoke-run"));
    assert_all_passed(&lines);
    for line in &lines {
        for m in &END_TO_END {
            let (value, unit) = metric(line, m.name);
            assert!(value > 0.0, "{} must never be 0: {line}", m.name);
            assert_eq!(unit, m.unit);
        }
    }
}

#[test]
fn quick_trace_reports_every_layer_and_writes_well_formed_spans() {
    let out = out_dir("smoke-trace");
    let lines = bench(&["trace"], &out);
    assert_all_passed(&lines);
    for (line, kind) in lines.iter().zip(Kind::ALL) {
        for m in &PER_LAYER {
            assert_eq!(metric(line, m.name).1, m.unit);
        }
        // The budget identity: path + hops x hop + wait is the live median.
        let v = |name| metric(line, name).0;
        let rebuilt =
            v("node.critical_path_us") + v("node.path_hops") * v("net.hop_us") + v("node.wait_us");
        assert!((rebuilt - v("client.p50_us")).abs() < 1e-6 * v("client.p50_us").max(1.0));
        assert!(v("node.critical_path_us") > 0.0 && v("node.trace_requests") >= 1.0);
        check_spans(&out.join(format!("trace_{}.jsonl", kind.name())));
    }
}

/// Parent exists and encloses the child; causes exist; a request's spans
/// all carry its id, and no two requests share one.
fn check_spans(file: &PathBuf) {
    struct S {
        start: u64,
        end: u64,
        parent: Option<usize>,
        cause: Option<usize>,
        request: u64,
        root: bool,
    }
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let spans: Vec<S> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            json_valid(line).expect("span line is valid JSON");
            let num = |key| field(line, key).unwrap().parse::<u64>().ok();
            assert_eq!(num("id"), Some(i as u64), "ids are line numbers");
            assert!(matches!(field(line, "mode"), Some("measured" | "replayed")));
            S {
                start: num("start_ns").unwrap(),
                end: num("end_ns").unwrap(),
                parent: num("parent").map(|p| p as usize),
                cause: num("cause").map(|c| c as usize),
                request: num("request_id").unwrap(),
                root: field(line, "name") == Some("op"),
            }
        })
        .collect();
    assert!(!spans.is_empty(), "{} is empty", file.display());
    let mut roots = std::collections::BTreeSet::new();
    for s in &spans {
        assert!(s.start <= s.end);
        if s.root {
            assert!(s.parent.is_none() && roots.insert(s.request), "one root per request id");
        } else {
            let p = &spans[s.parent.expect("only roots have no parent")];
            assert!(p.start <= s.start && s.end <= p.end, "child inside parent");
            assert_eq!(p.request, s.request);
        }
        if let Some(c) = s.cause {
            assert_eq!(spans[c].request, s.request, "a cause belongs to the same request");
            assert!(spans[c].end <= s.start, "a cause ends before its effect starts");
        }
    }
}

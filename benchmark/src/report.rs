//! The benchmark's contract: metric names, units, directions and bounds,
//! the text of `/BENCHMARK.json`, and how results are printed.

use crate::workload::Kind;
use std::collections::BTreeMap;

/// Measured window of one run, seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn text(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the cluster sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Reported by every workload on every `--trace 0` run.
///
/// The bounds are set by the box, not by taste: on the shared 2-vCPU
/// reference VM the speed of a CPU-bound closed loop moves by itself
/// between runs (interquartile range of ten runs: 2-9% of the median in a
/// quiet half hour, up to 18% in a busy one, see README.md); a bound has to
/// sit above the busy spread to be passable and above three times the
/// quiet one to mean anything.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("user_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("p90_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("disk_bytes_per_user_byte", "ratio", Better::Lower, 0.1),
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Registry or driver counters over the live run's measured window.
    Live,
    /// Median per request over the blocking paths of the traced run.
    Trace,
    /// A timed call into the layer's public function.
    Probe,
}

impl Source {
    fn text(self) -> &'static str {
        match self {
            Source::Live => "live",
            Source::Trace => "trace",
            Source::Probe => "probe",
        }
    }
}

/// A per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer { name, unit, better, source }
}

use Better::{Higher, Lower};
use Source::{Live, Probe, Trace};

/// Reported by every workload on every `--trace 1` run (0 where a layer
/// is not on the workload's path).
pub const PER_LAYER: [Layer; 48] = [
    layer("crypto.sign_us", "us", Lower, Probe),
    layer("crypto.verify_us", "us", Lower, Probe),
    layer("crypto.mac_us", "us", Lower, Probe),
    layer("crypto.sha256_mb_per_s", "MB/s", Higher, Probe),
    layer("crypto.path_us", "us", Lower, Trace),
    layer("capsule.append_us", "us", Lower, Trace),
    layer("capsule.proof_verify_us", "us", Lower, Trace),
    layer("capsule.proof_hops", "count", Lower, Trace),
    layer("cert.chain_verify_us", "us", Lower, Probe),
    layer("wire.encode_us", "us", Lower, Trace),
    layer("wire.decode_us", "us", Lower, Trace),
    layer("wire.request_bytes", "bytes", Lower, Trace),
    layer("wire.response_bytes", "bytes", Lower, Trace),
    layer("net.hop_us", "us", Lower, Probe),
    layer("net.frame_bytes", "bytes", Lower, Trace),
    layer("net.frames_per_op", "count", Lower, Live),
    layer("net.batched_frame_ratio", "ratio", Higher, Live),
    layer("router.forward_us", "us", Lower, Trace),
    layer("router.attach_us", "us", Lower, Trace),
    layer("router.forwards_per_op", "count", Lower, Live),
    layer("router.vcache_hit_ratio", "ratio", Higher, Live),
    layer("server.append_us", "us", Lower, Trace),
    layer("server.replicate_us", "us", Lower, Trace),
    layer("server.read_us", "us", Lower, Trace),
    layer("server.session_us", "us", Lower, Trace),
    layer("server.tick_us", "us", Lower, Trace),
    layer("server.acks_deferred_per_op", "count", Lower, Live),
    layer("server.shed_ratio", "ratio", Lower, Live),
    layer("store.append_us", "us", Lower, Probe),
    layer("store.read_us", "us", Lower, Probe),
    layer("store.path_us", "us", Lower, Trace),
    layer("store.flush_us", "us", Lower, Live),
    layer("store.entries_per_fsync", "count", Higher, Live),
    layer("store.fsyncs_per_op", "count", Lower, Live),
    layer("store.cache_hit_ratio", "ratio", Higher, Live),
    layer("store.reads_from_store_per_op", "count", Lower, Live),
    layer("store.fd_opens_per_op", "count", Lower, Live),
    layer("store.restart_ms", "ms", Lower, Live),
    layer("client.request_us", "us", Lower, Trace),
    layer("client.response_us", "us", Lower, Trace),
    layer("client.p50_us", "us", Lower, Live),
    layer("client.p99_us", "us", Lower, Live),
    layer("client.timeouts", "count", Lower, Live),
    layer("node.critical_path_us", "us", Lower, Trace),
    layer("node.path_hops", "count", Lower, Trace),
    layer("node.wait_us", "us", Lower, Trace),
    layer("node.tick_us", "us", Lower, Live),
    layer("node.trace_requests", "count", Higher, Trace),
];

/// The command the driver runs, from the root of a checkout.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `/BENCHMARK.json`; a test keeps the file equal to it.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| json_string(c)).collect();
    let workloads = Kind::ALL
        .iter()
        .map(|k| {
            format!("{{\"name\": {}, \"why\": {}}}", json_string(k.name()), json_string(k.why()))
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.text()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.text())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// The end-to-end metrics of a run in declaration order, with units.
pub fn end_to_end_rows(
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// The per-layer metrics of a run in declaration order, with units. A
/// layer the workload does not touch reads 0.
pub fn per_layer_rows(
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0))).collect()
}

pub fn source_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.name == name).map_or("", |m| m.source.text())
}

/// The environment a result was measured in, printed with every run.
pub fn environment(out_dir: &std::path::Path) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let abs = std::fs::canonicalize(out_dir).unwrap_or_else(|_| out_dir.to_path_buf());
    // The mount whose mount point is the longest prefix of the data dir.
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind);
    format!(
        "env: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} data_fs={fs} net=loopback-tcp commit={}",
        commit()
    )
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => {
            std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default().trim().to_string()
        }
        None => head.to_string(),
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

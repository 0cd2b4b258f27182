//! Regenerates the paper's figures and tables as text series. The two
//! figure experiments also emit machine-readable `BENCH_fig6.json` /
//! `BENCH_fig8.json` in the working directory (self-validated before
//! writing; `scripts/verify.sh` re-checks them).
//!
//! Usage:
//! ```text
//! cargo run --release -p gdp-bench --bin report -- <experiment>
//!   fig6                router forwarding rate / throughput vs PDU size
//!                       (+ data-path ablations and the perf-smoke floor)
//!   perf-smoke          re-measure 64 B forwarding, the store floors and
//!                       the served-scan share of the raw range rate;
//!                       fail if any is >30% below the floor its full
//!                       run recorded
//!   store               the segmented group-commit log: durable
//!                       appends/s and p99 ack latency at 1 / 10k / 100k
//!                       capsules, bounded crash recovery, the
//!                       sealed-segment read series, and reads served
//!                       through the server on top of it
//!                       (BENCH_store.json)
//!   overload            goodput vs offered load through a budgeted
//!                       server: typed-Nack shedding saturates goodput
//!                       at the append budget (BENCH_overload.json)
//!   overload-smoke      re-measure the saturated 4x point; fail if
//!                       goodput drops below the recorded floor
//!   fig8                case-study read/write times (28 MB and 115 MB)
//!   fig8-quick          same, 4 MB model (fast smoke run)
//!   table1              goal → enabling feature → demonstration test
//!   ablation-hashptr    A1: hash-pointer strategies
//!   ablation-durability A2: durability modes
//!   ablation-session    A3: signature vs HMAC responses
//!   ablation-anycast    A4: locality win of a nearby replica
//!   ablation-batch      A5: read flow-control window
//!   all                 everything above
//! ```

use gdp_bench::table::{rate, secs, Table};
use gdp_bench::{ablations, fig6, fig8, overload, storebench};
use gdp_obs::json;
use gdp_sim::workload;

/// Validates and writes one figure's JSON artifact, announcing it so the
/// CI step (and a human skimming the output) can see it landed.
fn write_bench_json(path: &str, doc: String) {
    json::validate(&doc).unwrap_or_else(|e| panic!("{path}: generated invalid JSON: {e}"));
    std::fs::write(path, &doc).unwrap_or_else(|e| panic!("{path}: write failed: {e}"));
    println!("\nwrote {path}");
}

fn run_fig6() {
    println!("Fig 6 — forwarding rate and throughput vs PDU size");
    println!(
        "(simulated 32×32 through one router; CPU model {} µs + {} ns/B per PDU)\n",
        fig6::PER_PDU_US,
        fig6::PER_BYTE_NS
    );
    let mut simulated = Vec::new();
    let mut t = Table::new(&["PDU bytes", "PDUs/s", "throughput (bps)"]);
    for size in gdp_sim::workload::fig6_pdu_sizes() {
        let p = fig6::simulated(size, 60);
        t.row(&[size.to_string(), rate(p.pdus_per_sec), rate(p.throughput_bps)]);
        simulated.push(format!(
            "{{\"pdu_bytes\":{},\"pdus_per_sec\":{:.3},\"throughput_bps\":{:.3}}}",
            size, p.pdus_per_sec, p.throughput_bps
        ));
    }
    t.print();
    println!("\nwall-clock forwarding rate of this implementation (single thread):");
    let mut in_process = Vec::new();
    let mut t = Table::new(&["PDU bytes", "PDUs/s"]);
    for size in [64usize, 1024, 10240] {
        let p = fig6::in_process(size, 20_000);
        t.row(&[size.to_string(), rate(p.pdus_per_sec)]);
        in_process
            .push(format!("{{\"pdu_bytes\":{},\"pdus_per_sec\":{:.3}}}", size, p.pdus_per_sec));
    }
    t.print();

    // Data-path ablations: what each fast-path layer is worth.
    println!("\nablations (64 B payloads):");
    let copying = fig6::in_process_copying(64, 200_000);
    let zero_copy = fig6::in_process(64, 200_000);
    // The pinned smoke floor is the *minimum* of three runs: the smoke
    // gate compares its best-of-three against 0.7× this value, and on a
    // busy single-core runner a single-sample floor can land a full
    // noise-band above a later re-measurement and flake the gate.
    let floor_64b = (0..2)
        .map(|_| fig6::in_process(64, 200_000).pdus_per_sec)
        .fold(zero_copy.pdus_per_sec, f64::min);
    let mut t = Table::new(&["ablation", "PDUs/s"]);
    t.row(&["copying data plane (allocate per PDU)".into(), rate(copying.pdus_per_sec)]);
    t.row(&["zero-copy data plane (shared payload)".into(), rate(zero_copy.pdus_per_sec)]);
    t.print();

    println!("\nshape: PDU rate ≈ flat (CPU-bound) for small PDUs; throughput rises with");
    println!("PDU size and saturates near 1 Gbps around 10 kB — matching the paper.");
    write_bench_json(
        "BENCH_fig6.json",
        format!(
            "{{\"figure\":\"fig6\",\"cpu_model\":{{\"per_pdu_us\":{},\"per_byte_ns\":{}}},\
             \"simulated\":[{}],\"in_process\":[{}],\
             \"ablation\":{{\"pdu_bytes\":64,\
             \"copying_pdus_per_sec\":{:.3},\"zero_copy_pdus_per_sec\":{:.3}}},\
             \"perf_floor\":{{\"pdu_bytes\":64,\"pdus_per_sec\":{:.3}}}}}",
            fig6::PER_PDU_US,
            fig6::PER_BYTE_NS,
            simulated.join(","),
            in_process.join(","),
            copying.pdus_per_sec,
            zero_copy.pdus_per_sec,
            floor_64b,
        ),
    );
}

/// Overload curve: the production client/server state machines in a
/// closed loop, offered 1x / 2x / 4x / 8x the server's per-tick append
/// budget. The conservation laws (attempts = acked + shed, goodput
/// saturates at the budget, nothing sheds below capacity) are asserted
/// inside `overload::curve` before the JSON is written.
fn run_overload() {
    const BUDGET: u64 = 4;
    const TICKS: u64 = 50;
    println!("Overload — goodput vs offered load (budget {BUDGET} appends/tick, {TICKS} ticks)");
    let points = overload::curve(BUDGET, &[1, 2, 4, 8], TICKS);
    let mut t = Table::new(&["offered", "arrivals", "attempts", "acked", "shed", "goodput/s"]);
    let mut points_json = Vec::new();
    for p in &points {
        t.row(&[
            format!("{}x", p.multiplier),
            p.offered.to_string(),
            p.attempts.to_string(),
            p.acked.to_string(),
            p.shed.to_string(),
            rate(p.goodput_per_sec),
        ]);
        points_json.push(format!(
            "{{\"multiplier\":{},\"offered\":{},\"attempts\":{},\"acked\":{},\
             \"shed\":{},\"backlog\":{},\"goodput_per_sec\":{:.3}}}",
            p.multiplier, p.offered, p.attempts, p.acked, p.shed, p.backlog, p.goodput_per_sec
        ));
    }
    t.print();
    println!("\nshape: goodput tracks offered load to the budget, then saturates there —");
    println!("typed Nacks shed the excess before any verification or storage work.");
    let saturated = points.iter().filter(|p| p.multiplier > 1).map(|p| p.goodput_per_sec);
    let floor = saturated.fold(f64::INFINITY, f64::min);
    write_bench_json(
        "BENCH_overload.json",
        format!(
            "{{\"figure\":\"overload\",\"budget_per_tick\":{BUDGET},\"tick_us\":{},\
             \"ticks\":{TICKS},\"points\":[{}],\
             \"overload_floor\":{{\"goodput_per_sec\":{floor:.3}}}}}",
            overload::TICK_US,
            points_json.join(","),
        ),
    );
}

/// CI overload smoke: re-runs the saturated (4x) point and fails when
/// its goodput drops below the floor recorded by the last full
/// `report overload` run (the curve's own conservation asserts run on
/// every invocation, so a broken shedding path fails loudly here too).
fn run_overload_smoke() {
    let doc = match std::fs::read_to_string("BENCH_overload.json") {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "overload-smoke: BENCH_overload.json not readable ({e}); run `report overload` first"
            );
            std::process::exit(2);
        }
    };
    let floor = json::extract_number(
        &doc[doc.find("\"overload_floor\"").unwrap_or(0)..],
        "goodput_per_sec",
    )
    .unwrap_or_else(|| {
        eprintln!(
            "overload-smoke: no overload_floor in BENCH_overload.json; run `report overload` first"
        );
        std::process::exit(2);
    });
    const BUDGET: u64 = 4;
    const TICKS: u64 = 50;
    let point = overload::curve(BUDGET, &[4], TICKS).remove(0);
    println!(
        "overload-smoke: 4x offered load goodput {:.1}/s (floor {floor:.1}/s), {} shed",
        point.goodput_per_sec, point.shed
    );
    if point.goodput_per_sec < floor {
        eprintln!(
            "overload-smoke: FAIL — saturated goodput {:.1}/s fell below the recorded floor {floor:.1}/s",
            point.goodput_per_sec
        );
        std::process::exit(1);
    }
    println!("overload-smoke: OK");
}

/// CI perf smoke: re-measures the 64 B zero-copy forwarding rate, the
/// store floors and the served-scan share of the raw range rate, and fails (exit 1) when any regresses
/// more than 30% below the floor recorded in `BENCH_fig6.json` /
/// `BENCH_store.json` by the last full run.
fn run_perf_smoke() {
    let doc = match std::fs::read_to_string("BENCH_fig6.json") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perf-smoke: BENCH_fig6.json not readable ({e}); run `report fig6` first");
            std::process::exit(2);
        }
    };
    let floor =
        json::extract_number(&doc[doc.find("\"perf_floor\"").unwrap_or(0)..], "pdus_per_sec")
            .unwrap_or_else(|| {
                eprintln!("perf-smoke: no perf_floor in BENCH_fig6.json; run `report fig6` first");
                std::process::exit(2);
            });
    // Best of three: the smoke gate must not flake on scheduler noise.
    let measured =
        (0..3).map(|_| fig6::in_process(64, 200_000).pdus_per_sec).fold(0.0f64, f64::max);
    let threshold = floor * 0.7;
    println!(
        "perf-smoke: 64 B forwarding {measured:.0} PDUs/s (floor {floor:.0}, threshold {threshold:.0})"
    );
    if measured < threshold {
        eprintln!(
            "perf-smoke: FAIL — 64 B forwarding regressed >30% below the recorded floor \
             ({measured:.0} < {threshold:.0} PDUs/s)"
        );
        std::process::exit(1);
    }

    // Store floor: re-measure segmented durable appends at the same
    // workload the floor in BENCH_store.json was recorded at.
    let doc = match std::fs::read_to_string("BENCH_store.json") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perf-smoke: BENCH_store.json not readable ({e}); run `report store` first");
            std::process::exit(2);
        }
    };
    let floor =
        json::extract_number(&doc[doc.find("\"store_floor\"").unwrap_or(0)..], "appends_per_sec")
            .unwrap_or_else(|| {
                eprintln!(
                    "perf-smoke: no store_floor in BENCH_store.json; run `report store` first"
                );
                std::process::exit(2);
            });
    let dir = std::env::temp_dir().join(format!("gdp-perf-smoke-store-{}", std::process::id()));
    let measured = (0..3)
        .map(|i| {
            let _ = std::fs::remove_dir_all(&dir);
            let r = storebench::seg_append_rate(
                &dir,
                storebench::FLOOR_CAPSULES,
                storebench::FLOOR_APPENDS,
            );
            if i == 2 {
                let _ = std::fs::remove_dir_all(&dir);
            }
            r
        })
        .fold(0.0f64, f64::max);
    let threshold = floor * 0.7;
    println!(
        "perf-smoke: segmented store {measured:.0} appends/s (floor {floor:.0}, threshold {threshold:.0})"
    );
    if measured < threshold {
        eprintln!(
            "perf-smoke: FAIL — segmented durable appends regressed >30% below the recorded \
             floor ({measured:.0} < {threshold:.0} appends/s)"
        );
        std::process::exit(1);
    }

    // Read floor: re-measure warm sealed-segment point reads at the
    // workload the read floor in BENCH_store.json was recorded at — the
    // block-cache fast lane must not silently rot either.
    let floor = json::extract_number(
        &doc[doc.find("\"read_floor\"").unwrap_or(0)..],
        "point_reads_per_sec",
    )
    .unwrap_or_else(|| {
        eprintln!("perf-smoke: no read_floor in BENCH_store.json; run `report store` first");
        std::process::exit(2);
    });
    let dir = std::env::temp_dir().join(format!("gdp-perf-smoke-read-{}", std::process::id()));
    let measured = (0..3)
        .map(|i| {
            let _ = std::fs::remove_dir_all(&dir);
            let r = storebench::seg_read_rate(
                &dir,
                storebench::FLOOR_READ_CAPSULES,
                storebench::FLOOR_READ_RECORDS,
            );
            if i == 2 {
                let _ = std::fs::remove_dir_all(&dir);
            }
            r
        })
        .fold(0.0f64, f64::max);
    let threshold = floor * 0.7;
    println!(
        "perf-smoke: warm store reads {measured:.0} reads/s (floor {floor:.0}, threshold {threshold:.0})"
    );
    if measured < threshold {
        eprintln!(
            "perf-smoke: FAIL — warm sealed-segment point reads regressed >30% below the \
             recorded floor ({measured:.0} < {threshold:.0} reads/s)"
        );
        std::process::exit(1);
    }

    // Served floor: the path requests take (index → store → encode → MAC
    // through `handle_pdu`), as a ratio of the raw range-scan rate of the
    // same run — adjacent measurements share the box's slow spells.
    let floor =
        json::extract_number(&doc[doc.find("\"served_floor\"").unwrap_or(0)..], "scan_ratio")
            .unwrap_or_else(|| {
                eprintln!(
                    "perf-smoke: no served_floor in BENCH_store.json; run `report store` first"
                );
                std::process::exit(2);
            });
    let dir = std::env::temp_dir().join(format!("gdp-perf-smoke-served-{}", std::process::id()));
    let measured = (0..3)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&dir);
            let p = storebench::served_comparison(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            p.scan_ratio()
        })
        .fold(0.0f64, f64::max);
    let threshold = floor * 0.7;
    println!(
        "perf-smoke: served scans {measured:.3} of the raw range rate (floor {floor:.3}, threshold {threshold:.3})"
    );
    if measured < threshold {
        eprintln!(
            "perf-smoke: FAIL — served range scans regressed >30% below the recorded share \
             of the raw store rate ({measured:.3} < {threshold:.3})"
        );
        std::process::exit(1);
    }
    println!("perf-smoke: OK");
}

/// Storage-engine series: durable appends (every append acked durable
/// before it counts) across capsule counts, the bounded crash-recovery
/// series, the sealed-segment read series (1k → 1M capsules) and the
/// served series (proof reads and range scans through
/// `DataCapsuleServer::handle_pdu` beside the raw range rate). Emits
/// `BENCH_store.json` with the contracts asserted before writing: a
/// build where recovery replays more than the checkpoint tail, where
/// warm point reads are not ≥5× uncached at 10k+ capsules, where warm
/// range records are not zero-copy, or where the 1M run exceeds its
/// pooled-fd budget, fails here.
fn run_store() {
    let dir = std::env::temp_dir().join(format!("gdp-report-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");

    println!("Segmented log — durably-acked appends/s and p99 ack latency");
    println!("(shared log, one fsync per {}-append group commit)\n", storebench::GROUP_SIZE);
    let mut t = Table::new(&["capsules", "appends", "seg app/s", "seg p99 µs"]);
    let mut points_json = Vec::new();
    for (capsules, appends) in [(1usize, 2_000usize), (10_000, 10_000), (100_000, 10_000)] {
        let p = storebench::append_point(&dir.join(format!("ap-{capsules}")), capsules, appends);
        t.row(&[capsules.to_string(), appends.to_string(), rate(p.per_sec), p.p99_us.to_string()]);
        points_json.push(format!(
            "{{\"capsules\":{},\"appends\":{},\"seg_per_sec\":{:.3},\"seg_p99_us\":{}}}",
            p.capsules, p.appends, p.per_sec, p.p99_us
        ));
    }
    t.print();

    println!("\ncrash recovery — reopen time vs log size (tail = entries past checkpoint):");
    let mut t = Table::new(&["records", "tail", "seg reopen µs", "seg replayed"]);
    let mut recovery_json = Vec::new();
    for (records, tail) in [(4_000u64, 256u64), (16_000, 256)] {
        // recovery_point asserts the log replayed exactly `tail` entries
        // with no full scan — the bounded-recovery contract.
        let p = storebench::recovery_point(&dir, records, tail);
        t.row(&[
            p.records.to_string(),
            p.tail.to_string(),
            p.seg_us.to_string(),
            p.seg_stats.tail_entries.to_string(),
        ]);
        recovery_json.push(format!(
            "{{\"records\":{},\"tail\":{},\"seg_us\":{},\
             \"seg_tail_entries\":{},\"seg_full_scan\":{}}}",
            p.records, p.tail, p.seg_us, p.seg_stats.tail_entries, p.seg_stats.full_scan
        ));
    }
    t.print();
    println!(
        "\nshape: reopen replays exactly the checkpointed tail (asserted above), so it\n\
         does not grow with the log."
    );

    println!(
        "\nread path — sealed-segment reads over a strided capsule sample\n\
         (uncached = block cache disabled, one block fetch + CRC per read;\n\
         \x20warm = repeat pass through the CRC-verified block cache):"
    );
    let mut t = Table::new(&[
        "capsules",
        "rec/cap",
        "uncached pt/s",
        "warm pt/s",
        "speedup",
        "range rec/s",
        "zero-copy",
        "fd opens",
        "open fds",
    ]);
    let mut read_json = Vec::new();
    let mut read_assert_ok = true;
    for (capsules, per_capsule) in [(1_000usize, 8usize), (10_000, 8), (100_000, 2), (1_000_000, 1)]
    {
        // read_comparison asserts the structural contracts inline: warm
        // range records are zero-copy slices of cached blocks and the
        // pooled-fd budget holds (at 1M the pool is smaller than the
        // sealed-segment count on purpose).
        let p =
            storebench::read_comparison(&dir.join(format!("rd-{capsules}")), capsules, per_capsule);
        t.row(&[
            p.capsules.to_string(),
            p.records_per_capsule.to_string(),
            rate(p.uncached_point_per_sec),
            rate(p.warm_point_per_sec),
            format!("{:.1}x", p.speedup()),
            rate(p.range_records_per_sec),
            format!("{:.1}%", p.zero_copy_fraction * 100.0),
            p.fd_opens.to_string(),
            format!("{}/{}", p.open_fds, p.max_open_segments),
        ]);
        if capsules >= 10_000 && p.speedup() < 5.0 {
            read_assert_ok = false;
        }
        read_json.push(format!(
            "{{\"capsules\":{},\"records_per_capsule\":{},\"sampled\":{},\
             \"uncached_point_per_sec\":{:.3},\"warm_point_per_sec\":{:.3},\"speedup\":{:.3},\
             \"range_records_per_sec\":{:.3},\"zero_copy_fraction\":{:.4},\
             \"fd_opens\":{},\"open_fds\":{},\"max_open_segments\":{}}}",
            p.capsules,
            p.records_per_capsule,
            p.sampled,
            p.uncached_point_per_sec,
            p.warm_point_per_sec,
            p.speedup(),
            p.range_records_per_sec,
            p.zero_copy_fraction,
            p.fd_opens,
            p.open_fds,
            p.max_open_segments
        ));
    }
    t.print();
    assert!(read_assert_ok, "store bench: warm point reads are <5x uncached at 10k+ capsules");

    println!(
        "\nserved reads — through DataCapsuleServer::handle_pdu (index → store → encode → MAC)\n\
         on a seglog-backed host, capsule {} x {} B = 8x the {} KiB block cache;\n\
         raw = SegLog::range over the same {}-record spans:",
        storebench::SERVED_RECORDS,
        storebench::SERVED_BODY_BYTES,
        storebench::SERVED_CACHE_BYTES / 1024,
        storebench::SERVED_SCAN_LEN
    );
    // Median of three by the ratio the floor holds.
    let mut served: Vec<storebench::ServedPoint> =
        (0..3).map(|i| storebench::served_comparison(&dir.join(format!("served-{i}")))).collect();
    served.sort_by(|a, b| a.scan_ratio().total_cmp(&b.scan_ratio()));
    let served = served[1];
    let mut t = Table::new(&[
        "raw range rec/s",
        "served scan rec/s",
        "ratio",
        "served proof/s",
        "store reads/scan",
        "cache hits",
    ]);
    t.row(&[
        rate(served.raw_range_records_per_sec),
        rate(served.served_scan_records_per_sec),
        format!("{:.3}", served.scan_ratio()),
        rate(served.served_proof_reads_per_sec),
        format!("{:.1}", served.store_reads_per_scan),
        format!("{:.1}%", served.cache_hit_ratio * 100.0),
    ]);
    t.print();

    let floor = storebench::seg_append_rate(
        &dir.join("floor"),
        storebench::FLOOR_CAPSULES,
        storebench::FLOOR_APPENDS,
    );
    let read_floor = storebench::seg_read_rate(
        &dir.join("read-floor"),
        storebench::FLOOR_READ_CAPSULES,
        storebench::FLOOR_READ_RECORDS,
    );
    write_bench_json(
        "BENCH_store.json",
        format!(
            "{{\"figure\":\"store\",\"group_size\":{},\
             \"append_points\":[{}],\"recovery\":[{}],\"read_points\":[{}],\
             \"store_floor\":{{\"capsules\":{},\"appends\":{},\"appends_per_sec\":{:.3}}},\
             \"read_floor\":{{\"capsules\":{},\"records_per_capsule\":{},\
             \"point_reads_per_sec\":{:.3}}},\
             \"served\":{{\"records\":{},\"body_bytes\":{},\"cache_bytes\":{},\"scan_len\":{},\
             \"raw_range_records_per_sec\":{:.3},\"served_scan_records_per_sec\":{:.3},\
             \"served_proof_reads_per_sec\":{:.3},\"store_reads_per_scan\":{:.3},\
             \"cache_hit_ratio\":{:.4}}},\
             \"served_floor\":{{\"scan_ratio\":{:.4}}}}}",
            storebench::GROUP_SIZE,
            points_json.join(","),
            recovery_json.join(","),
            read_json.join(","),
            storebench::FLOOR_CAPSULES,
            storebench::FLOOR_APPENDS,
            floor,
            storebench::FLOOR_READ_CAPSULES,
            storebench::FLOOR_READ_RECORDS,
            read_floor,
            storebench::SERVED_RECORDS,
            storebench::SERVED_BODY_BYTES,
            storebench::SERVED_CACHE_BYTES,
            storebench::SERVED_SCAN_LEN,
            served.raw_range_records_per_sec,
            served.served_scan_records_per_sec,
            served.served_proof_reads_per_sec,
            served.store_reads_per_scan,
            served.cache_hit_ratio,
            served.scan_ratio()
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prints the Fig 8 tables for the given model sizes and emits
/// `BENCH_fig8.json` (the quick smoke variant writes the same artifact,
/// tagged so a dashboard never mistakes it for the full run).
fn run_fig8(variant: &str, runs: u32, sizes: &[(&str, usize)]) {
    let mut size_docs = Vec::new();
    for (label, size) in sizes {
        println!("\nFig 8 — {label} (avg over {runs} runs, virtual seconds; smaller is better)");
        let mut systems = Vec::new();
        let mut t = Table::new(&["system", "write (s)", "read (s)"]);
        for (name, cell) in fig8::run_size(*size, runs) {
            t.row(&[name.to_string(), secs(cell.write_us), secs(cell.read_us)]);
            systems.push(format!(
                "{{\"system\":\"{}\",\"write_us\":{},\"read_us\":{}}}",
                json::escape(name),
                cell.write_us,
                cell.read_us
            ));
        }
        t.print();
        size_docs.push(format!(
            "{{\"label\":\"{}\",\"model_bytes\":{},\"systems\":[{}]}}",
            json::escape(label),
            size,
            systems.join(",")
        ));
    }
    if variant == "full" {
        println!(
            "\nshape check: GDP(cloud) between SSHFS(cloud) and S3; edge ≫ cloud.\n\
             (absolute values are simulator-calibrated; see EXPERIMENTS.md)"
        );
    }
    write_bench_json(
        "BENCH_fig8.json",
        format!(
            "{{\"figure\":\"fig8\",\"variant\":\"{variant}\",\"runs\":{runs},\"sizes\":[{}]}}",
            size_docs.join(",")
        ),
    );
}

const FIG8_FULL: &[(&str, usize)] =
    &[("28 MB model", workload::MODEL_SMALL), ("115 MB model", workload::MODEL_LARGE)];

fn run_table1() {
    println!("Table I — how the Global Data Plane meets the platform requirements");
    println!("(each row names the demonstrating test in tests/table1_goals.rs)\n");
    let mut t = Table::new(&["goal", "enabling feature", "demonstrated by"]);
    let rows: &[(&str, &str, &str)] = &[
        (
            "Homogeneous interface",
            "DataCapsule API + CAAPIs (fs/kv/timeseries)",
            "homogeneous_interface",
        ),
        ("Federated architecture", "flat name as trust anchor, no PKI", "federated_no_pki"),
        ("Locality", "hierarchical routing domains + anycast", "locality_anycast"),
        (
            "Secure storage",
            "capsule = authenticated data structure",
            "secure_storage_untrusted_server",
        ),
        (
            "Administrative boundaries",
            "explicit AdCert delegations per capsule",
            "administrative_delegation",
        ),
        (
            "Secure routing",
            "secure advertisements + AdCert/RtCert chains",
            "secure_routing_no_squatting",
        ),
        ("Publish-subscribe", "subscribe as a native capsule access mode", "native_pubsub"),
        (
            "Incremental deployment",
            "overlay PDUs over host links (simulated IP)",
            "overlay_incremental",
        ),
    ];
    for (goal, feature, test) in rows {
        t.row(&[goal.to_string(), feature.to_string(), test.to_string()]);
    }
    t.print();
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match what.as_str() {
        "fig6" => run_fig6(),
        "store" => run_store(),
        "perf-smoke" => run_perf_smoke(),
        "overload" => run_overload(),
        "overload-smoke" => run_overload_smoke(),
        "fig8" => run_fig8("full", 5, FIG8_FULL),
        "fig8-quick" => run_fig8("quick", 2, &[("4 MB model", 4_000_000)]),
        "table1" => run_table1(),
        "ablation-hashptr" => ablations::hashptr(4096),
        "ablation-durability" => ablations::durability(),
        "ablation-session" => ablations::session(&[1, 10, 100, 1000]),
        "ablation-anycast" => ablations::anycast(),
        "ablation-batch" => ablations::read_batch(),
        "all" => {
            run_fig6();
            run_store();
            run_overload();
            run_fig8("full", 5, FIG8_FULL);
            run_table1();
            ablations::hashptr(4096);
            ablations::durability();
            ablations::session(&[1, 10, 100, 1000]);
            ablations::anycast();
            ablations::read_batch();
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!("known: fig6 store perf-smoke overload overload-smoke fig8 fig8-quick table1 ablation-hashptr ablation-durability ablation-session ablation-anycast all");
            std::process::exit(2);
        }
    }
}

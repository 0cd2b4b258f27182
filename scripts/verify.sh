#!/usr/bin/env bash
# Full verification gate: formatting, lints, release build, all tests.
# This is what CI runs; keep it green before merging.
#
# Step order is deliberate and fail-fast, cheapest gate first:
#   fmt -> lint-table check -> layering check -> clippy -> gdp-lint
#   -> doc links -> build --release -> test -> fuzz corpus -> chaos sweep
#   -> metric smoke -> overload smoke -> bench JSON -> perf smoke -> tsan
#   -> summary
# clippy is not a style pass here: it carries five workspace invariants
# as lints declared in the files they guard (DESIGN.md, "Static analysis")
# — no panic in a hot-path module, no wire-enum variant swallowed by a
# `_ =>`, no store `Result` discarded with `let _ =` in the server's ack
# path, Counter::inc_single_writer only where one thread owns the
# counter (clippy.toml), no `unsafe` (workspace lint table). gdp-lint
# keeps what no compiler lint expresses (timing-unsafe compare, secret in
# a log, lock order, blocking under a lock, channel discipline, metric
# namespace) and runs before the release build: it is a sub-second
# whole-workspace scan, and an invariant violation should fail the gate
# before minutes of compilation, not after.
#
# Usage: scripts/verify.sh [--quick|--tsan]
#   (none)    every lane, the ThreadSanitizer one included whenever a
#             nightly toolchain is installed
#   --quick   skip fmt/clippy/gdp-lint/doc links and tsan (compile + test
#             only)
#   --tsan    ThreadSanitizer lane only: build crates/node/tests/tsan_smoke.rs
#             with -Zsanitizer=thread on nightly and run it.
# Without a nightly toolchain the tsan lane cannot run: the summary says so
# (`NOT RUN: tsan ...`, exit 0); the same test file runs un-instrumented in
# the tier-1 suite, so the workload itself is always exercised.
#
# Every mode ends with a summary that names each lane it did not run, so a
# skipped lane is never mistaken for a passed one.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
tsan=0
case "${1:-}" in
--quick) quick=1 ;;
--tsan) tsan=1 ;;
esac

step() { printf '\n==> %s\n' "$*"; }

# Lanes this invocation did not run, each with its reason.
not_run=()
summary() {
    step "summary"
    local lane
    for lane in ${not_run[@]+"${not_run[@]}"}; do
        printf 'NOT RUN: %s\n' "$lane"
    done
    printf 'OK\n'
}

has_nightly() { rustup toolchain list 2>/dev/null | grep -q '^nightly'; }

# The ThreadSanitizer lane; `NOT RUN` when no nightly toolchain is
# installed.
tsan_lane() {
    step "ThreadSanitizer smoke (crates/node/tests/tsan_smoke.rs)"
    if ! has_nightly; then
        printf 'install a nightly toolchain (`rustup toolchain install nightly`) to enable this lane\n'
        not_run+=("tsan (no nightly toolchain)")
        return 0
    fi
    # -Zsanitizer=thread instruments every cargo-built crate. Without the
    # rust-src component we cannot -Zbuild-std, so std itself stays
    # un-instrumented; -Cunsafe-allow-abi-mismatch=sanitizer accepts that
    # split, and --cfg gdp_tsan activates the fence words in the
    # parking_lot/crossbeam shims that restore the lock happens-before
    # edges TSan would otherwise miss (see shims/parking_lot docs).
    # scripts/tsan.supp masks the three false-positive classes that remain
    # without an instrumented std (Arc's fence-based teardown, libtest's
    # mpsc result channel, OnceLock initialisation) — see the comments in
    # that file.
    if ! RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer --cfg gdp_tsan" \
        TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/scripts/tsan.supp" \
        cargo +nightly test -p gdp-node --test tsan_smoke \
        --target x86_64-unknown-linux-gnu; then
        printf '!!! ThreadSanitizer reported a data race (or the TSan build failed)\n'
        exit 1
    fi
    printf 'tsan_smoke OK\n'
}

if [ "$tsan" -eq 1 ]; then
    tsan_lane
    summary
    exit 0
fi

if [ "$quick" -eq 1 ]; then
    not_run+=("fmt, clippy, gdp-lint, doc links, tsan (--quick)")
else
    step "cargo fmt --check"
    cargo fmt --all -- --check

    # `unsafe_code = "forbid"` lives in the workspace lint table, so a
    # crate that does not inherit the table is the one way to escape it.
    step "workspace lint table inherited by every crate"
    for manifest in crates/*/Cargo.toml; do
        grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace = true' || {
            printf '!!! %s lacks `[lints] workspace = true` (escapes unsafe_code = "forbid")\n' \
                "$manifest"
            exit 1
        }
    done
    printf 'OK\n'

    # Layering: the protocol cores and everything below them are sans-I/O.
    # `gdp-node`'s runtime is the one place a core meets a `Transport`, so
    # none of these crates may depend on a network substrate or a driver,
    # and the callback simulator's names must not come back.
    step "sans-I/O crates stay off gdp-net / gdp-node / gdp-sim"
    for crate in crypto wire capsule cert store obs router server client; do
        manifest="crates/$crate/Cargo.toml"
        if sed -n '/^\[dependencies\]/,/^\[/p' "$manifest" | grep -E '^gdp-(net|node|sim)\b'; then
            printf '!!! %s depends on a network substrate or driver (see above)\n' "$manifest"
            exit 1
        fi
    done
    if grep -rn "SimNode\|SimCtx\|simnode\|gdp_net::sim\b" crates src tests examples; then
        printf '!!! a name of the deleted callback simulator is back (see above)\n'
        exit 1
    fi
    # Every hosted stream's index stays resident in the seglog; the
    # eviction knob and the lazy checkpoint reload must not come back.
    evicted='max_resident_streams|StreamSlot|reload_stream|evict_over_budget|read_raw_section'
    if grep -rnE "$evicted|index_evictions|index_reloads" crates src tests examples; then
        printf '!!! a name of the deleted seglog index eviction is back (see above)\n'
        exit 1
    fi
    # Every record index is keyed by the record's address `(seq, hash)`,
    # one map per index: no lookup by bare hash, no second per-record map,
    # and no hole scan over linked seqs that are always `1..=latest_seq`.
    if grep -rnE 'get_by_hash|first_hole|is_contiguous|\bby_hash\b' crates src tests examples; then
        printf '!!! a deleted by-hash lookup, by_hash map or hole scan is back (see above)\n'
        exit 1
    fi
    # One copy of each record's header, in the store: the server's index
    # keeps an address and a wire bound per record, and a store reads a
    # seq's records with `range(seq, seq)`.
    if grep -rnE '\bSignedHeader\b|\bget_all_at_seq\b' crates src tests examples; then
        printf '!!! a deleted resident header type or per-seq store read is back (see above)\n'
        exit 1
    fi
    # One storage engine over one file layer: the seglog reaches files
    # only through `gdp_store::io` (the OS, or the in-memory `MemFs` its
    # own tests use too), and the memory store and the server tests' fault
    # wrapper it replaced must not come back.
    if grep -rnE 'std::fs|File::|OpenOptions' crates/store/src/seglog; then
        printf '!!! the seglog reaches a file around gdp_store::io (see above)\n'
        exit 1
    fi
    if grep -rnE '\bMemStore\b|\bFlakyStore\b' crates src tests examples; then
        printf '!!! a deleted second store implementation is back (see above)\n'
        exit 1
    fi
    # One durable epoch per node: a server mounts the node's one log and
    # holds one stream of it per hosted capsule, flushed once per tick; a
    # store handed in from outside, which the tick would not flush, must
    # not come back.
    if grep -rnE '\bhost_with_store\b' crates src tests examples; then
        printf '!!! the deleted caller-provided store mount is back (see above)\n'
        exit 1
    fi
    if grep -rn 'dyn CapsuleStore' crates/server/src crates/node/src; then
        printf '!!! a server or node holds a store other than its stream of the node log (see above)\n'
        exit 1
    fi
    # One forwarding path: a router forwards on its event loop. The sharded
    # data plane, its reader-side ingest hook, the route-install log that
    # fed it, and the verification memo no workload ever hit must not come
    # back.
    sharded='ShardedEngine|ShardBatcher|IngestSink|set_ingest_sink|record_installs|drain_installs'
    if grep -rnE "$sharded|install_verified|NidSnapshot|VerifyCache|vcache" crates src tests examples; then
        printf '!!! a name of the deleted sharded data plane or verify cache is back (see above)\n'
        exit 1
    fi
    # The client driver is one I/O-free policy (DESIGN.md, "Client
    # driver"): no clock, thread or socket in it, and its constants and
    # the honest-failure list are defined once in the tree — a second
    # definition is a second driver starting to grow.
    if grep -n 'std::time::Instant\|std::thread\|std::net' crates/client/src/ops.rs; then
        printf '!!! crates/client/src/ops.rs reaches for a clock, a thread or a socket (see above)\n'
        exit 1
    fi
    for item in HONEST_FAILURES ATTEMPT_SLICE_US RETRY_PAUSE_US REHELLO_US; do
        defs="$(grep -rn --include='*.rs' "const $item\b" crates | wc -l)"
        [ "$defs" -eq 1 ] || {
            printf '!!! %s is defined %s times under crates/ (want exactly 1, in gdp-client ops.rs)\n' \
                "$item" "$defs"
            exit 1
        }
    done
    printf 'OK\n'

    step "cargo clippy (deny warnings; invariants: hot-path panic, swallowed wire variant, discarded durability result, single-writer counter, unsafe)"
    cargo clippy --workspace --all-targets -- -D warnings || {
        printf '!!! clippy failed — an error from unwrap_used/expect_used/panic/indexing_slicing,\n'
        printf '!!! wildcard_enum_match_arm, disallowed_methods or unsafe_code is an invariant\n'
        printf '!!! violation (DESIGN.md, "Static analysis"), not a style nit; let_underscore_must_use\n'
        printf '!!! in crates/server is a discarded durability result: handle the store error\n'
        exit 1
    }
    # The audit surface of the compiler-enforced invariants: every
    # exception to one is a reasoned allow, counted like a suppression.
    moved='unwrap_used|expect_used|panic|unreachable|todo|unimplemented|indexing_slicing'
    moved="$moved|wildcard_enum_match_arm|disallowed_methods|let_underscore_must_use"
    clippy_allows="$({ grep -rPzo --include='*.rs' \
        "#!?\[allow\(\s*clippy::($moved)\b[^\]]*?reason" crates || true; } | tr -cd '\0' | wc -c)"

    # Workspace-invariant static analysis (see DESIGN.md, "Static
    # analysis"). Exits nonzero on any unsuppressed finding; the JSON
    # report is kept as LINT.json for inspection and the summary line
    # below is extracted from it (findings_total / suppressed_total).
    step "gdp-lint (workspace invariants)"
    cargo build -q -p gdp-lint
    lint_started="$(date +%s)"
    cargo run -q -p gdp-lint -- --format json > LINT.json || {
        cargo run -q -p gdp-lint -- --format text || true
        printf '!!! gdp-lint found invariant violations (full report: LINT.json)\n'
        exit 1
    }
    lint_secs="$(( $(date +%s) - lint_started ))"
    findings="$(sed -n 's/.*"findings_total": \([0-9]*\).*/\1/p' LINT.json)"
    suppressed="$(sed -n 's/.*"suppressed_total": \([0-9]*\).*/\1/p' LINT.json)"
    printf 'lint_findings_total %s\nlint_suppressed_total %s\nclippy_reasoned_allows_total %s\n' \
        "${findings:-?}" "${suppressed:-?}" "$clippy_allows"
    # Per-rule breakdown straight from the report's "by_rule" object, one
    # line per rule in the lint_findings{rule=...} shape dashboards expect.
    sed -n 's/^ *"by_rule": {\(.*\)},\{0,1\}$/\1/p' LINT.json | tr ',' '\n' \
        | sed 's/^ *"\([A-Z][A-Z][0-9][0-9]\)": \([0-9]*\)$/lint_findings{rule="\1"} \2/'
    # Runtime budget: the whole-workspace scan must stay a cheap fail-fast
    # gate. The binary is pre-built above so the 5s budget measures the
    # scan itself (plus cargo-run dispatch), not compilation.
    if [ "$lint_secs" -gt 5 ]; then
        printf '!!! gdp-lint took %ss (budget: 5s) — the scan must stay fail-fast cheap\n' \
            "$lint_secs"
        exit 1
    fi
    printf 'lint_runtime_seconds %s (budget 5)\n' "$lint_secs"

    # Intra-doc links are checked references: a link to an item that was
    # deleted or renamed, or to a private one, fails here instead of
    # rotting in the rendered docs; so does every other rustdoc warning.
    step "cargo doc (deny every rustdoc warning)"
    RUSTDOCFLAGS='-D warnings' \
        cargo doc --workspace --no-deps --offline -q
fi

step "cargo build --release"
cargo build --release

step "cargo test (workspace)"
cargo test --workspace -q

step "cargo test (tier-1: facade crate)"
cargo test -q

# Wire-decoder fuzz gate: replay the pinned crasher corpus, then the
# 10k-case seeded sweep — any panic in `Pdu`/frame decoding fails here
# with the crashing input written to crates/wire/tests/corpus/.
step "wire decode fuzz (corpus replay + seeded sweep)"
cargo test -q -p gdp-wire --test fuzz_decode -- --nocapture

# Seeded chaos sweep (every seed runs the replicas on the segmented log):
# the workspace test run above already covers the default 100-seed sweep
# once; this dedicated pass widens/narrows it via
# GDP_SIM_SEEDS and, on failure, surfaces the failing seed with an exact
# replay command (every panic in the chaos suite leads with GDP_SIM_SEED=<n>).
sweep="${GDP_SIM_SEEDS:-50}"
step "chaos seed sweep ($sweep seeds)"
sweep_log="$(mktemp)"
if ! GDP_SIM_SEEDS="$sweep" cargo test -p gdp-sim --test chaos seed_sweep -- --nocapture 2>&1 \
        | tee "$sweep_log"; then
    seed="$(grep -oE 'GDP_SIM_SEED=[0-9]+' "$sweep_log" | head -n1 || true)"
    rm -f "$sweep_log"
    printf '\n!!! chaos sweep FAILED'
    if [ -n "$seed" ]; then
        printf ' at %s — replay deterministically with:\n' "$seed"
        printf '!!!   %s cargo test -p gdp-sim --test chaos -- seed_sweep\n' "$seed"
        printf '!!!   (add GDP_SIM_DEBUG=1 to narrate every client event)\n'
    else
        printf ' — see output above\n'
    fi
    exit 1
fi
rm -f "$sweep_log"

# Observability smoke: a fault-free cluster run must count every hop and
# move none of the failure counters (verify_failures, crc_failures,
# recovery_truncations, requests_timed_out stay zero).
step "fault-free metric smoke"
cargo test -p gdp-sim --test chaos fault_free_metric_accounting -- --nocapture

# Overload smoke: the flash-crowd and byzantine-flood scenarios hold the
# conservation laws (every shed frame lands in a typed Nack or a failure
# counter) while goodput survives 4x hostile load end-to-end.
step "overload smoke (flash crowd + byzantine flood)"
cargo test -p gdp-sim --test chaos -- --nocapture \
    flash_crowd_sheds_typed_nacks_and_recovers \
    byzantine_flood_is_accounted_and_survived

# Bench artifacts: the report binary must emit parseable figure JSON.
# `report store` also asserts the segmented log's contracts inline:
# recovery replay == checkpoint tail, warm point reads >=5x uncached at
# 10k+ capsules, warm range records zero-copy, and the 1M-capsule read
# run inside its pooled-fd budget (it exits nonzero when any contract is
# broken).
step "bench report JSON (fig6 + store + overload + fig8-quick)"
rm -f BENCH_fig6.json BENCH_store.json BENCH_overload.json BENCH_fig8.json
cargo run --release -p gdp-bench --bin report -- fig6 >/dev/null
cargo run --release -p gdp-bench --bin report -- store >/dev/null
cargo run --release -p gdp-bench --bin report -- overload >/dev/null
cargo run --release -p gdp-bench --bin report -- fig8-quick >/dev/null
for f in BENCH_fig6.json BENCH_store.json BENCH_overload.json BENCH_fig8.json; do
    [ -s "$f" ] || { printf '!!! %s missing or empty\n' "$f"; exit 1; }
    # Re-validate with the same strict parser the dumps are checked with
    # (python as an independent cross-check when available).
    if command -v python3 >/dev/null 2>&1; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" \
            || { printf '!!! %s is not valid JSON\n' "$f"; exit 1; }
    fi
    printf '%s OK\n' "$f"
done

# The store artifact must carry the recorded floors (append rate, warm
# read rate, served-scan share of the raw range rate) plus the read and
# served series, or the perf smoke below would silently skip a
# read-path regression gate.
for key in '"store_floor"' '"read_floor"' '"read_points"' '"served"' '"served_floor"'; do
    grep -q "$key" BENCH_store.json \
        || { printf '!!! BENCH_store.json missing %s\n' "$key"; exit 1; }
done

# Perf smoke: re-measure 64 B zero-copy forwarding, segmented durable
# appends, warm sealed-segment point reads, and range scans served
# through the DataCapsule-server as a share of the raw store range rate
# of the same run; fail if any has regressed more than 30% below the
# floors the fig6/store runs just recorded (the data-path and storage
# fast paths must not silently rot). Every floor is a quantity this host
# measured.
step "perf smoke (forwarding + store floors + served reads)"
cargo run --release -p gdp-bench --bin report -- perf-smoke

# Overload floor: the saturated 4x point must keep serving the full
# append budget (goodput never collapses below the recorded floor).
step "overload perf smoke (saturated goodput floor)"
cargo run --release -p gdp-bench --bin report -- overload-smoke

if [ "$quick" -eq 0 ]; then
    tsan_lane
fi

summary

#!/usr/bin/env bash
# Appends one line to BENCH_history.jsonl: the end-to-end benchmark
# (BENCHMARK.json) measured once per workload on this box, at this tree.
#
# The file is the trajectory ROADMAP asks for: committed, append-only, one
# JSON object per line. Each line names what was measured (`commit`: the
# script refuses a tree with uncommitted changes, so the line measures
# exactly that commit and `dirty` is always false), where (`date`,
# `nproc`, `cpu`), and carries every workload's result line as the
# driver command printed it (`correct`, `attempted`, `failed`, and the
# seven end-to-end `metrics`). When `report fig6` / `report store` have
# left BENCH_fig6.json / BENCH_store.json in the tree since this commit
# was made, their recorded floors ride along.
#
# One 10 s run per workload is a trajectory point, not a comparison:
# claims of gain or no-regression need the paired runs benchmark/README.md
# describes. Nothing under benchmark/ is edited; the lockfile cargo may
# rewrite during the build is put back.
#
# Usage: scripts/bench_history.sh

set -euo pipefail
cd "$(dirname "$0")/.."

history=BENCH_history.jsonl

# Before any build: cargo rewrites benchmark/Cargo.lock, so a reading
# taken after it would call every tree dirty.
changed="$(git status --porcelain -- . ":!$history")"
if [ -n "$changed" ]; then
    printf '!!! uncommitted changes; commit them (or stash them) and re-run:\n%s\n' "$changed" >&2
    exit 1
fi
commit="$(git rev-parse --short=12 HEAD)"

lock=benchmark/Cargo.lock
saved_lock="$(mktemp)"
cp "$lock" "$saved_lock"
trap 'cp "$saved_lock" "$lock"; rm -f "$saved_lock"' EXIT

workloads="$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)"
[ -n "$workloads" ] || { printf '!!! no workloads found in BENCHMARK.json\n' >&2; exit 1; }

results=""
for w in $workloads; do
    printf '==> %s\n' "$w" >&2
    line="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$w" --seed 1 --seconds 10 --trace 0 | tail -n 1)"
    case "$line" in
    '{'*'}') ;;
    *) printf '!!! %s: last line is not a JSON result: %s\n' "$w" "$line" >&2; exit 1 ;;
    esac
    results="$results${results:+,}\"$w\":$line"
done

# A `"key":{...}` object (at most one level of nesting) out of a one-line
# JSON file, with a leading comma; nothing when the file or key is absent,
# or when the file is older than the commit (a leftover of another tree).
committed_at="$(git log -1 --format=%ct HEAD)"
floor() {
    [ -s "$1" ] || return 0
    if [ "$(stat -c %Y "$1")" -lt "$committed_at" ]; then
        printf '!!! %s predates %s; its %s is left out (run report fig6/store first)\n' \
            "$1" "$commit" "$2" >&2
        return 0
    fi
    grep -o "\"$2\":{[^{}]*\({[^{}]*}[^{}]*\)*}" "$1" | head -n 1 | sed 's/^/,/'
}
floors="$(floor BENCH_fig6.json perf_floor)$(floor BENCH_store.json store_floor)$(floor BENCH_store.json read_floor)$(floor BENCH_store.json served_floor)"

cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -d '"\\')"

entry="{\"commit\":\"$commit\",\"dirty\":false,\"date\":\"$(date -u +%Y-%m-%dT%H:%M:%SZ)\""
entry="$entry,\"nproc\":$(nproc),\"cpu\":\"${cpu:-unknown}\",\"seconds\":10,\"seed\":1"
entry="$entry,\"workloads\":{$results}$floors}"

if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$entry" | python3 -c 'import json,sys; json.load(sys.stdin)' \
        || { printf '!!! refusing to append an invalid JSON line\n' >&2; exit 1; }
fi
printf '%s\n' "$entry" >> "$history"
printf 'appended to %s (%s lines)\n' "$history" "$(wc -l < "$history")" >&2

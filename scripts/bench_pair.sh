#!/usr/bin/env bash
# Compares one workload of the end-to-end benchmark (BENCHMARK.json) at a
# parent commit and at HEAD, in alternating pairs of runs, and gives each
# end-to-end metric one verdict.
#
# Both trees are exported with `git archive` (committed files only) into
# the git-ignored .bench_build/<commit>/, and each driver is built there
# once; an export that already exists is reused, so a second workload
# against the same parent builds nothing. Pair i runs the parent first
# when i is odd and HEAD first when it is even. Nothing under benchmark/
# in this tree is built or edited; its Cargo.lock is put back anyway.
#
# Per metric it prints each side's median and quartiles over the pairs,
# the pairs HEAD won (ties count for neither side) and a verdict:
#   better            HEAD won at least 9/10 of the pairs and the medians
#                     are further apart than the parent's interquartile
#                     range (the rule for claiming a gain);
#   worse than bound  HEAD's median is worse than the parent's by more
#                     than the metric's bound in BENCHMARK.json;
#   unresolved        neither, and the parent's interquartile range is
#                     wider than the bound (relative to its median), so
#                     the runs cannot tell "within bound" apart, unless
#                     every HEAD run reads better than every parent run;
#   within bound      otherwise.
# It also prints each side's failed and attempted operations.
#
# Usage: scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=1]

set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n 's/^# Usage: //p' "$0" >&2; exit 2; }
parent_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
grep -q "{\"name\": \"$workload\"" BENCHMARK.json \
    || { printf '!!! %s is not a workload in BENCHMARK.json\n' "$workload" >&2; exit 2; }
command -v python3 >/dev/null || { printf '!!! python3 is needed for the statistics\n' >&2; exit 2; }

lock=benchmark/Cargo.lock
saved_lock="$(mktemp)" results="$(mktemp)"
cp "$lock" "$saved_lock"
trap 'cp "$saved_lock" "$lock"; rm -f "$saved_lock" "$results"' EXIT

# Exports commit $1 and builds its driver; prints the tree's directory.
build() {
    local tree=".bench_build/$1"
    if [ ! -d "$tree" ]; then
        mkdir -p "$tree.partial"
        git archive "$1" | tar -x -C "$tree.partial"
        mv "$tree.partial" "$tree"
    fi
    printf '==> building %s\n' "$1" >&2
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml" >&2
    printf '%s\n' "$tree"
}

parent="$(git rev-parse --short=12 "$parent_ref^{commit}")"
change="$(git rev-parse --short=12 HEAD)"
[ "$parent" != "$change" ] || { printf '!!! %s is HEAD\n' "$parent_ref" >&2; exit 2; }
parent_tree="$(build "$parent")"
change_tree="$(build "$change")"

# One run of side $1 (parent|change); appends "<side> <pair> <json>".
run() {
    local tree
    if [ "$1" = parent ]; then tree=$parent_tree; else tree=$change_tree; fi
    local line
    line="$(cd "$tree" && benchmark/target/release/gdp-benchmark run --workload "$workload" \
        --seed "$seed" --seconds 10 --trace 0 --out benchmark/out | tail -n 1)" || true
    case "$line" in
    '{'*'}') printf '%s %s %s\n' "$1" "$2" "$line" >> "$results" ;;
    *) printf '!!! %s pair %s: no JSON result line\n' "$1" "$2" >&2; exit 1 ;;
    esac
    printf '    pair %s %s done\n' "$2" "$1" >&2
}

printf '==> %s: %s pairs, seed %s, parent %s vs HEAD %s\n' \
    "$workload" "$pairs" "$seed" "$parent" "$change" >&2
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"
    else run change "$i"; run parent "$i"; fi
done

python3 - "$results" "$workload" "$seed" "$parent" "$change" <<'EOF'
import json, sys

path, workload, seed, parent, change = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"parent": {}, "change": {}}
for line in open(path):
    side, pair, result = line.split(" ", 2)
    runs[side][int(pair)] = json.loads(result)
pairs = sorted(set(runs["parent"]) & set(runs["change"]))

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        k = (len(xs) - 1) * q
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return at(0.25), at(0.5), at(0.75)

print(f"{workload}, seed {seed}: parent {parent} vs HEAD {change}, {len(pairs)} pairs")
for side in ("parent", "change"):
    failed = sum(runs[side][p]["failed"] for p in pairs)
    attempted = sum(runs[side][p]["attempted"] for p in pairs)
    correct = all(runs[side][p]["correct"] for p in pairs)
    print(f"  {side:6}: {failed} of {attempted} operations failed, every run correct: {correct}")
print(f"  {'metric':26} {'parent median [q1, q3]':>34} {'HEAD median [q1, q3]':>34} {'won':>6}  verdict")
for m in spec:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    par = [runs["parent"][p]["metrics"][name]["value"] for p in pairs]
    chg = [runs["change"][p]["metrics"][name]["value"] for p in pairs]
    won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    gain = (pmed - cmed) if lower else (cmed - pmed)
    iqr = pq3 - pq1
    all_better = max(chg) < min(par) if lower else min(chg) > max(par)
    if won >= 0.9 * len(pairs) and gain > iqr:
        verdict = "better"
    elif pmed and -gain / abs(pmed) > bound:
        verdict = "worse than bound"
    elif pmed and iqr / abs(pmed) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    fmt = lambda q1, med, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"  {name:26} {fmt(pq1, pmed, pq3):>34} {fmt(cq1, cmed, cq3):>34} "
          f"{won:>3}/{len(pairs):<2}  {verdict}")
EOF

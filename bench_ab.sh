#!/usr/bin/env sh
# A/B host-time ledger for the repo benchmark.
#
# Usage: ./bench_ab.sh <base-rev> [pairs=10] [out=bench_ab.json]
#
# Runs the command recorded in BENCHMARK.json, unchanged, with
# `--workload all --seed 1 --seconds <run_seconds from BENCHMARK.json>` on
# <base-rev> and on the working tree, in <pairs> interleaved pairs: even
# pairs run the base first, odd pairs the working tree first, so drift in
# the host's clock hits both sides alike. Then one
# `--trace 1` run per side records the per-layer metrics. Every run's JSON
# result line goes into <out>, one JSON document, tagged with its side and
# pair.
#
# The base side is a `git archive` export under .bench_build/<sha>, built
# there by the benchmark command itself (cargo builds on the first run);
# the working tree side builds in place. The ledger identifies each side by
# the git tree hashes of the directories the benchmark builds from (crates,
# perfbench, vendor); the working tree's are taken as it is, committed or
# not, so `git rev-parse <commit>:crates` shows whether a commit holds the
# measured code.
set -eu

usage="usage: $0 <base-rev> [pairs=10] [out=bench_ab.json]"
base_rev=${1:?$usage}
pairs=${2:-10}
out=${3:-bench_ab.json}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# The benchmark command, one word per line of the "command" array.
cmd=$(sed -n '/"command": *\[/,/\]/s/^ *"\([^"]*\)",\{0,1\}$/\1/p' BENCHMARK.json)

base_dir="$root/.bench_build/$base_sha"
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir.tmp"
    git archive "$base_sha" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi

runs=$(mktemp)
index=$(mktemp)
trap 'rm -f "$runs" "$index"' EXIT

# The working tree as a git tree, staged into a scratch index so the real
# index is left alone.
rm -f "$index"
GIT_INDEX_FILE=$index git add -A -- crates perfbench vendor
head_tree=$(GIT_INDEX_FILE=$index git write-tree)

# src <tree-ish>: JSON object of the benchmark's source tree hashes.
src() {
    printf '{"crates": "%s", "perfbench": "%s", "vendor": "%s"}' \
        "$(git rev-parse "$1:crates")" "$(git rev-parse "$1:perfbench")" \
        "$(git rev-parse "$1:vendor")"
}

# run <side> <dir> <pair> <trace>: one benchmark run; appends its tagged
# result line to $runs.
run() {
    echo "==> $1 pair=$3 trace=$4" >&2
    # $cmd is unquoted on purpose: it is a word list.
    line=$(cd "$2" && $cmd --workload all --seed 1 --seconds "$seconds" \
        --trace "$4" </dev/null | tail -n 1)
    case $line in
        '{'*) ;;
        *) echo "bench_ab: no JSON result from $1 (pair $3)" >&2; exit 1 ;;
    esac
    [ -s "$runs" ] && printf ',\n' >>"$runs"
    printf '{"side": "%s", "pair": %s, "trace": %s, "result": %s}' \
        "$1" "$3" "$4" "$line" >>"$runs"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then
        run base "$base_dir" "$i" 0
        run head "$root" "$i" 0
    else
        run head "$root" "$i" 0
        run base "$base_dir" "$i" 0
    fi
    i=$((i + 1))
done
run base "$base_dir" null 1
run head "$root" null 1

{
    printf '{"base": "%s", "base_src": %s, "head_src": %s,\n' \
        "$base_sha" "$(src "$base_sha")" "$(src "$head_tree")"
    printf ' "seed": 1, "seconds": %s, "nproc": %s, "runs": [\n' \
        "$seconds" "$(nproc)"
    cat "$runs"
    printf '\n]}\n'
} >"$out"
echo "bench_ab: wrote $out" >&2

#!/usr/bin/env bash
# Paired timing of perfbench: a parent revision against the working tree.
#
#   scripts/perf_pairs.sh <parent-rev> <workload> [pairs=10] [seconds=30] [first-seed=1]
#
# The parent revision is extracted with `git archive` into a temporary
# directory (the repository's .git is only read). Each side's perfbench
# is built into its own CARGO_TARGET_DIR: the parent's inside the
# temporary directory, the working tree's in .bench_build/change. Pair i
# runs both sides on seed first-seed + i with --seconds <seconds>
# --trace 0, the parent first on even pairs and the change first on odd
# ones. A run that fails, or whose last line is not "correct": true,
# stops the script. The summary opens with each side's perfbench header
# from its first run (exec width, simd.kernel, nproc), so a report shows
# which kernels each side ran.
#
# For every end-to-end metric in BENCHMARK.json the summary prints each
# side's median and first/third quartiles (the exclusive method of
# Python's statistics.quantiles, as in perfbench/WORKLOADS.md), the
# change in the median, how many pairs the change won (strictly better
# in the metric's direction), whether the rule for claiming a gain
# holds (the change wins at least nine pairs in ten, and its median is
# better than the parent's by more than the parent's interquartile
# range), and the no-regression verdict against the metric's `bound` in
# BENCHMARK.json, a share of the parent's median: "worse" when the
# change's median is worse than the parent's by more than the bound,
# else "unresolved" when the parent's interquartile range is wider than
# the bound and not every change run beats every parent run, else "ok".
# Needs cargo, git and jq; run from anywhere.
set -euo pipefail

usage="usage: $0 <parent-rev> <workload> [pairs=10] [seconds=30] [first-seed=1]"
parent_rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-30}
first_seed=${5:-1}
if ((pairs < 2)); then
  echo "need at least 2 pairs for quartiles" >&2
  exit 2
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"
parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
change_label=$(git rev-parse --short=12 HEAD)
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
  change_label="$change_label+worktree"
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_sha" | tar -x -C "$work/parent"

build() { # <source root> <target dir>
  CARGO_TARGET_DIR="$2" cargo build --quiet --release --offline \
    --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building parent ${parent_sha:0:12}" >&2
build "$work/parent" "$work/target"
echo "building change $change_label" >&2
build "$repo" "$repo/.bench_build/change"
declare -A binary=(
  [parent]="$work/target/release/crowdrl-perfbench"
  [change]="$repo/.bench_build/change/release/crowdrl-perfbench"
)

results="$work/results.jsonl"
declare -A header=()
run() { # <side> <pair> <seed>
  local out last
  out="$work/$1-$2.log"
  if ! "${binary[$1]}" --workload "$workload" --seed "$3" --seconds "$seconds" \
    --trace 0 >"$out"; then
    echo "$1 run of pair $2 (seed $3) exited non-zero; its output: $out" >&2
    trap - EXIT
    exit 1
  fi
  if [[ -z ${header[$1]:-} ]]; then
    header[$1]=$(grep -m 1 'simd.kernel' "$out" |
      sed -E 's/^seed [0-9]+ +seconds [0-9]+ +trace [01] +//')
  fi
  last=$(tail -n 1 "$out")
  if [[ $(jq -r '.correct' <<<"$last") != true ]]; then
    echo "$1 run of pair $2 (seed $3) did not end \"correct\": true; its output: $out" >&2
    trap - EXIT
    exit 1
  fi
  jq -c --arg side "$1" --argjson pair "$2" --argjson seed "$3" \
    '{side: $side, pair: $pair, seed: $seed, metrics: (.metrics | map_values(.value))}' \
    <<<"$last" >>"$results"
  echo "pair $2 seed $3 $1: wall_s $(jq '.metrics.wall_s.value' <<<"$last")" >&2
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run parent "$i" "$seed"
    run change "$i" "$seed"
  else
    run change "$i" "$seed"
    run parent "$i" "$seed"
  fi
done

echo "perfbench $workload: $pairs alternating pairs, --seconds $seconds, seeds" \
  "$first_seed..$((first_seed + pairs - 1)), nproc $(nproc)"
echo "parent ${parent_sha:0:12}: ${header[parent]}"
echo "change $change_label: ${header[change]}"
jq -rn --slurpfile runs "$results" --slurpfile bench BENCHMARK.json '
  # Python statistics.quantiles(xs, n=4), method "exclusive".
  def quartile($i):
    sort as $d | ($d | length) as $ld | ($ld + 1) as $m
    | ([([(($i * $m / 4) | floor), 1] | max), $ld - 1] | min) as $j
    | ($i * $m - $j * 4) as $delta
    | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4;
  def median:
    sort as $d | ($d | length) as $n
    | if $n % 2 == 1 then $d[($n - 1) / 2 | floor]
      else ($d[$n / 2 - 1] + $d[$n / 2]) / 2 end;
  def fmt: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;
  def pad($w): tostring | . + ([range([$w - length, 0] | max)] | map(" ") | add // "");
  def side($s): [$runs[] | select(.side == $s)] | sort_by(.pair);
  side("parent") as $p | side("change") as $c | ($p | length) as $n
  | ["metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
     "median", "wins", "gain rule", "no regression"],
    ($bench[0].end_to_end[] | .name as $m | .better as $dir
     | ($p | map(.metrics[$m])) as $pv | ($c | map(.metrics[$m])) as $cv
     | ($pv | median) as $pm | ($cv | median) as $cm
     | (($pv | quartile(3)) - ($pv | quartile(1))) as $iqr
     | ([range($n) | select(if $dir == "lower" then $cv[.] < $pv[.]
                            else $cv[.] > $pv[.] end)] | length) as $wins
     | (if $dir == "lower" then $pm - $cm else $cm - $pm end) as $gain
     | (.bound * ($pm | fabs)) as $bound
     | (if $dir == "lower" then ($cv | max) < ($pv | min)
        else ($cv | min) > ($pv | max) end) as $all_beat
     | [$m, $dir,
        "\($pm | fmt) [\($pv | quartile(1) | fmt), \($pv | quartile(3) | fmt)]",
        "\($cm | fmt) [\($cv | quartile(1) | fmt), \($cv | quartile(3) | fmt)]",
        (if $pm == 0 then "-" else "\(($cm - $pm) / $pm * 1000 | round / 10)%" end),
        "\($wins)/\($n)",
        (if $wins * 10 >= 9 * $n and $gain > $iqr then "holds" else "no" end),
        (if -$gain > $bound then "worse"
         elif $iqr > $bound and ($all_beat | not) then "unresolved"
         else "ok" end)])
  | [.[0] | pad(16)] + [.[1] | pad(7)] + (.[2:4] | map(pad(32))) + [.[4] | pad(8)]
    + [.[5] | pad(6)] + [.[6] | pad(10)] + [.[7]]
  | join(" ")'

#!/usr/bin/env bash
# Compares the benchmark suite on the working tree against a base
# revision. Run it from the repository root:
#
#   bash .github/bench-compare.sh origin/main
#
# It checks the base revision out into a temporary git worktree and
# runs each of the four BENCHMARK.json workloads for seeds 1-3 on both
# sides, two seconds of reps a run, swapping which side runs first
# after every pair. It then prints the suite's --compare table, base
# as OLD and the working tree as NEW. The exit status is --compare's:
# 1 when a metric is worse by more than its bound in BENCHMARK.json.
# On a 2-vCPU host the whole comparison takes about 2.5 minutes.
set -euo pipefail

base_rev=${1:?usage: bash .github/bench-compare.sh BASE_REV}
work=$(mktemp -d)
trap 'git worktree remove --force "$work/base" 2>/dev/null || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base" "$base_rev"

# run SIDE WORKLOAD SEED appends one suite run to $work/SIDE.out.
run() {
	local dir=.
	if [ "$1" = base ]; then
		dir="$work/base"
	fi
	echo "$1: $2 seed $3" >&2
	(cd "$dir" && bash benchsuite/run.sh --workload "$2" --seed "$3" \
		--seconds 2 --trace 0) >>"$work/$1.out"
}

first=base second=head
for workload in paper-sweep stream-5k burst-mix ckpt-resume; do
	for seed in 1 2 3; do
		run "$first" "$workload" "$seed"
		run "$second" "$workload" "$seed"
		read -r first second <<<"$second $first"
	done
done
bash benchsuite/run.sh --compare "$work/base.out" "$work/head.out"

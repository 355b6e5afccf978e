#!/usr/bin/env bash
# Records one set of runs into a file --compare reads: every workload at
# every seed, untraced, and one traced run of every workload at the first
# seed.  Run it from the repository root.  Two sets that are to be
# compared use the same seeds, so that their digests and counts can be
# held equal and their spreads are the host's, not the inputs'.
#
#   bench/sets.sh A.jsonl            # seeds 1..10
#   bench/sets.sh B.jsonl            # the same seeds again
#   bash bench/run.sh --compare "$PWD/A.jsonl" "$PWD/B.jsonl"
#   bench/sets.sh C.jsonl 11 20      # other seeds, for a claim that must hold on them too
set -euo pipefail
out=$(realpath "$1")
first=${2:-1}
last=${3:-10}
workloads="paper-target largep-logp largep-flow service-cold"
# The start of each result line is enough to watch a set go by.
for seed in $(seq "$first" "$last"); do
	for w in $workloads; do
		bash bench/run.sh --workload "$w" --seed "$seed" --trace 0 --record "$out" | tail -n 1 | cut -c 1-160
	done
done
for w in $workloads; do
	bash bench/run.sh --workload "$w" --seed "$first" --trace 1 --record "$out" | tail -n 1 | cut -c 1-160
done

#!/usr/bin/env bash
# Times the jacobi workload configuration at several commits of this
# repository in alternating order, to tell a throughput change from noise:
#
#   bash perfbench/bisect.sh <workdir> <rounds> <commit>...
#
# Run it from a git checkout. Each commit is exported with git archive into
# <workdir>/<commit>, and perfbench/jacobiprobe is built inside that tree.
# Each round then runs every commit's probe once, in commit order on odd
# rounds and in reverse order on even ones. Every probe run appends one JSON
# line to <workdir>/runs.jsonl, and the script ends with each commit's
# median, quartiles and spread of events/s and of ops/s, the event count and
# virtual makespan (which must not differ between rounds), and how many
# rounds the first commit won.
set -euo pipefail

work=$1 rounds=$2
shift 2
commits=("$@")
probe=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/jacobiprobe/main.go
mkdir -p "$work"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

for c in "${commits[@]}"; do
	rm -rf "${work:?}/$c"
	mkdir -p "$work/$c/cmd/jacobiprobe"
	git archive "$c" | tar -x -C "$work/$c"
	cp "$probe" "$work/$c/cmd/jacobiprobe/main.go"
	(cd "$work/$c" && go build -o "$work/$c.probe" ./cmd/jacobiprobe)
done

: >"$work/runs.jsonl"
for ((r = 1; r <= rounds; r++)); do
	order=("${commits[@]}")
	if ((r % 2 == 0)); then
		order=()
		for ((i = ${#commits[@]} - 1; i >= 0; i--)); do order+=("${commits[i]}"); done
	fi
	for c in "${order[@]}"; do
		"$work/$c.probe" -label "$c" >>"$work/runs.jsonl"
	done
done

python3 - "$work/runs.jsonl" <<'PY'
import json, statistics, sys
runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["label"], []).append(r)
# One value per probe process: the median of its measured runs. Ops/s
# (grid-cell updates per second) compares commits whose event counts differ.
evs = {l: [statistics.median(r["events_per_sec"]) for r in rs] for l, rs in runs.items()}
ops = {l: [e / rs[0]["events"] * rs[0]["ops"] for e in evs[l]] for l, rs in runs.items()}
first = next(iter(runs))
for label, rs in runs.items():
    shape = sorted({(r["events"], r["virtual_ms"]) for r in rs})
    print(f"{label}: n={len(rs)} events,virtual_ms={shape}")
    for name, xs in (("ev/s", evs[label]), ("ops/s", ops[label])):
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"  {name} median={med:.0f} q1={q1:.0f} q3={q3:.0f} iqr/median={(q3 - q1) / med:.3f}")
    if label != first:
        wins = sum(a > b for a, b in zip(ops[first], ops[label]))
        print(f"  rounds where {first} has more ops/s: {wins} of {len(rs)}")
PY

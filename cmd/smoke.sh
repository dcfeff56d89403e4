#!/usr/bin/env bash
# `make cli-smoke`: builds the six cmd/ binaries and runs each once on a tiny
# input, so a CLI that no test or other smoke target starts (tracegen,
# burstsim) cannot rot unnoticed. The simulate run is the one with content:
# 2000 VMs, live migration and the forecast hook, at two shard counts whose
# summaries must be byte-identical (the shard determinism contract).
# Everything built or written lives in a temp dir removed on exit.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for c in burstsim consolidate loadgen mapcal simulate tracegen; do
	"$GO" build -o "$tmp/$c" "./cmd/$c"
done

# A Fig. 5(a)-style fleet spec: R_b, R_e ∈ [2,20], C ∈ [80,100].
awk -v n=2000 'BEGIN {
	srand(7)
	printf "{\"vms\":["
	for (i = 0; i < n; i++)
		printf "%s{\"ID\":%d,\"POn\":0.01,\"POff\":0.09,\"Rb\":%.3f,\"Re\":%.3f}", (i ? "," : ""), i, 2 + 18 * rand(), 2 + 18 * rand()
	printf "],\"pms\":["
	for (i = 0; i < n; i++)
		printf "%s{\"ID\":%d,\"Capacity\":%.3f}", (i ? "," : ""), i, 80 + 20 * rand()
	printf "],\"rho\":0.01,\"max_vms_per_pm\":16}\n"
}' >"$tmp/fleet.json"

"$tmp/mapcal" -k 12 >/dev/null
"$tmp/tracegen" -len 50 >/dev/null
"$tmp/tracegen" -kind request -len 20 >/dev/null
"$tmp/burstsim" -exp fig5 -vms 50 >/dev/null
"$tmp/consolidate" -spec "$tmp/fleet.json" >/dev/null
"$tmp/loadgen" -pms 100 -clients 2 -ops 2000 >/dev/null

sim=("$tmp/simulate" -spec "$tmp/fleet.json" -strategy rb -intervals 60 -seed 7 -migration -forecast 10)
"${sim[@]}" >"$tmp/shards1.json"
"${sim[@]}" -shards 4 >"$tmp/shards4.json"
cmp "$tmp/shards1.json" "$tmp/shards4.json"
grep -q '"forecasts"' "$tmp/shards1.json"
if grep -q '"total_migrations": 0,' "$tmp/shards1.json"; then
	echo "cli-smoke: the simulate run migrated nothing" >&2
	exit 1
fi
echo "cli-smoke: ok"

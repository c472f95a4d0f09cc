#!/bin/sh
# bench-pairs.sh W N BASE — the A/B re-check of one benchmark workload:
# builds ./bench from revision BASE (a temporary `git archive` checkout)
# and from the working tree, runs N alternating pairs of
# `--workload W --seed 7 --seconds 20 --trace 0` (the benchmark's run
# length), each binary from its own checkout root (http-dispatch builds
# serve from the checkout it runs in), the parent's first in odd pairs and
# the change's first in even ones, and prints each pair's change/parent
# ratio for every end-to-end metric of BENCHMARK.json, then each metric's
# median ratio and the number of pairs in which it improved. Run it with
# nothing else busy on the machine: a second benchmark in parallel ruins
# both.
set -eu
W=$1 N=$2 BASE=$3
root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
grep -q "\"name\": \"$W\"" "$spec" || { echo "bench-pairs: no workload $W in BENCHMARK.json" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$BASE" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/base.bin" ./bench)
(cd "$root" && go build -o "$tmp/change.bin" ./bench)
# name better, one line per end-to-end metric.
awk -F'"' '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 } on && /"name"/ { print $4, $12 }' "$spec" >"$tmp/metrics"

run() { # side pair: one run, its "W metric value unit" lines and failed count kept
	dir=$root
	[ "$1" = base ] && dir=$tmp/base
	(cd "$dir" && "$tmp/$1.bin" --workload "$W" --seed 7 --seconds 20 --trace 0) >"$tmp/$1.$2" 2>"$tmp/$1.$2.err" || {
		echo "bench-pairs: $1 run $2 failed:" >&2
		cat "$tmp/$1.$2.err" >&2
		exit 1
	}
}
i=1
while [ "$i" -le "$N" ]; do
	if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
	echo "pair $i of $N done" >&2
	i=$((i + 1))
done

i=1
while [ "$i" -le "$N" ]; do
	for side in base change; do
		awk -v W="$W" -v side="$side" -v pair="$i" '$1 == W && NF == 4 { print side, pair, $2, $3 }
			/^\{/ { if (match($0, /"failed":[0-9]+/)) print side, pair, "failed", substr($0, RSTART + 9, RLENGTH - 9) }' "$tmp/$side.$i"
	done
	i=$((i + 1))
done >"$tmp/values"

awk -v N="$N" -v W="$W" '
	FNR == NR { name[++m] = $1; better[$1] = $2; next }
	{ v[$1, $2, $3] = $4 }
	END {
		printf "%s: change/parent over %d alternating pairs\n", W, N
		printf "%-6s", "pair"
		for (j = 1; j <= m; j++) printf " %12s", name[j]
		printf " %12s\n", "failed"
		for (i = 1; i <= N; i++) {
			printf "%-6d", i
			for (j = 1; j <= m; j++) {
				b = v["base", i, name[j]]; c = v["change", i, name[j]]
				r[j, i] = ""
				if (b != "" && c != "" && b + 0 != 0) {
					r[j, i] = c / b
					if (better[name[j]] == "lower" ? c + 0 < b + 0 : c + 0 > b + 0) won[j]++
					printf " %12.4f", c / b
				} else printf " %12s", "-"
			}
			printf " %5s/%-6s\n", v["base", i, "failed"], v["change", i, "failed"]
		}
		printf "%-6s", "median"
		for (j = 1; j <= m; j++) {
			n = 0
			for (i = 1; i <= N; i++) if (r[j, i] != "") x[++n] = r[j, i]
			for (a = 2; a <= n; a++) for (b = a; b > 1 && x[b - 1] > x[b]; b--) { t = x[b]; x[b] = x[b - 1]; x[b - 1] = t }
			if (n == 0) printf " %12s", "-"
			else printf " %12.4f", (n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2)
		}
		printf "\n%-6s", "better"
		for (j = 1; j <= m; j++) printf " %9d/%-2d", won[j], N
		printf "\n"
	}' "$tmp/metrics" "$tmp/values"

#!/bin/sh
# fma-audit.sh checks the census of fusable float expressions that
# TestFusableSitesAreCensused keeps (testdata/fma_census.txt) against what
# a compiler that fuses really emits: it cross-compiles every package for
# arm64 with -S (-a, since a cached package prints no assembly; ~30 s on
# 2 CPUs) and collects the file:line of every FMADDD, FMSUBD, FNMADDD and
# FNMSUBD under internal/. A fused line the census names no site on is a
# site the gate cannot see, and fails the audit; a census site arm64 does
# not fuse is listed too, since the gate counts what may fuse. Run it from
# the repository root: sh scripts/fma-audit.sh (make fma-audit).
set -eu
GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
$GO test -count=1 -run '^TestFusableSitesAreCensused$' -v . >"$out/test"
sed -n 's/^.*fusable \(internal\/[^	]*\)	.*$/\1/p' "$out/test" | sort -u >"$out/census"
GOARCH=arm64 $GO build -a -gcflags='profitlb/...=-S' -o /dev/null ./... 2>"$out/arm64.s"
grep -E '	(FMADDD|FMSUBD|FNMADDD|FNMSUBD)	' "$out/arm64.s" |
	sed -n "s|.*($PWD/\(internal/[^)]*\)).*|\1|p" | sort -u >"$out/fused"
echo "census: $(wc -l <"$out/census") lines with a fusable site; arm64: $(wc -l <"$out/fused") lines fused"
comm -23 "$out/census" "$out/fused" | sed 's/^/not fused on arm64: /'
missed=$(comm -13 "$out/census" "$out/fused")
if [ -n "$missed" ]; then
	echo "$missed" | sed 's/^/fused on arm64, no census site: /'
	exit 1
fi
echo "every line arm64 fuses has a census site"

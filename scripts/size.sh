#!/bin/sh
# size.sh writes BENCH_size.json at the repository root: non-test Go
# lines per package and in total, and the number of command-line flags
# each cmd/*/main.go defines. ROADMAP aim 2 ("the same numbers and
# behaviour from the least code", fewer knobs) is then a number every
# PR moves in the open: check.sh regenerates the file and fails when it
# differs from the committed one, so a change in size is always part of
# the diff that caused it.
#
# The line rule (wc -l over these files, grouped by directory):
#   find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*'
# benchmark/ is the measuring instrument, not the system; testdata/
# holds analyzer fixtures. A flag is one flag.<Type>( or flag.Var(
# definition; flag.Parse, flag.Set and the like are not flags.
#
# Usage: scripts/size.sh [outfile]   (default BENCH_size.json)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_size.json}"

{
	find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' |
		LC_ALL=C sort | while read -r f; do
		echo "lines $(dirname "$f" | sed 's|^\./||') $(wc -l <"$f")"
	done
	for f in cmd/*/main.go; do
		n=$(grep -oE 'flag\.[A-Z][A-Za-z0-9]*\(' "$f" |
			grep -vcE 'flag\.(Parse|Parsed|Set|Args|Arg|NArg|NFlag|Usage|PrintDefaults|Lookup|Visit|VisitAll)\(' || true)
		echo "flags $(dirname "$f") $n"
	done
} | awk '
	$1 == "lines" { if (!($2 in lines)) pkgs[++np] = $2; lines[$2] += $3; total += $3 }
	$1 == "flags" { cmds[++nc] = $2; flags[$2] = $3 }
	END {
		printf "{\n  \"flags\": {\n"
		for (i = 1; i <= nc; i++) printf "    \"%s\": %d%s\n", cmds[i], flags[cmds[i]], i < nc ? "," : ""
		printf "  },\n  \"go_lines\": {\n"
		for (i = 1; i <= np; i++) printf "    \"%s\": %d,\n", pkgs[i], lines[pkgs[i]]
		printf "    \"total\": %d\n  }\n}\n", total
	}' >"$out"
echo "wrote $out"

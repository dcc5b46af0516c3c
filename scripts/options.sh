#!/bin/sh
# options.sh [base-ref] — the "options before/after" figures of a simplicity
# PR as a command: the field count of every struct type named *Options or
# *Config in the root module's non-test Go files, and cmd/skserve's flag
# count, at base-ref (default HEAD~1) and in the checked-out tree (tracked
# files as they are on disk). A line "A, B int" is two fields; an embedded
# field is one. benchmarks/perf is a module of its own and is not counted.
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"

counted() { grep -E '\.go$' | grep -Ev '_test\.go$|(^|/)testdata/|^benchmarks/perf/'; }

# fields SIDE DIR: reads one Go file on stdin and prints "<SIDE> <dir>.<Type> <n>"
# for each Options/Config struct declared at top level in it ("." is the root
# package, printed as spatialkeyword).
fields() {
	awk -v side="$1" -v dir="$2" '
		BEGIN { if (dir == ".") dir = "spatialkeyword" }
		/^type ([A-Za-z_][A-Za-z0-9_]*)?(Options|Config) struct \{/ { name = $2; n = 0; open = 1; next }
		open && /^}/ { printf "%s %s.%s %d\n", side, dir, name, n; open = 0; next }
		open && /^\t[A-Za-z_]/ {
			line = substr($0, 2)
			match(line, /^[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*/)
			n += split(substr(line, 1, RLENGTH), names, ",")
		}'
}

# flags SIDE: reads cmd/skserve's Go files on stdin and prints "<SIDE> skserve-flags <n>".
flags() {
	n=$(grep -Eo 'flag\.[A-Z][A-Za-z0-9]*(Var)?\(' | grep -Evc 'flag\.(Parse|Args|Arg|NArg|NFlag|Usage|Set|Lookup|Visit|VisitAll|PrintDefaults)\(' || true)
	echo "$1 skserve-flags $n"
}

{
	git ls-tree -r --name-only "$base" | counted | while read -r f; do
		git cat-file blob "$base:$f" | fields base "$(dirname "$f")"
	done
	git ls-tree -r --name-only "$base" -- cmd/skserve | counted | while read -r f; do
		git cat-file blob "$base:$f"
	done | flags base
	git ls-files | counted | while read -r f; do
		[ -f "$f" ] && fields now "$(dirname "$f")" <"$f"
	done
	git ls-files -- cmd/skserve | counted | while read -r f; do
		[ -f "$f" ] && cat "$f"
	done | flags now
} | awk -v base="$base" '
	{ key[$2] = 1; n[$1, $2] = $3; has[$1, $2] = 1 }
	END {
		printf "%-40s %8s %8s\n", "struct (fields) / flags", base, "now"
		for (k in key) {
			b = has["base", k] ? n["base", k] : "-"
			c = has["now", k] ? n["now", k] : "-"
			printf "%-40s %8s %8s%s\n", k, b, c, (b != c ? "  *" : "") | "sort"
		}
	}'

#!/usr/bin/env bash
# Non-test, non-generated Go lines per package, now and at a base commit,
# and the difference — the number ROADMAP's "least code" aim and its
# ">=15 % fewer non-test lines across internal/{trace,ingest,lint}" bar are
# read from. Counts physical lines (wc -l) of *.go files, leaving out
# *_test.go, anything under a testdata/ directory and files carrying the
# standard "Code generated ... DO NOT EDIT." header; the working tree is
# counted as it stands, uncommitted edits included.
#
#   scripts/loc.sh [base]    base defaults to the merge-base of HEAD and
#                            main. On main itself that is HEAD, which with
#                            a clean tree compares the commit to itself, so
#                            there it falls back to HEAD~1: the last PR.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-$(git merge-base HEAD main)}
if [ $# -eq 0 ] && [ "$(git rev-parse "$base")" = "$(git rev-parse HEAD)" ] &&
  [ -z "$(git status --porcelain)" ] && git rev-parse -q --verify HEAD~1 >/dev/null; then
  base=HEAD~1
fi
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$base" | tar -x -C "$old"

count() { # tree root -> "package lines" per line
  (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
    xargs -0 awk '
      FNR == 1 { gen[FILENAME] = 0 }
      /^\/\/ Code generated .* DO NOT EDIT\.$/ { gen[FILENAME] = 1 }
      { n[FILENAME]++ }
      END {
        for (f in n) if (!gen[f]) {
          d = f; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."
          pkg[d] += n[f]
        }
        for (d in pkg) print d, pkg[d]
      }')
}

join -a1 -a2 -e0 -o 0,1.2,2.2 <(count "$old" | sort) <(count . | sort) |
  awk -v base="$(git rev-parse --short "$base")" '
    BEGIN { printf "%-32s %8s %8s %7s\n", "package", base, "now", "delta" }
    {
      printf "%-32s %8d %8d %+7d\n", $1, $2, $3, $3 - $2
      b += $2; n += $3
      if ($1 ~ /^internal\/(trace|ingest|lint)$/) { bb += $2; bn += $3 }
    }
    END {
      printf "%-32s %8d %8d %+7d\n", "total", b, n, n - b
      printf "%-32s %8d %8d %+7d  (%+.1f%%; ROADMAP bar: -15%%)\n",
        "internal/{trace,ingest,lint}", bb, bn, bn - bb, bb ? 100 * (bn - bb) / bb : 0
    }'

#!/usr/bin/env bash
# Every metric registered with a string literal anywhere in src/ or tools/
# must be documented in docs/OBSERVABILITY.md. The doc's table shorthands
# are understood: `svc/cache_{hits,misses}` expands, and placeholder rows
# like `svc/latency/<kind>` match their whole dynamic family. Prints the
# undocumented names and exits 1 when any are missing (CI runs this).
set -euo pipefail
cd "$(dirname "$0")/.."
doc=docs/OBSERVABILITY.md

# Literal registration sites: the NANO_OBS_* macros, direct registry
# calls, and the counter names handed to a util::Memo (its MemoNames
# designated initializers, `.hits = "..."`). Dynamically-built names
# (string concatenation) cannot be grepped; they must be documented via a
# placeholder row.
mapfile -t registered < <(
  grep -rhoE 'NANO_OBS_(COUNT|GAUGE|TIMER|SPAN)\("[^"]+"|\.(counter|gauge|timer)\("[^"]+"|\.(hits|misses|evictions|joins) = "[^"]+"' \
    src tools |
    sed -E 's/^[^"]*"//; s/"$//' | sort -u
)
if [[ ${#registered[@]} -eq 0 ]]; then
  echo "check_metrics_docs: found no registered metrics under src/ -- broken grep?" >&2
  exit 1
fi

# Documented names: every backticked token in the doc that could be a
# metric path, with {a,b,c} shorthands expanded one name per line.
documented=$(
  grep -oE '`[A-Za-z0-9_/{},<>-]+`' "$doc" | tr -d '`' | while read -r tok; do
    case $tok in
      *'<'*) printf '%s\n' "$tok" ;;              # placeholder row, verbatim
      *'{'*) eval "printf '%s\n' $tok" ;;         # brace shorthand
      *) printf '%s\n' "$tok" ;;
    esac
  done | sort -u
)

missing=0
for name in "${registered[@]}"; do
  found=0
  while IFS= read -r d; do
    if [[ $d == "$name" ]]; then
      found=1
      break
    fi
    # Placeholder rows: `svc/latency/<kind>` documents svc/latency/total
    # (glob match) and any truncated prefix grep captured (prefix match).
    glob=$(sed 's/<[^>]*>/*/g' <<<"$d")
    if [[ $glob != "$d" && ($name == $glob || $d == "$name"*) ]]; then
      found=1
      break
    fi
  done <<<"$documented"
  if [[ $found -eq 0 ]]; then
    echo "check_metrics_docs: '$name' is registered in src/ but not documented in $doc" >&2
    missing=$((missing + 1))
  fi
done

if [[ $missing -gt 0 ]]; then
  echo "check_metrics_docs: $missing undocumented metric(s); add them to the $doc tables" >&2
  exit 1
fi
echo "check_metrics_docs: all ${#registered[@]} registered metric names are documented"

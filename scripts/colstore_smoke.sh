#!/usr/bin/env sh
# colstore_smoke.sh — end-to-end check of the columnar corpus pipeline.
#
# Traces a small fleet in the row layout (*.trz), adds columnar
# segments (*.fsc) beside it with `fscorpus convert`, proves
# row/columnar SHA-256 equivalence with `fscorpus verify`, inspects
# layout stats, runs a pushdown scan, converts the columnar corpus back
# to row streams and asserts the round-trip reproduces the original row
# bytes exactly. Then fsreport must print the same full report from a
# row-only and a columnar-only copy of the corpus, and reject an
# unknown section name.
#
# Usage: scripts/colstore_smoke.sh
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/fsfleet" ./cmd/fsfleet
go build -o "$WORK/fscorpus" ./cmd/fscorpus
go build -o "$WORK/fsreport" ./cmd/fsreport

"$WORK/fsfleet" -machines 4 -hours 1 -seed 9 -workers 2 -progress 0 \
  -format row -out "$WORK/row"
cp -r "$WORK/row" "$WORK/traces"
"$WORK/fscorpus" convert -to columnar "$WORK/traces"

ls "$WORK/traces"/*.trz >/dev/null
ls "$WORK/traces"/*.fsc >/dev/null

# Digest equivalence: every segment's footer SHA-256 must match its row
# stream's logical bytes.
"$WORK/fscorpus" verify "$WORK/traces" | tee "$WORK/verify.out"
grep -q 'row ≡ columnar' "$WORK/verify.out"
if grep -q FAIL "$WORK/verify.out"; then
  echo "FAIL: verification failures" >&2
  exit 1
fi

# Layout stats and a pushdown scan must run cleanly.
"$WORK/fscorpus" stats "$WORK/traces" >/dev/null
"$WORK/fscorpus" scan -kinds read,write "$WORK/traces" | tee "$WORK/scan.out"
grep -q 'pushdown:' "$WORK/scan.out"

# Columnar -> row round trip: the regenerated row streams must be
# byte-identical to the originals (same records, same DEFLATE encoder).
"$WORK/fscorpus" convert -to row -out "$WORK/rows" "$WORK/traces"
for f in "$WORK/traces"/*.trz; do
  cmp "$f" "$WORK/rows/$(basename "$f")"
done

# Layout independence of the report: the row-only corpus and a
# columnar-only copy print byte-identical reports.
cp -r "$WORK/traces" "$WORK/col"
rm "$WORK/col"/*.trz
"$WORK/fsreport" -in "$WORK/row" >"$WORK/row.report"
"$WORK/fsreport" -in "$WORK/col" >"$WORK/col.report"
cmp "$WORK/row.report" "$WORK/col.report"

# An unknown section name fails and lists the valid names.
if "$WORK/fsreport" -in "$WORK/row" nosuch 2>"$WORK/nosuch.err"; then
  echo "FAIL: fsreport accepted an unknown section" >&2
  exit 1
fi
grep -q 'cachesweep' "$WORK/nosuch.err"

echo "colstore smoke OK" >&2

#!/usr/bin/env sh
# colstore_smoke.sh — end-to-end check of the saved corpus pipeline.
#
# Traces a small fleet with fsfleet, which saves one colstore segment
# (*.fsc) per machine. fscorpus must verify every segment's footer
# SHA-256, print layout stats and run a pushdown scan. fsreport must
# print the same full report from the saved corpus as from an
# in-process study of the same seed and size, reject an unknown section
# name, and refuse a corpus directory holding a *.trz row stream (the
# older layout).
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
  -out "$WORK/traces"
ls "$WORK/traces"/*.fsc >/dev/null

# Every segment decodes to the record stream its footer digests.
"$WORK/fscorpus" verify "$WORK/traces" | tee "$WORK/verify.out"
grep -q '^verified 4 machines' "$WORK/verify.out"
if grep -q FAIL "$WORK/verify.out"; then
  echo "FAIL: verification failures" >&2
  exit 1
fi

# Layout stats and a pushdown scan must run cleanly.
"$WORK/fscorpus" stats "$WORK/traces" >/dev/null
"$WORK/fscorpus" scan -kinds read,write "$WORK/traces" | tee "$WORK/scan.out"
grep -q 'pushdown:' "$WORK/scan.out"

# The saved corpus and an in-process study of the same seed and size
# print byte-identical reports.
"$WORK/fsreport" -in "$WORK/traces" >"$WORK/loaded.report"
"$WORK/fsreport" -machines 4 -hours 1 -seed 9 >"$WORK/inproc.report"
cmp "$WORK/loaded.report" "$WORK/inproc.report"

# An unknown section name fails and lists the valid names.
if "$WORK/fsreport" -in "$WORK/traces" nosuch 2>"$WORK/nosuch.err"; then
  echo "FAIL: fsreport accepted an unknown section" >&2
  exit 1
fi
grep -q 'cachesweep' "$WORK/nosuch.err"

# A corpus holding a row stream from the older layout is refused.
cp -r "$WORK/traces" "$WORK/old"
: >"$WORK/old/walk-up-01.trz"
if "$WORK/fsreport" -in "$WORK/old" 2>"$WORK/old.err" >/dev/null; then
  echo "FAIL: fsreport loaded a corpus holding a *.trz row stream" >&2
  exit 1
fi
grep -q 're-collect the corpus' "$WORK/old.err"

echo "colstore smoke OK" >&2

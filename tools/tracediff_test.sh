#!/bin/sh
# ctest driver for the tracediff schedule-regression gate.
#
# Exercises the committed golden trace pair four ways:
#   1. clean pass     — tracediff A B on the committed pair must exit 0,
#   2. stable report  — repeated runs must produce byte-identical
#                       kpm.tracediff/1 documents (stable fingerprint),
#   3. regeneration   — re-exporting the golden workload at host thread
#                       counts 1/2/4/7 must reproduce trace A bit-for-bit
#                       (the modeled clock is independent of host threading),
#   4. perturbation   — the seeded negative control (--perturb) must trip a
#                       nonzero exit and at least one FAIL line.
#
# usage: tracediff_test.sh <kpmcli> <tracediff> <golden-trace-dir>
# Relative arguments are taken from the current directory.
set -e
absolute() { case $1 in /*) echo "$1" ;; *) echo "$(pwd)/$1" ;; esac; }
kpmcli=$(absolute "$1")
tracediff=$(absolute "$2")
golden=$(absolute "$3")

a="$golden/cluster_a.trace.json"
b="$golden/cluster_b.trace.json"
test -f "$a"
test -f "$b"

scratch="$(pwd)/tracediff_scratch"
rm -rf "$scratch"
mkdir "$scratch"
cd "$scratch"

# 1. Clean pass on the committed pair.
"$tracediff" "$a" "$b" --json=run1.json > clean.txt
grep -q 'schedules agree within thresholds' clean.txt
grep -q 'kpm.tracediff/1' run1.json
grep -q '"fingerprint": "0x' run1.json

# 2. Byte-identical reports across repeated runs.
"$tracediff" "$a" "$b" --json=run2.json > /dev/null
"$tracediff" "$a" "$b" --json=run3.json > /dev/null
for r in run2.json run3.json; do
  if ! cmp -s run1.json "$r"; then
    echo "tracediff_test: report $r differs from run1.json" >&2
    exit 1
  fi
done

# 3. Regenerating the golden workload at several host thread counts must
#    reproduce the committed trace A byte-for-byte.
for t in 1 2 4 7; do
  "$kpmcli" profile --lattice=cubic --edge=4 --moments=32 --R=2 --S=2 \
    --engine=cluster --nodes=3 --threads=$t \
    --trace-modeled="regen$t.json" > /dev/null
  if ! cmp -s "$a" "regen$t.json"; then
    echo "tracediff_test: regenerated trace at --threads=$t differs from golden A" >&2
    exit 1
  fi
done

# 4. The seeded perturbation must trip the gate.
if "$tracediff" "$a" "$b" --perturb=13 --json=perturbed.json > perturb.txt; then
  echo "tracediff_test: seeded perturbation did not trip the gate" >&2
  exit 1
fi
grep -q 'FAIL' perturb.txt
grep -q 'violation(s)' perturb.txt
grep -q '"violations"' perturbed.json
if cmp -s run1.json perturbed.json; then
  echo "tracediff_test: perturbed report identical to clean report" >&2
  exit 1
fi

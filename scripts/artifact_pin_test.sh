#!/usr/bin/env bash
# Golden pin of two campaign artifacts: the fig09 sweep (5 checker
# frequencies x 9 kernels, with baselines) and the coverage campaign on
# randacc (forked strikes), both at --scale=0.05. Everything from
# "aggregate": onward -- the merged statistics and every per-run record --
# must hash to the values below. The header before it (format, version,
# seed, task count) is cut off first, so a format-version bump does not
# move the pin; any change to a simulated number does.
#
# usage: artifact_pin_test.sh <bench_fig09_checker_frequency> \
#                             <bench_coverage_campaign>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <bench_fig09_checker_frequency> <bench_coverage_campaign>" >&2
  exit 2
fi
fig09=$1
coverage=$2

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT HUP INT TERM

# check <label> <want sha256> <artifact>
check() {
  local got
  got=$(sed '1s/^.*"aggregate":/"aggregate":/' "$3" | sha256sum | cut -d' ' -f1)
  if [[ $got != "$2" ]]; then
    echo "FAIL: $1 artifact hashes to $got, want $2" >&2
    exit 1
  fi
  echo "OK: $1 artifact matches its pin"
}

"$fig09" --scale=0.05 --jobs=2 --out="$workdir/fig09.json" > /dev/null
check fig09 be2c5036999b0fbe0074559722d2ac42dde67c1ab2fe79682b7343fe7a43b149 \
    "$workdir/fig09.json"

"$coverage" --scale=0.05 --benchmark=randacc --jobs=2 \
    --out="$workdir/coverage.json" > /dev/null
check coverage-randacc \
    feb21b610a0c6d4ba9a2debbcf6b58086eb24315d919a8553ec272b224d1ab73 \
    "$workdir/coverage.json"

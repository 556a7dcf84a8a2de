#!/usr/bin/env bash
# Usage errors of the real CLI surface, in the fault campaign example and
# the fig09 sweep reproduction: an over-narrow --benchmark filter exits 1
# with a diagnostic; unknown, removed and malformed flags exit 2 before
# any simulation runs. A typo, an unset shell variable or a flag from an
# older build must never run the defaults in its place.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <example_fault_campaign> <bench_fig09>" >&2
  exit 2
fi
fault_campaign=$1
fig09=$2

err=$(mktemp)
cleanup() { rm -f "$err"; }
trap cleanup EXIT HUP INT TERM

# An over-narrow filter must be a loud error (exit 1 + diagnostic), not an
# empty table with exit 0.
if "$fig09" --benchmark=no_such_kernel > /dev/null 2> "$err"; then
  echo "FAIL: empty suite filter exited 0" >&2
  exit 1
fi
if ! grep -q "matches no" "$err"; then
  echo "FAIL: empty suite filter printed no diagnostic" >&2
  exit 1
fi
echo "OK: empty --benchmark filter fails loudly"

expect_usage_error() {
  local code=0
  "$@" > /dev/null 2>&1 || code=$?
  if [[ $code -ne 2 ]]; then
    echo "FAIL: '$*' exited $code, want 2" >&2
    exit 1
  fi
}
expect_usage_error "$fig09" --benchmark=randacc --bogus=1
expect_usage_error "$fig09" --benchmark=randacc --scale=abc
expect_usage_error "$fig09" --benchmark=randacc --scale=-1
expect_usage_error "$fig09" --benchmark=randacc --scale=inf
expect_usage_error "$fault_campaign" 1 --fork=maybe
# An empty value (an unset shell variable) must not silently drop the
# artifact or widen a one-kernel run to the whole suite.
expect_usage_error "$fig09" --benchmark=randacc --out=
expect_usage_error "$fig09" --scale=0.02 --benchmark=
# Removed flags: like any unknown flag they exit 2, in every driver.
for flag in --shard=0/2 --checkpoint=ck.json --journal=x \
    --checkpoint-every=4 --checker-batch=4 --frontend=gshare; do
  expect_usage_error "$fig09" --benchmark=randacc "$flag"
  expect_usage_error "$fault_campaign" 1 "$flag"
done
echo "OK: unknown and removed flags, an empty --out= or --benchmark=," \
     "a malformed --scale and --fork=maybe exit 2"

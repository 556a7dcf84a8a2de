#!/usr/bin/env bash
# Byte-identity check for a change that must not move any output: runs
# every bench_* binary at --scale=0.05 --jobs=2 and every example_* binary
# with its smoke arguments, once from each of two build directories, and
# compares their standard output and exit codes. Exits 1 naming the first
# binary whose output differs (or that only one build has), 0 when every
# binary matches.
#
#   scripts/cmp_artifacts.sh PARENT_BUILD CHANGE_BUILD
#
# Typical use: build the parent commit in one directory and the change in
# another (both RelWithDebInfo or both Release), then run this script.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
for dir in "$1" "$2"; do
  if [[ ! -d $dir ]]; then
    echo "$0: no build directory '$dir'" >&2
    exit 2
  fi
done
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT HUP INT TERM

# Arguments each binary runs with: a few seconds' smoke run for each
# example, one small scale for every bench.
args_for() {
  case $1 in
    bench_*) echo "--scale=0.05 --jobs=2" ;;
    example_fault_campaign) echo "4 --jobs=2" ;;
    example_explore_design_space) echo "--jobs=2" ;;
    *) echo "" ;;
  esac
}

# Runs BUILD/NAME, leaving its stdout in OUT and its exit code after it.
run_one() {
  local build=$1 name=$2 out=$3 code=0
  # shellcheck disable=SC2046  # args_for's words are separate arguments.
  "$build/$name" $(args_for "$name") > "$out" 2> "$out.err" || code=$?
  echo "exit code $code" >> "$out"
}

names=$( (cd "$parent" && ls -1 bench_* example_* 2>/dev/null;
          cd "$change" && ls -1 bench_* example_* 2>/dev/null) | sort -u ||
        true)
if [[ -z $names ]]; then
  echo "$0: no bench_* or example_* binaries in either build" >&2
  exit 2
fi

compared=0
for name in $names; do
  for dir in "$parent" "$change"; do
    if [[ ! -x $dir/$name ]]; then
      echo "DIFFERS: $name (missing from $dir)"
      exit 1
    fi
  done
  run_one "$parent" "$name" "$workdir/parent.out"
  run_one "$change" "$name" "$workdir/change.out"
  if ! cmp -s "$workdir/parent.out" "$workdir/change.out"; then
    echo "DIFFERS: $name $(args_for "$name")"
    diff "$workdir/parent.out" "$workdir/change.out" | head -n 20 || true
    exit 1
  fi
  echo "same: $name $(args_for "$name")"
  compared=$((compared + 1))
done
echo "all $compared binaries print identical stdout and exit codes"

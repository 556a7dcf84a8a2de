#!/usr/bin/env bash
# End-to-end smoke test for cross-process campaign sharding: run the fault
# campaign example and the fig09 sweep reproduction as two shard processes
# each, merge their artifacts with merge_results, and require the merged
# file to be byte-identical to the file an unsharded run writes. Then a
# crash-resume drill: SIGKILL a checkpointed fig09 run once its journal
# holds a record, re-run the same command, and require the resumed
# artifact to be byte-identical to an uninterrupted run's, with the
# journal the only checkpoint file.
# Also checks that merge_results refuses a version-3 artifact by name,
# that a re-run on a finished checkpoint rewrites identical bytes, that a
# checkpoint path naming a non-journal file fails without touching it,
# and the usage-error paths (empty --benchmark filter, empty --out= and
# --checkpoint= paths, unknown and removed flags — --journal,
# --checkpoint-every, --checker-batch, --frontend — and malformed --scale
# and --fork values). Exercises the real CLI surface (flag parsing,
# artifact I/O, the merge tool, a killed process) rather than the library
# entry points the unit tests already cover.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <example_fault_campaign> <merge_results> <bench_fig09>" >&2
  exit 2
fi
fault_campaign=$1
merge_results=$2
fig09=$3

# Everything below lands in one fresh temp dir, removed on *every* exit —
# success, failure or signal — so a failed step can never leave stale
# artifacts behind to confuse the next run.
workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT HUP INT TERM

trials=2  # trials per fault site: 10 campaign tasks total.

"$fault_campaign" $trials --jobs=2 --shard=0/2 --out="$workdir/shard_0.json" \
    > "$workdir/shard_0.log"
"$fault_campaign" $trials --jobs=2 --shard=1/2 --out="$workdir/shard_1.json" \
    > "$workdir/shard_1.log"
"$merge_results" --out="$workdir/merged.json" \
    "$workdir/shard_0.json" "$workdir/shard_1.json" > "$workdir/merge.log"
"$fault_campaign" $trials --jobs=2 --out="$workdir/whole.json" \
    > "$workdir/whole.log"

if ! cmp "$workdir/merged.json" "$workdir/whole.json"; then
  echo "FAIL: merged shard artifact differs from the unsharded artifact" >&2
  exit 1
fi
echo "OK: 2-shard fault-campaign merge is byte-identical to the unsharded artifact"

# Version-3 artifacts carry mem_digest values of the old page hash, which
# no version-4 clean run can match: merging one must fail (exit 1) and
# name the file and its version.
sed '1s/"version":4,/"version":3,/' "$workdir/shard_0.json" \
    > "$workdir/shard_0_v3.json"
code=0
"$merge_results" --out="$workdir/merged_v3.json" "$workdir/shard_0_v3.json" \
    "$workdir/shard_1.json" > /dev/null 2> "$workdir/merge_v3.err" || code=$?
if [[ $code -ne 1 ]]; then
  echo "FAIL: merging a version-3 artifact exited $code, want 1" >&2
  exit 1
fi
if ! grep -q "shard_0_v3.json" "$workdir/merge_v3.err" ||
    ! grep -q "version 3" "$workdir/merge_v3.err"; then
  echo "FAIL: version-3 refusal does not name the file and version:" >&2
  cat "$workdir/merge_v3.err" >&2
  exit 1
fi
if [[ -e "$workdir/merged_v3.json" ]]; then
  echo "FAIL: merging a version-3 artifact wrote an output" >&2
  exit 1
fi
echo "OK: merge_results refuses a version-3 artifact, naming it"

# The fig09 sweep (a SweepCampaign grid of frequency x workload cells)
# through the same sharded path: 5 points over one kernel at a small scale.
fig09_flags=(--scale=0.02 --benchmark=randacc)
"$fig09" "${fig09_flags[@]}" --jobs=2 --shard=0/2 \
    --out="$workdir/fig09_0.json" > "$workdir/fig09_0.log"
"$fig09" "${fig09_flags[@]}" --jobs=2 --shard=1/2 \
    --out="$workdir/fig09_1.json" > "$workdir/fig09_1.log"
"$merge_results" --out="$workdir/fig09_merged.json" \
    "$workdir/fig09_0.json" "$workdir/fig09_1.json" > "$workdir/fig09_merge.log"
"$fig09" "${fig09_flags[@]}" --jobs=2 --out="$workdir/fig09_whole.json" \
    > "$workdir/fig09_whole.log"

if ! cmp "$workdir/fig09_merged.json" "$workdir/fig09_whole.json"; then
  echo "FAIL: merged fig09 sweep artifact differs from the unsharded artifact" >&2
  exit 1
fi
echo "OK: 2-shard fig09 sweep merge is byte-identical to the unsharded artifact"

# Crash resume: SIGKILL a checkpointed run once its journal holds one
# record (line 1 is the header), then re-run the same command. The resumed
# run simulates only the unfinished tasks and must write the bytes an
# uninterrupted run writes, leaving the journal as the only checkpoint
# file.
drill_flags=(--scale=0.05 --jobs=1)
tasks=45  # 5 checker frequencies x 9 kernels.
"$fig09" "${drill_flags[@]}" --out="$workdir/drill_whole.json" > /dev/null
mkdir "$workdir/drill"
journal="$workdir/drill/fig09.ckpt.json"
"$fig09" "${drill_flags[@]}" --checkpoint="$journal" > /dev/null &
pid=$!
while kill -0 "$pid" 2> /dev/null; do
  if [[ -f "$journal" && $(wc -l < "$journal") -ge 2 ]]; then break; fi
  sleep 0.01
done
kill -KILL "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
records=$(($(wc -l < "$journal") - 1))
if [[ $records -lt 1 || $records -gt $((tasks - 1)) ]]; then
  echo "FAIL: the kill left $records of $tasks records, want 1..$((tasks - 1))" >&2
  exit 1
fi
"$fig09" "${drill_flags[@]}" --checkpoint="$journal" \
    --out="$workdir/drill_resumed.json" > /dev/null
if ! cmp "$workdir/drill_resumed.json" "$workdir/drill_whole.json"; then
  echo "FAIL: the resumed artifact differs from an uninterrupted run's" >&2
  exit 1
fi
found=("$workdir/drill"/*)
if [[ "${found[*]}" != "$journal" ]]; then
  echo "FAIL: the killed run left checkpoint files: ${found[*]}" >&2
  exit 1
fi
echo "OK: a run killed after $records of $tasks records resumes to the" \
     "byte-identical artifact, with one checkpoint file"

# A finished checkpoint re-runs nothing and rewrites the identical --out.
"$fig09" "${fig09_flags[@]}" --checkpoint="$workdir/fig09.ckpt.json" \
    > /dev/null
"$fig09" "${fig09_flags[@]}" --checkpoint="$workdir/fig09.ckpt.json" \
    --out="$workdir/fig09_rerun.json" > /dev/null
if ! cmp "$workdir/fig09_rerun.json" "$workdir/fig09_whole.json"; then
  echo "FAIL: re-run on a finished checkpoint wrote different bytes" >&2
  exit 1
fi
echo "OK: re-running on a finished checkpoint rewrites the identical artifact"

# A checkpoint path naming a file that is not a journal (here the run's
# own --out artifact) fails with exit 1 and leaves the file untouched.
cp "$workdir/fig09_whole.json" "$workdir/fig09_pristine.json"
code=0
"$fig09" "${fig09_flags[@]}" --checkpoint="$workdir/fig09_whole.json" \
    --out="$workdir/fig09_whole.json" > /dev/null 2>&1 || code=$?
if [[ $code -ne 1 ]]; then
  echo "FAIL: --checkpoint naming an artifact exited $code, want 1" >&2
  exit 1
fi
if ! cmp "$workdir/fig09_whole.json" "$workdir/fig09_pristine.json"; then
  echo "FAIL: --checkpoint naming an artifact modified it" >&2
  exit 1
fi
echo "OK: a non-journal checkpoint file is refused and left untouched"

# An over-narrow filter must be a loud error (exit 1 + diagnostic), not an
# empty table with exit 0.
if "$fig09" --benchmark=no_such_kernel > /dev/null 2> "$workdir/empty.err"; then
  echo "FAIL: empty suite filter exited 0" >&2
  exit 1
fi
if ! grep -q "matches no" "$workdir/empty.err"; then
  echo "FAIL: empty suite filter printed no diagnostic" >&2
  exit 1
fi
echo "OK: empty --benchmark filter fails loudly"

# Unknown flags and malformed values are usage errors (exit 2) before any
# simulation runs: a typo must never run the defaults in its place.
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
# An empty path (an unset shell variable) must not silently drop the
# artifact or the crash safety.
expect_usage_error "$fig09" --benchmark=randacc --out=
expect_usage_error "$fig09" --benchmark=randacc --checkpoint=
expect_usage_error "$merge_results" --out= "$workdir/shard_0.json" \
    "$workdir/shard_1.json"
# --journal, --checkpoint-every, --checker-batch and --frontend are not
# flags: like any unknown flag they exit 2, in every driver.
expect_usage_error "$fig09" --benchmark=randacc --journal=x
expect_usage_error "$fig09" --benchmark=randacc --checkpoint-every=4
expect_usage_error "$fault_campaign" 1 --checkpoint-every=4
expect_usage_error "$fig09" --benchmark=randacc --checker-batch=4
expect_usage_error "$fig09" --benchmark=randacc --frontend=gshare
expect_usage_error "$fault_campaign" 1 --checker-batch=4
echo "OK: unknown and removed flags, empty --out= and --checkpoint= paths," \
     "a malformed --scale and --fork=maybe exit 2"

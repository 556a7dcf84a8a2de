#!/usr/bin/env bash
# Flag-documentation drift check: every CLI flag a binary parses must
# appear in that binary's --help output. Flags are extracted from the
# string literals the source actually strcmp/strncmp's against ("--foo",
# "--foo="), including the shared sets a driver opts into — bench_util.h
# for bench drivers, the RuntimeOptions campaign flags (src/common/
# config.cc) for drivers that pass campaign=true. Catches both a new
# flag nobody documented and a documented flag whose parser was removed
# only on the parse side (the flag disappears from the extraction, so
# only parsed-but-undocumented drift can slip through; the reverse is
# harmless over-documentation).
#
# usage: check_flag_docs.sh <build_dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build_dir>" >&2
  exit 2
fi
build=$1
repo=$(cd "$(dirname "$0")/.." && pwd)

fail=0

# Flags parsed in the given sources: string literals that *begin* with
# "--" (comparison operands), not flags mentioned mid-sentence in help
# text. The bare "--" separator and --help itself are exempt.
parsed_flags() {
  grep -ho '"--[a-z-]*' "$@" | tr -d '"' | sort -u |
      grep -v -e '^--$' -e '^--help$' || true
}

# check_binary <bin> <exempt flags> <sources...>
check_binary() {
  local bin=$1 exempt=$2
  shift 2
  local flags flag help
  flags=$(comm -23 <(parsed_flags "$@") <(sort -u <<<"$exempt"))
  [[ -z "$flags" ]] && return 0
  if [[ ! -x "$build/$bin" ]]; then
    echo "SKIP: $bin is not built"
    return 0
  fi
  help=$("$build/$bin" --help 2>&1 || true)
  for flag in $flags; do
    if ! grep -qF -- "$flag" <<<"$help"; then
      echo "FAIL: $bin parses '$flag' but its --help never mentions it"
      fail=1
    fi
  done
}

for src in "$repo"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  sources=("$src")
  # Only drivers that run the shared parser accept the shared flags
  # (some binaries include bench_util.h just for print_header etc.).
  grep -q 'Options::parse' "$src" &&
      sources+=("$repo/bench/bench_util.h")
  exempt=
  if grep -q 'campaign=\*/true' "$src"; then
    # campaign=true drivers accept the RuntimeOptions sharding flags.
    sources+=("$repo/src/common/config.cc")
  else
    # bench_util.h names every RuntimeOptions flag so that it can reject
    # all other arguments; a campaign=false driver exits 2 on the
    # sharding ones, so its --help need not list them.
    exempt=$(parsed_flags "$repo/src/common/config.cc")
  fi
  check_binary "bench_$name" "$exempt" "${sources[@]}"
done

# The campaign examples parse RuntimeOptions campaign flags directly.
check_binary example_fault_campaign "" "$repo/examples/fault_campaign.cpp" \
    "$repo/src/common/config.cc"
check_binary example_explore_design_space "" \
    "$repo/examples/explore_design_space.cpp" "$repo/src/common/config.cc"

for src in "$repo"/tools/*.cpp; do
  check_binary "$(basename "$src" .cpp)" "" "$src"
done

if [[ $fail -ne 0 ]]; then
  echo "flag documentation drifted from the parsers (see FAIL lines)" >&2
  exit 1
fi
echo "OK: every parsed flag is documented in its binary's --help"

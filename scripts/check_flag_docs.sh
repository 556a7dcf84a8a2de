#!/usr/bin/env bash
# Flag-documentation drift check, both ways, for every bench driver and
# the two campaign examples:
#   * every CLI flag a binary parses must appear in its --help output;
#   * every --flag its --help output lists must be parsed by its sources.
# Parsed flags are extracted from the string literals the sources actually
# strcmp/strncmp against ("--foo", "--foo="), including the shared sets a
# driver opts into: bench_util.h for bench drivers, and the RuntimeOptions
# flags (src/common/config.cc) for every driver that calls
# RuntimeOptions::from_args (bench_util.h's Options::parse does). The
# first check catches a new flag nobody documented; the second a --help
# that still advertises a flag whose parser is gone.
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
  local parsed flags flag help
  parsed=$(parsed_flags "$@")
  flags=$(comm -23 <(echo "$parsed") <(sort -u <<<"$exempt"))
  # A binary that parses no flag and implements no --help would just run
  # its default workload.
  [[ -z "$flags" ]] && ! grep -q '"--help"' "$@" && return 0
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
  for flag in $(grep -o -- '--[a-z][a-z-]*' <<<"$help" | sort -u); do
    if ! grep -qxF -- "$flag" <<<"$parsed"; then
      echo "FAIL: $bin --help lists '$flag' but its sources never parse it"
      fail=1
    fi
  done
}

config="$repo/src/common/config.cc"

for src in "$repo"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  sources=("$src")
  exempt=
  # Only drivers that run the shared parser accept the shared flags
  # (some binaries include bench_util.h just for print_header etc.).
  if grep -q 'Options::parse' "$src"; then
    sources+=("$repo/bench/bench_util.h" "$config")
    # A campaign=false driver exits 2 on --out, so its --help need not
    # list the RuntimeOptions flags.
    grep -q 'campaign=\*/true' "$src" || exempt=$(parsed_flags "$config")
  fi
  check_binary "bench_$name" "$exempt" "${sources[@]}"
done

# The campaign examples parse RuntimeOptions flags directly.
check_binary example_fault_campaign "" "$repo/examples/fault_campaign.cpp" \
    "$config"
check_binary example_explore_design_space "" \
    "$repo/examples/explore_design_space.cpp" "$config"

if [[ $fail -ne 0 ]]; then
  echo "flag documentation drifted from the parsers (see FAIL lines)" >&2
  exit 1
fi
echo "OK: every parsed flag is in --help, and every --help flag is parsed"

// The Table II benchmark suite, re-implemented as SRV64 assembly kernels.
//
// The paper evaluates randacc and stream (HPCC), bitcount (MiBench) and six
// Parsec benchmarks. Those binaries target ARMv8 under a full OS and are
// not reproducible here, so each is replaced by a kernel with the same
// *characterisation* — the property the paper's figures actually
// discriminate on (memory-bound vs compute-bound, integer vs fp, regular
// vs irregular). Those properties set how fast the load-store log fills
// and how much overlap the out-of-order core finds, which is what the
// figures measure, so a kernel that shares them stands in for the binary.
//
//   randacc       irregular memory-bound: LCG-indexed read-modify-write
//                 over a 2 MiB table (GUPS-style).
//   stream        regular memory-bound: init/scale/add/triad/copy passes
//                 over three 128 KiB double arrays (uses LDP/STP macro-ops).
//   bitcount      pure integer compute: five bit-counting methods over a
//                 16 KiB word array.
//   blackscholes  fp compute: closed-form option pricing with rational
//                 exp/CND approximations (fdiv/fsqrt heavy).
//   fluidanimate  mixed: neighbour-indexed particle updates (indirection +
//                 fp, LDP pairs).
//   swaptions     fp compute: Monte-Carlo path simulation with an integer
//                 LCG driving fp accumulation.
//   freqmine      irregular integer: hash-indexed counting with data-
//                 dependent branches.
//   bodytrack     mixed fp: weighted-residual accumulation over an
//                 observation vector with periodic normalisation.
//   facesim       regular fp: 5-point Jacobi stencil over a 64x64 grid.
//
// Every kernel writes a 64-bit checksum to RESULT_ADDR and HALTs, so both
// the golden interpreter and the full simulator can verify architectural
// equivalence of any run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/assembler.h"

namespace paradet::workloads {

/// All kernels deposit their checksum here before HALT.
inline constexpr Addr kResultAddr = 0x100000;

struct Workload {
  std::string name;
  std::string description;  ///< Table II style provenance note.
  std::string source;       ///< SRV64 assembly text.
  /// Rough dynamic macro-op count at the standard scale (for budgeting).
  std::uint64_t approx_instructions = 0;
};

/// Scale factor: 1.0 is the standard suite (~300-550k dynamic instructions
/// per kernel); smaller values shrink loop counts proportionally for quick
/// test runs.
struct Scale {
  double factor = 1.0;
  std::uint64_t apply(std::uint64_t n) const {
    const auto scaled = static_cast<std::uint64_t>(n * factor);
    return scaled == 0 ? 1 : scaled;
  }
};

Workload make_randacc(Scale scale = {});
Workload make_stream(Scale scale = {});
Workload make_bitcount(Scale scale = {});
Workload make_blackscholes(Scale scale = {});
Workload make_fluidanimate(Scale scale = {});
Workload make_swaptions(Scale scale = {});
Workload make_freqmine(Scale scale = {});
Workload make_bodytrack(Scale scale = {});
Workload make_facesim(Scale scale = {});

/// The full Table II suite in the paper's figure order.
std::vector<Workload> standard_suite(Scale scale = {});

/// Finds a kernel by name at the given scale; returns false if unknown.
bool make_workload(const std::string& name, Scale scale, Workload& out);

/// Assembles a workload, aborting with a diagnostic on assembler errors
/// (workload sources are library-internal; failure is a bug).
isa::Assembled assemble_or_die(const Workload& workload);

}  // namespace paradet::workloads

// Table II: the benchmark suite. Prints each kernel's provenance analogue
// and its measured dynamic properties on the unchecked core.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv);
  bench::print_header(
      "Table II: summary of the benchmarks evaluated",
      "randacc/stream (HPCC), bitcount (MiBench), blackscholes/"
      "fluidanimate/swaptions/freqmine/bodytrack/facesim (Parsec)");

  std::printf("%-14s %12s %8s %9s  %s\n", "benchmark", "instructions", "ipc",
              "mem-frac", "description");
  sim::SimJob base;
  base.config = SystemConfig::standard();
  base.mode = sim::SimMode::kBaseline;
  base.max_instructions = bench::kInstructionBudget;
  // The runs fan out on the worker pool; rows print in suite order once
  // it joins, so stdout is identical at any --jobs.
  const auto kernels = bench::suite_or_fail(options);
  const auto runs = options.runner().map(kernels.size(), [&](std::size_t k) {
    return sim::run_job(base, workloads::assemble_or_die(kernels[k]));
  });
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const sim::RunResult& run = runs[k];
    const double mem_fraction =
        static_cast<double>(run.counters.get("l1d.hits") +
                            run.counters.get("l1d.misses")) /
        static_cast<double>(run.uops);
    std::printf("%-14s %12llu %8.2f %8.1f%%  %s\n", kernels[k].name.c_str(),
                static_cast<unsigned long long>(run.instructions), run.ipc,
                100.0 * mem_fraction, kernels[k].description.c_str());
  }
  return 0;
}

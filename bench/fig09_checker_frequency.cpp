// Figure 9: normalised slowdown when varying the checker-core clock
// frequency (125MHz..2GHz, 12 cores). Paper: memory-bound benchmarks
// (randacc, stream) barely slow down even at 125MHz; compute-bound ones
// (swaptions, bitcount) reach ~4-4.5x below 500MHz because the aggregate
// checker throughput cannot keep up and the main core stalls on log-full.
//
// Runs as one runtime::SweepCampaign over (frequency x workload) cells,
// written to --out like any other campaign; each workload's unchecked
// baseline (the normalisation denominator, independent of the checker
// frequency) runs once outside the artifact, and each kernel is
// assembled exactly once.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 9: slowdown vs checker-core frequency (12 cores)",
      "125MHz: up to ~4.5x for compute-bound, ~1x for memory-bound; "
      "1GHz+: all ~1x");

  const std::uint64_t freqs_mhz[] = {125, 250, 500, 1000, 2000};

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(std::size(freqs_mhz),
                               bench::suite_or_fail(options),
                               /*seed=*/0xF160009);
  sweep.enable_baselines(job.config, bench::kInstructionBudget);

  const auto result = sweep.run(
      options.runner(),
      [&](std::size_t point, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) {
        sim::SimJob cell = job;
        cell.config.checker.freq_mhz = freqs_mhz[point];
        return sim::run_job(cell, image);
      });
  options.write_out(result.artifact);

  runtime::TableSpec spec;
  for (const auto freq : freqs_mhz) {
    spec.columns.push_back(std::to_string(freq) + "MHz");
  }
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.slowdown(p, b);
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}

// Figure 11: mean (a) and maximum (b) detection delay when varying the
// checker-core frequency. Paper: mean delay roughly halves per frequency
// doubling until the segment fill time (set by the main core) becomes the
// limit; maxima are dictated by outliers (cache-miss bursts) and move
// less deterministically.
//
// Runs as one runtime::SweepCampaign over (frequency x workload) cells.
// Delay statistics need no baseline, so no unchecked run is simulated.
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
      "Figure 11: detection delay vs checker frequency (12 cores)",
      "(a) mean ns halves per doubling, flattening at high freq; "
      "(b) max us less deterministic");

  const std::uint64_t freqs_mhz[] = {125, 250, 500, 1000, 2000};
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(std::size(freqs_mhz),
                               bench::suite_or_fail(options),
                               /*seed=*/0xF160011);
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
  spec.mean_row = false;

  std::printf("(a) mean detection delay, ns\n");
  spec.precision = 0;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.cell(p, b).delay_ns.summary().mean();
  });

  std::printf("\n(b) maximum detection delay, us\n");
  spec.precision = 1;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.cell(p, b).delay_ns.summary().max() / 1000.0;
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}

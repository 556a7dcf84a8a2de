// Ablation studies for four design choices of the model:
//   A1. load forwarding unit on/off  -> §IV-C window of vulnerability
//       (coverage, not performance).
//   A2. L2 stride prefetcher on/off  -> memory-bound baseline IPC.
//   A3. perfect vs conservative memory disambiguation -> MLP on
//       irregular workloads.
//   A4. checkpoint latency sensitivity (8/16/32 cycles) -> fig. 7's
//       overhead driver.
//
// All eighteen simulations across the four studies are independent, so
// they run as one flat runtime::SweepCampaign: each cell names its kernel
// (assembled once through the runtime AssemblyCache, shared between
// studies) and its SimJob, the campaign shards across processes
// (--shard=K/N --out=...) and checkpoints/restarts, and the report is
// printed from the per-cell slots afterwards — cells owned by another
// shard print "-" and merge back via the artifact files.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

using paradet::sim::RunResult;

/// Formats a cell's main-core cycle count, "-" when another shard owns it.
std::string cycles_or_dash(const RunResult* run) {
  return run == nullptr
             ? "-"
             : std::to_string(
                   static_cast<unsigned long long>(run->main_done_cycle));
}

/// Formats the cycle ratio numer/denom, "-" unless this shard owns both.
std::string ratio_or_dash(const RunResult* numer, const RunResult* denom) {
  if (numer == nullptr || denom == nullptr) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f",
                static_cast<double>(numer->main_done_cycle) /
                    static_cast<double>(denom->main_done_cycle));
  return buffer;
}

int run(int argc, char** argv) {
  using namespace paradet;
  auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  const CheckerExec checker = options.checker_exec();
  if (!options.only.empty()) {
    // The studies hard-wire their kernel pairings; silently ignoring the
    // filter would report all 18 runs as if it had applied.
    std::fprintf(stderr,
                 "--benchmark is not supported: the ablation studies run a "
                 "fixed kernel set\n");
    return 2;
  }
  bench::print_header("Ablations: LFU, prefetcher, disambiguation, "
                      "checkpoint latency",
                      "design-choice sensitivity (no direct paper figure)");

  // The workload axis: every distinct (kernel, scale) the studies touch.
  // Deduplicated so studies sharing a kernel (A2 and A4 both run facesim)
  // share one axis entry and therefore one assembled image.
  std::vector<workloads::Workload> kernels;
  std::vector<std::pair<std::string, double>> kernel_keys;
  const auto add_kernel = [&](const char* name, double scale) {
    for (std::size_t k = 0; k < kernel_keys.size(); ++k) {
      if (kernel_keys[k].first == name && kernel_keys[k].second == scale) {
        return k;
      }
    }
    workloads::Workload workload;
    workloads::make_workload(name, workloads::Scale{scale}, workload);
    kernels.push_back(std::move(workload));
    kernel_keys.emplace_back(name, scale);
    return kernels.size() - 1;
  };

  // One cell per simulation: its job, its kernel, and (for A1) the
  // deterministic post-LFU load strike.
  struct Cell {
    sim::SimJob job;
    std::size_t kernel;
    bool lfu_fault = false;
  };
  std::vector<Cell> cells;
  const auto add_cell = [&](const SystemConfig& config, sim::SimMode mode,
                            std::size_t kernel, bool lfu_fault = false) {
    sim::SimJob job;
    job.config = config;
    job.mode = mode;
    job.max_instructions = bench::kInstructionBudget;
    job.checker = checker;
    cells.push_back(Cell{job, kernel, lfu_fault});
    return cells.size() - 1;
  };
  constexpr sim::SimMode kBaseline = sim::SimMode::kBaseline;
  constexpr sim::SimMode kChecked = sim::SimMode::kChecked;

  // ---- A1: LFU coverage — a post-LFU load corruption must be caught with
  // the LFU and slips through without it (window of vulnerability).
  SystemConfig with_lfu = SystemConfig::standard();
  SystemConfig without_lfu = with_lfu;
  without_lfu.detection.load_forwarding_unit = false;
  const auto a1_kernel = add_kernel("randacc", 0.2 * options.scale);
  const auto a1_protected =
      add_cell(with_lfu, kChecked, a1_kernel, /*lfu_fault=*/true);
  const auto a1_naive =
      add_cell(without_lfu, kChecked, a1_kernel, /*lfu_fault=*/true);

  // ---- A2: prefetcher on/off over three kernels (baseline, no detection).
  const char* a2_kernels[] = {"stream", "facesim", "randacc"};
  std::vector<std::pair<std::size_t, std::size_t>> a2_runs;
  for (const char* name : a2_kernels) {
    const SystemConfig on = SystemConfig::standard();
    SystemConfig off = on;
    off.l2_stride_prefetcher = false;
    const auto kernel = add_kernel(name, options.scale);
    a2_runs.emplace_back(add_cell(on, kBaseline, kernel),
                         add_cell(off, kBaseline, kernel));
  }

  // ---- A3: store-set vs conservative memory disambiguation.
  const char* a3_kernels[] = {"randacc", "freqmine"};
  std::vector<std::pair<std::size_t, std::size_t>> a3_runs;
  for (const char* name : a3_kernels) {
    const SystemConfig fast = SystemConfig::standard();
    SystemConfig slow = fast;
    slow.main_core.perfect_memory_disambiguation = false;
    const auto kernel = add_kernel(name, options.scale);
    a3_runs.emplace_back(add_cell(fast, kBaseline, kernel),
                         add_cell(slow, kBaseline, kernel));
  }

  // ---- A4: checkpoint latency sweep on facesim, checked vs unchecked.
  const unsigned a4_latencies[] = {0u, 8u, 16u, 32u, 64u};
  const auto a4_kernel = add_kernel("facesim", options.scale);
  const auto a4_baseline =
      add_cell(SystemConfig::standard(), kBaseline, a4_kernel);
  std::vector<std::size_t> a4_runs;
  for (const unsigned latency : a4_latencies) {
    SystemConfig config = SystemConfig::standard();
    config.main_core.checkpoint_latency_cycles = latency;
    a4_runs.push_back(add_cell(config, kChecked, a4_kernel));
  }

  // Execute everything as one flat campaign, then report in study order.
  std::vector<std::size_t> cell_kernels;
  cell_kernels.reserve(cells.size());
  for (const Cell& cell : cells) cell_kernels.push_back(cell.kernel);
  auto sweep = runtime::SweepCampaign::flat(std::move(cell_kernels),
                                            std::move(kernels),
                                            /*seed=*/0xAB1A7105);
  const auto result = sweep.run(
      options.runner(), options.campaign_options(),
      [&](std::size_t index, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) {
        const Cell& cell = cells[index];
        sim::SimJob job = cell.job;
        core::FaultInjector faults;
        if (cell.lfu_fault) {
          core::FaultSpec spec;
          spec.site = core::FaultSite::kMainLoadValuePostLfu;
          spec.at_seq = 20000;
          spec.bit = 7;
          faults.add(spec);
          job.faults = &faults;
        }
        return sim::run_job(job, image);
      });
  const auto cell_result = [&](std::size_t index) {
    return result.cell_at(index);
  };

  const RunResult* a1_with = cell_result(a1_protected);
  const RunResult* a1_without = cell_result(a1_naive);
  std::printf("[A1] post-LFU load corruption: with LFU detected=%s, "
              "without LFU detected=%s (window of vulnerability)\n",
              a1_with == nullptr ? "-"
                                 : (a1_with->error_detected ? "yes" : "NO"),
              a1_without == nullptr
                  ? "-"
                  : (a1_without->error_detected ? "yes" : "no"));

  std::printf("[A2] L2 stride prefetcher (baseline cycles, no detection)\n");
  std::printf("     %-14s %12s %12s %8s\n", "benchmark", "on", "off",
              "speedup");
  for (std::size_t k = 0; k < a2_runs.size(); ++k) {
    const RunResult* run_on = cell_result(a2_runs[k].first);
    const RunResult* run_off = cell_result(a2_runs[k].second);
    std::printf("     %-14s %12s %12s %8s\n", a2_kernels[k],
                cycles_or_dash(run_on).c_str(),
                cycles_or_dash(run_off).c_str(),
                ratio_or_dash(run_off, run_on).c_str());
  }

  std::printf("[A3] memory disambiguation (baseline cycles)\n");
  std::printf("     %-14s %12s %14s %8s\n", "benchmark", "store-set",
              "conservative", "cost");
  for (std::size_t k = 0; k < a3_runs.size(); ++k) {
    const RunResult* run_fast = cell_result(a3_runs[k].first);
    const RunResult* run_slow = cell_result(a3_runs[k].second);
    std::printf("     %-14s %12s %14s %8s\n", a3_kernels[k],
                cycles_or_dash(run_fast).c_str(),
                cycles_or_dash(run_slow).c_str(),
                ratio_or_dash(run_slow, run_fast).c_str());
  }

  std::printf("[A4] checkpoint latency sensitivity (checked slowdown, "
              "facesim)\n");
  const RunResult* a4_base = cell_result(a4_baseline);
  for (std::size_t k = 0; k < a4_runs.size(); ++k) {
    std::printf("     %2u cycles: slowdown %s\n", a4_latencies[k],
                ratio_or_dash(cell_result(a4_runs[k]), a4_base).c_str());
  }
  bench::print_shard_note(result.artifact);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}

// Design-space exploration example: the §IV-E trade-off between detection
// latency and overhead, explored with the public API the way an SoC
// architect sizing the scheme for a new chip would.
//
// Sweeps (a) the number of checker cores at fixed aggregate GHz and
// (b) the log size at fixed core count, reporting slowdown, mean/max
// detection delay and the area cost of each point; then prints the
// "cheapest configuration meeting a 2 us mean-delay, 2% slowdown budget".
// The sweep runs as one runtime::SweepCampaign (one workload, one cell
// per design point), so it fans out on the worker pool (`--jobs=N`) and
// writes `--out=artifact.json` exactly like the figure reproductions.
#include <cstdio>
#include <cstring>
#include <exception>
#include <vector>

#include "model/area_power.h"
#include "runtime/checker_pool.h"
#include "runtime/serialize.h"
#include "runtime/sweep_campaign.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace {

constexpr std::uint64_t kBudget = 2'000'000;

struct SweepSpec {
  unsigned cores;
  std::uint64_t freq_mhz;
  std::uint64_t log_bytes;
};

int run(int argc, char** argv) {
  using namespace paradet;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 ||
        std::strcmp(argv[i], "-j") == 0) {
      ++i;  // skip the flag's value; RuntimeOptions consumes it.
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--jobs=N] [--checker-threads=N]"
                  " [--out=artifact.json]\n",
                  argv[0]);
      return 0;
    } else if (!runtime_flag(argv[i])) {
      // A misspelled or removed flag must not silently run the defaults.
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n", argv[i]);
      return 2;
    }
  }
  const RuntimeOptions host =
      RuntimeOptions::from_args(argc, argv, /*campaign_flags=*/true);
  const runtime::ParallelRunner runner(host.jobs);
  const CheckerExec checker =
      runtime::CheckerPool::bounded(host.checker_threads, host.jobs);
  const auto workload =
      workloads::make_facesim(workloads::Scale{.factor = 0.4});

  // (a) cores x frequency at constant aggregate 12 core-GHz, then
  // (b) log size at the default 12 cores @ 1 GHz.
  std::vector<SweepSpec> specs = {
      {3, 4000, 36 * 1024},
      {6, 2000, 36 * 1024},
      {12, 1000, 36 * 1024},
      {24, 500, 36 * 1024},
  };
  const std::size_t log_sweep_begin = specs.size();
  for (const std::uint64_t kib : {9ull, 18ull, 36ull, 72ull, 144ull}) {
    specs.push_back({12, 1000, kib * 1024});
  }

  const auto config_for = [&](std::size_t i) {
    SystemConfig config = SystemConfig::standard();
    config.checker.num_cores = specs[i].cores;
    config.checker.freq_mhz = specs[i].freq_mhz;
    config.log.segments = specs[i].cores;
    config.log.total_bytes = specs[i].log_bytes;
    return config;
  };

  runtime::SweepCampaign sweep(specs.size(), {workload}, /*seed=*/0xDE5160);
  sweep.enable_baselines(SystemConfig::standard(), kBudget);
  const auto result = sweep.run(
      runner, [&](std::size_t point, std::size_t,
                  const runtime::AssemblyCache::Image& image, std::uint64_t) {
        sim::SimJob job;
        job.config = config_for(point);
        job.mode = sim::SimMode::kChecked;
        job.max_instructions = kBudget;
        job.checker = checker;
        return sim::run_job(job, image);
      });
  if (!host.out_path.empty()) {
    runtime::write_artifact_file(host.out_path, result.artifact);
  }

  const sim::RunResult& baseline = result.baselines[0];
  std::printf("design-space sweep on %s (%u workers)\n",
              workload.name.c_str(), runner.jobs());
  std::printf("baseline: %llu cycles\n\n",
              static_cast<unsigned long long>(baseline.main_done_cycle));

  struct Point {
    SweepSpec spec;
    double slowdown = 0.0;
    double mean_delay_ns = 0.0;
    double max_delay_us = 0.0;
    double area_mm2 = 0.0;
  };
  std::vector<Point> points(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    points[i].spec = specs[i];
    const sim::RunResult& cell = result.cell(i, 0);
    points[i].slowdown = static_cast<double>(cell.main_done_cycle) /
                         static_cast<double>(baseline.main_done_cycle);
    points[i].mean_delay_ns = cell.delay_ns.summary().mean();
    points[i].max_delay_us = cell.delay_ns.summary().max() / 1000.0;
    points[i].area_mm2 = model::estimate_area(config_for(i)).detection_mm2();
  }

  std::printf("%6s %8s %8s %9s %12s %11s %9s\n", "cores", "MHz", "logKiB",
              "slowdown", "mean_ns", "max_us", "mm2");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == 0) {
      std::printf("-- constant aggregate throughput (12 core-GHz) --\n");
    } else if (i == log_sweep_begin) {
      std::printf("-- log size sweep (12 cores @ 1 GHz) --\n");
    }
    const Point& point = points[i];
    std::printf("%6u %8llu %8llu %9.4f %12.0f %11.1f %9.3f\n",
                point.spec.cores,
                static_cast<unsigned long long>(point.spec.freq_mhz),
                static_cast<unsigned long long>(point.spec.log_bytes / 1024),
                point.slowdown, point.mean_delay_ns, point.max_delay_us,
                point.area_mm2);
  }

  // Pick the cheapest point meeting the latency/overhead budget.
  const Point* best = nullptr;
  for (const auto& point : points) {
    if (point.slowdown > 1.02 || point.mean_delay_ns > 2000.0) continue;
    if (best == nullptr || point.area_mm2 < best->area_mm2) best = &point;
  }
  if (best != nullptr) {
    std::printf("\ncheapest point meeting <=2%% slowdown and <=2us mean "
                "delay:\n  %u cores @ %llu MHz, %llu KiB log  "
                "(%.3f mm^2, slowdown %.4f, mean %.0f ns)\n",
                best->spec.cores,
                static_cast<unsigned long long>(best->spec.freq_mhz),
                static_cast<unsigned long long>(best->spec.log_bytes / 1024),
                best->area_mm2, best->slowdown, best->mean_delay_ns);
  } else {
    std::printf("\nno swept point met the budget\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // An unwritable --out path should end as a readable error, not
    // std::terminate.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}

// The untimed-set-up, timed-loop half of the benchmark: the three
// end-to-end workloads. Tracing stays off here; the per-layer numbers come
// from the separate traced run (layers.cc).
//
// Every timed run is bracketed by host-speed probes (bench.h host_speed)
// and the contract metrics are computed in reference-host time; the report
// line carries the same figures in plain wall-clock time under "wall.".
#include <algorithm>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "runtime/checker_pool.h"
#include "runtime/serialize.h"

namespace perfbench {

namespace {

/// Fewest closed-loop passes (suites) and strikes (campaign) a run makes,
/// whatever --seconds says: enough for medians and a p90 with ten samples
/// beyond it.
constexpr std::size_t kMinPasses = 3;
constexpr std::uint64_t kMinStrikes = 100;
/// Strikes per throughput sample in the campaign.
constexpr std::uint64_t kStrikeBatch = 32;
/// Strikes between two host-speed probes.
constexpr std::uint64_t kStrikesPerProbe = 8;
/// Untimed strikes before the campaign's timed loop.
constexpr std::uint64_t kWarmUpStrikes = 8;

/// The paper's checked-over-unchecked slowdown (bench/fig07_slowdown.cpp),
/// printed beside sim_slowdown_pct for reference only: the timing model is
/// not validated against hardware.
constexpr double kPaperSlowdownMeanPct = 1.75;
constexpr double kPaperSlowdownMaxPct = 3.4;

double mips(std::uint64_t instructions, double seconds) {
  return seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0;
}

/// Per-pass throughput samples and per-run latencies of a suite workload,
/// in wall-clock or in reference-host time.
struct SuiteSamples {
  std::vector<double> checked_mips, baseline_mips, runs_per_s, run_ms;
  /// Mean checked run time of each pass.
  std::vector<double> pass_run_ms;

  void add(const SuiteRunner::Pass& pass, bool reference) {
    double checked_s = 0, baseline_s = 0;
    std::uint64_t checked_insts = 0, baseline_insts = 0;
    std::size_t checked_runs = 0;
    for (const SuiteRunner::Run& run : pass) {
      const double seconds = run.seconds * (reference ? run.speed : 1.0);
      if (run.baseline) {
        baseline_s += seconds;
        baseline_insts += run.instructions;
      } else {
        checked_s += seconds;
        checked_insts += run.instructions;
        ++checked_runs;
        run_ms.push_back(seconds * 1e3);
      }
    }
    pass_run_ms.push_back(checked_s * 1e3 / static_cast<double>(checked_runs));
    checked_mips.push_back(mips(checked_insts, checked_s));
    if (baseline_insts > 0) baseline_mips.push_back(mips(baseline_insts, baseline_s));
    runs_per_s.push_back(static_cast<double>(pass.size()) /
                         (checked_s + baseline_s));
  }
};

/// Per-batch throughput samples and per-strike latencies of the campaign.
struct StrikeSamples {
  std::vector<double> strike_ms, batch_rate, batch_mips;
  double batch_s = 0;
  std::uint64_t batch_insts = 0, batch_strikes = 0;

  void add(double seconds, std::uint64_t tail_instructions) {
    strike_ms.push_back(seconds * 1e3);
    batch_s += seconds;
    batch_insts += tail_instructions;
    if (++batch_strikes == kStrikeBatch) {
      batch_rate.push_back(static_cast<double>(kStrikeBatch) / batch_s);
      batch_mips.push_back(mips(batch_insts, batch_s));
      batch_s = 0;
      batch_insts = 0;
      batch_strikes = 0;
    }
  }
};

/// The end-to-end contract metrics, in the order BENCHMARK.json lists them.
void add_contract(Metrics& metrics, double throughput_mips, double runs_per_s,
                  double run_ms_p50, const SetupTime& setup, double rss) {
  metrics.add("checked_mips", throughput_mips, "MIPS");
  metrics.add("runs_per_s", runs_per_s, "runs/s");
  metrics.add("run_ms_p50", run_ms_p50, "ms");
  metrics.add("setup_s", setup.reference_s, "s");
  metrics.add("peak_rss_mb", rss, "MB");
}

}  // namespace

SuiteRunner::SuiteRunner(std::vector<Kernel> kernels, bool parallel,
                         std::uint64_t seed)
    : kernels_(std::move(kernels)), parallel_(parallel) {
  if (parallel_ && pd::runtime::CheckerPool::bounded(kParallelWorkers, 1) <
                       kParallelWorkers) {
    throw Refusal(
        "suite-parallel needs " + std::to_string(kParallelWorkers) +
        " replay workers beside the producer and absorber, but this host "
        "grants fewer (runtime::CheckerPool::bounded); the parallel number "
        "would silently be inline replay");
  }
  // The seed only permutes the kernel order of a pass; the kernels
  // themselves are deterministic.
  order_.resize(kernels_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  pd::SplitMix64 rng(seed);
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng.next_below(i)]);
  }
  baseline_job_.config = pd::SystemConfig::standard();
  baseline_job_.mode = pd::sim::SimMode::kBaseline;
  baseline_job_.max_instructions = kBudget;
  checked_job_ = baseline_job_;
  checked_job_.mode = pd::sim::SimMode::kChecked;
  if (parallel_) checked_job_.checker = pd::CheckerExec(kParallelWorkers);
}

void SuiteRunner::warm_up(Tally& tally) {
  baseline_cycles_.assign(kernels_.size(), 0);
  checked_cycles_.assign(kernels_.size(), 0);
  inline_bytes_.assign(kernels_.size(), {});
  pd::sim::SimJob inline_job = checked_job_;
  inline_job.checker = pd::CheckerExec();
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const Kernel& kernel = kernels_[i];
    const std::string& name = kernel.workload.name;
    if (!parallel_) {
      const pd::sim::RunResult baseline =
          pd::sim::run_job(baseline_job_, kernel.image);
      tally.check(matches_golden(baseline, kernel.golden),
                  name + ": unchecked run differs from the golden run");
      baseline_cycles_[i] = baseline.main_done_cycle;
    }
    const pd::sim::RunResult checked = pd::sim::run_job(inline_job, kernel.image);
    tally.check(!checked.error_detected && matches_golden(checked, kernel.golden),
                name + ": checked run differs from the golden run");
    checked_cycles_[i] = checked.main_done_cycle;
    inline_bytes_[i] = pd::runtime::to_json(checked);
  }
  if (parallel_) pass(tally, nullptr, 0);  // warms the pool paths too.
}

SuiteRunner::Pass SuiteRunner::pass(Tally& tally, SpanLog* spans,
                                    std::uint64_t index) {
  Pass out;
  // Probe with as many threads as the mode keeps busy.
  const unsigned probe_threads = parallel_ ? kParallelWorkers + 2 : 1;
  double speed_before = host_speed(probe_threads);
  for (const std::size_t k : order_) {
    const Kernel& kernel = kernels_[k];
    const std::string& name = kernel.workload.name;
    const std::size_t first_run = out.size();
    // Interleaved modes, the first of the pair alternating per pass, so
    // neither mode is systematically the colder one.
    for (int slot = 0; slot < (parallel_ ? 1 : 2); ++slot) {
      const bool baseline = !parallel_ && (slot == 0) == (index % 2 == 0);
      const auto start = Clock::now();
      const pd::sim::RunResult result = pd::sim::run_job(
          baseline ? baseline_job_ : checked_job_, kernel.image);
      const auto stop = Clock::now();
      if (spans != nullptr) {
        spans->add(baseline ? "run_job.baseline" : "run_job.checked", name,
                   index, start, stop);
      }
      out.push_back({baseline, seconds_between(start, stop), 0,
                     result.instructions});
      bool ok = false;
      if (baseline) {
        ok = matches_golden(result, kernel.golden) &&
             result.main_done_cycle == baseline_cycles_[k];
      } else if (parallel_) {
        ok = pd::runtime::to_json(result) == inline_bytes_[k];
      } else {
        ok = !result.error_detected && matches_golden(result, kernel.golden) &&
             result.main_done_cycle == checked_cycles_[k];
      }
      tally.check(ok, name + (baseline    ? ": unchecked run differs from "
                                            "the reference"
                              : parallel_ ? ": parallel run is not "
                                            "byte-identical to inline replay"
                                          : ": checked run differs from the "
                                            "reference"));
    }
    const double speed_after = host_speed(probe_threads);
    for (std::size_t r = first_run; r < out.size(); ++r) {
      out[r].speed = (speed_before + speed_after) / 2;
    }
    speed_before = speed_after;
  }
  return out;
}

double SuiteRunner::sim_slowdown_pct() const {
  if (parallel_ || kernels_.empty()) return 0;
  double sum = 0;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    sum += static_cast<double>(checked_cycles_[i]) /
           static_cast<double>(baseline_cycles_[i]);
  }
  return (sum / static_cast<double>(kernels_.size()) - 1) * 100;
}

void run_suite(const Options& options, bool parallel, Output& out) {
  std::vector<Kernel> kernels;
  const SetupTime setup = median_setup_seconds(
      [&] { kernels = set_up_kernels(suite_workloads(false)); });
  SuiteRunner suite(std::move(kernels), parallel, options.seed);
  suite.warm_up(out.tally);

  SuiteSamples reference, wall;
  std::vector<double> speeds;
  const auto start = Clock::now();
  for (std::uint64_t index = 1;
       seconds_since(start) < options.seconds || index <= kMinPasses;
       ++index) {
    const SuiteRunner::Pass pass = suite.pass(out.tally, nullptr, index);
    reference.add(pass, true);
    wall.add(pass, false);
    for (const SuiteRunner::Run& run : pass) speeds.push_back(run.speed);
  }
  const double rss = peak_rss_mb();

  // Run times cluster by kernel, so any percentile over single runs jumps
  // between clusters from run to run; the suites' run_ms_p50 is the median
  // over passes of the pass's mean checked run time instead.
  add_contract(out.metrics, quantile(reference.checked_mips, 0.5),
               quantile(reference.runs_per_s, 0.5),
               quantile(reference.pass_run_ms, 0.5), setup, rss);

  Metrics& report = out.report;
  const char* mode_mips = parallel ? "parallel_mips" : "checked_mips";
  for (const bool in_reference : {true, false}) {
    const SuiteSamples& s = in_reference ? reference : wall;
    const std::string prefix = in_reference ? "" : "wall.";
    if (!parallel) {
      report.add_quartiles(prefix + "baseline_mips", quartiles(s.baseline_mips),
                           "MIPS");
    }
    report.add_quartiles(prefix + mode_mips, quartiles(s.checked_mips), "MIPS");
    report.add_quartiles(prefix + "runs_per_s", quartiles(s.runs_per_s),
                         "runs/s");
    report.add(prefix + "run_ms_p50", quantile(s.run_ms, 0.5), "ms");
    report.add(prefix + "run_ms_p90", quantile(s.run_ms, 0.9), "ms");
    report.add(prefix + "run_ms_p95", quantile(s.run_ms, 0.95), "ms");
  }
  if (!parallel) {
    report.add("sim_slowdown_pct", suite.sim_slowdown_pct(), "%");
    report.add("sim_slowdown_pct.paper_mean", kPaperSlowdownMeanPct, "%");
    report.add("sim_slowdown_pct.paper_max", kPaperSlowdownMaxPct, "%");
  }
  report.add_quartiles("host_speed", quartiles(speeds), "x");
  report.add("passes", static_cast<double>(reference.checked_mips.size()),
             "count");
  report.add("checker_threads", parallel ? kParallelWorkers : 0, "count");
  report.add("host_threads", parallel ? kParallelWorkers + 2 : 1, "count");
  report.add("setup_s", setup.reference_s, "s");
  report.add("wall.setup_s", setup.wall_s, "s");
  report.add("peak_rss_mb", rss, "MB");
}

void run_campaign(const Options& options, Output& out) {
  std::vector<Kernel> kernels;
  CampaignTarget target;
  const SetupTime setup = median_setup_seconds([&] {
    kernels = set_up_kernels(suite_workloads(true));
    target = set_up_campaign(kernels.front());
  });
  // Warm-up strikes come from a range of k the timed loop never reaches.
  for (std::uint64_t k = 0; k < kWarmUpStrikes; ++k) {
    run_strike(target, plan_strike(target, options.seed, (1ULL << 40) + k),
               out.tally);
  }

  StrikeSamples reference, wall;
  std::vector<double> speeds;
  std::uint64_t verdicts[3] = {0, 0, 0};
  std::vector<StrikeOutcome> group;
  double speed_before = host_speed();
  const auto start = Clock::now();
  for (std::uint64_t k = 0; seconds_since(start) < options.seconds ||
                            k < kMinStrikes || !group.empty();
       ++k) {
    group.push_back(
        run_strike(target, plan_strike(target, options.seed, k), out.tally));
    if (group.size() < kStrikesPerProbe) continue;
    const double speed_after = host_speed();
    const double speed = (speed_before + speed_after) / 2;
    for (const StrikeOutcome& strike : group) {
      reference.add(strike.seconds * speed, strike.tail_instructions);
      wall.add(strike.seconds, strike.tail_instructions);
      ++verdicts[static_cast<unsigned>(strike.verdict)];
    }
    speeds.push_back(speed);
    group.clear();
    speed_before = speed_after;
  }
  const double rss = peak_rss_mb();

  add_contract(out.metrics, quantile(reference.batch_mips, 0.5),
               quantile(reference.batch_rate, 0.5),
               quantile(reference.strike_ms, 0.5), setup, rss);

  Metrics& report = out.report;
  for (const bool in_reference : {true, false}) {
    const StrikeSamples& s = in_reference ? reference : wall;
    const std::string prefix = in_reference ? "" : "wall.";
    const double p90 = quantile(s.strike_ms, 0.9);
    report.add_quartiles(prefix + "coverage_runs_per_s",
                         quartiles(s.batch_rate), "runs/s");
    report.add_quartiles(prefix + "tail_mips", quartiles(s.batch_mips),
                         "MIPS");
    report.add(prefix + "tail_ms_p50", quantile(s.strike_ms, 0.5), "ms");
    report.add(prefix + "tail_ms_p90", p90, "ms");
    report.add(prefix + "tail_ms_p95", quantile(s.strike_ms, 0.95), "ms");
    report.add(prefix + "tail_ms_p90.beyond",
               static_cast<double>(std::count_if(
                   s.strike_ms.begin(), s.strike_ms.end(),
                   [&](double ms) { return ms > p90; })),
               "count");
  }
  report.add("strikes", static_cast<double>(reference.strike_ms.size()),
             "count");
  report.add("verdict.detected", static_cast<double>(verdicts[0]), "count");
  report.add("verdict.masked", static_cast<double>(verdicts[1]), "count");
  report.add("verdict.silent", static_cast<double>(verdicts[2]), "count");
  report.add("clean_uops", static_cast<double>(target.clean.uops), "count");
  report.add("warm_uops", static_cast<double>(target.warm->uops), "count");
  report.add_quartiles("host_speed", quartiles(speeds), "x");
  report.add("host_threads", 1, "count");
  report.add("setup_s", setup.reference_s, "s");
  report.add("wall.setup_s", setup.wall_s, "s");
  report.add("peak_rss_mb", rss, "MB");
}

}  // namespace perfbench

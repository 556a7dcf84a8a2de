// Shared pieces of the perfbench binary: host timing, sample statistics,
// the golden-interpreter reference every timed run is checked against, the
// fault-campaign strike plan, span recording for the traced run, and the
// metric sink both output lines are printed from.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/interpreter.h"
#include "core/fault_injection.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace pd = paradet;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Instruction budget of every simulation (the figure benches' budget).
inline constexpr std::uint64_t kBudget = 4'000'000;
/// Replay workers of the parallel mode: with the producer and the absorber
/// that makes four threads, the size of the host this was calibrated on.
inline constexpr unsigned kParallelWorkers = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr unsigned kSetupRepeats = 7;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;  ///< traced run: where the spans are written.
};

// --- Statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  std::size_t samples = 0;
};
Quartiles quartiles(const std::vector<double>& values);

/// Peak resident set size of this process, MB (getrusage high-water mark).
double peak_rss_mb();

/// This host's speed right now relative to the reference host: the time a
/// fixed probe workload took there divided by the time it takes now (1.0
/// on the reference host, 0.5 when everything runs at half speed). The
/// probe is a miniature interpreter owned by the benchmark and shares no
/// code with the simulator. Host seconds multiplied by it are
/// reference-host seconds: shared hosts drift by tens of percent within
/// minutes, and the end-to-end metrics are reported in reference-host
/// time so that runs made at different moments compare. With `threads` > 1
/// the probe runs on that many threads at once and their mean time counts:
/// the host's speed for a workload that keeps that many threads busy.
double host_speed(unsigned threads = 1);

// --- Metric sink ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds `name` (the median) plus `name.q1`, `name.q3` and
  /// `name.samples`.
  void add_quartiles(const std::string& name, const Quartiles& q,
                     const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

/// Shortest round-trip decimal of `value` (JSON has no inf/nan: those
/// print as 0).
std::string json_number(double value);
std::string json_string(const std::string& text);

// --- Correctness ------------------------------------------------------------

/// Counts runs checked and runs that failed a check; the first few
/// failures are described on stderr.
class Tally {
 public:
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything one run reports: the contract metrics (end-to-end, or
/// per-layer when traced), the fuller report printed before them, and the
/// correctness tally.
struct Output {
  Metrics metrics;
  Metrics report;
  Tally tally;
};

/// Thrown for a set-up the benchmark refuses to measure (it would print
/// misleading numbers); main exits non-zero with the message.
struct Refusal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What the golden interpreter computes for a kernel: the reference every
/// simulated run must reproduce.
struct Golden {
  pd::arch::ArchState state;
  pd::arch::Trap trap = pd::arch::Trap::kNone;
  std::uint64_t instructions = 0;  ///< including the trapping one.
  std::uint64_t mem_digest = 0;
};

/// True when `result` ends in the golden state: registers, pc, exit trap,
/// instruction count and final-memory digest.
bool matches_golden(const pd::sim::RunResult& result, const Golden& golden);

struct Kernel {
  pd::workloads::Workload workload;
  pd::sim::AssembledImage image;
  Golden golden;
};

/// The Table II suite, or only randacc (the campaign kernel).
std::vector<pd::workloads::Workload> suite_workloads(bool randacc_only);

/// Set-up of a suite: assembles every workload through a fresh assembly
/// cache (assembly + predecode), loads it (per-image statics) and runs the
/// golden interpreter over it.
std::vector<Kernel> set_up_kernels(
    const std::vector<pd::workloads::Workload>& workloads);

struct SetupTime {
  double wall_s = 0;       ///< median host seconds.
  double reference_s = 0;  ///< median reference-host seconds.
};

/// Runs `body` kSetupRepeats times, probing the host speed around each.
template <typename Body>
SetupTime median_setup_seconds(Body&& body) {
  std::vector<double> wall, reference;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    const double speed_before = host_speed();
    const auto start = Clock::now();
    body();
    const double seconds = seconds_since(start);
    wall.push_back(seconds);
    reference.push_back(seconds * (speed_before + host_speed()) / 2);
  }
  return {quantile(wall, 0.5), quantile(reference, 0.5)};
}

// --- Fault campaign ---------------------------------------------------------

/// A warm campaign on one kernel: the clean reference, the warm state at
/// 85% of the clean micro-ops, and the trigger windows (the last 15% of
/// micro-ops, checkpoints and segments) every strike is drawn from.
struct CampaignTarget {
  pd::sim::SimJob job;
  pd::sim::AssembledImage image;
  pd::sim::RunResult clean;
  std::unique_ptr<pd::sim::WarmState> warm;
  std::uint64_t capture_uops = 0;  ///< prefix length asked of the capture.
  std::uint64_t uop_lo = 0, uop_hi = 0;
  std::uint64_t checkpoint_lo = 0, checkpoint_hi = 0;
  std::uint64_t segment_lo = 0, segment_hi = 0;
};

/// One clean run_job, then one capture_warm_state at 85% of the clean
/// micro-ops. Throws when the clean run is wrong or the capture fails.
CampaignTarget set_up_campaign(const Kernel& kernel);

/// Strike `k` of the plan seeded with `seed`. Sites cycle through the seven
/// in-sphere FaultSites; trigger positions are stratified over the tail
/// window in bit-reversed stratum order, so any run of consecutive strikes
/// covers the window evenly and the mean tail length barely depends on the
/// seed or on how many strikes a run completes.
pd::core::FaultSpec plan_strike(const CampaignTarget& target,
                                std::uint64_t seed, std::uint64_t k);

struct StrikeOutcome {
  double seconds = 0;  ///< fork + tail + classify.
  std::uint64_t tail_instructions = 0;
  pd::sim::FaultVerdict verdict = pd::sim::FaultVerdict::kMasked;
};

/// Forks one strike off the warm state and classifies it. A strike that is
/// not tail-safe or is classified silent counts as a failure.
StrikeOutcome run_strike(const CampaignTarget& target,
                         const pd::core::FaultSpec& spec, Tally& tally);

// --- Spans ------------------------------------------------------------------

/// Spans of the traced run, kept in memory and written out at the end as
/// Chrome trace-event JSON (loads in Perfetto). Spans of one kernel in one
/// round share an id.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  void add(const char* name, const std::string& kernel, std::uint64_t id,
           Clock::time_point start, Clock::time_point stop);
  /// Writes the spans to `path`; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::string kernel;
    std::uint64_t id;
    double start_us;
    double duration_us;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Workloads --------------------------------------------------------------

/// One closed-loop pass over a suite: every kernel once per mode the
/// workload runs (suite-inline: unchecked then checked with inline replay,
/// the order alternating per pass; suite-parallel: checked with
/// kParallelWorkers replay workers). Every run is checked.
class SuiteRunner {
 public:
  struct Run {
    bool baseline = false;
    double seconds = 0;  ///< host seconds.
    double speed = 0;    ///< host_speed() around the run.
    std::uint64_t instructions = 0;
  };
  using Pass = std::vector<Run>;

  /// Throws Refusal when `parallel` and the host cannot run
  /// kParallelWorkers replay workers beside the producer.
  SuiteRunner(std::vector<Kernel> kernels, bool parallel, std::uint64_t seed);

  /// Untimed pass that records the references later passes are checked
  /// against (main_done_cycle per mode; the inline run's bytes).
  void warm_up(Tally& tally);
  Pass pass(Tally& tally, SpanLog* spans, std::uint64_t index);
  /// Mean checked / unchecked main_done_cycle - 1, percent (inline only).
  double sim_slowdown_pct() const;

 private:
  std::vector<Kernel> kernels_;
  bool parallel_;
  std::vector<std::size_t> order_;
  pd::sim::SimJob baseline_job_;
  pd::sim::SimJob checked_job_;
  std::vector<pd::Cycle> baseline_cycles_;
  std::vector<pd::Cycle> checked_cycles_;
  std::vector<std::string> inline_bytes_;
};

void run_suite(const Options& options, bool parallel, Output& out);
void run_campaign(const Options& options, Output& out);
void run_traced(const Options& options, Output& out);

}  // namespace perfbench

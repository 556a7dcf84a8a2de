#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/rng.h"
#include "runtime/assembly_cache.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (position - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Quartiles quartiles(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75), values.size()};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

/// The probe's time on the reference host (a 4-vCPU 2.1 GHz Xeon VM at a
/// quiet moment).
constexpr double kReferenceProbeSeconds = 6.0e-3;

double host_probe_seconds() {
  // A miniature interpreter over a fixed random program: switch dispatch,
  // data-dependent branches, multiplies and loads/stores scattered over a
  // 1 MiB table -- the mix the simulator's hot loops are made of, in code
  // the simulator does not share.
  constexpr std::uint32_t kProgramOps = 4096;
  constexpr std::uint32_t kTableWords = 1 << 17;
  constexpr std::uint32_t kSteps = 1 << 19;
  struct Op {
    std::uint8_t code, a, b, c;
  };
  static const std::vector<Op> program = [] {
    std::vector<Op> ops(kProgramOps);
    pd::SplitMix64 rng(0x5EEDULL);
    for (Op& op : ops) {
      op = {static_cast<std::uint8_t>(rng.next_below(8)),
            static_cast<std::uint8_t>(rng.next_below(16)),
            static_cast<std::uint8_t>(rng.next_below(16)),
            static_cast<std::uint8_t>(rng.next_below(64))};
    }
    return ops;
  }();
  thread_local std::vector<std::uint64_t> table(kTableWords,
                                                0x9E3779B97F4A7C15ULL);
  thread_local volatile std::uint64_t sink = 0;

  std::uint64_t r[16];
  for (unsigned i = 0; i < 16; ++i) r[i] = 0x100000001b3ULL * (i + 1);
  std::uint32_t pc = 0;
  const auto start = Clock::now();
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const Op op = program[pc];
    pc = (pc + 1) & (kProgramOps - 1);
    std::uint64_t& dst = r[op.a];
    const std::uint64_t x = r[op.b];
    const std::uint64_t y = r[op.c & 15];
    switch (op.code) {
      case 0: dst = x + y + op.c; break;
      case 1: dst = x ^ (y >> (op.c & 7)); break;
      case 2: dst = x * (y | 1); break;
      case 3: dst = table[x & (kTableWords - 1)] + op.c; break;
      case 4: table[x & (kTableWords - 1)] = dst ^ y; break;
      case 5:
        if ((x >> (op.c & 31)) & 1) pc = (pc + op.c) & (kProgramOps - 1);
        break;
      case 6: dst = x < y ? x + 1 : y ^ dst; break;
      default: dst = (x << 13) | (x >> 51); break;
    }
  }
  const double seconds = seconds_since(start);
  std::uint64_t fold = 0;
  for (const std::uint64_t v : r) fold ^= v;
  sink = sink ^ fold;  // keeps the loop from being optimised away.
  return seconds;
}

}  // namespace

double host_speed(unsigned threads) {
  std::vector<double> seconds(std::max(1u, threads));
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < seconds.size(); ++t) {
      helpers.emplace_back([&seconds, t] { seconds[t] = host_probe_seconds(); });
    }
    seconds[0] = host_probe_seconds();
  }  // joins the helpers.
  double total = 0;
  for (const double s : seconds) total += s;
  return kReferenceProbeSeconds * static_cast<double>(seconds.size()) / total;
}

void Metrics::add_quartiles(const std::string& name, const Quartiles& q,
                            const std::string& unit) {
  add(name, q.median, unit);
  add(name + ".q1", q.q1, unit);
  add(name + ".q3", q.q3, unit);
  add(name + ".samples", static_cast<double>(q.samples), "count");
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].name) + ": {\"value\": " +
           json_number(items_[i].value) +
           ", \"unit\": " + json_string(items_[i].unit) + "}";
  }
  return out + "}";
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

bool matches_golden(const pd::sim::RunResult& result, const Golden& golden) {
  return result.exit_trap == golden.trap &&
         result.instructions == golden.instructions &&
         pd::arch::first_register_difference(result.final_state,
                                             golden.state) == -1 &&
         result.final_state.pc == golden.state.pc &&
         result.mem_digest == golden.mem_digest;
}

namespace {

Golden run_golden(const pd::sim::AssembledImage& image) {
  pd::sim::LoadedProgram program = pd::sim::load_program(image);
  const std::uint64_t cycle = 0;
  pd::arch::MemoryDataPort port(program.memory, cycle);
  pd::arch::Machine machine(program.memory, port, &program.predecoded());
  Golden golden;
  golden.state.pc = program.entry;
  while (golden.instructions < kBudget) {
    const pd::arch::StepResult step = machine.step(golden.state);
    ++golden.instructions;
    if (step.trap != pd::arch::Trap::kNone) {
      golden.trap = step.trap;
      break;
    }
  }
  golden.mem_digest = program.memory.digest();
  return golden;
}

}  // namespace

std::vector<pd::workloads::Workload> suite_workloads(bool randacc_only) {
  if (randacc_only) return {pd::workloads::make_randacc()};
  return pd::workloads::standard_suite();
}

std::vector<Kernel> set_up_kernels(
    const std::vector<pd::workloads::Workload>& workloads) {
  // A fresh cache, not the process-wide one: every set-up pays assembly
  // and predecode, as a new process would.
  pd::runtime::AssemblyCache cache;
  std::vector<Kernel> kernels;
  kernels.reserve(workloads.size());
  for (const auto& workload : workloads) {
    Kernel kernel{workload, cache.get(workload), {}};
    kernel.golden = run_golden(kernel.image);
    kernels.push_back(std::move(kernel));
  }
  return kernels;
}

// --- Fault campaign ---------------------------------------------------------

namespace {

using pd::core::FaultSite;

/// Every site inside the sphere of replication; kMainLoadValuePreLfu is
/// the ECC domain and is left out.
constexpr FaultSite kInSphereSites[] = {
    FaultSite::kMainArchReg,    FaultSite::kMainLoadValuePostLfu,
    FaultSite::kMainStoreValue, FaultSite::kMainStoreAddr,
    FaultSite::kCheckpointReg,  FaultSite::kCheckerArchReg,
    FaultSite::kMainAluStuckAt,
};
constexpr std::uint64_t kSiteCount = std::size(kInSphereSites);

constexpr unsigned kStrataBits = 7;
constexpr std::uint64_t kStrata = std::uint64_t{1} << kStrataBits;

std::uint64_t bit_reverse(std::uint64_t value) {
  std::uint64_t out = 0;
  for (unsigned b = 0; b < kStrataBits; ++b) {
    out = (out << 1) | ((value >> b) & 1);
  }
  return out;
}

/// The point `where` (in [0, 1)) of the window [lo, hi); lo when empty.
std::uint64_t point_in(std::uint64_t lo, std::uint64_t hi, double where) {
  if (hi <= lo) return lo;
  const auto offset =
      static_cast<std::uint64_t>(where * static_cast<double>(hi - lo));
  return lo + std::min(offset, hi - lo - 1);
}

}  // namespace

CampaignTarget set_up_campaign(const Kernel& kernel) {
  CampaignTarget target;
  target.image = kernel.image;
  target.job.config = pd::SystemConfig::standard();
  target.job.mode = pd::sim::SimMode::kChecked;
  target.job.max_instructions = kBudget;
  target.clean = pd::sim::run_job(target.job, kernel.image);
  if (target.clean.error_detected ||
      !matches_golden(target.clean, kernel.golden)) {
    throw std::runtime_error("campaign: clean " + kernel.workload.name +
                             " run differs from the golden interpreter");
  }
  // Tails run to the clean length plus a quarter: a strike that derails a
  // loop bound is detected either way, and the bound keeps it from running
  // to the full budget and dominating the timings.
  target.job.max_instructions =
      target.clean.instructions + target.clean.instructions / 4;
  target.capture_uops = target.clean.uops - target.clean.uops * 15 / 100;
  target.warm = pd::sim::capture_warm_state(target.job, kernel.image,
                                            target.capture_uops);
  if (target.warm == nullptr) {
    throw std::runtime_error("campaign: warm-state capture failed");
  }
  target.uop_lo = target.warm->uops;
  target.uop_hi = target.clean.uops;
  target.checkpoint_lo = target.warm->checkpoint_index;
  target.checkpoint_hi = target.clean.checkpoints_taken;
  target.segment_lo = target.warm->produced_segments();
  target.segment_hi = target.clean.segments;
  return target;
}

pd::core::FaultSpec plan_strike(const CampaignTarget& target,
                                std::uint64_t seed, std::uint64_t k) {
  pd::SplitMix64 rng(seed ^ (k * 0xD1B54A32D192ED03ULL));
  rng.next();
  const double where =
      (static_cast<double>(bit_reverse(k % kStrata)) + rng.next_double()) /
      static_cast<double>(kStrata);
  pd::core::FaultSpec spec;
  spec.site = kInSphereSites[k % kSiteCount];
  spec.at_seq = point_in(target.uop_lo, target.uop_hi, where);
  spec.checkpoint_index =
      point_in(target.checkpoint_lo, target.checkpoint_hi, where);
  spec.segment_ordinal = point_in(target.segment_lo, target.segment_hi, where);
  spec.reg = 1 + static_cast<unsigned>(rng.next_below(63));
  spec.bit = static_cast<unsigned>(rng.next_below(64));
  spec.checker_local_index = rng.next_below(512);
  spec.alu_index = static_cast<unsigned>(
      rng.next_below(target.job.config.main_core.int_alus));
  spec.stuck_value = (rng.next() & 1) != 0;
  return spec;
}

StrikeOutcome run_strike(const CampaignTarget& target,
                         const pd::core::FaultSpec& spec, Tally& tally) {
  StrikeOutcome outcome;
  const auto start = Clock::now();
  pd::core::FaultInjector faults;
  faults.add(spec);
  const bool tail_safe = target.warm->tail_safe(faults);
  pd::sim::RunResult result;
  if (tail_safe) {
    result = pd::sim::run_job_from(*target.warm, &faults);
  } else {
    pd::sim::SimJob cold = target.job;
    cold.faults = &faults;
    result = pd::sim::run_job(cold, target.image);
  }
  outcome.verdict = pd::sim::classify_fault_outcome(target.clean, result);
  outcome.seconds = seconds_since(start);
  outcome.tail_instructions = result.instructions - target.warm->instructions;
  tally.check(tail_safe && outcome.verdict != pd::sim::FaultVerdict::kSilent,
              std::string("strike at ") +
                  std::string(pd::core::fault_site_name(spec.site)) +
                  (tail_safe ? " was silent" : " was not tail-safe"));
  return outcome;
}

// --- Spans ------------------------------------------------------------------

void SpanLog::add(const char* name, const std::string& kernel,
                  std::uint64_t id, Clock::time_point start,
                  Clock::time_point stop) {
  spans_.push_back({name, kernel, id, seconds_between(origin_, start) * 1e6,
                    seconds_between(start, stop) * 1e6});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    file << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(span.name)
         << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
         << ", \"ts\": " << json_number(span.start_us)
         << ", \"dur\": " << json_number(span.duration_us)
         << ", \"args\": {\"kernel\": " << json_string(span.kernel)
         << ", \"id\": " << span.id << "}}";
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

}  // namespace perfbench

// Quickstart: assemble a small SRV64 program, run it on the checked system
// (out-of-order main core + 12 checker cores), then inject a transient
// fault into the main core's register file and watch the checkers catch it.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/config.h"
#include "core/fault_injection.h"
#include "sim/checked_system.h"

namespace {

constexpr const char* kProgram = R"(
# Sum the first 10000 integers, store the result, and halt.
_start:
  li   t0, 10000        # n
  li   t1, 0            # acc
  li   t2, 1            # i
  la   t3, buffer       # running-sum output
loop:
  add  t1, t1, t2
  sd   t1, 0(t3)        # running sum to memory (t3 = buffer, set below)
  addi t2, t2, 1
  addi t3, t3, 8
  ble  t2, t0, loop
  la   t4, result
  sd   t1, 0(t4)
  halt

.org 0x100000
result:
.org 0x200000
buffer:
)";

}  // namespace

int main() {
  using namespace paradet;

  // 1. Assemble.
  isa::Assembled assembled = isa::assemble(kProgram);
  if (!assembled.ok) {
    for (const auto& error : assembled.errors) {
      std::fprintf(stderr, "asm error: %s\n", error.c_str());
    }
    return 1;
  }

  // 2. Fault-free run on the standard checked system (Table I).
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 1'000'000;
  sim::RunResult clean = sim::run_job(job, assembled);
  std::printf("fault-free run:\n");
  std::printf("  instructions   : %llu\n",
              static_cast<unsigned long long>(clean.instructions));
  std::printf("  cycles         : %llu  (IPC %.2f)\n",
              static_cast<unsigned long long>(clean.main_done_cycle),
              clean.ipc);
  std::printf("  segments       : %llu (checkpoints %llu)\n",
              static_cast<unsigned long long>(clean.segments),
              static_cast<unsigned long long>(clean.checkpoints_taken));
  std::printf("  mean detection delay: %.0f ns (max %.0f ns)\n",
              clean.delay_ns.summary().mean(), clean.delay_ns.summary().max());
  std::printf("  error detected : %s\n\n",
              clean.error_detected ? "YES (bug!)" : "no");

  // 3. Unchecked baseline for the slowdown: same machine, detection off.
  sim::SimJob unchecked = job;
  unchecked.mode = sim::SimMode::kBaseline;
  sim::RunResult baseline = sim::run_job(unchecked, assembled);
  std::printf("slowdown vs unchecked baseline: %.4fx\n\n",
              static_cast<double>(clean.main_done_cycle) /
                  static_cast<double>(baseline.main_done_cycle));

  // 4. Inject a single transient bit flip into the accumulator register
  //    (t1 = x6) mid-run: the corrupted value reaches a store, the checker
  //    recomputes the correct one, and the store-value check fires.
  core::FaultInjector faults;
  core::FaultSpec flip;
  flip.site = core::FaultSite::kMainArchReg;
  flip.at_seq = 20'000;  // micro-op index inside the loop
  flip.reg = 6;          // x6 == t1
  flip.bit = 17;
  faults.add(flip);

  job.faults = &faults;
  sim::RunResult faulty = sim::run_job(job, assembled);
  std::printf("after injecting a bit flip in t1 at uop 20000:\n");
  std::printf("  error detected : %s\n", faulty.error_detected ? "yes" : "NO");
  if (faulty.first_error.has_value()) {
    std::printf("  first error    : %s\n",
                faulty.first_error->describe().c_str());
    std::printf("  detected at cycle %llu (program done at %llu)\n",
                static_cast<unsigned long long>(
                    faulty.first_error->detected_at),
                static_cast<unsigned long long>(faulty.main_done_cycle));
  }
  return faulty.error_detected && !clean.error_detected ? 0 : 1;
}

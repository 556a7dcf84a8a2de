// Automotive scenario: replacing dual-core lockstep (DCLS) with parallel
// heterogeneous checking for an ASIL-style duty cycle.
//
// The paper's motivating domain (§I, §IV-A): automotive controllers need
// error *detection* (correction is handled by restarting the system), and
// the faults that matter are physical events on millisecond timescales.
// This example runs a control-loop-like workload (fluidanimate's particle
// kernel standing in for a physics workload), compares DCLS against the
// paradet scheme on all three axes of fig. 1(d), and then demonstrates
// the §IV-H contract: a detected error surfaces before the program's
// result would be consumed, within a timescale far below the physical
// deadline.
#include <cstdio>

#include "baseline/lockstep.h"
#include "model/area_power.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

int main() {
  using namespace paradet;
  const SystemConfig config = SystemConfig::standard();
  const auto workload =
      workloads::make_fluidanimate(workloads::Scale{.factor = 0.5});
  const auto assembled = workloads::assemble_or_die(workload);

  std::printf("=== automotive duty cycle: %s ===\n\n",
              workload.name.c_str());

  // --- Option 1: dual-core lockstep (today's industry practice).
  const auto lockstep = baseline::run_lockstep(config, assembled, 2'000'000);
  std::printf("dual-core lockstep:\n");
  std::printf("  slowdown            : %.3fx\n", lockstep.slowdown);
  std::printf("  detection latency   : %.1f ns\n",
              lockstep.detection_latency_ns);
  std::printf("  area overhead       : +%.0f%%  (full duplicate core)\n",
              100.0 * lockstep.area_overhead);
  std::printf("  power overhead      : +%.0f%%\n\n",
              100.0 * lockstep.power_overhead);

  // --- Option 2: parallel heterogeneous checking.
  sim::SimJob job;
  job.config = config;
  job.mode = sim::SimMode::kBaseline;
  job.max_instructions = 2'000'000;
  const auto base = sim::run_job(job, assembled);
  job.mode = sim::SimMode::kChecked;
  const auto checked = sim::run_job(job, assembled);
  const auto area = model::estimate_area(config);
  const auto power = model::estimate_power(config);
  const double slowdown = static_cast<double>(checked.main_done_cycle) /
                          static_cast<double>(base.main_done_cycle);
  std::printf("parallel heterogeneous checking (12x 1GHz checkers):\n");
  std::printf("  slowdown            : %.3fx\n", slowdown);
  std::printf("  mean detect latency : %.0f ns  (max %.1f us)\n",
              checked.delay_ns.summary().mean(),
              checked.delay_ns.summary().max() / 1000.0);
  std::printf("  area overhead       : +%.1f%%\n",
              100.0 * area.overhead_without_l2());
  std::printf("  power overhead      : +%.1f%%\n\n", 100.0 * power.overhead());

  // --- The deadline argument (§VI): physical actuation happens on
  // millisecond timescales; even the worst-case detection delay is orders
  // of magnitude inside that budget.
  const double max_delay_ms = checked.delay_ns.summary().max() / 1e6;
  std::printf("worst-case detection delay vs a 1 ms actuation deadline: "
              "%.4f ms (%.1f%% of budget)\n\n",
              max_delay_ms, 100.0 * max_delay_ms / 1.0);

  // --- Detection demo: a transient strike on the particle position base
  // register mid-run. Termination is held until every check completes
  // (§IV-H), so the error is guaranteed visible before results are used.
  core::FaultInjector faults;
  core::FaultSpec strike;
  strike.site = core::FaultSite::kMainArchReg;
  strike.at_seq = 300'000;
  strike.reg = 6;  // t1 -- live pointer in the kernel's inner loop.
  strike.bit = 4;
  faults.add(strike);
  job.faults = &faults;
  const auto faulty = sim::run_job(job, assembled);
  std::printf("after a transient strike at uop 300000:\n");
  if (faulty.first_error.has_value()) {
    std::printf("  detected            : yes\n");
    std::printf("  first error         : %s\n",
                faulty.first_error->describe().c_str());
    std::printf("  detected at         : %.2f us into the run\n",
                cycles_to_ns(faulty.first_error->detected_at,
                             config.main_core.freq_mhz) /
                    1000.0);
    std::printf("  action              : raise exception; system restart "
                "(ASIL detection-only profile)\n");
  } else {
    std::printf("  NOT detected -- this would be a bug\n");
    return 1;
  }
  return 0;
}

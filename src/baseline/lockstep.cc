#include "baseline/lockstep.h"

namespace paradet::baseline {

LockstepResult run_lockstep(const SystemConfig& config,
                            const isa::Assembled& assembled,
                            std::uint64_t max_instructions,
                            const LockstepConfig& lockstep) {
  sim::SimJob unprotected;
  unprotected.config = config;
  unprotected.mode = sim::SimMode::kBaseline;
  unprotected.max_instructions = max_instructions;

  LockstepResult result;
  result.run = sim::run_job(unprotected, assembled);
  result.cycles = result.run.main_done_cycle;
  // Lockstep does not contend with the leading core for any resource; the
  // slowdown is the (negligible) comparator back-pressure, modelled as
  // zero, matching fig. 1(d)'s "Performance: Negligible".
  result.slowdown = 1.0;
  result.detection_latency_ns = cycles_to_ns(
      lockstep.stagger_cycles + lockstep.comparator_cycles,
      config.main_core.freq_mhz);
  result.area_overhead = 1.0;
  result.power_overhead = 1.0;
  return result;
}

}  // namespace paradet::baseline

#include "sim/checker_timing.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "isa/crack.h"
#include "sim/uop_info.h"

namespace paradet::sim {

SharedCheckerIcache::SharedCheckerIcache(std::uint64_t size_bytes,
                                         unsigned line_bytes, unsigned assoc)
    : assoc_(assoc),
      line_shift_(static_cast<unsigned>(
          std::countr_zero(static_cast<std::uint64_t>(line_bytes)))) {
  sets_ = size_bytes / (line_bytes * assoc);
  assert(sets_ >= 1 && std::has_single_bit(sets_));
  lines_.resize(sets_ * assoc_);
}

bool SharedCheckerIcache::access(Addr line_addr) {
  const std::uint64_t tag = line_addr >> line_shift_;
  const std::size_t set = tag & (sets_ - 1);
  Line* victim = nullptr;
  for (unsigned way = 0; way < assoc_; ++way) {
    Line& line = lines_[set * assoc_ + way];
    if (line.valid && line.tag == tag) {
      line.lru = ++clock_;
      ++hits_;
      return true;
    }
    if (victim == nullptr) {
      victim = &line;
    } else if (victim->valid && (!line.valid || line.lru < victim->lru)) {
      victim = &line;
    }
  }
  ++misses_;
  *victim = Line{tag, true, ++clock_};
  return false;
}

CheckerCoreTiming::CheckerCoreTiming(const CheckerConfig& config,
                                     SharedCheckerIcache& shared,
                                     unsigned l2_latency_checker_cycles)
    : config_(config), shared_(shared), l2_latency_(l2_latency_checker_cycles) {
  const std::size_t l0_lines = config.l0_icache_bytes / 64;
  assert(l0_lines >= 1 && std::has_single_bit(l0_lines));
  l0_mask_ = l0_lines - 1;
  l0_tags_.resize(l0_lines, 0);
  l0_valid_.resize(l0_lines, false);
}

bool CheckerCoreTiming::l0_access(Addr line_addr) {
  const std::uint64_t tag = line_addr >> 6;
  const std::size_t index = tag & l0_mask_;
  if (l0_valid_[index] && l0_tags_[index] == tag) {
    ++l0_hits_;
    return true;
  }
  ++l0_misses_;
  l0_tags_[index] = tag;
  l0_valid_[index] = true;
  return false;
}

CheckerCoreTiming::WalkResult CheckerCoreTiming::walk(
    const std::vector<core::CheckerInstRecord>& trace,
    std::size_t total_entries, const ProgramStatics* statics) {
  WalkResult result;
  result.entry_check_cycles.assign(total_entries, 0);

  // Unified register scoreboard, in checker cycles.
  Cycle reg_ready[kNumArchRegs] = {};
  Cycle fetch_ready = config_.wakeup_cycles;
  Cycle last_issue = fetch_ready;
  Cycle last_complete = fetch_ready;
  Cycle unpipelined_busy = 0;

  InstStatic scratch_statics;  ///< fallback for out-of-image PCs only.
  for (const auto& record : trace) {
    // Fetch: one L0 lookup per 64-byte line transition is approximated by
    // looking up every instruction (the L0 filters repeats cheaply).
    Cycle fetch_done = std::max(fetch_ready, last_issue);
    if (!l0_access(record.pc & ~Addr{63})) {
      fetch_done += config_.l0_miss_penalty;
      if (!shared_.access(record.pc & ~Addr{63})) {
        fetch_done += l2_latency_;
      }
    }

    const InstStatic* inst_static =
        lookup_or_make(statics, record.pc, record.inst, scratch_statics);
    std::uint32_t entry_cursor = record.first_entry;
    std::uint8_t entries_left = record.entries_consumed;

    for (unsigned u = 0; u < inst_static->uop_count; ++u) {
      const UopStatic& uop = inst_static->uops[u];
      const UopRegs& regs = uop.regs;
      const auto cls = uop.cls;

      Cycle issue = std::max<Cycle>(last_issue + 1, fetch_done);
      issue = std::max(issue, unpipelined_busy);
      for (unsigned s = 0; s < regs.n_srcs; ++s) {
        issue = std::max(issue, reg_ready[regs.srcs[s]]);
      }

      // Log-fed memory ops complete in one cycle (SRAM read + compare);
      // other classes use their execution latency.
      const bool is_mem = uop.is_load || uop.is_store;
      const unsigned latency = is_mem ? 1 : isa::exec_latency(cls);
      const Cycle complete = issue + latency;

      if (isa::exec_unpipelined(cls)) unpipelined_busy = complete;
      if (regs.dest >= 0) reg_ready[regs.dest] = complete;

      // Attribute log-entry check completion. A micro-op consumes at most
      // one entry except RDCYCLE-style forwards (also one); LDP/STP crack
      // into one-entry micro-ops, so the per-uop attribution is exact.
      if (is_mem && entries_left > 0) {
        if (entry_cursor < result.entry_check_cycles.size()) {
          result.entry_check_cycles[entry_cursor] = complete;
        }
        ++entry_cursor;
        --entries_left;
      }

      last_issue = issue;
      last_complete = std::max(last_complete, complete);
    }

    // Non-memory entry consumers (RDCYCLE) attribute at last_complete.
    while (entries_left > 0) {
      if (entry_cursor < result.entry_check_cycles.size()) {
        result.entry_check_cycles[entry_cursor] = last_complete;
      }
      ++entry_cursor;
      --entries_left;
    }

    if (record.branch_taken) {
      fetch_ready = last_issue + 1 + config_.taken_branch_bubble;
    } else {
      fetch_ready = 0;  // sequential fetch keeps up with the scalar core.
    }
  }

  // Entries the checker never reached (failed checks abort early) are
  // marked as checked at the abort time: the error report covers them.
  for (auto& cycle : result.entry_check_cycles) {
    if (cycle == 0) cycle = last_complete;
  }

  result.local_cycles = last_complete + config_.checkpoint_validate_cycles;
  return result;
}

}  // namespace paradet::sim

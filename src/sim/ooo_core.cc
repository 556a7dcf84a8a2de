#include "sim/ooo_core.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace paradet::sim {

OoOCore::OoOCore(const SystemConfig& config, mem::Cache& l1i, mem::Cache& l1d)
    : config_(config.main_core),
      l1i_(&l1i),
      l1d_(&l1d),
      predictor_(config.branch_predictor),
      int_slots_(config.main_core.int_alus),
      fp_slots_(config.main_core.fp_alus),
      muldiv_slots_(config.main_core.muldiv_alus),
      rob_ring_(config.main_core.rob_entries),
      store_ring_(config.main_core.sq_entries) {}

OoOCore::OoOCore(const OoOCore& other, mem::Cache& l1i, mem::Cache& l1d)
    : OoOCore(other) {
  l1i_ = &l1i;
  l1d_ = &l1d;
}

void OoOCore::IssueDeadlines::add(Cycle issue) {
  if (issue - drained_ <= kSpan) {
    ++counts_[issue & kMask];
    ++ring_live_;
  } else {
    overflow_.insert(std::upper_bound(overflow_.begin(), overflow_.end(),
                                      issue, std::greater<Cycle>()),
                     issue);
  }
}

Cycle OoOCore::IssueDeadlines::admit(Cycle dispatch, unsigned entries) {
  for (;;) {
    drain(dispatch);
    if (ring_live_ + overflow_.size() < entries) return dispatch;
    dispatch = earliest() + 1;
  }
}

void OoOCore::IssueDeadlines::drain(Cycle through) {
  if (through <= drained_) return;
  // Past drained_ + kSpan the ring holds nothing, and once ring_live_ is
  // zero every remaining slot is zero already.
  const Cycle stop = std::min(through, drained_ + kSpan);
  for (Cycle cycle = drained_ + 1; ring_live_ != 0 && cycle <= stop; ++cycle) {
    ring_live_ -= counts_[cycle & kMask];
    counts_[cycle & kMask] = 0;
  }
  drained_ = through;
  while (!overflow_.empty() && overflow_.back() <= through) {
    overflow_.pop_back();
  }
}

Cycle OoOCore::IssueDeadlines::earliest() const {
  const Cycle overflow = overflow_.empty() ? kCycleNever : overflow_.back();
  if (ring_live_ == 0) return overflow;
  // A live slot lies within kSpan cycles, so the scan stops by then.
  Cycle cycle = drained_ + 1;
  while (cycle < overflow && counts_[cycle & kMask] == 0) ++cycle;
  return cycle;
}

void OoOCore::fetch_bubble(Cycle from, unsigned cycles) {
  if (cycles == 0) return;
  const Cycle resume = from + cycles;
  if (resume > fetch_cycle_) {
    fetch_cycle_ = resume;
    fetched_in_cycle_ = 0;
  }
}

/// The LQ or SQ limit: at the candidate dispatch cycle, fewer than
/// `entries` of the window's loads (or stores, per `kind`) may still be
/// uncommitted; otherwise dispatch retries one cycle past the earliest of
/// their commits. The window's commit cycles are sorted, so the committed
/// occupants are a prefix and the earliest uncommitted one of `kind` is
/// the first after it. `in_window` counts the window's occupants of
/// `kind`.
Cycle OoOCore::window_queue_limit(Cycle dispatch, bool RobSlot::*kind,
                                  unsigned in_window,
                                  unsigned entries) const {
  const auto slot = [this](std::size_t age) -> const RobSlot& {
    std::size_t index = rob_head_ + age;
    if (index >= rob_ring_.size()) index -= rob_ring_.size();
    return rob_ring_[index];
  };
  std::size_t age = 0;
  unsigned live = in_window;
  for (;;) {
    for (; age < rob_count_ && slot(age).commit <= dispatch; ++age) {
      if (slot(age).*kind) --live;
    }
    if (live < entries) return dispatch;
    while (!(slot(age).*kind)) ++age;
    dispatch = slot(age).commit + 1;
  }
}

Cycle OoOCore::apply_queue_limits(Cycle dispatch) {
  // Issue queue: micro-ops dispatched but not yet issued occupy IQ slots.
  dispatch = iq_.admit(dispatch, config_.iq_entries);
  // Load queue: loads occupy LQ from dispatch to commit. It can only be
  // full when the window holds at least lq_entries loads.
  if (rob_loads_ >= config_.lq_entries) {
    dispatch = window_queue_limit(dispatch, &RobSlot::is_load, rob_loads_,
                                  config_.lq_entries);
  }
  // Store queue likewise.
  if (rob_stores_ >= config_.sq_entries) {
    dispatch = window_queue_limit(dispatch, &RobSlot::is_store, rob_stores_,
                                  config_.sq_entries);
  }
  return dispatch;
}

void OoOCore::resolve_control(const UopDesc& desc, const UopTiming& timing,
                              UopTiming* out) {
  switch (desc.ctrl) {
    case CtrlKind::kNone:
      return;
    case CtrlKind::kCond: {
      const BranchPrediction prediction = predictor_.predict_branch(desc.pc);
      const bool wrong = prediction.taken != desc.taken;
      if (wrong) {
        out->mispredicted = true;
        ++mispredicts_;
        fetch_bubble(timing.complete, config_.redirect_penalty_cycles);
        redirect_min_ =
            std::max(redirect_min_,
                     timing.complete + config_.redirect_penalty_cycles);
      } else if (desc.taken && !prediction.btb_hit) {
        // Direction right, but the target was only known at decode.
        fetch_bubble(timing.fetch, config_.btb_miss_penalty_cycles);
      }
      predictor_.update_branch(desc.pc, desc.taken, desc.target, prediction);
      return;
    }
    case CtrlKind::kJump:
    case CtrlKind::kCall: {
      const BranchPrediction prediction = predictor_.predict_jump(desc.pc);
      if (!prediction.btb_hit) {
        fetch_bubble(timing.fetch, config_.btb_miss_penalty_cycles);
      }
      predictor_.update_jump(desc.pc, desc.target);
      if (desc.ctrl == CtrlKind::kCall) predictor_.push_return(desc.pc + 4);
      return;
    }
    case CtrlKind::kRet:
    case CtrlKind::kIndirect: {
      const BranchPrediction prediction =
          predictor_.predict_indirect(desc.pc, desc.ctrl == CtrlKind::kRet);
      const bool wrong = !prediction.btb_hit || prediction.target != desc.target;
      if (wrong) {
        out->mispredicted = true;
        ++mispredicts_;
        predictor_.note_target_mispredict();
        fetch_bubble(timing.complete, config_.redirect_penalty_cycles);
        redirect_min_ =
            std::max(redirect_min_,
                     timing.complete + config_.redirect_penalty_cycles);
      }
      predictor_.update_jump(desc.pc, desc.target);
      return;
    }
  }
}

UopTiming OoOCore::schedule(const UopDesc& desc) {
  assert(!pending_valid_ && "retire() must follow every schedule()");
  UopTiming timing;
  ++scheduled_;

  // ---- Fetch ------------------------------------------------------------
  if (redirect_min_ > fetch_cycle_) {
    fetch_cycle_ = redirect_min_;
    fetched_in_cycle_ = 0;
  }
  if (desc.first_of_macro) {
    const Addr line = desc.pc & ~Addr{63};
    if (line != last_fetch_line_) {
      const Cycle ready =
          l1i_->access(line, /*write=*/false, fetch_cycle_, /*pc=*/0);
      const Cycle pipelined_hit = fetch_cycle_ + l1i_->config().hit_latency;
      if (ready > pipelined_hit) {
        // An i-cache miss stalls fetch for the excess over the pipelined
        // hit latency.
        fetch_cycle_ += ready - pipelined_hit;
        fetched_in_cycle_ = 0;
      }
      last_fetch_line_ = line;
    }
  }
  timing.fetch = fetch_cycle_;
  if (++fetched_in_cycle_ >= config_.fetch_width) {
    ++fetch_cycle_;
    fetched_in_cycle_ = 0;
  }

  // ---- Dispatch ----------------------------------------------------------
  Cycle dispatch = timing.fetch + config_.frontend_depth_cycles;
  if (dispatch < last_dispatch_cycle_) dispatch = last_dispatch_cycle_;
  if (dispatch == last_dispatch_cycle_ &&
      dispatched_in_cycle_ >= config_.commit_width) {
    ++dispatch;
  }
  // ROB occupancy: the oldest in-flight micro-op must have committed for a
  // new one to enter a full window.
  if (rob_count_ >= config_.rob_entries) {
    dispatch = std::max(dispatch, rob_ring_[rob_head_].commit + 1);
  }
  dispatch = apply_queue_limits(dispatch);
  if (dispatch != last_dispatch_cycle_) {
    last_dispatch_cycle_ = dispatch;
    dispatched_in_cycle_ = 1;
  } else {
    ++dispatched_in_cycle_;
  }
  timing.dispatch = dispatch;

  // ---- Issue -------------------------------------------------------------
  Cycle ready = dispatch + 1;
  for (unsigned s = 0; s < desc.regs.n_srcs; ++s) {
    ready = std::max(ready, reg_ready_[desc.regs.srcs[s]]);
  }

  const unsigned latency = isa::exec_latency(desc.cls);
  const bool unpipelined = isa::exec_unpipelined(desc.cls);

  Cycle issue;
  int unit = -1;
  switch (desc.cls) {
    case isa::ExecClass::kFpAlu:
    case isa::ExecClass::kFpMul:
    case isa::ExecClass::kFpDiv:
    case isa::ExecClass::kFpSqrt:
      issue = fp_slots_.reserve(std::max(ready, fp_unpipelined_busy_));
      if (unpipelined) fp_unpipelined_busy_ = issue + latency;
      break;
    case isa::ExecClass::kIntMul:
    case isa::ExecClass::kIntDiv:
      issue = muldiv_slots_.reserve(std::max(ready, muldiv_unpipelined_busy_));
      if (unpipelined) muldiv_unpipelined_busy_ = issue + latency;
      break;
    default:
      // Integer ALU pool also serves as AGU for loads/stores.
      issue = int_slots_.reserve(ready, &unit);
      if (desc.cls == isa::ExecClass::kIntAlu) timing.int_alu_unit = unit;
      break;
  }

  // ---- Execute / memory ---------------------------------------------------
  Cycle complete;
  if (desc.is_load) {
    if (!config_.perfect_memory_disambiguation) {
      // Conservative disambiguation: wait for older store addresses.
      issue = std::max(issue, last_store_agu_);
    }
    bool forwarded = false;
    // Youngest-first scan of the store ring for a fully-containing store.
    for (std::size_t i = store_count_; i-- > 0;) {
      std::size_t slot = store_head_ + i;
      if (slot >= store_ring_.size()) slot -= store_ring_.size();
      const StoreWindowEntry& entry = store_ring_[slot];
      if (entry.addr <= desc.mem_addr &&
          desc.mem_addr + desc.mem_size <= entry.addr + entry.size) {
        complete = std::max(issue + 1, entry.data_ready);
        forwarded = true;
        break;
      }
      // Partial overlap: fall through to the cache; the store will have
      // drained by commit order anyway (conservative).
    }
    if (!forwarded) {
      complete = l1d_->access(desc.mem_addr, /*write=*/false, issue, desc.pc);
    }
    timing.store_forwarded = forwarded;
  } else if (desc.is_store) {
    // AGU + data into the store queue; the memory write happens at commit.
    complete = issue + 1;
    const StoreWindowEntry entry{desc.mem_addr, desc.mem_size, complete,
                                 desc.seq};
    if (store_count_ == store_ring_.size()) {
      // Full ring: overwrite the oldest (the freed slot is the new tail).
      store_ring_[store_head_] = entry;
      if (++store_head_ == store_ring_.size()) store_head_ = 0;
    } else {
      std::size_t tail = store_head_ + store_count_;
      if (tail >= store_ring_.size()) tail -= store_ring_.size();
      store_ring_[tail] = entry;
      ++store_count_;
    }
    last_store_agu_ = std::max(last_store_agu_, issue);
  } else {
    complete = issue + latency;
  }

  timing.issue = issue;
  timing.complete = complete;

  if (desc.regs.dest >= 0) reg_ready_[desc.regs.dest] = complete;

  resolve_control(desc, timing, &timing);

  pending_ = InFlight{issue, desc.is_load, desc.is_store};
  pending_valid_ = true;
  return timing;
}

void OoOCore::retire(Cycle commit_cycle) {
  assert(pending_valid_);
  assert(commit_cycle >= last_retired_commit_ &&
         "in-order commit: retire cycles must be non-decreasing");
  last_retired_commit_ = commit_cycle;
  const RobSlot entry{commit_cycle, pending_.is_load, pending_.is_store};
  if (rob_count_ == config_.rob_entries) {
    // Full ring: the freed head slot is exactly where the new tail lands.
    RobSlot& head = rob_ring_[rob_head_];
    rob_loads_ -= head.is_load;
    rob_stores_ -= head.is_store;
    head = entry;
    if (++rob_head_ == rob_ring_.size()) rob_head_ = 0;
  } else {
    std::size_t tail = rob_head_ + rob_count_;
    if (tail >= rob_ring_.size()) tail -= rob_ring_.size();
    rob_ring_[tail] = entry;
    ++rob_count_;
  }
  rob_loads_ += entry.is_load;
  rob_stores_ += entry.is_store;
  iq_.add(pending_.issue);
  pending_valid_ = false;
}

}  // namespace paradet::sim

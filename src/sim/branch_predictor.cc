#include "sim/branch_predictor.h"

#include <cassert>

namespace paradet::sim {

TournamentPredictor::TournamentPredictor(const BranchPredictorConfig& config)
    : history_mask_(static_cast<std::uint16_t>(
          (std::uint16_t{1} << config.local_history_bits) - 1)),
      local_mask_(config.local_entries - 1),
      global_mask_(config.global_entries - 1),
      chooser_mask_(config.chooser_entries - 1),
      btb_mask_(config.btb_entries - 1),
      local_history_(config.local_entries, 0),
      local_pht_(std::size_t{1} << config.local_history_bits, 1),
      global_pht_(config.global_entries, 1),
      chooser_(config.chooser_entries, 2),  // weakly prefer global.
      btb_(config.btb_entries),
      ras_(config.ras_entries, 0) {
  assert(config.valid_table_sizes() &&
         "predictor tables must be power-of-two sized (mask indexing)");
}

BranchPrediction TournamentPredictor::predict_branch(Addr pc) {
  ++lookups_;
  const std::size_t local_index = (pc >> 2) & local_mask_;
  const std::uint16_t history = local_history_[local_index] & history_mask_;
  const bool local_taken = counter_taken(local_pht_[history]);
  const bool global_taken =
      counter_taken(global_pht_[global_history_ & global_mask_]);
  const bool use_global =
      counter_taken(chooser_[global_history_ & chooser_mask_]);

  BranchPrediction prediction;
  prediction.taken = use_global ? global_taken : local_taken;
  const BtbEntry& entry = btb_slot(pc);
  prediction.btb_hit = entry.valid && entry.tag == pc;
  prediction.target = prediction.btb_hit ? entry.target : 0;
  return prediction;
}

BranchPrediction TournamentPredictor::predict_jump(Addr pc) {
  ++lookups_;
  BranchPrediction prediction;
  prediction.taken = true;
  const BtbEntry& entry = btb_slot(pc);
  prediction.btb_hit = entry.valid && entry.tag == pc;
  prediction.target = prediction.btb_hit ? entry.target : 0;
  return prediction;
}

BranchPrediction TournamentPredictor::predict_indirect(Addr pc,
                                                       bool is_return) {
  ++lookups_;
  BranchPrediction prediction;
  prediction.taken = true;
  if (is_return && ras_depth_ > 0) {
    ras_top_ = (ras_top_ + ras_.size() - 1) % ras_.size();
    --ras_depth_;
    prediction.btb_hit = true;
    prediction.used_ras = true;
    prediction.target = ras_[ras_top_];
    return prediction;
  }
  const BtbEntry& entry = btb_slot(pc);
  prediction.btb_hit = entry.valid && entry.tag == pc;
  prediction.target = prediction.btb_hit ? entry.target : 0;
  return prediction;
}

void TournamentPredictor::update_branch(Addr pc, bool taken, Addr target,
                                        const BranchPrediction& prediction) {
  const std::size_t local_index = (pc >> 2) & local_mask_;
  const std::uint16_t history = local_history_[local_index] & history_mask_;
  const bool local_taken = counter_taken(local_pht_[history]);
  const bool global_taken =
      counter_taken(global_pht_[global_history_ & global_mask_]);

  // Chooser trains towards whichever component was right (when they agree
  // there is nothing to learn).
  if (local_taken != global_taken) {
    bump(chooser_[global_history_ & chooser_mask_], global_taken == taken);
  }
  bump(local_pht_[history], taken);
  bump(global_pht_[global_history_ & global_mask_], taken);
  local_history_[local_index] = static_cast<std::uint16_t>(
      (history << 1) | (taken ? 1 : 0));
  global_history_ = (global_history_ << 1) | (taken ? 1 : 0);

  if (taken) {
    BtbEntry& entry = btb_slot(pc);
    entry = BtbEntry{pc, target, true};
  }
  if (prediction.taken != taken) ++dir_mispredicts_;
}

void TournamentPredictor::update_jump(Addr pc, Addr target) {
  BtbEntry& entry = btb_slot(pc);
  entry = BtbEntry{pc, target, true};
}

void TournamentPredictor::push_return(Addr return_pc) {
  if (ras_.empty()) return;  // depth-0 RAS: calls leave no return hint.
  ras_[ras_top_] = return_pc;
  ras_top_ = (ras_top_ + 1) % ras_.size();
  if (ras_depth_ < ras_.size()) ++ras_depth_;
}

}  // namespace paradet::sim

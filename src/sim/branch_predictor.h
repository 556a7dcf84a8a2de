// Tournament branch predictor (Table I: 2048-entry local, 8192-entry
// global, 2048-entry chooser, 2048-entry BTB, 16-entry RAS), in the style
// of the Alpha 21264 / gem5 "tournament" predictor. It is the main core's
// only predictor; the checker cores have none (sim/checker_timing.h).
//
// Hot-path note: every table is power-of-two sized (asserted from
// BranchPredictorConfig::valid_table_sizes) and indexed with masks, so the
// per-branch predict+update pair has no integer division.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace paradet::sim {

struct BranchPrediction {
  bool taken = false;    ///< predicted direction (always true for jumps).
  bool btb_hit = false;  ///< target known at fetch.
  Addr target = 0;       ///< predicted target (valid if btb_hit/ras_hit).
  bool used_ras = false;
};

class TournamentPredictor {
 public:
  explicit TournamentPredictor(const BranchPredictorConfig& config);

  /// Predicts a conditional branch at `pc`.
  BranchPrediction predict_branch(Addr pc);
  /// Predicts a direct jump (JAL): direction is always taken; the BTB
  /// provides the target at fetch.
  BranchPrediction predict_jump(Addr pc);
  /// Predicts an indirect jump (JALR): RAS if `is_return`, else BTB.
  BranchPrediction predict_indirect(Addr pc, bool is_return);

  /// Trains on the resolved outcome. `prediction` is what predict_*
  /// returned for this instance.
  void update_branch(Addr pc, bool taken, Addr target,
                     const BranchPrediction& prediction);
  void update_jump(Addr pc, Addr target);
  /// Pushes a return address on a call.
  void push_return(Addr return_pc);

  std::uint64_t direction_mispredicts() const { return dir_mispredicts_; }
  std::uint64_t target_mispredicts() const { return target_mispredicts_; }
  std::uint64_t lookups() const { return lookups_; }

  /// Counts an indirect-target misprediction (resolved by the core).
  void note_target_mispredict() { ++target_mispredicts_; }

 private:
  static bool counter_taken(std::uint8_t c) { return c >= 2; }
  static void bump(std::uint8_t& c, bool up) {
    if (up && c < 3) ++c;
    if (!up && c > 0) --c;
  }

  struct BtbEntry {
    Addr tag = 0;
    Addr target = 0;
    bool valid = false;
  };

  BtbEntry& btb_slot(Addr pc) { return btb_[(pc >> 2) & btb_mask_]; }

  std::uint16_t history_mask_;
  std::uint64_t local_mask_;
  std::uint64_t global_mask_;
  std::uint64_t chooser_mask_;
  std::uint64_t btb_mask_;
  std::vector<std::uint16_t> local_history_;
  std::vector<std::uint8_t> local_pht_;
  std::vector<std::uint8_t> global_pht_;
  std::vector<std::uint8_t> chooser_;
  std::uint64_t global_history_ = 0;
  std::vector<BtbEntry> btb_;
  std::vector<Addr> ras_;
  std::size_t ras_top_ = 0;
  std::size_t ras_depth_ = 0;

  std::uint64_t dir_mispredicts_ = 0;
  std::uint64_t target_mispredicts_ = 0;
  std::uint64_t lookups_ = 0;
};

}  // namespace paradet::sim

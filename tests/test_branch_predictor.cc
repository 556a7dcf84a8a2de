// Tests for the tournament branch predictor, BTB and RAS: directed
// behaviour, plus a golden hash of a seeded random stream that pins every
// prediction and counter.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/config.h"
#include "common/hash.h"
#include "sim/branch_predictor.h"

namespace paradet::sim {
namespace {

BranchPredictorConfig small_config() {
  BranchPredictorConfig cfg;
  cfg.local_entries = 64;
  cfg.local_history_bits = 6;
  cfg.global_entries = 256;
  cfg.chooser_entries = 64;
  cfg.btb_entries = 64;
  cfg.ras_entries = 4;
  return cfg;
}

TEST(Tournament, LearnsAlwaysTaken) {
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x1000;
  for (int i = 0; i < 20; ++i) {
    const auto prediction = predictor.predict_branch(pc);
    predictor.update_branch(pc, true, 0x2000, prediction);
  }
  EXPECT_TRUE(predictor.predict_branch(pc).taken);
  // After training, the BTB supplies the target.
  EXPECT_TRUE(predictor.predict_branch(pc).btb_hit);
  EXPECT_EQ(predictor.predict_branch(pc).target, 0x2000u);
}

TEST(Tournament, LearnsAlternatingPatternViaLocalHistory) {
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x1040;
  // Train on strict alternation; local history should capture it.
  bool taken = false;
  for (int i = 0; i < 200; ++i) {
    const auto prediction = predictor.predict_branch(pc);
    predictor.update_branch(pc, taken, 0x3000, prediction);
    taken = !taken;
  }
  // Measure accuracy over the next 40 outcomes.
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    const auto prediction = predictor.predict_branch(pc);
    if (prediction.taken == taken) ++correct;
    predictor.update_branch(pc, taken, 0x3000, prediction);
    taken = !taken;
  }
  EXPECT_GE(correct, 36);  // near-perfect once warmed up.
}

TEST(Tournament, CountsDirectionMispredicts) {
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x1080;
  for (int i = 0; i < 10; ++i) {
    const auto prediction = predictor.predict_branch(pc);
    predictor.update_branch(pc, true, 0x9000, prediction);
  }
  const auto before = predictor.direction_mispredicts();
  const auto prediction = predictor.predict_branch(pc);
  predictor.update_branch(pc, false, 0x9000, prediction);  // surprise.
  EXPECT_EQ(predictor.direction_mispredicts(), before + 1);
}

TEST(Tournament, JumpBtb) {
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x2000;
  EXPECT_FALSE(predictor.predict_jump(pc).btb_hit);
  predictor.update_jump(pc, 0x4444);
  const auto prediction = predictor.predict_jump(pc);
  EXPECT_TRUE(prediction.btb_hit);
  EXPECT_EQ(prediction.target, 0x4444u);
  EXPECT_TRUE(prediction.taken);
}

TEST(Tournament, RasPredictsReturns) {
  TournamentPredictor predictor(small_config());
  predictor.push_return(0x1004);
  predictor.push_return(0x2004);
  auto prediction = predictor.predict_indirect(0x9000, /*is_return=*/true);
  EXPECT_TRUE(prediction.used_ras);
  EXPECT_EQ(prediction.target, 0x2004u);  // LIFO.
  prediction = predictor.predict_indirect(0x9100, true);
  EXPECT_EQ(prediction.target, 0x1004u);
}

TEST(Tournament, RasWrapsAtCapacity) {
  TournamentPredictor predictor(small_config());  // 4-deep RAS.
  for (Addr a = 1; a <= 6; ++a) predictor.push_return(a * 0x10);
  // The oldest two entries were overwritten; pops return 6,5,4,3.
  for (Addr expect : {0x60u, 0x50u, 0x40u, 0x30u}) {
    const auto prediction = predictor.predict_indirect(0x9000, true);
    EXPECT_EQ(prediction.target, expect);
  }
}

TEST(Tournament, IndirectFallsBackToBtb) {
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x3000;
  EXPECT_FALSE(predictor.predict_indirect(pc, false).btb_hit);
  predictor.update_jump(pc, 0x7000);
  const auto prediction = predictor.predict_indirect(pc, false);
  EXPECT_TRUE(prediction.btb_hit);
  EXPECT_EQ(prediction.target, 0x7000u);
}

TEST(Tournament, RasDepthZeroFallsBackToBtb) {
  // A depth-0 RAS: pushes are no-ops and returns predict through the BTB
  // like any other indirect.
  BranchPredictorConfig cfg = small_config();
  cfg.ras_entries = 0;
  TournamentPredictor predictor(cfg);
  predictor.push_return(0x1111);
  auto prediction = predictor.predict_indirect(0x9000, /*is_return=*/true);
  EXPECT_FALSE(prediction.used_ras);
  EXPECT_FALSE(prediction.btb_hit);
  predictor.update_jump(0x9000, 0x2222);
  prediction = predictor.predict_indirect(0x9000, true);
  EXPECT_FALSE(prediction.used_ras);
  EXPECT_TRUE(prediction.btb_hit);
  EXPECT_EQ(prediction.target, 0x2222u);
}

TEST(Tournament, BtbConflictsReplace) {
  auto cfg = small_config();
  TournamentPredictor predictor(cfg);
  const Addr pc1 = 0x1000;
  const Addr pc2 = pc1 + cfg.btb_entries * 4;  // same BTB slot.
  predictor.update_jump(pc1, 0xAAAA);
  predictor.update_jump(pc2, 0xBBBB);
  EXPECT_FALSE(predictor.predict_jump(pc1).btb_hit);  // evicted by pc2.
  EXPECT_TRUE(predictor.predict_jump(pc2).btb_hit);
}

TEST(Tournament, LoopBranchWellPredicted) {
  // A loop taken 99 times then not taken once, repeated: global history
  // plus chooser should reach high accuracy.
  TournamentPredictor predictor(small_config());
  const Addr pc = 0x5000;
  int mispredicts = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      const bool taken = i != 19;
      const auto prediction = predictor.predict_branch(pc);
      if (round > 5 && prediction.taken != taken) ++mispredicts;
      predictor.update_branch(pc, taken, pc - 64, prediction);
    }
  }
  // At most the loop-exit surprise per round after warmup.
  EXPECT_LE(mispredicts, 30);
}

void mix_prediction(Fnv1a64& hash, const BranchPrediction& prediction) {
  hash.mix_byte(prediction.taken ? 1 : 0);
  hash.mix_byte(prediction.btb_hit ? 1 : 0);
  hash.mix_u64(prediction.target);
  hash.mix_byte(prediction.used_ras ? 1 : 0);
}

/// Drives a seeded 20,000-op stream through a predictor built from
/// `config` and hashes every prediction and, after each op, the three
/// counters. The stream aliases pcs (977 distinct, so BTB and table
/// indices collide) and mixes conditional branches, direct jumps,
/// indirect jumps and returns, return pushes and target mispredicts.
std::uint64_t prediction_hash(const BranchPredictorConfig& config) {
  TournamentPredictor predictor(config);
  Fnv1a64 hash;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = next();
    const Addr pc = 0x1000 + (r % 977) * 4;
    const Addr target = 0x40000 + (r % 613) * 4;
    switch (next() % 5) {
      case 0: {
        const bool taken = (next() & 1) != 0;
        const auto prediction = predictor.predict_branch(pc);
        mix_prediction(hash, prediction);
        predictor.update_branch(pc, taken, target, prediction);
        break;
      }
      case 1:
        mix_prediction(hash, predictor.predict_jump(pc));
        predictor.update_jump(pc, target);
        break;
      case 2: {
        const bool is_return = (next() & 1) != 0;
        mix_prediction(hash, predictor.predict_indirect(pc, is_return));
        predictor.update_jump(pc, target);
        break;
      }
      case 3:
        predictor.push_return(pc + 4);
        break;
      case 4:
        predictor.note_target_mispredict();
        break;
    }
    hash.mix_u64(predictor.direction_mispredicts());
    hash.mix_u64(predictor.target_mispredicts());
    hash.mix_u64(predictor.lookups());
  }
  return hash.value();
}

TEST(Tournament, GoldenPredictions) {
  // The main core's mispredict penalties, and so every artifact's cycle
  // counts, follow from these predictions: a predictor change that is
  // meant to keep bytes must leave every field and counter identical.
  EXPECT_EQ(prediction_hash(small_config()), 0xE9D82A6DAF705FC4ULL);
  EXPECT_EQ(prediction_hash(BranchPredictorConfig{}), 0xA23A06A0173BDC37ULL);
}

}  // namespace
}  // namespace paradet::sim

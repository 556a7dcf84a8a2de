// Tests for the tournament branch predictor, BTB and RAS, and for the
// pluggable sim::FrontEnd that generalises them: per-variant direction
// behaviour (gshare / bimodal / always-taken) and the tournament
// variant's state-for-state equivalence with the legacy
// TournamentPredictor.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/config.h"
#include "sim/branch_predictor.h"
#include "sim/frontend.h"

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

BranchPredictorConfig variant_config(FrontEndKind kind) {
  BranchPredictorConfig cfg = small_config();
  cfg.kind = kind;
  return cfg;
}

/// Measures direction accuracy of `frontend` on strict alternation after
/// a warmup phase at the same pc.
int alternation_accuracy(FrontEnd& frontend, Addr pc) {
  bool taken = false;
  for (int i = 0; i < 200; ++i) {
    const auto prediction = frontend.predict_branch(pc);
    frontend.update_branch(pc, taken, 0x3000, prediction);
    taken = !taken;
  }
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    const auto prediction = frontend.predict_branch(pc);
    if (prediction.taken == taken) ++correct;
    frontend.update_branch(pc, taken, 0x3000, prediction);
    taken = !taken;
  }
  return correct;
}

TEST(FrontEndVariants, AlwaysTakenIgnoresOutcomes) {
  FrontEnd frontend(variant_config(FrontEndKind::kAlwaysTaken));
  const Addr pc = 0x1000;
  for (int i = 0; i < 50; ++i) {
    const auto prediction = frontend.predict_branch(pc);
    EXPECT_TRUE(prediction.taken);
    frontend.update_branch(pc, false, 0x2000, prediction);  // never taken.
  }
  EXPECT_TRUE(frontend.predict_branch(pc).taken);
  // Every one of those resolutions was a mispredict.
  EXPECT_EQ(frontend.direction_mispredicts(), 50u);
}

TEST(FrontEndVariants, BimodalLearnsBiasButNotHistory) {
  FrontEnd frontend(variant_config(FrontEndKind::kBimodal));
  const Addr biased = 0x1000;
  for (int i = 0; i < 20; ++i) {
    const auto prediction = frontend.predict_branch(biased);
    frontend.update_branch(biased, true, 0x2000, prediction);
  }
  EXPECT_TRUE(frontend.predict_branch(biased).taken);
  // A history-free 2-bit counter cannot track strict alternation: it
  // saturates toward one side and is right at most half the time.
  EXPECT_LE(alternation_accuracy(frontend, 0x5000), 28);
}

TEST(FrontEndVariants, GshareLearnsAlternationViaGlobalHistory) {
  FrontEnd frontend(variant_config(FrontEndKind::kGshare));
  EXPECT_GE(alternation_accuracy(frontend, 0x5000), 36);
}

TEST(FrontEndVariants, TargetPathIsSharedAcrossVariants) {
  // BTB and RAS live in FrontEnd itself, not the direction model: even
  // always-taken predicts trained targets.
  FrontEnd frontend(variant_config(FrontEndKind::kAlwaysTaken));
  frontend.update_jump(0x4000, 0x7777);
  EXPECT_TRUE(frontend.predict_jump(0x4000).btb_hit);
  EXPECT_EQ(frontend.predict_jump(0x4000).target, 0x7777u);
  frontend.push_return(0x1234);
  const auto prediction = frontend.predict_indirect(0x9000, true);
  EXPECT_TRUE(prediction.used_ras);
  EXPECT_EQ(prediction.target, 0x1234u);
}

TEST(FrontEnd, RasWrapsAtCapacity) {
  FrontEnd frontend(variant_config(FrontEndKind::kTournament));  // 4-deep.
  for (Addr a = 1; a <= 6; ++a) frontend.push_return(a * 0x10);
  for (Addr expect : {0x60u, 0x50u, 0x40u, 0x30u}) {
    const auto prediction = frontend.predict_indirect(0x9000, true);
    EXPECT_EQ(prediction.target, expect);
  }
}

TEST(FrontEnd, RasDepthZeroFallsBackToBtb) {
  // The "no RAS" ablation point: pushes are no-ops and returns predict
  // through the BTB like any other indirect.
  BranchPredictorConfig cfg = small_config();
  cfg.ras_entries = 0;
  FrontEnd frontend(cfg);
  frontend.push_return(0x1111);
  auto prediction = frontend.predict_indirect(0x9000, /*is_return=*/true);
  EXPECT_FALSE(prediction.used_ras);
  EXPECT_FALSE(prediction.btb_hit);
  frontend.update_jump(0x9000, 0x2222);
  prediction = frontend.predict_indirect(0x9000, true);
  EXPECT_FALSE(prediction.used_ras);
  EXPECT_TRUE(prediction.btb_hit);
  EXPECT_EQ(prediction.target, 0x2222u);
}

TEST(FrontEnd, BtbConflictsReplace) {
  const auto cfg = small_config();
  FrontEnd frontend(cfg);
  const Addr pc1 = 0x1000;
  const Addr pc2 = pc1 + cfg.btb_entries * 4;  // same BTB slot.
  frontend.update_jump(pc1, 0xAAAA);
  frontend.update_jump(pc2, 0xBBBB);
  EXPECT_FALSE(frontend.predict_jump(pc1).btb_hit);  // evicted by pc2.
  EXPECT_TRUE(frontend.predict_jump(pc2).btb_hit);
}

TEST(FrontEnd, TournamentVariantMatchesLegacyPredictorRandomized) {
  // The headline byte-identity claim at component level: the default
  // FrontEnd and the legacy TournamentPredictor walked through the same
  // randomized op stream must agree on every prediction and counter.
  TournamentPredictor legacy(small_config());
  FrontEnd frontend(variant_config(FrontEndKind::kTournament));
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = next();
    const Addr pc = 0x1000 + (r % 977) * 4;  // deliberately aliasing pcs.
    const Addr target = 0x40000 + (r % 613) * 4;
    switch (next() % 5) {
      case 0: {
        const bool taken = (next() & 1) != 0;
        const auto a = legacy.predict_branch(pc);
        const auto b = frontend.predict_branch(pc);
        ASSERT_EQ(a.taken, b.taken) << "op " << i;
        ASSERT_EQ(a.btb_hit, b.btb_hit) << "op " << i;
        ASSERT_EQ(a.target, b.target) << "op " << i;
        legacy.update_branch(pc, taken, target, a);
        frontend.update_branch(pc, taken, target, b);
        break;
      }
      case 1: {
        const auto a = legacy.predict_jump(pc);
        const auto b = frontend.predict_jump(pc);
        ASSERT_EQ(a.btb_hit, b.btb_hit) << "op " << i;
        ASSERT_EQ(a.target, b.target) << "op " << i;
        legacy.update_jump(pc, target);
        frontend.update_jump(pc, target);
        break;
      }
      case 2: {
        const bool is_return = (next() & 1) != 0;
        const auto a = legacy.predict_indirect(pc, is_return);
        const auto b = frontend.predict_indirect(pc, is_return);
        ASSERT_EQ(a.used_ras, b.used_ras) << "op " << i;
        ASSERT_EQ(a.btb_hit, b.btb_hit) << "op " << i;
        ASSERT_EQ(a.target, b.target) << "op " << i;
        legacy.update_jump(pc, target);
        frontend.update_jump(pc, target);
        break;
      }
      case 3:
        legacy.push_return(pc + 4);
        frontend.push_return(pc + 4);
        break;
      case 4:
        legacy.note_target_mispredict();
        frontend.note_target_mispredict();
        break;
    }
    ASSERT_EQ(legacy.direction_mispredicts(), frontend.direction_mispredicts());
    ASSERT_EQ(legacy.target_mispredicts(), frontend.target_mispredicts());
    ASSERT_EQ(legacy.lookups(), frontend.lookups());
  }
}

}  // namespace
}  // namespace paradet::sim

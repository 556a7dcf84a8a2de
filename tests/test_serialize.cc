// Writer tests for runtime/serialize: the exact canonical-JSON bytes of
// the statistics types, RunResults and the versioned campaign artifact.
// Doubles use the shortest form that parses back bit-exactly, and
// write_artifact_file writes exactly to_json's bytes.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "runtime/campaign.h"
#include "runtime/serialize.h"

namespace paradet::runtime {
namespace {

// A RunResult with every field (optionals included) populated with
// awkward values, derived deterministically from `seed`.
sim::RunResult make_rich_result(std::uint64_t seed) {
  SplitMix64 rng(seed);
  sim::RunResult r;
  r.exit_trap = arch::Trap::kHalt;
  r.instructions = rng.next();
  r.uops = rng.next();
  for (unsigned i = 0; i < kNumIntRegs; ++i) r.final_state.x[i] = rng.next();
  for (unsigned i = 0; i < kNumFpRegs; ++i) r.final_state.f[i] = rng.next();
  r.final_state.pc = rng.next();
  r.main_done_cycle = rng.next();
  r.all_checked_cycle = rng.next();
  r.ipc = rng.next_double() * 3.0;
  r.error_detected = true;

  core::DetectionEvent event;
  event.kind = core::DetectionKind::kStoreValueMismatch;
  event.segment_ordinal = rng.next();
  event.segment_index = static_cast<unsigned>(rng.next_below(12));
  event.around_seq = rng.next();
  event.pc = rng.next();
  event.expected = rng.next();
  event.actual = rng.next();
  event.reg = static_cast<int>(rng.next_below(64)) - 1;  // may be -1.
  event.detected_at = rng.next();
  r.first_error = event;

  core::RegisterCheckpoint checkpoint;
  for (unsigned i = 0; i < kNumIntRegs; ++i) checkpoint.state.x[i] = rng.next();
  for (unsigned i = 0; i < kNumFpRegs; ++i) checkpoint.state.f[i] = rng.next();
  checkpoint.state.pc = rng.next();
  checkpoint.seq = rng.next();
  checkpoint.taken_at = rng.next();
  r.recovery_checkpoint = checkpoint;

  r.delay_ns = Histogram(50.0, 100);
  for (int i = 0; i < 200; ++i) {
    r.delay_ns.add(rng.next_double() * 7000.0);  // some land in overflow.
  }
  r.segments = rng.next();
  r.seals_full = rng.next();
  r.seals_timeout = rng.next();
  r.seals_interrupt = rng.next();
  r.seals_drain = rng.next();
  r.checkpoints_taken = rng.next();
  r.checkpoint_stall_cycles = rng.next();
  r.log_full_stall_cycles = rng.next();
  r.mem_digest = rng.next();
  r.counters.inc("l1d.hits", rng.next());
  r.counters.inc("l1d.misses", rng.next());
  r.counters.inc("bp.mispredicts", rng.next());
  r.counters.inc("weird \"name\"\twith\\escapes", 7);
  return r;
}

CampaignArtifact make_artifact() {
  CampaignArtifact artifact;
  artifact.seed = 0xC0FFEE;
  artifact.tasks = 3;
  for (std::uint64_t index = 0; index < artifact.tasks; ++index) {
    artifact.runs.push_back({index, make_rich_result(1000 + index)});
  }
  for (const TaskRecord& record : artifact.runs) {
    artifact.aggregate.absorb(record.result);
  }
  return artifact;
}

TEST(Serialize, EmptySummaryWritesInfiniteSentinels) {
  EXPECT_EQ(to_json(Summary{}),
            R"({"count":0,"sum":0,"min":"inf","max":"-inf"})");
}

TEST(Serialize, DoublesWriteTheirShortestRoundTripForm) {
  for (const double x :
       {0.1, 2.0 / 3.0, 1e-300, 4.9406564584124654e-324 /* min denormal */,
        1.7976931348623157e308 /* max double */, 123456789.123456789,
        -0.0}) {
    sim::RunResult r;
    r.ipc = x;
    const std::string text = to_json(r);
    const std::size_t begin = text.find("\"ipc\":") + 6;
    const std::size_t end = text.find(',', begin);
    ASSERT_NE(end, std::string::npos) << text;
    const std::string written = text.substr(begin, end - begin);

    char shortest[32];
    const auto printed = std::to_chars(shortest, shortest + sizeof shortest, x);
    EXPECT_EQ(written, std::string(shortest, printed.ptr));

    double back = 1.0;
    const auto parsed =
        std::from_chars(written.data(), written.data() + written.size(), back);
    EXPECT_EQ(parsed.ec, std::errc{});
    EXPECT_EQ(parsed.ptr, written.data() + written.size());
    // Bit-level equality, not ==: distinguishes -0.0 from 0.0.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(x))
        << written;
  }
}

TEST(Serialize, CountersKeepInsertionOrderAndEscapeNames) {
  Counters c;
  c.inc("zebra", 3);
  c.inc("alpha", 1);
  c.inc("zebra", 2);
  c.inc("quote\"backslash\\tab\tnewline\n", 9);
  EXPECT_EQ(to_json(c),
            R"([["zebra",5],["alpha",1],)"
            R"(["quote\"backslash\\tab\u0009newline\u000a",9]])");
}

TEST(Serialize, RunResultBytesArePinned) {
  // Every field, optionals included, hashed: the RunResult encoding is
  // what each artifact run line holds, and it must not move.
  EXPECT_EQ(fnv1a64(to_json(make_rich_result(7))), 9590011070808342208ULL);
}

TEST(Serialize, ArtifactHeaderThenOneRunPerLine) {
  const CampaignArtifact artifact = make_artifact();
  const std::string text = to_json(artifact);
  const std::string header =
      R"({"format":"paradet-campaign","version":5,"seed":12648430,)"
      R"("tasks":3,"aggregate":)";
  ASSERT_EQ(text.substr(0, header.size()), header);
  EXPECT_EQ(text.substr(header.size(),
                        to_json(artifact.aggregate).size()),
            to_json(artifact.aggregate));

  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line.substr(line.size() - 9), R"(,"runs":[)");
  for (const TaskRecord& record : artifact.runs) {
    ASSERT_TRUE(std::getline(lines, line));
    const bool last = record.index + 1 == artifact.tasks;
    EXPECT_EQ(line, R"({"index":)" + std::to_string(record.index) +
                        R"(,"result":)" + to_json(record.result) +
                        (last ? "}]}" : "},"));
  }
  EXPECT_FALSE(std::getline(lines, line));
  EXPECT_EQ(text.back(), '\n');
}

TEST(Serialize, ArtifactFileHoldsExactlyTheJsonBytes) {
  const CampaignArtifact artifact = make_artifact();
  const std::string path =
      testing::TempDir() + "/paradet_serialize_artifact.json";
  write_artifact_file(path, artifact);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), to_json(artifact));
  std::remove(path.c_str());

  EXPECT_THROW(write_artifact_file("/nonexistent/paradet.json", artifact),
               std::runtime_error);
}

}  // namespace
}  // namespace paradet::runtime

// Round-trip property tests for runtime/serialize: serialize→deserialize
// is the identity — exact, bit-level identity, doubles included — for
// every statistics type and for full RunResults, and the versioned
// artifact reader rejects unknown or malformed input with a clear error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

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
  artifact.tasks = 9;
  artifact.shard = ShardSpec{1, 3};  // owns 1, 4, 7.
  for (const std::uint64_t index : {1u, 4u, 7u}) {
    artifact.runs.push_back({index, make_rich_result(1000 + index)});
  }
  for (const TaskRecord& record : artifact.runs) {
    artifact.aggregate.absorb(record.result);
  }
  return artifact;
}

TEST(Serialize, SummaryRoundTripIsIdentity) {
  Summary s;
  for (const double x : {0.1, 1.0 / 3.0, 1e-300, 6.62607015e-34, 3.5e18}) {
    s.add(x);
  }
  const Summary back = summary_from_json(to_json(s));
  EXPECT_EQ(back.count(), s.count());
  EXPECT_EQ(back.sum(), s.sum());
  EXPECT_EQ(back.min(), s.min());
  EXPECT_EQ(back.max(), s.max());
  EXPECT_EQ(to_json(back), to_json(s));
}

TEST(Serialize, EmptySummaryKeepsInfiniteSentinels) {
  const Summary s;
  const std::string text = to_json(s);
  EXPECT_NE(text.find("\"inf\""), std::string::npos);
  EXPECT_NE(text.find("\"-inf\""), std::string::npos);
  Summary back = summary_from_json(text);
  EXPECT_EQ(back.count(), 0u);
  // The sentinels survive the trip: merging afterwards still works.
  Summary other;
  other.add(42.0);
  back.merge(other);
  EXPECT_EQ(back.min(), 42.0);
  EXPECT_EQ(back.max(), 42.0);
}

TEST(Serialize, HistogramRoundTripIsIdentity) {
  Histogram h(50.0, 20);
  SplitMix64 rng(17);
  for (int i = 0; i < 500; ++i) h.add(rng.next_double() * 1500.0);
  const Histogram back = histogram_from_json(to_json(h));
  ASSERT_EQ(back.bins(), h.bins());
  EXPECT_EQ(back.bin_width(), h.bin_width());
  EXPECT_EQ(back.overflow(), h.overflow());
  for (std::size_t i = 0; i < h.bins(); ++i) {
    EXPECT_EQ(back.bin_count(i), h.bin_count(i));
  }
  EXPECT_EQ(back.summary().sum(), h.summary().sum());
  EXPECT_EQ(to_json(back), to_json(h));

  const Histogram empty;
  EXPECT_EQ(to_json(histogram_from_json(to_json(empty))), to_json(empty));
}

TEST(Serialize, CountersRoundTripPreservesInsertionOrder) {
  Counters c;
  c.inc("zebra", 3);
  c.inc("alpha", 1);
  c.inc("zebra", 2);
  c.inc("quote\"backslash\\tab\tnewline\n", 9);
  const Counters back = counters_from_json(to_json(c));
  EXPECT_EQ(back.entries(), c.entries());  // order included, not just values.
  EXPECT_EQ(to_json(back), to_json(c));
}

TEST(Serialize, RunResultRoundTripIsIdentity) {
  const sim::RunResult r = make_rich_result(0xFEED);
  const sim::RunResult back = run_result_from_json(to_json(r));

  EXPECT_EQ(back.exit_trap, r.exit_trap);
  EXPECT_EQ(back.instructions, r.instructions);
  EXPECT_EQ(back.uops, r.uops);
  EXPECT_EQ(back.final_state, r.final_state);  // full ArchState equality.
  EXPECT_EQ(back.main_done_cycle, r.main_done_cycle);
  EXPECT_EQ(back.all_checked_cycle, r.all_checked_cycle);
  EXPECT_EQ(back.mem_digest, r.mem_digest);
  EXPECT_EQ(back.ipc, r.ipc);
  EXPECT_EQ(back.error_detected, r.error_detected);
  ASSERT_TRUE(back.first_error.has_value());
  EXPECT_EQ(back.first_error->kind, r.first_error->kind);
  EXPECT_EQ(back.first_error->segment_ordinal, r.first_error->segment_ordinal);
  EXPECT_EQ(back.first_error->reg, r.first_error->reg);
  EXPECT_EQ(back.first_error->detected_at, r.first_error->detected_at);
  ASSERT_TRUE(back.recovery_checkpoint.has_value());
  EXPECT_EQ(*back.recovery_checkpoint, *r.recovery_checkpoint);
  EXPECT_EQ(back.counters.entries(), r.counters.entries());
  EXPECT_EQ(to_json(back), to_json(r));
}

TEST(Serialize, RunResultWithEmptyOptionalsRoundTrips) {
  sim::RunResult r;  // defaults: no error, no checkpoint, empty histogram.
  const sim::RunResult back = run_result_from_json(to_json(r));
  EXPECT_FALSE(back.first_error.has_value());
  EXPECT_FALSE(back.recovery_checkpoint.has_value());
  EXPECT_EQ(to_json(back), to_json(r));
}

TEST(Serialize, AggregateRoundTripIsIdentity) {
  CampaignAggregate aggregate;
  for (std::uint64_t i = 0; i < 5; ++i) {
    aggregate.absorb(make_rich_result(i));
  }
  const CampaignAggregate back = aggregate_from_json(to_json(aggregate));
  EXPECT_EQ(back.runs, aggregate.runs);
  EXPECT_EQ(back.errors_detected, aggregate.errors_detected);
  EXPECT_EQ(back.instructions, aggregate.instructions);
  EXPECT_EQ(back.segments, aggregate.segments);
  EXPECT_EQ(back.main_cycles.sum(), aggregate.main_cycles.sum());
  EXPECT_EQ(to_json(back), to_json(aggregate));
}

TEST(Serialize, ArtifactRoundTripIsIdentity) {
  const CampaignArtifact artifact = make_artifact();
  const CampaignArtifact back = artifact_from_json(to_json(artifact));
  EXPECT_EQ(back.seed, artifact.seed);
  EXPECT_EQ(back.tasks, artifact.tasks);
  EXPECT_EQ(back.shard, artifact.shard);
  ASSERT_EQ(back.runs.size(), artifact.runs.size());
  for (std::size_t i = 0; i < back.runs.size(); ++i) {
    EXPECT_EQ(back.runs[i].index, artifact.runs[i].index);
  }
  EXPECT_EQ(to_json(back), to_json(artifact));
}

TEST(Serialize, ArtifactFileRoundTripIsIdentity) {
  const CampaignArtifact artifact = make_artifact();
  const std::string path =
      testing::TempDir() + "/paradet_serialize_roundtrip.json";
  write_artifact_file(path, artifact);
  const CampaignArtifact back = read_artifact_file(path);
  EXPECT_EQ(to_json(back), to_json(artifact));
  std::remove(path.c_str());
}

/// make_artifact()'s bytes with the header's version set to `version`.
std::string artifact_json_at_version(std::uint64_t version) {
  std::string text = to_json(make_artifact());
  const std::string needle =
      "\"version\":" + std::to_string(kArtifactFormatVersion);
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, needle.size(),
                      "\"version\":" + std::to_string(version));
}

/// Expects `artifact_from_json(text)` to throw naming "version N".
void expect_version_error(const std::string& text, std::uint64_t version) {
  try {
    artifact_from_json(text);
    ADD_FAILURE() << "expected a version error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version)),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, UnknownVersionIsRejectedWithAClearError) {
  expect_version_error(artifact_json_at_version(99), 99);
}

TEST(Serialize, PreDigestVersion1ArtifactsAreRejected) {
  // Version-1 artifacts predate mem_digest; reading one as all-zero
  // digests would silently misclassify faults, so the reader refuses.
  expect_version_error(artifact_json_at_version(1), 1);
}

TEST(Serialize, Version2ArtifactsAreRejected) {
  // Version-2 digests come from the old page hash and match no clean run
  // of this build, so every masked strike would read as silent corruption.
  // (scripts/shard_smoke_test.sh checks that merge_results names the file.)
  expect_version_error(artifact_json_at_version(2), 2);
}

TEST(Serialize, Version3ArtifactsAreRejected) {
  // Version-3 digests are XOR-combined per-page hashes; this build's are a
  // running XOR of per-word terms, so they never compare equal either.
  expect_version_error(artifact_json_at_version(3), 3);
}

TEST(Serialize, WrongFormatAndMalformedInputAreRejected) {
  EXPECT_THROW(artifact_from_json("{\"format\":\"something-else\"}"),
               std::runtime_error);
  EXPECT_THROW(artifact_from_json("{\"version\":1}"), std::runtime_error);
  EXPECT_THROW(artifact_from_json("not json at all"), std::runtime_error);
  std::string truncated = to_json(make_artifact());
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(artifact_from_json(truncated), std::runtime_error);
  EXPECT_THROW(read_artifact_file("/nonexistent/paradet.json"),
               std::runtime_error);
  // Hostile nesting is a catchable error, not a stack overflow.
  EXPECT_THROW(artifact_from_json(std::string(200'000, '[')),
               std::runtime_error);
}

TEST(Serialize, TamperedBitmapIsRejected) {
  std::string text = to_json(make_artifact());
  // Artifact owns tasks {1,4,7} of 9 → bitmap bytes {0x92, 0x00} → "9200".
  const std::string needle = "\"completed\":\"9200\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << text.substr(0, 200);
  std::string tampered = text;
  tampered.replace(at, needle.size(), "\"completed\":\"9300\"");
  EXPECT_THROW(artifact_from_json(tampered), std::runtime_error);
}

TEST(Serialize, DoublesRoundTripExactly) {
  for (const double x :
       {0.1, 2.0 / 3.0, 1e-300, 4.9406564584124654e-324 /* min denormal */,
        1.7976931348623157e308 /* max double */, 123456789.123456789,
        -0.0}) {
    Summary s = Summary::from_raw(1, x, x, x);
    const Summary back = summary_from_json(to_json(s));
    // Bit-level equality, not ==: distinguishes -0.0 from 0.0.
    EXPECT_EQ(std::signbit(back.sum()), std::signbit(s.sum()));
    EXPECT_EQ(back.sum(), s.sum());
    EXPECT_EQ(to_json(back), to_json(s));
  }
}

}  // namespace
}  // namespace paradet::runtime

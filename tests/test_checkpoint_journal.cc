// The checkpoint journal — one append-only file per checkpoint — proven
// at the failure boundaries the design exists for: a crash mid-append
// (torn final line) truncates cleanly and resumes; a resume re-runs
// exactly the unfinished tasks and reproduces the uninterrupted campaign's
// artifact byte for byte; a finished checkpoint re-runs nothing; and a
// file at the checkpoint path that is not this slice's journal (an
// artifact, a cut-short header) or that records a task twice is refused
// loudly, never truncated or overwritten.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/campaign.h"
#include "runtime/canonical_json.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"

namespace paradet::runtime {
namespace {

constexpr std::size_t kTasks = 48;
constexpr std::uint64_t kSeed = 0x10A7;

/// A cheap, fully deterministic stand-in for a simulation: every field a
/// pure function of the task seed, so byte-identity checks carry exactly
/// as they would for real RunResults (which test_shard_merge covers).
sim::RunResult synthetic_result(std::uint64_t seed) {
  SplitMix64 rng(seed);
  sim::RunResult r;
  r.instructions = rng.next() % 100'000;
  r.uops = rng.next() % 200'000;
  r.main_done_cycle = rng.next() % 1'000'000 + 1;
  r.all_checked_cycle = r.main_done_cycle + rng.next() % 1'000;
  r.ipc = rng.next_double() * 3.0;
  r.error_detected = (rng.next() & 1) != 0;
  r.segments = rng.next() % 50;
  r.delay_ns = Histogram(50.0, 20);
  for (int k = 0; k < 5; ++k) r.delay_ns.add(rng.next_double() * 1200.0);
  r.counters.inc("synthetic.ticks", rng.next() % 1000);
  return r;
}

sim::RunResult synthetic_task(std::size_t, std::uint64_t task_seed) {
  return synthetic_result(task_seed);
}

/// The uninterrupted unsharded artifact's bytes: the ground truth every
/// crashed/resumed variant must reproduce.
const std::string& reference_json() {
  static const std::string* text = [] {
    const Campaign campaign(kTasks, kSeed);
    CampaignRunOptions options;
    return new std::string(to_json(
        campaign.run_sharded(ParallelRunner(1), options, synthetic_task)));
  }();
  return *text;
}

/// A temp checkpoint path with nothing stale at it.
std::string fresh_path(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string text;
  if (f == nullptr) return text;
  char buf[1 << 12];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<std::uint64_t>(size);
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

void truncate_to(const std::string& path, std::uint64_t size) {
  const std::string text = read_file(path);
  ASSERT_LE(size, text.size());
  write_file(path, text.substr(0, size));
}

JournalHeader header_for(const Campaign& campaign,
                         ShardSpec shard = ShardSpec{}) {
  return JournalHeader{campaign.seed(), campaign.tasks(), 0, shard};
}

// --- The journal file itself -----------------------------------------------

TEST(CheckpointJournal, AppendReplayRoundTripsRecords) {
  const std::string journal = fresh_path("journal_roundtrip.json");
  const JournalHeader header{kSeed, kTasks, 0x50FA, ShardSpec{1, 3}};

  std::vector<TaskRecord> written;
  {
    JournalWriter writer(journal, header);
    for (const std::uint64_t index : {1u, 7u, 4u}) {  // append order ≠ sorted.
      TaskRecord record{index, synthetic_result(900 + index)};
      writer.append(record);
      written.push_back(std::move(record));
    }
  }
  const JournalReplay replay = replay_journal_file(journal, header);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replay.records[i].index, written[i].index);
    EXPECT_EQ(to_json(replay.records[i].result), to_json(written[i].result));
  }
  std::remove(journal.c_str());
}

TEST(CheckpointJournal, MissingJournalReplaysEmpty) {
  const JournalReplay replay = replay_journal_file(
      fresh_path("journal_missing.json"), JournalHeader{});
  EXPECT_FALSE(replay.found);
  EXPECT_TRUE(replay.records.empty());
}

TEST(CheckpointJournal, TornTailIsTruncatedInPlaceAndAppendable) {
  const std::string journal = fresh_path("journal_torn.json");
  const JournalHeader header{kSeed, kTasks, 0, ShardSpec{}};

  {
    JournalWriter writer(journal, header);
    writer.append({0, synthetic_result(1)});
    writer.append({1, synthetic_result(2)});
  }
  const std::uint64_t intact_size = file_size(journal);

  // A crash mid-append leaves a checksum-framed prefix with no newline.
  append_raw(journal, "a1b2c3d4e5f60718 {\"index\":2,\"result\":{\"trunc");
  JournalReplay replay = replay_journal_file(journal, header);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_GT(replay.dropped_bytes, 0u);
  EXPECT_EQ(file_size(journal), intact_size);  // tail gone from disk too.

  // The truncated file keeps accepting appends and replays all three.
  {
    JournalWriter writer(journal, header);
    writer.append({2, synthetic_result(3)});
  }
  replay = replay_journal_file(journal, header);
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  std::remove(journal.c_str());
}

TEST(CheckpointJournal, TornBytesMidFinalRecordAreDropped) {
  const std::string journal = fresh_path("journal_torn_mid.json");
  const JournalHeader header{kSeed, kTasks, 0, ShardSpec{}};
  {
    JournalWriter writer(journal, header);
    writer.append({0, synthetic_result(1)});
    writer.append({1, synthetic_result(2)});
  }
  truncate_to(journal, file_size(journal) - 9);  // cut into the last line.
  const JournalReplay replay = replay_journal_file(journal, header);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].index, 0u);
  EXPECT_GT(replay.dropped_bytes, 0u);
  std::remove(journal.c_str());
}

TEST(CheckpointJournal, CorruptInteriorRecordThrows) {
  const std::string journal = fresh_path("journal_corrupt.json");
  const JournalHeader header{kSeed, kTasks, 0, ShardSpec{}};
  {
    JournalWriter writer(journal, header);
    writer.append({0, synthetic_result(1)});
    writer.append({1, synthetic_result(2)});
  }
  // Flip one payload byte of the *first* record: a bad line with intact
  // lines after it is corruption, not a torn append.
  std::string text = read_file(journal);
  const std::size_t record_start = text.find('\n') + 1;
  text[record_start + 30] ^= 0x01;
  write_file(journal, text);

  EXPECT_THROW(replay_journal_file(journal, header), std::runtime_error);
  std::remove(journal.c_str());
}

TEST(CheckpointJournal, ForeignJournalHeaderIsRejected) {
  const std::string journal = fresh_path("journal_foreign.json");
  const JournalHeader theirs{kSeed + 1, kTasks, 0, ShardSpec{}};
  { JournalWriter writer(journal, theirs); }
  const JournalHeader ours{kSeed, kTasks, 0, ShardSpec{}};
  EXPECT_THROW(replay_journal_file(journal, ours), std::runtime_error);
  std::remove(journal.c_str());
}

// --- load_checkpoint_state -------------------------------------------------

TEST(CheckpointJournal, TaskRecordedTwiceIsRejected) {
  // Every completion is appended exactly once, so a repeated index can
  // only be damage; resuming from it would double-count the task.
  const std::string ckpt = fresh_path("journal_duplicate.json");
  const Campaign campaign(6, kSeed);
  {
    JournalWriter writer(ckpt, header_for(campaign));
    writer.append({0, synthetic_result(0)});
    writer.append({2, synthetic_result(2)});
    writer.append({0, synthetic_result(0)});
  }
  CampaignArtifact state;
  EXPECT_THROW(load_checkpoint_state(ckpt, header_for(campaign), &state),
               std::runtime_error);
  CampaignRunOptions options;
  options.checkpoint_path = ckpt;
  EXPECT_THROW(
      campaign.run_sharded(ParallelRunner(1), options, synthetic_task),
      std::runtime_error);
  std::remove(ckpt.c_str());
}

TEST(CheckpointJournal, JournalRecordOutsideTheSliceIsRejected) {
  const std::string ckpt = fresh_path("journal_foreign_record.json");
  const Campaign campaign(8, kSeed);
  const JournalHeader header = header_for(campaign, ShardSpec{0, 2});
  {
    JournalWriter writer(ckpt, header);
    writer.append({3, synthetic_result(3)});  // 3 % 2 != 0: not shard 0's.
  }
  CampaignArtifact state;
  EXPECT_THROW(load_checkpoint_state(ckpt, header, &state),
               std::runtime_error);
  std::remove(ckpt.c_str());
}

// --- End-to-end campaign recovery ------------------------------------------

/// Runs the campaign with a task that throws after `crash_after`
/// completions, leaving whatever checkpoint state accumulated on disk.
void crash_campaign(const Campaign& campaign, const CampaignRunOptions& options,
                    unsigned crash_after) {
  std::atomic<unsigned> launched{0};
  EXPECT_THROW(
      campaign.run_sharded(ParallelRunner(1), options,
                           [&](std::size_t i, std::uint64_t seed) {
                             if (launched.fetch_add(1) >= crash_after) {
                               throw std::runtime_error("injected crash");
                             }
                             return synthetic_task(i, seed);
                           }),
      std::runtime_error);
}

TEST(CheckpointJournal, CrashResumeMatchesUninterrupted) {
  const std::string ckpt = fresh_path("journal_resume.json");
  const Campaign campaign(kTasks, kSeed);
  CampaignRunOptions options;
  options.checkpoint_path = ckpt;

  constexpr unsigned kCrashAfter = 17;
  crash_campaign(campaign, options, kCrashAfter);

  std::atomic<unsigned> resumed{0};
  const CampaignArtifact artifact = campaign.run_sharded(
      ParallelRunner(1), options, [&](std::size_t i, std::uint64_t seed) {
        ++resumed;
        return synthetic_task(i, seed);
      });
  EXPECT_EQ(resumed.load(), kTasks - kCrashAfter);
  EXPECT_EQ(to_json(artifact), reference_json());
  std::remove(ckpt.c_str());
}

TEST(CheckpointJournal, CrashMidAppendResumesAndRerunsTheTornTask) {
  const std::string ckpt = fresh_path("journal_torn_resume.json");
  const Campaign campaign(kTasks, kSeed);
  CampaignRunOptions options;
  options.checkpoint_path = ckpt;

  constexpr unsigned kCrashAfter = 12;
  crash_campaign(campaign, options, kCrashAfter);
  // Tear the last append mid-record, as a crash inside fwrite would.
  truncate_to(ckpt, file_size(ckpt) - 25);

  std::atomic<unsigned> resumed{0};
  const CampaignArtifact artifact = campaign.run_sharded(
      ParallelRunner(1), options, [&](std::size_t i, std::uint64_t seed) {
        ++resumed;
        return synthetic_task(i, seed);
      });
  // The torn record's task re-runs (its append never became durable).
  EXPECT_EQ(resumed.load(), kTasks - kCrashAfter + 1);
  EXPECT_EQ(to_json(artifact), reference_json());
  std::remove(ckpt.c_str());
}

TEST(CheckpointJournal, FinishedCheckpointRerunsNothing) {
  const std::string ckpt = fresh_path("journal_finished.json");
  const std::string out = fresh_path("journal_finished_out.json");
  const Campaign campaign(kTasks, kSeed);
  CampaignRunOptions options;
  options.checkpoint_path = ckpt;
  options.out_path = out;
  campaign.run_sharded(ParallelRunner(4), options, synthetic_task);
  const std::string finished = read_file(ckpt);
  std::remove(out.c_str());

  // A complete journal: the re-run simulates nothing, returns and
  // rewrites the reference bytes, and appends nothing.
  std::atomic<unsigned> rerun{0};
  const CampaignArtifact again = campaign.run_sharded(
      ParallelRunner(4), options, [&](std::size_t i, std::uint64_t seed) {
        ++rerun;
        return synthetic_task(i, seed);
      });
  EXPECT_EQ(rerun.load(), 0u);
  EXPECT_EQ(to_json(again), reference_json());
  EXPECT_EQ(read_file(out), reference_json());
  EXPECT_EQ(read_file(ckpt), finished);
  std::remove(ckpt.c_str());
  std::remove(out.c_str());
}

TEST(CheckpointJournal, NonJournalFileIsRefusedAndLeftUntouched) {
  // The checkpoint path is a name the user picks, so it can name any
  // file — the campaign's own --out artifact, say. Anything whose first
  // line is not a journal header must make the run throw, naming the
  // file, and must survive byte for byte: a one-line file must not be
  // mistaken for a torn append and truncated away.
  const Campaign campaign(kTasks, kSeed);
  CampaignArtifact empty;
  empty.seed = kSeed;
  empty.tasks = kTasks;
  const std::string header_line = [&] {
    const std::string path = fresh_path("journal_header_only.json");
    { JournalWriter writer(path, header_for(campaign)); }
    std::string line = read_file(path);
    std::remove(path.c_str());
    return line;
  }();
  const struct {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"multi-run artifact", reference_json()},
      {"zero-run artifact", to_json(empty)},
      {"header cut short", header_line.substr(0, header_line.size() / 2)},
  };
  for (const auto& c : cases) {
    const std::string ckpt = fresh_path("journal_refused.json");
    write_file(ckpt, c.bytes);
    CampaignRunOptions options;
    options.checkpoint_path = ckpt;
    try {
      campaign.run_sharded(ParallelRunner(1), options, synthetic_task);
      ADD_FAILURE() << c.name << ": resumed from a non-journal file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(ckpt), std::string::npos)
          << c.name << ": " << e.what();
    }
    EXPECT_EQ(read_file(ckpt), c.bytes) << c.name;
    std::remove(ckpt.c_str());
  }
}

/// Rewrites a fresh journal's header to `version`, adds one record, and
/// expects resume to refuse it — naming the file and the version — and to
/// leave its bytes alone.
void expect_old_journal_refused(std::uint64_t version) {
  const Campaign campaign(kTasks, kSeed);
  const std::string ckpt =
      fresh_path("journal_v" + std::to_string(version) + ".json");
  { JournalWriter writer(ckpt, header_for(campaign)); }
  const std::string header_line = read_file(ckpt);
  const std::string current =
      "\"version\":" + std::to_string(kJournalFormatVersion) + ",";
  // Strip the "<16 hex checksum> " prefix and the trailing newline.
  std::string payload = header_line.substr(17, header_line.size() - 18);
  const std::size_t at = payload.find(current);
  ASSERT_NE(at, std::string::npos) << payload;
  payload.replace(at, current.size(),
                  "\"version\":" + std::to_string(version) + ",");
  const std::string old = json::checksum_line(payload) +
                          journal_record_line(0, synthetic_result(1));
  write_file(ckpt, old);
  CampaignRunOptions options;
  options.checkpoint_path = ckpt;
  try {
    campaign.run_sharded(ParallelRunner(1), options, synthetic_task);
    ADD_FAILURE() << "resumed from a version-" << version << " journal";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(ckpt), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(version)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(read_file(ckpt), old);
  std::remove(ckpt.c_str());
}

TEST(CheckpointJournal, Version2JournalIsRefusedAndLeftUntouched) {
  // A version-2 journal holds digests of the byte-serial page hash.
  // Resuming it would compare them with this build's clean digest and call
  // every masked strike silent corruption.
  expect_old_journal_refused(2);
}

TEST(CheckpointJournal, Version3JournalIsRefusedAndLeftUntouched) {
  // Version 3's digests are XXH64 page hashes, which no running per-word
  // digest of this build matches.
  expect_old_journal_refused(3);
}

TEST(CheckpointJournal, ShardedCrashResumeStillMergesByteIdentically) {
  // The journal under the full distributed story: every shard crashes
  // once mid-run at a different point, resumes, and the merged artifacts
  // still reproduce the unsharded bytes.
  constexpr std::uint64_t kShards = 3;
  const Campaign campaign(kTasks, kSeed);
  std::vector<CampaignArtifact> shards;
  for (std::uint64_t k = 0; k < kShards; ++k) {
    const std::string ckpt =
        fresh_path("journal_shard_" + std::to_string(k) + ".json");
    CampaignRunOptions options;
    options.shard = ShardSpec{k, kShards};
    options.checkpoint_path = ckpt;
    crash_campaign(campaign, options, static_cast<unsigned>(3 + k));
    shards.push_back(
        campaign.run_sharded(ParallelRunner(2), options, synthetic_task));
    std::remove(ckpt.c_str());
  }
  EXPECT_EQ(to_json(merge_artifacts(std::move(shards))), reference_json());
}

}  // namespace
}  // namespace paradet::runtime

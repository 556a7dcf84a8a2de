// Portable, versioned serialization for campaign results.
//
// A shard's output file and the merge tool's output are one shape —
// CampaignArtifact — written as canonical JSON: fixed key order, fixed
// number formatting (std::to_chars shortest round-trip for doubles, so
// serialize∘deserialize is the identity down to the last bit), and a
// format/version header that readers reject loudly when unknown.
// Canonical bytes are the point: "merging N shard files reproduces the
// single-machine run" is checked with cmp/==, not with tolerances.
//
// A checkpoint is a different file: an append-only journal of completed
// TaskRecords, one checksummed line each, so checkpoint cost over a whole
// campaign is one O(record) append per task — see the journal section
// below.
//
// Non-finite doubles (an empty Summary's min/max are ±inf) are encoded as
// the JSON strings "inf" / "-inf" / "nan"; everything else is plain JSON.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "runtime/campaign.h"
#include "sim/checked_system.h"

namespace paradet::runtime {

inline constexpr const char* kArtifactFormatName = "paradet-campaign";
/// Version 2: RunResult gained "mem_digest" (final-memory digest, used by
/// silent-corruption classification). Version 3: "mem_digest" comes from a
/// new page hash. Version 4: "mem_digest" is a running XOR of per-word
/// terms (docs/formats.md), so old and new values never compare. Older
/// artifacts are rejected loudly: a version-1 digest would read back as
/// zero and a version-2 or version-3 one would match no clean run of this
/// build, and either would silently misclassify.
inline constexpr std::uint64_t kArtifactFormatVersion = 4;

// --- Canonical JSON writers ------------------------------------------------

std::string to_json(const Summary& summary);
std::string to_json(const Histogram& histogram);
std::string to_json(const Counters& counters);
std::string to_json(const sim::RunResult& result);
std::string to_json(const CampaignAggregate& aggregate);
/// The full versioned document (format + version + shard metadata + a
/// completed-task bitmap + aggregate + per-run records), '\n'-terminated.
std::string to_json(const CampaignArtifact& artifact);

// --- Readers (throw std::runtime_error on malformed input) -----------------

Summary summary_from_json(std::string_view text);
Histogram histogram_from_json(std::string_view text);
Counters counters_from_json(std::string_view text);
sim::RunResult run_result_from_json(std::string_view text);
CampaignAggregate aggregate_from_json(std::string_view text);
/// Also validates the header (unknown format/version is rejected with a
/// clear error), the shard spec, run-record ordering/ownership, and that
/// the completed bitmap matches the run records exactly.
CampaignArtifact artifact_from_json(std::string_view text);

// --- Files -----------------------------------------------------------------

/// Writes atomically: a temp file in the same directory, then rename, so a
/// reader (or a crash mid-checkpoint) never observes a torn artifact.
void write_artifact_file(const std::string& path,
                         const CampaignArtifact& artifact);
CampaignArtifact read_artifact_file(const std::string& path);

// --- Append-only checkpoint journal ----------------------------------------
//
// A checkpoint at PATH is one file, appended to and never rewritten:
//
//   <fnv1a64-hex16> SP <payload> LF
//
// per line, where payload is one-line canonical JSON and the checksum
// covers the payload bytes. Line 1's payload is a header naming the
// campaign slice (format/version/seed/tasks/fingerprint/shard); every
// further line is {"index":I,"result":{...}} for one completed task.
//
// Appending a record is O(record); a crash mid-append leaves a torn final
// line whose checksum cannot match, and replay truncates it away (the
// interrupted task simply re-runs). The header is written whole under a
// temp name and renamed into place, so no crash leaves a torn header:
// whatever else sits at PATH — an artifact, a cut-short header, any other
// file — fails the first-line check, and the load throws without
// touching it.

inline constexpr const char* kJournalFormatName = "paradet-campaign-journal";
/// Bumped in lockstep with kArtifactFormatVersion: journal records embed
/// the same RunResult encoding, "mem_digest" included.
inline constexpr std::uint64_t kJournalFormatVersion = 4;

/// Identity of the campaign slice a journal belongs to. Stored in the
/// journal's header line and validated on replay.
struct JournalHeader {
  std::uint64_t seed = 0;
  std::uint64_t tasks = 0;
  std::uint64_t fingerprint = 0;
  ShardSpec shard;
  bool operator==(const JournalHeader&) const = default;
};

/// Replay of an existing journal file: every intact record in append
/// order, plus how many torn trailing bytes were truncated away.
struct JournalReplay {
  bool found = false;  ///< the file existed (and so had a valid header).
  std::vector<TaskRecord> records;
  std::uint64_t dropped_bytes = 0;  ///< torn tail removed from the file.
};

/// Reads and validates the journal at `path`, truncating a torn tail (a
/// crash mid-append) in place so later appends extend a clean file. A
/// missing file replays empty. A first line that is not this slice's
/// journal header, a checksum failure before the final line, or an
/// unreadable file throws; the first line is never taken for a torn tail,
/// so a file that fails the header check is left exactly as it was.
JournalReplay replay_journal_file(const std::string& path,
                                  const JournalHeader& expected);

/// The framed journal line for one completed task — checksum, space,
/// payload, newline. Building it (a full RunResult JSON encode) is the
/// expensive part of an append; callers that append under a contended
/// lock should frame outside it and pass the line to
/// JournalWriter::append_line.
std::string journal_record_line(std::uint64_t index,
                                const sim::RunResult& result);

/// Appends TaskRecords to the journal at `path`, one checksummed line
/// each, flushed per record. A missing file is first created holding just
/// the header line, atomically (temp file + rename); an existing file is
/// opened for appending as is (replay it *before* constructing a writer —
/// construction does not validate).
class JournalWriter {
 public:
  JournalWriter(std::string path, const JournalHeader& header);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one completed task. Throws on write failure (a checkpoint
  /// that silently stops persisting is worse than a crashed campaign).
  void append(const TaskRecord& record);

  /// Appends a line built by journal_record_line. Same failure contract
  /// as append.
  void append_line(const std::string& line);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Everything the checkpoint at `checkpoint_path` holds, as an artifact:
/// the journal's records, validated against `expected`, sorted by task
/// index, with the aggregate absorbed in task order. Returns false when
/// the file does not exist. Throws when it is not this slice's journal,
/// is corrupt (beyond a torn tail, which is truncated in place), records
/// a task outside the slice, or records one task twice.
bool load_checkpoint_state(const std::string& checkpoint_path,
                           const JournalHeader& expected,
                           CampaignArtifact* state);

// --- Merging ---------------------------------------------------------------

/// Folds shard artifacts back into the single-machine artifact: validates
/// that all inputs describe the same campaign (seed, tasks), that their
/// runs are disjoint and cover every task index, then re-absorbs every run
/// in task-index order. The result (shard 0/1) serializes to bytes
/// identical to an unsharded run's artifact. This is the library path
/// tools/merge_results.cpp drives.
CampaignArtifact merge_artifacts(std::vector<CampaignArtifact> shards);

}  // namespace paradet::runtime

#include "runtime/serialize.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "runtime/canonical_json.h"

namespace paradet::runtime {
namespace {

// The canonical-JSON writers, document model and checksummed line framing
// live in runtime/canonical_json.{h,cc}.
using json::append_double;
using json::append_i64;
using json::append_string;
using json::append_u64;
using json::Json;
using json::parse;
using json::read_whole_file;


// --- Struct writers --------------------------------------------------------

void append_summary(std::string& out, const Summary& summary) {
  // min()/max() mask the raw ±inf sentinels when empty; re-materialize
  // them so from_raw reconstructs the exact internal state.
  const bool empty = summary.count() == 0;
  out += "{\"count\":";
  append_u64(out, summary.count());
  out += ",\"sum\":";
  append_double(out, summary.sum());
  out += ",\"min\":";
  append_double(out, empty ? std::numeric_limits<double>::infinity()
                           : summary.min());
  out += ",\"max\":";
  append_double(out, empty ? -std::numeric_limits<double>::infinity()
                           : summary.max());
  out += '}';
}

void append_histogram(std::string& out, const Histogram& histogram) {
  out += "{\"bin_width\":";
  append_double(out, histogram.bin_width());
  out += ",\"counts\":[";
  for (std::size_t i = 0; i < histogram.bins(); ++i) {
    if (i > 0) out += ',';
    append_u64(out, histogram.bin_count(i));
  }
  out += "],\"overflow\":";
  append_u64(out, histogram.overflow());
  out += ",\"summary\":";
  append_summary(out, histogram.summary());
  out += '}';
}

void append_counters(std::string& out, const Counters& counters) {
  out += '[';
  bool first = true;
  for (const auto& [name, value] : counters.entries()) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_string(out, name);
    out += ',';
    append_u64(out, value);
    out += ']';
  }
  out += ']';
}

void append_arch_state(std::string& out, const arch::ArchState& state) {
  out += "{\"x\":[";
  for (unsigned r = 0; r < kNumIntRegs; ++r) {
    if (r > 0) out += ',';
    append_u64(out, state.x[r]);
  }
  out += "],\"f\":[";
  for (unsigned r = 0; r < kNumFpRegs; ++r) {
    if (r > 0) out += ',';
    append_u64(out, state.f[r]);
  }
  out += "],\"pc\":";
  append_u64(out, state.pc);
  out += '}';
}

void append_detection_event(std::string& out,
                            const core::DetectionEvent& event) {
  out += "{\"kind\":";
  append_u64(out, static_cast<std::uint64_t>(event.kind));
  out += ",\"segment_ordinal\":";
  append_u64(out, event.segment_ordinal);
  out += ",\"segment_index\":";
  append_u64(out, event.segment_index);
  out += ",\"around_seq\":";
  append_u64(out, event.around_seq);
  out += ",\"pc\":";
  append_u64(out, event.pc);
  out += ",\"expected\":";
  append_u64(out, event.expected);
  out += ",\"actual\":";
  append_u64(out, event.actual);
  out += ",\"reg\":";
  append_i64(out, event.reg);
  out += ",\"detected_at\":";
  append_u64(out, event.detected_at);
  out += '}';
}

void append_checkpoint(std::string& out,
                       const core::RegisterCheckpoint& checkpoint) {
  out += "{\"state\":";
  append_arch_state(out, checkpoint.state);
  out += ",\"seq\":";
  append_u64(out, checkpoint.seq);
  out += ",\"taken_at\":";
  append_u64(out, checkpoint.taken_at);
  out += '}';
}

void append_run_result(std::string& out, const sim::RunResult& result) {
  out += "{\"exit_trap\":";
  append_u64(out, static_cast<std::uint64_t>(result.exit_trap));
  out += ",\"instructions\":";
  append_u64(out, result.instructions);
  out += ",\"uops\":";
  append_u64(out, result.uops);
  out += ",\"final_state\":";
  append_arch_state(out, result.final_state);
  out += ",\"main_done_cycle\":";
  append_u64(out, result.main_done_cycle);
  out += ",\"all_checked_cycle\":";
  append_u64(out, result.all_checked_cycle);
  out += ",\"ipc\":";
  append_double(out, result.ipc);
  out += ",\"error_detected\":";
  out += result.error_detected ? "true" : "false";
  out += ",\"first_error\":";
  if (result.first_error.has_value()) {
    append_detection_event(out, *result.first_error);
  } else {
    out += "null";
  }
  out += ",\"recovery_checkpoint\":";
  if (result.recovery_checkpoint.has_value()) {
    append_checkpoint(out, *result.recovery_checkpoint);
  } else {
    out += "null";
  }
  out += ",\"delay_ns\":";
  append_histogram(out, result.delay_ns);
  out += ",\"segments\":";
  append_u64(out, result.segments);
  out += ",\"seals_full\":";
  append_u64(out, result.seals_full);
  out += ",\"seals_timeout\":";
  append_u64(out, result.seals_timeout);
  out += ",\"seals_interrupt\":";
  append_u64(out, result.seals_interrupt);
  out += ",\"seals_drain\":";
  append_u64(out, result.seals_drain);
  out += ",\"checkpoints_taken\":";
  append_u64(out, result.checkpoints_taken);
  out += ",\"checkpoint_stall_cycles\":";
  append_u64(out, result.checkpoint_stall_cycles);
  out += ",\"log_full_stall_cycles\":";
  append_u64(out, result.log_full_stall_cycles);
  out += ",\"mem_digest\":";
  append_u64(out, result.mem_digest);
  out += ",\"counters\":";
  append_counters(out, result.counters);
  out += '}';
}

void append_aggregate(std::string& out, const CampaignAggregate& aggregate) {
  out += "{\"runs\":";
  append_u64(out, aggregate.runs);
  out += ",\"errors_detected\":";
  append_u64(out, aggregate.errors_detected);
  out += ",\"instructions\":";
  append_u64(out, aggregate.instructions);
  out += ",\"segments\":";
  append_u64(out, aggregate.segments);
  out += ",\"main_cycles\":";
  append_summary(out, aggregate.main_cycles);
  out += ",\"delay_ns\":";
  append_histogram(out, aggregate.delay_ns);
  out += ",\"counters\":";
  append_counters(out, aggregate.counters);
  out += '}';
}

/// Bitmap over [0, tasks), bit i = run i present; bytes little-first,
/// bit i stored at byte i/8, position i%8; lowercase hex.
std::string completed_bitmap_hex(const CampaignArtifact& artifact) {
  std::vector<unsigned char> bytes((artifact.tasks + 7) / 8, 0);
  for (const TaskRecord& record : artifact.runs) {
    bytes[record.index / 8] |=
        static_cast<unsigned char>(1u << (record.index % 8));
  }
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const unsigned char b : bytes) {
    hex += kHex[b >> 4];
    hex += kHex[b & 0xF];
  }
  return hex;
}

// --- Struct readers --------------------------------------------------------

Summary read_summary(const Json& j) {
  return Summary::from_raw(j.at("count").as_u64(), j.at("sum").as_double(),
                           j.at("min").as_double(), j.at("max").as_double());
}

Histogram read_histogram(const Json& j) {
  std::vector<std::uint64_t> counts;
  for (const Json& item : j.at("counts").as_array()) {
    counts.push_back(item.as_u64());
  }
  return Histogram::from_raw(j.at("bin_width").as_double(), std::move(counts),
                             j.at("overflow").as_u64(),
                             read_summary(j.at("summary")));
}

Counters read_counters(const Json& j) {
  Counters counters;
  for (const Json& entry : j.as_array()) {
    const auto& pair = entry.as_array();
    if (pair.size() != 2) {
      throw std::runtime_error("counter entry must be [name, value]");
    }
    counters.inc(pair[0].as_string(), pair[1].as_u64());
  }
  return counters;
}

arch::ArchState read_arch_state(const Json& j) {
  arch::ArchState state;
  const auto& x = j.at("x").as_array();
  const auto& f = j.at("f").as_array();
  if (x.size() != kNumIntRegs || f.size() != kNumFpRegs) {
    throw std::runtime_error("ArchState register file has the wrong size");
  }
  for (unsigned r = 0; r < kNumIntRegs; ++r) state.x[r] = x[r].as_u64();
  for (unsigned r = 0; r < kNumFpRegs; ++r) state.f[r] = f[r].as_u64();
  state.pc = j.at("pc").as_u64();
  return state;
}

core::DetectionEvent read_detection_event(const Json& j) {
  core::DetectionEvent event;
  event.kind = static_cast<core::DetectionKind>(j.at("kind").as_u64());
  event.segment_ordinal = j.at("segment_ordinal").as_u64();
  event.segment_index =
      static_cast<unsigned>(j.at("segment_index").as_u64());
  event.around_seq = j.at("around_seq").as_u64();
  event.pc = j.at("pc").as_u64();
  event.expected = j.at("expected").as_u64();
  event.actual = j.at("actual").as_u64();
  event.reg = static_cast<int>(j.at("reg").as_i64());
  event.detected_at = j.at("detected_at").as_u64();
  return event;
}

core::RegisterCheckpoint read_checkpoint(const Json& j) {
  core::RegisterCheckpoint checkpoint;
  checkpoint.state = read_arch_state(j.at("state"));
  checkpoint.seq = j.at("seq").as_u64();
  checkpoint.taken_at = j.at("taken_at").as_u64();
  return checkpoint;
}

sim::RunResult read_run_result(const Json& j) {
  sim::RunResult result;
  result.exit_trap = static_cast<arch::Trap>(j.at("exit_trap").as_u64());
  result.instructions = j.at("instructions").as_u64();
  result.uops = j.at("uops").as_u64();
  result.final_state = read_arch_state(j.at("final_state"));
  result.main_done_cycle = j.at("main_done_cycle").as_u64();
  result.all_checked_cycle = j.at("all_checked_cycle").as_u64();
  result.ipc = j.at("ipc").as_double();
  result.error_detected = j.at("error_detected").as_bool();
  const Json& first_error = j.at("first_error");
  if (first_error.kind != Json::Kind::kNull) {
    result.first_error = read_detection_event(first_error);
  }
  const Json& recovery = j.at("recovery_checkpoint");
  if (recovery.kind != Json::Kind::kNull) {
    result.recovery_checkpoint = read_checkpoint(recovery);
  }
  result.delay_ns = read_histogram(j.at("delay_ns"));
  result.segments = j.at("segments").as_u64();
  result.seals_full = j.at("seals_full").as_u64();
  result.seals_timeout = j.at("seals_timeout").as_u64();
  result.seals_interrupt = j.at("seals_interrupt").as_u64();
  result.seals_drain = j.at("seals_drain").as_u64();
  result.checkpoints_taken = j.at("checkpoints_taken").as_u64();
  result.checkpoint_stall_cycles = j.at("checkpoint_stall_cycles").as_u64();
  result.log_full_stall_cycles = j.at("log_full_stall_cycles").as_u64();
  result.mem_digest = j.at("mem_digest").as_u64();
  result.counters = read_counters(j.at("counters"));
  return result;
}

CampaignAggregate read_aggregate(const Json& j) {
  CampaignAggregate aggregate;
  aggregate.runs = j.at("runs").as_u64();
  aggregate.errors_detected = j.at("errors_detected").as_u64();
  aggregate.instructions = j.at("instructions").as_u64();
  aggregate.segments = j.at("segments").as_u64();
  aggregate.main_cycles = read_summary(j.at("main_cycles"));
  aggregate.delay_ns = read_histogram(j.at("delay_ns"));
  aggregate.counters = read_counters(j.at("counters"));
  return aggregate;
}

CampaignArtifact read_artifact(const Json& j) {
  const Json* format = j.kind == Json::Kind::kObject ? j.find("format")
                                                     : nullptr;
  if (format == nullptr || format->kind != Json::Kind::kString ||
      format->text != kArtifactFormatName) {
    throw std::runtime_error(
        "not a paradet campaign artifact (missing or wrong \"format\")");
  }
  const std::uint64_t version = j.at("version").as_u64();
  if (version != kArtifactFormatVersion) {
    throw std::runtime_error(
        "unsupported campaign artifact version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kArtifactFormatVersion) + ")");
  }

  CampaignArtifact artifact;
  artifact.seed = j.at("seed").as_u64();
  artifact.tasks = j.at("tasks").as_u64();
  artifact.fingerprint = j.at("fingerprint").as_u64();
  const Json& shard = j.at("shard");
  artifact.shard.index = shard.at("index").as_u64();
  artifact.shard.count = shard.at("count").as_u64();
  if (artifact.shard.count == 0 ||
      artifact.shard.index >= artifact.shard.count) {
    throw std::runtime_error("artifact has an invalid shard spec");
  }
  artifact.aggregate = read_aggregate(j.at("aggregate"));

  std::uint64_t previous = 0;
  bool first = true;
  for (const Json& entry : j.at("runs").as_array()) {
    TaskRecord record;
    record.index = entry.at("index").as_u64();
    if (record.index >= artifact.tasks) {
      throw std::runtime_error("run record index out of range");
    }
    if (!artifact.shard.owns(record.index)) {
      throw std::runtime_error("run record not owned by the artifact's shard");
    }
    if (!first && record.index <= previous) {
      throw std::runtime_error("run records out of order or duplicated");
    }
    first = false;
    previous = record.index;
    record.result = read_run_result(entry.at("result"));
    artifact.runs.push_back(std::move(record));
  }

  if (j.at("completed").as_string() != completed_bitmap_hex(artifact)) {
    throw std::runtime_error(
        "completed-task bitmap does not match the run records");
  }
  return artifact;
}

// --- Files -----------------------------------------------------------------

/// Writes `text` to a temp file in the same directory, then renames it
/// over `path`, so a reader (or a crash mid-write) never observes a torn
/// file.
void write_file_atomically(const std::string& path, const std::string& text) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open '" + tmp_path +
                             "' for writing: " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != text.size() || !flushed) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("short write to '" + tmp_path + "'");
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("cannot rename '" + tmp_path + "' to '" + path +
                             "': " + std::strerror(errno));
  }
}

// --- Journal helpers -------------------------------------------------------

std::string journal_header_payload(const JournalHeader& header) {
  std::string out;
  out += "{\"format\":\"";
  out += kJournalFormatName;
  out += "\",\"version\":";
  append_u64(out, kJournalFormatVersion);
  out += ",\"seed\":";
  append_u64(out, header.seed);
  out += ",\"tasks\":";
  append_u64(out, header.tasks);
  out += ",\"fingerprint\":";
  append_u64(out, header.fingerprint);
  out += ",\"shard\":{\"index\":";
  append_u64(out, header.shard.index);
  out += ",\"count\":";
  append_u64(out, header.shard.count);
  out += "}}";
  return out;
}

void read_journal_header(const Json& j, const std::string& path,
                         const JournalHeader& expected) {
  const Json* format =
      j.kind == Json::Kind::kObject ? j.find("format") : nullptr;
  if (format == nullptr || format->kind != Json::Kind::kString ||
      format->text != kJournalFormatName) {
    throw std::runtime_error(
        path + ": not a paradet checkpoint journal (missing or wrong "
               "\"format\")");
  }
  const std::uint64_t version = j.at("version").as_u64();
  if (version != kJournalFormatVersion) {
    throw std::runtime_error(
        path + ": unsupported checkpoint journal version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kJournalFormatVersion) + ")");
  }
  JournalHeader header;
  header.seed = j.at("seed").as_u64();
  header.tasks = j.at("tasks").as_u64();
  header.fingerprint = j.at("fingerprint").as_u64();
  const Json& shard = j.at("shard");
  header.shard.index = shard.at("index").as_u64();
  header.shard.count = shard.at("count").as_u64();
  if (!(header == expected)) {
    throw std::runtime_error(
        path + ": journal belongs to a different campaign, configuration or "
               "shard (seed/tasks/fingerprint/shard mismatch)");
  }
}

}  // namespace

// --- Public writers --------------------------------------------------------

std::string to_json(const Summary& summary) {
  std::string out;
  append_summary(out, summary);
  return out;
}

std::string to_json(const Histogram& histogram) {
  std::string out;
  append_histogram(out, histogram);
  return out;
}

std::string to_json(const Counters& counters) {
  std::string out;
  append_counters(out, counters);
  return out;
}

std::string to_json(const sim::RunResult& result) {
  std::string out;
  append_run_result(out, result);
  return out;
}

std::string to_json(const CampaignAggregate& aggregate) {
  std::string out;
  append_aggregate(out, aggregate);
  return out;
}

std::string to_json(const CampaignArtifact& artifact) {
  std::string out;
  out += "{\"format\":\"";
  out += kArtifactFormatName;
  out += "\",\"version\":";
  append_u64(out, kArtifactFormatVersion);
  out += ",\"seed\":";
  append_u64(out, artifact.seed);
  out += ",\"tasks\":";
  append_u64(out, artifact.tasks);
  out += ",\"fingerprint\":";
  append_u64(out, artifact.fingerprint);
  out += ",\"shard\":{\"index\":";
  append_u64(out, artifact.shard.index);
  out += ",\"count\":";
  append_u64(out, artifact.shard.count);
  out += "},\"completed\":\"";
  out += completed_bitmap_hex(artifact);
  out += "\",\"aggregate\":";
  append_aggregate(out, artifact.aggregate);
  out += ",\"runs\":[";
  bool first = true;
  for (const TaskRecord& record : artifact.runs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"index\":";
    append_u64(out, record.index);
    out += ",\"result\":";
    append_run_result(out, record.result);
    out += '}';
  }
  out += "]}\n";
  return out;
}

// --- Public readers --------------------------------------------------------

Summary summary_from_json(std::string_view text) {
  return read_summary(parse(text));
}

Histogram histogram_from_json(std::string_view text) {
  return read_histogram(parse(text));
}

Counters counters_from_json(std::string_view text) {
  return read_counters(parse(text));
}

sim::RunResult run_result_from_json(std::string_view text) {
  return read_run_result(parse(text));
}

CampaignAggregate aggregate_from_json(std::string_view text) {
  return read_aggregate(parse(text));
}

CampaignArtifact artifact_from_json(std::string_view text) {
  return read_artifact(parse(text));
}

// --- Files -----------------------------------------------------------------

void write_artifact_file(const std::string& path,
                         const CampaignArtifact& artifact) {
  write_file_atomically(path, to_json(artifact));
}

CampaignArtifact read_artifact_file(const std::string& path) {
  const std::string text = read_whole_file(path);
  try {
    return artifact_from_json(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

// --- Append-only checkpoint journal ----------------------------------------

std::string journal_record_line(std::uint64_t index,
                                const sim::RunResult& result) {
  std::string payload;
  payload += "{\"index\":";
  append_u64(payload, index);
  payload += ",\"result\":";
  append_run_result(payload, result);
  payload += '}';
  return json::checksum_line(payload);
}

JournalReplay replay_journal_file(const std::string& path,
                                  const JournalHeader& expected) {
  JournalReplay replay;
  if (!json::exists_or_throw(path)) return replay;
  replay.found = true;
  const std::string text = read_whole_file(path);

  // The header is created atomically, so a first line that is missing,
  // unterminated or checksum-bad was never written by a JournalWriter:
  // refuse the file rather than truncate someone else's data as a torn
  // tail.
  const std::size_t header_end = text.find('\n');
  const std::string_view header_line =
      std::string_view(text).substr(0, header_end);
  std::uint64_t sum = 0;
  if (header_end == std::string::npos ||
      !json::parse_checksum_prefix(header_line, &sum) ||
      sum != fnv1a64(header_line.substr(17))) {
    throw std::runtime_error(
        path + ": not a paradet checkpoint journal (its first line is not a "
               "journal header); refusing to resume from or overwrite it");
  }
  read_journal_header(parse(header_line.substr(17)), path, expected);

  std::size_t pos = header_end + 1;
  std::size_t line_no = 1;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: no terminator.
    const std::string_view line(text.data() + pos, nl - pos);
    if (!json::parse_checksum_prefix(line, &sum) ||
        sum != fnv1a64(line.substr(17))) {
      // A torn append is always the final bytes of the file; a bad line
      // with intact lines after it is real corruption.
      if (nl + 1 == text.size()) break;
      throw std::runtime_error(path + ": corrupt journal record at line " +
                               std::to_string(line_no + 1));
    }
    try {
      const Json j = parse(line.substr(17));
      TaskRecord record;
      record.index = j.at("index").as_u64();
      record.result = read_run_result(j.at("result"));
      replay.records.push_back(std::move(record));
    } catch (const std::runtime_error&) {
      throw std::runtime_error(path +
                               ": journal record " + std::to_string(line_no) +
                               " has a valid checksum but malformed payload");
    }
    pos = nl + 1;
    ++line_no;
  }

  if (pos < text.size()) {
    replay.dropped_bytes = text.size() - pos;
    std::error_code ec;
    std::filesystem::resize_file(path, pos, ec);
    if (ec) {
      throw std::runtime_error("cannot truncate torn journal tail of '" +
                               path + "': " + ec.message());
    }
  }
  return replay;
}

JournalWriter::JournalWriter(std::string path, const JournalHeader& header)
    : path_(std::move(path)) {
  if (!json::exists_or_throw(path_)) {
    write_file_atomically(path_,
                          json::checksum_line(journal_header_payload(header)));
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open journal '" + path_ +
                             "' for appending: " + std::strerror(errno));
  }
}

JournalWriter::~JournalWriter() { std::fclose(file_); }

void JournalWriter::append(const TaskRecord& record) {
  append_line(journal_record_line(record.index, record.result));
}

void JournalWriter::append_line(const std::string& line) {
  const std::size_t n = std::fwrite(line.data(), 1, line.size(), file_);
  if (n != line.size() || std::fflush(file_) != 0) {
    throw std::runtime_error("cannot append to journal '" + path_ +
                             "': " + std::strerror(errno));
  }
}

bool load_checkpoint_state(const std::string& checkpoint_path,
                           const JournalHeader& expected,
                           CampaignArtifact* state) {
  state->seed = expected.seed;
  state->tasks = expected.tasks;
  state->fingerprint = expected.fingerprint;
  state->shard = expected.shard;
  state->runs.clear();
  state->aggregate = CampaignAggregate{};

  JournalReplay replay = replay_journal_file(checkpoint_path, expected);
  std::vector<char> present(expected.tasks, 0);
  for (TaskRecord& record : replay.records) {
    if (record.index >= expected.tasks ||
        !expected.shard.owns(record.index)) {
      throw std::runtime_error(checkpoint_path +
                               ": journal record for task " +
                               std::to_string(record.index) +
                               " is outside this campaign slice");
    }
    // Every completion is appended exactly once, so a repeat is damage.
    if (present[record.index]) {
      throw std::runtime_error(checkpoint_path + ": task " +
                               std::to_string(record.index) +
                               " is recorded twice");
    }
    present[record.index] = 1;
    state->runs.push_back(std::move(record));
  }
  std::sort(state->runs.begin(), state->runs.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              return a.index < b.index;
            });
  for (const TaskRecord& record : state->runs) {
    state->aggregate.absorb(record.result);
  }
  return replay.found;
}

// --- Merging ---------------------------------------------------------------

CampaignArtifact merge_artifacts(std::vector<CampaignArtifact> shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge_artifacts: no shard artifacts given");
  }
  CampaignArtifact merged;
  merged.seed = shards.front().seed;
  merged.tasks = shards.front().tasks;
  merged.fingerprint = shards.front().fingerprint;
  merged.shard = ShardSpec{0, 1};
  for (const CampaignArtifact& shard : shards) {
    if (shard.seed != merged.seed || shard.tasks != merged.tasks ||
        shard.fingerprint != merged.fingerprint) {
      throw std::runtime_error(
          "merge_artifacts: shards disagree on campaign seed, task count or "
          "configuration fingerprint");
    }
  }

  merged.runs.reserve(merged.tasks);
  for (CampaignArtifact& shard : shards) {
    for (TaskRecord& record : shard.runs) {
      merged.runs.push_back(std::move(record));
    }
  }
  std::sort(merged.runs.begin(), merged.runs.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < merged.runs.size(); ++i) {
    if (merged.runs[i].index != i) {
      if (i > 0 && merged.runs[i].index == merged.runs[i - 1].index) {
        throw std::runtime_error(
            "merge_artifacts: task " + std::to_string(merged.runs[i].index) +
            " appears in more than one shard");
      }
      throw std::runtime_error("merge_artifacts: task " + std::to_string(i) +
                               " is missing from every shard");
    }
  }
  if (merged.runs.size() != merged.tasks) {
    throw std::runtime_error(
        "merge_artifacts: " +
        std::to_string(merged.tasks - merged.runs.size()) +
        " task(s) missing from every shard");
  }

  // Re-absorb in task-index order: this is exactly the unsharded
  // campaign's aggregation order, so the merged aggregate (floating-point
  // sums included) is bit-identical to the single-machine run's.
  for (const TaskRecord& record : merged.runs) {
    merged.aggregate.absorb(record.result);
  }
  return merged;
}

}  // namespace paradet::runtime

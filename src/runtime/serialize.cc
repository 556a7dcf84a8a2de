#include "runtime/serialize.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace paradet::runtime {
namespace {

// --- Scalar writers --------------------------------------------------------

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

/// Shortest decimal that round-trips to the exact same bits via
/// from_chars. Non-finite doubles are encoded as the JSON strings "inf" /
/// "-inf" / "nan".
void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

/// Quoted and escaped (\" \\ and \u00xx for control bytes).
void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// --- Struct writers --------------------------------------------------------

void append_summary(std::string& out, const Summary& summary) {
  // min()/max() mask the raw ±inf sentinels when empty; write the
  // sentinels so the encoding shows the exact internal state.
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
  out += ",\"aggregate\":";
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

// --- Files -----------------------------------------------------------------

void write_artifact_file(const std::string& path,
                         const CampaignArtifact& artifact) {
  write_file_atomically(path, to_json(artifact));
}

}  // namespace paradet::runtime

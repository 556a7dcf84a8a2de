// LoadStoreLog is header-only on the hot path (inlined into the commit
// loop); this translation unit holds the one-off geometry check.
#include "core/load_store_log.h"

#include <stdexcept>
#include <string>

#include "isa/isa.h"

namespace paradet::core {

static_assert(sizeof(LogEntry) <= 48,
              "LogEntry is a modelling structure; the modelled SRAM cost is "
              "LogConfig::entry_bytes, not sizeof(LogEntry)");

std::uint64_t LoadStoreLog::checked_entries_per_segment(
    const LogConfig& config) {
  if (config.segments == 0) {
    throw std::invalid_argument("log.segments must be at least 1");
  }
  if (config.entry_bytes == 0) {
    throw std::invalid_argument("log.entry_bytes must be at least 1");
  }
  const std::uint64_t entries = config.entries_per_segment();
  if (entries < isa::kMaxMemUopsPerMacroOp) {
    throw std::invalid_argument(
        "log.total_bytes gives " + std::to_string(entries) +
        " entries per segment (total_bytes / segments / entry_bytes), fewer "
        "than one macro-op's " +
        std::to_string(isa::kMaxMemUopsPerMacroOp) + " memory micro-ops");
  }
  return entries;
}

}  // namespace paradet::core

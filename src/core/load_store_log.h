// The partitioned load-store log (§IV-D). An SRAM structure that records,
// in commit order, every load (address + forwarded value), store (address +
// value) and non-deterministic result from the main core. The log is split
// into fixed-size segments with a one-to-one mapping to checker cores;
// different segments are checked simultaneously, which is the source of the
// scheme's parallelism.
//
// Segment lifecycle:
//   kFree -> (open_next) -> kFilling -> (seal_filling) -> kSealed
//         -> (begin_check) -> kChecking -> (release) -> kFree
//
// Segments are filled strictly round-robin. If the next segment is not free
// when the current one seals, the main core must stall (§IV-D: "either one
// of the checker cores or the main core must always be stalled").
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "core/checkpoint.h"

namespace paradet::core {

enum class EntryKind : std::uint8_t {
  kLoad,    ///< forwarded load: checker verifies address, consumes value.
  kStore,   ///< checker verifies address *and* value (§IV-B).
  kNondet,  ///< forwarded non-deterministic result (e.g. RDCYCLE).
};

struct LogEntry {
  EntryKind kind = EntryKind::kLoad;
  std::uint8_t size = 8;  ///< access size in bytes (0 for kNondet).
  Addr addr = 0;          ///< memory address (0 for kNondet).
  std::uint64_t value = 0;
  Cycle commit_cycle = 0;  ///< when the main core committed the micro-op.
  UopSeq seq = 0;          ///< dynamic micro-op index on the main core.

  bool operator==(const LogEntry&) const = default;
};

/// Why a segment stopped filling.
enum class SealReason : std::uint8_t {
  kFull,       ///< segment capacity reached (incl. §IV-D macro-op rule).
  kTimeout,    ///< instruction timeout reached (§IV-J).
  kInterrupt,  ///< interrupt/context-switch boundary (§IV-G).
  kDrain,      ///< program end / system fault: final partial segment (§IV-H).
};

enum class SegmentState : std::uint8_t {
  kFree,
  kFilling,
  kSealed,
  kChecking,
};

/// One partition of the log plus the metadata a checker core needs: the
/// start/end register checkpoints and the committed instruction count (used
/// by the checker-side timeout, §IV-J).
struct Segment {
  SegmentState state = SegmentState::kFree;
  std::vector<LogEntry> entries;
  RegisterCheckpoint start;
  RegisterCheckpoint end;
  /// Macro-ops committed while this segment was filling.
  std::uint64_t instruction_count = 0;
  SealReason seal_reason = SealReason::kFull;
  Cycle opened_at = 0;
  Cycle sealed_at = 0;
  /// Monotonic ordinal: the k-th segment the main core filled. Used for
  /// strong-induction ordering of detection results (§IV).
  std::uint64_t ordinal = 0;
  /// Expected trap at the end of the segment (kDrain seals only): the
  /// checker must observe the same trap when re-executing.
  std::uint8_t end_trap = 0;
};

class LoadStoreLog {
 public:
  /// Throws std::invalid_argument, naming the field, for a geometry the
  /// log cannot hold: no segments, zero-byte entries, or a segment with
  /// fewer entries than one macro-op's memory micro-ops (§IV-D's boundary
  /// rule could then never admit it).
  explicit LoadStoreLog(const LogConfig& config)
      : config_(config),
        entries_per_segment_(checked_entries_per_segment(config)),
        segments_(config.segments) {
    for (auto& segment : segments_) {
      segment.entries.reserve(static_cast<std::size_t>(entries_per_segment_));
    }
  }

  unsigned num_segments() const {
    return static_cast<unsigned>(segments_.size());
  }
  std::uint64_t entries_per_segment() const { return entries_per_segment_; }
  const LogConfig& config() const { return config_; }

  // --- Filling (main-core commit side) ---------------------------------

  bool has_filling() const { return filling_ >= 0; }
  /// Index of the segment that would be opened next (round-robin).
  unsigned next_index() const { return next_; }
  bool next_is_free() const {
    return segments_[next_].state == SegmentState::kFree;
  }

  /// Opens the next segment for filling. Requires next_is_free() and no
  /// segment currently filling.
  Segment& open_next(const RegisterCheckpoint& start, Cycle now) {
    assert(!has_filling() && next_is_free());
    Segment& segment = segments_[next_];
    filling_ = static_cast<int>(next_);
    next_ = (next_ + 1) % num_segments();
    segment.state = SegmentState::kFilling;
    segment.entries.clear();
    segment.instruction_count = 0;
    segment.start = start;
    segment.opened_at = now;
    segment.ordinal = ordinals_issued_++;
    segment.end_trap = 0;
    return segment;
  }

  Segment& filling() {
    assert(has_filling());
    return segments_[static_cast<unsigned>(filling_)];
  }
  unsigned filling_index() const {
    assert(has_filling());
    return static_cast<unsigned>(filling_);
  }

  std::uint64_t free_entries_in_filling() const {
    assert(has_filling());
    return entries_per_segment_ -
           segments_[static_cast<unsigned>(filling_)].entries.size();
  }

  /// §IV-D boundary rule: a macro-op with `mem_uops` memory micro-ops may
  /// only commit into the filling segment if all of them fit; otherwise the
  /// segment seals early so that checkpoints land on macro-op boundaries.
  bool fits_in_filling(unsigned mem_uops) const {
    return free_entries_in_filling() >= mem_uops;
  }

  void append(const LogEntry& entry) {
    Segment& segment = filling();
    assert(segment.entries.size() <
           static_cast<std::size_t>(entries_per_segment_));
    segment.entries.push_back(entry);
    ++entries_appended_;
  }

  void note_instruction() { ++filling().instruction_count; }

  /// True when the instruction timeout (§IV-J) has been reached by the
  /// filling segment. A zero timeout means "infinite".
  bool timeout_reached() const {
    return config_.instruction_timeout != 0 && has_filling() &&
           segments_[static_cast<unsigned>(filling_)].instruction_count >=
               config_.instruction_timeout;
  }

  /// Seals the filling segment; it becomes checkable (kSealed).
  Segment& seal_filling(SealReason reason, const RegisterCheckpoint& end,
                        Cycle now) {
    Segment& segment = filling();
    segment.state = SegmentState::kSealed;
    segment.seal_reason = reason;
    segment.end = end;
    segment.sealed_at = now;
    filling_ = -1;
    ++seals_[static_cast<unsigned>(reason)];
    return segment;
  }

  // --- Checking (checker-core side) -------------------------------------

  Segment& segment(unsigned index) { return segments_.at(index); }
  const Segment& segment(unsigned index) const { return segments_.at(index); }

  void begin_check(unsigned index) {
    assert(segments_.at(index).state == SegmentState::kSealed);
    segments_[index].state = SegmentState::kChecking;
  }

  void release(unsigned index) {
    assert(segments_.at(index).state == SegmentState::kChecking ||
           segments_.at(index).state == SegmentState::kSealed);
    segments_[index].state = SegmentState::kFree;
  }

  // --- Statistics --------------------------------------------------------

  std::uint64_t entries_appended() const { return entries_appended_; }
  std::uint64_t segments_opened() const { return ordinals_issued_; }
  std::uint64_t seals(SealReason reason) const {
    return seals_[static_cast<unsigned>(reason)];
  }

 private:
  static std::uint64_t checked_entries_per_segment(const LogConfig& config);

  LogConfig config_;
  /// config_.entries_per_segment(), computed once: the commit loop asks
  /// for it at least once per instruction.
  std::uint64_t entries_per_segment_;
  std::vector<Segment> segments_;
  int filling_ = -1;   ///< index of the filling segment, -1 if none.
  unsigned next_ = 0;  ///< round-robin cursor.
  std::uint64_t ordinals_issued_ = 0;
  std::uint64_t entries_appended_ = 0;
  std::uint64_t seals_[4] = {0, 0, 0, 0};
};

}  // namespace paradet::core

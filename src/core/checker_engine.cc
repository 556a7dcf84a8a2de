#include "core/checker_engine.h"

#include "arch/interpreter_inline.h"

namespace paradet::core {
namespace {

/// DataPort that replays loads from a log segment and validates stores
/// against it. On the first failed check it records a DetectionEvent and
/// throws arch::CheckAbort, which the interpreter converts into
/// Trap::kCheckFailed.
class LogReplayPort final : public arch::DataPort {
 public:
  explicit LogReplayPort(const Segment& segment) : segment_(segment) {}

  std::uint64_t load(Addr addr, unsigned size) override {
    const LogEntry& entry = next(EntryKind::kLoad, addr);
    if (entry.addr != addr) {
      fail(DetectionKind::kLoadAddressMismatch, entry, addr);
    }
    if (entry.size != size) {
      fail(DetectionKind::kAccessSizeMismatch, entry, size);
    }
    consume();
    return entry.value;
  }

  void store(Addr addr, std::uint64_t value, unsigned size) override {
    const LogEntry& entry = next(EntryKind::kStore, addr);
    if (entry.addr != addr) {
      fail(DetectionKind::kStoreAddressMismatch, entry, addr);
    }
    if (entry.size != size) {
      fail(DetectionKind::kAccessSizeMismatch, entry, size);
    }
    if (entry.value != value) {
      fail(DetectionKind::kStoreValueMismatch, entry, value);
    }
    consume();
  }

  std::uint64_t read_cycle() override {
    const LogEntry& entry = next(EntryKind::kNondet, 0);
    consume();
    return entry.value;
  }

  std::uint32_t cursor() const { return cursor_; }
  std::uint32_t consumed_by_current() const { return consumed_by_current_; }
  void start_instruction() { consumed_by_current_ = 0; }
  bool exhausted() const { return cursor_ >= segment_.entries.size(); }
  const DetectionEvent& event() const { return event_; }

 private:
  const LogEntry& next(EntryKind expected_kind, Addr actual) {
    if (exhausted()) {
      event_.kind = DetectionKind::kLogOverrun;
      event_.actual = actual;
      event_.around_seq = segment_.entries.empty()
                              ? 0
                              : segment_.entries.back().seq;
      throw arch::CheckAbort{};
    }
    const LogEntry& entry = segment_.entries[cursor_];
    if (entry.kind != expected_kind) {
      event_.kind = DetectionKind::kEntryKindMismatch;
      event_.expected = static_cast<std::uint64_t>(entry.kind);
      event_.actual = static_cast<std::uint64_t>(expected_kind);
      event_.around_seq = entry.seq;
      throw arch::CheckAbort{};
    }
    return entry;
  }

  [[noreturn]] void fail(DetectionKind kind, const LogEntry& entry,
                         std::uint64_t actual) {
    event_.kind = kind;
    event_.expected =
        kind == DetectionKind::kStoreValueMismatch ? entry.value : entry.addr;
    if (kind == DetectionKind::kAccessSizeMismatch) {
      event_.expected = entry.size;
    }
    event_.actual = actual;
    event_.around_seq = entry.seq;
    throw arch::CheckAbort{};
  }

  void consume() {
    ++cursor_;
    ++consumed_by_current_;
  }

  const Segment& segment_;
  std::uint32_t cursor_ = 0;
  std::uint32_t consumed_by_current_ = 0;
  DetectionEvent event_;
};

}  // namespace

CheckerEngine::Result CheckerEngine::check(const Segment& segment,
                                           CheckerFaultHook* fault_hook) {
  Result result;
  check_into(segment, fault_hook, result);
  return result;
}

void CheckerEngine::check_into(const Segment& segment,
                               CheckerFaultHook* fault_hook, Result& out) {
  Result& result = out;
  result.outcome = CheckOutcome{};
  result.trace.clear();
  if (result.trace.capacity() < segment.instruction_count) {
    ++trace_arena_grows_;
    result.trace.reserve(segment.instruction_count);
  }
  LogReplayPort port(segment);
  arch::ArchState state = segment.start.state;
  const auto expected_trap = static_cast<arch::Trap>(segment.end_trap);

  const auto fail_here = [&](DetectionEvent event, Addr pc) {
    event.pc = pc;
    result.outcome.passed = false;
    result.outcome.event = event;
    result.outcome.instructions_executed = result.trace.size();
    result.outcome.entries_consumed = port.cursor();
  };

  bool trapped_as_expected = false;
  for (std::uint64_t i = 0; i < segment.instruction_count; ++i) {
    if (fault_hook != nullptr) fault_hook->before_instruction(i, state);

    const Addr pc = state.pc;
    const isa::Inst* inst = decode_.decode_at(pc);
    if (inst == nullptr) {
      // Divergence into non-code: the main core cannot have committed this.
      DetectionEvent event;
      event.kind = DetectionKind::kTrapMismatch;
      event.actual = static_cast<std::uint64_t>(arch::Trap::kIllegal);
      event.expected = static_cast<std::uint64_t>(expected_trap);
      fail_here(event, pc);
      return;
    }

    port.start_instruction();
    const std::uint32_t entry_before = port.cursor();
    const arch::StepResult step = arch::execute_inline(*inst, state, port);

    if (step.trap == arch::Trap::kCheckFailed) {
      fail_here(port.event(), pc);
      return;
    }

    // Built in place: a stack temporary copied in by push_back is reloaded
    // with wide loads that cannot forward from its narrow field stores.
    CheckerInstRecord& record = result.trace.emplace_back();
    record.inst = *inst;
    record.pc = pc;
    record.branch_taken = step.branch_taken;
    record.entries_consumed =
        static_cast<std::uint8_t>(port.consumed_by_current());
    record.first_entry = entry_before;

    if (step.trap != arch::Trap::kNone) {
      // A real trap (halt/fault/misaligned/…). It is only correct if the
      // main core sealed this segment with the same trap at its last
      // instruction.
      const bool expected_here =
          i + 1 == segment.instruction_count && step.trap == expected_trap;
      if (!expected_here) {
        DetectionEvent event;
        event.kind = DetectionKind::kTrapMismatch;
        event.actual = static_cast<std::uint64_t>(step.trap);
        event.expected = static_cast<std::uint64_t>(expected_trap);
        fail_here(event, pc);
        return;
      }
      trapped_as_expected = true;
      break;  // expected terminal trap; proceed to final validation.
    }
  }

  result.outcome.instructions_executed = result.trace.size();
  result.outcome.entries_consumed = port.cursor();

  // The main core sealed this segment with a terminal trap; the checker
  // must have trapped identically at the final instruction. The loop above
  // `break`s in that case, leaving trace.size() == instruction_count with
  // the last record being the trapping instruction; running the full count
  // without trapping is a divergence.
  if (expected_trap != arch::Trap::kNone && !trapped_as_expected) {
    DetectionEvent event;
    event.kind = DetectionKind::kTrapMismatch;
    event.actual = static_cast<std::uint64_t>(arch::Trap::kNone);
    event.expected = static_cast<std::uint64_t>(expected_trap);
    fail_here(event, state.pc);
    return;
  }

  // §IV-J: committed-instruction budget exhausted with log entries left
  // over means the checker's execution diverged from the main core's.
  if (!port.exhausted()) {
    DetectionEvent event;
    event.kind = DetectionKind::kCheckerTimeout;
    event.expected = segment.entries.size();
    event.actual = port.cursor();
    fail_here(event, state.pc);
    return;
  }

  // End-of-segment architectural validation (§IV-B, §IV-I): register file
  // then pc against the end checkpoint.
  const arch::ArchState& expected = segment.end.state;
  const int diff = arch::first_register_difference(state, expected);
  if (diff >= 0) {
    DetectionEvent event;
    event.kind = DetectionKind::kRegisterMismatch;
    event.reg = diff;
    const unsigned r = static_cast<unsigned>(diff);
    event.expected = r < kNumIntRegs ? expected.x[r]
                                     : expected.f[r - kNumIntRegs];
    event.actual = r < kNumIntRegs ? state.x[r] : state.f[r - kNumIntRegs];
    event.around_seq = segment.end.seq;
    fail_here(event, state.pc);
    return;
  }
  if (state.pc != expected.pc) {
    DetectionEvent event;
    event.kind = DetectionKind::kPcMismatch;
    event.expected = expected.pc;
    event.actual = state.pc;
    event.around_seq = segment.end.seq;
    fail_here(event, state.pc);
    return;
  }

  result.outcome.passed = true;
  return;
}

}  // namespace paradet::core

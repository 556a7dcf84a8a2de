// The SRV64 functional interpreter. One implementation serves three roles:
//   1. the golden model (standalone execution against SparseMemory);
//   2. the main core's functional engine, with a DataPort that captures
//      loads into the load forwarding unit;
//   3. the checker cores' engine, with a DataPort that replays loads from a
//      load-store log segment and validates stores (§IV-B).
// The separation of functional semantics from the memory/timing behaviour
// mirrors the paper's observation that main and checker cores execute
// identical code, differing only in load/store plumbing.
#pragma once

#include <cstdint>

#include "arch/memory.h"
#include "arch/state.h"
#include "isa/isa.h"
#include "isa/predecode.h"

namespace paradet::arch {

/// Why execution of an instruction did not complete normally.
enum class Trap : std::uint8_t {
  kNone = 0,
  kHalt,         ///< normal termination (HALT).
  kSystemFault,  ///< FAULT instruction: models e.g. a segfault (§IV-H).
  kBreakpoint,   ///< EBREAK.
  kMisaligned,   ///< misaligned data access.
  kIllegal,      ///< undecodable instruction or misaligned fetch.
  kCheckFailed,  ///< checker-side: a log/checkpoint check failed (§IV-B).
};

/// Where loads read from and stores write to. The interpreter calls these
/// in program (micro-op) order; LDP/STP issue two 8-byte accesses.
class DataPort {
 public:
  virtual ~DataPort() = default;
  /// Returns `size` bytes at `addr`, zero-extended. May throw CheckAbort in
  /// checker mode (wrapped into Trap::kCheckFailed by the interpreter).
  virtual std::uint64_t load(Addr addr, unsigned size) = 0;
  virtual void store(Addr addr, std::uint64_t value, unsigned size) = 0;
  /// Source for RDCYCLE: non-deterministic from the program's view, so the
  /// main core must forward it through the log (§IV-D).
  virtual std::uint64_t read_cycle() = 0;
};

/// DataPort bound directly to a SparseMemory; RDCYCLE returns a counter
/// owned by the caller.
class MemoryDataPort final : public DataPort {
 public:
  MemoryDataPort(SparseMemory& memory, const std::uint64_t& cycle_source)
      : memory_(memory), cycle_source_(cycle_source) {}

  std::uint64_t load(Addr addr, unsigned size) override {
    return memory_.read(addr, size);
  }
  void store(Addr addr, std::uint64_t value, unsigned size) override {
    memory_.write(addr, value, size);
  }
  std::uint64_t read_cycle() override { return cycle_source_; }

 private:
  SparseMemory& memory_;
  const std::uint64_t& cycle_source_;
};

/// Exception used by checker-mode DataPorts to abort execution when a check
/// fails. Carries no payload: the port records the detail before throwing.
struct CheckAbort {};

/// Result of executing one macro instruction.
struct StepResult {
  Trap trap = Trap::kNone;
  /// pc of the next instruction (valid when trap == kNone).
  Addr next_pc = 0;
  /// For conditional branches: whether the branch was taken.
  bool branch_taken = false;
};

/// Executes one already-decoded macro instruction at `state.pc`, updating
/// `state` (including pc) and performing memory accesses through `port`.
/// Traps leave pc pointing at the trapping instruction.
StepResult execute(const isa::Inst& inst, ArchState& state, DataPort& port);

/// Decode cache over read-only instruction memory. The paper assumes the
/// instruction stream is read-only (§IV-A), so cached decodes never need
/// invalidation.
///
/// With a PredecodedImage (assembled programs carry one), the common case
/// is a bounds check + array load into the shared immutable image; only
/// PCs outside the image — wild jumps, hand-written raw memory — take the
/// per-pc map that decodes from instruction memory on first touch.
class DecodeCache {
 public:
  /// `shared_imem` selects the thread-safe fetch path: out-of-image decodes
  /// read via SparseMemory::read_shared, so several DecodeCaches (each with
  /// its own per-pc map) may fetch from one immutable memory concurrently.
  explicit DecodeCache(const SparseMemory& imem,
                       const isa::PredecodedImage* image = nullptr,
                       bool shared_imem = false)
      : imem_(imem),
        image_(image != nullptr && !image->empty() ? image : nullptr),
        shared_imem_(shared_imem) {}

  /// Decodes the instruction at `pc`. Returns nullptr for an undecodable
  /// word or misaligned pc.
  const isa::Inst* decode_at(Addr pc) {
    if (image_ != nullptr) {
      if (const isa::Inst* inst = image_->lookup(pc)) {
        ++predecoded_hits_;
        return inst;
      }
    }
    return decode_slow(pc);
  }

  /// Instructions served straight from the predecoded image.
  std::uint64_t predecoded_hits() const { return predecoded_hits_; }
  /// Instructions that took the per-pc fallback path (including repeats
  /// served from the map). tests/test_interpreter_predecode.cc requires
  /// zero of these on every Table II kernel loaded through load_program.
  std::uint64_t fallback_decodes() const { return fallback_decodes_; }

 private:
  const isa::Inst* decode_slow(Addr pc);

  const SparseMemory& imem_;
  const isa::PredecodedImage* image_;
  bool shared_imem_ = false;
  std::unordered_map<Addr, isa::Inst> cache_;
  std::uint64_t predecoded_hits_ = 0;
  std::uint64_t fallback_decodes_ = 0;
};

/// Convenience executor: fetch + decode + execute against one memory.
class Machine {
 public:
  Machine(SparseMemory& memory, DataPort& port,
          const isa::PredecodedImage* image = nullptr)
      : decode_(memory, image), port_(port) {}

  /// Executes the instruction at state.pc. On success advances pc.
  StepResult step(ArchState& state);

  /// Runs until a trap occurs or `max_instructions` is reached (returning
  /// kNone in the latter case). Returns the final trap.
  Trap run(ArchState& state, std::uint64_t max_instructions,
           std::uint64_t* executed = nullptr);

  const DecodeCache& decode_cache() const { return decode_; }

 private:
  DecodeCache decode_;
  DataPort& port_;
};

}  // namespace paradet::arch

// Timing caches (Table I). Set-associative, LRU, write-back/write-allocate,
// with MSHR-limited non-blocking misses. Purely a timing model: functional
// data lives in arch::SparseMemory.
//
// The model is "latency-resolving": an access at cycle `when` immediately
// returns its data-ready cycle, computed from tag state, in-flight fills
// and next-level latency. This matches the dependence-driven scheduling
// style of sim::OoOCore (see DESIGN.md §6).
//
// Hot-path layout: tag state is structure-of-arrays — one packed
// `(tag << 1) | valid` word per way (so a lookup compares a single load
// against a single key; an invalid way can never match because its word is
// 0), with dirty bits, fill cycles and LRU stamps in parallel arrays that
// only the slow paths touch. A per-set MRU-way hint short-circuits the
// associative scan: the common hit is one predicted-way compare instead of
// an O(assoc) walk (way_hint_hits() / hits() is the measured rate;
// tests/test_caches.cc gates it suite-wide). All set/tag math
// is shift/mask — power-of-two geometry is asserted at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace paradet::mem {

/// Interface one cache level presents to the level above.
class MemoryLevel {
 public:
  virtual ~MemoryLevel() = default;
  /// Returns the cycle at which data for `addr` is available. `write`
  /// distinguishes stores (write-allocate; the returned cycle is when the
  /// line is owned). `pc` is the requesting instruction, used by
  /// prefetcher training (0 if not applicable).
  virtual Cycle access(Addr addr, bool write, Cycle when, Addr pc) = 0;
  /// Hints a line fill without a demand requester. Default: ignored.
  virtual void prefetch_line(Addr addr, Cycle when);
};

/// Terminal level wrapping the DRAM model.
class DramModel;
class DramLevel final : public MemoryLevel {
 public:
  explicit DramLevel(DramModel& dram) : dram_(dram) {}
  Cycle access(Addr addr, bool write, Cycle when, Addr pc) override;

 private:
  DramModel& dram_;
};

class StridePrefetcher;

class Cache final : public MemoryLevel {
 public:
  Cache(const CacheConfig& config, MemoryLevel& next);

  /// Rewiring copy: duplicates `other`'s full timing state (tags, MSHRs,
  /// LRU clock, counters) but points at `next` as the backing level. The
  /// prefetcher is detached — re-attach with set_prefetcher() once the
  /// copied prefetcher exists. This is how warm-state capture snapshots a
  /// cache hierarchy whose levels reference one another.
  Cache(const Cache& other, MemoryLevel& next);

  Cycle access(Addr addr, bool write, Cycle when, Addr pc) override;
  void prefetch_line(Addr addr, Cycle when) override;

  /// Attaches a prefetcher trained on demand accesses to this cache
  /// (issues fills into this same cache). Pass nullptr to detach.
  void set_prefetcher(StridePrefetcher* prefetcher) {
    prefetcher_ = prefetcher;
  }

  const CacheConfig& config() const { return config_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t mshr_merges() const { return mshr_merges_; }
  std::uint64_t mshr_stall_events() const { return mshr_stalls_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t prefetch_fills() const { return prefetch_fills_; }
  /// Hits served by the per-set MRU-way hint's single compare (the rest of
  /// hits() fell back to the associative scan). Purely observational — the
  /// hint never changes lookup results, only how they are found.
  std::uint64_t way_hint_hits() const { return way_hint_hits_; }

 private:
  struct Mshr {
    Addr line_addr = 0;
    Cycle fill_done = 0;
    bool valid = false;
  };

  Addr line_of(Addr addr) const { return addr & ~line_mask_; }
  std::size_t set_of(Addr line) const {
    return (line >> line_shift_) & (sets_ - 1);
  }
  std::uint64_t tag_of(Addr line) const {
    return line >> line_shift_;
  }
  /// The packed tag word a resident `line` address carries: invalid ways
  /// hold 0, which no key can equal (bit 0 of a key is always set).
  static std::uint64_t key_of_tag(std::uint64_t tag) {
    return (tag << 1) | 1;
  }

  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Resident way of the line with packed tag `key` within its set, or
  /// kNoWay. `set_base` is set_of * assoc. `count_hint` attributes a
  /// predicted-way match to way_hint_hits_ (demand accesses only, so the
  /// hint rate stays way_hint_hits() / hits(); prefetch probes pass false).
  std::size_t find_way(std::size_t set, std::size_t set_base,
                       std::uint64_t key, bool count_hint);
  /// Victim way for a fill (first invalid, else LRU), issuing the
  /// write-back of a dirty victim at `when`.
  std::size_t victim_way(std::size_t set_base, Cycle when);
  /// Allocates (or merges into) an MSHR for a miss starting at `when`;
  /// returns the miss start cycle after any MSHR-full delay.
  Cycle allocate_mshr(Addr line_addr, Cycle when, Cycle* merged_fill);

  CacheConfig config_;
  MemoryLevel& next_;
  StridePrefetcher* prefetcher_ = nullptr;

  std::size_t sets_;
  unsigned assoc_;
  unsigned line_shift_;
  Addr line_mask_;
  // Structure-of-arrays tag state, sets_ x assoc row-major. The packed
  // tag|valid array is the only one the hit path reads.
  std::vector<std::uint64_t> tag_valid_;  ///< key_of_tag or 0 (invalid).
  std::vector<Cycle> fill_done_;  ///< when each way's data arrived/arrives.
  std::vector<std::uint64_t> lru_;        ///< last-touch stamps.
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint8_t> mru_way_;     ///< per-set most-recent way hint.
  std::vector<Mshr> mshrs_;
  std::uint64_t lru_clock_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t mshr_merges_ = 0;
  std::uint64_t mshr_stalls_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t prefetch_fills_ = 0;
  std::uint64_t way_hint_hits_ = 0;
};

}  // namespace paradet::mem

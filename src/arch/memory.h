// Sparse byte-addressable 64-bit memory, allocated in 4 KiB pages on first
// touch. Unmapped memory reads as zero, matching a zero-initialised
// simulated DRAM. This is the *functional* memory; timing is modelled
// separately in src/mem.
//
// Two fast paths keep the per-access cost off the page hash map:
//   * reserve_flat() installs a contiguous zero-filled backing for a
//     program's data window (load_program does this for every assembled
//     image), so the common in-window access is a bounds check + memcpy;
//   * a one-entry last-page translation cache short-circuits repeated
//     accesses to the same 4 KiB page outside the flat window.
// Semantics are byte-identical to the plain page map (zero-fill on cold
// pages, page-crossing splits); only the lookup cost changes.
//
// Copy-on-write forking. freeze() converts a memory into CoW mode: the
// flat window moves into an immutable shared backing with a per-page
// overlay (a non-null overlay slot is the dirty bitmap), and sparse pages
// become refcounted shared blocks. fork() is then O(pages) pointer work;
// the first write to any shared page copies just that 4 KiB page. Reads
// and writes are byte-identical in either mode — only allocation and
// lookup cost change. A frozen memory that is no longer written may be
// fork()ed concurrently from many threads (shared_ptr refcounts are
// atomic); the children are thread-private as usual.
//
// The translation cache makes read() logically-const-but-stateful: a
// SparseMemory must not be read concurrently from multiple threads
// (campaign workers each own their memory, so this costs nothing today).
// read_shared() is the cache-free exception for frozen snapshots.
//
// The content digest is a running value: every write stores whole aligned
// 8-byte words and moves the digest by each word's change, so digest() is
// O(1) at any memory size and in every representation.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace paradet::arch {

// Words are stored in host byte order and sub-word reads memcpy the low
// bytes; both are little-endian layouts.
static_assert(std::endian::native == std::endian::little,
              "SparseMemory assumes a little-endian host");

class SparseMemory {
 public:
  static constexpr unsigned kPageBits = 12;
  static constexpr std::size_t kPageBytes = std::size_t{1} << kPageBits;

  SparseMemory() = default;
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;
  SparseMemory(SparseMemory&&) = default;
  SparseMemory& operator=(SparseMemory&&) = default;

  /// Installs a contiguous zero-filled flat backing over [base, base+bytes)
  /// (rounded out to page boundaries). Existing page contents in the range
  /// are absorbed into the flat store; accesses inside the window then skip
  /// the page map entirely. Call before (or after) populating — semantics
  /// are unchanged either way. A memory holds one window: a second call
  /// once one is installed, or any call on a frozen memory, throws
  /// std::logic_error.
  void reserve_flat(Addr base, std::size_t bytes);

  /// Reads `size` bytes (1, 2, 4 or 8) little-endian, zero-extended.
  std::uint64_t read(Addr addr, unsigned size) const {
    const Addr offset = addr - flat_base_;  // wraps huge for addr < base.
    if (offset < flat_.size() && offset + size <= flat_.size()) {
      std::uint64_t value = 0;
      std::memcpy(&value, flat_.data() + offset, size);
      return value;
    }
    if (cow_) {
      if (const std::uint8_t* at = cow_window_read_ptr(offset, size)) {
        std::uint64_t value = 0;
        std::memcpy(&value, at, size);
        return value;
      }
    }
    return read_paged(addr, size);
  }

  /// read(), but bypassing the mutable translation cache: safe to call from
  /// any number of threads concurrently *as long as nothing writes* — the
  /// contract for the frozen instruction-memory snapshots the concurrent
  /// checker replay fetches from. Identical semantics, slightly slower
  /// out-of-flat lookups (a hash probe per access instead of per page run).
  std::uint64_t read_shared(Addr addr, unsigned size) const {
    const Addr offset = addr - flat_base_;
    if (offset < flat_.size() && offset + size <= flat_.size()) {
      std::uint64_t value = 0;
      std::memcpy(&value, flat_.data() + offset, size);
      return value;
    }
    if (cow_) {
      if (const std::uint8_t* at = cow_window_read_ptr(offset, size)) {
        std::uint64_t value = 0;
        std::memcpy(&value, at, size);
        return value;
      }
    }
    return read_paged_shared(addr, size);
  }

  /// Deep copy. Copying is deliberately explicit (the copy constructor is
  /// deleted): a multi-MiB memory duplicated by accident is a perf bug.
  /// Cloning a frozen memory materialises it back into a private flat
  /// window + private pages; prefer fork() wherever sharing suffices.
  SparseMemory clone() const;

  /// Converts this memory into CoW mode (idempotent): the flat window
  /// becomes an immutable shared backing plus a per-page overlay, and all
  /// further writes copy one 4 KiB page on first touch. Invalidates the
  /// translation caches. Reads and writes keep byte-identical semantics.
  void freeze();

  /// O(pages) copy sharing every page with `*this`. Requires a frozen
  /// (CoW-mode) memory — throws std::logic_error otherwise. Thread-safe
  /// on a frozen memory that is no longer being written.
  SparseMemory fork() const;

  /// Convenience: freeze() then fork(). The canonical cheap-snapshot call
  /// for single-threaded call sites that still own the memory mutably.
  /// Unlike the const overload, this invalidates the translation caches,
  /// so a memory already in CoW mode may keep being written afterwards:
  /// no stale mutable page pointer can bypass the copy-on-write check and
  /// alias a page the new child shares.
  SparseMemory fork() {
    freeze();
    cached_page_ = kNoPage;
    cached_bytes_ = nullptr;
    cached_page_mut_ = kNoPage;
    cached_bytes_mut_ = nullptr;
    return static_cast<const SparseMemory&>(*this).fork();
  }

  /// True once freeze() (or fork()) has converted this memory to CoW mode.
  bool is_cow() const { return cow_; }

  /// Order-independent digest of the full contents: the XOR over every
  /// 8-aligned address `a` holding the little-endian word `w` of
  /// m(w ^ k(a)) ^ m(k(a)), where k(a) = a * 0x9E3779B97F4A7C15 (mod 2^64)
  /// and m is the SplitMix64 finalizer (docs/formats.md). Zero words add
  /// nothing, so the value is independent of representation — flat window
  /// vs sparse pages vs CoW backing+overlay all digest identically, and two
  /// memories holding the same bytes always agree. Kept up to date by every
  /// write, so reading it costs nothing.
  std::uint64_t digest() const { return digest_; }

  /// Writes the low `size` bytes of `value` little-endian.
  void write(Addr addr, std::uint64_t value, unsigned size) {
    const unsigned in_word = static_cast<unsigned>(addr & 7);
    if (in_word + size > 8) {
      write_split(addr, value, size);
      return;
    }
    store_in_word(word_ptr_mut(addr), addr & ~Addr{7}, value, size, in_word);
  }

  void write_block(Addr addr, std::span<const std::uint8_t> bytes);
  void read_block(Addr addr, std::span<std::uint8_t> out) const;

  /// Pages in the sparse map (the flat window is not counted: it is one
  /// contiguous allocation, not demand-allocated pages).
  std::size_t pages_allocated() const { return pages_.size(); }

  /// Size in bytes of the flat window (0 when none is installed). In CoW
  /// mode this is the shared backing's window, unchanged by forking.
  std::size_t flat_bytes() const {
    return cow_ ? shared_flat_->size() : flat_.size();
  }

  /// CoW-mode window pages privately materialised by writes (the dirty
  /// bitmap's population). 0 for a private memory.
  std::size_t cow_dirty_pages() const;

 private:
  using Page = std::vector<std::uint8_t>;
  using PageRef = std::shared_ptr<Page>;

  std::size_t shared_flat_size() const {
    return shared_flat_ ? shared_flat_->size() : 0;
  }

  /// CoW-window fast path for a read of [offset, offset+size) relative to
  /// flat_base_: resolves overlay-vs-backing in O(1). nullptr when out of
  /// window or page-crossing (the paged slow path handles those).
  const std::uint8_t* cow_window_read_ptr(Addr offset, unsigned size) const {
    if (offset >= shared_flat_size() || offset + size > shared_flat_size()) {
      return nullptr;
    }
    const std::size_t in_page = offset & (kPageBytes - 1);
    if (in_page + size > kPageBytes) return nullptr;
    const Page* over = flat_overlay_[offset >> kPageBits].get();
    return over != nullptr ? over->data() + in_page
                           : shared_flat_->data() + offset;
  }

  /// CoW-window fast path for writes: only resolves when the page is
  /// already privately materialised (unique overlay entry); first-writes
  /// and shared pages take the paged slow path, which copies the page.
  std::uint8_t* cow_window_write_ptr(Addr offset, unsigned size) {
    if (offset >= shared_flat_size() || offset + size > shared_flat_size()) {
      return nullptr;
    }
    const std::size_t in_page = offset & (kPageBytes - 1);
    if (in_page + size > kPageBytes) return nullptr;
    const PageRef& over = flat_overlay_[offset >> kPageBits];
    if (over == nullptr || over.use_count() > 1) return nullptr;
    return over->data() + in_page;
  }

  /// The aligned word holding `addr`, writable: the flat window and
  /// private CoW pages inline, otherwise page_ptr_mut (which creates a
  /// sparse page or copies a shared one).
  std::uint8_t* word_ptr_mut(Addr addr) {
    const Addr offset = (addr - flat_base_) & ~Addr{7};
    if (offset < flat_.size()) return flat_.data() + offset;
    if (cow_) {
      if (std::uint8_t* at = cow_window_write_ptr(offset, 8)) return at;
    }
    return page_ptr_mut(addr) + (addr & (kPageBytes - 8));
  }

  /// SplitMix64's finalizer: a bijection on 64-bit words.
  static std::uint64_t digest_mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Writes `size` bytes at byte `in_word` of the aligned word at
  /// `word_addr` (backed by `word`) and moves the digest by the word's
  /// change: m(old ^ k) ^ m(new ^ k), the m(k) halves cancelling.
  void store_in_word(std::uint8_t* word, Addr word_addr, std::uint64_t value,
                     unsigned size, unsigned in_word) {
    std::uint64_t old = 0;
    std::memcpy(&old, word, sizeof old);
    const unsigned shift = 8 * in_word;
    const std::uint64_t low =
        size >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * size)) - 1;
    const std::uint64_t mask = low << shift;
    const std::uint64_t now = (old & ~mask) | ((value << shift) & mask);
    std::memcpy(word, &now, sizeof now);
    const std::uint64_t key = word_addr * 0x9E3779B97F4A7C15ULL;
    digest_ ^= digest_mix(old ^ key) ^ digest_mix(now ^ key);
  }

  /// A write that spans two aligned words (and perhaps two pages): one
  /// in-word store each.
  void write_split(Addr addr, std::uint64_t value, unsigned size);

  std::uint64_t read_paged(Addr addr, unsigned size) const;
  std::uint64_t read_paged_shared(Addr addr, unsigned size) const;

  /// Backing bytes of the page containing `addr` (flat window included),
  /// or nullptr when untouched. Cached per page: repeated same-page
  /// lookups skip the hash probe.
  const std::uint8_t* page_ptr(Addr addr) const;
  std::uint8_t* page_ptr_mut(Addr addr);

  /// A fork invalidates nothing in the parent, but a copy-on-write page
  /// replacement must drop any translation-cache entry still naming the
  /// shared bytes — a stale mutable pointer would alias the other forks'
  /// page (see tests: SparseMemoryCow.StaleCache*).
  void invalidate_caches_for(std::uint64_t page) {
    if (cached_page_ == page) {
      cached_page_ = kNoPage;
      cached_bytes_ = nullptr;
    }
    if (cached_page_mut_ == page) {
      cached_page_mut_ = kNoPage;
      cached_bytes_mut_ = nullptr;
    }
  }

  std::uint64_t digest_ = 0;  ///< running value of digest().
  Addr flat_base_ = 0;
  std::vector<std::uint8_t> flat_;
  std::unordered_map<std::uint64_t, PageRef> pages_;

  // CoW mode (after freeze()): flat_ is empty, the window lives in the
  // immutable shared backing, and flat_overlay_ holds this memory's
  // privately-written window pages (null slot = read the backing).
  bool cow_ = false;
  std::shared_ptr<const std::vector<std::uint8_t>> shared_flat_;
  std::vector<PageRef> flat_overlay_;

  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
  mutable std::uint64_t cached_page_ = kNoPage;
  mutable const std::uint8_t* cached_bytes_ = nullptr;
  std::uint64_t cached_page_mut_ = kNoPage;
  std::uint8_t* cached_bytes_mut_ = nullptr;
};

}  // namespace paradet::arch

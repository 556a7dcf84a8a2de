// Unit tests for the sparse functional memory.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "arch/memory.h"
#include "common/rng.h"

namespace paradet::arch {
namespace {

TEST(SparseMemory, UnmappedReadsZero) {
  SparseMemory memory;
  EXPECT_EQ(memory.read(0x123456789ULL, 8), 0u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

TEST(SparseMemory, ReadBackWhatWasWritten) {
  SparseMemory memory;
  memory.write(0x1000, 0xDEADBEEFCAFEF00DULL, 8);
  EXPECT_EQ(memory.read(0x1000, 8), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(memory.read(0x1000, 4), 0xCAFEF00Du);
  EXPECT_EQ(memory.read(0x1004, 4), 0xDEADBEEFu);
  EXPECT_EQ(memory.read(0x1000, 1), 0x0Du);
}

TEST(SparseMemory, PartialWritesPreserveNeighbours) {
  SparseMemory memory;
  memory.write(0x2000, 0xFFFFFFFFFFFFFFFFULL, 8);
  memory.write(0x2002, 0xAB, 1);
  EXPECT_EQ(memory.read(0x2000, 8), 0xFFFFFFFFFFABFFFFULL);
}

TEST(SparseMemory, PageCrossingAccess) {
  SparseMemory memory;
  const Addr boundary = SparseMemory::kPageBytes;  // 0x1000
  memory.write(boundary - 4, 0x1122334455667788ULL, 8);
  EXPECT_EQ(memory.read(boundary - 4, 8), 0x1122334455667788ULL);
  EXPECT_EQ(memory.read(boundary - 4, 4), 0x55667788u);
  EXPECT_EQ(memory.read(boundary, 4), 0x11223344u);
  EXPECT_EQ(memory.pages_allocated(), 2u);
}

TEST(SparseMemory, BlockTransfer) {
  SparseMemory memory;
  std::array<std::uint8_t, 10000> out_buffer{};
  std::array<std::uint8_t, 10000> in_buffer{};
  for (std::size_t i = 0; i < in_buffer.size(); ++i) {
    in_buffer[i] = static_cast<std::uint8_t>(i * 7);
  }
  memory.write_block(0x3FF8, in_buffer);  // crosses several pages.
  memory.read_block(0x3FF8, out_buffer);
  EXPECT_EQ(in_buffer, out_buffer);
}

TEST(SparseMemory, ReadBlockFromUnmappedIsZero) {
  SparseMemory memory;
  std::array<std::uint8_t, 64> buffer;
  buffer.fill(0xEE);
  memory.read_block(0x777000, buffer);
  for (const auto byte : buffer) EXPECT_EQ(byte, 0);
}

TEST(SparseMemory, SparseFootprint) {
  SparseMemory memory;
  memory.write(0x0, 1, 1);
  memory.write(0x10000000, 1, 1);
  memory.write(0x7FFFFFFFFFF8ULL, 1, 8);
  EXPECT_EQ(memory.pages_allocated(), 3u);
}

// ---- Flat-backing fast path -----------------------------------------------

TEST(SparseMemoryFlat, ColdFlatReadsZeroAndAllocatesNoPages) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x10000);
  EXPECT_EQ(memory.read(0x8000, 8), 0u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
  memory.write(0x8000, 0x1122334455667788ULL, 8);
  EXPECT_EQ(memory.read(0x8000, 8), 0x1122334455667788ULL);
  // Writes inside the window land in the flat store, not in pages.
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

TEST(SparseMemoryFlat, AbsorbsExistingPages) {
  SparseMemory memory;
  memory.write(0x1000, 0xDEADBEEFCAFEF00DULL, 8);
  memory.write(0x20000, 0xAA, 1);  // outside the future window.
  ASSERT_EQ(memory.pages_allocated(), 2u);
  memory.reserve_flat(0, 0x10000);
  EXPECT_EQ(memory.read(0x1000, 8), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(memory.read(0x20000, 1), 0xAAu);
  // The in-window page was folded into the flat store.
  EXPECT_EQ(memory.pages_allocated(), 1u);
}

TEST(SparseMemoryFlat, SecondWindowIsRejectedAndKeepsTheFirst) {
  // Installing a second window would replace the first and drop its bytes.
  SparseMemory memory;
  memory.reserve_flat(0, 0x2000);
  memory.write(0x1008, 0xDEADBEEF, 4);
  EXPECT_THROW(memory.reserve_flat(0x10000, 0x1000), std::logic_error);
  EXPECT_EQ(memory.read(0x1008, 4), 0xDEADBEEFu);
  EXPECT_EQ(memory.flat_bytes(), 0x2000u);
}

TEST(SparseMemoryFlat, SegmentBoundaryAccessesSplitCorrectly) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x2000);  // window = pages 0 and 1.
  const Addr boundary = 0x2000;    // first address past the window.
  // An 8-byte access straddling the window's end: low half flat, high half
  // page-backed.
  memory.write(boundary - 4, 0x1122334455667788ULL, 8);
  EXPECT_EQ(memory.read(boundary - 4, 8), 0x1122334455667788ULL);
  EXPECT_EQ(memory.read(boundary - 4, 4), 0x55667788u);
  EXPECT_EQ(memory.read(boundary, 4), 0x11223344u);
  EXPECT_EQ(memory.pages_allocated(), 1u);
  // Neighbouring bytes on both sides survive a partial overwrite.
  memory.write(boundary - 1, 0xEE, 1);
  EXPECT_EQ(memory.read(boundary - 4, 8), 0x11223344EE667788ULL);
}

TEST(SparseMemoryFlat, PageCrossingInsideFlatWindow) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x4000);
  memory.write(0x0FFC, 0xA1B2C3D4E5F60718ULL, 8);  // crosses page 0 -> 1.
  EXPECT_EQ(memory.read(0x0FFC, 8), 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(memory.read(0x1000, 4), 0xA1B2C3D4u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

TEST(SparseMemoryFlat, BlockTransfersSpanTheWindowEdge) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x2000);
  std::array<std::uint8_t, 4096> in_buffer;
  std::array<std::uint8_t, 4096> out_buffer{};
  for (std::size_t i = 0; i < in_buffer.size(); ++i) {
    in_buffer[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  memory.write_block(0x1800, in_buffer);  // half inside, half outside.
  memory.read_block(0x1800, out_buffer);
  EXPECT_EQ(in_buffer, out_buffer);
  EXPECT_EQ(memory.read(0x17FF, 1), 0u);  // window below the block: cold.
}

TEST(SparseMemoryFlat, WindowIsRoundedOutToPages) {
  SparseMemory memory;
  memory.reserve_flat(0x1100, 0x100);  // interior of page 1.
  EXPECT_EQ(memory.flat_bytes(), SparseMemory::kPageBytes);
  memory.write(0x1000, 0x77, 1);  // page-aligned start of the window.
  EXPECT_EQ(memory.read(0x1000, 1), 0x77u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

// ---- One-entry page-translation cache -------------------------------------

TEST(SparseMemoryPageCache, AlternatingPagesStayCoherent) {
  SparseMemory memory;
  for (int round = 0; round < 4; ++round) {
    memory.write(0x1000 + round, static_cast<std::uint64_t>(round), 1);
    memory.write(0x9000 + round, static_cast<std::uint64_t>(round + 40), 1);
  }
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(memory.read(0x1000 + round, 1),
              static_cast<std::uint64_t>(round));
    EXPECT_EQ(memory.read(0x9000 + round, 1),
              static_cast<std::uint64_t>(round + 40));
  }
}

TEST(SparseMemoryPageCache, ColdReadMissIsNotCachedAcrossTheCreatingWrite) {
  SparseMemory memory;
  // Read a cold page (miss: zero), create it with a write, read again: the
  // second read must see the write, not a stale cached miss.
  EXPECT_EQ(memory.read(0x5000, 8), 0u);
  memory.write(0x5000, 0x55AA, 2);
  EXPECT_EQ(memory.read(0x5000, 2), 0x55AAu);
}

TEST(SparseMemoryPageCache, PageCrossingReadAfterOneSidedWrite) {
  SparseMemory memory;
  memory.write(0x1FFF, 0x7B, 1);
  EXPECT_EQ(memory.read(0x1FFC, 8), 0x7B000000ULL);
  memory.write(0x2000, 0x1C, 1);
  EXPECT_EQ(memory.read(0x1FFC, 8), 0x1C7B000000ULL);
}

// ---- Copy-on-write forking -------------------------------------------------

TEST(SparseMemoryCow, WriteIsolationAfterFork) {
  SparseMemory parent;
  parent.reserve_flat(0, 0x4000);
  parent.write(0x1008, 0x1111111111111111ULL, 8);  // in window.
  parent.write(0x90000, 0x2222222222222222ULL, 8);  // sparse page.

  SparseMemory child = parent.fork();
  EXPECT_TRUE(parent.is_cow());
  EXPECT_TRUE(child.is_cow());
  EXPECT_EQ(child.read(0x1008, 8), 0x1111111111111111ULL);
  EXPECT_EQ(child.read(0x90000, 8), 0x2222222222222222ULL);

  // Writes on either side stay invisible to the other, window and sparse.
  child.write(0x1008, 0xAAAAAAAAAAAAAAAAULL, 8);
  child.write(0x90000, 0xBBBBBBBBBBBBBBBBULL, 8);
  parent.write(0x2000, 0xCCCCCCCCCCCCCCCCULL, 8);
  EXPECT_EQ(parent.read(0x1008, 8), 0x1111111111111111ULL);
  EXPECT_EQ(parent.read(0x90000, 8), 0x2222222222222222ULL);
  EXPECT_EQ(child.read(0x1008, 8), 0xAAAAAAAAAAAAAAAAULL);
  EXPECT_EQ(child.read(0x90000, 8), 0xBBBBBBBBBBBBBBBBULL);
  EXPECT_EQ(child.read(0x2000, 8), 0u);
  // Only the written pages were materialised.
  EXPECT_EQ(child.cow_dirty_pages(), 1u);
  EXPECT_EQ(parent.cow_dirty_pages(), 1u);
}

TEST(SparseMemoryCow, ForkOfForkChains) {
  SparseMemory a;
  a.reserve_flat(0, 0x2000);
  a.write(0x100, 10, 1);
  SparseMemory b = a.fork();
  b.write(0x100, 20, 1);
  SparseMemory c = b.fork();
  c.write(0x100, 30, 1);
  SparseMemory d = c.fork();  // untouched leaf.
  EXPECT_EQ(a.read(0x100, 1), 10u);
  EXPECT_EQ(b.read(0x100, 1), 20u);
  EXPECT_EQ(c.read(0x100, 1), 30u);
  EXPECT_EQ(d.read(0x100, 1), 30u);
  // Deep generations still isolate both directions.
  d.write(0x100, 40, 1);
  c.write(0x100, 33, 1);
  EXPECT_EQ(b.read(0x100, 1), 20u);
  EXPECT_EQ(c.read(0x100, 1), 33u);
  EXPECT_EQ(d.read(0x100, 1), 40u);
}

TEST(SparseMemoryCow, FrozenWindowBoundaryAccessesSplitCorrectly) {
  // The flat/sparse boundary semantics survive freezing: same scenario as
  // SparseMemoryFlat.SegmentBoundaryAccessesSplitCorrectly, via a fork.
  SparseMemory memory;
  memory.reserve_flat(0, 0x2000);  // window = pages 0 and 1.
  SparseMemory forked = memory.fork();
  const Addr boundary = 0x2000;  // first address past the window.
  forked.write(boundary - 4, 0x1122334455667788ULL, 8);
  EXPECT_EQ(forked.read(boundary - 4, 8), 0x1122334455667788ULL);
  EXPECT_EQ(forked.read(boundary - 4, 4), 0x55667788u);
  EXPECT_EQ(forked.read(boundary, 4), 0x11223344u);
  EXPECT_EQ(forked.pages_allocated(), 1u);
  forked.write(boundary - 1, 0xEE, 1);
  EXPECT_EQ(forked.read(boundary - 4, 8), 0x11223344EE667788ULL);
  // The parent saw none of it.
  EXPECT_EQ(memory.read(boundary - 4, 8), 0u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

TEST(SparseMemoryCow, PageCrossingInsideFrozenWindow) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x4000);
  memory.freeze();
  memory.write(0x0FFC, 0xA1B2C3D4E5F60718ULL, 8);  // crosses page 0 -> 1.
  EXPECT_EQ(memory.read(0x0FFC, 8), 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(memory.read(0x1000, 4), 0xA1B2C3D4u);
  EXPECT_EQ(memory.cow_dirty_pages(), 2u);
  EXPECT_EQ(memory.pages_allocated(), 0u);
}

TEST(SparseMemoryCow, StaleCacheWindowWriteAfterForkDoesNotAliasTheChild) {
  // Regression for the translation-cache audit: prime the mutable cache
  // with writes, fork, then write the same pages through the parent. A
  // stale cached pointer would scribble on the child's shared page.
  SparseMemory parent;
  parent.reserve_flat(0, 0x2000);
  SparseMemory first = parent.fork();
  parent.write(0x1000, 0x01, 1);   // materialises + caches page 1.
  parent.write(0x30000, 0x02, 1);  // sparse page, cached too.
  SparseMemory child = parent.fork();
  parent.write(0x1000, 0xFF, 1);  // must CoW-copy, not hit the stale cache.
  parent.write(0x30000, 0xEE, 1);
  EXPECT_EQ(child.read(0x1000, 1), 0x01u);
  EXPECT_EQ(child.read(0x30000, 1), 0x02u);
  EXPECT_EQ(parent.read(0x1000, 1), 0xFFu);
  EXPECT_EQ(parent.read(0x30000, 1), 0xEEu);
  EXPECT_EQ(first.read(0x1000, 1), 0u);
}

TEST(SparseMemoryCow, StaleReadCacheInvalidatedByCopyOnWrite) {
  SparseMemory parent;
  parent.reserve_flat(0, 0x2000);
  parent.write(0x1000, 0x10, 1);
  SparseMemory child = parent.fork();
  EXPECT_EQ(child.read(0x1000, 1), 0x10u);  // primes child's read cache.
  child.write(0x1000, 0x77, 1);             // CoW-copies the page.
  EXPECT_EQ(child.read(0x1000, 1), 0x77u);  // not the stale shared bytes.
  EXPECT_EQ(parent.read(0x1000, 1), 0x10u);
}

TEST(SparseMemoryCow, ConstForkRequiresFreeze) {
  const SparseMemory memory;
  EXPECT_THROW(memory.fork(), std::logic_error);
  SparseMemory frozen;
  frozen.write(0x40, 0x5A, 1);
  frozen.freeze();
  const SparseMemory& view = frozen;
  SparseMemory child = view.fork();
  EXPECT_EQ(child.read(0x40, 1), 0x5Au);
}

TEST(SparseMemoryCow, FrozenMemoryRejectsReserveFlat) {
  SparseMemory memory;
  memory.freeze();
  EXPECT_THROW(memory.reserve_flat(0, 0x1000), std::logic_error);
}

TEST(SparseMemoryCow, CloneOfFrozenMaterialisesAPrivateCopy) {
  SparseMemory original;
  original.reserve_flat(0, 0x2000);
  original.write(0x1010, 0xABCD, 2);
  original.write(0x70000, 0x1234, 2);
  original.freeze();
  original.write(0x1010, 0xBEEF, 2);  // overlay page over the backing.
  SparseMemory copy = original.clone();
  EXPECT_FALSE(copy.is_cow());
  EXPECT_EQ(copy.read(0x1010, 2), 0xBEEFu);
  EXPECT_EQ(copy.read(0x70000, 2), 0x1234u);
  copy.write(0x1010, 0x5555, 2);
  EXPECT_EQ(original.read(0x1010, 2), 0xBEEFu);
}

TEST(SparseMemoryCow, ReadSharedSeesOverlayAndBacking) {
  SparseMemory memory;
  memory.reserve_flat(0, 0x2000);
  memory.write(0x0008, 0x1111, 2);
  memory.write(0x1008, 0x2222, 2);
  memory.freeze();
  memory.write(0x1008, 0x3333, 2);  // page 1 becomes overlay; page 0 backing.
  EXPECT_EQ(memory.read_shared(0x0008, 2), 0x1111u);
  EXPECT_EQ(memory.read_shared(0x1008, 2), 0x3333u);
  // Page-crossing read_shared across backing/overlay pages.
  memory.write(0x0FFC, 0xA1B2C3D4E5F60718ULL, 8);
  EXPECT_EQ(memory.read_shared(0x0FFC, 8), 0xA1B2C3D4E5F60718ULL);
}

// ---- Content digest --------------------------------------------------------

TEST(SparseMemoryDigest, RepresentationIndependent) {
  // The same bytes through three representations — private flat window,
  // plain sparse pages, and a forked CoW child — digest identically.
  SparseMemory flat;
  flat.reserve_flat(0, 0x4000);
  flat.write(0x1008, 0xDEADBEEF, 4);
  flat.write(0x90000, 0x55, 1);

  SparseMemory sparse;
  sparse.write(0x1008, 0xDEADBEEF, 4);
  sparse.write(0x90000, 0x55, 1);

  SparseMemory cow_parent;
  cow_parent.reserve_flat(0, 0x4000);
  cow_parent.write(0x90000, 0x55, 1);
  SparseMemory cow_child = cow_parent.fork();
  cow_child.write(0x1008, 0xDEADBEEF, 4);

  EXPECT_NE(flat.digest(), 0u);
  EXPECT_EQ(flat.digest(), sparse.digest());
  EXPECT_EQ(flat.digest(), cow_child.digest());
  EXPECT_NE(flat.digest(), cow_parent.digest());  // parent lacks 0x1008.
}

struct Write {
  Addr addr;
  std::uint64_t value;
  unsigned size;
};

/// Seeded writes of 1-8 bytes over the window [0, 0x8000) used below, the
/// two pages just past it, and two far pages. Some straddle a page edge
/// (the window's top edge among them); some rewrite a whole page to zero,
/// and the last always does.
std::vector<Write> random_writes(std::uint64_t seed) {
  constexpr std::uint64_t kPages[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                      0x300, 0x301};
  constexpr Addr kPageBytes = SparseMemory::kPageBytes;
  SplitMix64 rng(seed);
  const auto zero_page = [](std::vector<Write>& out, Addr page) {
    for (Addr at = 0; at < kPageBytes; at += 8) {
      out.push_back({page + at, 0, 8});
    }
  };
  std::vector<Write> writes;
  Addr page = 0;
  for (int op = 0; op < 400; ++op) {
    page = kPages[rng.next_below(std::size(kPages))] << SparseMemory::kPageBits;
    const unsigned choice = static_cast<unsigned>(rng.next_below(16));
    if (choice == 0) {
      zero_page(writes, page);
    } else if (choice < 5) {  // straddles the page's top edge.
      const auto size = static_cast<unsigned>(2 + rng.next_below(7));
      writes.push_back(
          {page + kPageBytes - 1 - rng.next_below(size - 1), rng.next(), size});
    } else {
      const auto size = static_cast<unsigned>(1 + rng.next_below(8));
      writes.push_back({page + rng.next_below(kPageBytes), rng.next(), size});
    }
  }
  zero_page(writes, page);
  return writes;
}

/// The digest's definition (docs/formats.md), written out apart from
/// SparseMemory: the XOR over `words` of m(w ^ k) ^ m(k), where w is the
/// word read back at address a, k = a * 0x9E3779B97F4A7C15 and m is the
/// SplitMix64 finalizer. Words never written are zero and add nothing.
std::uint64_t reference_digest(const SparseMemory& memory,
                               const std::set<Addr>& words) {
  const auto m = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  std::uint64_t acc = 0;
  for (const Addr a : words) {
    const std::uint64_t k = a * 0x9E3779B97F4A7C15ULL;
    acc ^= m(memory.read(a, 8) ^ k) ^ m(k);
  }
  return acc;
}

/// Writes through write_block: the low `size` bytes of `value`.
void write_as_block(SparseMemory& memory, const Write& w) {
  std::array<std::uint8_t, 8> bytes{};
  for (unsigned i = 0; i < w.size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(w.value >> (8 * i));
  }
  memory.write_block(w.addr, std::span(bytes.data(), w.size));
}

TEST(SparseMemoryDigest, RepresentationIndependentUnderRandomWrites) {
  // The same seeded writes through a private flat window, plain sparse
  // pages (every third write as a block), sparse pages that a flat window
  // absorbs afterwards, a CoW child whose frozen parent took a random
  // prefix of them, and a clone of that child. Each one's running digest
  // must equal the definition recomputed from its own reads: the
  // representations share one update path, so agreeing with each other
  // alone would not catch a wrong sub-word or page-crossing update.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::vector<Write> writes = random_writes(seed);
    const std::size_t prefix = SplitMix64(~seed).next_below(writes.size() + 1);
    std::set<Addr> words;
    SparseMemory flat;
    flat.reserve_flat(0, 0x8000);
    SparseMemory sparse;
    SparseMemory absorbed;
    SparseMemory cow_parent;
    cow_parent.reserve_flat(0, 0x8000);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      const Write& w = writes[i];
      for (Addr a = w.addr & ~Addr{7}; a < w.addr + w.size; a += 8) {
        words.insert(a);
      }
      flat.write(w.addr, w.value, w.size);
      if (i % 3 == 0) {
        write_as_block(sparse, w);
      } else {
        sparse.write(w.addr, w.value, w.size);
      }
      absorbed.write(w.addr, w.value, w.size);
      if (i < prefix) cow_parent.write(w.addr, w.value, w.size);
    }
    absorbed.reserve_flat(0, 0x8000);
    SparseMemory cow_child = cow_parent.fork();
    for (std::size_t i = prefix; i < writes.size(); ++i) {
      cow_child.write(writes[i].addr, writes[i].value, writes[i].size);
    }
    const SparseMemory cow_clone = cow_child.clone();
    const std::uint64_t want = reference_digest(flat, words);
    EXPECT_NE(want, 0u) << "seed " << seed;
    for (const SparseMemory* memory : std::array<const SparseMemory*, 5>{
             &flat, &sparse, &absorbed, &cow_child, &cow_clone}) {
      EXPECT_EQ(reference_digest(*memory, words), want) << "seed " << seed;
      EXPECT_EQ(memory->digest(), want) << "seed " << seed;
    }
  }
}

/// One 4 KiB page whose byte i is i mod 256.
std::vector<std::uint8_t> ramp_page() {
  std::vector<std::uint8_t> bytes(SparseMemory::kPageBytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  return bytes;
}

TEST(SparseMemoryDigest, GoldenVectors) {
  // Every artifact's `mem_digest` is this function's value, so changing
  // it re-keys every artifact and checkpoint: that takes a format version
  // bump (docs/formats.md), not an accident. The values are the XOR over
  // words of m(w ^ k(a)) ^ m(k(a)), pinned at format version 4.
  SparseMemory one_byte;
  one_byte.write(0x1000, 0x01, 1);
  EXPECT_EQ(one_byte.digest(), 0x353DFEF1B713257CULL);

  SparseMemory high_page;  // page number 2^32 + 3.
  high_page.write_block(
      ((std::uint64_t{1} << 32) + 3) << SparseMemory::kPageBits, ramp_page());
  EXPECT_EQ(high_page.digest(), 0xAB1D8350B75BA0F5ULL);

  SparseMemory windowed;  // window pages 0 and 2 non-zero, page 1 zero.
  windowed.reserve_flat(0, 0x3000);
  windowed.write(0x0010, 0x0123456789ABCDEFULL, 8);
  windowed.write(0x2FF8, 0xFEDCBA9876543210ULL, 8);
  windowed.write(0x40000, 0xCAFE, 2);  // a sparse page outside the window.
  EXPECT_EQ(windowed.digest(), 0xE931DC2826D95AE1ULL);
}

TEST(SparseMemoryDigest, EveryWordAndBitReachesTheDigest) {
  // Flipping bit 0, 31, 32 or 63 of any of a page's 512 words gives 2,048
  // distinct digests. A term that dropped part of the word or its address
  // would send several flips to one value.
  constexpr Addr kBase = 0x5000;
  SparseMemory memory;
  memory.write_block(kBase, ramp_page());
  const std::uint64_t clean = memory.digest();
  std::unordered_set<std::uint64_t> seen;
  for (Addr at = kBase; at < kBase + SparseMemory::kPageBytes; at += 8) {
    const std::uint64_t word = memory.read(at, 8);
    for (const unsigned bit : {0u, 31u, 32u, 63u}) {
      memory.write(at, word ^ (std::uint64_t{1} << bit), 8);
      const std::uint64_t flipped = memory.digest();
      EXPECT_NE(flipped, clean) << "word at " << at << ", bit " << bit;
      seen.insert(flipped);
    }
    memory.write(at, word, 8);
  }
  EXPECT_EQ(seen.size(), 2048u);
  EXPECT_EQ(memory.digest(), clean);
}

TEST(SparseMemoryDigest, ZeroPagesDoNotContribute) {
  SparseMemory empty;
  EXPECT_EQ(empty.digest(), 0u);
  SparseMemory windowed;
  windowed.reserve_flat(0, 0x100000);  // untouched window digests as empty.
  EXPECT_EQ(windowed.digest(), 0u);
  windowed.write(0x2000, 1, 1);
  const std::uint64_t one = windowed.digest();
  EXPECT_NE(one, 0u);
  windowed.write(0x2000, 0, 1);  // restore to all-zero: digest reverts.
  EXPECT_EQ(windowed.digest(), 0u);
  EXPECT_EQ(one, [] {
    SparseMemory sparse;
    sparse.write(0x2000, 1, 1);
    return sparse.digest();
  }());
}

TEST(SparseMemoryDigest, SensitiveToValueAndAddress) {
  SparseMemory a;
  a.write(0x1000, 0x42, 1);
  SparseMemory b;
  b.write(0x1000, 0x43, 1);
  SparseMemory c;
  c.write(0x2000, 0x42, 1);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(b.digest(), c.digest());
}

}  // namespace
}  // namespace paradet::arch

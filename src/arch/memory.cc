#include "arch/memory.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace paradet::arch {

void SparseMemory::reserve_flat(Addr base, std::size_t bytes) {
  if (bytes == 0) return;
  if (cow_) {
    throw std::logic_error(
        "SparseMemory::reserve_flat: memory is frozen (CoW mode)");
  }
  if (!flat_.empty()) {
    // A second window would replace the first and drop its bytes.
    throw std::logic_error(
        "SparseMemory::reserve_flat: a flat window is already installed");
  }
  const Addr lo = base & ~Addr{kPageBytes - 1};
  const Addr hi = (base + bytes + kPageBytes - 1) & ~Addr{kPageBytes - 1};
  flat_base_ = lo;
  flat_.assign(static_cast<std::size_t>(hi - lo), 0);
  // Absorb any pages already populated inside the window, so installing
  // the flat backing is invisible to readers.
  for (auto it = pages_.begin(); it != pages_.end();) {
    const Addr page_base = it->first << kPageBits;
    if (page_base >= lo && page_base < hi) {
      std::memcpy(flat_.data() + (page_base - lo), it->second->data(),
                  kPageBytes);
      it = pages_.erase(it);
    } else {
      ++it;
    }
  }
  cached_page_ = kNoPage;
  cached_bytes_ = nullptr;
  cached_page_mut_ = kNoPage;
  cached_bytes_mut_ = nullptr;
}

SparseMemory SparseMemory::clone() const {
  SparseMemory copy;
  copy.digest_ = digest_;
  copy.flat_base_ = flat_base_;
  if (cow_) {
    // Materialise back into a private flat window: backing plus this
    // memory's overlay pages, exactly the bytes a reader would see.
    copy.flat_.assign(shared_flat_->begin(), shared_flat_->end());
    for (std::size_t slot = 0; slot < flat_overlay_.size(); ++slot) {
      if (flat_overlay_[slot] != nullptr) {
        std::memcpy(copy.flat_.data() + (slot << kPageBits),
                    flat_overlay_[slot]->data(), kPageBytes);
      }
    }
  } else {
    copy.flat_ = flat_;
  }
  for (const auto& [page, ref] : pages_) {
    copy.pages_.emplace(page, std::make_shared<Page>(*ref));
  }
  return copy;
}

void SparseMemory::freeze() {
  if (cow_) return;
  auto backing =
      std::make_shared<std::vector<std::uint8_t>>(std::move(flat_));
  flat_.clear();  // moved-from: guarantee the private fast path is off.
  shared_flat_ = std::move(backing);
  flat_overlay_.assign(shared_flat_->size() >> kPageBits, nullptr);
  cow_ = true;
  cached_page_ = kNoPage;
  cached_bytes_ = nullptr;
  cached_page_mut_ = kNoPage;
  cached_bytes_mut_ = nullptr;
}

SparseMemory SparseMemory::fork() const {
  if (!cow_) {
    throw std::logic_error(
        "SparseMemory::fork on a const memory requires freeze() first");
  }
  SparseMemory child;
  child.digest_ = digest_;
  child.flat_base_ = flat_base_;
  child.cow_ = true;
  child.shared_flat_ = shared_flat_;
  child.flat_overlay_ = flat_overlay_;  // shared_ptr copies: O(pages).
  child.pages_ = pages_;
  return child;
}

std::size_t SparseMemory::cow_dirty_pages() const {
  std::size_t dirty = 0;
  for (const PageRef& ref : flat_overlay_) dirty += ref != nullptr;
  return dirty;
}

const std::uint8_t* SparseMemory::page_ptr(Addr addr) const {
  const std::uint64_t page = addr >> kPageBits;
  if (page == cached_page_) return cached_bytes_;
  const std::uint8_t* bytes = nullptr;
  const Addr page_base = page << kPageBits;
  const Addr flat_offset = page_base - flat_base_;
  if (flat_offset < flat_.size()) {
    bytes = flat_.data() + flat_offset;
  } else if (cow_ && flat_offset < shared_flat_size()) {
    const Page* over = flat_overlay_[flat_offset >> kPageBits].get();
    bytes = over != nullptr ? over->data() : shared_flat_->data() + flat_offset;
  } else if (const auto it = pages_.find(page); it != pages_.end()) {
    bytes = it->second->data();
  }
  if (bytes != nullptr) {
    // Only hits are cached: a miss must re-probe, since the page may be
    // created by a later write.
    cached_page_ = page;
    cached_bytes_ = bytes;
  }
  return bytes;
}

std::uint8_t* SparseMemory::page_ptr_mut(Addr addr) {
  const std::uint64_t page = addr >> kPageBits;
  if (page == cached_page_mut_) return cached_bytes_mut_;
  std::uint8_t* bytes;
  const Addr page_base = page << kPageBits;
  const Addr flat_offset = page_base - flat_base_;
  if (flat_offset < flat_.size()) {
    bytes = flat_.data() + flat_offset;
  } else if (cow_ && flat_offset < shared_flat_size()) {
    PageRef& over = flat_overlay_[flat_offset >> kPageBits];
    if (over == nullptr) {
      // First write to this window page: materialise a private copy of
      // the shared backing's bytes.
      const std::uint8_t* from = shared_flat_->data() + flat_offset;
      over = std::make_shared<Page>(from, from + kPageBytes);
      invalidate_caches_for(page);
    } else if (over.use_count() > 1) {
      over = std::make_shared<Page>(*over);  // copy-on-write.
      invalidate_caches_for(page);
    }
    bytes = over->data();
  } else {
    PageRef& ref = pages_[page];
    if (ref == nullptr) {
      ref = std::make_shared<Page>(kPageBytes, 0);
    } else if (ref.use_count() > 1) {
      ref = std::make_shared<Page>(*ref);  // copy-on-write.
      invalidate_caches_for(page);
    }
    bytes = ref->data();
  }
  cached_page_mut_ = page;
  cached_bytes_mut_ = bytes;
  return bytes;
}

std::uint64_t SparseMemory::read_paged(Addr addr, unsigned size) const {
  const std::size_t offset = addr & (kPageBytes - 1);
  std::uint64_t value = 0;
  if (offset + size <= kPageBytes) {
    const std::uint8_t* page = page_ptr(addr);
    if (page != nullptr) std::memcpy(&value, page + offset, size);
    return value;
  }
  // Page-crossing access: one memcpy per side of the boundary.
  const unsigned first = static_cast<unsigned>(kPageBytes - offset);
  auto* out = reinterpret_cast<std::uint8_t*>(&value);
  if (const std::uint8_t* page = page_ptr(addr)) {
    std::memcpy(out, page + offset, first);
  }
  if (const std::uint8_t* page = page_ptr(addr + first)) {
    std::memcpy(out + first, page, size - first);
  }
  return value;
}

std::uint64_t SparseMemory::read_paged_shared(Addr addr, unsigned size) const {
  // Cache-free twin of read_paged: page lookups go straight to the flat
  // window / CoW backing / page map without touching the mutable one-entry
  // cache, so concurrent readers of an immutable memory never race.
  const auto lookup = [this](Addr a) -> const std::uint8_t* {
    const Addr page_base = a & ~Addr{kPageBytes - 1};
    const Addr flat_offset = page_base - flat_base_;
    if (flat_offset < flat_.size()) return flat_.data() + flat_offset;
    if (cow_ && flat_offset < shared_flat_size()) {
      const Page* over = flat_overlay_[flat_offset >> kPageBits].get();
      return over != nullptr ? over->data()
                             : shared_flat_->data() + flat_offset;
    }
    const auto it = pages_.find(a >> kPageBits);
    return it != pages_.end() ? it->second->data() : nullptr;
  };
  const std::size_t offset = addr & (kPageBytes - 1);
  std::uint64_t value = 0;
  auto* out = reinterpret_cast<std::uint8_t*>(&value);
  if (offset + size <= kPageBytes) {
    if (const std::uint8_t* page = lookup(addr)) {
      std::memcpy(out, page + offset, size);
    }
    return value;
  }
  const unsigned first = static_cast<unsigned>(kPageBytes - offset);
  if (const std::uint8_t* page = lookup(addr)) {
    std::memcpy(out, page + offset, first);
  }
  if (const std::uint8_t* page = lookup(addr + first)) {
    std::memcpy(out + first, page, size - first);
  }
  return value;
}

void SparseMemory::write_split(Addr addr, std::uint64_t value,
                               unsigned size) {
  const unsigned first = 8 - static_cast<unsigned>(addr & 7);
  write(addr, value, first);
  write(addr + first, value >> (8 * first), size - first);
}

void SparseMemory::write_block(Addr addr, std::span<const std::uint8_t> bytes) {
  // Word-aligned pieces through write(), so the digest follows every word
  // the block changes.
  for (std::size_t done = 0; done < bytes.size();) {
    const Addr at = addr + done;
    const std::size_t piece =
        std::min<std::size_t>(8 - (at & 7), bytes.size() - done);
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + done, piece);
    write(at, value, static_cast<unsigned>(piece));
    done += piece;
  }
}

void SparseMemory::read_block(Addr addr, std::span<std::uint8_t> out) const {
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t offset = (addr + done) & (kPageBytes - 1);
    const std::size_t room = kPageBytes - offset;
    const std::size_t chunk = std::min(room, out.size() - done);
    const std::uint8_t* page = page_ptr(addr + done);
    if (page == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, page + offset, chunk);
    }
    done += chunk;
  }
}

}  // namespace paradet::arch

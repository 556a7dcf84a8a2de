// FNV-1a 64-bit: the repo's hash for short strings (assembly-cache keys,
// golden-output pins in the tests). Final memory has its own digest, a
// running XOR of per-word terms that SparseMemory updates on every write
// (SparseMemory::digest in arch/memory.h): hashing megabytes byte by byte
// at the end of every run is too slow.
#pragma once

#include <cstdint>
#include <string_view>

namespace paradet {

/// Incremental FNV-1a 64. Feed bytes/integers, read `value()` any time.
class Fnv1a64 {
 public:
  void mix_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;
  }

  void mix_bytes(std::string_view bytes) {
    for (const char c : bytes) mix_byte(static_cast<unsigned char>(c));
  }

  /// Little-endian byte order, so the digest is host-independent.
  void mix_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>((value >> (8 * i)) & 0xFF));
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  ///< FNV offset basis.
};

/// One-shot digest of a byte string.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 hash;
  hash.mix_bytes(bytes);
  return hash.value();
}

}  // namespace paradet

// Canonical-JSON building blocks shared by every paradet persistence
// surface: campaign artifacts and checkpoint journals (serialize.cc).
//
// "Canonical" means byte-deterministic: fixed key order is the caller's
// job, but number formatting (shortest round-trip decimals via to_chars),
// string escaping and the ±inf/nan sentinels are fixed here, so that
// serialize∘deserialize is the identity down to the last bit and
// equivalence checks can be `cmp`, not tolerances.
//
// The checksummed line framing (16 lowercase-hex chars of FNV-1a 64 over
// the payload, a space, the payload) lives here too: the checkpoint
// journal appends one such line per completed task.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paradet::runtime::json {

// --- Writers ---------------------------------------------------------------

void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);
/// Shortest decimal that round-trips to the exact same bits via
/// from_chars. Non-finite doubles are encoded as the JSON strings "inf" /
/// "-inf" / "nan".
void append_double(std::string& out, double v);
/// Quoted and escaped (\" \\ and \u00xx for control bytes).
void append_string(std::string& out, std::string_view s);

// --- A minimal JSON document model -----------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< number token (verbatim) or decoded string value.
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;  ///< ordered.

  const Json* find(std::string_view key) const;
  /// The field, or a thrown std::runtime_error naming the missing key.
  const Json& at(std::string_view key) const;

  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;  ///< accepts the "inf"/"-inf"/"nan" sentinels.
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
};

/// Parses one whole JSON document (trailing bytes are an error). Nesting
/// is depth-capped so corrupt or hostile input throws instead of
/// recursing the stack away. Throws std::runtime_error on any defect.
Json parse(std::string_view text);

// --- Checksummed line framing ----------------------------------------------

/// One framed line: 16 lowercase-hex checksum chars, a space, the
/// payload, a newline. The FNV-1a-64 checksum covers exactly the payload
/// bytes. This is the checkpoint-journal line format.
std::string checksum_line(std::string_view payload);

/// Parses the hex checksum prefix of a framed line; returns false on any
/// framing defect (short line, missing separator, non-hex digit).
bool parse_checksum_prefix(std::string_view line, std::uint64_t* sum);

// --- File helpers -----------------------------------------------------------

/// Whole-file read; throws std::runtime_error when the file cannot be
/// opened or read.
std::string read_whole_file(const std::string& path);

/// True when `path` is openable; false only on ENOENT. Any other failure
/// (permissions, fd exhaustion) throws: silently treating an existing
/// file as absent would let a caller clobber state it should resume.
bool exists_or_throw(const std::string& path);

}  // namespace paradet::runtime::json

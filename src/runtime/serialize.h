// Portable, versioned serialization for campaign results.
//
// A campaign's --out file is one CampaignArtifact written as canonical
// JSON: fixed key order, fixed number formatting (std::to_chars shortest
// round-trip for doubles, so std::from_chars recovers every bit), and a
// format/version header. Canonical bytes are the point: "parallelism
// never changes bytes" is checked with cmp, not with tolerances. The
// format is write-only here; nothing in this repository reads it back.
//
// Non-finite doubles (an empty Summary's min/max are ±inf) are encoded as
// the JSON strings "inf" / "-inf" / "nan"; everything else is plain JSON.
#pragma once

#include <string>

#include "common/stats.h"
#include "runtime/campaign.h"
#include "sim/checked_system.h"

namespace paradet::runtime {

inline constexpr const char* kArtifactFormatName = "paradet-campaign";
/// Version 2: RunResult gained "mem_digest" (final-memory digest, used by
/// silent-corruption classification). Version 3: "mem_digest" comes from a
/// new page hash. Version 4: "mem_digest" is a running XOR of per-word
/// terms (docs/formats.md), so old and new values never compare. Version
/// 5: the header is format, version, seed and tasks only; the shard
/// fields, the configuration fingerprint and the completed-task bitmap
/// are gone, because every campaign runs whole in one process.
inline constexpr std::uint64_t kArtifactFormatVersion = 5;

std::string to_json(const Summary& summary);
std::string to_json(const Histogram& histogram);
std::string to_json(const Counters& counters);
std::string to_json(const sim::RunResult& result);
std::string to_json(const CampaignAggregate& aggregate);
/// The full versioned document (format + version + seed + tasks +
/// aggregate + one line per run record), '\n'-terminated.
std::string to_json(const CampaignArtifact& artifact);

/// Writes atomically: a temp file in the same directory, then rename, so a
/// reader (or a crash mid-write) never observes a torn artifact. Throws
/// std::runtime_error when the path cannot be written.
void write_artifact_file(const std::string& path,
                         const CampaignArtifact& artifact);

}  // namespace paradet::runtime

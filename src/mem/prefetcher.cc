#include "mem/prefetcher.h"

#include "mem/cache.h"

namespace paradet::mem {

void StridePrefetcher::train(Cache& cache, Addr pc, Addr line_addr,
                             Cycle when) {
  Entry& entry = table_[(pc >> 2) % table_.size()];
  if (!entry.valid || entry.pc_tag != pc) {
    entry = Entry{pc, line_addr, 0, 0, true};
    return;
  }
  // A fault-corrupted access can train on any address, so the stride and
  // the targets are computed in Addr, which wraps, never in signed
  // arithmetic, which may overflow.
  const auto stride = static_cast<std::int64_t>(line_addr - entry.last_addr);
  if (stride == 0) return;  // same line; no information.
  if (stride == entry.stride) {
    if (entry.confidence < 3) ++entry.confidence;
  } else {
    entry.stride = stride;
    entry.confidence = entry.confidence > 0 ? entry.confidence - 1 : 0;
  }
  entry.last_addr = line_addr;
  if (entry.confidence >= 2) {
    for (unsigned i = 0; i < config_.degree; ++i) {
      const Addr offset =
          static_cast<Addr>(entry.stride) * (config_.distance + i);
      cache.prefetch_line(line_addr + offset, when);
      ++issued_;
    }
  }
}

}  // namespace paradet::mem

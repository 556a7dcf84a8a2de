// Tests for ticket batching in concurrent checker replay: the
// sim::SegmentPipeline coalesces consecutive sealed segments into one
// runtime::CheckerPool ticket (one worker replays the batch back-to-back,
// the absorber folds it in segment-ordinal order) and sizes the tickets
// itself. Every simulation artifact stays *byte-identical* to inline
// replay, including warm-state resume and a release_cycle() that must
// flush a partial ticket. Runs under TSan in CI (the "checker" ctest
// regex).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.h"
#include "core/load_store_log.h"
#include "isa/assembler.h"
#include "runtime/checker_pool.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "sim/segment_pipeline.h"

namespace paradet {
namespace {

// The concurrent-replay fixture program: enough stores and loop structure
// to seal many segments, so batches of every size actually form.
constexpr const char* kProgram = R"(
_start:
  li   t0, 400
  la   t1, data
  li   t2, 1
loop:
  ld   t3, 0(t1)
  add  t3, t3, t2
  sd   t3, 0(t1)
  addi t1, t1, 8
  andi t1, t1, 4095
  la   a0, data
  or   t1, t1, a0
  addi t2, t2, 1
  bne  t2, t0, loop
  la   t1, data
  li   t0, 512
  li   s4, 0
sum:
  ld   t3, 0(t1)
  add  s4, s4, t3
  addi t1, t1, 8
  addi t0, t0, -1
  bnez t0, sum
  la   t5, result
  sd   s4, 0(t5)
  halt
.org 0x100000
result:
.org 0x200000
data:
)";

isa::Assembled assemble_fixture() {
  auto assembled = isa::assemble(kProgram);
  EXPECT_TRUE(assembled.ok);
  return assembled;
}

// --- Warm-state resume -----------------------------------------------------

TEST(CheckerBatching, WarmForkResumesIntoBatchedPool) {
  // A warm capture taken under a batched pool resumes into a batched pool
  // (the WarmState carries the CheckerExec shape) and the forked tail is
  // byte-identical to both the full batched run and the inline reference
  // — tickets are session-local, so the resumed pipeline restarts its
  // ticket numbering without rebasing.
  const auto assembled = assemble_fixture();
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 50000;
  job.checker = CheckerExec(4);
  const sim::RunResult full = sim::run_job(job, assembled);
  const auto warm = sim::capture_warm_state(job, assembled,
                                            /*prefix_uops=*/3000);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->checker.threads, 4u);
  const sim::RunResult forked = sim::run_job_from(*warm);
  EXPECT_EQ(runtime::to_json(forked), runtime::to_json(full));

  sim::SimJob inline_job = job;
  inline_job.checker = CheckerExec{};
  EXPECT_EQ(runtime::to_json(sim::run_job(inline_job, assembled)),
            runtime::to_json(full));

  // A faulty tail forked into the batched pool detects at the same
  // ordinal as the full batched run.
  core::FaultInjector fork_faults;
  core::FaultSpec spec;
  spec.site = core::FaultSite::kMainStoreValue;
  spec.at_seq = 4200;
  spec.bit = 13;
  fork_faults.add(spec);
  core::FaultInjector full_faults = fork_faults;
  ASSERT_TRUE(warm->tail_safe(fork_faults));
  sim::SimJob faulty_job = job;
  faulty_job.faults = &full_faults;
  EXPECT_EQ(runtime::to_json(sim::run_job_from(*warm, &fork_faults)),
            runtime::to_json(sim::run_job(faulty_job, assembled)));
}

// --- Partial tickets ------------------------------------------------------

TEST(SegmentPipeline, ReleasingAStagedIndexFlushesTheOpenTicket) {
  // One empty segment is far below both ticket-size limits, so it stays
  // staged in the open ticket. Asking for its index's release cycle must
  // publish that partial ticket before waiting — otherwise the wait never
  // ends — and must return exactly the inline pipeline's cycle.
  const auto assembled = assemble_fixture();
  const SystemConfig config =
      sim::apply_mode(SystemConfig::standard(), sim::SimMode::kChecked);
  const auto release_then_finish = [&](CheckerExec checker) {
    sim::LoadedProgram program = sim::load_program(assembled);
    sim::SegmentPipeline pipeline(config, program.memory,
                                  &program.predecoded(), program.statics.get(),
                                  checker, /*undo_log=*/nullptr);
    core::Segment segment;
    segment.ordinal = 0;
    segment.start.state.pc = program.entry;
    segment.end.state.pc = program.entry;
    pipeline.produce(segment, /*seal_cycle=*/0, /*index=*/0, nullptr);
    const Cycle released = pipeline.release_cycle(0);
    pipeline.finish();
    EXPECT_FALSE(pipeline.error_detected());
    return released;
  };
  const Cycle inline_cycle = release_then_finish(CheckerExec{});
  EXPECT_GT(inline_cycle, 0u);
  EXPECT_EQ(release_then_finish(CheckerExec(2)), inline_cycle);
}

// --- CheckerPool under batched tickets -------------------------------------

TEST(CheckerPool, CapacityOneBackpressureWithBatchedPayloads) {
  // Capacity 1 is the degenerate ring: the producer may never be more
  // than one ticket ahead of the absorber, so each wait_slot(t) for t > 0
  // must observe ticket t-1 fully absorbed — even when each ticket
  // carries a multi-item batch whose work is slow.
  constexpr std::uint64_t kTickets = 30;
  constexpr std::size_t kItemsPerBatch = 5;
  std::vector<std::uint64_t> batch_sums(kTickets, 0);
  std::atomic<std::uint64_t> absorbed_count{0};
  runtime::CheckerPool pool(
      /*threads=*/2, /*capacity=*/1,
      [&](std::uint64_t ticket, unsigned) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < kItemsPerBatch; ++i) {
          sum += ticket * kItemsPerBatch + i;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        batch_sums[ticket] = sum;
      },
      [&](std::uint64_t) { ++absorbed_count; });
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    pool.wait_slot(t);
    EXPECT_EQ(absorbed_count.load(), t);  // exactly one ticket in flight.
    pool.publish(t);
  }
  pool.drain();
  EXPECT_EQ(absorbed_count.load(), kTickets);
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kItemsPerBatch; ++i) {
      expected += t * kItemsPerBatch + i;
    }
    EXPECT_EQ(batch_sums[t], expected) << "ticket " << t;
  }
}

TEST(CheckerPool, MidBatchExceptionSurfacesOnTheProducer) {
  // A throw from the middle item of a batch must reach the producer (on
  // publish/wait_slot/drain), absorb no further tickets past the failure,
  // and still let the pool destruct without hanging.
  std::atomic<std::uint64_t> last_absorbed{0};
  bool threw = false;
  {
    runtime::CheckerPool pool(
        /*threads=*/2, /*capacity=*/2,
        [&](std::uint64_t ticket, unsigned) {
          for (std::size_t item = 0; item < 4; ++item) {
            if (ticket == 5 && item == 2) {
              throw std::runtime_error("mid-batch replay exploded");
            }
          }
        },
        [&](std::uint64_t ticket) { last_absorbed.store(ticket + 1); });
    try {
      for (std::uint64_t t = 0; t < 100; ++t) {
        pool.wait_slot(t);
        pool.publish(t);
      }
      pool.drain();
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "mid-batch replay exploded");
    }
    EXPECT_TRUE(threw);
    EXPECT_LE(last_absorbed.load(), 5u);  // the failed ticket never absorbs.
  }  // destructor must join cleanly after the failure.
}

TEST(CheckerPool, AbsorberOrderingUnderAdversarialScheduling) {
  // Variable-size batch payloads with deliberately inverted work times
  // (early tickets slowest), 4 workers racing: absorption must still be
  // strictly ticket-ordered, so the concatenation of all batch items is
  // exactly the production order. Runs under TSan in CI.
  constexpr std::uint64_t kTickets = 120;
  std::vector<std::vector<std::uint64_t>> payloads(kTickets);
  std::vector<std::uint64_t> absorbed_items;
  std::uint64_t next_item = 0;
  runtime::CheckerPool pool(
      /*threads=*/4, /*capacity=*/5,
      [&](std::uint64_t ticket, unsigned worker) {
        // Earlier tickets sleep longer; sprinkle extra jitter by worker.
        const auto delay =
            std::chrono::microseconds(((kTickets - ticket) % 7) * 30 +
                                      (worker % 3) * 10);
        std::this_thread::sleep_for(delay);
      },
      [&](std::uint64_t ticket) {
        for (const std::uint64_t item : payloads[ticket]) {
          absorbed_items.push_back(item);
        }
      });
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    pool.wait_slot(t);
    const std::size_t batch_size = 1 + (t % 4);  // 1..4 items per ticket.
    payloads[t].clear();
    for (std::size_t i = 0; i < batch_size; ++i) {
      payloads[t].push_back(next_item++);
    }
    pool.publish(t);
  }
  pool.drain();
  ASSERT_EQ(absorbed_items.size(), next_item);
  for (std::uint64_t i = 0; i < next_item; ++i) {
    ASSERT_EQ(absorbed_items[i], i) << "absorb order broke at item " << i;
  }
}

}  // namespace
}  // namespace paradet

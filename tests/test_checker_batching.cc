// Tests for ticket batching in concurrent checker replay: the
// sim::SegmentPipeline coalesces consecutive sealed segments into one
// runtime::CheckerPool ticket (one worker replays the batch back-to-back,
// the absorber folds it in segment-ordinal order), and --checker-batch
// selects the batch size. The load-bearing property is unchanged from
// test_concurrent_replay.cc and now holds along a second axis: every
// simulation artifact is *byte-identical* at any batch size x thread
// count x jobs combination, including fault detection and warm-state
// resume. Runs under TSan in CI (the "checker" ctest regex).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.h"
#include "isa/assembler.h"
#include "runtime/checker_pool.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "runtime/sweep_campaign.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

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

/// The checked Table I system over 50,000 instructions, replaying in the
/// `checker` shape.
sim::SimJob checked_job(CheckerExec checker) {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 50000;
  job.checker = checker;
  return job;
}

// --- Determinism matrix ----------------------------------------------------

TEST(CheckerBatching, RunResultByteIdenticalAcrossBatchAndThreads) {
  const auto assembled = assemble_fixture();
  const std::string inline_json =
      runtime::to_json(sim::run_job(checked_job(CheckerExec{}), assembled));
  for (const unsigned threads : {0u, 1u, 4u}) {
    for (const unsigned batch :
         {1u, 4u, CheckerExec::kAutoBatch, /*batch > segments:*/ 64u}) {
      const std::string json = runtime::to_json(
          sim::run_job(checked_job(CheckerExec(threads, batch)), assembled));
      EXPECT_EQ(inline_json, json)
          << "diverged at threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(CheckerBatching, WorkloadSweepInvariantAcrossBatchThreadsAndJobs) {
  // Full matrix of the batching determinism requirement: batch {1, 4,
  // auto} x checker threads {0, 1, 4} x host jobs {1, 8}, every cell's
  // serialized RunResult byte-identical to the inline single-job
  // reference. Structured like the concurrent-replay sweep so the
  // campaign scheduler is in the loop too.
  const auto workload =
      workloads::make_bitcount(workloads::Scale{.factor = 0.2});
  constexpr std::uint64_t kBudget = 120000;
  const auto run_matrix = [&](unsigned jobs, CheckerExec checker) {
    runtime::ParallelRunner runner(jobs);
    runtime::SweepCampaign sweep(2, {workload}, /*seed=*/0xB4);
    const auto swept = sweep.run(
        runner, runtime::CampaignRunOptions{},
        [&](std::size_t point, std::size_t,
            const runtime::AssemblyCache::Image& image, std::uint64_t) {
          sim::SimJob job = checked_job(checker);
          job.config.checker.freq_mhz = point == 0 ? 500 : 1000;
          job.max_instructions = kBudget;
          return sim::run_job(job, image);
        });
    std::string bytes;
    for (std::size_t p = 0; p < 2; ++p) {
      bytes += runtime::to_json(*swept.cell(p, 0));
      bytes += '\n';
    }
    return bytes;
  };
  const std::string reference = run_matrix(/*jobs=*/1, CheckerExec{});
  for (const unsigned jobs : {1u, 8u}) {
    for (const unsigned threads : {0u, 1u, 4u}) {
      for (const unsigned batch : {1u, 4u, CheckerExec::kAutoBatch}) {
        EXPECT_EQ(reference, run_matrix(jobs, CheckerExec(threads, batch)))
            << "jobs=" << jobs << " threads=" << threads
            << " batch=" << batch;
      }
    }
  }
}

TEST(CheckerBatching, FaultDetectionInvariantAcrossBatchSizes) {
  // A mid-run store-value strike: the first-error ordinal and the
  // recovery checkpoint must not depend on how segments were grouped into
  // tickets. A fixed batch of 3 leaves the fault's segment mid-batch.
  const auto assembled = assemble_fixture();
  const auto run_faulty = [&](CheckerExec checker) {
    core::FaultInjector faults;
    core::FaultSpec spec;
    spec.site = core::FaultSite::kMainStoreValue;
    spec.at_seq = 1500;
    spec.bit = 9;
    faults.add(spec);
    sim::LoadedProgram program = sim::load_program(assembled);
    core::UndoLog undo;
    sim::SimJob job = checked_job(checker);
    job.faults = &faults;
    job.undo_log = &undo;
    return sim::run_job(job, program);
  };
  const sim::RunResult reference = run_faulty(CheckerExec{});
  ASSERT_TRUE(reference.error_detected);
  ASSERT_TRUE(reference.first_error.has_value());
  ASSERT_TRUE(reference.recovery_checkpoint.has_value());
  for (const unsigned batch : {1u, 3u, CheckerExec::kAutoBatch}) {
    const sim::RunResult batched = run_faulty(CheckerExec(2, batch));
    EXPECT_EQ(runtime::to_json(reference), runtime::to_json(batched))
        << "faulty run diverged at batch=" << batch;
    ASSERT_TRUE(batched.first_error.has_value());
    EXPECT_EQ(reference.first_error->segment_ordinal,
              batched.first_error->segment_ordinal);
    ASSERT_TRUE(batched.recovery_checkpoint.has_value());
    EXPECT_EQ(*reference.recovery_checkpoint, *batched.recovery_checkpoint);
  }
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
  job.checker = CheckerExec(/*threads=*/4, /*batch=*/4);
  const sim::RunResult full = sim::run_job(job, assembled);
  const auto warm = sim::capture_warm_state(job, assembled,
                                            /*prefix_uops=*/3000);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->checker.threads, 4u);
  EXPECT_EQ(warm->checker.batch, 4u);
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

// --- Flag plumbing ---------------------------------------------------------

RuntimeOptions parse_args(std::vector<std::string> args) {
  args.insert(args.begin(), "test-binary");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return RuntimeOptions::from_args(static_cast<int>(argv.size()),
                                   argv.data(), /*campaign_flags=*/false);
}

TEST(CheckerBatchFlag, ParsesAndDefaultsToAuto) {
  EXPECT_EQ(parse_args({}).checker_batch, CheckerExec::kAutoBatch);
  EXPECT_EQ(parse_args({"--checker-batch=auto"}).checker_batch,
            CheckerExec::kAutoBatch);
  EXPECT_EQ(parse_args({"--checker-batch=1"}).checker_batch, 1u);
  EXPECT_EQ(parse_args({"--checker-batch=6"}).checker_batch, 6u);
  EXPECT_EQ(parse_args({"--checker-batch=4096"}).checker_batch, 4096u);
}

TEST(CheckerBatchFlagDeathTest, MalformedValuesExit2) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse_args({"--checker-batch=0"}), testing::ExitedWithCode(2),
              "checker-batch");
  EXPECT_EXIT(parse_args({"--checker-batch=4097"}),
              testing::ExitedWithCode(2), "checker-batch");
  EXPECT_EXIT(parse_args({"--checker-batch=abc"}),
              testing::ExitedWithCode(2), "checker-batch");
  EXPECT_EXIT(parse_args({"--checker-batch="}), testing::ExitedWithCode(2),
              "checker-batch");
  // Only the '=' form exists, like every other runtime flag.
  EXPECT_EXIT(parse_args({"--checker-batch", "4"}),
              testing::ExitedWithCode(2), "=");
}

TEST(CheckerExecShape, BareThreadCountConvertsWithAutoBatch) {
  // Legacy call sites assign a bare unsigned; the batch must stay auto.
  const CheckerExec from_unsigned = 3;
  EXPECT_EQ(from_unsigned.threads, 3u);
  EXPECT_EQ(from_unsigned.batch, CheckerExec::kAutoBatch);
}

}  // namespace
}  // namespace paradet

// The traced run: per-layer host time, driven from outside through each
// layer's public API, plus spans around every run_job of an end-to-end
// pass to measure what tracing itself costs.
//
// One functional pass records each kernel's dynamic instruction and data
// streams; every other layer is then driven over that recording on its
// own, so its host time is measured without the rest of the commit loop
// around it:
//
//   isa          AssemblyCache::get (fresh cache), load_program
//   arch         Machine::step with a recording DataPort; SparseMemory::digest
//   mem          Cache::access over the recorded data stream (L1D->L2->DRAM)
//   sim.ooo      OoOCore::schedule/retire on UopDescs from ProgramStatics
//   core.log     LoadStoreLog open/append/seal under the macro-op fit rule
//   core.replay  CheckerEngine::check_into on the sealed segments
//   sim.walk     CheckerCoreTiming::walk on each replay trace
//   sim.pipeline SegmentPipeline produce/release_cycle/finish, 0 and 2
//                replay workers
//   sim.system   run_job per mode; differences attribute the e2e deltas
//   runtime.warm capture_warm_state, run_job_from, classify_fault_outcome
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>

#include "bench.h"
#include "common/clock_domain.h"
#include "core/checker_engine.h"
#include "core/load_store_log.h"
#include "runtime/assembly_cache.h"
#include "runtime/serialize.h"
#include "sim/checker_timing.h"
#include "sim/segment_pipeline.h"
#include "sim/warm_state.h"

namespace perfbench {

namespace {

using pd::Addr;
using pd::Cycle;
using pd::core::EntryKind;

/// Strikes per round of the runtime.warm drive; the first kColdChecks of
/// them are re-run cold and must match their forked tail byte for byte.
constexpr std::uint64_t kWarmStrikes = 16;
constexpr std::uint64_t kColdChecks = 2;
/// Fault-free forks off a capture at the last macro-op (fixed fork cost).
constexpr unsigned kFixedForks = 8;
/// Strikes in the campaign's end-to-end pass (tracing-overhead probe).
constexpr std::uint64_t kOverheadStrikes = 32;

// --- The recording --------------------------------------------------------

struct Access {
  EntryKind kind = EntryKind::kLoad;
  std::uint8_t size = 0;
  Addr addr = 0;
  std::uint64_t value = 0;
};

struct InstRecord {
  Addr pc = 0;
  Addr next_pc = 0;
  std::uint32_t first_access = 0;
  std::uint8_t accesses = 0;
  bool taken = false;
  pd::arch::Trap trap = pd::arch::Trap::kNone;
};

/// DataPort of the functional pass: executes against real memory and
/// records every access in program order.
class RecordingPort final : public pd::arch::DataPort {
 public:
  RecordingPort(pd::arch::SparseMemory& memory, std::vector<Access>& out)
      : memory_(memory), out_(out) {}

  std::uint64_t load(Addr addr, unsigned size) override {
    const std::uint64_t value = memory_.read(addr, size);
    out_.push_back({EntryKind::kLoad, static_cast<std::uint8_t>(size), addr,
                    value});
    return value;
  }
  void store(Addr addr, std::uint64_t value, unsigned size) override {
    memory_.write(addr, value, size);
    out_.push_back({EntryKind::kStore, static_cast<std::uint8_t>(size), addr,
                    value});
  }
  std::uint64_t read_cycle() override {
    out_.push_back({EntryKind::kNondet, 0, 0, 0});
    return 0;
  }

 private:
  pd::arch::SparseMemory& memory_;
  std::vector<Access>& out_;
};

/// One kernel's recorded execution plus what later drives derive from it.
struct Recording {
  std::vector<InstRecord> insts;
  std::vector<Access> accesses;
  std::vector<const pd::sim::InstStatic*> statics;
  std::deque<pd::sim::InstStatic> out_of_image;  ///< owns rare fallbacks.
  std::vector<Cycle> commit;  ///< per instruction, from the sim.ooo drive.
};

/// Host seconds and work counts of one round, summed over its kernels.
struct Totals {
  double assemble_s = 0, load_s = 0;
  double arch_s = 0, digest_s = 0;
  std::uint64_t arch_insts = 0;
  double mem_s = 0;
  std::uint64_t mem_accesses = 0, l1d_hits = 0, l1d_misses = 0, l2_hits = 0,
                l2_misses = 0, way_hint_hits = 0;
  double ooo_s = 0;
  std::uint64_t uops = 0, control_uops = 0, mispredicts = 0;
  double log_s = 0;
  std::uint64_t log_entries = 0, log_segments = 0, log_insts = 0;
  double replay_s = 0;
  std::uint64_t replay_insts = 0, replay_failed = 0;
  double walk_s = 0;
  std::uint64_t l0_hits = 0, l0_misses = 0;
  double pipeline_inline_s = 0, pipeline_pool_s = 0;
  double produce_wait_s = 0, release_wait_s = 0, finish_wait_s = 0;
  std::uint64_t tickets = 0, ticket_segments = 0;
  /// run_job seconds: baseline, checkpoint-only, checked, parallel.
  double system_s[4] = {0, 0, 0, 0};
  double slowdown_sum = 0;
  unsigned kernels = 0;
  // runtime.warm (randacc only).
  double capture_s = 0, tail_s = 0, fork_fixed_ms = 0, classify_s = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t verdicts[3] = {0, 0, 0};

  /// The layers the outside drives cover, summed.
  double layer_s() const {
    return arch_s + mem_s + ooo_s + log_s + replay_s + walk_s;
  }
};

/// num / den, or 0 when there was no work to divide by.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/// Times `body` and records it as span `name`.
template <typename Body>
double timed(SpanLog& spans, const char* name, const std::string& kernel,
             std::uint64_t round, Body&& body) {
  const auto start = Clock::now();
  body();
  const auto stop = Clock::now();
  spans.add(name, kernel, round, start, stop);
  return seconds_between(start, stop);
}

// --- The layer drives -------------------------------------------------------

/// Drives the load-store log over the recording exactly as the commit loop
/// fills it: the macro-op fit rule before each instruction, then the
/// full/timeout seals after it, and a final drain seal carrying the exit
/// trap. `on_seal(segment, index, boundary)` sees each sealed segment;
/// `boundary` is the number of instructions committed before it sealed.
/// Checkpoint states are placeholders (filled in afterwards for replay).
template <typename OnSeal>
void drive_log(const Recording& rec, const pd::LogConfig& config,
               Totals* totals, OnSeal&& on_seal) {
  pd::core::LoadStoreLog log(config);
  const pd::core::RegisterCheckpoint placeholder{};
  const std::size_t n = rec.insts.size();
  pd::UopSeq seq = 0;
  auto seal = [&](pd::core::SealReason reason, pd::arch::Trap trap,
                  std::size_t boundary) {
    const unsigned index = log.filling_index();
    const Cycle now = boundary == 0 ? 0 : rec.commit[boundary - 1];
    pd::core::Segment& segment = log.seal_filling(reason, placeholder, now);
    segment.end_trap = static_cast<std::uint8_t>(trap);
    on_seal(static_cast<const pd::core::Segment&>(segment), index, boundary);
    log.begin_check(index);
    log.release(index);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const InstRecord& inst = rec.insts[i];
    const pd::sim::InstStatic& st = *rec.statics[i];
    if (log.has_filling() && st.mem_uops > 0 &&
        !log.fits_in_filling(st.mem_uops)) {
      seal(pd::core::SealReason::kFull, pd::arch::Trap::kNone, i);
    }
    if (!log.has_filling()) {
      log.open_next(placeholder, i == 0 ? 0 : rec.commit[i - 1]);
    }
    unsigned used = 0;
    for (unsigned u = 0; u < st.uop_count; ++u, ++seq) {
      if (!st.uops[u].consumes_capture || used >= inst.accesses) continue;
      const Access& access = rec.accesses[inst.first_access + used++];
      pd::core::LogEntry entry;
      entry.kind = access.kind;
      entry.size = access.size;
      entry.addr = access.addr;
      entry.value = access.value;
      entry.commit_cycle = rec.commit[i];
      entry.seq = seq;
      log.append(entry);
    }
    log.note_instruction();
    if (inst.trap != pd::arch::Trap::kNone) break;
    if (log.free_entries_in_filling() == 0) {
      seal(pd::core::SealReason::kFull, pd::arch::Trap::kNone, i + 1);
    } else if (log.timeout_reached()) {
      seal(pd::core::SealReason::kTimeout, pd::arch::Trap::kNone, i + 1);
    }
  }
  if (log.has_filling()) {
    seal(pd::core::SealReason::kDrain,
         n == 0 ? pd::arch::Trap::kNone : rec.insts.back().trap, n);
  }
  if (totals != nullptr) {
    totals->log_entries += log.entries_appended();
    totals->log_segments += log.segments_opened();
    totals->log_insts += n;
  }
}

/// Every layer drive for one kernel, accumulated into `totals`.
void drive_kernel(const Kernel& kernel, const pd::sim::AssembledImage& image,
                  std::uint64_t round, Totals& totals, Tally& tally,
                  SpanLog& spans) {
  const std::string& name = kernel.workload.name;
  const pd::SystemConfig config = pd::SystemConfig::standard();
  const pd::SystemConfig checked =
      pd::sim::apply_mode(config, pd::sim::SimMode::kChecked);

  // isa: the first load of a fresh image also builds its statics.
  pd::sim::LoadedProgram program;
  totals.load_s += timed(spans, "isa.load_program", name, round,
                         [&] { program = pd::sim::load_program(image); });

  // arch: functional execution through a recording port.
  Recording rec;
  rec.insts.reserve(kernel.golden.instructions);
  rec.accesses.reserve(kernel.golden.instructions);
  pd::arch::ArchState state;
  state.pc = program.entry;
  totals.arch_s += timed(spans, "arch.exec", name, round, [&] {
    RecordingPort port(program.memory, rec.accesses);
    pd::arch::Machine machine(program.memory, port, &program.predecoded());
    while (rec.insts.size() < kBudget) {
      InstRecord inst;
      inst.pc = state.pc;
      inst.first_access = static_cast<std::uint32_t>(rec.accesses.size());
      const pd::arch::StepResult step = machine.step(state);
      inst.next_pc = step.next_pc;
      inst.taken = step.branch_taken;
      inst.trap = step.trap;
      inst.accesses =
          static_cast<std::uint8_t>(rec.accesses.size() - inst.first_access);
      rec.insts.push_back(inst);
      if (step.trap != pd::arch::Trap::kNone) break;
    }
  });
  std::uint64_t digest = 0;
  totals.digest_s += timed(spans, "arch.digest", name, round,
                           [&] { digest = program.memory.digest(); });
  totals.arch_insts += rec.insts.size();
  tally.check(rec.insts.size() == kernel.golden.instructions &&
                  rec.insts.back().trap == kernel.golden.trap &&
                  pd::arch::first_register_difference(
                      state, kernel.golden.state) == -1 &&
                  state.pc == kernel.golden.state.pc &&
                  digest == kernel.golden.mem_digest,
              name + ": recorded execution differs from the golden run");

  // Per-instruction statics (untimed preparation shared by later drives).
  {
    pd::arch::DecodeCache decode(program.memory, &program.predecoded());
    static const pd::sim::InstStatic kNoUops{};
    rec.statics.reserve(rec.insts.size());
    for (const InstRecord& inst : rec.insts) {
      const pd::sim::InstStatic* st = program.statics->lookup(inst.pc);
      if (st == nullptr) {
        const pd::isa::Inst* decoded = decode.decode_at(inst.pc);
        if (decoded == nullptr) {
          st = &kNoUops;
        } else {
          rec.out_of_image.push_back(pd::sim::make_inst_static(*decoded));
          st = &rec.out_of_image.back();
        }
      }
      rec.statics.push_back(st);
    }
  }

  // mem: the recorded data stream through L1D -> L2 -> DRAM, one
  // instruction per cycle.
  {
    pd::sim::MachineState machine(config);
    std::uint64_t accesses = 0;
    totals.mem_s += timed(spans, "mem.access", name, round, [&] {
      for (std::size_t i = 0; i < rec.insts.size(); ++i) {
        const InstRecord& inst = rec.insts[i];
        for (unsigned a = 0; a < inst.accesses; ++a) {
          const Access& access = rec.accesses[inst.first_access + a];
          if (access.kind == EntryKind::kNondet) continue;
          (void)machine.l1d.access(access.addr,
                                   access.kind == EntryKind::kStore, i,
                                   inst.pc);
          ++accesses;
        }
      }
    });
    totals.mem_accesses += accesses;
    totals.l1d_hits += machine.l1d.hits();
    totals.l1d_misses += machine.l1d.misses();
    totals.l2_hits += machine.l2.hits();
    totals.l2_misses += machine.l2.misses();
    totals.way_hint_hits += machine.l1d.way_hint_hits();
  }

  // sim.ooo: schedule/retire every micro-op, committing at the earliest
  // non-decreasing cycle (no log or checkpoint stalls).
  {
    pd::sim::MachineState machine(config);
    rec.commit.assign(rec.insts.size(), 0);
    pd::UopSeq seq = 0;
    std::uint64_t control = 0;
    totals.ooo_s += timed(spans, "sim.ooo", name, round, [&] {
      Cycle last = 0;
      for (std::size_t i = 0; i < rec.insts.size(); ++i) {
        const InstRecord& inst = rec.insts[i];
        const pd::sim::InstStatic& st = *rec.statics[i];
        unsigned used = 0;
        for (unsigned u = 0; u < st.uop_count; ++u, ++seq) {
          const pd::sim::UopStatic& uop = st.uops[u];
          pd::sim::UopDesc desc;
          desc.cls = uop.cls;
          desc.regs = uop.regs;
          desc.pc = inst.pc;
          desc.seq = seq;
          desc.first_of_macro = u == 0;
          desc.ctrl = uop.ctrl;
          desc.taken = inst.taken || uop.is_jump;
          desc.target = inst.next_pc;
          desc.is_load = uop.is_load;
          desc.is_store = uop.is_store;
          if (uop.consumes_capture && used < inst.accesses) {
            const Access& access = rec.accesses[inst.first_access + used++];
            desc.mem_addr = access.addr;
            desc.mem_size = access.size;
          }
          const pd::sim::UopTiming timing = machine.core.schedule(desc);
          last = std::max(last, timing.complete + 1);
          machine.core.retire(last);
          if (uop.ctrl != pd::sim::CtrlKind::kNone) ++control;
        }
        rec.commit[i] = last;
      }
    });
    totals.uops += seq;
    totals.control_uops += control;
    totals.mispredicts += machine.core.branch_mispredicts();
  }

  // core.log: timed without copying, then once more (untimed) keeping the
  // sealed segments for the replay drives.
  totals.log_s += timed(spans, "core.log", name, round, [&] {
    drive_log(rec, config.log, &totals,
              [](const pd::core::Segment&, unsigned, std::size_t) {});
  });
  std::vector<pd::core::Segment> segments;
  std::vector<unsigned> indices;
  std::vector<std::size_t> boundaries;
  drive_log(rec, config.log, nullptr,
            [&](const pd::core::Segment& segment, unsigned index,
                std::size_t boundary) {
              segments.push_back(segment);
              indices.push_back(index);
              boundaries.push_back(boundary);
            });
  {
    // Checkpoint states at every segment boundary, from a second
    // functional pass.
    pd::sim::LoadedProgram again = pd::sim::load_program(image);
    const std::uint64_t cycle = 0;
    pd::arch::MemoryDataPort port(again.memory, cycle);
    pd::arch::Machine machine(again.memory, port, &again.predecoded());
    pd::arch::ArchState s;
    s.pc = again.entry;
    std::size_t next = 0;
    if (!segments.empty()) segments[0].start.state = s;
    for (std::size_t executed = 0;; ++executed) {
      while (next < segments.size() && boundaries[next] == executed) {
        segments[next].end.state = s;
        segments[next].end.seq = executed;
        if (next + 1 < segments.size()) {
          segments[next + 1].start.state = s;
          segments[next + 1].start.seq = executed;
        }
        ++next;
      }
      if (next == segments.size()) break;
      machine.step(s);
    }
  }

  // core.replay + sim.walk, segment by segment.
  {
    pd::sim::LoadedProgram fetch = pd::sim::load_program(image);
    pd::core::CheckerEngine engine(fetch.memory, &fetch.predecoded());
    pd::sim::SharedCheckerIcache icache(config.checker.l1_icache_bytes);
    const pd::ClockDomain domain(config.checker.freq_mhz,
                                 config.main_core.freq_mhz);
    const auto l2_cycles =
        static_cast<unsigned>(domain.to_local(config.l2.hit_latency) + 1);
    std::vector<pd::sim::CheckerCoreTiming> cores;
    cores.reserve(config.checker.num_cores);
    for (unsigned c = 0; c < config.checker.num_cores; ++c) {
      cores.emplace_back(config.checker, icache, l2_cycles);
    }
    pd::core::CheckerEngine::Result check;
    std::uint64_t failed = 0;
    const auto start = Clock::now();
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const auto t0 = Clock::now();
      engine.check_into(segments[k], nullptr, check);
      const auto t1 = Clock::now();
      (void)cores[indices[k]].walk(check.trace, segments[k].entries.size(),
                                   program.statics.get());
      const auto t2 = Clock::now();
      totals.replay_s += seconds_between(t0, t1);
      totals.walk_s += seconds_between(t1, t2);
      totals.replay_insts += check.trace.size();
      if (!check.outcome.passed) ++failed;
    }
    spans.add("core.replay+sim.walk", name, round, start, Clock::now());
    for (const auto& core : cores) {
      totals.l0_hits += core.l0_hits();
      totals.l0_misses += core.l0_misses();
    }
    totals.replay_failed += failed;
    tally.check(failed == 0 && !segments.empty(),
                name + ": " + std::to_string(failed) +
                    " segment(s) failed replay");
  }

  // sim.pipeline: the same segments through the produce/absorb API, inline
  // and with replay workers.
  Cycle all_checked[2] = {0, 0};
  for (int pool = 0; pool < 2; ++pool) {
    pd::sim::LoadedProgram fresh = pd::sim::load_program(image);
    double produce = 0, release = 0, finish = 0;
    bool detected = true;
    const double total = timed(
        spans, pool ? "sim.pipeline.pool" : "sim.pipeline.inline", name, round,
        [&] {
          pd::sim::SegmentPipeline pipeline(
              checked, fresh.memory, &fresh.predecoded(), fresh.statics.get(),
              pd::CheckerExec(pool ? kParallelWorkers : 0), nullptr);
          for (std::size_t k = 0; k < segments.size(); ++k) {
            const auto t0 = Clock::now();
            (void)pipeline.release_cycle(indices[k]);
            const auto t1 = Clock::now();
            pipeline.produce(segments[k], segments[k].sealed_at, indices[k],
                             nullptr);
            const auto t2 = Clock::now();
            release += seconds_between(t0, t1);
            produce += seconds_between(t1, t2);
          }
          const auto t0 = Clock::now();
          pipeline.finish();
          finish = seconds_since(t0);
          detected = pipeline.error_detected();
          all_checked[pool] = pipeline.all_checked();
          if (pool) {
            totals.tickets += pipeline.tickets_published();
            totals.ticket_segments += segments.size();
          }
        });
    tally.check(!detected, name + ": pipeline drive detected an error");
    if (pool) {
      totals.pipeline_pool_s += total;
      totals.produce_wait_s += produce;
      totals.release_wait_s += release;
      totals.finish_wait_s += finish;
    } else {
      totals.pipeline_inline_s += total;
    }
  }
  tally.check(all_checked[0] == all_checked[1],
              name + ": pipeline results differ between inline and pool");

  // sim.system: whole runs per mode.
  static const char* const kModeSpans[4] = {
      "sim.system.baseline", "sim.system.ckpt_only", "sim.system.checked",
      "sim.system.parallel"};
  Cycle cycles[4] = {0, 0, 0, 0};
  for (int mode = 0; mode < 4; ++mode) {
    pd::sim::SimJob job;
    job.config = config;
    job.max_instructions = kBudget;
    job.mode = mode == 0   ? pd::sim::SimMode::kBaseline
               : mode == 1 ? pd::sim::SimMode::kCheckpointOnly
                           : pd::sim::SimMode::kChecked;
    if (mode == 3) job.checker = pd::CheckerExec(kParallelWorkers);
    pd::sim::RunResult result;
    totals.system_s[mode] +=
        timed(spans, kModeSpans[mode], name, round,
              [&] { result = pd::sim::run_job(job, image); });
    cycles[mode] = result.main_done_cycle;
    tally.check(!result.error_detected &&
                    matches_golden(result, kernel.golden),
                name + ": " + kModeSpans[mode] + " differs from the golden run");
  }
  totals.slowdown_sum += static_cast<double>(cycles[2]) /
                         static_cast<double>(cycles[0]);
  ++totals.kernels;
}

/// capture_warm_state, run_job_from and classify_fault_outcome on the
/// campaign target, plus the fixed cost of a fork captured at the last
/// macro-op and a cold re-run check of the first strikes.
void drive_warm(const CampaignTarget& target, const Options& options,
                std::uint64_t round, Totals& totals, Tally& tally,
                SpanLog& spans) {
  const std::string name = "randacc";
  totals.capture_s += timed(spans, "runtime.warm.capture", name, round, [&] {
    (void)pd::sim::capture_warm_state(target.job, target.image,
                                      target.capture_uops);
  });

  const auto last = pd::sim::capture_warm_state(target.job, target.image,
                                                target.clean.uops - 1);
  tally.check(last != nullptr, "capture at the last macro-op failed");
  if (last != nullptr) {
    const std::string clean_bytes = pd::runtime::to_json(target.clean);
    std::vector<double> fixed_ms;
    for (unsigned i = 0; i < kFixedForks; ++i) {
      pd::sim::RunResult result;
      fixed_ms.push_back(
          timed(spans, "runtime.warm.fork_fixed", name, round,
                [&] { result = pd::sim::run_job_from(*last, nullptr); }) *
          1e3);
      tally.check(pd::runtime::to_json(result) == clean_bytes,
                  "fault-free fork at the last macro-op differs from the "
                  "clean run");
    }
    totals.fork_fixed_ms += quantile(fixed_ms, 0.5);
  }

  for (std::uint64_t j = 0; j < kWarmStrikes; ++j) {
    const pd::core::FaultSpec spec =
        plan_strike(target, options.seed, round * kWarmStrikes + j);
    pd::core::FaultInjector faults;
    faults.add(spec);
    if (!target.warm->tail_safe(faults)) {
      ++totals.fallbacks;
      tally.check(false, "strike is not tail-safe");
      continue;
    }
    pd::sim::RunResult result;
    totals.tail_s += timed(spans, "runtime.warm.tail", name, round, [&] {
      result = pd::sim::run_job_from(*target.warm, &faults);
    });
    pd::sim::FaultVerdict verdict = pd::sim::FaultVerdict::kSilent;
    totals.classify_s += timed(spans, "runtime.classify", name, round, [&] {
      verdict = pd::sim::classify_fault_outcome(target.clean, result);
    });
    ++totals.verdicts[static_cast<unsigned>(verdict)];
    bool ok = verdict != pd::sim::FaultVerdict::kSilent;
    if (j < kColdChecks) {
      pd::sim::SimJob cold = target.job;
      cold.faults = &faults;
      const pd::sim::RunResult full = pd::sim::run_job(cold, target.image);
      ok = ok && pd::runtime::to_json(full) == pd::runtime::to_json(result);
    }
    tally.check(ok, std::string("strike at ") +
                        std::string(pd::core::fault_site_name(spec.site)) +
                        " was silent or differs from its cold run");
  }
}

/// The per-layer metrics of one round.
Metrics round_metrics(const Totals& t, double overhead_pct) {
  Metrics m;
  m.add("isa.assemble_s", t.assemble_s, "s");
  m.add("sim.load_program_s", t.load_s, "s");
  m.add("arch.exec_s", t.arch_s, "s");
  m.add("arch.insts", static_cast<double>(t.arch_insts), "count");
  m.add("arch.ns_per_inst", ratio(t.arch_s * 1e9, t.arch_insts), "ns");
  m.add("arch.digest_s", t.digest_s, "s");
  m.add("mem.access_s", t.mem_s, "s");
  m.add("mem.accesses", static_cast<double>(t.mem_accesses), "count");
  m.add("mem.ns_per_access", ratio(t.mem_s * 1e9, t.mem_accesses), "ns");
  m.add("mem.l1d_miss_rate", ratio(t.l1d_misses, t.l1d_hits + t.l1d_misses),
        "ratio");
  m.add("mem.l2_miss_rate", ratio(t.l2_misses, t.l2_hits + t.l2_misses),
        "ratio");
  m.add("mem.way_hint_rate", ratio(t.way_hint_hits, t.l1d_hits), "ratio");
  m.add("sim.ooo.s", t.ooo_s, "s");
  m.add("sim.ooo.uops", static_cast<double>(t.uops), "count");
  m.add("sim.ooo.ns_per_uop", ratio(t.ooo_s * 1e9, t.uops), "ns");
  m.add("sim.ooo.mispredict_rate", ratio(t.mispredicts, t.control_uops),
        "ratio");
  m.add("core.log.s", t.log_s, "s");
  m.add("core.log.entries", static_cast<double>(t.log_entries), "count");
  m.add("core.log.segments", static_cast<double>(t.log_segments), "count");
  m.add("core.log.insts_per_segment", ratio(t.log_insts, t.log_segments),
        "insts");
  m.add("core.replay.s", t.replay_s, "s");
  m.add("core.replay.insts", static_cast<double>(t.replay_insts), "count");
  m.add("core.replay.ns_per_inst", ratio(t.replay_s * 1e9, t.replay_insts),
        "ns");
  m.add("sim.walk.s", t.walk_s, "s");
  m.add("sim.walk.ns_per_inst", ratio(t.walk_s * 1e9, t.replay_insts), "ns");
  m.add("sim.walk.l0_hit_rate", ratio(t.l0_hits, t.l0_hits + t.l0_misses),
        "ratio");
  m.add("sim.pipeline.inline_s", t.pipeline_inline_s, "s");
  m.add("sim.pipeline.pool_s", t.pipeline_pool_s, "s");
  m.add("sim.pipeline.produce_wait_s", t.produce_wait_s, "s");
  m.add("sim.pipeline.release_wait_s", t.release_wait_s, "s");
  m.add("sim.pipeline.finish_wait_s", t.finish_wait_s, "s");
  m.add("sim.pipeline.tickets", static_cast<double>(t.tickets), "count");
  m.add("sim.pipeline.segments_per_ticket",
        ratio(t.ticket_segments, t.tickets), "segments");
  m.add("sim.system.baseline_s", t.system_s[0], "s");
  m.add("sim.system.ckpt_only_s", t.system_s[1], "s");
  m.add("sim.system.checked_s", t.system_s[2], "s");
  m.add("sim.system.parallel_s", t.system_s[3], "s");
  m.add("sim.system.timing_self_s", t.system_s[0] - t.arch_s, "s");
  m.add("sim.system.log_self_s", t.system_s[1] - t.system_s[0], "s");
  m.add("sim.system.check_self_s", t.system_s[2] - t.system_s[1], "s");
  m.add("sim.system.pool_gain_s", t.system_s[2] - t.system_s[3], "s");
  m.add("sim.slowdown_pct", (ratio(t.slowdown_sum, t.kernels) - 1) * 100, "%");
  m.add("runtime.warm.capture_s", t.capture_s, "s");
  m.add("runtime.warm.tail_s", t.tail_s, "s");
  m.add("runtime.warm.fork_fixed_ms", t.fork_fixed_ms, "ms");
  m.add("runtime.classify_s", t.classify_s, "s");
  m.add("runtime.verdict.detected", static_cast<double>(t.verdicts[0]),
        "count");
  m.add("layers.explained_frac", ratio(t.layer_s(), t.system_s[2]), "ratio");
  m.add("trace.overhead_pct", overhead_pct, "%");
  return m;
}

/// Per-metric medians over rounds (every round lists the same metrics in
/// the same order).
Metrics median_over_rounds(const std::vector<Metrics>& rounds) {
  Metrics out;
  if (rounds.empty()) return out;
  const auto& first = rounds.front().items();
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::vector<double> values;
    for (const Metrics& round : rounds) values.push_back(round.items()[i].value);
    out.add(first[i].name, quantile(values, 0.5), first[i].unit);
  }
  return out;
}

}  // namespace

void run_traced(const Options& options, Output& out) {
  const bool campaign = options.workload == "campaign";
  const std::vector<Kernel> kernels = set_up_kernels(suite_workloads(campaign));
  const auto randacc = std::find_if(
      kernels.begin(), kernels.end(),
      [](const Kernel& k) { return k.workload.name == "randacc"; });
  if (randacc == kernels.end()) {
    throw std::runtime_error("traced run: randacc is not in the suite");
  }
  const CampaignTarget target = set_up_campaign(*randacc);
  std::unique_ptr<SuiteRunner> suite;
  if (!campaign) {
    suite = std::make_unique<SuiteRunner>(
        kernels, options.workload == "suite-parallel", options.seed);
    suite->warm_up(out.tally);
  }

  SpanLog spans;
  std::vector<Metrics> rounds;
  std::map<std::string, std::vector<double>> explained;
  std::uint64_t replay_failed = 0, fallbacks = 0, masked = 0, silent = 0;
  const auto start = Clock::now();
  for (std::uint64_t round = 0;
       round == 0 || seconds_since(start) < options.seconds; ++round) {
    Totals totals;
    // Fresh images: assembly, predecode and statics are paid every round.
    pd::runtime::AssemblyCache cache;
    for (const Kernel& kernel : kernels) {
      pd::sim::AssembledImage image;
      totals.assemble_s +=
          timed(spans, "isa.assemble", kernel.workload.name, round,
                [&] { image = cache.get(kernel.workload); });
      const double layers_before = totals.layer_s();
      const double checked_before = totals.system_s[2];
      drive_kernel(kernel, image, round, totals, out.tally, spans);
      explained[kernel.workload.name].push_back(
          ratio(totals.layer_s() - layers_before,
                totals.system_s[2] - checked_before));
    }
    drive_warm(target, options, round, totals, out.tally, spans);

    // Tracing overhead: one end-to-end pass with spans around every run,
    // one without, in alternating order.
    double pass_s[2] = {0, 0};  // untraced, traced.
    for (int i = 0; i < 2; ++i) {
      const bool traced = (i == 0) == (round % 2 == 0);
      SpanLog* log = traced ? &spans : nullptr;
      const auto pass_start = Clock::now();
      if (campaign) {
        for (std::uint64_t j = 0; j < kOverheadStrikes; ++j) {
          const auto t0 = Clock::now();
          run_strike(target, plan_strike(target, options.seed, j), out.tally);
          if (log != nullptr) {
            log->add("strike", "randacc", round, t0, Clock::now());
          }
        }
      } else {
        suite->pass(out.tally, log, round);
      }
      pass_s[traced ? 1 : 0] = seconds_since(pass_start);
    }
    replay_failed += totals.replay_failed;
    fallbacks += totals.fallbacks;
    masked += totals.verdicts[1];
    silent += totals.verdicts[2];
    rounds.push_back(
        round_metrics(totals, (ratio(pass_s[1], pass_s[0]) - 1) * 100));
  }

  out.metrics = median_over_rounds(rounds);
  for (const Metric& metric : out.metrics.items()) {
    out.report.add(metric.name, metric.value, metric.unit);
  }
  for (const auto& [kernel, fractions] : explained) {
    out.report.add("layers.explained_frac." + kernel, quantile(fractions, 0.5),
                   "ratio");
  }
  out.report.add("core.replay.failed", static_cast<double>(replay_failed),
                 "count");
  out.report.add("runtime.warm.fallbacks", static_cast<double>(fallbacks),
                 "count");
  // Zero-valued on a healthy commit, so reported here rather than as
  // per-layer metrics; core.replay.failed, fallbacks and silent strikes
  // also fail the run's correctness tally.
  out.report.add("runtime.verdict.masked", static_cast<double>(masked),
                 "count");
  out.report.add("runtime.verdict.silent", static_cast<double>(silent),
                 "count");
  out.report.add("rounds", static_cast<double>(rounds.size()), "count");
  if (!options.spans_path.empty() && !spans.write(options.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 options.spans_path.c_str());
  }
}

}  // namespace perfbench

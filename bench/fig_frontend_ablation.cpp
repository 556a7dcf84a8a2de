// Front-end fidelity ablation: normalised checked-mode slowdown when the
// main core's direction predictor is swapped between the pluggable
// sim::FrontEnd models (tournament / gshare / bimodal / always-taken),
// plus one point that keeps the tournament main core but gives the
// checker cores a modelled small front end instead of the paper's fixed
// taken-branch bubble (DetectionConfig::model_frontend).
//
// Not a figure from the paper — the paper fixes the Table I tournament
// front end — but the standard fidelity sweep used to judge how much
// predictor quality the detection results actually depend on: a scheme
// whose slowdown moves sharply under a weaker predictor is riding on
// front-end accuracy, not on checker bandwidth.
//
// Runs as one runtime::SweepCampaign over (variant x workload) cells, so
// it shards across processes (--shard=K/N --out=...) and
// checkpoints/restarts like any other campaign; each workload's
// unchecked baseline keeps the default tournament front end so every
// column is normalised against the same denominator.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

struct Variant {
  const char* label;
  paradet::FrontEndKind kind;
  bool checker_model_frontend;
};

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Front-end ablation: slowdown vs main-core predictor model",
      "not in paper; tournament column must match Table II/fig07 slowdowns");

  const Variant variants[] = {
      {"tournament", FrontEndKind::kTournament, false},
      {"gshare", FrontEndKind::kGshare, false},
      {"bimodal", FrontEndKind::kBimodal, false},
      {"always-taken", FrontEndKind::kAlwaysTaken, false},
      {"tourn+ckr-fe", FrontEndKind::kTournament, true},
  };

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(std::size(variants),
                               bench::suite_or_fail(options),
                               /*seed=*/0xF8A8'1A71);
  sweep.enable_baselines(job.config, bench::kInstructionBudget);

  const auto result = sweep.run(
      options.runner(), options.campaign_options(),
      [&](std::size_t point, std::size_t,
          const runtime::AssemblyCache::Image& image, std::uint64_t) {
        sim::SimJob cell = job;
        cell.config.branch_predictor.kind = variants[point].kind;
        cell.config.checker.model_frontend =
            variants[point].checker_model_frontend;
        return sim::run_job(cell, image);
      });

  runtime::TableSpec spec;
  for (const auto& variant : variants) spec.columns.push_back(variant.label);
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.slowdown(p, b);
  });
  bench::print_shard_note(result.artifact);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}

#include "exp/runner.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace eadt::exp {
namespace {

/// Planner decision sink for this run: the decisions member of the config's
/// sinks, when observability is on.
obs::DecisionLog* decision_log(const proto::SessionConfig& config) {
  return config.obs != nullptr ? config.obs->decisions : nullptr;
}

}  // namespace

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kGuc: return "GUC";
    case Algorithm::kGo: return "GO";
    case Algorithm::kSc: return "SC";
    case Algorithm::kMinE: return "MinE";
    case Algorithm::kProMc: return "ProMC";
    case Algorithm::kHtee: return "HTEE";
    case Algorithm::kBf: return "BF";
  }
  return "?";
}

std::vector<Algorithm> figure_algorithms() {
  return {Algorithm::kGuc, Algorithm::kGo,    Algorithm::kSc,
          Algorithm::kMinE, Algorithm::kProMc, Algorithm::kHtee};
}

RunOutcome run_algorithm(Algorithm algorithm, const testbeds::Testbed& testbed,
                         const proto::Dataset& dataset, int max_channels,
                         proto::SessionConfig config, proto::FaultPlan faults) {
  RunOutcome out;
  out.algorithm = algorithm;
  out.concurrency = max_channels;
  out.chosen_concurrency = max_channels;

  const auto& env = testbed.env;
  const auto execute = [&](proto::TransferPlan plan,
                           proto::Controller* controller = nullptr) {
    proto::TransferSession s(env, dataset, std::move(plan), config);
    s.set_fault_plan(faults);
    return s.run(controller);
  };
  switch (algorithm) {
    case Algorithm::kGuc:
      out.result = execute(baselines::plan_guc(env, dataset));
      out.chosen_concurrency = 1;
      break;
    case Algorithm::kGo:
      out.result = execute(baselines::plan_go(env, dataset));
      out.chosen_concurrency = 2;
      break;
    case Algorithm::kSc:
      out.result = execute(baselines::plan_single_chunk(env, dataset, max_channels));
      break;
    case Algorithm::kMinE:
      out.result =
          execute(core::plan_min_energy(env, dataset, max_channels, decision_log(config)));
      break;
    case Algorithm::kProMc:
    case Algorithm::kBf:  // BF is ProMC's plan at a fixed concurrency level
      out.result = execute(baselines::plan_promc(env, dataset, max_channels));
      break;
    case Algorithm::kHtee: {
      core::HteeController controller(max_channels);
      out.result = execute(core::plan_htee(env, dataset, max_channels, decision_log(config)),
                           &controller);
      out.chosen_concurrency = controller.chosen_level();
      break;
    }
  }
  return out;
}

double SlaOutcome::deviation_percent() const {
  if (target_throughput <= 0.0) return 0.0;
  return 100.0 * std::fabs(result.avg_throughput() - target_throughput) /
         target_throughput;
}

double SlaOutcome::shortfall_percent() const {
  if (target_throughput <= 0.0) return 0.0;
  return 100.0 * (target_throughput - result.avg_throughput()) / target_throughput;
}

SlaOutcome run_slaee(const testbeds::Testbed& testbed, const proto::Dataset& dataset,
                     double target_percent, BitsPerSecond max_throughput,
                     int max_channels, proto::SessionConfig config,
                     proto::FaultPlan faults) {
  SlaOutcome out;
  out.target_percent = target_percent;
  out.target_throughput = max_throughput * target_percent / 100.0;

  core::SlaeeController controller(out.target_throughput, max_channels);
  proto::TransferSession session(
      testbed.env, dataset,
      core::plan_slaee(testbed.env, dataset, max_channels, decision_log(config)), config);
  session.set_fault_plan(std::move(faults));
  out.result = session.run(&controller);
  out.final_concurrency = controller.final_level();
  out.rearranged = controller.rearranged();
  return out;
}

std::vector<int> figure_concurrency_levels() { return {1, 2, 4, 6, 8, 10, 12}; }

std::vector<int> bf_concurrency_levels() {
  std::vector<int> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  return v;
}

std::vector<double> sla_target_percents() { return {95.0, 90.0, 80.0, 70.0, 50.0}; }

}  // namespace eadt::exp

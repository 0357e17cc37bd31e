// SLA data mover: a cloud transfer service offering tiered service levels.
//
// The provider promises each customer a fraction of the link's best-case
// throughput. Gold customers get 90 %, silver 70 %, bronze 50 %. For every
// tier this example runs SLAEE, verifies the promise was met, and reports
// how much energy the provider saves compared to always running flat out —
// the paper's "low-cost data transfer options in return for delayed
// transfers" business case.
#include <iostream>

#include "baselines/baselines.hpp"
#include "core/algorithms.hpp"
#include "exp/service.hpp"
#include "testbeds/testbeds.hpp"
#include "util/table.hpp"

int main() {
  using namespace eadt;

  auto testbed = testbeds::xsede();
  testbed.recipe.total_bytes = 8ULL * kGB;
  const proto::Dataset dataset = testbed.make_dataset();
  const int max_channels = 12;

  // Establish the best case: ProMC at full concurrency.
  proto::TransferSession promc_session(
      testbed.env, dataset, baselines::plan_promc(testbed.env, dataset, max_channels));
  const auto promc = promc_session.run();
  const BitsPerSecond max_throughput = promc.avg_throughput();

  std::cout << "SLA data mover on " << testbed.env.name << "\n"
            << "best-case (ProMC): " << Table::num(to_mbps(max_throughput), 0)
            << " Mbps at " << Table::num(promc.end_system_energy, 0) << " J\n\n";

  struct Tier {
    const char* name;
    double percent;
  };
  Table report({"tier", "promised Mbps", "delivered Mbps", "met?", "energy J",
                "energy saved %", "concurrency"});
  for (const Tier tier : {Tier{"gold", 90.0}, Tier{"silver", 70.0}, Tier{"bronze", 50.0}}) {
    const BitsPerSecond target = max_throughput * tier.percent / 100.0;
    core::SlaeeController controller(target, max_channels);
    proto::TransferSession session(
        testbed.env, dataset, core::plan_slaee(testbed.env, dataset, max_channels));
    const auto r = session.run(&controller);
    const bool met = exp::meets_sla(r.avg_throughput(), target);
    report.add_row({tier.name, Table::num(to_mbps(target), 0),
                    Table::num(to_mbps(r.avg_throughput()), 0), met ? "yes" : "no",
                    Table::num(r.end_system_energy, 0),
                    Table::num(100.0 - 100.0 * r.end_system_energy /
                                           promc.end_system_energy,
                               1),
                    std::to_string(controller.final_level())});
  }
  report.render(std::cout);
  std::cout << "\nLower tiers finish later but cut the provider's energy bill;\n"
               "that margin funds the discount.\n";
  return 0;
}

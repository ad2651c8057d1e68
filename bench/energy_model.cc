// §6.1's radio energy model: P_d = d·p_l·t_l + p_r·t_r + p_s·t_s.
//
// Two parts:
//  1. The analytic duty-cycle table the paper walks through (listen-dominated
//     at d=1; half the energy at d≈22%; send/receive-dominated by d≈10%),
//     using the testbed's aggregate listen:receive:send time shares (40:3:1)
//     and the assumed power ratios 1:2:2.
//  2. The same model evaluated on *measured* time shares from a simulated
//     Figure-8 run (4 sources, suppression on), closing the loop between the
//     traffic experiment and the energy estimate.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/apps/surveillance.h"
#include "src/filters/duplicate_suppression_filter.h"
#include "src/radio/energy.h"
#include "src/testbed/sharded_world.h"
#include "src/testbed/topology.h"

namespace diffusion {
namespace {

void PrintTable(const TimeShares& shares, const char* label) {
  const EnergyRatios ratios;
  std::printf("%s (listen:receive:send time = %.3f:%.3f:%.3f, power = 1:2:2)\n", label,
              shares.listen, shares.receive, shares.send);
  std::printf("%-12s  %-14s  %-16s\n", "duty cycle", "total energy", "listen fraction");
  for (double duty : {1.0, 0.5, 0.22, 0.15, 0.10, 0.05}) {
    std::printf("%-12.2f  %-14.2f  %14.1f%%\n", duty, TotalEnergy(duty, ratios, shares),
                ListenEnergyFraction(duty, ratios, shares) * 100.0);
  }
  std::printf("\n");
}

int Main() {
  std::printf("=== §6.1 energy model: P_d = d·p_l·t_l + p_r·t_r + p_s·t_s ===\n\n");
  PrintTable(PaperTimeShares(), "Paper's aggregate time shares");

  std::printf("Paper checkpoints: duty 1.0 dominated by listening; ~50%% at duty 0.22;\n");
  std::printf("send/receive dominate below ~0.10. (Today's radios run duty 1.0; TDMA\n");
  std::printf("radios like WINSng reach 10-15%% — hence energy-conserving MACs matter.)\n\n");

  // Measured shares from a short simulated aggregation run.
  DiffusionConfig dconfig;
  dconfig.forward_delay_jitter = 300 * kMillisecond;
  ShardedWorld world(IsiTestbedLayout(),
                     {.regions = 1, .seed = 99, .diffusion = dconfig, .radio = TestbedRadioConfig()});
  const auto& nodes = world.nodes();
  SurveillanceConfig sconfig;
  std::vector<std::unique_ptr<DuplicateSuppressionFilter>> filters;
  for (auto& [id, node] : nodes) {
    filters.push_back(std::make_unique<DuplicateSuppressionFilter>(
        node.get(), SurveillanceDataFilterAttrs(sconfig), 10));
  }
  SurveillanceSink sink(world.node(kIsiSinkNode), sconfig);
  std::vector<std::unique_ptr<SurveillanceSource>> sources;
  for (NodeId id : kIsiSourceNodes) {
    sources.push_back(
        std::make_unique<SurveillanceSource>(world.node(id), sconfig, static_cast<int32_t>(id)));
  }
  sink.Start();
  for (auto& source : sources) {
    source->Start();
  }
  const SimDuration run_time = 10 * kMinute;
  world.RunUntil(run_time);

  TimeShares measured{0, 0, 0};
  for (auto& [id, node] : nodes) {
    const TimeShares shares =
        SharesFromStats(node->radio().stats(), node->radio().time_sending(), run_time);
    measured.listen += shares.listen / static_cast<double>(nodes.size());
    measured.receive += shares.receive / static_cast<double>(nodes.size());
    measured.send += shares.send / static_cast<double>(nodes.size());
  }
  PrintTable(measured, "Measured shares (simulated 10-min, 4-source aggregation run)");
  std::printf("Note: measured listen share exceeds the paper's congested aggregate because\n");
  std::printf("this averages all 14 nodes, including lightly loaded ones.\n");
  return 0;
}

}  // namespace
}  // namespace diffusion

int main() { return diffusion::Main(); }

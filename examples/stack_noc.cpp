// Stack network-on-chip: 16 thinned dies share one optical bus; a
// work-conserving token MAC arbitrates packet slots, the physical
// layer's frame-delivery probability comes from the die-stack link
// budget, and ARQ covers residual loss.
//
//   $ ./stack_noc [--seed=N] [--precision=H] [--max-samples=N]
//
// The flags (or OCI_SEED / OCI_PRECISION / OCI_MAX_SAMPLES) override the
// spec built below; see oci/scenario/cli.hpp.
//
// Demonstrates the full layering through the Scenario API: photonics
// (stack budget) -> one declarative ScenarioSpec (master-broadcast
// traffic on the stack-NoC topology) -> ScenarioRunner -> RunReport.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "oci/link/budget.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/util/table.hpp"

int main(int argc, char** argv) {
  using namespace oci;
  scenario::Overrides overrides;
  try {
    overrides = scenario::read_overrides(argc, argv);
    if (argc > 1) {
      throw std::invalid_argument(std::string("unexpected argument '") + argv[1] + "'");
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "stack_noc: " << e.what()
              << "\nusage: stack_noc [--seed=N] [--precision=H] [--max-samples=N]\n";
    return 1;
  }

  // 1. Physical substrate: 16 thinned dies, NIR micro-LEDs bright
  //    enough to reach the far end of the stack.
  constexpr std::size_t kDies = 16;
  const auto stack = photonics::DieStack::uniform(kDies, photonics::DieSpec{});
  photonics::MicroLedParams led;
  led.wavelength = util::Wavelength::nanometres(1050.0);  // deep-stack reach
  led.peak_power = util::Power::microwatts(150.0);  // sized so the worst hop is good-but-not-perfect
  const photonics::MicroLed tx(led);
  const spad::Spad detector(spad::SpadParams{}, led.wavelength);

  // 2. Worst-hop link budget: the die furthest from the master bounds
  //    the per-transfer delivery probability for broadcastable slots.
  double worst_detection = 1.0;
  for (std::size_t die = 1; die < kDies; ++die) {
    const auto b = link::compute_budget(tx, stack, 0, die, detector);
    worst_detection = std::min(worst_detection, b.pulse_detection_probability);
  }
  std::cout << "Worst-hop pulse detection probability across " << kDies
            << " dies: " << worst_detection << "\n";

  // 3. Describe the network as a scenario: mixed traffic -- die 0 (the
  //    CPU die) broadcasts descriptors, the memory dies answer
  //    point-to-point. A frame of ~20 PPM symbols survives if every
  //    symbol does; fold the worst-hop budget into one per-transfer
  //    number.
  scenario::ScenarioSpec spec;
  spec.name = "stack_noc";
  spec.description = "16-die optical bus, token MAC, budget-derived delivery";
  spec.seed = 42;
  spec.topology = scenario::Topology::kStackNoc;
  spec.noc.dies = kDies;
  spec.noc.pattern = scenario::NocPattern::kMasterBroadcast;
  spec.noc.master_load = 0.25;
  spec.noc.worker_load = 0.03;
  spec.noc.mac = "token+pass";
  spec.noc.delivery_probability = std::pow(worst_detection, 20.0);
  spec.noc.max_attempts = 5;
  spec.budget.samples = 200000;
  spec.budget.floor = 2000;
  overrides.apply(spec);

  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);
  const scenario::RunPoint& p = report.points.front();

  // 4. Report.
  util::Table t({"metric", "value"});
  t.new_row().add_cell("slots simulated").add_cell(p.samples);
  t.new_row().add_cell("carried load [pkt/slot]").add_cell(report.metric(p, "carried_load"), 4);
  t.new_row().add_cell("delivery ratio").add_cell(report.metric(p, "delivery_ratio"), 4);
  t.new_row().add_cell("per-transfer delivery p").add_cell(report.metric(p, "transfer_p"), 4);
  t.new_row().add_cell("fairness (Jain)").add_cell(report.metric(p, "fairness"), 4);
  t.new_row().add_cell("latency mean [slots]").add_cell(report.metric(p, "mean_latency_slots"), 2);
  t.new_row().add_cell("latency p99 [slots]").add_cell(report.metric(p, "p99_slots"), 0);
  t.new_row().add_cell("bus utilisation").add_cell(report.metric(p, "utilisation"), 4);
  t.new_row().add_cell("retry drops").add_cell(report.metric(p, "retry_drops"), 0);
  t.new_row().add_cell("queue drops").add_cell(report.metric(p, "queue_drops"), 0);
  t.print(std::cout);
  return 0;
}

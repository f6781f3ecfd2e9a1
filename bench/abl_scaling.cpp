// Ablation: technology-node scaling ("suitability in emerging DSM
// technologies", the paper's closing claim).
//
//  (a) TDC design point across the node ladder: a finer delay element
//      buys more bits per sample at the SAME detection cycle, so the
//      paper's TP(N,C) ceiling rises with every shrink even though the
//      SPAD dead time does not improve;
//  (b) energy per bit across nodes: the optical link's driver + RX
//      energy shrinks with C V^2 while the wire-bond pad's bond
//      inductance and ESD capacitance barely scale -- the optical
//      advantage WIDENS with scaling;
//  (c) the cost: relative element mismatch grows as devices shrink, so
//      the DNL the calibration must absorb grows with the node ladder
//      (Monte Carlo of the delay line at each node's mismatch).
//
// All three sweeps fan out over a sim::BatchRunner thread pool; the
// per-node RNG streams derive purely from (seed, label, node index),
// so the tables are bit-identical for any OCI_BATCH_THREADS setting.
// The mismatch Monte Carlo (the heavy sweep) is declared as a
// scenario::ScenarioSpec -- code-density traffic with a categorical
// tech_node axis -- and executed by ScenarioRunner.
#include <benchmark/benchmark.h>

#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/electrical/pad.hpp"
#include "oci/electrical/scaling.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/sim/batch_runner.hpp"
#include "oci/tdc/calibration.hpp"
#include "oci/tdc/tdc.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using electrical::TechnologyNode;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080615;
std::uint64_t g_seed = kSeed;  // resolved in main (--seed= / OCI_SEED)

sim::BatchRunner make_runner() {
  sim::BatchConfig cfg;
  cfg.root_seed = g_seed;
  return sim::BatchRunner(cfg);
}

void tdc_scaling_table(const sim::BatchRunner& runner) {
  // Fixed SPAD: 40 ns dead time, so DC(N,C) >= 40 ns everywhere. At
  // each node pick the best feasible (N, C) with that node's delta.
  const Time dead = Time::nanoseconds(40.0);
  const auto& ladder = electrical::technology_ladder();

  const auto rows =
      runner.map(ladder.size(), "tdc-design", [&](std::size_t i, RngStream&) {
        return link::best_design(ladder[i].delay_element, dead, 8, 4096, 0, 10);
      });

  double tp_250 = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] && ladder[i].feature_nm == 250.0) tp_250 = rows[i]->tp.bits_per_second();
  }

  util::Table t({"node", "delta [ps]", "best N", "best C", "bits/sample",
                 "TP [Mbps]", "TP gain vs 250nm"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& best = rows[i];
    if (!best) continue;
    const TechnologyNode& node = ladder[i];
    const double tp = best->tp.bits_per_second();
    t.new_row()
        .add_cell(std::string(node.name))
        .add_cell(node.delay_element.picoseconds(), 0)
        .add_cell(static_cast<double>(best->design.fine_elements), 0)
        .add_cell(static_cast<double>(best->design.coarse_bits), 0)
        .add_cell(best->bits, 0)
        .add_cell(tp / 1e6, 1)
        .add_cell(tp_250 > 0.0 ? tp / tp_250 : 0.0, 2);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (a): the SPAD's 40 ns detection cycle is fixed, but a\n"
         "finer delta packs more fine elements into the same range, so bits\n"
         "per sample climb monotonically down the ladder. TP trends up with\n"
         "them (~1.8x by 45 nm) but ripples node-to-node because DC(N,C)\n"
         "must overshoot the 40 ns dead time on a power-of-two grid, and\n"
         "each node's delta packs that boundary differently. This is the\n"
         "quantitative form of the paper's DSM claim.\n\n";
}

void energy_scaling_table() {
  // Closed-form per-node arithmetic -- not worth fanning out.
  util::Table t({"node", "LED driver [fJ/pulse]", "optical E/bit [fJ]",
                 "pad E/bit [fJ]", "optical advantage"});
  for (const TechnologyNode& node : electrical::technology_ladder()) {
    // Optical TX: LED emission energy (fixed optical budget) + driver
    // CV^2 at the node; 8 bits per pulse from the PPM design above.
    photonics::MicroLedParams led;
    led.peak_power = util::Power::microwatts(2.0);
    led.pulse_width = Time::picoseconds(300.0);
    led.driver_load = node.led_driver_load;
    led.supply = node.supply;
    const photonics::MicroLed tx(led);
    const double bits_per_pulse = 8.0;
    const double optical_per_bit =
        tx.electrical_pulse_energy().femtojoules() / bits_per_pulse;
    const double driver =
        electrical::switching_energy_at(node, node.led_driver_load).femtojoules();

    electrical::WireBondPadParams pad_p;
    pad_p.pad_capacitance = node.pad_capacitance;
    pad_p.swing = node.supply;
    const electrical::WireBondPad pad(pad_p);
    const double pad_per_bit = pad.energy_per_bit().femtojoules();

    t.new_row()
        .add_cell(std::string(node.name))
        .add_cell(driver, 1)
        .add_cell(optical_per_bit, 1)
        .add_cell(pad_per_bit, 1)
        .add_cell(pad_per_bit / optical_per_bit, 1);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (b): both columns shrink with C V^2, but the pad's\n"
         "ESD/bond capacitance scales far slower than the micro-LED driver\n"
         "load, so the optical energy advantage widens down the ladder.\n\n";
}

void mismatch_table(const scenario::Overrides& overrides) {
  // Monte Carlo the delay line at each node's mismatch and report the
  // uncalibrated DNL spread the periodic calibration has to absorb.
  // This is the heaviest sweep here -- one 200k-sample code-density
  // test per node -- declared as a scenario: the tech_node axis sets
  // each point's delay element and mismatch sigma from the ladder, and
  // ScenarioRunner fans the points out over the pool.
  const auto& ladder = electrical::technology_ladder();
  std::vector<std::string> nodes;
  for (const TechnologyNode& node : ladder) nodes.emplace_back(node.name);

  scenario::ScenarioSpec spec;
  spec.name = "dsm_mismatch";
  spec.description = "uncalibrated DNL/INL across the technology ladder";
  spec.seed = g_seed;
  spec.topology = scenario::Topology::kPointToPoint;
  spec.mode = scenario::TrafficMode::kCodeDensity;
  // 96 code elements plus margin so a slow-corner draw still covers
  // the clock period (same rule the production link applies).
  spec.device.design.fine_elements = 96;
  spec.device.design.coarse_bits = 0;
  spec.device.delay_line.elements = 108;
  spec.sweep = {scenario::SweepAxis::categories("tech_node", std::move(nodes))};
  spec.budget.samples = 200000;
  spec.budget.floor = 2000;
  overrides.apply(spec);
  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);

  util::Table t({"node", "mismatch sigma", "worst |DNL| [LSB]", "max |INL| [LSB]"});
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const scenario::RunPoint& p = report.points[i];
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(ladder[i].mismatch_sigma, 3)
        .add_cell(report.metric(p, "max_abs_dnl_lsb"), 2)
        .add_cell(report.metric(p, "max_abs_inl_lsb"), 2);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (c): the price of scaling -- relative mismatch grows\n"
         "as devices shrink, so uncalibrated DNL/INL worsen down the ladder;\n"
         "this is precisely why the paper leans on regular calibration\n"
         "rather than PVT-adjusted delay lines.\n";
}

void print_reproduction(const scenario::Overrides& overrides) {
  const sim::BatchRunner runner = make_runner();
  analysis::print_banner(std::cout, "Ablation 12: DSM technology scaling",
                         "TDC throughput, energy per bit, and mismatch across "
                         "the 250 nm -> 32 nm ladder",
                         g_seed);
  std::cout << "sweep threads = " << runner.threads() << "\n";
  tdc_scaling_table(runner);
  energy_scaling_table();
  mismatch_table(overrides);
}

void BM_BestDesignAcrossLadder(benchmark::State& state) {
  const Time dead = Time::nanoseconds(40.0);
  for (auto _ : state) {
    for (const TechnologyNode& node : electrical::technology_ladder()) {
      benchmark::DoNotOptimize(link::best_design(node.delay_element, dead, 8, 4096, 0, 10));
    }
  }
}
BENCHMARK(BM_BestDesignAcrossLadder);

void BM_MismatchSweep(benchmark::State& state) {
  const sim::BatchRunner runner = make_runner();
  const auto& ladder = electrical::technology_ladder();
  for (auto _ : state) {
    const auto rows = runner.map(
        ladder.size(), "bm-mismatch", [&](std::size_t i, RngStream& rng) {
          tdc::DelayLineParams lp;
          lp.elements = 108;
          lp.nominal_delay = ladder[i].delay_element;
          lp.mismatch_sigma = ladder[i].mismatch_sigma;
          RngStream process = rng.fork("process");
          const tdc::DelayLine line(lp, process);
          tdc::TdcConfig cfg;
          cfg.coarse_bits = 0;
          cfg.clock_period = ladder[i].delay_element * 96.0;
          const tdc::Tdc tdc(line, cfg);
          RngStream hits = rng.fork("hits");
          return tdc::code_density_test(tdc, 20000, hits);
        });
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_MismatchSweep);

}  // namespace

int main(int argc, char** argv) {
  oci::scenario::Overrides overrides;
  try {
    overrides = oci::scenario::read_overrides(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "abl_scaling: " << e.what()
              << "\nusage: abl_scaling [--seed=N] [--precision=H] [--max-samples=N] "
                 "[benchmark flags]\n";
    return 1;
  }
  g_seed = overrides.seed.value_or(kSeed);
  print_reproduction(overrides);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

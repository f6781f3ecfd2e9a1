// Ablation: PPM order. The paper fixes K = log2(N) + C, assuming the
// full TDC resolution is usable. This bench sweeps the bits carried per
// symbol on a fixed TDC and shows the realistic trade: more bits per
// pulse raise raw throughput linearly but shrink the slot width until
// timing noise dominates, collapsing goodput. The knee locates the
// usable PPM order for a given jitter budget.
//
// Declared as a scenario::ScenarioSpec and executed by ScenarioRunner
// (point-to-point symbol traffic, one sweep axis over bits_per_symbol);
// the spec fans out over the BatchRunner pool with per-point
// deterministic RNG, so the table is bit-identical for any
// OCI_BATCH_THREADS setting.
#include <benchmark/benchmark.h>

#include <iostream>
#include <stdexcept>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/modulation/ook.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using link::OpticalLink;
using link::OpticalLinkConfig;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080608;

OpticalLinkConfig base_config() {
  OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};  // 10-bit TDC
  c.channel_transmittance = 0.5;
  c.led.peak_power = util::Power::microwatts(50.0);
  c.led.pulse_width = Time::picoseconds(300.0);
  c.spad.jitter_sigma = Time::picoseconds(42.5);
  c.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  c.calibration_samples = analysis::scaled(200000, 5000);
  return c;
}

scenario::ScenarioSpec make_spec(const scenario::Overrides& overrides) {
  scenario::ScenarioSpec spec;
  spec.name = "ppm_order";
  spec.description = "bits/symbol sweep on a fixed N=64, C=4 TDC, 40 ns SPAD";
  spec.seed = kSeed;
  spec.topology = scenario::Topology::kPointToPoint;
  spec.device = base_config();
  spec.sweep = {scenario::SweepAxis::list(
      "bits_per_symbol", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10})};
  spec.budget.samples = 20000;
  spec.budget.floor = 500;
  // Adaptive precision on the SER column: low orders sit on the error
  // floor and stop after a chunk or two (their Wilson upper bound is
  // already tiny); only the orders near the jitter knee burn the full
  // budget chasing the half-width target.
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 0.01;
  spec.precision.chunk = 2500;
  spec.precision.max_samples = 40000;
  spec.precision.enabled = true;
  overrides.apply(spec);
  return spec;
}

void print_reproduction(const scenario::Overrides& overrides) {
  const scenario::ScenarioSpec spec = make_spec(overrides);
  analysis::print_banner(std::cout, "Ablation 1: PPM order",
                         "bits/symbol sweep on a fixed N=64, C=4 TDC, 40 ns SPAD",
                         spec.seed);

  const auto cfg0 = base_config();
  std::cout << "\nOOK baseline on the same SPAD: "
            << util::si_format(modulation::OokCodec::dead_time_limited_rate(
                                   cfg0.spad.dead_time)
                                   .bits_per_second(),
                               "bps", 2)
            << " (1 bit per detection cycle)\n\n";

  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);
  util::Table t({"K [bits/sym]", "slot width", "SER", "BER", "raw TP", "goodput"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(util::si_format(report.metric(p, "slot_ps") * 1e-12, "s", 2))
        .add_cell(report.metric(p, "ser"), 5)
        .add_cell(report.metric(p, "ber"), 5)
        .add_cell(util::si_format(report.metric(p, "raw_tp_bps"), "bps", 2))
        .add_cell(util::si_format(report.metric(p, "goodput_bps"), "bps", 2));
  }
  t.print(std::cout);
  std::cout << "\nShape check: goodput rises ~linearly with K while slots remain\n"
               "wide relative to jitter, then collapses once slot width nears the\n"
               "combined timing noise -- every PPM-over-SPAD design faces this knee.\n";
}

void BM_TransmitSymbolStream(benchmark::State& state) {
  auto cfg = base_config();
  cfg.bits_per_symbol = static_cast<unsigned>(state.range(0));
  RngStream rng(kSeed, "bm-ppm");
  const OpticalLink link(cfg, rng);
  RngStream tx(kSeed, "bm-ppm-tx");
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.measure(1000, tx).symbol_errors);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TransmitSymbolStream)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  oci::scenario::Overrides overrides;
  try {
    overrides = oci::scenario::read_overrides(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "abl_ppm_order: " << e.what()
              << "\nusage: abl_ppm_order [--seed=N] [--precision=H] [--max-samples=N] "
                 "[benchmark flags]\n";
    return 1;
  }
  print_reproduction(overrides);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Ablation: WDM over one through-silicon path.
//
// The paper's single-wavelength channel leaves the spectral dimension
// unused; this bench quantifies what a CWDM grid of micro-LED/SPAD
// channels adds and what limits it:
//
//  (a) channel-count scaling at fixed demux isolation -- aggregate
//      goodput vs N, and where inter-channel noise captures bend it;
//  (b) demux isolation requirement -- the minimum adjacent-channel
//      isolation for near-ideal scaling (the filter spec a physical
//      demux must hit);
//  (c) grid placement through a die stack -- silicon absorption
//      punishes short wavelengths, SPAD PDP punishes long ones, so
//      aggregate goodput has an interior optimum in the grid centre.
//
// Each sub-experiment is one scenario::ScenarioSpec (WDM topology, one
// sweep axis) resolved by ScenarioRunner onto the multi-source
// LinkEngine fast path, fanned out over the BatchRunner pool.
#include <benchmark/benchmark.h>

#include <iostream>
#include <stdexcept>

#include "oci/analysis/report.hpp"
#include "oci/link/wdm_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;
using util::Wavelength;

constexpr std::uint64_t kSeed = 20080614;

scenario::ScenarioSpec base_spec(const scenario::Overrides& overrides) {
  scenario::ScenarioSpec spec;
  spec.seed = kSeed;
  spec.topology = scenario::Topology::kWdm;
  spec.wdm.grid.center = Wavelength::nanometres(850.0);
  spec.wdm.grid.spacing = Wavelength::nanometres(25.0);
  spec.wdm.grid.channels = 4;
  spec.wdm.path_transmittance = 0.3;
  spec.device.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  // ~2 uW keeps the detected-signal budget healthy (~10 photons)
  // without megaphoton pulses that no realistic demux could isolate.
  spec.device.led.peak_power = util::Power::microwatts(2.0);
  spec.device.spad.jitter_sigma = Time::picoseconds(40.0);
  spec.device.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  spec.device.calibration_samples = analysis::scaled(30000, 2000);
  spec.budget.samples = 400;
  spec.budget.floor = 40;
  overrides.apply(spec);
  return spec;
}

link::WdmLinkConfig bm_config() {
  link::WdmLinkConfig c;
  const scenario::ScenarioSpec spec = base_spec(scenario::Overrides{});
  c.grid = spec.wdm.grid;
  c.base = spec.device;
  c.path_transmittance = spec.wdm.path_transmittance;
  return c;
}

void channel_scaling_table(const scenario::ScenarioRunner& runner,
                           scenario::ScenarioSpec spec) {
  spec.name = "wdm_channel_scaling";
  spec.sweep = {scenario::SweepAxis::list("channels", {1, 2, 4, 8, 12})};
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"channels", "aggregate goodput [Gbps]", "per-channel [Mbps]",
                 "worst SER", "noise captures"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(report.metric(p, "aggregate_gbps"), 3)
        .add_cell(report.metric(p, "per_channel_mbps"), 1)
        .add_cell(report.metric(p, "worst_ser"), 4)
        .add_cell(report.metric(p, "noise_captures"), 0);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (a): goodput scales ~linearly in channel count at\n"
         "25 nm spacing and stock isolation; the denser the grid, the more\n"
         "neighbours leak into the centre channels and per-channel goodput\n"
         "sags while noise captures climb.\n\n";
}

void isolation_table(const scenario::ScenarioRunner& runner, scenario::ScenarioSpec spec) {
  spec.name = "wdm_isolation";
  spec.wdm.grid.channels = 8;
  spec.sweep = {scenario::SweepAxis::list("isolation_db",
                                          {45.0, 35.0, 30.0, 25.0, 20.0, 15.0, 10.0})};
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"adjacent isolation [dB]", "aggregate goodput [Gbps]", "worst SER",
                 "noise captures"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(report.metric(p, "aggregate_gbps"), 3)
        .add_cell(report.metric(p, "worst_ser"), 4)
        .add_cell(report.metric(p, "noise_captures"), 0);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (b): multi-photon pulses make the demux spec hard --\n"
         "~3e4 photons/pulse mean even 25 dB leaks ~1 photon/window into each\n"
         "neighbour, so goodput holds down to roughly 25-30 dB and then\n"
         "collapses as crosstalk captures outrace the signal.\n\n";
}

void stack_grid_table(const scenario::ScenarioRunner& runner, scenario::ScenarioSpec spec) {
  spec.name = "wdm_stack_grid";
  spec.wdm.grid.channels = 4;
  spec.wdm.stack_dies = 4;
  spec.wdm.from_die = 0;
  spec.wdm.to_die = 2;
  spec.wdm.path_transmittance = 0.9;  // geometry only; absorption via stack
  spec.sweep = {scenario::SweepAxis::list("grid_center_nm",
                                          {820.0, 870.0, 920.0, 970.0, 1020.0})};
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"grid centre [nm]", "shortest ch. T", "longest ch. T",
                 "aggregate goodput [Gbps]", "worst SER"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(report.metric(p, "collected_short"), 5)
        .add_cell(report.metric(p, "collected_long"), 5)
        .add_cell(report.metric(p, "aggregate_gbps"), 3)
        .add_cell(report.metric(p, "worst_ser"), 4);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (c): through two thinned dies the short-wavelength\n"
         "channels are absorption-starved and the long-wavelength channels\n"
         "are PDP-starved; the aggregate peaks with the grid centred in the\n"
         "~900-1000 nm window where both losses stay survivable.\n";
}

void print_reproduction(const scenario::Overrides& overrides) {
  const scenario::ScenarioSpec base = base_spec(overrides);
  analysis::print_banner(std::cout, "Ablation 11: WDM over one optical path",
                         "aggregate goodput vs channel count, demux isolation, "
                         "and grid placement through a die stack",
                         base.seed);
  const scenario::ScenarioRunner runner;
  channel_scaling_table(runner, base);
  isolation_table(runner, base);
  stack_grid_table(runner, base);
}

void BM_WdmWindow(benchmark::State& state) {
  RngStream rng(kSeed, "bm-wdm");
  const link::WdmLink wdm(bm_config(), rng);
  RngStream tx(kSeed, "bm-wdm-tx");
  for (auto _ : state) {
    benchmark::DoNotOptimize(wdm.measure(8, tx).per_channel.size());
  }
}
BENCHMARK(BM_WdmWindow);

}  // namespace

int main(int argc, char** argv) {
  oci::scenario::Overrides overrides;
  try {
    overrides = oci::scenario::read_overrides(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "abl_wdm: " << e.what()
              << "\nusage: abl_wdm [--seed=N] [--precision=H] [--max-samples=N] "
                 "[benchmark flags]\n";
    return 1;
  }
  print_reproduction(overrides);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

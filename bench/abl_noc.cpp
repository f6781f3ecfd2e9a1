// Ablation: MAC discipline on the shared optical stack bus.
//
// The paper proposes the physical medium (one optical channel seen by
// every die); turning it into a *network* needs medium access. This
// bench sweeps the three classic disciplines at packet granularity:
//
//  (a) saturation curves -- carried load and p99 latency vs offered
//      load for TDMA, token (with/without pass cost), and slotted
//      ALOHA; the textbook shapes (TDMA flat to 1.0, ALOHA capped
//      near 1/e) must emerge from the slot simulation;
//  (b) hot-spot traffic -- one bursty die among idle ones: the static
//      TDMA schedule strands bandwidth that the work-conserving token
//      recovers;
//  (c) layer coupling -- the per-transfer delivery probability comes
//      from the photon-level Monte Carlo link (FEC frame delivery at
//      measured jitter), and ARQ turns residual loss into latency;
//  (d) arbitration at scale -- CAC codeword schedules (net::CacMac,
//      distributed slot/wavelength allocation) against TDMA and token
//      as the stack grows toward thousand-die meshes: the centralized
//      single-channel disciplines cap at 1 packet/slot while the CAC
//      allocation unlocks the WDM parallelism.
//
// Each sub-experiment is a scenario::ScenarioSpec (stack-NoC topology)
// resolved by ScenarioRunner; (c) uses the fec-probe delivery coupling,
// which measures the device link's FEC frame delivery per point and
// folds it into the slot simulation. Sweep points fan out over the
// BatchRunner pool with (seed, scenario, index)-derived RNG, so the
// printed tables are bit-identical for any OCI_BATCH_THREADS setting.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/sim/batch_runner.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using net::StackNetwork;
using net::StackNetworkConfig;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080616;
constexpr std::size_t kDies = 8;

scenario::ScenarioSpec base_spec(const scenario::Overrides& overrides) {
  scenario::ScenarioSpec spec;
  spec.seed = kSeed;
  spec.topology = scenario::Topology::kStackNoc;
  spec.noc.dies = kDies;
  spec.noc.queue_capacity = 512;
  spec.budget.samples = 60000;
  spec.budget.floor = 1000;
  overrides.apply(spec);
  return spec;
}

void saturation_table(const scenario::ScenarioRunner& runner, scenario::ScenarioSpec spec) {
  spec.name = "noc_saturation";
  spec.sweep = {
      scenario::SweepAxis::list("offered_load", {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3}),
      scenario::SweepAxis::categories("mac", {"tdma", "token", "token+pass", "aloha"}),
  };
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"offered load", "tdma carried", "tdma p99", "token carried",
                 "token p99", "token+pass carried", "aloha carried"});
  for (double load : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3}) {
    const std::string l = scenario::format_axis_value(load);
    auto point = [&](const std::string& mac) {
      return report.find("offered_load=" + l + "/mac=" + mac);
    };
    const auto* tdma = point("tdma");
    const auto* token = point("token");
    const auto* pass = point("token+pass");
    const auto* aloha = point("aloha");
    if (!tdma || !token || !pass || !aloha) continue;
    t.new_row()
        .add_cell(load, 1)
        .add_cell(report.metric(*tdma, "carried_load"), 3)
        .add_cell(report.metric(*tdma, "p99_slots"), 0)
        .add_cell(report.metric(*token, "carried_load"), 3)
        .add_cell(report.metric(*token, "p99_slots"), 0)
        .add_cell(report.metric(*pass, "carried_load"), 3)
        .add_cell(report.metric(*aloha, "carried_load"), 3);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (a): TDMA and token both carry the offered load up to\n"
         "~1.0 and saturate there; the token's p99 stays lower below\n"
         "saturation (no waiting for your slot) but a 1-slot pass cost eats\n"
         "into its ceiling under scattered traffic; slotted ALOHA tops out\n"
         "near 1/e ~ 0.37 and sheds everything beyond it.\n\n";
}

void hotspot_table(const scenario::ScenarioRunner& runner, scenario::ScenarioSpec spec) {
  spec.name = "noc_hotspot";
  spec.noc.pattern = scenario::NocPattern::kHotspot;
  spec.noc.offered_load = 0.08;  // light background everywhere
  spec.noc.hot_die = 3;
  spec.noc.hot_load = 0.9;
  spec.noc.queue_capacity = 4096;
  spec.sweep = {scenario::SweepAxis::categories("mac", {"tdma", "token"})};
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"policy", "hot-die delivered/slot", "p99 [slots]",
                 "bus utilisation"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(report.metric(p, "hot_rate"), 3)
        .add_cell(report.metric(p, "p99_slots"), 0)
        .add_cell(report.metric(p, "utilisation"), 3);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (b): static TDMA caps the hot die at its 1/8 share\n"
         "and strands the idle dies' slots; the work-conserving token hands\n"
         "those slots to the backlog, roughly octupling the hot die's\n"
         "delivered rate and deflating the hot queue's p99 by two orders\n"
         "of magnitude.\n\n";
}

void layer_coupling_table(const scenario::ScenarioRunner& runner,
                          scenario::ScenarioSpec spec) {
  // Per-transfer delivery probability measured on the photon-level
  // link at each jitter (fec-probe coupling), then fed to the packet
  // simulation with ARQ. Each jitter point runs its own link
  // calibration + probe + slot sim inside one pool task.
  spec.name = "noc_layer_coupling";
  spec.noc.pattern = scenario::NocPattern::kUniform;
  spec.noc.offered_load = 0.6;
  spec.noc.mac = "token";
  spec.noc.max_attempts = 6;
  spec.noc.delivery = scenario::NocDelivery::kFecProbe;
  spec.noc.payload_bytes = 12;
  spec.noc.probe_transfers = 150;
  spec.device.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 8;
  spec.device.channel_transmittance = 0.8;
  spec.device.led.peak_power = util::Power::microwatts(50.0);
  spec.device.led.pulse_width = Time::picoseconds(100.0);
  spec.device.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  spec.device.calibration_samples = analysis::scaled(100000, 5000);
  spec.sweep = {scenario::SweepAxis::list("jitter_ps", {60.0, 120.0, 150.0, 180.0})};
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"jitter [ps]", "frame delivery p", "net goodput [pkt/slot]",
                 "mean latency [slots]", "p99 [slots]", "retry drops"});
  for (const scenario::RunPoint& p : report.points) {
    t.new_row()
        .add_cell(p.coordinate.at(0))
        .add_cell(report.metric(p, "transfer_p"), 3)
        .add_cell(report.metric(p, "carried_load"), 3)
        .add_cell(report.metric(p, "mean_latency_slots"), 1)
        .add_cell(report.metric(p, "p99_slots"), 0)
        .add_cell(report.metric(p, "retry_drops"), 0);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (c): as physical-layer jitter erodes frame delivery,\n"
         "ARQ first converts loss into latency (mean and p99 inflate while\n"
         "goodput holds), then the retry budget exhausts and packets drop --\n"
         "the cross-layer story a link-only analysis cannot show.\n";
}

void cac_scale_table(const scenario::ScenarioRunner& runner, scenario::ScenarioSpec spec) {
  spec.name = "noc_cac_scale";
  spec.noc.offered_load = 1.4;  // past the single-channel ceiling
  spec.noc.alloc_wavelengths = 4;
  spec.noc.alloc_weight = 2;
  spec.budget.samples = 40000;
  spec.budget.floor = 800;
  spec.sweep = {
      scenario::SweepAxis::list("dies", {64.0, 256.0}),
      scenario::SweepAxis::categories("mac", {"tdma", "token", "cac"}),
  };
  const scenario::RunReport report = runner.run(spec);

  util::Table t({"dies", "tdma carried", "token carried", "cac carried",
                 "cac p99", "cac fairness"});
  for (double dies : {64.0, 256.0}) {
    const std::string d = scenario::format_axis_value(dies);
    auto point = [&](const std::string& mac) {
      return report.find("dies=" + d + "/mac=" + mac);
    };
    const auto* tdma = point("tdma");
    const auto* token = point("token");
    const auto* cac = point("cac");
    if (!tdma || !token || !cac) continue;
    t.new_row()
        .add_cell(dies, 0)
        .add_cell(report.metric(*tdma, "carried_load"), 3)
        .add_cell(report.metric(*token, "carried_load"), 3)
        .add_cell(report.metric(*cac, "carried_load"), 3)
        .add_cell(report.metric(*cac, "p99_slots"), 0)
        .add_cell(report.metric(*cac, "fairness"), 3);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check (d): at 1.4 offered the single-channel MACs pin to the\n"
         "1 packet/slot medium ceiling regardless of die count; the CAC\n"
         "schedule spreads codewords over 4 wavelengths and carries the\n"
         "whole offered load with near-perfect fairness and no token ring\n"
         "to serialise arbitration at scale.\n\n";
}

void print_reproduction(const scenario::Overrides& overrides) {
  const scenario::ScenarioSpec base = base_spec(overrides);
  analysis::print_banner(std::cout, "Ablation 13: MAC on the optical stack bus",
                         "TDMA vs token vs slotted ALOHA at packet granularity, "
                         "coupled to the photon-level link",
                         base.seed);
  const scenario::ScenarioRunner runner;
  saturation_table(runner, base);
  hotspot_table(runner, base);
  layer_coupling_table(runner, base);
  cac_scale_table(runner, base);
}

StackNetworkConfig bm_traffic_config(double aggregate_load) {
  StackNetworkConfig c;
  c.dies = kDies;
  c.traffic.resize(kDies);
  for (auto& t : c.traffic) {
    t.packets_per_slot = aggregate_load / static_cast<double>(kDies);
    t.uniform_destinations = true;
  }
  c.queue_capacity = 512;
  return c;
}

std::unique_ptr<net::MacPolicy> bm_make_mac(const std::string& kind) {
  if (kind == "tdma") {
    return std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(kDies));
  }
  if (kind == "token") return std::make_unique<net::TokenMac>(kDies, 0);
  if (kind == "token+pass") return std::make_unique<net::TokenMac>(kDies, 1);
  return std::make_unique<net::AlohaMac>(1.0 / static_cast<double>(kDies));
}

void BM_NetworkSlot(benchmark::State& state) {
  StackNetwork netw(bm_traffic_config(0.8), bm_make_mac("token"));
  RngStream rng(kSeed, "bm-noc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(netw.run(1000, rng).total_delivered());
  }
}
BENCHMARK(BM_NetworkSlot);

void BM_SaturationSweep(benchmark::State& state) {
  sim::BatchConfig cfg;
  cfg.root_seed = kSeed;
  const sim::BatchRunner runner(cfg);
  const std::vector<std::string> kinds{"tdma", "token", "token+pass", "aloha"};
  for (auto _ : state) {
    const auto points = runner.map(
        kinds.size() * 4, "bm-saturation", [&](std::size_t i, RngStream& rng) {
          const double load = 0.3 * static_cast<double>(i / kinds.size() + 1);
          StackNetwork netw(bm_traffic_config(load), bm_make_mac(kinds[i % kinds.size()]));
          return netw.run(2000, rng).total_delivered();
        });
    benchmark::DoNotOptimize(points.data());
  }
}
BENCHMARK(BM_SaturationSweep);

}  // namespace

int main(int argc, char** argv) {
  oci::scenario::Overrides overrides;
  try {
    overrides = oci::scenario::read_overrides(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "abl_noc: " << e.what()
              << "\nusage: abl_noc [--seed=N] [--precision=H] [--max-samples=N] "
                 "[benchmark flags]\n";
    return 1;
  }
  print_reproduction(overrides);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

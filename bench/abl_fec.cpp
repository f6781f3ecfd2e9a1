// Ablation: FEC below the integrity check. Plain CRC framing drops a
// whole frame on any single bit error; Hamming(8,4) SECDED under the
// CRC corrects the Gray-coded single-bit jitter spills that dominate a
// guarded link's residual errors. This bench sweeps jitter and compares
// delivery rate and net goodput of the two stacks at equal payload.
//
// Declared as ONE scenario::ScenarioSpec (point-to-point frame traffic)
// with a 2D sweep: jitter x {crc-only, hamming-under-crc}; the printed
// comparison table pivots the RunReport rows.
#include <benchmark/benchmark.h>

#include <iostream>
#include <stdexcept>

#include "oci/analysis/report.hpp"
#include "oci/link/fec_link.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/util/table.hpp"

namespace {

using namespace oci;
using link::OpticalLink;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080608;

link::OpticalLinkConfig jittery_config(double jitter_ps) {
  link::OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 8;  // ~208 ps slots: jitter-sensitive on purpose
  c.channel_transmittance = 0.8;
  c.led.peak_power = util::Power::microwatts(50.0);
  c.led.pulse_width = Time::picoseconds(100.0);
  c.spad.jitter_sigma = Time::picoseconds(jitter_ps);
  c.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  c.calibration_samples = analysis::scaled(150000, 5000);
  return c;
}

scenario::ScenarioSpec make_spec(const scenario::Overrides& overrides) {
  scenario::ScenarioSpec spec;
  spec.name = "fec_under_crc";
  spec.description = "frame delivery: CRC-only vs Hamming(8,4)+CRC vs SPAD jitter";
  spec.seed = kSeed;
  spec.topology = scenario::Topology::kPointToPoint;
  spec.mode = scenario::TrafficMode::kFrames;
  spec.payload_bytes = 24;
  spec.device = jittery_config(40.0);
  spec.sweep = {
      scenario::SweepAxis::list("jitter_ps", {40.0, 80.0, 120.0, 160.0, 200.0}),
      scenario::SweepAxis::categories("fec", {"none", "hamming"}),
  };
  spec.budget.samples = 150;
  spec.budget.floor = 20;
  // Adaptive precision: spend transfers only where the delivery-rate
  // interval is still wide. The saturated corners (deliver-everything
  // at low jitter, deliver-nothing past the knee) stop after one
  // chunk; the knee itself runs up to 4x the fixed budget.
  spec.precision.metric = "delivery_rate";
  spec.precision.target_half_width = 0.06;
  spec.precision.chunk = 50;
  spec.precision.max_samples = 600;
  spec.precision.enabled = true;
  overrides.apply(spec);
  return spec;
}

void print_reproduction(const scenario::Overrides& overrides) {
  const scenario::ScenarioSpec spec = make_spec(overrides);
  analysis::print_banner(std::cout, "Ablation 9: FEC under the CRC",
                         "frame delivery: CRC-only vs Hamming(8,4)+CRC vs SPAD "
                         "timing jitter",
                         spec.seed);

  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);

  util::Table t({"jitter sigma [ps]", "CRC-only delivery", "FEC delivery",
                 "FEC corrections/transfer", "FEC net goodput factor"});
  for (double jitter : {40.0, 80.0, 120.0, 160.0, 200.0}) {
    const std::string j = scenario::format_axis_value(jitter);
    const auto* crc = report.find("jitter_ps=" + j + "/fec=none");
    const auto* fec = report.find("jitter_ps=" + j + "/fec=hamming");
    if (crc == nullptr || fec == nullptr) continue;
    const double crc_rate = report.metric(*crc, "delivery_rate");
    const double fec_rate = report.metric(*fec, "delivery_rate");
    // Net goodput factor: delivery probability x code rate, relative to
    // the CRC stack (rate 1).
    const double factor =
        crc_rate > 0.0 ? (fec_rate * link::FecLink::code_rate()) / crc_rate
                       : (fec_rate > 0 ? 99.0 : 0.0);
    t.new_row()
        .add_cell(jitter, 0)
        .add_cell(crc_rate, 3)
        .add_cell(fec_rate, 3)
        .add_cell(report.metric(*fec, "corrections_per_transfer"), 2)
        .add_cell(factor, 3);
  }
  t.print(std::cout);
  std::cout
      << "\nShape check: at low jitter the CRC stack wins (FEC pays 2x symbols\n"
         "for nothing); past the knee the CRC stack's delivery collapses --\n"
         "every frame contains >= 1 flipped bit -- while SECDED keeps\n"
         "delivering and the net-goodput factor crosses above 1.\n";
}

void BM_FecTransfer(benchmark::State& state) {
  RngStream rng(kSeed, "bm-fec");
  const OpticalLink link(jittery_config(120.0), rng);
  const link::FecLink fec(link);
  RngStream tx(kSeed, "bm-fec-tx");
  const std::vector<std::uint8_t> payload(24, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fec.transfer(payload, tx).corrections);
  }
}
BENCHMARK(BM_FecTransfer);

}  // namespace

int main(int argc, char** argv) {
  oci::scenario::Overrides overrides;
  try {
    overrides = oci::scenario::read_overrides(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "abl_fec: " << e.what()
              << "\nusage: abl_fec [--seed=N] [--precision=H] [--max-samples=N] "
                 "[benchmark flags]\n";
    return 1;
  }
  print_reproduction(overrides);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

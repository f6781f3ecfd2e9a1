// Quickstart: send a text message over one SPAD/PPM optical link and
// print what arrives, along with the link's vital statistics.
//
//   $ ./quickstart [--seed=N] [--precision=H] [--max-samples=N]
//
// The flags (or OCI_SEED / OCI_PRECISION / OCI_MAX_SAMPLES) override the
// spec built below; see oci/scenario/cli.hpp.
//
// Walks the canonical Scenario API path: describe the experiment as a
// ScenarioSpec -> construct the same link the runner would (for the
// hello-message frame) -> hand the spec to ScenarioRunner for the
// error-rate measurement and read the metrics off the RunReport.
#include <iostream>
#include <stdexcept>
#include <string>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
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
    std::cerr << "quickstart: " << e.what()
              << "\nusage: quickstart [--seed=N] [--precision=H] [--max-samples=N]\n";
    return 1;
  }

  // 1. Describe the experiment. The spec is plain data -- the same
  //    description could live in a text file for tools/run_scenario.
  scenario::ScenarioSpec spec;
  spec.name = "quickstart";
  spec.description = "one SPAD/PPM link, 5 bits per pulse";
  spec.seed = 42;
  spec.topology = scenario::Topology::kPointToPoint;
  // A 64-element delay line with 4 coarse bits gives a 10-bit TDC; we
  // carry 5 bits per pulse for jitter margin.
  spec.device.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 5;
  spec.device.channel_transmittance = 0.5;  // one thinned die + coupling losses
  spec.device.led.peak_power = util::Power::microwatts(50.0);
  spec.device.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  // The link is constructed twice (once below for the message demo,
  // once inside the runner), so keep the calibration repro-scalable.
  spec.device.calibration_samples = analysis::scaled(200000, 5000);
  spec.budget.samples = 20000;
  spec.budget.floor = 500;
  overrides.apply(spec);

  // 2. Construct the device under test for the message demo. The RNG
  //    stream seeds process variation (delay-line mismatch) and the
  //    construction-time code-density calibration; spec.device is
  //    exactly the configuration ScenarioRunner resolves.
  util::RngStream process(spec.seed, "quickstart-process");
  const link::OpticalLink link(spec.device, process);

  std::cout << "link configured: " << link.bits_per_symbol() << " bits/symbol, "
            << util::si_format(link.symbol_period().seconds(), "s", 2)
            << " per symbol, analytic TP = "
            << util::si_format(link.analytic_throughput().bits_per_second(), "bps", 2)
            << "\n";

  // 3. Frame a payload and push it through the channel.
  const std::string message = "hello through silicon!";
  modulation::Frame frame;
  frame.payload.assign(message.begin(), message.end());

  util::RngStream channel(spec.seed, "quickstart-channel");
  const auto result = link.transmit_frame(frame, channel);

  if (result.frame) {
    std::cout << "received : \""
              << std::string(result.frame->payload.begin(), result.frame->payload.end())
              << "\"  (CRC ok)\n";
  } else {
    std::cout << "frame lost (CRC/preamble failure)\n";
  }

  // 4. Error-rate measurement: run the spec. With no sweep axes the
  //    report holds one point whose metrics are the link's vitals.
  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);
  const scenario::RunPoint& p = report.points.front();
  util::Table t({"metric", "value"});
  t.new_row().add_cell("symbols sent").add_cell(p.samples);
  t.new_row().add_cell("symbol error rate").add_cell(report.metric(p, "ser"), 6);
  t.new_row().add_cell("bit error rate").add_cell(report.metric(p, "ber"), 6);
  t.new_row().add_cell("erasure rate (missed pulses)").add_cell(report.metric(p, "erasure_rate"), 6);
  t.new_row().add_cell("noise capture rate").add_cell(report.metric(p, "noise_capture_rate"), 6);
  t.new_row()
      .add_cell("raw throughput")
      .add_cell(util::si_format(report.metric(p, "raw_tp_bps"), "bps", 2));
  t.new_row()
      .add_cell("goodput")
      .add_cell(util::si_format(report.metric(p, "goodput_bps"), "bps", 2));
  t.new_row()
      .add_cell("energy per bit")
      .add_cell(util::si_format(report.metric(p, "energy_per_bit_j"), "J", 2));
  t.print(std::cout);
  return 0;
}

// Tests for the Scenario API: spec validation rejections, the shared
// parameter registry, the outside overrides (read_overrides + apply:
// --seed= / OCI_SEED, --precision= / OCI_PRECISION), the
// spec -> run -> RunReport round trip at a fixed seed (deterministic,
// thread-count independent), and statistical consistency between
// ScenarioRunner's engine resolution and direct hand-wired engine
// calls at the same operating point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/scenario/spec.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci;
using scenario::FecKind;
using scenario::NocDelivery;
using scenario::NocPattern;
using scenario::RunPoint;
using scenario::RunReport;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::SweepAxis;
using scenario::Topology;
using scenario::TrafficMode;

constexpr std::uint64_t kSeed = 20260726;

/// Pins the process repro scale for the duration of a test so budget
/// resolution is deterministic regardless of the CI environment.
struct ScaleGuard {
  explicit ScaleGuard(double s) { analysis::set_repro_scale_for_test(s); }
  ~ScaleGuard() { analysis::set_repro_scale_for_test(std::nullopt); }
};

/// Small, fast point-to-point spec (no calibration).
ScenarioSpec tiny_link_spec() {
  ScenarioSpec spec;
  spec.name = "tiny_link";
  spec.seed = kSeed;
  spec.topology = Topology::kPointToPoint;
  spec.device.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.budget.samples = 600;
  spec.budget.repro_scaled = false;
  return spec;
}

std::string validation_message(const ScenarioSpec& spec) {
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioSpec, ValidSpecPasses) {
  EXPECT_NO_THROW(tiny_link_spec().validate());
}

TEST(ScenarioSpec, RejectsZeroWdmChannels) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.wdm.grid.channels = 0;
  EXPECT_NE(validation_message(spec).find("channels >= 1"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFecOverRawSymbolTraffic) {
  ScenarioSpec spec = tiny_link_spec();
  spec.fec = FecKind::kHamming;  // mode stays kAuto -> symbols
  EXPECT_NE(validation_message(spec).find("fec"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFecOverPacketTopology) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.fec = FecKind::kHamming;
  EXPECT_NE(validation_message(spec).find("fec"), std::string::npos);
}

TEST(ScenarioSpec, RejectsEmptySweepAxis) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep.push_back(SweepAxis::list("jitter_ps", {}));
  EXPECT_NE(validation_message(spec).find("no points"), std::string::npos);
}

TEST(ScenarioSpec, RejectsUnknownSweepParameter) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep.push_back(SweepAxis::list("warp_factor", {9.0}));
  EXPECT_NE(validation_message(spec).find("unknown parameter 'warp_factor'"),
            std::string::npos);
}

TEST(ScenarioSpec, RejectsNumericAxisOverCategoricalParameter) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.sweep.push_back(SweepAxis::list("mac", {1.0, 2.0}));
  EXPECT_NE(validation_message(spec).find("categorical"), std::string::npos);
}

TEST(ScenarioSpec, RejectsZeroBudget) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 0;
  EXPECT_NE(validation_message(spec).find("samples"), std::string::npos);
}

TEST(ScenarioSpec, RejectsStructuralParameterSweeps) {
  for (const std::string key : {"topology", "mode", "seed", "name"}) {
    ScenarioSpec spec = tiny_link_spec();
    spec.sweep.push_back(scenario::is_categorical_param(key)
                             ? SweepAxis::categories(key, {"a", "b"})
                             : SweepAxis::list(key, {1.0, 2.0}));
    EXPECT_NE(validation_message(spec).find("structural"), std::string::npos) << key;
  }
}

TEST(ScenarioSpec, SeedParsesFullUint64Range) {
  ScenarioSpec spec;
  scenario::set_param(spec, "seed", "18446744073709551615");  // 2^64 - 1
  EXPECT_EQ(spec.seed, 18446744073709551615ull);
  scenario::set_param(spec, "seed", "9007199254740993");  // 2^53 + 1, not double-exact
  EXPECT_EQ(spec.seed, 9007199254740993ull);
  EXPECT_THROW(scenario::set_param(spec, "seed", "-1"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "seed", "99999999999999999999"),
               std::invalid_argument);  // > 2^64
  EXPECT_THROW(scenario::set_param(spec, "seed", "12x"), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsFramesOffPointToPoint) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.mode = TrafficMode::kFrames;
  EXPECT_NE(validation_message(spec).find("frame traffic"), std::string::npos);
}

TEST(ScenarioSpec, RejectsOutOfRangeFaultParameters) {
  ScenarioSpec spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 1.5;
  EXPECT_NE(validation_message(spec).find("fault.dead_pixel_fraction"),
            std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 0.7;
  spec.fault.hot_pixel_fraction = 0.7;  // sums past the whole array
  EXPECT_NE(validation_message(spec).find("must not exceed 1"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.link_failure_probability = -0.1;
  EXPECT_NE(validation_message(spec).find("fault.link_failure_probability"),
            std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 0.1;
  spec.fault.array_pixels = 0;
  EXPECT_NE(validation_message(spec).find("array_pixels"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.flaky_attenuation_db = -3.0;
  spec.fault.flaky_window_probability = 0.1;
  EXPECT_NE(validation_message(spec).find("flaky_attenuation_db"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFaultsOnForeignTopologies) {
  // Each fault kind maps to one engine path; arming it anywhere else is
  // a silent no-op and must be rejected instead.
  ScenarioSpec spec = tiny_link_spec();
  spec.fault.dead_channel_fraction = 0.25;  // WDM fault on a p2p link
  EXPECT_NE(validation_message(spec).find("wdm topology"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_node_fraction = 0.25;  // NoC fault on a p2p link
  EXPECT_NE(validation_message(spec).find("stack-noc topology"), std::string::npos);

  spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.fault.dead_pixel_fraction = 0.25;  // pixel fault on the slot simulation
  EXPECT_NE(validation_message(spec).find("pixel faults"), std::string::npos);

  spec = tiny_link_spec();
  spec.mode = TrafficMode::kCodeDensity;
  spec.fault.tdc_drift_c = 15.0;
  EXPECT_NE(validation_message(spec).find("code-density"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dark_window_probability = 0.1;
  spec.aggressors = {scenario::AggressorSpec{10.0, 0.0}};
  EXPECT_NE(validation_message(spec).find("aggressor"), std::string::npos);

  // Killing all but one die must fail: the slot simulation needs a
  // live transmitter AND a live destination.
  spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.noc.dies = 4;
  spec.fault.dead_node_fraction = 0.9;
  EXPECT_NE(validation_message(spec).find("2 live dies"), std::string::npos);
}

TEST(ScenarioSpec, CollectsEveryErrorInOneMessage) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.wdm.grid.channels = 0;
  spec.budget.samples = 0;
  spec.sweep.push_back(SweepAxis::list("bogus", {1.0}));
  const std::string msg = validation_message(spec);
  EXPECT_NE(msg.find("channels"), std::string::npos);
  EXPECT_NE(msg.find("samples"), std::string::npos);
  EXPECT_NE(msg.find("bogus"), std::string::npos);
}

TEST(ScenarioSpec, ParameterRegistryAppliesAndRejects) {
  ScenarioSpec spec;
  scenario::set_param(spec, "jitter_ps", "125");
  EXPECT_DOUBLE_EQ(spec.device.spad.jitter_sigma.picoseconds(), 125.0);
  scenario::set_param(spec, "mac", "aloha");
  EXPECT_EQ(spec.noc.mac, "aloha");
  scenario::set_param(spec, "dies", "12");
  EXPECT_EQ(spec.noc.dies, 12u);
  EXPECT_EQ(spec.bus.dies, 12u);
  scenario::set_param(spec, "tech_node", "65nm");
  EXPECT_NEAR(spec.device.delay_line.nominal_delay.picoseconds(), 60.0, 5.0);

  EXPECT_THROW(scenario::set_param(spec, "nope", "1"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "jitter_ps", "fast"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "mac", "csma"), std::invalid_argument);
  EXPECT_TRUE(scenario::is_categorical_param("mac"));
  EXPECT_FALSE(scenario::is_categorical_param("jitter_ps"));
  EXPECT_FALSE(scenario::known_params().empty());
}

TEST(ScenarioSpec, SweepAxisFactories) {
  const SweepAxis lin = SweepAxis::linear("jitter_ps", 0.0, 100.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin.values.front(), 0.0);
  EXPECT_DOUBLE_EQ(lin.values.back(), 100.0);
  EXPECT_DOUBLE_EQ(lin.values[2], 50.0);

  const SweepAxis lg = SweepAxis::logspace("samples", 1.0, 100.0, 3);
  ASSERT_EQ(lg.size(), 3u);
  EXPECT_NEAR(lg.values[1], 10.0, 1e-9);

  EXPECT_THROW(SweepAxis::logspace("samples", 0.0, 10.0, 3), std::invalid_argument);

  const SweepAxis cat = SweepAxis::categories("mac", {"tdma", "token"});
  EXPECT_TRUE(cat.categorical());
  EXPECT_EQ(cat.display(1), "token");
}

TEST(ScenarioRunner, GoldenRoundTripIsDeterministic) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 120.0}),
                SweepAxis::categories("labeling", {"gray", "binary"})};

  const RunReport a = ScenarioRunner().run(spec);
  const RunReport b = ScenarioRunner().run(spec);

  ASSERT_EQ(a.points.size(), 4u);
  EXPECT_EQ(a.axis_names, (std::vector<std::string>{"jitter_ps", "labeling"}));
  ASSERT_EQ(a.metric_names.size(), 9u);
  EXPECT_EQ(a.seed, kSeed);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].coordinate, b.points[i].coordinate);
    EXPECT_EQ(a.points[i].metrics, b.points[i].metrics);  // bit-identical
    EXPECT_EQ(a.points[i].rng_draws, b.points[i].rng_draws);
    EXPECT_EQ(a.points[i].samples, 600u);
  }
  // Label lookup round-trips.
  const RunPoint* p = a.find("jitter_ps=120/labeling=gray");
  ASSERT_NE(p, nullptr);
  EXPECT_NO_THROW((void)a.metric(*p, "ser"));
  EXPECT_THROW((void)a.metric(*p, "nope"), std::out_of_range);
  EXPECT_EQ(a.find("jitter_ps=999/labeling=gray"), nullptr);
}

TEST(ScenarioRunner, ThreadCountDoesNotChangeResults) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 80.0, 120.0, 160.0})};
  const RunReport one = ScenarioRunner(1).run(spec);
  const RunReport four = ScenarioRunner(4).run(spec);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, four.points[i].metrics);
    EXPECT_EQ(one.points[i].rng_draws, four.points[i].rng_draws);
  }
}

TEST(ScenarioRunner, MatchesDirectEngineWiringStatistically) {
  // The runner's point-to-point resolution must be the same physics as
  // hand-wiring OpticalLink::measure at the same operating point: a
  // two-proportion z-test on the symbol error counts.
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(130.0);
  spec.budget.samples = 4000;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  const auto scenario_errors = static_cast<std::uint64_t>(
      report.metric(p, "ser") * static_cast<double>(p.samples) + 0.5);

  util::RngStream process(kSeed, "direct-process");
  const link::OpticalLink direct(spec.device, process);
  util::RngStream tx(kSeed, "direct-tx");
  const link::LinkRunStats stats = direct.measure(4000, tx);

  EXPECT_RATES_CONSISTENT(scenario_errors, p.samples, stats.symbol_errors,
                          stats.symbols_sent, 1e-4);
}

TEST(ScenarioRunner, FrameTrafficMatchesDirectFecWiring) {
  ScenarioSpec spec = tiny_link_spec();
  spec.mode = TrafficMode::kFrames;
  spec.fec = FecKind::kHamming;
  spec.payload_bytes = 8;
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.device.bits_per_symbol = 8;
  spec.budget.samples = 120;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_DOUBLE_EQ(report.metric(p, "code_rate"), 0.5);
  const double rate = report.metric(p, "delivery_rate");
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(ScenarioRunner, BudgetRoutesThroughInjectedReproScale) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 1000;
  spec.budget.floor = 10;
  spec.budget.repro_scaled = true;

  const ScaleGuard guard(0.05);
  const RunReport report = ScenarioRunner().run(spec);
  EXPECT_EQ(report.points.front().samples, 50u);
  EXPECT_DOUBLE_EQ(report.repro_scale, 0.05);
}

TEST(ScenarioRunner, WdmScenarioRuns) {
  ScenarioSpec spec;
  spec.name = "wdm_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kWdm;
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::microwatts(2.0);
  spec.wdm.grid.channels = 3;
  spec.budget.samples = 60;
  spec.budget.repro_scaled = false;
  spec.sweep = {SweepAxis::list("channels", {1.0, 3.0})};

  const RunReport report = ScenarioRunner().run(spec);
  ASSERT_EQ(report.points.size(), 2u);
  // Aggregate goodput grows with channel count.
  EXPECT_GT(report.metric(report.points[1], "aggregate_gbps"),
            report.metric(report.points[0], "aggregate_gbps"));
}

TEST(ScenarioRunner, VerticalBusScenarioRuns) {
  ScenarioSpec spec;
  spec.name = "bus_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kVerticalBus;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::microwatts(150.0);
  spec.device.led.wavelength = util::Wavelength::nanometres(1050.0);
  spec.bus.dies = 4;
  spec.budget.samples = 40;
  spec.budget.repro_scaled = false;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_GE(report.metric(p, "serviceable_dies"), 0.0);
  EXPECT_LE(report.metric(p, "worst_ser"), 1.0);
}

TEST(ScenarioRunner, NocEngineCouplingRuns) {
  ScenarioSpec spec;
  spec.name = "noc_engine_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kStackNoc;
  spec.device.bits_per_symbol = 8;
  spec.device.calibrate = false;
  spec.noc.dies = 4;
  spec.noc.delivery = NocDelivery::kEngine;
  spec.noc.offered_load = 0.4;
  spec.budget.samples = 400;
  spec.budget.repro_scaled = false;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_GT(report.metric(p, "transfer_p"), 0.0);
  EXPECT_LE(report.metric(p, "carried_load"), 1.0);
}

TEST(ScenarioRunner, AggressorPulsesDegradeTheLink) {
  ScenarioSpec quiet = tiny_link_spec();
  quiet.budget.samples = 1500;
  ScenarioSpec loud = quiet;
  loud.aggressors = {scenario::AggressorSpec{60.0, 0.0}};  // bright co-channel pulse

  const RunReport q = ScenarioRunner().run(quiet);
  const RunReport l = ScenarioRunner().run(loud);
  // The aggressor's triggers surface as noise captures / symbol errors.
  EXPECT_GT(l.metric(l.points.front(), "noise_capture_rate") +
                l.metric(l.points.front(), "ser"),
            q.metric(q.points.front(), "noise_capture_rate") +
                q.metric(q.points.front(), "ser"));
}

TEST(ScenarioRunner, SweepCanPushSpecInvalid) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.device.led.peak_power = util::Power::microwatts(2.0);
  spec.sweep = {SweepAxis::list("channels", {0.0})};  // 0 channels is invalid
  EXPECT_THROW((void)ScenarioRunner().run(spec), std::invalid_argument);
}

TEST(ScenarioReport, TableAndJsonEmit) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 50;
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 80.0})};
  const RunReport report = ScenarioRunner().run(spec);

  const util::Table t = report.to_table();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), report.axis_names.size() + report.metric_names.size());

  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("tiny_link"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/scenario_test_bench.json";
  report.write_bench_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"binary\": \"scenario_tiny_link\""), std::string::npos);
  EXPECT_NE(json.find("tiny_link/jitter_ps=40"), std::string::npos);
  EXPECT_NE(json.find("\"rng_draws_per_op\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // schema 2: every metric is an interval quartet and the run carries
  // environment metadata.
  EXPECT_NE(json.find("\"ser\": { \"value\": "), std::string::npos);
  EXPECT_NE(json.find("\"ci_low\""), std::string::npos);
  EXPECT_NE(json.find("\"ci_high\""), std::string::npos);
  EXPECT_NE(json.find("\"n_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"adaptive\": false"), std::string::npos);
}

TEST(ScenarioSpec, PrecisionRegistryAndValidation) {
  ScenarioSpec spec = tiny_link_spec();
  scenario::set_param(spec, "precision.half_width", "0.01");
  EXPECT_TRUE(spec.precision.enabled);  // any target arms adaptive mode
  EXPECT_DOUBLE_EQ(spec.precision.target_half_width, 0.01);
  scenario::set_param(spec, "precision.metric", "ser");
  scenario::set_param(spec, "precision.chunk", "250");
  scenario::set_param(spec, "precision.max_samples", "8000");
  EXPECT_NO_THROW(spec.validate());
  scenario::set_param(spec, "precision.enabled", "0");  // explicit off switch
  EXPECT_FALSE(spec.precision.enabled);

  // Enabled with nothing to stop on.
  ScenarioSpec bare = tiny_link_spec();
  bare.precision.enabled = true;
  EXPECT_NE(validation_message(bare).find("stopping target"), std::string::npos);

  // Target metric must exist and must not be deterministic.
  ScenarioSpec unknown = tiny_link_spec();
  unknown.precision.enabled = true;
  unknown.precision.target_half_width = 0.01;
  unknown.precision.metric = "nope";
  EXPECT_NE(validation_message(unknown).find("not a metric"), std::string::npos);
  unknown.precision.metric = "slot_ps";
  EXPECT_NE(validation_message(unknown).find("no confidence interval"),
            std::string::npos);

  // min_samples above even the auto-resolved (8x budget) cap would
  // sample forever past the documented hard cap: rejected up front.
  ScenarioSpec inverted = tiny_link_spec();  // 600 samples -> auto cap 4800
  inverted.precision.enabled = true;
  inverted.precision.target_half_width = 0.01;
  inverted.precision.min_samples = 100000;
  EXPECT_NE(validation_message(inverted).find("resolved adaptive budget cap"),
            std::string::npos);

  // Code-density traffic cannot chunk.
  ScenarioSpec density = tiny_link_spec();
  density.mode = TrafficMode::kCodeDensity;
  density.precision.enabled = true;
  density.precision.target_half_width = 0.01;
  EXPECT_NE(validation_message(density).find("code-density"), std::string::npos);

  // Inverted budget bracket.
  ScenarioSpec bounds = tiny_link_spec();
  bounds.precision.enabled = true;
  bounds.precision.target_half_width = 0.01;
  bounds.precision.min_samples = 500;
  bounds.precision.max_samples = 100;
  EXPECT_NE(validation_message(bounds).find("min_samples"), std::string::npos);
}

TEST(ScenarioAdaptive, FixedModeCarriesIntervalEstimates) {
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.budget.samples = 1000;

  const RunReport report = ScenarioRunner().run(spec);
  EXPECT_FALSE(report.adaptive);
  const RunPoint& p = report.points.front();
  ASSERT_EQ(p.estimates.size(), report.metric_names.size());
  EXPECT_EQ(p.chunks, 1u);

  const analysis::Estimate& ser = report.estimate(p, "ser");
  EXPECT_DOUBLE_EQ(ser.value, report.metric(p, "ser"));
  EXPECT_EQ(ser.n_samples, 1000u);
  // Rate metrics always carry a real interval (Wilson stays
  // informative even at p-hat = 0).
  EXPECT_GT(ser.ci_high, ser.ci_low);
  EXPECT_GE(ser.value, ser.ci_low);
  EXPECT_LE(ser.value, ser.ci_high);
  // One chunk gives mean metrics no spread information...
  const analysis::Estimate& tp = report.estimate(p, "goodput_bps");
  EXPECT_DOUBLE_EQ(tp.half_width(), 0.0);
  // ...and deterministic metrics never have any.
  EXPECT_DOUBLE_EQ(report.estimate(p, "slot_ps").half_width(), 0.0);
  EXPECT_THROW((void)report.estimate(p, "nope"), std::out_of_range);
}

TEST(ScenarioAdaptive, StoppingIsThreadCountInvariant) {
  // The acceptance-critical determinism guarantee WITH adaptive
  // stopping active: per-chunk RNG streams are a pure function of
  // (seed, name, index, chunk), so the stopping decisions -- and every
  // downstream number -- are identical for any pool width.
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 400;
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 120.0, 160.0, 200.0})};
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 0.02;
  spec.precision.chunk = 100;
  spec.precision.max_samples = 1600;
  spec.precision.enabled = true;

  const RunReport one = ScenarioRunner(1).run(spec);
  const RunReport eight = ScenarioRunner(8).run(spec);
  EXPECT_TRUE(one.adaptive);
  ASSERT_EQ(one.points.size(), eight.points.size());
  bool any_multi_chunk = false;
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    const RunPoint& a = one.points[i];
    const RunPoint& b = eight.points[i];
    EXPECT_EQ(a.metrics, b.metrics);  // bit-identical
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.rng_draws, b.rng_draws);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t m = 0; m < a.estimates.size(); ++m) {
      EXPECT_EQ(a.estimates[m].ci_low, b.estimates[m].ci_low);
      EXPECT_EQ(a.estimates[m].ci_high, b.estimates[m].ci_high);
      EXPECT_EQ(a.estimates[m].n_samples, b.estimates[m].n_samples);
    }
    any_multi_chunk = any_multi_chunk || a.chunks > 1;
  }
  // The guarantee must actually be exercised: at least one sweep point
  // ran multiple chunks before its stopping rule fired.
  EXPECT_TRUE(any_multi_chunk);
}

TEST(ScenarioAdaptive, RareEventUpperBoundStopsEarly) {
  ScenarioSpec spec = tiny_link_spec();  // jitterless: ser is ~0
  spec.budget.samples = 1000;
  spec.precision.metric = "ser";
  spec.precision.stop_below = 0.01;  // "confidently below 1%" is enough
  spec.precision.chunk = 200;
  spec.precision.max_samples = 20000;
  spec.precision.enabled = true;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  const analysis::Estimate& ser = report.estimate(p, "ser");
  // Stopped as soon as the Wilson upper bound cleared the threshold --
  // far below the max budget.
  EXPECT_LT(ser.ci_high, 0.01);
  EXPECT_LT(p.samples, 20000u);
  EXPECT_LE(p.chunks, 5u);
}

TEST(ScenarioAdaptive, MaxSamplesIsAHardCap) {
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(200.0);  // noisy
  spec.budget.samples = 400;
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 1e-6;  // unreachable: the cap must fire
  spec.precision.chunk = 60;
  spec.precision.max_samples = 200;  // NOT a chunk multiple
  spec.precision.enabled = true;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  // 60 + 60 + 60 + a clamped 20-sample tail chunk: never overshoots.
  EXPECT_EQ(p.samples, 200u);
  EXPECT_EQ(p.chunks, 4u);
  EXPECT_EQ(report.estimate(p, "ser").n_samples, 200u);
}

TEST(ScenarioAdaptive, MeetsTargetWithThreeFoldFewerSymbols) {
  // The acceptance benchmark, on the checked-in link_jitter scenario:
  // reaching the spec's +/-0.01 SER half-width target everywhere costs
  // a fixed (non-adaptive) budget z^2/(4 h^2) samples at EVERY sweep
  // point -- a fixed budget must assume worst-case variance because it
  // cannot look at the data -- while the adaptive runner spends chunks
  // only where the interval is still wide. Required: >= 3x fewer total
  // symbols at the same guaranteed precision (measured: ~6x), and
  // strictly fewer than even the spec's hand-tuned 4000/point budget.
  const ScaleGuard guard(1.0);
  ScenarioSpec spec;
  ASSERT_NO_THROW(spec = scenario::parse_spec_file(std::string(OCI_SOURCE_DIR) +
                                                   "/scenarios/link_jitter.spec"));
  spec.device.calibration_samples = 2000;  // test speed; physics unchanged
  spec.budget.repro_scaled = false;
  const double target = spec.precision.target_half_width;
  ASSERT_DOUBLE_EQ(target, 0.01);  // the checked-in spec's contract

  ScenarioSpec fixed = spec;
  fixed.precision = scenario::PrecisionSpec{};
  const auto conservative = static_cast<std::uint64_t>(
      std::ceil(1.96 * 1.96 * 0.25 / (target * target)));  // 9604
  fixed.budget.samples = conservative;

  ScenarioSpec adaptive = spec;
  adaptive.precision.chunk = 500;
  adaptive.precision.max_samples = 2 * conservative;

  const RunReport f = ScenarioRunner().run(fixed);
  const RunReport a = ScenarioRunner().run(adaptive);

  std::uint64_t fixed_total = 0;
  std::uint64_t adaptive_total = 0;
  for (const RunPoint& p : f.points) {
    fixed_total += p.samples;
    EXPECT_LE(f.estimate(p, "ser").half_width(), target + 1e-12) << "fixed point";
  }
  for (const RunPoint& p : a.points) {
    adaptive_total += p.samples;
    EXPECT_LE(a.estimate(p, "ser").half_width(), target + 1e-12)
        << "adaptive point " << p.label(a.axis_names);
  }
  RecordProperty("fixed_total_symbols", static_cast<int>(fixed_total));
  RecordProperty("adaptive_total_symbols", static_cast<int>(adaptive_total));
  std::cout << "[adaptive-precision] same +/-" << target
            << " SER half-width: fixed budget " << fixed_total
            << " symbols, adaptive " << adaptive_total << " symbols ("
            << static_cast<double>(fixed_total) / static_cast<double>(adaptive_total)
            << "x fewer)\n";
  EXPECT_LE(3 * adaptive_total, fixed_total);
  // And cheaper than the spec's own fixed 4000/point budget too.
  EXPECT_LT(adaptive_total, 5 * 4000u);
}

/// Sets (value) or unsets (nullptr) one environment variable for the
/// scope and restores its previous state afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::optional<std::string> saved_;
};

/// A writable argv (argv[0] = "bench") for read_overrides.
struct Args {
  explicit Args(std::vector<std::string> rest) : text(std::move(rest)) {
    text.insert(text.begin(), "bench");
    for (std::string& a : text) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(text.size());
  }
  [[nodiscard]] scenario::Overrides read() { return scenario::read_overrides(argc, ptrs.data()); }
  [[nodiscard]] std::vector<std::string> left() const {
    return std::vector<std::string>(ptrs.begin() + 1, ptrs.begin() + argc);
  }
  std::vector<std::string> text;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(ScenarioPrecision, EnvOverridesArmAdaptiveMode) {
  scenario::Overrides o;
  {
    const ScopedEnv precision("OCI_PRECISION", "0.05");
    const ScopedEnv cap("OCI_MAX_SAMPLES", "700");
    o = Args({}).read();
  }
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 200;
  o.apply(spec);
  const RunReport report = ScenarioRunner().run(spec);

  EXPECT_TRUE(report.adaptive);
  const RunPoint& p = report.points.front();
  EXPECT_LE(p.samples, 700u);
  const analysis::Estimate& ser = report.estimate(p, "ser");
  EXPECT_TRUE(ser.half_width() <= 0.05 || p.samples == 700u);

  // The precision override FORCES an absolute target: a spec's own
  // looser relative / rare-event rules are cleared, not OR'd in.
  scenario::Overrides tight;
  tight.precision = 0.004;
  ScenarioSpec loose = tiny_link_spec();
  loose.precision.enabled = true;
  loose.precision.target_half_width = 0.1;
  loose.precision.target_relative = 0.5;
  loose.precision.stop_below = 0.9;
  tight.apply(loose);
  EXPECT_DOUBLE_EQ(loose.precision.target_half_width, 0.004);
  EXPECT_DOUBLE_EQ(loose.precision.target_relative, 0.0);
  EXPECT_DOUBLE_EQ(loose.precision.stop_below, 0.0);

  // Code-density traffic cannot chunk: the override skips it rather
  // than turning a valid spec invalid.
  ScenarioSpec density = tiny_link_spec();
  density.mode = TrafficMode::kCodeDensity;
  tight.apply(density);
  EXPECT_FALSE(density.precision.enabled);
  EXPECT_NO_THROW(density.validate());

  // Garbled variables read as unset.
  const ScopedEnv garbled("OCI_PRECISION", "tight");
  const ScopedEnv zero("OCI_MAX_SAMPLES", "0");
  const scenario::Overrides none = Args({}).read();
  EXPECT_FALSE(none.precision.has_value());
  EXPECT_FALSE(none.max_samples.has_value());
}

TEST(ScenarioPrecision, CliArgsConsumedAndWin) {
  const ScopedEnv env_precision("OCI_PRECISION", "0.5");
  const ScopedEnv env_cap("OCI_MAX_SAMPLES", nullptr);
  Args args({"--precision=0.02", "--max-samples", "999", "spec.file"});
  const scenario::Overrides o = args.read();
  EXPECT_EQ(args.left(), std::vector<std::string>{"spec.file"});
  EXPECT_EQ(args.ptrs[static_cast<std::size_t>(args.argc)], nullptr);
  ASSERT_TRUE(o.precision.has_value());
  EXPECT_DOUBLE_EQ(*o.precision, 0.02);  // the flag beats OCI_PRECISION
  ASSERT_TRUE(o.max_samples.has_value());
  EXPECT_EQ(*o.max_samples, 999u);
  EXPECT_STREQ(std::getenv("OCI_PRECISION"), "0.5");  // read, never written
  EXPECT_EQ(std::getenv("OCI_MAX_SAMPLES"), nullptr);

  // An explicit but garbled override throws, naming the flag, instead of
  // silently running the wrong experiment.
  for (const char* bad : {"--precision=fast", "--precision=0", "--max-samples=-3",
                          "--max-samples=0", "--cache=", "--precision"}) {
    Args garbled({bad});
    try {
      (void)garbled.read();
      ADD_FAILURE() << "expected " << bad << " to throw";
    } catch (const std::invalid_argument& e) {
      const std::string flag = std::string(bad).substr(0, std::string(bad).find('='));
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
    }
  }
}

TEST(ScenarioSeed, EnvOverrideBeatsSpecSeed) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 20;
  {
    const ScopedEnv env("OCI_SEED", "777");
    ScenarioSpec seeded = spec;
    Args({}).read().apply(seeded);
    EXPECT_EQ(ScenarioRunner().run(seeded).seed, 777u);
  }
  // Garbled values fall back to the spec seed.
  const ScopedEnv env("OCI_SEED", "not-a-seed");
  ScenarioSpec fallback = spec;
  Args({}).read().apply(fallback);
  EXPECT_EQ(ScenarioRunner().run(fallback).seed, kSeed);
}

TEST(ScenarioSeed, CliArgConsumedAndWins) {
  // The flag beats a CONFLICTING OCI_SEED and leaves the variable as it
  // was; unknown flags stay in argv for benchmark::Initialize.
  {
    const ScopedEnv env("OCI_SEED", "555");
    Args args({"--seed=4242", "--benchmark_filter=none"});
    const scenario::Overrides o = args.read();
    EXPECT_EQ(o.seed, std::optional<std::uint64_t>(4242u));
    EXPECT_EQ(args.left(), std::vector<std::string>{"--benchmark_filter=none"});
    ScenarioSpec spec = tiny_link_spec();
    spec.budget.samples = 20;
    o.apply(spec);
    EXPECT_EQ(ScenarioRunner().run(spec).seed, 4242u);
    EXPECT_STREQ(std::getenv("OCI_SEED"), "555");
  }

  const ScopedEnv env("OCI_SEED", nullptr);
  // Split form: --seed N.
  Args split({"--seed", "99"});
  EXPECT_EQ(split.read().seed, std::optional<std::uint64_t>(99u));
  EXPECT_EQ(split.argc, 1);

  // A garbled explicit seed throws, naming the flag, instead of running
  // the spec seed.
  try {
    (void)Args({"--seed=12x"}).read();
    FAIL() << "expected --seed=12x to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos) << e.what();
  }

  // No flag, no variable: nothing to apply, the spec keeps its seed.
  const scenario::Overrides none = Args({}).read();
  EXPECT_FALSE(none.seed.has_value());
  ScenarioSpec spec = tiny_link_spec();
  none.apply(spec);
  EXPECT_EQ(spec.seed, kSeed);
}

TEST(ScenarioRunner, RunsTheSpecItIsGiven) {
  // The runner reads no override from the environment: the report
  // carries the spec's own seed and (fixed-budget) mode.
  const ScopedEnv seed("OCI_SEED", "777");
  const ScopedEnv precision("OCI_PRECISION", "0.05");
  const ScopedEnv cap("OCI_MAX_SAMPLES", "50");
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 100;
  const RunReport report = ScenarioRunner().run(spec);
  EXPECT_EQ(report.seed, kSeed);
  EXPECT_FALSE(report.adaptive);
  EXPECT_EQ(report.points.front().samples, 100u);
  EXPECT_EQ(report.spec_hash, scenario::spec_hash(spec));
}

}  // namespace

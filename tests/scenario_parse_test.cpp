// Tests for the scenario text-spec parser: the key=value format,
// sweep axis expressions (lists, linear/log ranges, categorical
// detection), error reporting with line numbers, and a parsed-spec ->
// run round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "oci/scenario/parse.hpp"
#include "oci/scenario/runner.hpp"

namespace {

using namespace oci;
using scenario::parse_spec_file;
using scenario::parse_spec_text;
using scenario::ScenarioSpec;

TEST(ScenarioParse, FullSpecRoundTrip) {
  const std::string text = R"(
# a link experiment
name        = parse_demo
description = jitter scan          # trailing comment
topology    = point-to-point
seed        = 1234
bits_per_symbol = 6
calibrate   = 0
jitter_ps   = 55
samples     = 300
repro_scaled = 0
sweep.jitter_ps = 40, 80, 120
)";
  const ScenarioSpec spec = parse_spec_text(text);
  EXPECT_EQ(spec.name, "parse_demo");
  EXPECT_EQ(spec.description, "jitter scan");
  EXPECT_EQ(spec.topology, scenario::Topology::kPointToPoint);
  EXPECT_EQ(spec.seed, 1234u);
  EXPECT_EQ(spec.device.bits_per_symbol, 6u);
  EXPECT_FALSE(spec.device.calibrate);
  EXPECT_DOUBLE_EQ(spec.device.spad.jitter_sigma.picoseconds(), 55.0);
  EXPECT_EQ(spec.budget.samples, 300u);
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].param, "jitter_ps");
  EXPECT_EQ(spec.sweep[0].values, (std::vector<double>{40.0, 80.0, 120.0}));
  EXPECT_NO_THROW(spec.validate());

  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);
  EXPECT_EQ(report.points.size(), 3u);
  EXPECT_EQ(report.seed, 1234u);
}

TEST(ScenarioParse, RangeExpressions) {
  const ScenarioSpec spec = parse_spec_text(
      "sweep.offered_load = linear(0.2, 1.0, 5)\n"
      "sweep.samples = log(10, 1000, 3)\n");
  ASSERT_EQ(spec.sweep.size(), 2u);
  ASSERT_EQ(spec.sweep[0].size(), 5u);
  EXPECT_DOUBLE_EQ(spec.sweep[0].values.front(), 0.2);
  EXPECT_DOUBLE_EQ(spec.sweep[0].values.back(), 1.0);
  ASSERT_EQ(spec.sweep[1].size(), 3u);
  EXPECT_NEAR(spec.sweep[1].values[1], 100.0, 1e-9);
}

TEST(ScenarioParse, CategoricalAxisDetection) {
  const ScenarioSpec spec = parse_spec_text(
      "topology = stack-noc\n"
      "sweep.mac = tdma, token, aloha\n");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_TRUE(spec.sweep[0].categorical());
  EXPECT_EQ(spec.sweep[0].labels,
            (std::vector<std::string>{"tdma", "token", "aloha"}));
}

TEST(ScenarioParse, CategoricalParamWithNumericLookingValues) {
  // tech_node names can be digit-led ("65nm"); the axis must stay
  // categorical because the registry says the key is categorical.
  const ScenarioSpec spec = parse_spec_text("sweep.tech_node = 65nm, 45nm\n");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_TRUE(spec.sweep[0].categorical());
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  try {
    (void)parse_spec_text("name = ok\nthis line has no equals\n", "demo.spec");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.spec:2"), std::string::npos);
  }

  // Unknown scalar keys are hard errors with a file:line prefix -- a
  // typo must never silently run the wrong experiment (run_scenario
  // turns this into a non-zero exit).
  try {
    (void)parse_spec_text("name = ok\njiter_ps = 40\n", "demo.spec");
    FAIL() << "expected parse error for unknown key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'jiter_ps'"), std::string::npos) << msg;
  }

  EXPECT_THROW((void)parse_spec_text("sweep.nope = 1, 2\n"), std::runtime_error);
  EXPECT_THROW((void)parse_spec_text("jitter_ps = \n"), std::runtime_error);
  EXPECT_THROW((void)parse_spec_text("sweep.jitter_ps = linear(1, 2)\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_spec_text("sweep.samples = log(0, 10, 3)\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_spec_text("topology = mesh\n"), std::runtime_error);
  EXPECT_THROW((void)parse_spec_file("/nonexistent/x.spec"), std::runtime_error);
}

TEST(ScenarioParse, RejectsCountsPastTheUint64Range) {
  // A value its field cannot hold must fail with the key named, never
  // wrap (0 means "auto" for several keys) or silently read as another
  // value. Returns the error message.
  const auto rejected = [](const std::string& key, const std::string& value) {
    const std::string text = key + " = " + value + "\n";
    try {
      (void)parse_spec_text(text, "big.spec");
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected a range error for: " << text;
    return std::string();
  };
  for (const auto& [key, value] :
       {std::pair{"samples", "1e30"}, std::pair{"samples", "18446744073709551616"},
        std::pair{"fault.salt", "1e20"}, std::pair{"precision.max_samples", "1e20"},
        std::pair{"precision.max_samples", "inf"}, std::pair{"seed", "-1"},
        std::pair{"dies", "2.5"}, std::pair{"calibrate", "0.5"}}) {
    (void)rejected(key, value);
  }
  // Every key of the table, by the type of its field: a count rejects
  // one past its width and loads the width's maximum exactly, a flag
  // rejects 2, and a label key rejects `bogus` listing every label.
  std::size_t counts = 0;
  std::size_t flags = 0;
  std::size_t closed = 0;
  for (const std::string& key : scenario::known_params()) {
    const scenario::ParamInfo& info = scenario::param_info(key);
    switch (info.kind) {
      case scenario::ParamKind::kCount: {
        ++counts;
        (void)rejected(key, info.max == UINT64_MAX ? "18446744073709551616"
                                                   : std::to_string(info.max + 1));
        EXPECT_NO_THROW((void)parse_spec_text(key + " = " + std::to_string(info.max) + "\n"))
            << key;
        break;
      }
      case scenario::ParamKind::kFlag:
        ++flags;
        (void)rejected(key, "2");
        break;
      case scenario::ParamKind::kLabel: {
        ++closed;
        const std::string msg = rejected(key, "bogus");
        for (const std::string_view label : info.labels) {
          EXPECT_NE(msg.find(std::string(label)), std::string::npos) << key << ": " << msg;
        }
        break;
      }
      case scenario::ParamKind::kReal:
      case scenario::ParamKind::kText:
        break;
    }
  }
  EXPECT_GE(counts, 29u);
  EXPECT_GE(flags, 7u);
  EXPECT_GE(closed, 9u);
  // The largest uint64 loads exactly, as a digit token; a whole double
  // token (the largest below 2^64 here) loads exactly too.
  EXPECT_EQ(parse_spec_text("fault.salt = 18446744073709551615\n").fault.salt,
            18446744073709551615ull);
  EXPECT_EQ(parse_spec_text("fault.salt = 1.8446744073709549568e19\n").fault.salt,
            18446744073709549568ull);

  // A sweep value is held to the same rule by validate() -- before a run
  // starts or `run_scenario hash` prints a key -- with the key named.
  for (const auto& [text, key] :
       {std::pair{"sweep.coarse_bits = 5, 4294967297\n", "'coarse_bits'"},
        std::pair{"topology = stack-noc\nsweep.mac = tdma, bogus\n", "'mac'"}}) {
    const ScenarioSpec spec = parse_spec_text(text, "sweep.spec");
    try {
      spec.validate();
      ADD_FAILURE() << "expected a validation error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // Each value is checked alone: values that are only invalid together
  // (dead + hot pixels > 1 at one corner) are left to that point.
  EXPECT_NO_THROW(parse_spec_text("sweep.fault.dead_pixel_fraction = 0, 0.6\n"
                                  "sweep.fault.hot_pixel_fraction = 0.6, 0\n")
                      .validate());
}

TEST(ScenarioParse, PrecisionKeysParse) {
  const ScenarioSpec spec = parse_spec_text(
      "name = adaptive\n"
      "precision.metric = ser\n"
      "precision.half_width = 0.01\n"
      "precision.relative = 0.1\n"
      "precision.chunk = 500\n"
      "precision.min_samples = 500\n"
      "precision.max_samples = 32000\n"
      "precision.confidence_z = 2.576\n");
  EXPECT_TRUE(spec.precision.enabled);
  EXPECT_EQ(spec.precision.metric, "ser");
  EXPECT_DOUBLE_EQ(spec.precision.target_half_width, 0.01);
  EXPECT_DOUBLE_EQ(spec.precision.target_relative, 0.1);
  EXPECT_EQ(spec.precision.chunk, 500u);
  EXPECT_EQ(spec.precision.min_samples, 500u);
  EXPECT_EQ(spec.precision.max_samples, 32000u);
  EXPECT_DOUBLE_EQ(spec.precision.confidence_z, 2.576);

  const ScenarioSpec off =
      parse_spec_text("precision.half_width = 0.01\nprecision.enabled = 0\n");
  EXPECT_FALSE(off.precision.enabled);
}

TEST(ScenarioParse, FaultKeysParse) {
  const ScenarioSpec spec = parse_spec_text(
      "name = degraded\n"
      "calibrate = 0\n"
      "fault.dead_pixel_fraction = 0.25\n"
      "fault.hot_pixel_fraction = 0.1\n"
      "fault.hot_pixel_dcr_hz = 2e6\n"
      "fault.array_pixels = 128\n"
      "fault.mask_hot_pixels = 0\n"
      "fault.tdc_drift_c = 12.5\n"
      "fault.recalibrate = 0\n"
      "fault.salt = 7\n"
      "sweep.fault.dead_pixel_fraction = linear(0, 0.5, 6)\n");
  EXPECT_DOUBLE_EQ(spec.fault.dead_pixel_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.fault.hot_pixel_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.fault.hot_pixel_dcr_hz, 2e6);
  EXPECT_EQ(spec.fault.array_pixels, 128u);
  EXPECT_FALSE(spec.fault.mask_hot_pixels);
  EXPECT_DOUBLE_EQ(spec.fault.tdc_drift_c, 12.5);
  EXPECT_FALSE(spec.fault.recalibrate);
  EXPECT_EQ(spec.fault.salt, 7u);
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].param, "fault.dead_pixel_fraction");
  ASSERT_EQ(spec.sweep[0].size(), 6u);
  EXPECT_NO_THROW(spec.validate());

  // A typo'd fault key is a hard error with a file:line prefix, same as
  // every other unknown key.
  try {
    (void)parse_spec_text("name = ok\nfault.bogus = 1\n", "demo.spec");
    FAIL() << "expected parse error for unknown fault key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'fault.bogus'"), std::string::npos) << msg;
  }
  // Malformed values and out-of-range parameters also fail loudly.
  EXPECT_THROW((void)parse_spec_text("fault.tdc_drift_c = warm\n"), std::runtime_error);
  const ScenarioSpec bad = parse_spec_text("fault.dead_pixel_fraction = 1.5\n");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(ScenarioParse, VarianceKeysParse) {
  const ScenarioSpec spec = parse_spec_text(
      "name = rare\n"
      "calibrate = 0\n"
      "variance.kind = tilt\n"
      "variance.jitter_tilt = 2.5\n"
      "variance.noise_tilt = 3\n"
      "sweep.jitter_ps = 60, 120\n"
      "sweep.variance.kind = none, tilt\n");
  EXPECT_EQ(spec.variance.kind, rare::Kind::kTilt);
  EXPECT_DOUBLE_EQ(spec.variance.jitter_tilt, 2.5);
  EXPECT_DOUBLE_EQ(spec.variance.noise_tilt, 3.0);
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[1].param, "variance.kind");
  EXPECT_NO_THROW(spec.validate());

  const ScenarioSpec split = parse_spec_text(
      "variance.kind = split\n"
      "variance.levels = 3:2:1:0.5\n"
      "variance.split_levels = 4\n");
  EXPECT_EQ(split.variance.kind, rare::Kind::kSplit);
  EXPECT_EQ(split.variance.levels, "3:2:1:0.5");
  EXPECT_EQ(split.variance.split_levels, 4u);
  EXPECT_NO_THROW(split.validate());

  // Unknown variance keys die with file:line, like every other family.
  try {
    (void)parse_spec_text("name = ok\nvariance.bogus = 1\n", "demo.spec");
    FAIL() << "expected parse error for unknown variance key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'variance.bogus'"), std::string::npos)
        << msg;
  }
  // A typo'd level schedule fails at set time, carrying the file:line.
  try {
    (void)parse_spec_text("variance.levels = 3;2;1\n", "demo.spec");
    FAIL() << "expected parse error for malformed level schedule";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.spec:1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_spec_text("variance.kind = quantum\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_spec_text("variance.levels = 1:2:3\n"),
               std::runtime_error);  // must strictly decrease
}

TEST(ScenarioParse, VarianceValidationRejectsBadCombinations) {
  const auto invalid = [](const std::string& text) {
    const ScenarioSpec spec = parse_spec_text(text);
    EXPECT_THROW(spec.validate(), std::invalid_argument) << text;
  };
  // Tilt factors must be positive; a tilt that is crude MC in disguise
  // and a tilt carrying a splitting schedule are both config bugs.
  invalid("variance.kind = tilt\nvariance.jitter_tilt = 0\n");
  invalid("variance.kind = tilt\nvariance.jitter_tilt = -2\n");
  invalid("variance.kind = tilt\n");  // both factors at 1
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "variance.levels = 3:2:1\n");
  // Split rejects tilt factors and needs a schedule from somewhere.
  invalid("variance.kind = split\nvariance.jitter_tilt = 2\n");
  invalid("variance.kind = split\nvariance.split_levels = 0\n");
  // The engines drive the scalar point-to-point symbol path only.
  invalid(
      "topology = stack-noc\nvariance.kind = tilt\n"
      "variance.jitter_tilt = 2\n");
  invalid(
      "mode = code-density\nvariance.kind = tilt\n"
      "variance.jitter_tilt = 2\n");
  {
    ScenarioSpec spec =
        parse_spec_text("variance.kind = tilt\nvariance.jitter_tilt = 2\n");
    spec.aggressors.push_back({1.5, 40.0});
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "fault.dark_window_probability = 0.1\n");
  // Weighted acceleration targets rate metrics; deterministic means
  // make no sense as adaptive precision targets under weighting.
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "precision.metric = throughput_bps\nprecision.half_width = 1\n");
  // And the well-formed neighbours of each rejection stay valid.
  const ScenarioSpec ok = parse_spec_text(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "precision.metric = ser\nprecision.half_width = 0.001\n");
  EXPECT_NO_THROW(ok.validate());
}

TEST(ScenarioParse, CheckedInSpecFilesParseAndValidate) {
  // The CI job runs these through tools/run_scenario; parsing must not
  // rot. The test binary runs from build/tests, so walk up to the repo
  // root where ctest executes (WORKING_DIRECTORY is the binary dir) --
  // use the source-relative path baked in by CMake instead.
#ifdef OCI_SOURCE_DIR
  const std::string root = OCI_SOURCE_DIR;
  for (const std::string name :
       {"link_jitter", "noc_saturation", "degraded_link", "noc_node_failure",
        "deep_ser"}) {
    const ScenarioSpec spec = parse_spec_file(root + "/scenarios/" + name + ".spec");
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate());
    EXPECT_GE(spec.sweep.size(), 1u);
  }
#else
  GTEST_SKIP() << "OCI_SOURCE_DIR not defined";
#endif
}

}  // namespace

// Tests for the scenario service layer: canonical spec hashing, the
// content-addressed result store (round trip, corruption-as-miss,
// age-based GC), cache-hit bit-identity and checkpoint/resume, sharded
// sweeps whose union merges back to the unsharded report exactly,
// pooled multi-seed merging, schema-v2 report document round trips,
// and the shard/cache CLI helpers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/merge.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/scenario/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace oci;
using scenario::ChunkKey;
using scenario::ChunkRecord;
using scenario::FsResultStore;
using scenario::MergeOptions;
using scenario::RunOptions;
using scenario::RunPoint;
using scenario::RunReport;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::ShardSpec;
using scenario::SweepAxis;
using scenario::Topology;

constexpr std::uint64_t kSeed = 20260726;

/// Pins the process repro scale so budget resolution is deterministic
/// regardless of the CI environment.
struct ScaleGuard {
  explicit ScaleGuard(double s) { analysis::set_repro_scale_for_test(s); }
  ~ScaleGuard() { analysis::set_repro_scale_for_test(std::nullopt); }
};

/// Fresh per-test scratch directory under gtest's temp root.
fs::path scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("oci_service_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Small fixed-budget sweep: 4 points, no calibration, fast.
ScenarioSpec sweep_spec() {
  ScenarioSpec spec;
  spec.name = "svc_link";
  spec.seed = kSeed;
  spec.topology = Topology::kPointToPoint;
  spec.device.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.budget.samples = 600;
  spec.budget.repro_scaled = false;
  spec.sweep.push_back(SweepAxis::list("jitter_ps", {40.0, 90.0, 140.0, 190.0}));
  return spec;
}

/// Same sweep under an adaptive stopping rule: multiple chunks per
/// point, so the cache actually sees per-chunk traffic.
ScenarioSpec adaptive_spec() {
  ScenarioSpec spec = sweep_spec();
  spec.precision.enabled = true;
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 0.02;
  spec.precision.chunk = 200;
  spec.precision.max_samples = 1200;
  return spec;
}

/// Importance-sampled variant of the adaptive sweep: every chunk now
/// carries likelihood-ratio weight state through the store, the shard
/// planner and the merge path.
ScenarioSpec tilted_spec() {
  ScenarioSpec spec = adaptive_spec();
  spec.variance.kind = rare::Kind::kTilt;
  spec.variance.jitter_tilt = 1.8;
  return spec;
}

/// Bitwise equality of everything deterministic in two reports (wall
/// clock and cache counters excluded by design).
void expect_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.spec_hash, b.spec_hash);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.adaptive, b.adaptive);
  EXPECT_EQ(a.points_total, b.points_total);
  EXPECT_EQ(a.axis_names, b.axis_names);
  EXPECT_EQ(a.metric_names, b.metric_names);
  EXPECT_EQ(a.metric_kinds, b.metric_kinds);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const RunPoint& pa = a.points[i];
    const RunPoint& pb = b.points[i];
    EXPECT_EQ(pa.point_index, pb.point_index);
    EXPECT_EQ(pa.coordinate, pb.coordinate);
    EXPECT_EQ(pa.samples, pb.samples) << "point " << i;
    EXPECT_EQ(pa.chunks, pb.chunks) << "point " << i;
    EXPECT_EQ(pa.rng_draws, pb.rng_draws) << "point " << i;
    EXPECT_EQ(pa.metrics, pb.metrics) << "point " << i;
    ASSERT_EQ(pa.estimates.size(), pb.estimates.size());
    for (std::size_t m = 0; m < pa.estimates.size(); ++m) {
      EXPECT_EQ(pa.estimates[m].value, pb.estimates[m].value) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].ci_low, pb.estimates[m].ci_low) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].ci_high, pb.estimates[m].ci_high) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].n_samples, pb.estimates[m].n_samples) << i << "/" << m;
    }
    // Likelihood-ratio weight state (all zero for crude runs).
    EXPECT_EQ(pa.weights.sum(), pb.weights.sum()) << "point " << i;
    EXPECT_EQ(pa.weights.sum_sq(), pb.weights.sum_sq()) << "point " << i;
    EXPECT_EQ(pa.weights.count(), pb.weights.count()) << "point " << i;
    EXPECT_EQ(pa.err_weight_sq, pb.err_weight_sq) << "point " << i;
  }
}

// -- Canonical hashing --------------------------------------------------

TEST(SpecHash, StableAcrossTextualFormatting) {
  const ScenarioSpec a = scenario::parse_spec_text(
      "name = h\n"
      "topology = point-to-point\n"
      "bits_per_symbol = 6\n"
      "samples = 600\n"
      "sweep.jitter_ps = 40, 80\n");
  // Same experiment: keys reordered, comments, stray whitespace.
  const ScenarioSpec b = scenario::parse_spec_text(
      "# a comment\n"
      "sweep.jitter_ps =   40,80\n"
      "samples=600\n\n"
      "bits_per_symbol = 6   # trailing comment\n"
      "topology = point-to-point\n"
      "name = h\n");
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(SpecHash, IgnoresSeedAndDescription) {
  ScenarioSpec a = sweep_spec();
  ScenarioSpec b = sweep_spec();
  b.seed = kSeed + 1;  // part of the store KEY, not the hash
  b.description = "same experiment, different words";
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(SpecHash, ChangesOnEverySemanticField) {
  const std::string base = scenario::spec_hash(sweep_spec());
  std::set<std::string> hashes{base};
  const auto mutated = [&](auto&& mutate) {
    ScenarioSpec s = sweep_spec();
    mutate(s);
    return scenario::spec_hash(s);
  };
  hashes.insert(mutated([](ScenarioSpec& s) { s.name = "other"; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.device.bits_per_symbol = 4; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.device.calibrate = true; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.budget.samples = 601; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.budget.repro_scaled = true; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.sweep[0].values.push_back(240.0); }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.sweep[0].param = "dcr_hz"; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.precision.enabled = true; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.fec = scenario::FecKind::kHamming; }));
  hashes.insert(mutated([](ScenarioSpec& s) {
    s.device.channel_transmittance = 0.25;
  }));
  // Fault injection changes the simulated hardware, so every fault.*
  // knob -- including the realisation salt -- must re-key the cache.
  hashes.insert(mutated([](ScenarioSpec& s) { s.fault.dead_pixel_fraction = 0.25; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.fault.dark_window_probability = 0.1; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.fault.tdc_drift_c = 15.0; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.fault.salt = 1; }));
  // Rare-event acceleration changes what every chunk simulates, so
  // every variance.* knob must re-key the cache too.
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.kind = rare::Kind::kTilt; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.kind = rare::Kind::kSplit; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.jitter_tilt = 1.8; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.noise_tilt = 4.0; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.levels = "3:2:1"; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.variance.split_levels = 6; }));
  // Every mutation produced a distinct hash (base + 20 variants).
  EXPECT_EQ(hashes.size(), 21u);
  for (const std::string& h : hashes) EXPECT_EQ(h.size(), 64u);
}

TEST(SpecHash, EveryRegistryKeyIsHashed) {
  // A settable field that the canonical text leaves out lets two
  // different experiments share a cache key. So for every registry key
  // (except seed, part of the store key, and description, prose) some
  // non-default value must change the hash. Numeric keys try 0, 1 and
  // 3 (at most one is the default), flags 0 and 1, label keys every
  // label; free-text keys take the sample values below.
  const std::map<std::string, std::vector<std::string>> text = {
      {"name", {"other"}},
      {"variance.levels", {"3:2:1"}},
      {"precision.metric", {"ser", "ber"}}};
  const ScenarioSpec base;
  const std::string base_hash = scenario::spec_hash(base);
  std::size_t checked = 0;
  for (const std::string& key : scenario::known_params()) {
    if (key == "seed" || key == "description") continue;
    const scenario::ParamInfo& info = scenario::param_info(key);
    std::vector<std::string> values{"0", "1", "3"};
    if (info.kind == scenario::ParamKind::kFlag) values = {"0", "1"};
    if (info.kind == scenario::ParamKind::kLabel) {
      values.assign(info.labels.begin(), info.labels.end());
    }
    if (info.kind == scenario::ParamKind::kText) {
      const auto it = text.find(key);
      ASSERT_NE(it, text.end()) << "no sample values for free-text key '" << key << "'";
      values = it->second;
    }
    bool changed = false;
    for (const std::string& v : values) {
      ScenarioSpec s = base;
      scenario::set_param(s, key, v);
      changed = changed || scenario::spec_hash(s) != base_hash;
    }
    EXPECT_TRUE(changed) << "no value of '" << key << "' changes spec_hash";
    ++checked;
  }
  EXPECT_GE(checked, 80u);
}

TEST(SpecHash, DependsOnAmbientReproScale) {
  // The resolved sample counts depend on the process repro scale, so
  // cached chunks from different scales must never collide.
  ScenarioSpec spec = sweep_spec();
  spec.budget.repro_scaled = true;
  std::string full, smoke;
  {
    ScaleGuard guard(1.0);
    full = scenario::spec_hash(spec);
  }
  {
    ScaleGuard guard(0.05);
    smoke = scenario::spec_hash(spec);
  }
  EXPECT_NE(full, smoke);
}

// -- Result store -------------------------------------------------------

TEST(ResultStore, RoundTripsChunkRecords) {
  const fs::path dir = scratch_dir("store_rt");
  const FsResultStore store(dir.string());
  const ChunkKey key{"a1b2", kSeed, 3, 7};
  const ChunkRecord rec{600, 41234, {0.125, 3.0e-9, 1.0 / 3.0}};
  EXPECT_FALSE(store.load(key).has_value());
  store.save(key, rec);
  const auto back = store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->samples, rec.samples);
  EXPECT_EQ(back->rng_draws, rec.rng_draws);
  EXPECT_EQ(back->metrics, rec.metrics);  // %.17g: bitwise round trip
  // Distinct keys are distinct entries.
  EXPECT_FALSE(store.load(ChunkKey{"a1b2", kSeed, 3, 8}).has_value());
  EXPECT_FALSE(store.load(ChunkKey{"a1b2", kSeed + 1, 3, 7}).has_value());
}

TEST(ResultStore, CorruptEntriesReadAsMiss) {
  const fs::path dir = scratch_dir("store_corrupt");
  const FsResultStore store(dir.string());
  const ChunkKey key{"feed", kSeed, 0, 0};
  store.save(key, ChunkRecord{100, 5, {1.0, 2.0}});
  ASSERT_TRUE(store.load(key).has_value());
  {  // truncate: fewer metric lines than the header promises
    std::ofstream out(store.path_of(key));
    out << "oci-chunk-v1 samples=100 rng_draws=5 metrics=2\n1.0\n";
  }
  EXPECT_FALSE(store.load(key).has_value());
  {  // garbage
    std::ofstream out(store.path_of(key));
    out << "not a chunk at all\n";
  }
  EXPECT_FALSE(store.load(key).has_value());
}

TEST(ResultStore, GcRemovesOnlyOldEntries) {
  const fs::path dir = scratch_dir("store_gc");
  const FsResultStore store(dir.string());
  const ChunkKey young{"young", kSeed, 0, 0};
  const ChunkKey old{"old", kSeed, 0, 0};
  store.save(young, ChunkRecord{1, 1, {0.5}});
  store.save(old, ChunkRecord{1, 1, {0.5}});
  // Age the second entry three days.
  const auto stamp = fs::last_write_time(store.path_of(old)) -
                     std::chrono::duration_cast<fs::file_time_type::duration>(
                         std::chrono::hours(72));
  fs::last_write_time(store.path_of(old), stamp);

  const auto dry = scenario::cache_gc(dir.string(), 1.0, /*dry_run=*/true);
  EXPECT_EQ(dry.scanned, 2u);
  EXPECT_EQ(dry.removed, 1u);
  EXPECT_TRUE(store.load(old).has_value());  // dry run touches nothing

  const auto gc = scenario::cache_gc(dir.string(), 1.0);
  EXPECT_EQ(gc.removed, 1u);
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_GT(gc.bytes_freed, 0u);
  EXPECT_FALSE(store.load(old).has_value());
  EXPECT_TRUE(store.load(young).has_value());
  EXPECT_FALSE(fs::exists(dir / "old"));  // emptied dirs pruned
}

// -- Cache semantics ----------------------------------------------------

TEST(ScenarioService, EngineRevisionBumpInvalidatesTheWholeCache) {
  // Entries live under r<kEngineRevision>: a revision bump (new engine
  // code, same spec hash) must be a FULL miss, never a stale hit.
  const fs::path dir = scratch_dir("store_rev");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_GT(cold.cache_misses, 0u);
  const fs::path live = dir / ("r" + std::to_string(scenario::kEngineRevision));
  ASSERT_TRUE(fs::exists(live));

  // Simulate a store written by the PREVIOUS engine revision by moving
  // the whole tree under r<rev-1>. The warm run serves nothing from it
  // and re-simulates every chunk, bit-identically.
  const fs::path stale =
      dir / ("r" + std::to_string(scenario::kEngineRevision - 1));
  fs::rename(live, stale);
  const RunReport warm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  expect_identical(cold, warm);

  // cache_gc prunes the dead revision wholesale -- even entries far
  // younger than max_age -- and keeps the freshly rewritten live tree.
  const auto gc = scenario::cache_gc(dir.string(), /*max_age_days=*/365.0);
  EXPECT_GT(gc.removed, 0u);
  EXPECT_FALSE(fs::exists(stale));
  ASSERT_TRUE(fs::exists(live));
  const RunReport rewarm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(rewarm.cache_misses, 0u);
  EXPECT_EQ(rewarm.cache_hits, cold.cache_misses);
}

TEST(ScenarioService, SaveFailuresAreCountedAndHarmless) {
  const fs::path dir = scratch_dir("store_blocked");
  const FsResultStore store(dir.string());
  // Block the store with a regular FILE where the revision directory
  // must go: every save's create_directories fails, loads simply miss.
  std::ofstream(dir / ("r" + std::to_string(scenario::kEngineRevision))) << "x";
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport blocked = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(blocked.cache_hits, 0u);
  EXPECT_GT(blocked.cache_misses, 0u);
  // Every simulated chunk failed to persist, and each failure was
  // counted -- not swallowed.
  EXPECT_EQ(blocked.cache_save_failures, blocked.cache_misses);

  // The broken cache is invisible to the physics: an uncached run
  // produces the identical report.
  const RunReport uncached = ScenarioRunner(2).run(spec);
  EXPECT_EQ(uncached.cache_save_failures, 0u);
  expect_identical(blocked, uncached);

  // The counter survives the schema-v2 report document round trip.
  const fs::path path = scratch_dir("store_blocked_io") / "report.json";
  scenario::report_io::save(blocked, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  EXPECT_EQ(back.cache_save_failures, blocked.cache_save_failures);
}

TEST(ScenarioService, WarmCacheIsBitIdenticalAcrossThreadCounts) {
  const fs::path dir = scratch_dir("cache_warm");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();

  const RunReport cold = ScenarioRunner(1).run(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);

  // Warm re-runs -- single-threaded and wide -- serve every chunk from
  // the store and reproduce the cold report exactly.
  for (const std::size_t threads : {1u, 8u}) {
    const RunReport warm = ScenarioRunner(threads).run(spec, options);
    EXPECT_EQ(warm.cache_misses, 0u) << threads << " threads";
    EXPECT_EQ(warm.cache_hits, cold.cache_misses) << threads << " threads";
    expect_identical(cold, warm);
  }
  // And the cache is transparent: an uncached run agrees too.
  const RunReport uncached = ScenarioRunner(2).run(spec);
  EXPECT_EQ(uncached.cache_hits + uncached.cache_misses, 0u);
  expect_identical(cold, uncached);
}

TEST(ScenarioService, ResumesAfterLostChunks) {
  // A killed sweep = a store holding a chunk subset. Deleting files and
  // re-running must recompute exactly the holes, bit-identically.
  const fs::path dir = scratch_dir("cache_resume");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport cold = ScenarioRunner(2).run(spec, options);

  std::vector<fs::path> chunks;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) chunks.push_back(entry.path());
  }
  ASSERT_EQ(chunks.size(), cold.cache_misses);
  ASSERT_GE(chunks.size(), 4u);
  for (std::size_t i = 0; i < chunks.size(); i += 3) fs::remove(chunks[i]);
  const std::size_t holes = (chunks.size() + 2) / 3;

  const RunReport resumed = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(resumed.cache_misses, holes);
  EXPECT_EQ(resumed.cache_hits, chunks.size() - holes);
  expect_identical(cold, resumed);
}

TEST(ScenarioService, CheckedInSpecWarmRunDoesZeroChunks) {
  // Acceptance check on the real checked-in spec at smoke scale: the
  // second run of scenarios/link_jitter.spec must simulate nothing.
  ScaleGuard guard(0.02);
  ScenarioSpec spec = scenario::parse_spec_file(std::string(OCI_SOURCE_DIR) +
                                                "/scenarios/link_jitter.spec");
  spec.validate();
  const fs::path dir = scratch_dir("cache_spec");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_GT(cold.cache_misses, 0u);
  const RunReport warm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  expect_identical(cold, warm);
}

// -- Shards and merge ---------------------------------------------------

TEST(ScenarioService, ShardUnionMergeEqualsUnshardedRun) {
  const ScenarioSpec spec = adaptive_spec();
  const RunReport full = ScenarioRunner(2).run(spec);

  for (const std::size_t n_shards : {2u, 3u}) {
    std::vector<RunReport> parts;
    for (std::size_t i = 0; i < n_shards; ++i) {
      RunOptions options;
      options.shard = ShardSpec{i, n_shards};
      parts.push_back(ScenarioRunner(2).run(spec, options));
      EXPECT_EQ(parts.back().points_total, full.points.size());
      EXPECT_LT(parts.back().points.size(), full.points.size());
    }
    const RunReport merged = scenario::merge_reports(parts);
    expect_identical(full, merged);
  }
}

TEST(ScenarioService, WeightedShardUnionMergeEqualsUnshardedRun) {
  // Weight moments must pool across shards exactly like the rate
  // accumulators -- summed, never averaged -- or the merged n_eff and
  // variance diagnostics silently drift from the unsharded truth.
  const ScenarioSpec spec = tilted_spec();
  const RunReport full = ScenarioRunner(2).run(spec);
  for (const RunPoint& p : full.points) {
    EXPECT_TRUE(p.weights.active());
    EXPECT_EQ(p.weights.count(), p.samples);
  }

  for (const std::size_t n_shards : {2u, 3u}) {
    std::vector<RunReport> parts;
    for (std::size_t i = 0; i < n_shards; ++i) {
      RunOptions options;
      options.shard = ShardSpec{i, n_shards};
      parts.push_back(ScenarioRunner(2).run(spec, options));
    }
    const RunReport merged = scenario::merge_reports(parts);
    expect_identical(full, merged);
  }
}

TEST(ScenarioService, WeightedChunksRoundTripThroughTheCache) {
  // Cold run persists every tilted chunk (metrics AND the trailing
  // weights line); the warm run must serve all of them back and land
  // on the bit-identical report.
  const fs::path dir = scratch_dir("cache_weighted");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = tilted_spec();

  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);

  const RunReport warm = ScenarioRunner(8).run(spec, options);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  expect_identical(cold, warm);

  // The records on disk really carry the weight state: a weighted
  // chunk whose weights line is torn off must read as a miss, not as
  // a crude chunk.
  std::vector<fs::path> chunks;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) chunks.push_back(entry.path());
  }
  ASSERT_EQ(chunks.size(), cold.cache_misses);
  std::size_t weighted = 0;
  for (const fs::path& chunk : chunks) {
    std::ifstream in(chunk);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.find("\nweights ") != std::string::npos) ++weighted;
  }
  EXPECT_EQ(weighted, chunks.size());
}

TEST(ScenarioService, MergePoolsRunsFromDifferentSeeds) {
  const ScenarioSpec spec = sweep_spec();
  ScenarioSpec other = spec;
  other.seed = kSeed + 17;
  const RunReport a = ScenarioRunner(2).run(spec);
  const RunReport b = ScenarioRunner(2).run(other);
  const RunReport merged = scenario::merge_reports({a, b});

  EXPECT_EQ(merged.seed, 0u);  // mixed seeds -> sentinel
  ASSERT_EQ(merged.points.size(), a.points.size());
  const std::size_t ser = 0;  // first point-to-point metric is "ser"
  ASSERT_EQ(merged.metric_names[ser], "ser");
  for (std::size_t i = 0; i < merged.points.size(); ++i) {
    const RunPoint& p = merged.points[i];
    EXPECT_EQ(p.samples, a.points[i].samples + b.points[i].samples);
    // Pooled counts, not averaged estimates.
    EXPECT_EQ(p.rates[ser].trials(),
              a.points[i].rates[ser].trials() + b.points[i].rates[ser].trials());
    EXPECT_EQ(p.rates[ser].successes(), a.points[i].rates[ser].successes() +
                                            b.points[i].rates[ser].successes());
    const analysis::Estimate pooled =
        p.rates[ser].wilson(merged.confidence_z);
    EXPECT_EQ(p.estimates[ser].value, pooled.value);
    EXPECT_EQ(p.estimates[ser].ci_low, pooled.ci_low);
    EXPECT_EQ(p.estimates[ser].ci_high, pooled.ci_high);
    // More data can only tighten the interval.
    EXPECT_LE(p.estimates[ser].half_width(),
              a.points[i].estimates[ser].half_width() + 1e-12);
  }
}

TEST(ScenarioService, MergeRejectsBadCombinations) {
  const ScenarioSpec spec = sweep_spec();
  const RunReport full = ScenarioRunner(2).run(spec);
  RunOptions shard0;
  shard0.shard = ShardSpec{0, 2};
  const RunReport part = ScenarioRunner(2).run(spec, shard0);

  // Same seed twice: the same samples twice, never poolable.
  EXPECT_THROW((void)scenario::merge_reports({full, full}), std::invalid_argument);
  // A lone shard misses points...
  EXPECT_THROW((void)scenario::merge_reports({part}), std::invalid_argument);
  // ...unless explicitly allowed.
  MergeOptions lenient;
  lenient.allow_partial = true;
  const RunReport partial = scenario::merge_reports({part}, lenient);
  EXPECT_EQ(partial.points.size(), part.points.size());
  EXPECT_EQ(partial.points_total, full.points.size());
  // Different experiments (hash mismatch) never merge.
  ScenarioSpec changed = spec;
  changed.device.bits_per_symbol = 4;
  const RunReport other = ScenarioRunner(2).run(changed);
  EXPECT_THROW((void)scenario::merge_reports({full, other}), std::invalid_argument);
  // Nothing to merge at all.
  EXPECT_THROW((void)scenario::merge_reports({}), std::invalid_argument);
}

// -- Report document round trip ----------------------------------------

TEST(ReportIo, RoundTripsThroughDisk) {
  const ScenarioSpec spec = adaptive_spec();
  const RunReport report = ScenarioRunner(2).run(spec);
  const fs::path path = scratch_dir("report_io") / "report.json";
  scenario::report_io::save(report, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  expect_identical(report, back);
  EXPECT_EQ(back.confidence_z, report.confidence_z);
  // The reconstructed accumulators are live: merging a loaded shard
  // pair behaves exactly like merging in-memory reports.
  RunOptions s0, s1;
  s0.shard = ShardSpec{0, 2};
  s1.shard = ShardSpec{1, 2};
  const fs::path p0 = scratch_dir("report_io_s0") / "s0.json";
  const fs::path p1 = scratch_dir("report_io_s1") / "s1.json";
  scenario::report_io::save(ScenarioRunner(2).run(spec, s0), p0.string());
  scenario::report_io::save(ScenarioRunner(2).run(spec, s1), p1.string());
  const RunReport merged = scenario::merge_reports(
      {scenario::report_io::load(p0.string()), scenario::report_io::load(p1.string())});
  expect_identical(report, merged);
}

TEST(ReportIo, EmptyAccumulatorStateRoundTrips) {
  // Zero-chunk accumulator state is legal on disk (a point whose mean
  // metrics never accumulated): the loader must reconstruct the EMPTY
  // accumulator -- finite, merge-safe -- not NaN moments.
  const ScenarioSpec spec = adaptive_spec();
  RunReport report = ScenarioRunner(2).run(spec);
  ASSERT_FALSE(report.points.empty());
  for (auto& m : report.points[0].means) m = analysis::MeanAccumulator();
  for (auto& r : report.points[0].rates) r = analysis::RateAccumulator();

  const fs::path path = scratch_dir("report_io_empty") / "report.json";
  scenario::report_io::save(report, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  ASSERT_EQ(back.points[0].means.size(), report.points[0].means.size());
  for (const auto& m : back.points[0].means) {
    EXPECT_EQ(m.chunks(), 0u);
    EXPECT_TRUE(std::isfinite(m.interval().value));
    EXPECT_DOUBLE_EQ(m.interval().half_width(), 0.0);
  }
  for (const auto& r : back.points[0].rates) {
    EXPECT_EQ(r.trials(), 0u);
    EXPECT_TRUE(std::isfinite(r.wilson().ci_high));
  }

  // And the reconstruction is live: pooling the emptied point with a
  // different-seed run behaves like an in-memory empty accumulator.
  ScenarioSpec other = spec;
  other.seed = kSeed + 1;
  const RunReport pooled =
      scenario::merge_reports({back, ScenarioRunner(2).run(other)});
  for (const auto& p : pooled.points) {
    for (const auto& e : p.estimates) {
      EXPECT_TRUE(std::isfinite(e.value));
      EXPECT_TRUE(std::isfinite(e.ci_low) && std::isfinite(e.ci_high));
    }
  }
}

TEST(ReportIo, LoadRejectsMalformedDocuments) {
  const fs::path dir = scratch_dir("report_io_bad");
  const auto write = [&](const char* name, const std::string& text) {
    const fs::path p = dir / name;
    std::ofstream(p) << text;
    return p.string();
  };
  EXPECT_THROW((void)scenario::report_io::load((dir / "absent.json").string()),
               std::runtime_error);
  EXPECT_THROW((void)scenario::report_io::load(write("trunc.json", "{ \"schema")),
               std::runtime_error);
  EXPECT_THROW((void)scenario::report_io::load(
                   write("schema.json", "{ \"schema_version\": 3, \"results\": [] }")),
               std::runtime_error);
  EXPECT_THROW(
      (void)scenario::report_io::load(write(
          "noresults.json",
          "{ \"schema_version\": 2, \"binary\": \"scenario_x\", \"config\": {} }")),
      std::runtime_error);

  // Integer fields out of [0, 2^64) fail with the field named, instead
  // of wrapping (a negative count read as ~2^64) or an undefined cast.
  const fs::path good = dir / "good.json";
  scenario::report_io::save(ScenarioRunner(2).run(sweep_spec()), good.string());
  std::ifstream in(good);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (const auto& [field, bad] :
       {std::pair{"iterations", "-5"}, std::pair{"shard_count", "-1"},
        std::pair{"trials", "-3"}, std::pair{"seed", "1e30"},
        std::pair{"chunks", "18446744073709551616"}, std::pair{"point_index", "0.5"}}) {
    const std::string key = "\"" + std::string(field) + "\": ";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t end = text.find_first_of(",}", at + key.size());
    std::string mutated = text;
    mutated.replace(at + key.size(), end - at - key.size(), std::string(bad) + " ");
    try {
      (void)scenario::report_io::load(write("range.json", mutated));
      FAIL() << "loaded " << field << " = " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(field) + "'"), std::string::npos)
          << e.what();
    }
  }
}

// -- CLI helpers --------------------------------------------------------

/// read_overrides over a writable copy of `args` (argv[0] = "tool");
/// `left` receives the arguments it did not consume.
scenario::Overrides read_args(std::vector<std::string> args,
                              std::vector<std::string>* left = nullptr) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  const scenario::Overrides o = scenario::read_overrides(argc, argv.data());
  if (left != nullptr) left->assign(argv.begin() + 1, argv.begin() + argc);
  return o;
}

TEST(ScenarioCli, ParsesShardSpecs) {
  const ShardSpec s = read_args({"--shard=1/4"}).shard;
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_TRUE(s.active());
  EXPECT_FALSE(read_args({"--shard", "0/1"}).shard.active());
  EXPECT_FALSE(read_args({}).shard.active());
  for (const char* bad : {"", "2", "a/2", "1/b", "1/2x", "-1/2", "1/-2", "2/2",
                          "3/2", "0/0", "1/", "/2"}) {
    try {
      (void)read_args({std::string("--shard=") + bad});
      ADD_FAILURE() << "accepted --shard=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--shard"), std::string::npos) << e.what();
    }
  }
}

TEST(ScenarioCli, ConsumesShardAndCacheArgs) {
  const char* saved = std::getenv("OCI_SCENARIO_CACHE");
  const std::string saved_value = saved ? saved : "";
  ::setenv("OCI_SCENARIO_CACHE", "/tmp/from_env", 1);

  // The flag beats the variable, which is left as it was; unrelated
  // args stay in place.
  std::vector<std::string> left;
  const scenario::Overrides o =
      read_args({"spec.file", "--shard=1/2", "--cache=/tmp/c", "--out=x.json"}, &left);
  EXPECT_EQ(o.shard.index, 1u);
  EXPECT_EQ(o.shard.count, 2u);
  EXPECT_EQ(o.cache_dir, std::optional<std::string>("/tmp/c"));
  EXPECT_EQ(left, (std::vector<std::string>{"spec.file", "--out=x.json"}));
  EXPECT_STREQ(std::getenv("OCI_SCENARIO_CACHE"), "/tmp/from_env");

  // Variable fallback when no flag is present; an empty one is unset.
  EXPECT_EQ(read_args({}).cache_dir, std::optional<std::string>("/tmp/from_env"));
  ::setenv("OCI_SCENARIO_CACHE", "", 1);
  EXPECT_FALSE(read_args({}).cache_dir.has_value());
  if (saved) {
    ::setenv("OCI_SCENARIO_CACHE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("OCI_SCENARIO_CACHE");
  }

  // Garbled values throw, naming the flag.
  EXPECT_THROW((void)read_args({"--shard=9/3"}), std::invalid_argument);
  EXPECT_THROW((void)read_args({"--cache="}), std::invalid_argument);
}

TEST(ScenarioService, RejectsInvalidShardOptions) {
  const ScenarioSpec spec = sweep_spec();
  RunOptions zero;
  zero.shard = ShardSpec{0, 0};
  EXPECT_THROW((void)ScenarioRunner(1).run(spec, zero), std::invalid_argument);
  RunOptions oob;
  oob.shard = ShardSpec{2, 2};
  EXPECT_THROW((void)ScenarioRunner(1).run(spec, oob), std::invalid_argument);
}

}  // namespace

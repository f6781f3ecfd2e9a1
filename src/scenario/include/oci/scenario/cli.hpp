// Outside overrides of a scenario run, read once at the edge of every
// scenario-driven binary (tools/run_scenario, the abl_* benches, the
// examples) and applied to the spec that binary builds. The library
// never reads them: ScenarioRunner::run executes exactly the spec it is
// given, so the spec that is hashed is the spec that runs.
//
//   flag             variable            effect
//   --seed=N         OCI_SEED            replaces spec.seed
//   --precision=H    OCI_PRECISION       absolute CI half-width target;
//                                        arms adaptive mode
//   --max-samples=N  OCI_MAX_SAMPLES     caps the adaptive per-point budget
//   --cache=DIR      OCI_SCENARIO_CACHE  result store directory (store.hpp)
//   --shard=I/N      -                   sweep partition (RunOptions)
//
// A flag beats its variable, which beats the spec's own value. A
// garbled flag throws std::invalid_argument naming the flag (an
// explicit request must never be dropped); a garbled variable reads as
// unset (the environment is shared state). The environment is only
// read, never written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "oci/scenario/spec.hpp"

namespace oci::scenario {

/// Deterministic partition of a sweep's Cartesian product: shard i of N
/// owns every global point index g with g % count == index. Round-robin
/// (not contiguous blocks) so adjacent sweep points -- typically the
/// expensive knee region -- spread evenly across shards.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// True when this spec actually partitions (count > 1).
  [[nodiscard]] bool active() const { return count > 1; }
};

/// Every outside override of one process, resolved (flag beats
/// variable); nullopt = not given.
struct Overrides {
  std::optional<std::uint64_t> seed;
  std::optional<double> precision;
  std::optional<std::uint64_t> max_samples;
  std::optional<std::string> cache_dir;
  ShardSpec shard;

  /// Sets the seed and the precision block. The precision override
  /// forces an absolute target -- the spec's own relative / rare-event
  /// rules are cleared, not OR'd in -- and is skipped for code-density
  /// traffic, which cannot chunk; max_samples replaces the adaptive cap.
  void apply(ScenarioSpec& spec) const;
};

/// Consumes --seed, --precision, --max-samples, --cache and --shard
/// (`--flag=V` or `--flag V`) from argv, leaving every other argument in
/// place for the next parser (benchmark::Initialize), and falls back to
/// the OCI_* variables. Call from main().
[[nodiscard]] Overrides read_overrides(int& argc, char** argv);

}  // namespace oci::scenario

// The four benchmark workloads: spec text generated from the seed,
// parsed back through the public scenario API, and run as fixed batches
// ("passes") of ScenarioRunner calls. Output checks feed a Ledger of
// attempted/failed operations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { kNocScale, kLinkWindows, kSweepCold, kSweepWarm };

[[nodiscard]] std::optional<Workload> workload_from_name(const std::string& name);
[[nodiscard]] const char* to_string(Workload w);
/// True for the two workloads that run against an FsResultStore.
[[nodiscard]] bool uses_store(Workload w);

/// The spec of sweep point `index` (RunPoint::point_index): every axis
/// applied, first axis slowest.
[[nodiscard]] oci::scenario::ScenarioSpec point_spec(const oci::scenario::ScenarioSpec& base,
                                                     std::size_t index);

/// Per-point budgets. full() is what the benchmark measures; tiny() is
/// the self-test size.
struct Sizes {
  std::uint64_t noc_slots = 0;         ///< noc_scale slots per point
  std::uint64_t link_windows = 0;      ///< link_windows windows per point
  std::uint64_t sweep_link_chunk = 0;  ///< sweep link part: symbols per chunk
  std::uint64_t sweep_link_max = 0;    ///< ... and per point
  std::uint64_t sweep_noc_chunk = 0;   ///< sweep NoC part: slots per chunk
  std::uint64_t sweep_noc_max = 0;     ///< ... and per point

  [[nodiscard]] static Sizes full();
  [[nodiscard]] static Sizes tiny();
};

struct SpecFile {
  std::string stem;
  std::string text;
};

/// Spec text of every scenario a workload runs, generated from `seed`
/// alone (never read from scenarios/*.spec). sweep_warm runs the same
/// specs as sweep_cold.
[[nodiscard]] std::vector<SpecFile> generate_specs(Workload w, std::uint64_t seed,
                                                   const Sizes& sizes);

/// One parsed scenario of a workload.
struct Job {
  std::string stem;
  std::string spec_path;
  std::string report_path;
  oci::scenario::ScenarioSpec spec;
  std::string hash;
};

/// Writes the spec files under `dir` and parses them back
/// (parse_spec_file -> validate -> spec_hash), one "scenario.parse" span
/// per file.
[[nodiscard]] std::vector<Job> prepare(const std::vector<SpecFile>& files,
                                       const std::string& dir, Tracer& tracer,
                                       int parent);

/// Attempted/failed operation counts plus the reason of each failure.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops, const std::string& what);
};

/// Everything one pass needs besides the jobs.
struct PassEnv {
  Workload workload = Workload::kNocScale;
  std::size_t threads = 1;
  /// Store root for the store workloads ("" = no store).
  std::string store_root;
  Tracer* tracer = nullptr;
  int parent = -1;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t samples = 0;  ///< sum of RunPoint::samples over every run
  std::uint64_t chunks = 0;   ///< sum of RunPoint::chunks, unsharded runs
  double point_wall_s = 0.0;  ///< sum of RunPoint::wall_ns, as seconds
  double run_wall_s = 0.0;    ///< time inside ScenarioRunner::run
  /// Unsharded reports, aligned with the jobs.
  std::vector<oci::scenario::RunReport> reports;
  /// sweep_warm only: merge of the 0/2 + 1/2 shard pair, and the
  /// report_io::load of each saved report; both aligned with the jobs.
  std::vector<oci::scenario::RunReport> merged;
  std::vector<oci::scenario::RunReport> reloaded;
};

/// Runs every job once through ScenarioRunner::run and report_io::save
/// (plus the shard pair, merge_reports and report_io::load on
/// sweep_warm), timing the whole batch.
[[nodiscard]] PassResult run_pass(const std::vector<Job>& jobs, const PassEnv& env);

/// Canonical text of a report's deterministic fields: coordinates,
/// samples, chunks, rng_draws, metrics, interval estimates and the
/// accumulator state merge pools. Wall clock and cache counters are
/// excluded.
[[nodiscard]] std::string deterministic_text(const oci::scenario::RunReport& report);
[[nodiscard]] std::string digest(const oci::scenario::RunReport& report);

/// Per-point output checks: samples match the resolved budget (fixed)
/// or lie in [min, max] (adaptive), and adaptive points ran to
/// max_samples (the benchmark's targets are out of reach, so a pass's
/// work does not depend on the seed); every metric is finite and every
/// rate lies in [0, 1]. One operation per point.
void check_points(const Job& job, const oci::scenario::RunReport& report, Ledger& ledger);

/// The workload's own checks on one pass: store traffic (cold: every
/// miss saved, no hits; warm: every chunk of `cold` served as a hit,
/// identical deterministic fields, shard merge and report round trip
/// exact) and the physics checks (CAC above TDMA at 1024 dies; SER at
/// 200 ps above SER at 40 ps). `cold` holds the cold-run reports on
/// sweep_warm and is ignored elsewhere.
void check_pass(Workload w, const std::vector<Job>& jobs, const PassResult& pass,
                const std::vector<oci::scenario::RunReport>& cold, Ledger& ledger);

}  // namespace perfbench

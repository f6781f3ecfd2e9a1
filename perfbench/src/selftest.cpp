#include "selftest.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <utility>

#include "layers.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sc = oci::scenario;

namespace {

constexpr std::uint64_t kSeed = 7;

bool report(bool ok, const std::string& what, const std::string& detail = {}) {
  std::cout << (ok ? "PASS " : "FAIL ") << what;
  if (!detail.empty()) std::cout << "  (" << detail << ")";
  std::cout << "\n";
  return ok;
}

std::string ledger_text(const Ledger& l) {
  std::string s = std::to_string(l.failed) + " of " + std::to_string(l.attempted) + " failed";
  for (const std::string& f : l.failures) s += "; " + f;
  return s;
}

bool corrupt_store_case(const std::string& dir, std::size_t threads) {
  Tracer off;
  fs::create_directories(dir);
  const std::vector<Job> jobs =
      prepare(generate_specs(Workload::kSweepCold, kSeed, Sizes::tiny()), dir, off, -1);
  const std::string store = dir + "/store";
  const PassResult cold = run_pass(jobs, PassEnv{Workload::kSweepCold, threads, store, &off, -1});
  Ledger fill;
  check_pass(Workload::kSweepCold, jobs, cold, {}, fill);
  if (!report(fill.failed == 0, "cold fill passes its checks", ledger_text(fill))) return false;

  // One torn entry (truncated mid-record) and one overwritten with
  // garbage, both in the NoC sweep's store.
  const Job& noc = jobs.at(1);
  const sc::FsResultStore fs_store(store);
  const std::string torn = fs_store.path_of(sc::ChunkKey{noc.hash, noc.spec.seed, 0, 0});
  const std::string garbage = fs_store.path_of(sc::ChunkKey{noc.hash, noc.spec.seed, 1, 0});
  if (!fs::exists(torn) || !fs::exists(garbage)) {
    return report(false, "chunk files to corrupt exist", torn);
  }
  fs::resize_file(torn, fs::file_size(torn) / 2);
  std::ofstream(garbage) << "oci-chunk-v1 samples=oops\n\x01\x02";

  const PassResult warm = run_pass(jobs, PassEnv{Workload::kSweepWarm, threads, store, &off, -1});
  Ledger l;
  check_pass(Workload::kSweepWarm, jobs, warm, cold.reports, l);
  bool counted = false;
  for (const std::string& f : l.failures) counted |= f.find("warm chunk hits") != std::string::npos;
  return report(l.failed == 2 && counted &&
                    deterministic_text(warm.reports[1]) == deterministic_text(cold.reports[1]),
                "torn and corrupt chunks count as 2 failed operations, not as data",
                ledger_text(l));
}

/// Ledgers of one tiny pass of `w`: as run, and after `spoil` edits it.
std::pair<Ledger, Ledger> spoiled_pass(Workload w, const std::string& dir, std::size_t threads,
                                       const std::function<void(PassResult&)>& spoil) {
  Tracer off;
  fs::create_directories(dir);
  const std::vector<Job> jobs = prepare(generate_specs(w, kSeed, Sizes::tiny()), dir, off, -1);
  const std::string store = uses_store(w) ? dir + "/store" : "";
  PassResult p = run_pass(jobs, PassEnv{w, threads, store, &off, -1});
  std::pair<Ledger, Ledger> out;
  check_pass(w, jobs, p, {}, out.first);
  spoil(p);
  check_pass(w, jobs, p, {}, out.second);
  return out;
}

bool violated_check_case(const std::string& dir, std::size_t threads) {
  const auto nan_and_budget = [](PassResult& p) {
    p.reports[0].points[0].metrics[0] = std::numeric_limits<double>::quiet_NaN();
    p.reports[0].points[1].samples += 1;
  };
  const auto [good, bad] = spoiled_pass(Workload::kNocScale, dir + "/noc", threads, nan_and_budget);
  bool ok = report(bad.failed == good.failed + 2 && bad.attempted == good.attempted,
                   "a NaN metric and a wrong sample count raise failed by 2",
                   ledger_text(good) + " -> " + ledger_text(bad));
  // One chunk short of max_samples is still within [min, max].
  const auto stop_early = [](PassResult& p) {
    p.reports[0].points[0].samples -= Sizes::tiny().sweep_link_chunk;
  };
  const auto [full, early] =
      spoiled_pass(Workload::kSweepCold, dir + "/sweep", threads, stop_early);
  ok &= report(early.failed == full.failed + 1 && early.attempted == full.attempted,
               "an adaptive point stopped before max_samples raises failed by 1",
               ledger_text(full) + " -> " + ledger_text(early));
  return ok;
}

struct Counts {
  std::uint64_t chunks = 0;
  ReplayCounts replay;
};

Counts exact_counts(const std::string& dir, std::size_t threads) {
  Tracer off;
  fs::create_directories(dir);
  const std::vector<Job> jobs =
      prepare(generate_specs(Workload::kSweepCold, kSeed, Sizes::tiny()), dir, off, -1);
  Counts c;
  c.chunks = run_pass(jobs, PassEnv{Workload::kSweepCold, threads, dir + "/store", &off, -1}).chunks;
  const auto parse_one = [](Workload w) {
    const SpecFile f = generate_specs(w, kSeed, Sizes::tiny()).front();
    return sc::parse_spec_text(f.text, f.stem);
  };
  replay_link(parse_one(Workload::kLinkWindows), ReplaySizes::tiny(), off, -1, c.replay);
  replay_net(parse_one(Workload::kNocScale), ReplaySizes::tiny(), off, -1, c.replay);
  return c;
}

bool exact_counts_case(const std::string& dir, std::size_t threads) {
  const Counts a = exact_counts(dir + "/a", threads);
  const Counts b = exact_counts(dir + "/b", threads);
  bool ok = report(a.chunks == b.chunks && a.chunks > 0, "scenario.chunks repeats",
                   std::to_string(a.chunks) + " vs " + std::to_string(b.chunks));
  ok &= report(a.replay.link_rng_draws_per_window == b.replay.link_rng_draws_per_window &&
                   a.replay.link_rng_draws_per_window > 0.0,
               "link.rng_draws_per_window repeats",
               std::to_string(a.replay.link_rng_draws_per_window) + " vs " +
                   std::to_string(b.replay.link_rng_draws_per_window));
  ok &= report(a.replay.net_rng_draws_per_slot == b.replay.net_rng_draws_per_slot &&
                   a.replay.net_rng_draws_per_slot.size() == 2,
               "net.rng_draws_per_slot.* repeat");
  return ok;
}

}  // namespace

int run_selftest(const std::string& tmp, std::size_t threads) {
  bool ok = corrupt_store_case(tmp + "/corrupt", threads);
  ok &= violated_check_case(tmp + "/violated", threads);
  ok &= exact_counts_case(tmp + "/exact", threads);
  std::cout << (ok ? "selftest passed" : "selftest FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace perfbench

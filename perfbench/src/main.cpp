// Scenario benchmark driver. One process runs one workload:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --tmp <dir> --out <dir> [--git-sha <sha>] [--source-sha <sha>]
//   perfbench_driver --selftest --tmp <dir>
//
// Untraced (--trace 0): after set-up (kernel dispatch, spec generation
// and parse/validate/hash; on sweep_warm also the cold store fill) and
// one untimed warm-up pass, passes of the workload repeat for
// --seconds; pass costs are reported in units of a reference loop
// timed just before each pass (see reference_loop_s). Traced
// (--trace 1): untraced and traced passes alternate (their difference
// is the tracing overhead), then the layer replays run, and the
// per-layer metrics come from the recorded spans. Either way the last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "layers.hpp"
#include "oci/link/kernels.hpp"
#include "oci/scenario/parse.hpp"
#include "selftest.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/// Environment knobs ScenarioRunner (or kernel dispatch) honours
/// silently; any of them would change what the benchmark measures.
constexpr const char* kOverrides[] = {
    "OCI_SEED",           "OCI_PRECISION",      "OCI_MAX_SAMPLES", "OCI_REPRO_SCALE",
    "OCI_SCENARIO_CACHE", "OCI_BATCH_THREADS",  "OCI_FORCE_SCALAR"};

constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 100000;
/// Traced runs keep every span in memory: at most this many passes
/// (half of them traced).
constexpr int kMaxTracedPasses = 60;
constexpr std::uint64_t kSetupRun = 1;
constexpr std::uint64_t kFirstPassRun = 2;
constexpr std::uint64_t kReplayRun = 1000000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  int trace = 0;
  std::string tmp;
  std::string out;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      a.seed = std::stoull(v, &used);
      if (used != v.size()) throw std::invalid_argument("bad --seed " + v);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--tmp") {
      a.tmp = v;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--source-sha") {
      a.source_sha = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.tmp.empty()) throw std::invalid_argument("--tmp is required");
  if (!a.selftest) {
    if (a.out.empty()) throw std::invalid_argument("--out is required");
    if (!workload_from_name(a.workload)) throw std::invalid_argument("unknown workload '" + a.workload + "'");
    if (!a.seed_given) throw std::invalid_argument("--seed is required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  }
  return a;
}

void reject_overrides() {
  std::string set;
  for (const char* var : kOverrides) {
    if (std::getenv(var) != nullptr) set += std::string(" ") + var;
  }
  if (!set.empty()) {
    throw std::runtime_error("environment overrides would change the workload; unset:" + set);
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

struct Fingerprint {
  std::string cpu = cpu_model();
  unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  std::string kernel = oci::link::kernels::active_kernels().name;
  std::string compiler =
#if defined(__clang__)
      "clang " __VERSION__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif
  std::string build_type = PERFBENCH_BUILD_TYPE;
  // One BatchRunner thread: on a shared host each vCPU's speed follows
  // its neighbours' load (one vCPU ran link_windows 1.5x slower than the
  // others on a 4-vCPU VM), and a pass on several threads runs at the
  // pace of the slowest one it lands on, which the reference loop, run
  // on one thread, cannot track.
  std::size_t threads = 1;
  std::string git_sha;
  std::string source_sha;

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << "{\"cpu\": \"" << cpu << "\", \"nproc\": " << nproc << ", \"kernel\": \"" << kernel
       << "\", \"compiler\": \"" << compiler << "\", \"build_type\": \"" << build_type
       << "\", \"threads\": " << threads << ", \"git_sha\": \"" << git_sha
       << "\", \"source_sha256\": \"" << source_sha << "\"}";
    return os.str();
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_json(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Spans of `name` from the workload's own runs; when the workload never
/// called that layer, the service replay's spans stand in.
std::vector<Span> pick(const std::vector<Span>& spans, const std::string& name,
                       bool* from_replay = nullptr) {
  std::vector<Span> own;
  std::vector<Span> replay;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    (s.run_id >= kReplayRun ? replay : own).push_back(s);
  }
  if (from_replay != nullptr) *from_replay = own.empty() && !replay.empty();
  return own.empty() ? replay : own;
}

std::vector<double> durations(const std::vector<Span>& spans, double scale,
                              bool per_count = false) {
  std::vector<double> out;
  for (const Span& s : spans) {
    const double d = (s.end_s - s.start_s) * scale;
    out.push_back(per_count ? d / static_cast<double>(std::max<std::uint64_t>(s.count, 1)) : d);
  }
  return out;
}

std::vector<Span> tagged(const std::vector<Span>& spans, const std::string& tag) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.tag == tag) out.push_back(s);
  }
  return out;
}

/// Service traffic for the store and report metrics a workload's own
/// passes lack (no saves on sweep_warm; no store, report_io::load or
/// merge_reports elsewhere): a small sweep run cold, then warm.
void service_replay(const std::string& dir, std::uint64_t seed, std::size_t threads,
                    Tracer& tracer, int parent, Ledger& ledger) {
  const Sizes z{.sweep_link_chunk = 500,
                .sweep_link_max = 1000,
                .sweep_noc_chunk = 200,
                .sweep_noc_max = 2000};
  fs::create_directories(dir);
  const std::vector<Job> jobs = prepare(generate_specs(Workload::kSweepCold, seed, z), dir,
                                        tracer, parent);
  const std::string store = dir + "/store";
  PassEnv env{Workload::kSweepCold, threads, store, &tracer, parent};
  const PassResult cold = run_pass(jobs, env);
  check_pass(Workload::kSweepCold, jobs, cold, {}, ledger);
  env.workload = Workload::kSweepWarm;
  const PassResult warm = run_pass(jobs, env);
  check_pass(Workload::kSweepWarm, jobs, warm, cold.reports, ledger);
}

int run_benchmark(const Args& a, const Fingerprint& fp) {
  const Workload w = *workload_from_name(a.workload);
  const bool traced_run = a.trace != 0;
  const Sizes sizes = Sizes::full();
  const std::string spec_dir = a.tmp + "/specs";
  const std::string store_root = a.tmp + "/store";
  fs::create_directories(spec_dir);
  fs::create_directories(a.out);
  Tracer tracer;
  Ledger ledger;

  // ---- set-up -------------------------------------------------------
  // Counted from process start (now_s()'s epoch is the first statement
  // of main): kernel dispatch, spec generation and parse/validate/hash;
  // on sweep_warm also the cold fill of the store the timed passes read.
  tracer.set_enabled(traced_run);
  tracer.set_run(kSetupRun);
  const std::vector<Job> jobs = prepare(generate_specs(w, a.seed, sizes), spec_dir, tracer, -1);
  tracer.set_enabled(false);
  double setup_s = now_s();
  const bool warm = w == Workload::kSweepWarm;
  const std::string store = uses_store(w) ? store_root : "";
  PassResult cold_fill;
  if (warm) {
    cold_fill = run_pass(jobs, PassEnv{Workload::kSweepCold, fp.threads, store, &tracer, -1});
    setup_s = now_s();
    check_pass(Workload::kSweepCold, jobs, cold_fill, {}, ledger);
  }
  // One untimed warm-up pass lets caches fill and lazy initialisation
  // finish; the memory high-water mark is read after it.
  const PassResult warm_up = run_pass(jobs, PassEnv{w, fp.threads, store, &tracer, -1});
  const std::vector<oci::scenario::RunReport>& cold = warm ? cold_fill.reports : warm_up.reports;
  check_pass(w, jobs, warm_up, cold, ledger);
  const double rss_mb = peak_rss_mb();

  // Let the set-up's store writeback settle before timing.
  if (uses_store(w)) ::sync();

  // ---- timed passes -------------------------------------------------
  // Untraced passes: raw wall time, the reference loop run just before,
  // and the pass's wall time, CPU time and samples in reference units.
  std::vector<double> walls, refs, pass_refs, cpu_refs, sample_refs, traced_walls, busy;
  std::vector<std::string> first_digests;
  std::uint64_t chunks = 0;
  const double phase0 = now_s();
  int passes = 0;
  const int min_passes = traced_run ? 2 * kMinPasses : kMinPasses;
  const int max_passes = traced_run ? kMaxTracedPasses : kMaxPasses;
  while ((passes < min_passes || now_s() - phase0 < a.seconds) && passes < max_passes) {
    const bool traced = traced_run && passes % 2 == 1;
    if (w == Workload::kSweepCold) {
      // Every cold pass starts from an empty store. The previous one is
      // deleted and the filesystem synced before the timer starts, so
      // one pass's deletions and writeback do not land in the next.
      fs::remove_all(store_root);
      ::sync();
    }
    const double ref = reference_loop_s();
    tracer.set_enabled(traced);
    tracer.set_run(kFirstPassRun + static_cast<std::uint64_t>(passes));
    const int span = tracer.open("bench.pass");
    const PassResult p = run_pass(jobs, PassEnv{w, fp.threads, store, &tracer, span});
    tracer.close(span, "", p.samples);
    tracer.set_enabled(false);

    check_pass(w, jobs, p, cold, ledger);
    for (std::size_t j = 0; j < p.reports.size(); ++j) {
      const std::string d = digest(p.reports[j]);
      if (passes == 0) {
        first_digests.push_back(d);
      } else {
        ledger.check(d == first_digests[j], jobs[j].stem + ": pass reproduces the first pass");
      }
    }
    chunks = p.chunks;
    if (traced) {
      traced_walls.push_back(p.wall_s);
      busy.push_back(p.point_wall_s /
                     (static_cast<double>(fp.threads) * std::max(p.run_wall_s, 1e-12)));
    } else {
      walls.push_back(p.wall_s);
      refs.push_back(ref);
      pass_refs.push_back(p.wall_s / ref);
      cpu_refs.push_back(p.cpu_s / ref);
      sample_refs.push_back(static_cast<double>(p.samples) * ref / p.wall_s);
    }
    ++passes;
  }

  // ---- report -------------------------------------------------------
  std::cout << "workload " << to_string(w) << "  seed " << a.seed << "  passes " << passes
            << (traced_run ? " (alternating untraced/traced)" : "") << "\n";
  std::cout << "fingerprint " << fp.json() << "\n";
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::cout << "digest " << jobs[j].stem << " " << first_digests.at(j) << "  spec_hash "
              << jobs[j].hash.substr(0, 16) << "\n";
  }

  std::vector<Metric> metrics;
  if (!traced_run) {
    // Pass costs in reference-loop units (medians over the passes): a
    // busy neighbour slows the pass and the reference loop run just
    // before it, so the ratio keeps the program's own cost while much
    // of the host's pace, which drifts from minute to minute, drops out.
    // The per-pass lists let run.py pool processes.
    metrics = {{"setup_s", setup_s, "s"},
               {"pass_ref", median(pass_refs), "ref"},
               {"cpu_ref", median(cpu_refs), "ref"},
               {"samples_per_ref", median(sample_refs), "1/ref"},
               {"peak_rss_mb", rss_mb, "MB"}};
    std::cout << "wall_s quartiles " << num(quantile(walls, 0.25)) << " / "
              << num(median(walls)) << " / " << num(quantile(walls, 0.75))
              << "  reference_loop_s median " << num(median(refs)) << "  over " << walls.size()
              << " passes\n";
    const auto list = [](const std::vector<double>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) s += (i == 0 ? "" : ", ") + num(v[i]);
      return s + "]";
    };
    std::cout << "passes {\"pass_ref\": " << list(pass_refs) << ", \"cpu_ref\": "
              << list(cpu_refs) << ", \"samples_per_ref\": " << list(sample_refs)
              << ", \"wall_s\": " << list(walls) << ", \"reference_loop_s\": " << list(refs)
              << "}\n";
  } else {
    // Layer replays: the link and NoC point configurations of the
    // benchmark's own specs, plus service traffic where needed.
    tracer.set_enabled(true);
    tracer.set_run(kReplayRun);
    const int replay = tracer.open("bench.replay");
    ReplayCounts counts;
    const auto parse_one = [&](Workload from) {
      const SpecFile f = generate_specs(from, a.seed, sizes).front();
      return oci::scenario::parse_spec_text(f.text, f.stem);
    };
    replay_link(parse_one(Workload::kLinkWindows), ReplaySizes::full(), tracer, replay, counts);
    replay_net(parse_one(Workload::kNocScale), ReplaySizes::full(), tracer, replay, counts);
    service_replay(a.tmp + "/service", a.seed, fp.threads, tracer, replay, ledger);
    tracer.close(replay);
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.spans();
    const std::vector<std::vector<int>> children = children_of(spans);

    std::set<std::string> replayed;
    const auto pick_noting = [&](const std::string& name) {
      bool from_replay = false;
      std::vector<Span> out = pick(spans, name, &from_replay);
      if (from_replay) replayed.insert(name);
      return out;
    };
    const std::vector<Span> saves = pick_noting("store.save");
    const std::vector<Span> loads = pick_noting("store.load");
    const double hits = static_cast<double>(tagged(loads, "hit").size());
    std::map<std::uint64_t, double> run_self;
    for (const Span& s : pick_noting("scenario.run")) run_self[s.run_id] += self_time_s(s, spans, children);
    std::vector<double> run_self_ms;
    for (const auto& [run, self] : run_self) run_self_ms.push_back(self * 1e3);
    double parse_s = 0.0;
    for (const Span& s : spans) {
      if (s.name == "scenario.parse" && s.run_id == kSetupRun) parse_s += s.end_s - s.start_s;
    }
    const auto link_ms = [&](const char* name) {
      return median(durations(pick(spans, name), 1e3));
    };
    const auto per_window_ns = [&](const char* name) {
      return median(durations(pick(spans, name), 1e9, true));
    };
    const std::vector<Span> blocks = pick(spans, "net.block");
    std::map<std::string, double> slot_ns;
    for (const char* dies : {"64", "1024"}) {
      for (const char* mac : {"cac", "tdma", "token"}) {
        const std::string key = std::string(dies) + "." + mac;
        slot_ns[key] = median(durations(tagged(blocks, key), 1e9, true));
      }
    }
    const double small = slot_ns["64.cac"] + slot_ns["64.tdma"] + slot_ns["64.token"];
    const double large = slot_ns["1024.cac"] + slot_ns["1024.tdma"] + slot_ns["1024.token"];
    const double kernel_ns = per_window_ns("link.kernel");
    const double symbol_ns = per_window_ns("link.symbol");

    metrics = {
        {"scenario.store_save_us_p50", quantile(durations(saves, 1e6), 0.5), "us"},
        {"scenario.store_save_us_p99", quantile(durations(saves, 1e6), 0.99), "us"},
        {"scenario.store_load_us_p50", quantile(durations(loads, 1e6), 0.5), "us"},
        {"scenario.store_load_us_p99", quantile(durations(loads, 1e6), 0.99), "us"},
        {"scenario.store_hit_frac", loads.empty() ? 0.0 : hits / static_cast<double>(loads.size()), "fraction"},
        {"scenario.report_save_ms", median(durations(pick_noting("report.save"), 1e3)), "ms"},
        {"scenario.report_load_ms", median(durations(pick_noting("report.load"), 1e3)), "ms"},
        {"scenario.merge_ms", median(durations(pick_noting("scenario.merge"), 1e3)), "ms"},
        {"scenario.run_self_ms", median(run_self_ms), "ms"},
        {"scenario.chunks", static_cast<double>(chunks), "count"},
        {"scenario.parse_ms", parse_s * 1e3, "ms"},
        {"sim.busy_frac", median(busy), "fraction"},
        {"link.construct_ms", link_ms("link.construct"), "ms"},
        {"link.calibrate_ms", link_ms("link.calibrate"), "ms"},
        {"link.measure_ns_per_window", per_window_ns("link.measure"), "ns"},
        {"link.kernel_ns_per_window", kernel_ns, "ns"},
        {"link.symbol_ns_per_window", symbol_ns, "ns"},
        {"link.batch_speedup", kernel_ns > 0.0 ? symbol_ns / kernel_ns : 0.0, "ratio"},
        {"link.rng_draws_per_window", counts.link_rng_draws_per_window, "count"},
    };
    for (const auto& [key, ns] : slot_ns) metrics.push_back({"net.slot_ns." + key, ns, "ns"});
    metrics.push_back({"net.slot_cost_ratio", small > 0.0 ? large / small : 0.0, "ratio"});
    for (const auto& [dies, per_slot] : counts.net_rng_draws_per_slot) {
      metrics.push_back({"net.rng_draws_per_slot." + std::to_string(dies), per_slot, "count"});
    }
    metrics.push_back(
        {"net.alloc_ms.1024", median(durations(tagged(pick(spans, "net.alloc"), "1024.cac"), 1e3)), "ms"});
    metrics.push_back(
        {"trace.overhead_ms", (median(traced_walls) - median(walls)) * 1e3, "ms"});

    // Self time of each span kind over the workload's traced passes.
    std::map<std::string, std::pair<double, std::size_t>> self;
    for (const Span& s : spans) {
      if (s.run_id < kFirstPassRun || s.run_id >= kReplayRun) continue;
      auto& [total, n] = self[s.name];
      total += self_time_s(s, spans, children);
      ++n;
    }
    const double traced_passes = static_cast<double>(std::max<std::size_t>(traced_walls.size(), 1));
    std::cout << "self time per traced pass (ms):\n";
    for (const auto& [name, v] : self) {
      std::cout << "  " << name << "  " << num(v.first * 1e3 / traced_passes) << "  ("
                << v.second << " spans)\n";
    }
    if (!replayed.empty()) {
      std::cout << "from the service replay (the workload never calls them):";
      for (const std::string& n : replayed) std::cout << " " << n;
      std::cout << "\n";
    }
    const std::string trace_path = a.out + "/" + to_string(w) + "-seed" + std::to_string(a.seed) + ".spans.jsonl";
    write_spans(trace_path, fp.json(), spans);
    std::cout << "spans " << spans.size() << " written to " << trace_path << "\n";
  }

  for (const std::string& f : ledger.failures) std::cout << "FAILED " << f << "\n";
  std::cout << "failed_frac " << num(static_cast<double>(ledger.failed) /
                                     static_cast<double>(std::max<std::uint64_t>(ledger.attempted, 1)))
            << " (" << ledger.failed << " of " << ledger.attempted << " operations)\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << result_json(ledger, metrics) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_s();  // epoch: set-up time counts from here
  try {
    const Args a = parse_args(argc, argv);
    reject_overrides();
    // A store left by an earlier run would turn cold chunks into hits.
    if (fs::exists(a.tmp)) throw std::runtime_error("--tmp " + a.tmp + " already exists");
    Fingerprint fp;
    fp.git_sha = a.git_sha;
    fp.source_sha = a.source_sha;
    if (a.selftest) return run_selftest(a.tmp, fp.threads);
    return run_benchmark(a, fp);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

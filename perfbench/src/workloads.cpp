#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "oci/scenario/merge.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/serialize.hpp"

namespace perfbench {

namespace sc = oci::scenario;

namespace {

/// splitmix64 finaliser: per-scenario seeds derived from the one
/// --seed argument.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 16;  // keep seeds readable in reports
}

/// The paper's receiver chain at 8 bits/symbol (~208 ps PPM slots).
const char* const kPaperChain =
    "bits_per_symbol       = 8\n"
    "channel_transmittance = 0.8\n"
    "peak_power_uw         = 50\n"
    "pulse_width_ps        = 100\n"
    "dcr_hz                = 350\n"
    "calibration_samples   = 100000\n";

std::string noc_scale_text(std::uint64_t seed, const Sizes& z) {
  std::ostringstream os;
  os << "name         = perfbench_noc_scale\n"
        "topology     = stack-noc\n"
        "seed         = " << seed << "\n"
        "queue_capacity = 256\n"
        "max_attempts = 4\n"
        "offered_load = 1.4\n"
        "alloc.weight = 2\n"
        "alloc.wavelengths = 4\n"
        "alloc.frame  = 0\n"
        "alloc.rounds = 8\n"
        "samples      = " << z.noc_slots << "\n"
        "sample_floor = " << z.noc_slots << "\n"
        "repro_scaled = 0\n"
        "sweep.dies   = 64, 1024\n"
        "sweep.mac    = cac, tdma, token\n";
  return os.str();
}

std::string link_windows_text(std::uint64_t seed, const Sizes& z) {
  std::ostringstream os;
  os << "name     = perfbench_link_windows\n"
        "topology = point-to-point\n"
        "seed     = " << seed << "\n"
     << kPaperChain
     << "samples      = " << z.link_windows << "\n"
        "sample_floor = " << z.link_windows << "\n"
        "repro_scaled = 0\n"
        "sweep.jitter_ps = 40, 120, 200\n"
        "sweep.fault.dark_window_probability = 0, 0.02\n";
  return os.str();
}

// The adaptive sweeps' half-width targets are far below what max_samples
// can reach, so every point runs to max_samples: the chunk count (and
// the work a pass does) is then the same for every seed.
std::string sweep_link_text(std::uint64_t seed, const Sizes& z) {
  std::ostringstream os;
  os << "name     = perfbench_sweep_link\n"
        "topology = point-to-point\n"
        "seed     = " << seed << "\n"
     << kPaperChain
     << "samples      = " << z.sweep_link_max << "\n"
        "sample_floor = " << z.sweep_link_max << "\n"
        "repro_scaled = 0\n"
        "precision.metric      = ser\n"
        "precision.half_width  = 0.000001\n"
        "precision.chunk       = " << z.sweep_link_chunk << "\n"
        "precision.min_samples = " << z.sweep_link_chunk << "\n"
        "precision.max_samples = " << z.sweep_link_max << "\n"
        "sweep.jitter_ps = 40, 80, 120, 160, 200\n";
  return os.str();
}

std::string sweep_noc_text(std::uint64_t seed, const Sizes& z) {
  std::ostringstream os;
  os << "name     = perfbench_sweep_noc\n"
        "topology = stack-noc\n"
        "seed     = " << seed << "\n"
        "dies           = 8\n"
        "queue_capacity = 512\n"
        "max_attempts   = 4\n"
        "samples      = " << z.sweep_noc_max << "\n"
        "sample_floor = " << z.sweep_noc_max << "\n"
        "repro_scaled = 0\n"
        "precision.metric      = carried_load\n"
        "precision.half_width  = 0.000001\n"
        "precision.chunk       = " << z.sweep_noc_chunk << "\n"
        "precision.min_samples = " << z.sweep_noc_chunk << "\n"
        "precision.max_samples = " << z.sweep_noc_max << "\n"
        "sweep.offered_load = linear(0.2, 1.2, 6)\n"
        "sweep.mac          = tdma, token, aloha\n";
  return os.str();
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double metric_at(const sc::RunReport& r, const std::string& label, const std::string& name) {
  const sc::RunPoint* p = r.find(label);
  if (p == nullptr) throw std::runtime_error("perfbench: report has no point " + label);
  return r.metric(*p, name);
}

}  // namespace

std::optional<Workload> workload_from_name(const std::string& name) {
  for (const Workload w : {Workload::kNocScale, Workload::kLinkWindows,
                           Workload::kSweepCold, Workload::kSweepWarm}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kNocScale:
      return "noc_scale";
    case Workload::kLinkWindows:
      return "link_windows";
    case Workload::kSweepCold:
      return "sweep_cold";
    case Workload::kSweepWarm:
      return "sweep_warm";
  }
  return "unknown";
}

sc::ScenarioSpec point_spec(const sc::ScenarioSpec& base, std::size_t index) {
  sc::ScenarioSpec s = base;
  for (std::size_t a = base.sweep.size(); a-- > 0;) {
    const std::size_t n = base.sweep[a].size();
    sc::apply_axis_value(s, base.sweep[a], index % n);
    index /= n;
  }
  return s;
}

bool uses_store(Workload w) {
  return w == Workload::kSweepCold || w == Workload::kSweepWarm;
}

Sizes Sizes::full() {
  Sizes z;
  z.noc_slots = 2500;
  z.link_windows = 50000;
  z.sweep_link_chunk = 500;
  z.sweep_link_max = 2500;
  z.sweep_noc_chunk = 200;
  z.sweep_noc_max = 2400;
  return z;
}

Sizes Sizes::tiny() {
  Sizes z;
  z.noc_slots = 300;
  z.link_windows = 2000;
  z.sweep_link_chunk = 100;
  z.sweep_link_max = 300;
  z.sweep_noc_chunk = 50;
  z.sweep_noc_max = 200;
  return z;
}

std::vector<SpecFile> generate_specs(Workload w, std::uint64_t seed, const Sizes& sizes) {
  switch (w) {
    case Workload::kNocScale:
      return {{"noc_scale", noc_scale_text(mix(seed, 1), sizes)}};
    case Workload::kLinkWindows:
      return {{"link_windows", link_windows_text(mix(seed, 2), sizes)}};
    case Workload::kSweepCold:
    case Workload::kSweepWarm:
      return {{"sweep_link", sweep_link_text(mix(seed, 3), sizes)},
              {"sweep_noc", sweep_noc_text(mix(seed, 4), sizes)}};
  }
  return {};
}

std::vector<Job> prepare(const std::vector<SpecFile>& files, const std::string& dir,
                         Tracer& tracer, int parent) {
  std::vector<Job> jobs;
  for (const SpecFile& f : files) {
    Job job;
    job.stem = f.stem;
    job.spec_path = dir + "/" + f.stem + ".spec";
    job.report_path = dir + "/" + f.stem + ".report.json";
    {
      std::ofstream os(job.spec_path);
      os << f.text;
      if (!os) throw std::runtime_error("perfbench: cannot write " + job.spec_path);
    }
    const ScopedSpan span(tracer, "scenario.parse", parent);
    job.spec = sc::parse_spec_file(job.spec_path);
    job.spec.validate();
    job.hash = sc::spec_hash(job.spec);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void Ledger::check(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }

void Ledger::add(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                 const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    failures.push_back(what + " (" + std::to_string(failed_ops) + " of " +
                       std::to_string(attempted_ops) + ")");
  }
}

PassResult run_pass(const std::vector<Job>& jobs, const PassEnv& env) {
  Tracer& tracer = *env.tracer;
  const sc::ScenarioRunner runner(env.threads);
  std::optional<sc::FsResultStore> fs;
  std::optional<TimingStore> timed;
  const sc::ResultStore* store = nullptr;
  if (!env.store_root.empty()) {
    fs.emplace(env.store_root);
    store = &*fs;
    if (tracer.enabled()) {
      timed.emplace(*fs, tracer);
      store = &*timed;
    }
  }
  const auto run = [&](const Job& job, sc::ShardSpec shard, PassResult& out) {
    const int span = tracer.open("scenario.run", env.parent);
    if (timed) timed->set_parent(span);
    const double t0 = now_s();
    sc::RunReport r = runner.run(job.spec, sc::RunOptions{store, shard});
    out.run_wall_s += now_s() - t0;
    tracer.close(span, shard.active() ? "shard" : "");
    for (const sc::RunPoint& p : r.points) {
      out.samples += p.samples;
      out.point_wall_s += p.wall_ns * 1e-9;
    }
    return r;
  };

  PassResult out;
  const double t0 = now_s();
  const double c0 = cpu_s();
  for (const Job& job : jobs) {
    out.reports.push_back(run(job, sc::ShardSpec{}, out));
    for (const sc::RunPoint& p : out.reports.back().points) out.chunks += p.chunks;
    {
      const ScopedSpan span(tracer, "report.save", env.parent);
      sc::report_io::save(out.reports.back(), job.report_path);
    }
    if (env.workload != Workload::kSweepWarm) continue;
    std::vector<sc::RunReport> shards;
    shards.push_back(run(job, sc::ShardSpec{0, 2}, out));
    shards.push_back(run(job, sc::ShardSpec{1, 2}, out));
    {
      const ScopedSpan span(tracer, "scenario.merge", env.parent);
      out.merged.push_back(sc::merge_reports(shards));
    }
    {
      const ScopedSpan span(tracer, "report.load", env.parent);
      out.reloaded.push_back(sc::report_io::load(job.report_path));
    }
  }
  out.wall_s = now_s() - t0;
  out.cpu_s = cpu_s() - c0;
  return out;
}

std::string deterministic_text(const sc::RunReport& r) {
  std::ostringstream os;
  os << r.scenario << " " << r.spec_hash << " seed=" << r.seed << " points_total="
     << r.points_total << "\n";
  for (const auto& a : r.axis_names) os << "axis " << a << "\n";
  for (std::size_t m = 0; m < r.metric_names.size(); ++m) {
    os << "metric " << r.metric_names[m] << " "
       << (m < r.metric_kinds.size() ? sc::to_string(r.metric_kinds[m]) : "?") << "\n";
  }
  for (const sc::RunPoint& p : r.points) {
    os << "point " << p.point_index << " " << p.label(r.axis_names) << " samples="
       << p.samples << " chunks=" << p.chunks << " rng_draws=" << p.rng_draws << "\n";
    for (std::size_t m = 0; m < p.metrics.size(); ++m) {
      os << " " << fmt17(p.metrics[m]);
      if (m < p.estimates.size()) {
        const auto& e = p.estimates[m];
        os << " [" << fmt17(e.ci_low) << " " << fmt17(e.ci_high) << " " << e.n_samples
           << "]";
      }
      if (m < p.rates.size()) {
        os << " r" << fmt17(p.rates[m].successes()) << "/" << p.rates[m].trials();
      }
      if (m < p.means.size()) {
        os << " m" << p.means[m].chunks() << ":" << fmt17(p.means[m].mean()) << ":"
           << fmt17(p.means[m].batch_m2());
      }
      if (m < p.sums.size()) os << " s" << fmt17(p.sums[m]);
      os << "\n";
    }
  }
  return os.str();
}

std::string digest(const sc::RunReport& report) {
  return sc::sha256_hex(deterministic_text(report)).substr(0, 16);
}

void check_points(const Job& job, const sc::RunReport& report, Ledger& ledger) {
  std::uint64_t bad = 0;
  std::string first;
  for (const sc::RunPoint& p : report.points) {
    const sc::ScenarioSpec s = point_spec(job.spec, p.point_index);
    std::string why;
    if (s.precision.enabled) {
      const std::uint64_t lo = s.precision.resolve_min(s.budget);
      const std::uint64_t hi = s.precision.resolve_max(s.budget);
      if (p.samples < lo || p.samples > hi) {
        why = "samples outside [min, max]";
      } else if (p.samples != hi) {
        why = "adaptive point stopped before max_samples";
      }
    } else if (p.samples != s.budget.resolve()) {
      why = "samples != resolved budget";
    }
    if (p.metrics.size() != report.metric_names.size()) why = "metric count";
    for (std::size_t m = 0; m < p.metrics.size() && why.empty(); ++m) {
      const double v = p.metrics[m];
      if (!std::isfinite(v)) why = report.metric_names[m] + " not finite";
      if (m < report.metric_kinds.size() &&
          report.metric_kinds[m] == sc::MetricKind::kRate && (v < 0.0 || v > 1.0)) {
        why = report.metric_names[m] + " rate outside [0, 1]";
      }
    }
    if (!why.empty()) {
      ++bad;
      if (first.empty()) first = p.label(report.axis_names) + ": " + why;
    }
  }
  ledger.add(report.points.size(), bad, job.stem + " point checks, first: " + first);
}

void check_pass(Workload w, const std::vector<Job>& jobs, const PassResult& pass,
                const std::vector<sc::RunReport>& cold, Ledger& ledger) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sc::RunReport& r = pass.reports[j];
    check_points(jobs[j], r, ledger);
    const std::string& stem = jobs[j].stem;
    switch (w) {
      case Workload::kNocScale:
        ledger.check(metric_at(r, "dies=1024/mac=cac", "carried_load") >
                         metric_at(r, "dies=1024/mac=tdma", "carried_load"),
                     stem + ": CAC carried_load above TDMA at 1024 dies");
        break;
      case Workload::kLinkWindows:
        for (const char* dark : {"0", "0.02"}) {
          const std::string f = "/fault.dark_window_probability=" + std::string(dark);
          ledger.check(metric_at(r, "jitter_ps=200" + f, "ser") >
                           metric_at(r, "jitter_ps=40" + f, "ser"),
                       stem + ": SER at 200 ps above SER at 40 ps" + f);
        }
        break;
      case Workload::kSweepCold: {
        // A fresh store: every chunk misses and is saved.
        std::uint64_t chunks = 0;
        for (const sc::RunPoint& p : r.points) chunks += p.chunks;
        ledger.check(r.cache_hits == 0 && r.cache_misses == chunks,
                     stem + ": cold run misses every chunk");
        ledger.add(r.cache_misses, r.cache_save_failures, stem + ": store saves");
        break;
      }
      case Workload::kSweepWarm: {
        std::uint64_t expected = 0;
        for (const sc::RunPoint& p : cold.at(j).points) expected += p.chunks;
        // A chunk that was not served is a miss (absent, torn or
        // corrupt entries read as misses and are re-simulated).
        const std::uint64_t missing =
            std::max(expected - std::min(r.cache_hits, expected), r.cache_misses);
        ledger.add(expected, std::min(expected, missing), stem + ": warm chunk hits");
        ledger.check(r.cache_save_failures == 0, stem + ": no save failures");
        const std::string det = deterministic_text(r);
        ledger.check(det == deterministic_text(cold.at(j)),
                     stem + ": warm report identical to cold");
        ledger.check(deterministic_text(pass.merged.at(j)) == det,
                     stem + ": shard 0/2 + 1/2 merge equals the unsharded report");
        ledger.check(deterministic_text(pass.reloaded.at(j)) == det,
                     stem + ": report_io load(save(r)) == r");
        break;
      }
    }
  }
}

}  // namespace perfbench

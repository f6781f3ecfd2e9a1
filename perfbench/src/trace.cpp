#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {
/// The reference loop's results land here so they are not optimised away.
volatile std::uint64_t reference_sink = 0;
}  // namespace

double reference_loop_s() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << 19);  // 2 MiB
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i * 2654435761U);
    return v;
  }();
  static std::vector<float> acc(4096, 1.0F);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sum = 0;
  const double t0 = now_s();
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[x & (table.size() - 1)];
  }
  for (int r = 0; r < 200; ++r) {
    for (float& a : acc) a = a * 0.999F + 0.5F;
  }
  const double t = now_s() - t0;
  reference_sink = sum + static_cast<std::uint64_t>(acc[x & (acc.size() - 1)]);
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int Tracer::open(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const double t = now_s();
  const std::lock_guard lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, t, t, id, parent, run_id_, {}, 0});
  return id;
}

void Tracer::close(int id, const std::string& tag, std::uint64_t count) {
  if (id < 0) return;
  const double t = now_s();
  const std::lock_guard lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_s = t;
  if (!tag.empty()) s.tag = tag;
  s.count = count;
}

int Tracer::record(const std::string& name, double start_s, double end_s, int parent,
                   const std::string& tag, std::uint64_t count) {
  if (!enabled_) return -1;
  const std::lock_guard lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start_s, end_s, id, parent, run_id_, tag, count});
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::optional<oci::scenario::ChunkRecord> TimingStore::load(
    const oci::scenario::ChunkKey& key) const {
  const double t0 = now_s();
  auto rec = inner_.load(key);
  tracer_.record("store.load", t0, now_s(), parent_.load(), rec ? "hit" : "miss");
  return rec;
}

bool TimingStore::save(const oci::scenario::ChunkKey& key,
                       const oci::scenario::ChunkRecord& record) const {
  const double t0 = now_s();
  const bool ok = inner_.save(key, record);
  tracer_.record("store.save", t0, now_s(), parent_.load(), ok ? "ok" : "fail");
  return ok;
}

std::vector<std::vector<int>> children_of(const std::vector<Span>& all) {
  std::vector<std::vector<int>> out(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) out.at(static_cast<std::size_t>(s.parent)).push_back(s.id);
  }
  return out;
}

double self_time_s(const Span& span, const std::vector<Span>& all,
                   const std::vector<std::vector<int>>& children) {
  std::vector<std::pair<double, double>> cover;
  for (const int child : children.at(static_cast<std::size_t>(span.id))) {
    const Span& s = all[static_cast<std::size_t>(child)];
    const double a = std::max(s.start_s, span.start_s);
    const double b = std::min(s.end_s, span.end_s);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = span.start_s;
  for (const auto& [a, b] : cover) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return (span.end_s - span.start_s) - covered;
}

void write_spans(const std::string& path, const std::string& meta_json,
                 const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write trace '" + path + "'");
  os.precision(9);
  os << "{\"meta\": " << meta_json << "}\n";
  for (const Span& s : spans) {
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"run\": " << s.run_id
       << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
       << ", \"end_s\": " << s.end_s << ", \"tag\": \"" << s.tag
       << "\", \"count\": " << s.count << "}\n";
  }
}

}  // namespace perfbench

// In-memory span recorder and the timing ResultStore decorator used by
// the benchmark's traced runs. Spans are kept in memory and written
// once, when the run ends; nothing here touches the library's own code
// paths -- spans wrap calls INTO the oci layers from the outside.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "oci/scenario/store.hpp"

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
[[nodiscard]] double now_s();

/// User + system CPU seconds consumed by the whole process so far.
[[nodiscard]] double cpu_s();

/// High-water resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Wall seconds of one run of a fixed reference loop (~2 ms: integer
/// hashing, random reads over a 2 MiB table, a vectorisable float
/// loop). It calls no oci code, so only the machine's momentary pace
/// moves it; pass times are reported in multiples of it.
[[nodiscard]] double reference_loop_s();

/// Median and linear-interpolated quantile of a sample (q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = -1;
  int parent = -1;           ///< id of the causing span, -1 at the root
  std::uint64_t run_id = 0;  ///< shared by every span of one workload run
  std::string tag;           ///< outcome detail ("hit", "miss", "fail", ...)
  std::uint64_t count = 0;   ///< work items the span covers (windows, slots)
};

/// Thread-safe span sink. Disabled tracers record nothing, so the same
/// code path serves traced and untraced passes.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(std::uint64_t run_id) { run_id_ = run_id; }

  /// Opens a span and returns its id (-1 when disabled).
  int open(const std::string& name, int parent = -1);
  /// Closes span `id`, optionally tagging its outcome and work count.
  /// No-op for -1.
  void close(int id, const std::string& tag = {}, std::uint64_t count = 0);
  /// Records an already-timed span in one call (-1 when disabled).
  int record(const std::string& name, double start_s, double end_s, int parent,
             const std::string& tag = {}, std::uint64_t count = 0);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool enabled_ = false;
  std::uint64_t run_id_ = 0;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// ResultStore decorator: forwards to `inner` and records one span per
/// load ("store.load", tagged hit/miss) and save ("store.save", tagged
/// ok/fail), parented to the span set by set_parent(). Safe for the
/// runner's concurrent worker threads.
class TimingStore final : public oci::scenario::ResultStore {
 public:
  TimingStore(const oci::scenario::ResultStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_parent(int span_id) { parent_.store(span_id); }

  [[nodiscard]] std::optional<oci::scenario::ChunkRecord> load(
      const oci::scenario::ChunkKey& key) const override;
  bool save(const oci::scenario::ChunkKey& key,
            const oci::scenario::ChunkRecord& record) const override;

 private:
  const oci::scenario::ResultStore& inner_;
  Tracer& tracer_;
  std::atomic<int> parent_{-1};
};

/// Child span ids of every span, indexed by span id (ids are positions
/// in Tracer::spans()).
[[nodiscard]] std::vector<std::vector<int>> children_of(const std::vector<Span>& all);

/// A span's duration minus the part of it its children cover (children
/// may overlap each other -- worker threads -- so the union is taken).
[[nodiscard]] double self_time_s(const Span& span, const std::vector<Span>& all,
                                 const std::vector<std::vector<int>>& children);

/// Writes every span as one JSON object per line, preceded by a header
/// line carrying `meta_json` (an object literal).
void write_spans(const std::string& path, const std::string& meta_json,
                 const std::vector<Span>& spans);

}  // namespace perfbench

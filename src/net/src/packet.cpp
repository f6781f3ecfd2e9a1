#include "oci/net/packet.hpp"

#include <algorithm>

namespace oci::net {

namespace {

double nearest_rank(std::span<const double> sorted, double quantile) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(quantile * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

LatencySummary summarize_latencies(std::span<double> latencies) {
  LatencySummary s;
  s.samples = latencies.size();
  if (latencies.empty()) return s;
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (const double v : latencies) sum += v;
  s.mean_slots = sum / static_cast<double>(latencies.size());
  s.p50_slots = nearest_rank(latencies, 0.50);
  s.p95_slots = nearest_rank(latencies, 0.95);
  s.p99_slots = nearest_rank(latencies, 0.99);
  s.max_slots = latencies.back();
  return s;
}

}  // namespace oci::net

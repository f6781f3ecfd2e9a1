#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/mac.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/util/batch_rng.hpp"
#include "oci/util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = oci::scenario;
using oci::util::RngStream;
using oci::util::Time;

namespace {

/// Every point of a spec's sweep, axes applied.
std::vector<sc::ScenarioSpec> points_of(const sc::ScenarioSpec& base) {
  std::vector<sc::ScenarioSpec> out;
  for (std::size_t i = 0; i < base.sweep_points(); ++i) out.push_back(point_spec(base, i));
  return out;
}

/// Runs `fn` and records it as one span.
template <typename Fn>
void timed(Tracer& tracer, const char* name, int parent, const std::string& tag,
           std::uint64_t count, Fn&& fn) {
  const double t0 = now_s();
  fn();
  tracer.record(name, t0, now_s(), parent, tag, count);
}

std::string jitter_tag(const sc::ScenarioSpec& s) {
  return "jitter_ps=" + sc::format_axis_value(s.device.spad.jitter_sigma.picoseconds());
}

void replay_clean_link(const sc::ScenarioSpec& s, const ReplaySizes& z, Tracer& tracer,
                       int parent, std::uint64_t& draws, std::uint64_t& windows) {
  namespace link = oci::link;
  const std::string tag = jitter_tag(s);
  link::OpticalLinkConfig cfg = s.device;
  cfg.calibrate = false;
  RngStream process(s.seed, "perfbench-link/" + tag);
  for (int r = 0; r < z.link_reps; ++r) {
    timed(tracer, "link.construct", parent, tag, 1,
          [&] { const link::OpticalLink probe(cfg, process); (void)probe; });
  }
  link::OpticalLink lk(cfg, process);
  for (int r = 0; r < z.link_reps; ++r) {
    timed(tracer, "link.calibrate", parent, tag, s.device.calibration_samples,
          [&] { lk.recalibrate(s.device.calibration_samples, process); });
  }
  for (int r = 0; r < z.link_reps; ++r) {
    RngStream tx(s.seed, "perfbench-measure/" + std::to_string(r));
    timed(tracer, "link.measure", parent, tag, z.windows,
          [&] { (void)lk.measure(z.windows, tx); });
  }

  // The kernel alone: simulate_windows over 256-lane spans of windows
  // whose pulse starts are random PPM symbols.
  const link::LinkEngine engine(lk);
  const oci::util::BatchRngStream lanes(s.seed, "perfbench-windows");
  oci::util::CounterRng symbols(
      oci::util::BatchRngStream(s.seed, "perfbench-symbols").lane_key(0));
  const std::uint64_t mask = lk.ppm().slot_count() - 1;
  std::vector<link::WindowResult> ws(z.windows);
  for (auto& w : ws) w.pulse_start_s = lk.ppm().encode(symbols.next_u64() & mask).seconds();
  link::EngineBatchScratch scratch;
  scratch.reserve(link::LinkEngine::kEngineBatch);
  for (int r = 0; r < z.link_reps; ++r) {
    timed(tracer, "link.kernel", parent, tag, z.windows, [&] {
      for (std::size_t off = 0; off < ws.size(); off += link::LinkEngine::kEngineBatch) {
        const std::size_t n = std::min(link::LinkEngine::kEngineBatch, ws.size() - off);
        engine.simulate_windows(std::span<link::WindowResult>(ws.data() + off, n), lanes,
                                scratch, off);
      }
    });
  }
  for (const auto& w : ws) draws += w.rng_draws;
  windows += ws.size();
}

void replay_symbol_loop(const sc::ScenarioSpec& s, const ReplaySizes& z, Tracer& tracer,
                        int parent) {
  namespace link = oci::link;
  const std::string tag = jitter_tag(s);
  link::OpticalLinkConfig cfg = s.device;
  cfg.calibrate = false;
  RngStream process(s.seed, "perfbench-link/" + tag);
  const link::OpticalLink lk(cfg, process);
  const link::LinkEngine engine(lk);
  const double dark = s.fault.dark_window_probability;
  const auto max_symbol = static_cast<std::int64_t>(lk.ppm().slot_count()) - 1;
  for (int r = 0; r < z.link_reps; ++r) {
    RngStream tx(s.seed, "perfbench-symbol/" + std::to_string(r));
    RngStream wf(s.seed, "perfbench-dark/" + std::to_string(r));
    link::LinkRunStats stats;
    timed(tracer, "link.symbol", parent, tag, z.symbol_windows, [&] {
      Time dead_until = Time::zero();
      Time start = Time::zero();
      for (std::uint64_t i = 0; i < z.symbol_windows; ++i) {
        const auto symbol = static_cast<std::uint64_t>(tx.uniform_int(0, max_symbol));
        const double scale = wf.uniform() < dark ? 0.0 : 1.0;
        (void)engine.transmit_symbol(symbol, start, scale, dead_until, stats, tx);
        start = start + lk.symbol_period();
      }
    });
  }
}

std::unique_ptr<oci::net::MacPolicy> make_mac(const sc::NocSpec& n, RngStream& alloc_rng,
                                              Tracer& tracer, int parent,
                                              const std::string& tag) {
  namespace net = oci::net;
  if (n.mac == "tdma") {
    return std::make_unique<net::TdmaMac>(oci::bus::TdmaSchedule::equal(n.dies));
  }
  if (n.mac == "token") return std::make_unique<net::TokenMac>(n.dies, 0);
  if (n.mac != "cac") throw std::invalid_argument("perfbench: no replay for mac " + n.mac);
  net::cac::AllocConfig ac;
  ac.nodes = n.dies;
  ac.wavelengths = std::min(n.alloc_wavelengths, n.dies);
  ac.weight = n.alloc_weight;
  ac.frame = n.alloc_frame;
  ac.rounds = n.alloc_rounds;
  const net::cac::DistributedAllocator allocator(ac);
  net::cac::Allocation a;
  timed(tracer, "net.alloc", parent, tag, n.dies, [&] { a = allocator.allocate(alloc_rng); });
  return std::make_unique<net::CacMac>(std::move(a));
}

}  // namespace

ReplaySizes ReplaySizes::full() {
  ReplaySizes z;
  z.windows = 32768;
  z.symbol_windows = 16384;
  z.link_reps = 5;
  z.warm_slots = 2048;
  z.block_slots_small = 4096;
  z.block_slots_large = 256;
  z.blocks = 12;
  z.alloc_reps = 4;
  return z;
}

ReplaySizes ReplaySizes::tiny() {
  ReplaySizes z;
  z.windows = 512;
  z.symbol_windows = 256;
  z.link_reps = 2;
  z.warm_slots = 64;
  z.block_slots_small = 64;
  z.block_slots_large = 16;
  z.blocks = 2;
  z.alloc_reps = 1;
  return z;
}

void replay_link(const sc::ScenarioSpec& spec, const ReplaySizes& sizes, Tracer& tracer,
                 int parent, ReplayCounts& counts) {
  std::uint64_t draws = 0;
  std::uint64_t windows = 0;
  for (const sc::ScenarioSpec& s : points_of(spec)) {
    if (s.fault.dark_window_probability > 0.0) {
      replay_symbol_loop(s, sizes, tracer, parent);
    } else {
      replay_clean_link(s, sizes, tracer, parent, draws, windows);
    }
  }
  counts.link_rng_draws_per_window =
      static_cast<double>(draws) / static_cast<double>(std::max<std::uint64_t>(windows, 1));
}

void replay_net(const sc::ScenarioSpec& spec, const ReplaySizes& sizes, Tracer& tracer,
                int parent, ReplayCounts& counts) {
  namespace net = oci::net;
  std::size_t largest = 0;
  for (const sc::ScenarioSpec& s : points_of(spec)) {
    const sc::NocSpec& n = s.noc;
    largest = std::max(largest, n.dies);
    const std::string tag = std::to_string(n.dies) + "." + n.mac;
    net::StackNetworkConfig cfg;
    cfg.dies = n.dies;
    cfg.traffic.resize(n.dies);
    for (auto& t : cfg.traffic) {
      t.packets_per_slot = n.offered_load / static_cast<double>(n.dies);
      t.uniform_destinations = true;
      t.payload_bytes = n.payload_bytes;
    }
    cfg.queue_capacity = n.queue_capacity;
    cfg.max_attempts = n.max_attempts;
    cfg.delivery_probability = n.delivery_probability;
    RngStream alloc_rng(s.seed, "perfbench-alloc/" + tag);
    net::StackNetwork network(cfg, make_mac(n, alloc_rng, tracer, parent, tag));
    RngStream rng(s.seed, "perfbench-net/" + tag);
    (void)network.run(sizes.warm_slots, rng);
    const std::uint64_t block =
        n.dies > 64 ? sizes.block_slots_large : sizes.block_slots_small;
    const std::uint64_t draws0 = rng.draws();
    for (int b = 0; b < sizes.blocks; ++b) {
      timed(tracer, "net.block", parent, tag, block, [&] { (void)network.run(block, rng); });
    }
    if (n.mac == "tdma") {
      counts.net_rng_draws_per_slot[n.dies] =
          static_cast<double>(rng.draws() - draws0) /
          static_cast<double>(block * static_cast<std::uint64_t>(sizes.blocks));
    }
  }
  // Extra allocation passes at the largest size, for a steadier median.
  for (const sc::ScenarioSpec& s : points_of(spec)) {
    if (s.noc.mac != "cac" || s.noc.dies != largest) continue;
    for (int r = 0; r < sizes.alloc_reps; ++r) {
      RngStream alloc_rng(s.seed, "perfbench-alloc-rep/" + std::to_string(r));
      (void)make_mac(s.noc, alloc_rng, tracer, parent, std::to_string(largest) + ".cac");
    }
  }
}

}  // namespace perfbench

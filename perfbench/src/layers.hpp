// Layer replays for the traced run. ScenarioRunner hides the link and
// NoC layers behind one dispatch call, so the traced run replays a
// workload's point configurations directly through the layers' public
// functions and records one span per timed call:
//   link.construct  OpticalLink with calibrate = false
//   link.calibrate  OpticalLink::recalibrate at the spec's sample count
//   link.measure    OpticalLink::measure (batched SIMD path)
//   link.kernel     LinkEngine::simulate_windows, 256-lane batches
//   link.symbol     LinkEngine::transmit_symbol loop (dark-window path)
//   net.alloc       cac::DistributedAllocator::allocate
//   net.block       StackNetwork::run over one block of slots
// Span counts hold the windows/slots each span covered.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "oci/scenario/spec.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplaySizes {
  std::uint64_t windows = 0;         ///< windows per measure/kernel span
  std::uint64_t symbol_windows = 0;  ///< windows per symbol-loop span
  int link_reps = 0;                 ///< spans per link call and config
  std::uint64_t warm_slots = 0;      ///< slots run before the first block
  std::uint64_t block_slots_small = 0;  ///< slots per block, 64 dies
  std::uint64_t block_slots_large = 0;  ///< slots per block, 1024 dies
  int blocks = 0;                    ///< timed blocks per NoC config
  int alloc_reps = 0;                ///< extra allocate() calls at the largest size

  [[nodiscard]] static ReplaySizes full();
  [[nodiscard]] static ReplaySizes tiny();
};

/// Deterministic work counts of a replay (a pure function of the specs
/// and sizes): the exact-count per-layer metrics.
struct ReplayCounts {
  double link_rng_draws_per_window = 0.0;
  /// RNG draws per slot of the TDMA configuration, keyed by die count.
  std::map<std::size_t, double> net_rng_draws_per_slot;
};

/// Replays every jitter point of a link_windows spec (the clean points'
/// device; the symbol loop draws dark windows at the spec's faulted
/// probability, like the runner's faulted points).
void replay_link(const oci::scenario::ScenarioSpec& spec, const ReplaySizes& sizes,
                 Tracer& tracer, int parent, ReplayCounts& counts);

/// Replays every (dies, mac) point of a noc_scale spec in slot blocks
/// (StackNetwork::run warm-restarts between blocks).
void replay_net(const oci::scenario::ScenarioSpec& spec, const ReplaySizes& sizes,
                Tracer& tracer, int parent, ReplayCounts& counts);

}  // namespace perfbench

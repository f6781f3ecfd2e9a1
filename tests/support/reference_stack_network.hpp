// Reference slot loop for net::StackNetwork: the per-die arrival
// process the production loop replaced, kept as a statistical oracle.
//
// Every live die with a positive rate takes its own Poisson draw each
// slot, in die order, and the backlog flags are rebuilt from the
// queues before each arbitration -- O(dies) per slot, but a direct
// transcription of the model. The production loop draws one superposed
// Poisson stream and attributes packets through an alias table, so the
// two consume their RNG streams differently; tests compare them with
// two-sample z-tests (stat_assert.hpp), never draw for draw. Queueing,
// arbitration, retry and delivery rules are the same as production.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "oci/net/mac.hpp"
#include "oci/net/packet.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/util/random.hpp"

namespace oci::test {

inline net::NetworkRunResult run_reference_network(const net::StackNetworkConfig& cfg,
                                                   net::MacPolicy& mac, std::uint64_t slots,
                                                   util::RngStream& rng) {
  const std::size_t dies = cfg.dies;
  const auto dead = [&](std::size_t die) {
    return !cfg.dead_nodes.empty() && cfg.dead_nodes[die] != 0;
  };
  const auto broken = [&](std::size_t src, std::size_t dst) {
    return !cfg.broken_links.empty() && cfg.broken_links[src * dies + dst] != 0;
  };
  const bool exclude_dead = cfg.reroute_dead_destinations && !cfg.dead_nodes.empty();

  std::vector<std::deque<net::Packet>> queues(dies);
  std::vector<bool> backlogged(dies);
  std::vector<double> latencies;
  std::vector<std::size_t> candidates;
  net::SlotOutcome outcome;
  net::NetworkRunResult result;
  result.per_die.resize(dies);
  result.slots = slots;
  result.slot_duration = cfg.slot_duration;
  std::uint64_t next_id = 0;

  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    for (std::size_t die = 0; die < dies; ++die) {
      const net::TrafficSpec& spec = cfg.traffic[die];
      if (spec.packets_per_slot <= 0.0 || dead(die)) continue;
      const std::int64_t arrivals = rng.poisson(spec.packets_per_slot);
      for (std::int64_t a = 0; a < arrivals; ++a) {
        net::DieStats& st = result.per_die[die];
        ++st.offered;
        if (queues[die].size() >= cfg.queue_capacity) {
          ++st.queue_drops;
          continue;
        }
        net::Packet p;
        p.src = die;
        if (spec.uniform_destinations && dies > 1) {
          candidates.clear();
          for (std::size_t other = 0; other < dies; ++other) {
            if (other != die && !(exclude_dead && dead(other))) candidates.push_back(other);
          }
          if (candidates.empty()) {
            ++st.queue_drops;
            continue;
          }
          p.dst = candidates[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
        } else {
          if (spec.destination != net::kBroadcast && cfg.reroute_dead_destinations &&
              dead(spec.destination)) {
            ++st.queue_drops;
            continue;
          }
          p.dst = spec.destination;
        }
        p.id = next_id++;
        p.payload_bytes = spec.payload_bytes;
        p.enqueued_slot = slot;
        queues[die].push_back(p);
      }
    }

    for (std::size_t die = 0; die < dies; ++die) backlogged[die] = !queues[die].empty();
    mac.arbitrate_slot(slot, backlogged, rng, outcome);
    if (outcome.clean.empty() && outcome.collided.empty()) {
      ++result.idle_slots;
      continue;
    }
    if (!outcome.collided.empty()) {
      ++result.collision_slots;
      for (const std::size_t die : outcome.collided) {
        auto& q = queues[die];
        if (q.empty()) continue;
        ++result.per_die[die].transmissions;
        ++result.per_die[die].collisions;
        if (++q.front().attempts >= cfg.max_attempts) {
          ++result.per_die[die].retry_drops;
          q.pop_front();
        }
      }
    }
    bool any_transfer = !outcome.collided.empty();
    for (const std::size_t die : outcome.clean) {
      auto& q = queues[die];
      if (q.empty()) continue;
      any_transfer = true;
      net::Packet& head = q.front();
      ++result.per_die[die].transmissions;
      const bool unreachable =
          head.dst != net::kBroadcast && (dead(head.dst) || broken(die, head.dst));
      const bool delivered =
          !unreachable && (cfg.delivery_model ? cfg.delivery_model(head, rng)
                                              : rng.bernoulli(cfg.delivery_probability));
      if (delivered) {
        ++result.per_die[die].delivered;
        latencies.push_back(static_cast<double>(slot - head.enqueued_slot + 1));
        q.pop_front();
      } else if (++head.attempts >= cfg.max_attempts) {
        ++result.per_die[die].retry_drops;
        q.pop_front();
      }
    }
    if (!any_transfer) ++result.idle_slots;
  }
  result.latency = net::summarize_latencies(latencies);
  return result;
}

}  // namespace oci::test

#include "oci/scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "oci/analysis/report.hpp"
#include "oci/bus/vertical_bus.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/link/fec_link.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"
#include "oci/link/wdm_link.hpp"
#include "oci/modulation/frame.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/rare/rare.hpp"
#include "oci/tdc/calibration.hpp"

namespace oci::scenario {

namespace {

using util::RngStream;
using util::Time;

/// One metric value under its schema name.
struct NamedValue {
  std::string_view name;
  double value = 0.0;
};

/// What a workload's chunk function returns: every metric value named,
/// in schema order, plus the RNG draws the chunk consumed.
struct PointResult {
  std::vector<NamedValue> metrics;
  std::uint64_t rng_draws = 0;
  /// Rare-event chunks only: per-sample likelihood-ratio weight state
  /// (sum, sum of squares) plus the squared-weight mass on SER errors.
  double weight_sum = 0.0;
  double weight_sum_sq = 0.0;
  double err_weight_sq = 0.0;
};

/// Index of the metric the stopping rule watches: the named metric, or
/// the first rate-kind metric, or the first non-constant one.
std::size_t stop_metric_index(const std::vector<MetricDef>& defs,
                              const std::string& name) {
  if (!name.empty()) {
    for (std::size_t m = 0; m < defs.size(); ++m) {
      if (defs[m].name == name) return m;
    }
  }
  for (std::size_t m = 0; m < defs.size(); ++m) {
    if (defs[m].kind == MetricKind::kRate) return m;
  }
  for (std::size_t m = 0; m < defs.size(); ++m) {
    if (defs[m].kind == MetricKind::kMean) return m;
  }
  return 0;
}

/// One-line warning the FIRST time a result-store save fails in this
/// process; every later failure only bumps the report counter. A full
/// or read-only cache degrades the run to uncached, it never fails it.
void warn_save_failure_once() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::cerr << "scenario: result-store save failed; run continues uncached "
                 "(cache_save_failures counts every failed chunk)\n";
  }
}

/// Flat sweep index -> per-axis indices, first axis slowest.
std::vector<std::size_t> unravel(std::size_t flat, const std::vector<SweepAxis>& axes) {
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    idx[a] = flat % axes[a].size();
    flat /= axes[a].size();
  }
  return idx;
}

PointResult run_p2p_symbols(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                            const fault::Realisation* fr, std::size_t point_index) {
  RngStream process = rng.fork("process");
  link::OpticalLink link(s.device, process);
  std::uint64_t fault_draws = 0;
  std::uint64_t recalibrations = 0;
  if (fr != nullptr && fr->tdc_drift_c != 0.0) {
    // The drift hits AFTER construction calibrated at the nominal
    // temperature: the delay line walks out from under the trained
    // LUT/offset -- exactly the gap set_temperature leaves open.
    link.set_temperature(
        util::Temperature::celsius(s.device.temperature.celsius() + fr->tdc_drift_c));
    if (fr->recalibrate && s.device.calibrate) {
      // Graceful degradation: retrain at the operating point.
      link.recalibrate(s.device.calibration_samples, process);
      ++recalibrations;
    }
  }
  if (s.variance.active()) {
    // Rare-event acceleration: run the chunk as i.i.d. symbol windows
    // under the tilted/stratified proposal and fold the likelihood-
    // ratio-weighted counts into the SAME metric schema -- weighted
    // rates feed RateAccumulator as fractional successes. validate()
    // restricts active variance to plain symbol traffic, so the
    // aggressor/window-fault branches below never coexist with this.
    const rare::ChunkResult cr =
        rare::run_chunk(link, s.variance, samples, point_index, rng);
    const auto n =
        static_cast<double>(std::max<std::uint64_t>(cr.stats.symbols_sent, 1));
    const auto bits = static_cast<double>(
        std::max<std::uint64_t>(cr.stats.total_bits, 1));
    const double elapsed_s = cr.stats.elapsed.seconds();
    PointResult r;
    r.metrics = {{"ser", (cr.w_symbol_errors + cr.w_erasures) / n},
                 {"ber", cr.w_bit_errors / bits},
                 {"erasure_rate", cr.w_erasures / n},
                 {"noise_capture_rate", cr.w_noise_captures / n},
                 {"slot_ps", link.ppm().config().slot_width.picoseconds()},
                 {"raw_tp_bps", cr.stats.raw_throughput().bits_per_second()},
                 {"goodput_bps",
                  elapsed_s > 0.0
                      ? (static_cast<double>(cr.stats.total_bits) - cr.w_bit_errors) /
                            elapsed_s
                      : 0.0},
                 {"energy_per_bit_j", cr.stats.energy_per_bit().joules()},
                 {"recalibrations", static_cast<double>(recalibrations)}};
    r.rng_draws = process.draws() + cr.rng_draws + fault_draws;
    r.weight_sum = cr.weights.sum();
    r.weight_sum_sq = cr.weights.sum_sq();
    r.err_weight_sq = cr.err_weight_sq;
    return r;
  }
  RngStream tx = rng.fork("tx");

  link::LinkRunStats stats;
  if (fr != nullptr && fr->window_faults()) {
    // Dark/flaky transmit windows: a per-symbol driver-health draw from
    // a dedicated stream scales the launched pulse (0 = dropped). The
    // clean batched path never sees this branch, so its draw sequence
    // is untouched.
    const link::LinkEngine engine(link);
    RngStream wf = rng.fork("window-faults");
    const auto max_symbol = static_cast<std::int64_t>(link.ppm().slot_count()) - 1;
    Time dead_until = Time::zero();
    Time start = Time::zero();
    for (std::uint64_t i = 0; i < samples; ++i) {
      const auto symbol = static_cast<std::uint64_t>(tx.uniform_int(0, max_symbol));
      const double u = wf.uniform();
      double scale = 1.0;
      if (u < fr->dark_window_probability) {
        scale = 0.0;
      } else if (u < fr->dark_window_probability + fr->flaky_window_probability) {
        scale = fr->flaky_scale;
      }
      (void)engine.transmit_symbol(symbol, start, scale, dead_until, stats, tx);
      start = start + link.symbol_period();
    }
    fault_draws = wf.draws();
  } else if (s.aggressors.empty()) {
    // Rides the batched SoA/SIMD window path: measure() hands the
    // chunk's samples to the engine in kEngineBatch-lane spans, so a
    // map_until chunk is simulated batch-by-batch by the dispatched
    // kernel. Results stay a pure function of (spec, seed) -- the
    // kernels are bit-identical across ISAs and thread counts.
    stats = link.measure(samples, tx);
  } else {
    const link::LinkEngine engine(link);
    link::EngineScratch scratch;
    std::vector<link::SourcePulse> pulses(s.aggressors.size());
    const auto max_symbol =
        static_cast<std::int64_t>(link.ppm().slot_count()) - 1;
    Time dead_until = Time::zero();
    Time start = Time::zero();
    for (std::uint64_t i = 0; i < samples; ++i) {
      const auto symbol = static_cast<std::uint64_t>(tx.uniform_int(0, max_symbol));
      for (std::size_t a = 0; a < s.aggressors.size(); ++a) {
        pulses[a] = link::SourcePulse{
            &link.led(), s.aggressors[a].mean_photons,
            start + Time::picoseconds(s.aggressors[a].offset_ps)};
      }
      (void)engine.transmit_symbol(symbol, start, pulses, dead_until, stats, tx, scratch);
      start = start + link.symbol_period();
    }
  }

  const auto sent = std::max<std::uint64_t>(stats.symbols_sent, 1);
  PointResult r;
  r.metrics = {{"ser", stats.symbol_error_rate()},
               {"ber", stats.bit_error_rate()},
               {"erasure_rate", static_cast<double>(stats.erasures) / static_cast<double>(sent)},
               {"noise_capture_rate",
                static_cast<double>(stats.noise_captures) / static_cast<double>(sent)},
               {"slot_ps", link.ppm().config().slot_width.picoseconds()},
               {"raw_tp_bps", stats.raw_throughput().bits_per_second()},
               {"goodput_bps", stats.goodput().bits_per_second()},
               {"energy_per_bit_j", stats.energy_per_bit().joules()},
               {"recalibrations", static_cast<double>(recalibrations)}};
  // Counter-stream draws of the batched engine live in stats, not in
  // the mt19937 streams; both are deterministic per (spec, seed).
  r.rng_draws = process.draws() + tx.draws() + stats.rng_draws + fault_draws;
  return r;
}

PointResult run_p2p_frames(const ScenarioSpec& s, std::uint64_t transfers, RngStream& rng,
                           const fault::Realisation* /*fr*/, std::size_t /*point_index*/) {
  RngStream process = rng.fork("process");
  const link::OpticalLink link(s.device, process);
  RngStream tx = rng.fork("tx");

  const std::vector<std::uint8_t> payload(s.payload_bytes, 0x5A);
  std::uint64_t ok = 0;
  std::uint64_t corrections = 0;
  if (s.fec == FecKind::kHamming) {
    const link::FecLink fec(link);
    for (std::uint64_t i = 0; i < transfers; ++i) {
      if (auto r = fec.transfer(payload, tx); r.payload && *r.payload == payload) {
        ++ok;
        corrections += r.corrections;
      }
    }
  } else {
    for (std::uint64_t i = 0; i < transfers; ++i) {
      modulation::Frame f;
      f.payload = payload;
      if (auto r = link.transmit_frame(f, tx); r.frame && r.frame->payload == payload) ++ok;
    }
  }

  const double n = static_cast<double>(std::max<std::uint64_t>(transfers, 1));
  PointResult r;
  r.metrics = {{"delivery_rate", static_cast<double>(ok) / n},
               {"corrections_per_transfer", static_cast<double>(corrections) / n},
               {"code_rate", s.fec == FecKind::kHamming ? link::FecLink::code_rate() : 1.0}};
  r.rng_draws = process.draws() + tx.draws();
  return r;
}

PointResult run_p2p_code_density(const ScenarioSpec& s, std::uint64_t samples,
                                 RngStream& rng, const fault::Realisation* /*fr*/,
                                 std::size_t /*point_index*/) {
  RngStream process = rng.fork("process");
  const tdc::DelayLine line(s.device.delay_line, process);
  tdc::TdcConfig cfg;
  cfg.coarse_bits = s.device.design.coarse_bits;
  cfg.decode = s.device.decode;
  // The system clock covers the design's fine range; the delay line may
  // carry margin elements beyond it (the production link's slow-corner
  // rule), exactly like the abl_scaling sweep this mode absorbs.
  cfg.clock_period =
      s.device.design.element_delay * static_cast<double>(s.device.design.fine_elements);
  const tdc::Tdc tdc(line, cfg);
  RngStream hits = rng.fork("hits");
  const tdc::NonlinearityReport rep = tdc::code_density_test(tdc, samples, hits);

  PointResult r;
  r.metrics = {{"max_abs_dnl_lsb", rep.max_abs_dnl},
               {"max_abs_inl_lsb", rep.max_abs_inl},
               {"lsb_ps", rep.lsb_s * 1e12},
               {"codes", static_cast<double>(rep.codes)}};
  r.rng_draws = process.draws() + hits.draws();
  return r;
}

PointResult run_wdm(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                    const fault::Realisation* fr, std::size_t /*point_index*/) {
  link::WdmLinkConfig wc;
  wc.grid = s.wdm.grid;
  wc.filter = s.wdm.filter;
  wc.base = s.device;
  wc.path_transmittance = s.wdm.path_transmittance;
  if (fr != nullptr && !fr->channel_scale.empty()) {
    wc.channel_power_scale = fr->channel_scale;
  }
  std::unique_ptr<photonics::DieStack> stack;
  if (s.wdm.stack_dies > 0) {
    stack = std::make_unique<photonics::DieStack>(
        photonics::DieStack::uniform(s.wdm.stack_dies, photonics::DieSpec{}));
    wc.stack = stack.get();
    wc.from_die = s.wdm.from_die;
    wc.to_die = s.wdm.to_die;
  }
  RngStream process = rng.fork("process");
  const link::WdmLink wdm(wc, process);
  RngStream tx = rng.fork("tx");
  const auto run = wdm.measure(samples, tx);

  std::uint64_t captures = 0;
  for (const auto& chan : run.per_channel) captures += chan.stats.noise_captures;
  const double agg = run.aggregate_goodput().bits_per_second();
  const std::size_t n = wdm.channels();

  PointResult r;
  r.metrics = {{"aggregate_gbps", agg / 1e9},
               {"per_channel_mbps", agg / static_cast<double>(n) / 1e6},
               {"worst_ser", run.worst_symbol_error_rate()},
               {"noise_captures", static_cast<double>(captures)},
               {"collected_short", wdm.collected_fraction(0, 0)},
               {"collected_long", wdm.collected_fraction(n - 1, n - 1)}};
  r.rng_draws = process.draws() + tx.draws();
  return r;
}

PointResult run_bus(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                    const fault::Realisation* /*fr*/, std::size_t /*point_index*/) {
  bus::VerticalBusConfig bc;
  bc.die = s.bus.die;
  bc.dies = s.bus.dies;
  bc.master = s.bus.master;
  bc.design = s.device.design;
  bc.led = s.device.led;
  bc.spad = s.device.spad;
  bc.min_detection_probability = s.bus.min_detection_probability;
  bc.bits_per_symbol = s.device.bits_per_symbol;
  bc.mc_calibrate = s.device.calibrate;
  bc.mc_calibration_samples = s.device.calibration_samples;
  const bus::VerticalBus vbus(bc);

  RngStream mc = rng.fork("mc");
  const auto run = vbus.monte_carlo_broadcast(samples, mc);

  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  for (const auto& d : run.per_die) {
    sent += d.symbols_sent;
    errors += d.symbol_errors;
  }
  PointResult r;
  r.metrics = {
      {"worst_ser", run.worst_symbol_error_rate()},
      {"mean_ser", sent > 0 ? static_cast<double>(errors) / static_cast<double>(sent) : 0.0},
      {"serviceable_dies", static_cast<double>(vbus.serviceable_dies())},
      {"aggregate_goodput_gbps", vbus.aggregate_broadcast_goodput().bits_per_second() / 1e9}};
  r.rng_draws = mc.draws();
  return r;
}

std::unique_ptr<net::MacPolicy> make_mac(const std::string& kind, std::size_t dies) {
  if (kind == "tdma") return std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(dies));
  if (kind == "token") return std::make_unique<net::TokenMac>(dies, 0);
  if (kind == "token+pass") return std::make_unique<net::TokenMac>(dies, 1);
  if (kind == "aloha") {
    return std::make_unique<net::AlohaMac>(1.0 / static_cast<double>(dies));
  }
  throw std::invalid_argument("scenario: unknown MAC policy '" + kind + "'");
}

/// CAC schedule over `participants` transmitters. The allocation is a
/// pure function of the spec knobs and `alloc_rng`, which run_noc keys
/// as (seed, "alloc/<point>") -- fixed hardware per sweep point, like
/// the fault realisation, identical across chunks/threads/shards.
std::unique_ptr<net::MacPolicy> make_cac_mac(const NocSpec& n, std::size_t participants,
                                             RngStream& alloc_rng) {
  net::cac::AllocConfig ac;
  ac.nodes = participants;
  ac.wavelengths = std::min(n.alloc_wavelengths, participants);
  ac.weight = n.alloc_weight;
  ac.frame = n.alloc_frame;
  ac.rounds = n.alloc_rounds;
  const net::cac::DistributedAllocator allocator(ac);
  return std::make_unique<net::CacMac>(allocator.allocate(alloc_rng));
}

net::StackNetworkConfig noc_config(const NocSpec& n) {
  net::StackNetworkConfig cfg;
  cfg.dies = n.dies;
  cfg.traffic.resize(n.dies);
  const auto dies = static_cast<double>(n.dies);
  switch (n.pattern) {
    case NocPattern::kUniform:
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.uniform_destinations = true;
      }
      break;
    case NocPattern::kHotspot:
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.uniform_destinations = true;
      }
      cfg.traffic[n.hot_die].packets_per_slot = n.hot_load;
      break;
    case NocPattern::kMasterBroadcast:
      cfg.traffic[0].packets_per_slot = n.master_load;
      cfg.traffic[0].destination = net::kBroadcast;
      for (std::size_t die = 1; die < n.dies; ++die) {
        cfg.traffic[die].packets_per_slot = n.worker_load;
        cfg.traffic[die].destination = 0;
      }
      break;
    case NocPattern::kIncast:
      // Many-to-one convergence: every die except the sink sends its
      // share of the aggregate straight at hot_die.
      for (std::size_t die = 0; die < n.dies; ++die) {
        if (die == n.hot_die) continue;
        cfg.traffic[die].packets_per_slot =
            n.offered_load / std::max(dies - 1.0, 1.0);
        cfg.traffic[die].destination = n.hot_die;
      }
      break;
    case NocPattern::kBroadcastStorm:
      // Every die floods the stack with broadcasts: the worst case for
      // any arbitration (no spatial reuse, every frame contends).
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.destination = net::kBroadcast;
      }
      break;
  }
  for (auto& t : cfg.traffic) t.payload_bytes = n.payload_bytes;
  cfg.queue_capacity = n.queue_capacity;
  cfg.max_attempts = n.max_attempts;
  cfg.delivery_probability = n.delivery_probability;
  return cfg;
}

PointResult run_noc(const ScenarioSpec& s, std::uint64_t slots, RngStream& rng,
                    const fault::Realisation* fr, std::size_t point_index) {
  net::StackNetworkConfig cfg = noc_config(s.noc);
  if (fr != nullptr && fr->noc_faults()) {
    cfg.dead_nodes = fr->dead_nodes;
    cfg.broken_links = fr->broken_links;
    cfg.reroute_dead_destinations = fr->reroute;
  }

  // The physical substrate, when the spec couples one in. Objects must
  // outlive network.run(), so they are hoisted out of the switch.
  std::unique_ptr<link::OpticalLink> phy_link;
  std::unique_ptr<link::SymbolDeliveryModel> phy_model;
  RngStream process = rng.fork("link");
  std::uint64_t probe_draws = 0;
  if (s.noc.delivery != NocDelivery::kScalar) {
    phy_link = std::make_unique<link::OpticalLink>(s.device, process);
    const std::uint64_t symbols = net::symbols_per_packet(
        s.noc.payload_bytes, phy_link->bits_per_symbol());
    cfg.slot_duration = phy_link->symbol_period() * static_cast<double>(symbols);
    if (s.noc.delivery == NocDelivery::kFecProbe) {
      // Fold the photon-level link into one per-transfer probability:
      // measured FEC frame delivery at the device's operating point.
      const link::FecLink fec(*phy_link);
      RngStream probe = rng.fork("probe");
      const std::vector<std::uint8_t> payload(s.noc.payload_bytes, 0xA5);
      const std::uint64_t probes =
          analysis::scaled(s.noc.probe_transfers, std::min<std::uint64_t>(
                                                      s.noc.probe_transfers, 20));
      std::uint64_t ok = 0;
      for (std::uint64_t i = 0; i < probes; ++i) {
        if (auto r = fec.transfer(payload, probe); r.payload && *r.payload == payload) ++ok;
      }
      cfg.delivery_probability = std::max(
          static_cast<double>(ok) / static_cast<double>(std::max<std::uint64_t>(probes, 1)),
          0.01);
      probe_draws = probe.draws();
    } else {
      phy_model = std::make_unique<link::SymbolDeliveryModel>(*phy_link);
      cfg.delivery_model = [model = phy_model.get()](const net::Packet& p,
                                                     RngStream& r) {
        return model->deliver(p.payload_bytes, r);
      };
    }
  }

  // CAC allocations are per-point hardware state, like the fault
  // realisation: the stream is keyed on the GLOBAL sweep point, so
  // every chunk of a point rebuilds the identical schedule regardless
  // of threads, shards or resume order. Non-CAC paths never draw from
  // it (constructing the stream consumes nothing).
  RngStream alloc_rng(s.seed, "alloc/" + std::to_string(point_index));
  auto build_mac = [&](std::size_t participants) {
    return s.noc.mac == "cac" ? make_cac_mac(s.noc, participants, alloc_rng)
                              : make_mac(s.noc.mac, participants);
  };
  std::unique_ptr<net::MacPolicy> mac;
  if (fr != nullptr && fr->mac_reclaim && !fr->dead_nodes.empty() &&
      fr->live_nodes() < s.noc.dies) {
    // MAC re-arbitration over the survivors: the inner policy is built
    // for the live population (TDMA slots reclaimed, token ring
    // shortened, CAC codewords and wavelength shares reallocated over
    // the survivors) and SubsetMac remaps it onto the full die space.
    std::vector<std::size_t> members;
    for (std::size_t die = 0; die < s.noc.dies; ++die) {
      if (fr->dead_nodes[die] == 0) members.push_back(die);
    }
    mac = std::make_unique<net::SubsetMac>(build_mac(members.size()), std::move(members),
                                           s.noc.dies);
  } else {
    mac = build_mac(s.noc.dies);
  }
  net::StackNetwork network(cfg, std::move(mac));
  RngStream run_rng = rng.fork("run");
  const auto run = network.run(slots, run_rng);

  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t queue_drops = 0;
  for (const auto& d : run.per_die) {
    transmissions += d.transmissions;
    collisions += d.collisions;
    retry_drops += d.retry_drops;
    queue_drops += d.queue_drops;
  }
  const std::uint64_t clean_attempts = transmissions - collisions;
  const double transfer_p =
      clean_attempts > 0 ? static_cast<double>(run.total_delivered()) /
                               static_cast<double>(clean_attempts)
                         : 0.0;
  const double hot_rate =
      s.noc.hot_die < run.per_die.size()
          ? static_cast<double>(run.per_die[s.noc.hot_die].delivered) /
                static_cast<double>(std::max<std::uint64_t>(run.slots, 1))
          : 0.0;

  PointResult r;
  r.metrics = {{"carried_load", run.carried_load()},
               {"delivery_ratio", run.delivery_ratio()},
               {"transfer_p", transfer_p},
               {"mean_latency_slots", run.latency.mean_slots},
               {"p99_slots", run.latency.p99_slots},
               {"utilisation", 1.0 - static_cast<double>(run.idle_slots) /
                                         static_cast<double>(
                                             std::max<std::uint64_t>(run.slots, 1))},
               {"fairness", run.fairness_index()},
               {"hot_rate", hot_rate},
               {"retry_drops", static_cast<double>(retry_drops)},
               {"queue_drops", static_cast<double>(queue_drops)}};
  r.rng_draws = alloc_rng.draws() + process.draws() + probe_draws + run_rng.draws();
  return r;
}

/// One workload: the metric schema beside the chunk function that
/// fills it.
struct Workload {
  std::vector<MetricDef> metrics;
  PointResult (*run)(const ScenarioSpec&, std::uint64_t samples, RngStream&,
                     const fault::Realisation*, std::size_t point_index);

  /// Runs one chunk of `samples` samples and returns its record. Throws
  /// std::logic_error when the chunk function's named values do not
  /// match the schema column by column.
  ChunkRecord chunk(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                    const fault::Realisation* fr, std::size_t point_index) const {
    const PointResult out = run(s, samples, rng, fr, point_index);
    ChunkRecord rec{samples, out.rng_draws, {}, out.weight_sum, out.weight_sum_sq,
                    out.err_weight_sq};
    for (std::size_t m = 0; m < out.metrics.size() && m < metrics.size(); ++m) {
      if (out.metrics[m].name != metrics[m].name) break;
      rec.metrics.push_back(out.metrics[m].value);
    }
    if (rec.metrics.size() != metrics.size() || out.metrics.size() != metrics.size()) {
      throw std::logic_error(std::string("scenario: the ") + to_string(s.topology) +
                             " workload's named values stop matching its schema at metric #" +
                             std::to_string(rec.metrics.size()));
    }
    return rec;
  }
};

/// The workload table, and the only topology x traffic-mode switch.
/// Pixel faults never reach a chunk function: they fold analytically
/// into the point's SPAD parameters (Poisson thinning), so faulted specs
/// still ride the batched SIMD kernels. A chunk function's fault
/// realisation carries only what an engine must act on (windows, drift,
/// channel scales, dead dies).
const Workload& workload_for(const ScenarioSpec& s) {
  using K = MetricKind;
  static const Workload kSymbols{{{"ser", K::kRate},
                                  {"ber", K::kRate},
                                  {"erasure_rate", K::kRate},
                                  {"noise_capture_rate", K::kRate},
                                  {"slot_ps", K::kConstant},
                                  {"raw_tp_bps", K::kMean},
                                  {"goodput_bps", K::kMean},
                                  {"energy_per_bit_j", K::kMean},
                                  {"recalibrations", K::kCount}},
                                 run_p2p_symbols};
  static const Workload kFrames{{{"delivery_rate", K::kRate},
                                 {"corrections_per_transfer", K::kMean},
                                 {"code_rate", K::kConstant}},
                                run_p2p_frames};
  // Whole-run order statistics: never chunk-merged (validate() rejects
  // adaptive precision for this mode).
  static const Workload kCodeDensity{{{"max_abs_dnl_lsb", K::kConstant},
                                      {"max_abs_inl_lsb", K::kConstant},
                                      {"lsb_ps", K::kConstant},
                                      {"codes", K::kConstant}},
                                     run_p2p_code_density};
  // worst_ser is a per-window order statistic: adaptive chunks treat
  // each chunk's worst as one batch-means observation.
  static const Workload kWdm{{{"aggregate_gbps", K::kMean},
                              {"per_channel_mbps", K::kMean},
                              {"worst_ser", K::kMean},
                              {"noise_captures", K::kCount},
                              {"collected_short", K::kConstant},
                              {"collected_long", K::kConstant}},
                             run_wdm};
  static const Workload kBus{{{"worst_ser", K::kMean},
                              {"mean_ser", K::kRate},
                              {"serviceable_dies", K::kConstant},
                              {"aggregate_goodput_gbps", K::kConstant}},
                             run_bus};
  static const Workload kNoc{{{"carried_load", K::kRate},
                              {"delivery_ratio", K::kRate},
                              {"transfer_p", K::kRate},
                              {"mean_latency_slots", K::kMean},
                              {"p99_slots", K::kMean},
                              {"utilisation", K::kRate},
                              {"fairness", K::kMean},
                              {"hot_rate", K::kRate},
                              {"retry_drops", K::kCount},
                              {"queue_drops", K::kCount}},
                             run_noc};
  switch (s.topology) {
    case Topology::kPointToPoint:
      switch (s.resolved_mode()) {
        case TrafficMode::kFrames:
          return kFrames;
        case TrafficMode::kCodeDensity:
          return kCodeDensity;
        default:
          return kSymbols;
      }
    case Topology::kWdm:
      return kWdm;
    case Topology::kVerticalBus:
      return kBus;
    case Topology::kStackNoc:
      return kNoc;
  }
  throw std::logic_error("scenario: unhandled topology");
}

/// The one list of kind labels (the "kind" field of report JSON).
constexpr std::pair<MetricKind, const char*> kKindNames[] = {
    {MetricKind::kRate, "rate"},
    {MetricKind::kMean, "mean"},
    {MetricKind::kCount, "count"},
    {MetricKind::kConstant, "constant"}};

}  // namespace

const char* to_string(MetricKind k) {
  for (const auto& [kind, label] : kKindNames) {
    if (kind == k) return label;
  }
  return "unknown";
}

MetricKind metric_kind_from_string(const std::string& name) {
  for (const auto& [kind, label] : kKindNames) {
    if (name == label) return kind;
  }
  throw std::invalid_argument("scenario: unknown metric kind '" + name + "'");
}

const std::vector<MetricDef>& metrics_for(const ScenarioSpec& spec) {
  return workload_for(spec).metrics;
}

std::string RunPoint::label(const std::vector<std::string>& axis_names) const {
  if (coordinate.empty()) return "-";
  std::string out;
  for (std::size_t a = 0; a < coordinate.size(); ++a) {
    if (a > 0) out += "/";
    out += (a < axis_names.size() ? axis_names[a] : "axis") + "=" + coordinate[a];
  }
  return out;
}

void RunPoint::add_chunk(const std::vector<MetricKind>& kinds, const ChunkRecord& chunk) {
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    switch (kinds[m]) {
      case MetricKind::kRate:
        rates[m].add(chunk.metrics[m], chunk.samples);
        break;
      case MetricKind::kMean:
        means[m].add(chunk.metrics[m], chunk.samples);
        break;
      case MetricKind::kCount:
        sums[m] += chunk.metrics[m];
        break;
      case MetricKind::kConstant:
        break;
    }
    last[m] = chunk.metrics[m];
  }
  if (chunk.weight_sum > 0.0) {
    weights.merge(analysis::WeightStats::from_state(chunk.weight_sum, chunk.weight_sum_sq,
                                                    chunk.samples));
    err_weight_sq += chunk.err_weight_sq;
  }
  samples += chunk.samples;
  ++chunks;
  rng_draws += chunk.rng_draws;
}

void RunPoint::pool(const std::vector<MetricKind>& kinds, const RunPoint& other) {
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    switch (kinds[m]) {
      case MetricKind::kRate:
        rates[m].merge(other.rates[m]);
        break;
      case MetricKind::kMean:
        means[m].merge(other.means[m]);
        break;
      case MetricKind::kCount:
        sums[m] += other.sums[m];
        break;
      case MetricKind::kConstant:
        if (last[m] != other.last[m]) {
          std::ostringstream os;
          os << "scenario: constant metric #" << m << " differs across runs at point "
             << point_index << " (" << last[m] << " vs " << other.last[m] << ")";
          throw std::invalid_argument(os.str());
        }
        break;
    }
  }
  // Likelihood-ratio weight state pools like the accumulators: sums of
  // independent per-sample moments; n_eff/weight_cv are recomputed.
  weights.merge(other.weights);
  err_weight_sq += other.err_weight_sq;
  samples += other.samples;
  chunks += other.chunks;
  rng_draws += other.rng_draws;
  wall_ns += other.wall_ns;
}

analysis::Estimate RunPoint::estimate(const std::vector<MetricKind>& kinds, std::size_t m,
                                      double z) const {
  switch (kinds[m]) {
    case MetricKind::kRate:
      return rates[m].wilson(z);
    case MetricKind::kMean:
      return means[m].interval(z);
    case MetricKind::kCount:
      // Extensive total over every chunk run so far.
      return analysis::Estimate{sums[m], sums[m], sums[m], samples};
    case MetricKind::kConstant:
      break;
  }
  return analysis::Estimate{last[m], last[m], last[m], samples};
}

void RunPoint::set_estimates(const std::vector<MetricKind>& kinds, double z) {
  estimates.clear();
  metrics.clear();
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    estimates.push_back(estimate(kinds, m, z));
    metrics.push_back(estimates.back().value);
  }
}

const RunPoint* RunReport::find(const std::string& label) const {
  for (const RunPoint& p : points) {
    if (p.label(axis_names) == label) return &p;
  }
  return nullptr;
}

double RunReport::metric(const RunPoint& point, const std::string& name) const {
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (metric_names[m] == name) return point.metrics.at(m);
  }
  throw std::out_of_range("scenario report '" + scenario + "' has no metric '" + name + "'");
}

const analysis::Estimate& RunReport::estimate(const RunPoint& point,
                                              const std::string& name) const {
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (metric_names[m] == name) return point.estimates.at(m);
  }
  throw std::out_of_range("scenario report '" + scenario + "' has no metric '" + name + "'");
}

util::Table RunReport::to_table(int precision) const {
  std::vector<std::string> headers = axis_names;
  headers.insert(headers.end(), metric_names.begin(), metric_names.end());
  util::Table t(headers);
  for (const RunPoint& p : points) {
    t.new_row();
    for (const std::string& c : p.coordinate) t.add_cell(c);
    for (std::size_t m = 0; m < p.metrics.size(); ++m) {
      const double v = p.metrics[m];
      // A rate with zero observed successes is NOT "0.0000": the Wilson
      // interval still bounds it, so render the one-sided upper bound
      // the estimate already carries ("<3.830e-03"). Still a pure
      // function of the point's deterministic fields (CI diffs rows).
      if (v == 0.0 && m < metric_kinds.size() && m < p.estimates.size() &&
          metric_kinds[m] == MetricKind::kRate && p.estimates[m].n_samples > 0 &&
          p.estimates[m].ci_high > 0.0) {
        std::ostringstream cell;
        cell << "<" << std::scientific << std::setprecision(precision - 1)
             << p.estimates[m].ci_high;
        t.add_cell(cell.str());
        continue;
      }
      // Scientific notation for values spanning many decades (bit
      // rates, tiny error rates) keeps columns readable AND keeps the
      // rendering a pure function of the value (CI diffs row text).
      const double mag = std::fabs(v);
      if (v != 0.0 && (mag >= 1e5 || mag < 1e-3)) {
        t.add_sci(v, precision);
      } else {
        t.add_cell(v, precision);
      }
    }
  }
  return t;
}

void RunReport::print(std::ostream& os) const {
  os << "scenario " << scenario << ": topology=" << topology << ", seed=" << seed
     << ", points=" << points.size();
  // Unsharded output is byte-identical to the pre-service format, so
  // the CI 1-vs-8-thread stdout diffs stay meaningful.
  if (shard.active()) os << " of " << points_total << ", shard=" << shard.index
                         << "/" << shard.count;
  std::uint64_t total_samples = 0;
  for (const RunPoint& p : points) total_samples += p.samples;
  os << ", samples=" << total_samples << "\n";
  to_table().print(os);
}

void RunReport::write_bench_json(const std::string& path) const {
  report_io::save(*this, path);
}

RunReport ScenarioRunner::run(const ScenarioSpec& spec) const {
  return run(spec, RunOptions{});
}

RunReport ScenarioRunner::run(const ScenarioSpec& spec, const RunOptions& options) const {
  spec.validate();
  if (options.shard.count == 0 || options.shard.index >= options.shard.count) {
    throw std::invalid_argument("scenario: shard index " +
                                std::to_string(options.shard.index) +
                                " out of range for count " +
                                std::to_string(options.shard.count));
  }

  RunReport report;
  report.scenario = spec.name;
  report.description = spec.description;
  report.seed = spec.seed;
  report.repro_scale = analysis::repro_scale();
  report.topology = to_string(spec.topology);
  report.adaptive = spec.precision.enabled;
  report.spec_hash = spec_hash(spec);
  report.confidence_z = spec.precision.confidence_z;
  report.shard = options.shard;
  for (const SweepAxis& a : spec.sweep) report.axis_names.push_back(a.param);
  const Workload& workload = workload_for(spec);
  for (const MetricDef& d : workload.metrics) {
    report.metric_names.push_back(d.name);
    report.metric_kinds.push_back(d.kind);
  }
  const std::vector<MetricKind>& kinds = report.metric_kinds;

  sim::BatchConfig bc;
  bc.threads = threads_;
  bc.root_seed = spec.seed;
  const sim::BatchRunner runner(bc);
  report.threads = runner.threads();

  // One accumulating RunPoint per sweep point; the fixed-budget path is
  // the adaptive path degenerated to a single mandatory chunk, so both
  // produce the same estimate structure.
  struct PointState {
    bool init = false;
    ScenarioSpec point;
    fault::Realisation fr;
    bool faulted = false;
    analysis::StoppingRule rule;
    double z = 1.96;
    std::uint64_t chunk_size = 0;
    std::size_t target = 0;
    RunPoint acc;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_save_failures = 0;
  };

  const bool adaptive = spec.precision.enabled;
  const std::size_t n = spec.sweep_points();
  report.points_total = n;
  // Shard i of N owns global points {i, i+N, i+2N, ...}. Streams (and
  // therefore cache keys) derive from the GLOBAL index, so a shard's
  // results are bit-identical to the same points of an unsharded run.
  std::vector<std::size_t> point_ids;
  for (std::size_t g = options.shard.index; g < n; g += options.shard.count) {
    point_ids.push_back(g);
  }
  const ResultStore* store = options.store;
  auto results = runner.map_until<PointState>(
      point_ids, "scenario:" + spec.name,
      [&](std::size_t i, std::size_t chunk, RngStream& rng, PointState& st) {
        if (!st.init) {
          st.point = spec;
          const std::vector<std::size_t> idx = unravel(i, spec.sweep);
          for (std::size_t a = 0; a < spec.sweep.size(); ++a) {
            apply_axis_value(st.point, spec.sweep[a], idx[a]);
            st.acc.coordinate.push_back(spec.sweep[a].display(idx[a]));
          }
          // Re-validate after axis application: a sweep can push the
          // spec into an invalid corner (e.g. channels = 0). The point
          // is one corner, so it drops the axes: their values were
          // checked once, by the validate() above.
          st.point.sweep.clear();
          st.point.validate();
          if (st.point.fault.any()) {
            // Realise the point's faults from a dedicated stream keyed
            // by (seed, GLOBAL point index, salt) -- independent of the
            // chunk streams, so the same degraded hardware is simulated
            // regardless of thread count, sharding or chunking.
            fault::Context ctx;
            if (st.point.topology == Topology::kWdm) {
              ctx.wdm_channels = st.point.wdm.grid.channels;
            }
            if (st.point.topology == Topology::kStackNoc) {
              ctx.noc_dies = st.point.noc.dies;
            }
            RngStream frng(spec.seed, "fault/" + std::to_string(i) + "/" +
                                          std::to_string(st.point.fault.salt));
            st.fr = fault::realise(st.point.fault, ctx, frng);
            st.faulted = true;
            if (st.point.fault.pixel_active()) {
              // Poisson thinning folds the faulted array into the SPAD
              // parameters, so pixel-faulted points keep riding the
              // batched SIMD kernels untouched.
              auto& spad = st.point.device.spad;
              spad.pdp_peak *= st.fr.pixels.pdp_scale();
              spad.dcr_at_ref = util::Frequency::hertz(
                  spad.dcr_at_ref.hertz() * st.fr.pixels.dcr_scale() +
                  st.fr.pixels.extra_dcr_hz());
            }
          }
          const PrecisionSpec& prec = st.point.precision;
          if (adaptive) {
            st.z = prec.confidence_z;
            st.chunk_size = prec.resolve_chunk(st.point.budget);
            st.rule.target_half_width = prec.target_half_width;
            st.rule.target_relative = prec.target_relative;
            st.rule.stop_below = prec.stop_below;
            st.rule.min_samples = prec.resolve_min(st.point.budget);
            st.rule.max_samples = prec.resolve_max(st.point.budget);
            st.target = stop_metric_index(workload.metrics, prec.metric);
          } else {
            // Fixed budget: one chunk of exactly the resolved samples.
            st.chunk_size = st.point.budget.resolve();
            st.rule.max_samples = st.chunk_size;
          }
          st.acc.point_index = i;
          st.acc.chunks = 0;
          st.acc.rates.resize(kinds.size());
          st.acc.means.resize(kinds.size());
          st.acc.sums.resize(kinds.size(), 0.0);
          st.acc.last.resize(kinds.size(), 0.0);
          st.init = true;
        }
        // max_samples is a HARD cap: the final chunk shrinks to land on
        // it exactly instead of overshooting by up to chunk-1 samples.
        // (A single short tail chunk is a negligible deviation from the
        // batch-means equal-size assumption.)
        std::uint64_t run_samples = st.chunk_size;
        if (st.rule.max_samples > st.acc.samples) {
          run_samples = std::min(run_samples, st.rule.max_samples - st.acc.samples);
        }
        // Chunk (point i, ordinal `chunk`) is a pure function of the
        // store key: consult the cache, simulate only on miss. A hit
        // must match the samples this run would execute (a different
        // repro scale or precision override re-keys via the hash, but a
        // corrupt/truncated entry must never slip through).
        ChunkKey key;
        std::optional<ChunkRecord> rec;
        if (store != nullptr) {
          key = ChunkKey{report.spec_hash, spec.seed, i, chunk};
          rec = store->load(key);
          // A rare-event point's record must carry weight state (the
          // sum of weights is positive by construction): a record
          // missing it is stale or torn, never a hit.
          if (rec && (rec->samples != run_samples || rec->metrics.size() != kinds.size() ||
                      (st.point.variance.active() && !(rec->weight_sum > 0.0)))) {
            rec.reset();
          }
        }
        if (rec) {
          ++st.cache_hits;
        } else {
          const auto t0 = std::chrono::steady_clock::now();
          rec = workload.chunk(st.point, run_samples, rng, st.faulted ? &st.fr : nullptr, i);
          st.acc.wall_ns += std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (store != nullptr) {
            ++st.cache_misses;
            if (!store->save(key, *rec)) {
              ++st.cache_save_failures;
              warn_save_failure_once();
            }
          }
        }
        st.acc.add_chunk(kinds, *rec);
      },
      [&](std::size_t /*i*/, const PointState& st) {
        return st.rule.should_stop(st.acc.estimate(kinds, st.target, st.z));
      });

  report.points.reserve(point_ids.size());
  for (PointState& st : results) {
    // The accumulator state itself is exported: merge pools THIS, then
    // recomputes the intervals -- it never averages estimates.
    st.acc.set_estimates(kinds, st.z);
    report.cache_hits += st.cache_hits;
    report.cache_misses += st.cache_misses;
    report.cache_save_failures += st.cache_save_failures;
    report.points.push_back(std::move(st.acc));
  }
  return report;
}

}  // namespace oci::scenario

#include "oci/scenario/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "oci/analysis/report.hpp"
#include "oci/electrical/scaling.hpp"
#include "oci/net/cac.hpp"          // frame feasibility of mac = cac specs
#include "oci/scenario/runner.hpp"  // metrics_for: precision.metric validation

namespace oci::scenario {

namespace {

using util::Frequency;
using util::Power;
using util::Time;
using util::Wavelength;
using S = ScenarioSpec;

/// One accepted label of a categorical key and the value it selects.
template <typename T>
struct Label {
  std::string_view name;
  T value;
};

// The label lists: the only place a categorical label is written. The
// first label of each value is its canonical name (to_string, reports,
// the spec hash); later ones are aliases.
constexpr Label<Topology> kTopologies[] = {
    {"point-to-point", Topology::kPointToPoint}, {"p2p", Topology::kPointToPoint},
    {"wdm", Topology::kWdm},
    {"vertical-bus", Topology::kVerticalBus},    {"bus", Topology::kVerticalBus},
    {"stack-noc", Topology::kStackNoc},          {"noc", Topology::kStackNoc}};
constexpr Label<TrafficMode> kModes[] = {{"auto", TrafficMode::kAuto},
                                         {"symbols", TrafficMode::kSymbols},
                                         {"frames", TrafficMode::kFrames},
                                         {"code-density", TrafficMode::kCodeDensity},
                                         {"packets", TrafficMode::kPackets}};
constexpr Label<FecKind> kFecs[] = {{"none", FecKind::kNone}, {"hamming", FecKind::kHamming}};
constexpr Label<modulation::SlotLabeling> kLabelings[] = {
    {"gray", modulation::SlotLabeling::kGray}, {"binary", modulation::SlotLabeling::kBinary}};
constexpr Label<NocPattern> kPatterns[] = {{"uniform", NocPattern::kUniform},
                                           {"hotspot", NocPattern::kHotspot},
                                           {"master-broadcast", NocPattern::kMasterBroadcast},
                                           {"incast", NocPattern::kIncast},
                                           {"broadcast-storm", NocPattern::kBroadcastStorm}};
constexpr Label<NocDelivery> kDeliveries[] = {{"scalar", NocDelivery::kScalar},
                                              {"fec-probe", NocDelivery::kFecProbe},
                                              {"engine", NocDelivery::kEngine}};
/// The MAC is a string field: its label is the value.
constexpr std::string_view kMacs[] = {"tdma", "token", "token+pass", "aloha", "cac"};

template <typename T, std::size_t N>
const char* canonical(const Label<T> (&labels)[N], T value) {
  for (const Label<T>& l : labels) {
    if (l.value == value) return l.name.data();  // literals: NUL-terminated
  }
  return "?";
}

[[noreturn]] void reject(std::string_view key, const std::string& expected,
                         const std::string& value) {
  throw std::invalid_argument("scenario: parameter '" + std::string(key) + "' " + expected +
                              ", got '" + value + "'");
}

double parse_real(std::string_view key, const std::string& value) {
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &consumed);
  } catch (const std::exception&) {
    reject(key, "expects a number", value);
  }
  // Allow trailing whitespace only.
  if (value.find_first_not_of(" \t\n\v\f\r", consumed) != std::string::npos) {
    reject(key, "expects a number", value);
  }
  return v;
}

/// A count bounded by the width of the field it lands in (bool: 0/1).
template <typename T>
T parse_count(std::string_view key, const std::string& value) {
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  const std::optional<std::uint64_t> v = parse_uint64(value);
  if (!v || *v > kMax) {
    reject(key,
           std::is_same_v<T, bool> ? std::string("expects 0 or 1")
                                   : "expects an integer in [0, " + std::to_string(kMax) + "]",
           value);
  }
  return static_cast<T>(*v);  // in range: checked above
}

using Then = void (*)(S&);

/// One registry entry: what the key accepts, the member it writes
/// (type-erased; `write` knows the type) and how. set_param checks a
/// label against `labels` before `write` runs.
struct Param : ParamInfo {
  void* (*at)(S&) = nullptr;
  void (*write)(void* at, std::string_view key, const std::string& value) = nullptr;
  Then then = nullptr;  ///< after the write: mirrored and derived fields
};
using Entry = std::pair<const std::string_view, Param>;

template <typename Get>
using MemberOf = std::remove_reference_t<std::invoke_result_t<Get, S&>>;

template <typename T>
void write_value(void* at, std::string_view key, const std::string& value) {
  T& f = *static_cast<T*>(at);
  if constexpr (std::is_same_v<T, std::string>) {
    f = value;
  } else if constexpr (std::is_same_v<T, double>) {
    f = parse_real(key, value);
  } else {
    f = parse_count<T>(key, value);
  }
}

template <typename U, U (*Make)(double)>
void write_unit(void* at, std::string_view key, const std::string& value) {
  *static_cast<U*>(at) = Make(parse_real(key, value));
}

template <const auto& Labels>
void write_label(void* at, std::string_view, const std::string& value) {
  using L = std::remove_cvref_t<decltype(Labels[0])>;
  if constexpr (std::is_same_v<L, std::string_view>) {
    *static_cast<std::string*>(at) = value;
  } else {
    for (const L& l : Labels) {
      if (l.name == value) {
        *static_cast<decltype(l.value)*>(at) = l.value;
        return;
      }
    }
  }
}

/// A Param that writes the member `Get` returns.
template <typename Get>
Param param_at(Get) {
  Param p;
  p.at = [](S& s) -> void* { return &Get{}(s); };
  return p;
}

/// A member parsed by its C++ type: double is a real number, bool a
/// flag, an unsigned integer a count bounded by the member's width, a
/// std::string free text.
template <typename Get>
Entry field(std::string_view key, Get get, Then then = nullptr) {
  using T = MemberOf<Get>;
  Param p = param_at(get);
  if constexpr (std::is_same_v<T, std::string>) {
    p.kind = ParamKind::kText;
  } else if constexpr (!std::is_same_v<T, double>) {
    static_assert(std::is_unsigned_v<T>, "registry fields are double, unsigned, bool or string");
    p.kind = std::is_same_v<T, bool> ? ParamKind::kFlag : ParamKind::kCount;
    p.max = std::numeric_limits<T>::max();
  }
  p.write = &write_value<T>;
  p.then = then;
  return {key, std::move(p)};
}

/// A unit-typed member: the real value goes through its unit factory.
template <typename U, U (*Make)(double), typename Get>
Entry unit(std::string_view key, Get get, Then then = nullptr) {
  static_assert(std::is_same_v<U, MemberOf<Get>>);
  Param p = param_at(get);
  p.write = &write_unit<U, Make>;
  p.then = then;
  return {key, std::move(p)};
}

/// A categorical member: an enum set through its label list, or a
/// string (the MAC) that holds the label itself.
template <const auto& Labels, typename Get>
Entry choice(std::string_view key, Get get) {
  Param p = param_at(get);
  p.kind = ParamKind::kLabel;
  for (const auto& l : Labels) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(l)>, std::string_view>) {
      p.labels.push_back(l);
    } else {
      p.labels.push_back(l.name);
    }
  }
  p.write = &write_label<Labels>;
  return {key, std::move(p)};
}

/// A categorical key that writes more than one member: `write` gets the
/// whole spec.
Entry custom(std::string_view key, std::vector<std::string_view> labels,
             void (*write)(void* spec, std::string_view key, const std::string& value)) {
  Param p;
  p.kind = ParamKind::kLabel;
  p.labels = std::move(labels);
  p.at = [](S& s) -> void* { return &s; };
  p.write = write;
  return {key, std::move(p)};
}

// FIELD(noc.dies) is the accessor of the spec member s.noc.dies.
#define FIELD(path) [](S& s) -> auto& { return s.path; }

const std::map<std::string_view, Param, std::less<>>& registry() {
  static const std::map<std::string_view, Param, std::less<>> params = [] {
    // Setting any precision target arms adaptive mode; precision.enabled
    // can switch it back off (order matters -- put it last in a file).
    constexpr Then arm = [](S& s) { s.precision.enabled = true; };
    std::vector<std::string_view> nodes;
    for (const electrical::TechnologyNode& n : electrical::technology_ladder()) {
      nodes.push_back(n.name);
    }
    std::vector<std::string_view> kinds;
    for (const rare::Kind k : {rare::Kind::kNone, rare::Kind::kTilt, rare::Kind::kSplit}) {
      kinds.push_back(rare::to_string(k));
    }
    return std::map<std::string_view, Param, std::less<>>{
        // -- general ----------------------------------------------------
        field("name", FIELD(name)),
        field("description", FIELD(description)),
        field("seed", FIELD(seed)),
        choice<kTopologies>("topology", FIELD(topology)),
        choice<kModes>("mode", FIELD(mode)),
        choice<kFecs>("fec", FIELD(fec)),
        field("payload_bytes", FIELD(payload_bytes),
              [](S& s) { s.noc.payload_bytes = s.payload_bytes; }),

        // -- budget -----------------------------------------------------
        field("samples", FIELD(budget.samples)),
        field("sample_floor", FIELD(budget.floor)),
        field("repro_scaled", FIELD(budget.repro_scaled)),

        // -- adaptive precision ------------------------------------------
        field("precision.half_width", FIELD(precision.target_half_width), arm),
        field("precision.relative", FIELD(precision.target_relative), arm),
        field("precision.stop_below", FIELD(precision.stop_below), arm),
        field("precision.metric", FIELD(precision.metric)),
        field("precision.confidence_z", FIELD(precision.confidence_z)),
        field("precision.chunk", FIELD(precision.chunk)),
        field("precision.min_samples", FIELD(precision.min_samples)),
        field("precision.max_samples", FIELD(precision.max_samples)),
        field("precision.enabled", FIELD(precision.enabled)),

        // -- device: TDC design ------------------------------------------
        field("fine_elements", FIELD(device.design.fine_elements)),
        field("coarse_bits", FIELD(device.design.coarse_bits)),
        unit<Time, &Time::picoseconds>(
            "delay_element_ps", FIELD(device.design.element_delay),
            [](S& s) { s.device.delay_line.nominal_delay = s.device.design.element_delay; }),
        field("delay_line_elements", FIELD(device.delay_line.elements)),
        field("mismatch_sigma", FIELD(device.delay_line.mismatch_sigma)),
        custom("tech_node", std::move(nodes),
               [](void* spec, std::string_view, const std::string& v) {
                 S& s = *static_cast<S*>(spec);
                 const auto& node = electrical::node_by_name(v);
                 s.device.design.element_delay = node.delay_element;
                 s.device.delay_line.nominal_delay = node.delay_element;
                 s.device.delay_line.mismatch_sigma = node.mismatch_sigma;
                 s.device.led.driver_load = node.led_driver_load;
                 s.device.led.supply = node.supply;
               }),

        // -- device: modulation / traffic --------------------------------
        field("bits_per_symbol", FIELD(device.bits_per_symbol)),
        choice<kLabelings>("labeling", FIELD(device.labeling)),

        // -- device: LED / channel / SPAD --------------------------------
        unit<Power, &Power::microwatts>("peak_power_uw", FIELD(device.led.peak_power)),
        unit<Time, &Time::picoseconds>("pulse_width_ps", FIELD(device.led.pulse_width)),
        unit<Wavelength, &Wavelength::nanometres>("wavelength_nm", FIELD(device.led.wavelength)),
        field("channel_transmittance", FIELD(device.channel_transmittance)),
        unit<Frequency, &Frequency::megahertz>("background_mhz", FIELD(device.background_rate)),
        unit<Time, &Time::picoseconds>("jitter_ps", FIELD(device.spad.jitter_sigma)),
        unit<Frequency, &Frequency::hertz>("dcr_hz", FIELD(device.spad.dcr_at_ref)),
        unit<Time, &Time::nanoseconds>("dead_time_ns", FIELD(device.spad.dead_time)),
        field("afterpulse_probability", FIELD(device.spad.afterpulse_probability)),
        field("pdp_peak", FIELD(device.spad.pdp_peak)),
        field("calibrate", FIELD(device.calibrate)),
        field("calibration_samples", FIELD(device.calibration_samples)),
        unit<Time, &Time::nanoseconds>("guard_ns", FIELD(device.inter_symbol_guard)),

        // -- WDM ---------------------------------------------------------
        field("channels", FIELD(wdm.grid.channels)),
        unit<Wavelength, &Wavelength::nanometres>("grid_center_nm", FIELD(wdm.grid.center)),
        unit<Wavelength, &Wavelength::nanometres>("grid_spacing_nm", FIELD(wdm.grid.spacing)),
        // The demux spec knob the abl_wdm sweep turns: the floor tracks
        // the adjacent isolation (scattering bounds it ~20 dB deeper,
        // never better than 45 dB).
        field("isolation_db", FIELD(wdm.filter.adjacent_isolation_db),
              [](S& s) {
                s.wdm.filter.isolation_floor_db =
                    std::max(s.wdm.filter.adjacent_isolation_db + 20.0, 45.0);
              }),
        field("isolation_floor_db", FIELD(wdm.filter.isolation_floor_db)),
        field("passband_transmittance", FIELD(wdm.filter.passband_transmittance)),
        field("path_transmittance", FIELD(wdm.path_transmittance)),
        field("stack_dies", FIELD(wdm.stack_dies)),
        field("from_die", FIELD(wdm.from_die)),
        field("to_die", FIELD(wdm.to_die)),

        // -- bus / NoC ---------------------------------------------------
        field("dies", FIELD(bus.dies), [](S& s) { s.noc.dies = s.bus.dies; }),
        field("master", FIELD(bus.master)),
        choice<kMacs>("mac", FIELD(noc.mac)),
        choice<kPatterns>("pattern", FIELD(noc.pattern)),
        field("alloc.weight", FIELD(noc.alloc_weight)),
        field("alloc.wavelengths", FIELD(noc.alloc_wavelengths)),
        field("alloc.frame", FIELD(noc.alloc_frame)),
        field("alloc.rounds", FIELD(noc.alloc_rounds)),
        field("offered_load", FIELD(noc.offered_load)),
        field("hot_die", FIELD(noc.hot_die)),
        field("hot_load", FIELD(noc.hot_load)),
        field("master_load", FIELD(noc.master_load)),
        field("worker_load", FIELD(noc.worker_load)),
        field("queue_capacity", FIELD(noc.queue_capacity)),
        field("max_attempts", FIELD(noc.max_attempts)),
        choice<kDeliveries>("delivery", FIELD(noc.delivery)),
        field("delivery_probability", FIELD(noc.delivery_probability)),
        field("probe_transfers", FIELD(noc.probe_transfers)),

        // -- fault injection ---------------------------------------------
        field("fault.dead_pixel_fraction", FIELD(fault.dead_pixel_fraction)),
        field("fault.hot_pixel_fraction", FIELD(fault.hot_pixel_fraction)),
        field("fault.hot_pixel_dcr_hz", FIELD(fault.hot_pixel_dcr_hz)),
        field("fault.array_pixels", FIELD(fault.array_pixels)),
        field("fault.mask_hot_pixels", FIELD(fault.mask_hot_pixels)),
        field("fault.dark_window_probability", FIELD(fault.dark_window_probability)),
        field("fault.flaky_window_probability", FIELD(fault.flaky_window_probability)),
        field("fault.flaky_attenuation_db", FIELD(fault.flaky_attenuation_db)),
        field("fault.tdc_drift_c", FIELD(fault.tdc_drift_c)),
        field("fault.recalibrate", FIELD(fault.recalibrate)),
        field("fault.dead_channel_fraction", FIELD(fault.dead_channel_fraction)),
        field("fault.channel_attenuation_db", FIELD(fault.channel_attenuation_db)),
        field("fault.dead_node_fraction", FIELD(fault.dead_node_fraction)),
        field("fault.link_failure_probability", FIELD(fault.link_failure_probability)),
        field("fault.reroute", FIELD(fault.reroute)),
        field("fault.mac_reclaim", FIELD(fault.mac_reclaim)),
        field("fault.salt", FIELD(fault.salt)),

        // -- rare-event acceleration -------------------------------------
        custom("variance.kind", std::move(kinds),
               [](void* spec, std::string_view, const std::string& v) {
                 static_cast<S*>(spec)->variance.kind = rare::kind_from_string(v);
               }),
        field("variance.jitter_tilt", FIELD(variance.jitter_tilt)),
        field("variance.noise_tilt", FIELD(variance.noise_tilt)),
        // Syntax check at set time so a typo'd schedule fails with the
        // spec file:line; validate() re-checks semantics (monotonicity
        // against the kind).
        field("variance.levels", FIELD(variance.levels),
              [](S& s) { (void)rare::parse_levels(s.variance.levels); }),
        field("variance.split_levels", FIELD(variance.split_levels)),
    };
  }();
  return params;
}

#undef FIELD

const Param& lookup(const std::string& key) {
  const auto it = registry().find(key);
  if (it == registry().end()) {
    std::string msg = "scenario: unknown parameter '" + key + "'; known parameters:";
    for (const std::string& k : known_params()) msg += " " + k;
    throw std::invalid_argument(msg);
  }
  return it->second;
}

}  // namespace

std::string format_axis_value(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string SweepAxis::display(std::size_t i) const {
  if (categorical()) return labels.at(i);
  return format_axis_value(values.at(i));
}

SweepAxis SweepAxis::linear(std::string param, double lo, double hi, std::size_t n) {
  SweepAxis a;
  a.param = std::move(param);
  if (n == 1) {
    a.values.push_back(lo);
    return a;
  }
  a.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.values.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return a;
}

SweepAxis SweepAxis::logspace(std::string param, double lo, double hi, std::size_t n) {
  if (!(lo > 0.0) || !(hi > 0.0)) {
    throw std::invalid_argument("scenario: log sweep axis '" + param +
                                "' needs positive endpoints");
  }
  SweepAxis a = linear(std::move(param), std::log(lo), std::log(hi), n);
  for (double& v : a.values) v = std::exp(v);
  return a;
}

SweepAxis SweepAxis::list(std::string param, std::vector<double> values) {
  SweepAxis a;
  a.param = std::move(param);
  a.values = std::move(values);
  return a;
}

SweepAxis SweepAxis::categories(std::string param, std::vector<std::string> labels) {
  SweepAxis a;
  a.param = std::move(param);
  a.labels = std::move(labels);
  return a;
}

std::uint64_t BudgetSpec::resolve() const {
  if (!repro_scaled) return std::max<std::uint64_t>(samples, 1);
  return analysis::scaled(samples, std::max<std::uint64_t>(floor, 1));
}

std::uint64_t PrecisionSpec::resolve_chunk(const BudgetSpec& budget) const {
  if (chunk == 0) return std::max<std::uint64_t>(budget.resolve() / 4, 1);
  if (!budget.repro_scaled) return std::max<std::uint64_t>(chunk, 1);
  return analysis::scaled(chunk, 1);
}

std::uint64_t PrecisionSpec::resolve_min(const BudgetSpec& budget) const {
  if (min_samples == 0) return 0;  // the first chunk decides
  if (!budget.repro_scaled) return min_samples;
  return analysis::scaled(min_samples, 1);
}

std::uint64_t PrecisionSpec::resolve_max(const BudgetSpec& budget) const {
  std::uint64_t cap;
  if (max_samples == 0) {
    cap = 8 * budget.resolve();  // adaptive may spend past the fixed budget
  } else if (!budget.repro_scaled) {
    cap = max_samples;
  } else {
    cap = analysis::scaled(max_samples, std::max<std::uint64_t>(budget.floor, 1));
  }
  // The cap must admit at least one chunk, or no point could ever run.
  return std::max(cap, resolve_chunk(budget));
}

TrafficMode ScenarioSpec::resolved_mode() const {
  if (mode != TrafficMode::kAuto) return mode;
  return topology == Topology::kStackNoc ? TrafficMode::kPackets : TrafficMode::kSymbols;
}

std::size_t ScenarioSpec::sweep_points() const {
  std::size_t n = 1;
  for (const SweepAxis& a : sweep) n *= a.size();
  return n;
}

void ScenarioSpec::validate() const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  const TrafficMode m = resolved_mode();

  // Traffic/topology pairing.
  if (m == TrafficMode::kPackets && topology != Topology::kStackNoc) {
    err("packet traffic requires the stack-noc topology");
  }
  if (topology == Topology::kStackNoc && m != TrafficMode::kPackets) {
    err("the stack-noc topology carries packets; set mode = packets (or auto)");
  }
  if (m == TrafficMode::kFrames && topology != Topology::kPointToPoint) {
    err("frame traffic requires the point-to-point topology");
  }
  if (m == TrafficMode::kCodeDensity && topology != Topology::kPointToPoint) {
    err("code-density traffic requires the point-to-point topology");
  }
  if (fec != FecKind::kNone && m != TrafficMode::kFrames) {
    err("fec = hamming requires frame traffic over the point-to-point topology; "
        "raw symbol/packet scenarios have no frame to protect");
  }
  if (m == TrafficMode::kFrames && payload_bytes == 0) {
    err("frame traffic needs payload_bytes >= 1");
  }

  // Budget.
  if (budget.samples == 0) err("budget samples must be >= 1");

  // Adaptive precision.
  if (precision.enabled) {
    if (m == TrafficMode::kCodeDensity) {
      err("adaptive precision cannot chunk code-density traffic: DNL/INL are "
          "whole-run order statistics, not mergeable rates");
    }
    if (precision.target_half_width < 0.0) err("precision.half_width must be >= 0");
    if (precision.target_relative < 0.0) err("precision.relative must be >= 0");
    if (precision.stop_below < 0.0) err("precision.stop_below must be >= 0");
    if (!(precision.confidence_z > 0.0)) err("precision.confidence_z must be > 0");
    if (precision.target_half_width == 0.0 && precision.target_relative == 0.0 &&
        precision.stop_below == 0.0 && precision.max_samples == 0) {
      err("adaptive precision needs a stopping target (precision.half_width, "
          "precision.relative, precision.stop_below) or precision.max_samples");
    }
    if (precision.min_samples > 0 && precision.max_samples > 0 &&
        precision.min_samples > precision.max_samples) {
      err("precision.min_samples exceeds precision.max_samples");
    }
    // The RESOLVED bracket must hold too: an auto-derived max (8x the
    // fixed budget) that lands below min_samples would let min keep
    // the point sampling past the documented hard cap.
    if (precision.resolve_min(budget) > precision.resolve_max(budget)) {
      err("precision.min_samples exceeds the resolved adaptive budget cap (" +
          std::to_string(precision.resolve_max(budget)) +
          " samples); raise precision.max_samples or lower min_samples");
    }
    if (!precision.metric.empty()) {
      bool known = false;
      for (const MetricDef& d : metrics_for(*this)) {
        if (d.name == precision.metric) {
          known = true;
          if (d.kind == MetricKind::kConstant || d.kind == MetricKind::kCount) {
            err("precision.metric '" + precision.metric +
                "' carries no confidence interval; target a rate or mean metric");
          }
        }
      }
      if (!known) {
        std::string msg = "precision.metric '" + precision.metric +
                          "' is not a metric of this topology; choose one of:";
        for (const MetricDef& d : metrics_for(*this)) msg += " " + d.name;
        err(msg);
      }
    }
  }

  // Device.
  if (device.design.fine_elements < 2) err("device needs fine_elements >= 2");
  if (device.channel_transmittance <= 0.0 || device.channel_transmittance > 1.0) {
    err("channel_transmittance must be in (0, 1]");
  }
  for (const AggressorSpec& a : aggressors) {
    if (a.mean_photons < 0.0) err("aggressor mean_photons must be >= 0");
  }
  if (!aggressors.empty() && m != TrafficMode::kSymbols) {
    err("aggressor pulses apply to point-to-point symbol traffic only");
  }

  // Topology blocks.
  if (topology == Topology::kWdm) {
    if (wdm.grid.channels == 0) err("wdm needs channels >= 1");
    if (!(wdm.grid.spacing.nanometres() > 0.0)) err("wdm grid spacing must be positive");
    if (wdm.path_transmittance <= 0.0 || wdm.path_transmittance > 1.0) {
      err("wdm path_transmittance must be in (0, 1]");
    }
    if (wdm.stack_dies > 0) {
      if (wdm.from_die >= wdm.stack_dies || wdm.to_die >= wdm.stack_dies) {
        err("wdm from_die/to_die must lie inside the die stack");
      }
    }
  }
  if (topology == Topology::kVerticalBus) {
    if (bus.dies < 2) err("vertical-bus needs dies >= 2");
    if (bus.master >= bus.dies) err("bus master must be one of the dies");
  }
  if (topology == Topology::kStackNoc) {
    if (noc.dies < 2) err("stack-noc needs dies >= 2");
    if (noc.queue_capacity == 0) err("stack-noc queue_capacity must be >= 1");
    if (noc.max_attempts == 0) err("stack-noc max_attempts must be >= 1");
    if (noc.delivery == NocDelivery::kScalar &&
        (noc.delivery_probability <= 0.0 || noc.delivery_probability > 1.0)) {
      err("stack-noc delivery_probability must be in (0, 1]");
    }
    if ((noc.pattern == NocPattern::kHotspot || noc.pattern == NocPattern::kIncast) &&
        noc.hot_die >= noc.dies) {
      err("stack-noc hot_die must be one of the dies");
    }
    if (noc.payload_bytes == 0) err("stack-noc payload_bytes must be >= 1");
    if (noc.mac == "cac") {
      if (noc.alloc_weight == 0 || noc.alloc_weight > 16) {
        err("stack-noc alloc.weight must be in [1, 16]");
      }
      if (noc.alloc_wavelengths == 0 || noc.alloc_wavelengths > 64) {
        err("stack-noc alloc.wavelengths must be in [1, 64]");
      }
      if (noc.alloc_rounds == 0) err("stack-noc alloc.rounds must be >= 1");
      if (noc.alloc_frame != 0 && noc.alloc_weight >= 1 && noc.alloc_wavelengths >= 1) {
        // Mirror the DistributedAllocator feasibility check so a bad
        // frame fails at validate() with the spec file, not mid-sweep.
        const std::size_t per_wavelength =
            (noc.dies + noc.alloc_wavelengths - 1) / noc.alloc_wavelengths;
        if (net::cac::frame_capacity(noc.alloc_frame, noc.alloc_weight) < per_wavelength) {
          err("stack-noc alloc.frame = " + std::to_string(noc.alloc_frame) +
              " is not a prime with capacity for " + std::to_string(per_wavelength) +
              " weight-" + std::to_string(noc.alloc_weight) +
              " codewords per wavelength (use alloc.frame = 0 for auto)");
        }
      }
    }
  }

  // Fault injection. Range checks first, then topology gating: every
  // fault kind maps to one engine path, and arming it anywhere else
  // would silently change nothing -- reject loudly instead.
  {
    auto frac = [&err](const char* key, double v) {
      if (v < 0.0 || v > 1.0) {
        err(std::string("fault: ") + key + " must be in [0, 1]");
      }
    };
    frac("fault.dead_pixel_fraction", fault.dead_pixel_fraction);
    frac("fault.hot_pixel_fraction", fault.hot_pixel_fraction);
    frac("fault.dark_window_probability", fault.dark_window_probability);
    frac("fault.flaky_window_probability", fault.flaky_window_probability);
    frac("fault.dead_channel_fraction", fault.dead_channel_fraction);
    frac("fault.dead_node_fraction", fault.dead_node_fraction);
    frac("fault.link_failure_probability", fault.link_failure_probability);
    if (fault.dead_pixel_fraction >= 0.0 && fault.hot_pixel_fraction >= 0.0 &&
        fault.dead_pixel_fraction + fault.hot_pixel_fraction > 1.0) {
      err("fault: dead_pixel_fraction + hot_pixel_fraction must not exceed 1");
    }
    if (fault.hot_pixel_dcr_hz < 0.0) err("fault: hot_pixel_dcr_hz must be >= 0");
    if (fault.flaky_attenuation_db < 0.0) err("fault: flaky_attenuation_db must be >= 0");
    if (fault.channel_attenuation_db < 0.0) {
      err("fault: channel_attenuation_db must be >= 0");
    }
    if (fault.pixel_active() && fault.array_pixels == 0) {
      err("fault: pixel faults need array_pixels >= 1");
    }

    if (fault.any() && m == TrafficMode::kCodeDensity) {
      err("fault injection does not apply to code-density traffic (no photons fly)");
    } else {
      const bool p2p = topology == Topology::kPointToPoint;
      const bool p2p_symbols = p2p && m == TrafficMode::kSymbols;
      if (fault.pixel_active() && !p2p && topology != Topology::kWdm) {
        err("fault: pixel faults apply to point-to-point and wdm receivers only");
      }
      if (fault.window_active()) {
        if (!p2p_symbols) {
          err("fault: dark/flaky windows apply to point-to-point symbol traffic only");
        }
        if (!aggressors.empty()) {
          err("fault: dark/flaky windows cannot be combined with aggressor pulses");
        }
      }
      if (fault.tdc_active() && !p2p_symbols) {
        err("fault: tdc_drift_c applies to point-to-point symbol traffic only");
      }
      if (fault.wdm_active() && topology != Topology::kWdm) {
        err("fault: channel faults require the wdm topology");
      }
      if (fault.noc_active() && topology != Topology::kStackNoc) {
        err("fault: node/link faults require the stack-noc topology");
      }
      if (topology == Topology::kStackNoc && fault.dead_node_fraction > 0.0 &&
          noc.dies >= 2 &&
          ::oci::fault::pick_count(noc.dies, fault.dead_node_fraction) > noc.dies - 2) {
        err("fault: dead_node_fraction must leave at least 2 live dies");
      }
    }
  }

  // Rare-event acceleration. Gating mirrors the fault block: each
  // engine maps to exactly one path (the scalar p2p-symbols driver),
  // and an armed spec anywhere else would silently run crude -- reject
  // loudly instead. Tilt and split are distinct proposals whose
  // likelihood ratios do not compose; combining their knobs is
  // rejected rather than half-applied.
  {
    if (variance.jitter_tilt <= 0.0) err("variance: jitter_tilt must be > 0");
    if (variance.noise_tilt <= 0.0) err("variance: noise_tilt must be > 0");
    if (!variance.levels.empty()) {
      try {
        (void)rare::parse_levels(variance.levels);
      } catch (const std::invalid_argument& e) {
        err(e.what());
      }
    }
    if (variance.active()) {
      const bool p2p_symbols =
          topology == Topology::kPointToPoint && m == TrafficMode::kSymbols;
      if (!p2p_symbols) {
        err("variance: rare-event acceleration applies to point-to-point "
            "symbol traffic only");
      }
      if (!aggressors.empty()) {
        err("variance: cannot be combined with aggressor pulses");
      }
      if (fault.window_active()) {
        err("variance: cannot be combined with dark/flaky window faults");
      }
      if (variance.kind == rare::Kind::kTilt) {
        if (!variance.levels.empty()) {
          err("variance: kind = tilt does not take a level schedule "
              "(variance.levels is a splitting knob); pick tilt or split");
        }
        if (variance.jitter_tilt == 1.0 && variance.noise_tilt == 1.0) {
          err("variance: kind = tilt with both tilt factors at 1 is crude "
              "Monte Carlo; set variance.jitter_tilt or variance.noise_tilt");
        }
      }
      if (variance.kind == rare::Kind::kSplit) {
        if (variance.jitter_tilt != 1.0 || variance.noise_tilt != 1.0) {
          err("variance: kind = split does not take tilt factors; pick tilt "
              "or split");
        }
        if (variance.levels.empty() && variance.split_levels == 0) {
          err("variance: kind = split needs variance.levels or "
              "variance.split_levels >= 1");
        }
      }
      if (precision.enabled && !precision.metric.empty()) {
        // Weighted acceleration reshapes RATE estimators only; the
        // deterministic mean metrics (throughput, energy) gain nothing
        // and their batch-means intervals are meaningless targets here.
        std::string rates;
        for (const MetricDef& d : metrics_for(*this)) {
          if (d.kind == MetricKind::kRate) rates += (rates.empty() ? "" : ", ") + d.name;
        }
        for (const MetricDef& d : metrics_for(*this)) {
          if (d.name == precision.metric && d.kind != MetricKind::kRate) {
            err("variance: precision.metric '" + precision.metric +
                "' is deterministic under weighting; target a rate metric (" + rates + ")");
          }
        }
      }
    }
  }

  // Sweep axes. Structural keys are settable but not sweepable: they
  // would change the metric set (topology, mode) or the run identity
  // (name, seed) mid-sweep, misaligning every point's metric vector
  // with the report's metric_names.
  static constexpr const char* kNotSweepable[] = {"topology", "mode", "name",
                                                  "description", "seed"};
  for (const SweepAxis& a : sweep) {
    if (a.param.empty()) {
      err("sweep axis with empty parameter name");
      continue;
    }
    if (!is_known_param(a.param)) {
      err("sweep axis over unknown parameter '" + a.param + "'");
      continue;
    }
    bool structural = false;
    for (const char* k : kNotSweepable) structural = structural || a.param == k;
    if (structural) {
      err("parameter '" + a.param + "' is structural and cannot be swept");
      continue;
    }
    if (a.size() == 0) err("sweep axis '" + a.param + "' has no points");
    if (!a.values.empty() && !a.labels.empty()) {
      err("sweep axis '" + a.param + "' mixes numeric values and labels");
    }
    if (a.categorical() != is_categorical_param(a.param)) {
      err(is_categorical_param(a.param)
              ? "sweep axis '" + a.param + "' needs categorical labels, not numbers"
              : "sweep axis '" + a.param + "' needs numeric values, not labels");
    }
  }

  if (!errors.empty()) {
    std::string msg = "invalid scenario '" + name + "':";
    for (const std::string& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
}

void set_param(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  const Param& p = lookup(key);
  if (p.kind == ParamKind::kLabel &&
      std::find(p.labels.begin(), p.labels.end(), value) == p.labels.end()) {
    std::string choices;
    for (const std::string_view l : p.labels) {
      choices += (choices.empty() ? "" : ", ") + std::string(l);
    }
    reject(key, "must be one of {" + choices + "}", value);
  }
  p.write(p.at(spec), key, value);
  if (p.then != nullptr) p.then(spec);
}

const ParamInfo& param_info(const std::string& key) { return lookup(key); }

std::optional<std::uint64_t> parse_uint64(const std::string& text) {
  // A plain digit token is read exactly (a 64-bit seed is exact where a
  // double is not); any other token must be a whole double in [0, 2^64).
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  if (text.find_first_not_of("0123456789") == std::string::npos) {
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == 0) return v;
  } else {
    const double v = std::strtod(text.c_str(), &end);
    if (errno == 0 && end == text.c_str() + text.size() && v >= 0.0 && v == std::floor(v) &&
        v < 18446744073709551616.0) {
      return static_cast<std::uint64_t>(v);
    }
  }
  return std::nullopt;
}

bool is_known_param(const std::string& key) { return registry().count(key) != 0; }

bool is_categorical_param(const std::string& key) {
  const auto it = registry().find(key);
  return it != registry().end() &&
         (it->second.kind == ParamKind::kLabel || it->second.kind == ParamKind::kText);
}

std::vector<std::string> known_params() {
  std::vector<std::string> keys;
  keys.reserve(registry().size());
  for (const auto& [k, v] : registry()) keys.emplace_back(k);
  return keys;
}

void apply_axis_value(ScenarioSpec& spec, const SweepAxis& axis, std::size_t index) {
  if (axis.categorical()) {
    set_param(spec, axis.param, axis.labels.at(index));
    return;
  }
  // Full precision on the wire -- display() rounds for humans only.
  std::ostringstream os;
  os.precision(17);
  os << axis.values.at(index);
  set_param(spec, axis.param, os.str());
}

const char* to_string(Topology t) { return canonical(kTopologies, t); }
const char* to_string(TrafficMode m) { return canonical(kModes, m); }
const char* to_string(FecKind f) { return canonical(kFecs, f); }

}  // namespace oci::scenario

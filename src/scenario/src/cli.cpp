#include "oci/scenario/cli.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace oci::scenario {

namespace {

/// Removes every `--flag=VALUE` and `--flag VALUE` from argv (so the
/// remaining args can go to other parsers) and returns the last value;
/// nullopt when the flag is absent. A split flag with no value throws.
std::optional<std::string> consume_flag(int& argc, char** argv, std::string_view flag) {
  std::optional<std::string> out;
  int write = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag) {
      if (i + 1 == argc) {
        throw std::invalid_argument("scenario: " + std::string(flag) + " needs a value");
      }
      out = argv[++i];
    } else if (arg.starts_with(flag) && arg.size() > flag.size() && arg[flag.size()] == '=') {
      out = std::string(arg.substr(flag.size() + 1));
    } else {
      argv[write++] = argv[i];
    }
  }
  if (write < argc) {
    argc = write;
    argv[argc] = nullptr;
  }
  return out;
}

std::optional<double> parse_positive_real(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(v > 0.0)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_positive_count(const std::string& text) {
  const std::optional<std::uint64_t> v = parse_uint64(text);
  if (!v || *v == 0) return std::nullopt;
  return v;
}

std::optional<std::string> parse_dir(const std::string& text) {
  if (text.empty()) return std::nullopt;
  return text;
}

/// "i/N" with i < N.
std::optional<ShardSpec> parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  const std::optional<std::uint64_t> index = parse_uint64(text.substr(0, slash));
  const std::optional<std::uint64_t> count =
      slash == std::string::npos ? std::nullopt : parse_uint64(text.substr(slash + 1));
  if (!index || !count || *index >= *count) return std::nullopt;
  return ShardSpec{*index, *count};
}

/// One knob: the consumed flag, else the variable (when there is one).
template <typename T>
std::optional<T> read_knob(int& argc, char** argv, std::string_view flag, const char* var,
                           std::optional<T> (*parse)(const std::string&),
                           const char* expected) {
  if (const std::optional<std::string> text = consume_flag(argc, argv, flag)) {
    if (std::optional<T> v = parse(*text)) return v;
    throw std::invalid_argument("scenario: " + std::string(flag) + " needs " + expected +
                                ", got '" + *text + "'");
  }
  const char* env = var == nullptr ? nullptr : std::getenv(var);
  if (env == nullptr) return std::nullopt;
  return parse(env);
}

}  // namespace

Overrides read_overrides(int& argc, char** argv) {
  Overrides o;
  o.seed = read_knob(argc, argv, "--seed", "OCI_SEED", &parse_uint64, "an unsigned integer");
  o.precision = read_knob(argc, argv, "--precision", "OCI_PRECISION", &parse_positive_real,
                          "a positive number");
  o.max_samples = read_knob(argc, argv, "--max-samples", "OCI_MAX_SAMPLES",
                            &parse_positive_count, "a positive integer");
  o.shard = read_knob(argc, argv, "--shard", nullptr, &parse_shard, "i/N with i < N")
                .value_or(ShardSpec{});
  o.cache_dir =
      read_knob(argc, argv, "--cache", "OCI_SCENARIO_CACHE", &parse_dir, "a directory");
  return o;
}

void Overrides::apply(ScenarioSpec& spec) const {
  if (seed) spec.seed = *seed;
  // Code-density traffic cannot chunk (whole-run order statistics); the
  // precision override skips those scenarios instead of invalidating them.
  if (precision && spec.resolved_mode() != TrafficMode::kCodeDensity) {
    spec.precision.target_half_width = *precision;
    // FORCE the absolute target: a spec's own looser relative /
    // rare-event rules would otherwise still fire first (targets
    // compose with OR) and silently undo the override.
    spec.precision.target_relative = 0.0;
    spec.precision.stop_below = 0.0;
    spec.precision.enabled = true;
  }
  if (max_samples) spec.precision.max_samples = *max_samples;
}

}  // namespace oci::scenario

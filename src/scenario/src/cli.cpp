#include "oci/scenario/cli.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace oci::scenario {

namespace {

/// The consumed CLI seed; lives here (not in the environment) so the
/// override can never leak into child processes or race a concurrent
/// getenv. Written from main() before threads exist.
std::optional<std::uint64_t>& cli_seed_slot() {
  static std::optional<std::uint64_t> slot;
  return slot;
}

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

/// Exports a consumed override as its environment variable so every
/// later resolution in the process sees it -- after checking it with
/// the same strict parser the environment uses, so an explicit CLI
/// override is never silently dropped.
void export_checked(const std::optional<std::string>& value, const char* flag, const char* var,
                    bool (*valid)(), const char* expected) {
  if (!value) return;
  setenv(var, value->c_str(), 1);
  if (valid()) return;
  unsetenv(var);
  throw std::invalid_argument(std::string("scenario: ") + flag + " needs " + expected +
                              ", got '" + *value + "'");
}

}  // namespace

void set_seed_override(std::optional<std::uint64_t> seed) { cli_seed_slot() = seed; }

std::optional<std::uint64_t> seed_override() { return cli_seed_slot(); }

std::optional<std::uint64_t> seed_from_env() {
  const char* env = std::getenv("OCI_SEED");
  if (env == nullptr) return std::nullopt;
  return parse_uint64(env);
}

std::optional<std::uint64_t> consume_seed_arg(int& argc, char** argv) {
  const std::optional<std::string> text = consume_flag(argc, argv, "--seed");
  if (!text) return std::nullopt;
  const std::optional<std::uint64_t> seed = parse_uint64(*text);
  if (!seed) {
    throw std::invalid_argument("scenario: --seed needs an unsigned integer, got '" + *text +
                                "'");
  }
  // Install the CLI seed as the in-process override so the documented
  // precedence (--seed beats OCI_SEED beats the spec) holds for EVERY
  // later resolution in this process -- including ScenarioRunner::
  // run()'s own re-resolution, which would otherwise re-apply a stale
  // OCI_SEED over the CLI value. The environment is left untouched.
  set_seed_override(seed);
  return seed;
}

std::optional<double> precision_from_env() {
  const char* env = std::getenv("OCI_PRECISION");
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0.0)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> max_samples_from_env() {
  const char* env = std::getenv("OCI_MAX_SAMPLES");
  if (env == nullptr) return std::nullopt;
  const std::optional<std::uint64_t> v = parse_uint64(env);
  if (!v || *v == 0) return std::nullopt;
  return v;
}

void consume_precision_args(int& argc, char** argv) {
  const std::optional<std::string> precision = consume_flag(argc, argv, "--precision");
  const std::optional<std::string> max_samples = consume_flag(argc, argv, "--max-samples");
  export_checked(precision, "--precision", "OCI_PRECISION",
                 [] { return precision_from_env().has_value(); }, "a positive number");
  export_checked(max_samples, "--max-samples", "OCI_MAX_SAMPLES",
                 [] { return max_samples_from_env().has_value(); }, "a positive integer");
}

void apply_precision_overrides(ScenarioSpec& spec) {
  if (const auto half_width = precision_from_env()) {
    // Code-density traffic cannot chunk (whole-run order statistics);
    // the env knob skips those scenarios instead of invalidating them.
    if (spec.resolved_mode() != TrafficMode::kCodeDensity) {
      spec.precision.target_half_width = *half_width;
      // FORCE the absolute target: a spec's own looser relative /
      // rare-event rules would otherwise still fire first (targets
      // compose with OR) and silently undo the override.
      spec.precision.target_relative = 0.0;
      spec.precision.stop_below = 0.0;
      spec.precision.enabled = true;
    }
  }
  if (const auto cap = max_samples_from_env()) {
    spec.precision.max_samples = *cap;
  }
}

std::uint64_t resolve_seed(std::uint64_t fallback) {
  if (const auto cli = seed_override()) return *cli;
  return seed_from_env().value_or(fallback);
}

std::uint64_t resolve_seed(std::uint64_t fallback, int& argc, char** argv) {
  const std::optional<std::uint64_t> cli = consume_seed_arg(argc, argv);
  if (cli) return *cli;
  return resolve_seed(fallback);
}

ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  const std::optional<std::uint64_t> index = parse_uint64(text.substr(0, slash));
  const std::optional<std::uint64_t> count =
      slash == std::string::npos ? std::nullopt : parse_uint64(text.substr(slash + 1));
  if (!index || !count || *index >= *count) {
    throw std::invalid_argument("scenario: --shard needs i/N with i < N, got '" + text + "'");
  }
  return ShardSpec{*index, *count};
}

std::optional<ShardSpec> consume_shard_arg(int& argc, char** argv) {
  // Strict: a garbled shard must not run the full sweep.
  const std::optional<std::string> text = consume_flag(argc, argv, "--shard");
  if (!text) return std::nullopt;
  return parse_shard(*text);
}

std::optional<std::string> cache_dir_from_env() {
  const char* env = std::getenv("OCI_SCENARIO_CACHE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::string(env);
}

std::optional<std::string> consume_cache_arg(int& argc, char** argv) {
  std::optional<std::string> out = consume_flag(argc, argv, "--cache");
  if (out && out->empty()) {
    throw std::invalid_argument("scenario: --cache needs a directory, got ''");
  }
  // Exported so every later resolve_cache_dir / run in the process
  // sees the CLI value -- same precedence story as seeds.
  if (out) setenv("OCI_SCENARIO_CACHE", out->c_str(), 1);
  return out;
}

std::optional<std::string> resolve_cache_dir(int& argc, char** argv) {
  if (auto cli = consume_cache_arg(argc, argv)) return cli;
  return cache_dir_from_env();
}

}  // namespace oci::scenario

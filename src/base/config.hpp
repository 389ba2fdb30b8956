// strt::cfg -- unified configuration resolution.
//
// Every runtime knob in this codebase resolves through one documented
// precedence chain:
//
//     CLI flag  >  STRT_* environment variable  >  compiled default
//
// A call site that owns a flag passes its parsed value as the `flag`
// argument (std::nullopt when the user did not set it); library code
// with no flag layer omits it.  The getters record every resolution --
// key, effective value, and which layer supplied it -- in a process-wide
// registry, so `--report` JSON can embed the exact configuration a run
// used (see effective_config() / effective_config_json()).
//
// Parsing rules (uniform across all call sites):
//   * get_bool:  unset/empty env -> default; the literal "0" -> false;
//     anything else -> true.
//   * get_int:   unset/empty/non-numeric env, or a value below `min`,
//     falls back to the default.  Flags below `min` fall through to the
//     env/default layers (a flag of 0 conventionally means "unset").
//     Env values go through parse_int(), which is also the one checked
//     parser the command-line tools use for their count flags.
//   * get_string: unset/empty env -> default.
//
// The resolution core is header-inline on purpose: strt_race sits below
// strt_base in the link order (base/mutex.hpp inlines race hooks), so
// race/lockdep.cpp can resolve STRT_LOCKDEP through this header without
// a link-time dependency on strt_base.  The registry behind the inline
// getters uses std::mutex, never strt::Mutex -- config is consulted from
// inside the lockdep runtime itself, and an instrumented lock here would
// recurse.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace strt::cfg {

/// Which precedence layer supplied an effective value.
enum class Source : std::uint8_t { kFlag, kEnv, kDefault };

[[nodiscard]] constexpr std::string_view source_name(Source s) {
  switch (s) {
    case Source::kFlag:
      return "flag";
    case Source::kEnv:
      return "env";
    case Source::kDefault:
      return "default";
  }
  return "default";
}

/// One recorded resolution: the env-style key (e.g. "STRT_THREADS"), the
/// effective value rendered as a string, and the layer that supplied it.
struct Resolution {
  std::string key;
  std::string value;
  Source source = Source::kDefault;
};

namespace detail {

struct RegistryState {
  std::mutex mu;
  std::map<std::string, Resolution> entries;
};

/// The process-wide resolution registry.  Inline-function static: one
/// instance per executable however many libraries include this header.
inline RegistryState& registry() {
  static RegistryState state;
  return state;
}

inline void record(std::string_view key, std::string value, Source source) {
  RegistryState& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.entries[std::string(key)] =
      Resolution{std::string(key), std::move(value), source};
}

}  // namespace detail

/// Boolean knob.  Env semantics: unset or empty -> `def`; "0" -> false;
/// any other value -> true (matches the historical STRT_CACHE /
/// STRT_OBS / STRT_LOCKDEP parsers).
[[nodiscard]] inline bool get_bool(std::string_view key, bool def,
                                   std::optional<bool> flag = std::nullopt) {
  bool value = def;
  Source source = Source::kDefault;
  if (flag.has_value()) {
    value = *flag;
    source = Source::kFlag;
  } else if (const char* env = std::getenv(std::string(key).c_str());
             env != nullptr && *env != '\0') {
    value = std::string_view(env) != "0";
    source = Source::kEnv;
  }
  detail::record(key, value ? "1" : "0", source);
  return value;
}

/// Parses the whole of `text` as a base-10 integer no smaller than `min`.
/// nullopt on empty or non-numeric text, a trailing character, overflow,
/// or a value below `min` -- so "abc", "4x" and, for a count, "-1" are
/// all rejected rather than wrapped or truncated.
[[nodiscard]] inline std::optional<std::int64_t> parse_int(
    std::string_view text, std::int64_t min) {
  std::int64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || value < min) return std::nullopt;
  return value;
}

/// Integer knob with a floor.  A flag below `min` counts as unset (the
/// conventional 0 = "resolve from the environment"); an env value that
/// fails to parse or sits below `min` falls back to the default.
[[nodiscard]] inline std::int64_t get_int(
    std::string_view key, std::int64_t def, std::int64_t min = 1,
    std::optional<std::int64_t> flag = std::nullopt) {
  std::int64_t value = def;
  Source source = Source::kDefault;
  if (flag.has_value() && *flag >= min) {
    value = *flag;
    source = Source::kFlag;
  } else if (const char* env = std::getenv(std::string(key).c_str());
             env != nullptr && *env != '\0') {
    if (const std::optional<std::int64_t> v = parse_int(env, min)) {
      value = *v;
      source = Source::kEnv;
    }
  }
  detail::record(key, std::to_string(value), source);
  return value;
}

/// String knob.  Unset or empty env -> default; an empty flag counts as
/// unset.
[[nodiscard]] inline std::string get_string(
    std::string_view key, std::string_view def,
    std::optional<std::string_view> flag = std::nullopt) {
  std::string value(def);
  Source source = Source::kDefault;
  if (flag.has_value() && !flag->empty()) {
    value = std::string(*flag);
    source = Source::kFlag;
  } else if (const char* env = std::getenv(std::string(key).c_str());
             env != nullptr && *env != '\0') {
    value = env;
    source = Source::kEnv;
  }
  detail::record(key, value, source);
  return value;
}

/// Snapshot of every resolution recorded so far, key-ordered.
[[nodiscard]] std::vector<Resolution> effective_config();

/// The same snapshot rendered as a JSON object:
///   {"STRT_THREADS":{"value":"4","source":"env"}, ...}
/// (for embedding under a run report's "config" key).
[[nodiscard]] std::string effective_config_json();

}  // namespace strt::cfg

// The traced pass of the strt benchmark: an in-memory span recorder for
// the benchmark's own calls into each layer, and the layer probes that
// derive the per-layer metrics from those spans.
//
// A span is one call the benchmark makes into a layer's public function:
// name, start, end, parent span, and the system or request id it
// concerns.  Spans stay in memory and are written out once, at exit
// (write_json).  A span's self time is its duration minus the time its
// child spans cover.  The recorder is single-threaded: only the
// benchmark's one generator thread records, never the library's threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::string_view name;     // a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t ref = 0;  // system index or request id
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Records one span over its lifetime (nothing when the tracer is off).
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::uint64_t ref = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  /// Durations in nanoseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;

  /// Mean duration of the spans called `name`, in microseconds; 0 when
  /// there are none.
  [[nodiscard]] double mean_us(std::string_view name) const;

  /// Summed duration of the spans called `name`, in microseconds.
  [[nodiscard]] double total_us(std::string_view name) const;

  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Writes every span plus a per-name summary (count, total and self
  /// time) as one JSON document.
  void write_json(std::ostream& os, std::string_view workload,
                  std::uint64_t seed) const;

 private:
  [[nodiscard]] static std::int64_t now_ns();

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // ids of the open spans, innermost last
};

/// Median of `xs` (0 when empty); `xs` is reordered.
[[nodiscard]] double median(std::vector<double> xs);

/// The q-quantile of `xs` by linear interpolation between order
/// statistics (0 when empty).
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// Runs the layer probes on a sample of the workload's systems and
/// requests, recording into `tracer` (which must be on), and returns the
/// probe-derived per-layer metrics by name.  Kinds the workload does not
/// ask (sensitivity everywhere, joint-FP on oneshot_cold) are probed on
/// serve_mix's small-size systems for the same seed.
[[nodiscard]] std::map<std::string, double> probe_layers(const Inputs& in,
                                                         std::uint64_t seed,
                                                         Tracer& tracer);

/// Saves `ws` to `path` and loads it into a fresh workspace, under the
/// snapshot.save and snapshot.load spans.  Returns the file size in MB,
/// or a negative value when either step fails.
[[nodiscard]] double probe_snapshot(Tracer& tracer, strt::engine::Workspace& ws,
                                    const std::string& path);

}  // namespace perfbench

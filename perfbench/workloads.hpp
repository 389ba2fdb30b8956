// Workload generation and answer checking for the strt benchmark.
//
// Every input is derived from the --seed argument alone: the same seed
// gives a byte-identical JSONL request stream (and so the same request
// list), whatever the host.  Each generated system passes the same lint
// gate svc::run_request applies -- per-task, task-set and
// task-versus-supply passes -- before any request is made from it; a
// system that fails is redrawn from the same random stream, and the
// redraw count is reported.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/drt.hpp"
#include "resource/supply.hpp"
#include "svc/api.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kServeMix, kOneshotCold, kRestartWarm };

[[nodiscard]] std::string_view workload_name(Workload w);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view s);

/// kFull is what BENCHMARK.json runs; kSmall is the self-test size (same
/// generators, a few systems).
enum class Size : std::uint8_t { kFull, kSmall };

/// One task system and the supply it runs on.
struct System {
  std::vector<strt::DrtTask> tasks;
  strt::Supply supply = strt::Supply::dedicated(1);
};

/// One JSONL request stream, one request per line, in submission order.
/// Its lines are requests [begin, end) of Inputs::requests.
struct Stream {
  std::string text;
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

struct Inputs {
  std::vector<System> systems;
  /// serve_mix and restart_warm: one stream per pass, pass k serving
  /// streams[k % streams.size()]; oneshot_cold: the one request list.
  std::vector<Stream> streams;
  /// Every stream parsed once, in stream order.
  std::vector<strt::svc::AnalysisRequest> requests;
  /// Request i asks exactly what request first_of[i] asks (same kind,
  /// tasks and supply), so the two have the same answer.
  std::vector<std::size_t> first_of;
  /// Systems redrawn because they failed the lint gate.
  std::uint64_t redraws = 0;
};

/// Builds the workload's systems and request streams from `seed`.
/// restart_warm uses serve_mix's streams for the same seed.  Throws
/// std::runtime_error when a stream does not parse back into the
/// requests it was written from.
[[nodiscard]] Inputs make_inputs(Workload w, std::uint64_t seed, Size size);

/// The lint gate of svc::run_request: every task, the task set (when it
/// has several tasks) and the tasks against the supply.
[[nodiscard]] bool passes_lint(const std::vector<strt::DrtTask>& tasks,
                               const strt::Supply& supply);

/// Canonical text of an outcome's payload: kind, status, error,
/// diagnostics and the kind's result fields.  The id, timing statistics
/// and the trace are left out, so every run of one question gives the
/// same text.
[[nodiscard]] std::string answer_text(const strt::svc::AnalysisOutcome& out);

/// The paper's ordering on an FP outcome: structural_delay <= curve_delay
/// on every task row.  True for every other kind.
[[nodiscard]] bool ordering_holds(const strt::svc::AnalysisOutcome& out);

/// FNV-1a 64 over `text`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench

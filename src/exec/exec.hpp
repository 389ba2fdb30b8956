// Parallel execution: one index loop shared by the caller and a few
// helper threads, behind two loop shapes.
//
//   parallel_for(n, fn)  -- fn(i) for every i in [0, n), blocking.
//   parallel_map(n, fn)  -- collects fn(i) into a vector indexed by i.
//
// Where it is used: sensitivity_analysis (one index per perturbed
// parameter), bench::trials, and the benchmark driver's untimed input
// preparation.  These are the loops whose iterations are coarse and
// independent enough to pay for threads; the analyses that fold in
// order (fp levels, Audsley, joint-FP paths, the service's batch tail)
// are plain loops.
//
// Sizing: a call runs on min(thread_count(), n) participants -- the
// caller plus helper threads started for that call and joined before it
// returns.  thread_count() comes from STRT_THREADS, defaulting to
// std::thread::hardware_concurrency(); STRT_THREADS=1 is the fully
// serial fallback -- no thread is ever created and parallel_for is a
// plain loop.  A helper that cannot be started is not an error: the
// participants already running finish the range.
//
// Scheduling: every participant claims the next unclaimed index from one
// shared atomic counter, one index per claim, so a participant stuck on
// an expensive index never holds cheap ones back.  The intended grain is
// coarse (one index == one whole analysis), so the claim cost is noise.
// `exec.tasks` counts indices of parallel runs, and a "parallel_for" obs
// span wraps every parallel run on the calling thread.
//
// Determinism: the schedule (which thread runs which index) is
// nondeterministic, but results are deterministic by construction --
// parallel_map writes slot i from iteration i only, and callers fold the
// slots serially in index order, so results are bit-identical to a
// STRT_THREADS=1 run.
//
// Nesting: a parallel_for issued from inside a parallel_for runs inline
// and serial.  The outer loop owns the hardware.
//
// Exceptions: the first exception thrown by any iteration is captured,
// no further index starts, and the exception is rethrown on the calling
// thread after every helper has stopped.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace strt::exec {

/// The configured participant count (calling thread + helpers), >= 1.
/// Resolved from STRT_THREADS on first use; see set_thread_count().
[[nodiscard]] std::size_t thread_count();

/// Overrides the participant count (tests / benches).  `n == 0` resets to
/// the STRT_THREADS / hardware default.  Takes effect for parallel_for
/// calls that start afterwards.
void set_thread_count(std::size_t n);

/// True while the calling thread is executing inside a parallel_for
/// (either as a helper or as the caller).  Nested parallel loops
/// detect this and run serially.
[[nodiscard]] bool inside_parallel_region();

/// Invokes fn(i) for every i in [0, n), distributing across the
/// participants; returns when all iterations completed.  Serial (plain
/// loop, no thread started) when n <= 1, thread_count() == 1, or nested.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// parallel_for that collects results: out[i] = fn(i).  The output order
/// is by index regardless of the execution schedule, so a serial fold
/// over the returned vector is deterministic.
template <class Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>, "parallel_map requires a result type");
  std::vector<std::optional<R>> slots(n);
  parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace strt::exec

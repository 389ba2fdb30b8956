// strt::race -- the deterministic interleaving explorer.
//
// An Explorer runs a test body many times, each time under a different
// thread interleaving, with every context switch decided by the
// explorer rather than the OS.  Threads park at the STRT_RACE_* yield
// points (race/hook.hpp) and at strt::Mutex / strt::CondVar operations;
// exactly one registered thread runs at a time, so an execution is a
// pure function of the decision sequence and can be replayed, minimized,
// and printed as a witness when a property fails.
//
// Scheduling model (CHESS-style iterative context bounding):
//
//   * CHOICE points: hook sites matching ExploreOptions::choice_sites
//     (prefix match; empty = every hook).  At a choice point the
//     explorer either continues the running thread (free) or preempts
//     to another ready thread (consumes one unit of the preemption
//     budget).  Exhaustive mode runs a DFS over every decision sequence
//     with at most max_preemptions preemptions; random mode samples
//     decision sequences from a seeded RNG.
//   * FORCED switches: when the running thread blocks (virtual mutex
//     busy, condvar wait, join, spawn await) or finishes, the lowest-id
//     ready thread runs next.  Forced switches are deterministic, cost
//     no budget, and are not branched on -- the bound trades those
//     schedules away for a state space that a test can exhaust (see
//     DESIGN.md "Concurrency correctness" for what the bound does and
//     does not guarantee).
//   * max_steps aborts a runaway execution (a livelock backstop).
//
// Mutexes and condvars are arbitrated *virtually*: the explorer tracks
// ownership and waiter sets itself and only lets a thread issue the
// real lock when the virtual owner has really released, so a parked
// thread can safely hold real locks without wedging the process.
//
// Every execution also feeds the vector-clock happens-before checker
// (race/vector_clock.hpp); unordered conflicting access pairs accumulate
// across schedules into races().
//
// Usage contract for the body (enforced by the harness where possible):
//   * spawn a thread, then immediately await it (STRT_RACE_AWAIT_THREAD
//     / Explorer-side race::spawn_await) with no hook in between;
//   * announce joins (race::join or STRT_RACE_JOIN) so the explorer
//     knows the joiner is waiting on a thread, not wedged;
//   * never block on anything the explorer cannot see (futures: poll
//     with wait_for(0) after the owning thread is known to be done);
//   * create and destroy every thread inside the body -- an execution
//     ends only when all registered threads finished.
//
// Only built with real hooks when STRT_RACE=1; the class itself exists
// in every build so tests can skip gracefully.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "race/hook.hpp"
#include "race/vector_clock.hpp"

namespace strt::race {

struct ExploreOptions {
  /// Preemption budget per schedule (voluntary switches at choice
  /// points); 2 reaches every bug class two racing fix-windows deep.
  int max_preemptions = 2;
  /// Hook-site prefixes that branch the DFS; empty = every site.
  std::vector<std::string> choice_sites;
  /// Abort one execution after this many scheduling events (livelock
  /// backstop; an abort fails the exploration loudly).
  std::size_t max_steps = 50'000;
  /// Stop exploring after this many schedules even if the DFS frontier
  /// is not exhausted (reported via exhausted()).
  std::size_t max_schedules = 500'000;
  /// > 0: run this many seeded random schedules instead of the DFS.
  std::size_t random_schedules = 0;
  std::uint64_t seed = 0x5eed;
  /// Feed the happens-before checker (small per-event cost).
  bool track_hb = true;
};

/// A failed property plus the schedule that produced it.
struct Violation {
  std::string message;
  /// Human-readable schedule trace: one "thread @ site [decision]" line
  /// per scheduling event of the violating execution.
  std::string witness;
  std::size_t schedule_index = 0;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions opts);
  ~Explorer();

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Runs `body` once per schedule until the decision space is
  /// exhausted, a violation is recorded, or a cap is hit.  Returns the
  /// number of schedules executed.  Re-entrant per process: only one
  /// Explorer may be exploring at a time.
  std::size_t explore(const std::function<void()>& body);

  /// Records a property violation from inside the body; the current
  /// schedule becomes the witness and exploration stops after this
  /// execution completes.
  void violation(std::string message);

  [[nodiscard]] const std::optional<Violation>& found() const {
    return violation_;
  }
  [[nodiscard]] std::size_t schedules_run() const { return schedules_run_; }
  /// True when the DFS ran out of undominated decision sequences (the
  /// bounded space is fully covered); false when a cap or violation
  /// stopped it early.
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  /// Unordered conflicting access pairs across all executions.
  [[nodiscard]] const std::vector<HbRace>& races() const;
  /// Schedule trace of the most recent execution.
  [[nodiscard]] std::string last_witness() const;

 private:
  friend struct ExplorerRuntime;
  struct Impl;
  Impl* impl_;
  ExploreOptions opts_;
  std::optional<Violation> violation_;
  std::size_t schedules_run_ = 0;
  bool exhausted_ = false;
};

#if STRT_RACE

/// Explorer-aware join: announces the join to the active schedule, then
/// joins.  Safe (plain join) when no schedule is active.
void join(std::thread& t);

/// Test-side equivalents of STRT_RACE_THREAD / STRT_RACE_AWAIT_THREAD
/// for threads the body spawns itself.
void adopt_thread(const char* prefix, std::size_t index);
void spawn_await(const char* prefix, std::size_t index);

/// True when an explorer is active AND controls the calling thread
/// (i.e. the thread registered with the current execution).  Hooked
/// blocking paths fall back to native waiting when this is false.
[[nodiscard]] bool self_scheduled() noexcept;

// Scheduler entry points called from base/mutex.hpp (virtual mutex and
// condvar arbitration).  Not for direct use.
void sched_mutex_create(const void* mu);
void sched_mutex_destroy(const void* mu);
void sched_mutex_lock(const void* mu);
[[nodiscard]] bool sched_mutex_try_lock(const void* mu);
void sched_mutex_unlock(const void* mu);
void sched_cv_enqueue(const void* cv);
void sched_cv_block(const void* cv);
void sched_cv_notify(const void* cv, bool all);

#endif  // STRT_RACE

}  // namespace strt::race

// strt::race -- yield-point hooks for the deterministic interleaving
// explorer (race/schedule.hpp).
//
// The concurrency hot spots of the library (the service's admission,
// worker, drain and shutdown transitions, strt::Mutex / strt::CondVar)
// are sprinkled with STRT_RACE_* macros.  In a normal build
// (STRT_RACE=0, the default) every macro expands to nothing: the release
// binary carries no trace of the instrumentation and results are
// bit-identical to an uninstrumented tree.
//
// In a race build (cmake -DSTRT_RACE=ON, which defines STRT_RACE=1
// project-wide) each macro compiles to a call into the explorer runtime.
// The calls are still near-free while no race::Explorer is active on the
// process (one thread-local flag test); under an active explorer they
// become the scheduling points at which the controlled scheduler may
// park the running thread and hand the processor to another.
//
// Hook placement rules (see DESIGN.md "Concurrency correctness"):
//
//   * STRT_RACE_ATOMIC go immediately BEFORE every atomic load, store,
//     and read-modify-write on shared protocol state, carrying the
//     address and memory order so the happens-before checker can track
//     synchronization (acquire/release pairs on one address order the
//     surrounding accesses; relaxed ones do not).  Accesses to
//     mutex-guarded state are announced the same way with kRelaxed: only
//     the mutex's hand-off edges may order them, so one that escaped
//     the lock shows up as a race.
//   * STRT_RACE_HOOK marks control transitions that are not a single
//     access (the worker and drain() about to take the service lock).
//   * Thread identity: STRT_RACE_THREAD names the calling thread
//     (stable across schedules, required for deterministic replay) and
//     STRT_RACE_AWAIT_THREAD blocks the creator until the named thread
//     has registered -- spawn a thread and await it with no other hook
//     in between, so the ready set at every choice point is a pure
//     function of the schedule.
#pragma once

#ifndef STRT_RACE
#define STRT_RACE 0
#endif

#include <cstddef>
#include <cstdint>

namespace strt::race {

/// Access kind recorded at an atomic yield point.
enum class Access : std::uint8_t { kLoad, kStore, kRmw };

/// Memory order recorded at an atomic yield point (collapsed to the
/// fragment the happens-before checker models).
enum class Order : std::uint8_t { kRelaxed, kAcquire, kRelease, kAcqRel };

}  // namespace strt::race

#if STRT_RACE

#include <thread>

namespace strt::race {

/// True while a race::Explorer controls this process's threads.  The
/// hot-path gate for every macro below.
[[nodiscard]] bool schedule_active() noexcept;

/// Plain yield point (control transition; no tracked address).
void hook(const char* site);

/// Atomic-access yield point: yields, then records the access against
/// `addr` for the vector-clock happens-before checker.
void hook_access(const char* site, const void* addr, Access access,
                 Order order);

/// Registers the calling thread with the active explorer under a stable
/// name ("<prefix>/<index>") and parks until first scheduled.
void name_thread(const char* prefix, std::size_t index);

/// Blocks the calling thread until the named thread has registered.
void await_thread(const char* prefix, std::size_t index);

/// Marks the calling thread blocked until the registered thread with
/// this std::thread::id finishes; call immediately before joining it.
void sched_join(std::thread::id tid);

}  // namespace strt::race

#define STRT_RACE_HOOK(site)                              \
  do {                                                    \
    if (::strt::race::schedule_active()) {                \
      ::strt::race::hook(site);                           \
    }                                                     \
  } while (0)

#define STRT_RACE_ATOMIC(site, addr, access, order)       \
  do {                                                    \
    if (::strt::race::schedule_active()) {                \
      ::strt::race::hook_access(site, addr,               \
                                ::strt::race::Access::access, \
                                ::strt::race::Order::order);  \
    }                                                     \
  } while (0)

#define STRT_RACE_THREAD(prefix, index)                   \
  do {                                                    \
    if (::strt::race::schedule_active()) {                \
      ::strt::race::name_thread(prefix, index);           \
    }                                                     \
  } while (0)

#define STRT_RACE_AWAIT_THREAD(prefix, index)             \
  do {                                                    \
    if (::strt::race::schedule_active()) {                \
      ::strt::race::await_thread(prefix, index);          \
    }                                                     \
  } while (0)

#define STRT_RACE_JOIN(thread_obj)                        \
  do {                                                    \
    if (::strt::race::schedule_active()) {                \
      ::strt::race::sched_join((thread_obj).get_id());    \
    }                                                     \
  } while (0)

#else  // !STRT_RACE

#define STRT_RACE_HOOK(site) ((void)0)
#define STRT_RACE_ATOMIC(site, addr, access, order) ((void)0)
#define STRT_RACE_THREAD(prefix, index) ((void)0)
#define STRT_RACE_AWAIT_THREAD(prefix, index) ((void)0)
#define STRT_RACE_JOIN(thread_obj) ((void)0)

#endif  // STRT_RACE

// Annotated mutex wrappers for Clang Thread Safety Analysis, plus the
// instrumentation seams for the strt::race tooling.
//
// strt::Mutex is std::mutex declared as a capability and strt::MutexLock
// is an annotated lock_guard, so `-Wthread-safety` can statically verify
// the locking discipline declared with STRT_GUARDED_BY / STRT_REQUIRES
// (see base/thread_annotations.hpp).  Under libstdc++ the std types carry
// no annotations, which is why the library's mutex-protected state goes
// through these wrappers instead.
//
// Condition variables: use strt::CondVar and the MutexLock::wait() hook.
// wait() releases and reacquires the mutex around the sleep; lexically
// the caller holds the capability across the call, which is exactly the
// guarantee the analysis needs for the predicate re-check that follows.
//
// Instrumentation (all of it compiles to the plain std::mutex wrapper
// unless the build opts in):
//
//   * STRT_LOCKDEP=1 (cmake -DSTRT_LOCKDEP=ON): every blocking lock()
//     records a lock-order edge between lock *instances* (registered at
//     Mutex construction), labeled with the *call site* (captured here
//     via std::source_location default arguments), into the global
//     lockdep graph (race/lockdep.hpp), detecting lock-order inversions
//     on the first run that merely COULD deadlock.  try_lock() enters
//     the held set without edges (it cannot block).  The environment
//     variable STRT_LOCKDEP=0 switches recording off at runtime.
//   * STRT_RACE=1 (cmake -DSTRT_RACE=ON): lock/unlock/wait/notify are
//     arbitrated by the deterministic interleaving explorer when one is
//     active (race/schedule.hpp).  The explorer virtualizes ownership:
//     a thread only issues the real lock once the explorer granted it,
//     so parked threads never wedge the real mutex.  It also tracks
//     mutex lifetimes: destroying a held or awaited mutex, or locking a
//     destroyed one, aborts the execution with a violation.
#pragma once

#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.hpp"
#include "race/hook.hpp"

#ifndef STRT_LOCKDEP
#define STRT_LOCKDEP 0
#endif

#if STRT_LOCKDEP
#include <source_location>

#include "race/lockdep.hpp"
#endif

#if STRT_RACE
#include "race/schedule.hpp"
#endif

namespace strt {

class STRT_CAPABILITY("mutex") Mutex {
 public:
#if STRT_LOCKDEP
  // Each instance is a node in the lock-order graph; registration at
  // construction keys the graph by lock identity while the acquisition
  // sites below label the edges for witness chains.
  Mutex() : ld_id_(race::lockdep_register()) { sched_create_(); }
  ~Mutex() {
    sched_destroy_();
    race::lockdep_forget(ld_id_);
  }
#elif STRT_RACE
  Mutex() { sched_create_(); }
  ~Mutex() { sched_destroy_(); }
#else
  Mutex() = default;
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if STRT_LOCKDEP
  void lock(const std::source_location& loc =
                std::source_location::current()) STRT_ACQUIRE() {
    sched_lock_();
    // Record before blocking so a genuine deadlock still reports.
    if (race::lockdep_enabled()) {
      race::lockdep_acquire(ld_id_, race::lockdep_site(loc));
    }
    mu_.lock();
  }

  [[nodiscard]] bool try_lock(const std::source_location& loc =
                                  std::source_location::current())
      STRT_TRY_ACQUIRE(true) {
    if (!sched_try_lock_()) return false;
    if (!mu_.try_lock()) {
      sched_unlock_();  // abandon the virtual grant
      return false;
    }
    if (race::lockdep_enabled()) {
      race::lockdep_try_acquire(ld_id_, race::lockdep_site(loc));
    }
    return true;
  }

  void unlock() STRT_RELEASE() {
    if (race::lockdep_enabled()) race::lockdep_release(ld_id_);
    mu_.unlock();
    sched_unlock_();
  }
#else
  void lock() STRT_ACQUIRE() {
    sched_lock_();
    mu_.lock();
  }

  [[nodiscard]] bool try_lock() STRT_TRY_ACQUIRE(true) {
    if (!sched_try_lock_()) return false;
    if (!mu_.try_lock()) {
      sched_unlock_();
      return false;
    }
    return true;
  }

  void unlock() STRT_RELEASE() {
    mu_.unlock();
    sched_unlock_();
  }
#endif

 private:
#if STRT_RACE
  // Virtual arbitration: ask the explorer first; the real operation is
  // then uncontended among scheduled threads.  Ordering matters: lock
  // acquires virtual-then-real, unlock releases real-then-virtual, so
  // "virtually free" implies "really free".
  void sched_lock_() {
    if (race::schedule_active()) race::sched_mutex_lock(this);
  }
  bool sched_try_lock_() {
    return !race::schedule_active() || race::sched_mutex_try_lock(this);
  }
  void sched_unlock_() {
    if (race::schedule_active()) race::sched_mutex_unlock(this);
  }
  // Lifetime: the explorer flags any lock of a destroyed mutex, which is
  // how a use-after-free of its owner surfaces without a sanitizer.
  void sched_create_() {
    if (race::schedule_active()) race::sched_mutex_create(this);
  }
  void sched_destroy_() {
    if (race::schedule_active()) race::sched_mutex_destroy(this);
  }
#else
  static void sched_create_() {}
  static void sched_destroy_() {}
  static void sched_lock_() {}
  static bool sched_try_lock_() { return true; }
  static void sched_unlock_() {}
#endif

  std::mutex mu_;
#if STRT_LOCKDEP
  race::LockId ld_id_;
#endif
};

class MutexLock;

/// Condition variable paired with strt::Mutex via MutexLock::wait().
/// Wraps std::condition_variable_any; under an active interleaving
/// explorer, waits park in the scheduler and notifications move waiters
/// through the explorer's ready set deterministically.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() {
    sched_notify_(false);
    cv_.notify_one();
  }

  void notify_all() {
    sched_notify_(true);
    cv_.notify_all();
  }

 private:
  friend class MutexLock;

#if STRT_RACE
  void sched_notify_(bool all) {
    if (race::schedule_active()) race::sched_cv_notify(this, all);
  }
#else
  static void sched_notify_(bool) {}
#endif

  std::condition_variable_any cv_;
};

/// Scoped lock (annotated std::lock_guard).
class STRT_SCOPED_CAPABILITY MutexLock {
 public:
#if STRT_LOCKDEP
  explicit MutexLock(Mutex& mu, const std::source_location& loc =
                                    std::source_location::current())
      STRT_ACQUIRE(mu) : mu_(mu) {
    mu_.lock(loc);
  }
#else
  explicit MutexLock(Mutex& mu) STRT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
#endif
  ~MutexLock() STRT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Blocks on `cv` until notified; the mutex is released while asleep
  /// and held again on return.  Call in a loop re-checking the guarded
  /// predicate, as with any condition variable.
  void wait(CondVar& cv) {
#if STRT_RACE
    if (race::schedule_active() && race::self_scheduled()) {
      // Enqueue while still holding the mutex (no lost wakeup), then
      // release, park in the explorer, and reacquire once scheduled.
      race::sched_cv_enqueue(&cv);
      mu_.unlock();
      race::sched_cv_block(&cv);
      mu_.lock();
      return;
    }
#endif
    cv.cv_.wait(*this);
  }

  /// BasicLockable hooks for std::condition_variable_any only.  They
  /// temporarily drop the capability without telling the analysis, which
  /// is the one re-acquisition pattern it cannot model; do not call them
  /// directly.
  void lock() STRT_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() STRT_NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace strt

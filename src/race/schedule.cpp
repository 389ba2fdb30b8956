#include "race/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace strt::race {

#if STRT_RACE

namespace {
/// Process-wide "an explorer controls this process" flag; the macro
/// hot-path gate.  Writes happen on the exploring (main) thread between
/// executions, when every other registered thread has finished.
std::atomic<bool> g_active{false};
}  // namespace

bool schedule_active() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

/// The explorer runtime.  One global mutex (`mu`) guards every piece of
/// scheduler state; threads park on their own condition variable under
/// it.  With exactly one thread running between scheduling events there
/// is no contention to speak of -- the mutex is a correctness device,
/// not a throughput one.
struct Explorer::Impl {
  struct Tstate {
    enum Status : std::uint8_t {
      kRunning,       // the unique thread allowed to execute hooked code
      kReady,         // runnable, parked until scheduled
      kBlockedMutex,  // parked on a virtually-owned strt::Mutex
      kBlockedCv,     // parked in MutexLock::wait
      kBlockedJoin,   // parked on another registered thread's finish
      kFinished,
    };
    int id = -1;
    std::string name;
    std::thread::id os_id;
    Status status = kReady;
    std::condition_variable cv;
    const void* wait_obj = nullptr;
    int join_target = -1;
  };

  struct VMutex {
    const void* mu = nullptr;
    int owner = -1;
    std::vector<int> waiters;  // FIFO handoff on release
  };

  struct VCv {
    const void* cv = nullptr;
    std::vector<int> waiters;  // enqueued, FIFO notify order
    std::vector<int> woken;    // notified between enqueue and block
  };

  struct Decision {
    int chosen = 0;
    int num_options = 1;
  };

  ExploreOptions opts;

  std::mutex mu;
  std::condition_variable any_cv;  // registration + all-finished waits

  // ---- per-execution state (reset by begin_execution) ----
  std::vector<std::unique_ptr<Tstate>> threads;
  std::vector<VMutex> vmutexes;
  std::vector<const void*> dead_mutexes;  // destroyed, address not reused
  std::vector<VCv> vcvs;
  std::size_t tape_pos = 0;
  int preemptions = 0;
  std::size_t steps = 0;
  bool bail = false;
  std::vector<std::string> trace;
  bool trace_truncated = false;
  HbChecker hb;
  std::uint64_t epoch = 0;
  std::size_t schedule_index = 0;
  std::mt19937_64 rng;

  // ---- cross-execution state ----
  std::vector<Decision> tape;  // DFS decision stack
  bool random_mode = false;
  std::string pending_violation;
  std::vector<HbRace> all_races;
  std::vector<std::string> race_keys;
  std::string last_witness_str;

  static constexpr std::size_t kMaxTrace = 4000;

  // ---------------------------------------------------------------
  static const char* status_name(Tstate::Status s) {
    switch (s) {
      case Tstate::kRunning: return "running";
      case Tstate::kReady: return "ready";
      case Tstate::kBlockedMutex: return "blocked-mutex";
      case Tstate::kBlockedCv: return "blocked-cv";
      case Tstate::kBlockedJoin: return "blocked-join";
      case Tstate::kFinished: return "finished";
    }
    return "?";
  }

  void trace_event(std::string line) {
    if (trace.size() >= kMaxTrace) {
      if (!trace_truncated) {
        trace.push_back("  ... (trace truncated)");
        trace_truncated = true;
      }
      return;
    }
    trace.push_back(std::move(line));
  }

  std::string state_dump() const {
    std::string out;
    for (const auto& t : threads) {
      out += "    ";
      out += t->name;
      out += ": ";
      out += status_name(t->status);
      out += "\n";
    }
    return out;
  }

  Tstate* find_by_name(const std::string& name) {
    for (const auto& t : threads) {
      if (t->name == name) return t.get();
    }
    return nullptr;
  }

  Tstate* find_by_os_id(std::thread::id os_id) {
    for (const auto& t : threads) {
      if (t->os_id == os_id) return t.get();
    }
    return nullptr;
  }

  /// Bails when `m` was destroyed earlier in this execution: whoever
  /// locks it is touching freed memory.
  bool lock_of_dead_locked(const void* m, const Tstate& me) {
    if (std::find(dead_mutexes.begin(), dead_mutexes.end(), m) ==
        dead_mutexes.end()) {
      return false;
    }
    start_bail_locked(me.name + " locks a destroyed mutex (use after "
                      "free)\n" + state_dump());
    return true;
  }

  VMutex& vmutex(const void* m) {
    for (VMutex& v : vmutexes) {
      if (v.mu == m) return v;
    }
    vmutexes.push_back({m, -1, {}});
    return vmutexes.back();
  }

  VCv& vcv(const void* c) {
    for (VCv& v : vcvs) {
      if (v.cv == c) return v;
    }
    vcvs.push_back({c, {}, {}});
    return vcvs.back();
  }

  std::vector<int> ready_ids() const {
    std::vector<int> out;
    for (const auto& t : threads) {
      if (t->status == Tstate::kReady) out.push_back(t->id);
    }
    return out;  // threads are id-ordered, so this is sorted
  }

  bool site_matches(const char* site) const {
    if (opts.choice_sites.empty()) return true;
    for (const std::string& prefix : opts.choice_sites) {
      if (std::strncmp(site, prefix.c_str(), prefix.size()) == 0) return true;
    }
    return false;
  }

  /// Aborts the current execution: records the message, wakes every
  /// parked thread, and makes all hooks pass-through so the execution
  /// drains natively (spin waits still terminate because all threads
  /// now run freely).  Call with `mu` held.
  void start_bail_locked(const std::string& msg) {
    if (bail) return;
    bail = true;
    if (pending_violation.empty()) {
      pending_violation = "error[race.schedule] " + msg;
    }
    trace_event("  !! bail: " + msg);
    for (const auto& t : threads) t->cv.notify_all();
    any_cv.notify_all();
  }

  void wake_locked(Tstate& t) {
    t.status = Tstate::kRunning;
    t.cv.notify_all();
  }

  /// Hands the processor to the lowest-id ready thread if nobody is
  /// running; declares deadlock when nothing can ever run again.
  void maybe_schedule_locked() {
    if (bail) return;
    Tstate* lowest_ready = nullptr;
    bool any_running = false;
    bool any_unfinished = false;
    for (const auto& t : threads) {
      if (t->status == Tstate::kRunning) any_running = true;
      if (t->status != Tstate::kFinished) any_unfinished = true;
      if (t->status == Tstate::kReady && lowest_ready == nullptr) {
        lowest_ready = t.get();
      }
    }
    if (any_running) return;
    if (lowest_ready != nullptr) {
      wake_locked(*lowest_ready);
      return;
    }
    if (any_unfinished) {
      start_bail_locked("deadlock: every registered thread is blocked\n" +
                        state_dump());
    }
  }

  void park(std::unique_lock<std::mutex>& lk, Tstate& t) {
    t.cv.wait(lk, [&] { return bail || t.status == Tstate::kRunning; });
  }

  /// Blocks the calling (running) thread with the given reason, picks a
  /// successor, and parks until rescheduled (or bail).
  void block_self_locked(std::unique_lock<std::mutex>& lk, Tstate& me,
                         Tstate::Status why, const void* obj,
                         const char* what) {
    me.status = why;
    me.wait_obj = obj;
    ++steps;
    trace_event("  #" + std::to_string(steps) + " " + me.name +
                ": blocked (" + what + ")");
    maybe_schedule_locked();
    park(lk, me);
    me.wait_obj = nullptr;
  }

  bool step_budget_ok_locked() {
    if (++steps > opts.max_steps) {
      start_bail_locked("step budget exceeded (" +
                        std::to_string(opts.max_steps) +
                        " scheduling events): livelock or runaway spin");
      return false;
    }
    return true;
  }

  /// The choice point: at a matching site the running thread either
  /// continues (free) or preempts to a ready thread (spends budget).
  /// Exhaustive mode consults/extends the DFS decision tape; random
  /// mode draws from the per-execution RNG.
  void choice_point_locked(std::unique_lock<std::mutex>& lk, Tstate& me,
                           const char* site) {
    if (!step_budget_ok_locked()) return;
    if (!site_matches(site)) return;
    const std::vector<int> ready = ready_ids();
    const bool can_preempt =
        preemptions < opts.max_preemptions && !ready.empty();
    const int num_options = 1 + (can_preempt ? static_cast<int>(ready.size()) : 0);
    if (num_options == 1) return;

    int chosen = 0;
    if (random_mode) {
      chosen = static_cast<int>(rng() % static_cast<std::uint64_t>(num_options));
    } else {
      if (tape_pos == tape.size()) tape.push_back({0, num_options});
      // A divergence between recorded and current option count means the
      // body was not deterministic under replay; clamp instead of
      // indexing out of range (the witness will look odd, not crash).
      chosen = std::min(tape[tape_pos].chosen, num_options - 1);
      ++tape_pos;
    }

    if (chosen == 0) {
      trace_event("  #" + std::to_string(steps) + " " + me.name + " @ " +
                  site + " [continue]");
      return;
    }
    Tstate& target = *threads[static_cast<std::size_t>(
        ready[static_cast<std::size_t>(chosen - 1)])];
    ++preemptions;
    trace_event("  #" + std::to_string(steps) + " " + me.name + " @ " + site +
                " [preempt -> " + target.name + "]");
    me.status = Tstate::kReady;
    wake_locked(target);
    park(lk, me);
  }

  /// Odometer-advances the DFS tape to the next unexplored decision
  /// sequence; false when the bounded space is exhausted.
  bool advance_tape() {
    while (!tape.empty()) {
      Decision& d = tape.back();
      if (++d.chosen < d.num_options) return true;
      tape.pop_back();
    }
    return false;
  }

  void record_races_locked() {
    for (const HbRace& r : hb.races()) {
      std::string key = r.first_site + "|" + r.second_site +
                        (r.write_write ? "|ww" : "|wr");
      if (std::find(race_keys.begin(), race_keys.end(), key) !=
          race_keys.end()) {
        continue;
      }
      race_keys.push_back(std::move(key));
      all_races.push_back(r);
    }
  }
};

/// Named (non-anonymous) so it matches the friend declaration in
/// Explorer, which is what lets the file-scope hook functions reach the
/// private Impl type.
struct ExplorerRuntime {
  using Impl = Explorer::Impl;
};

namespace {

using RtImpl = ExplorerRuntime::Impl;

/// The currently exploring runtime; non-null only inside explore().
struct Current {
  static RtImpl*& get() {
    static RtImpl* p = nullptr;
    return p;
  }
};

/// Per-OS-thread registration record.  The destructor is the thread
/// finish detector: it runs when the OS thread exits (after the thread
/// function returned), which is exactly when the explorer must hand the
/// processor onward and wake joiners.
struct TlReg {
  int id = -1;
  std::uint64_t epoch = 0;
  ~TlReg();
};
thread_local TlReg tl_reg;

/// The calling thread's Tstate in the current execution, or nullptr for
/// unregistered threads (whose hooks pass through untouched).
RtImpl::Tstate* self_locked(RtImpl& rt) {
  if (tl_reg.id < 0 || tl_reg.epoch != rt.epoch) return nullptr;
  return rt.threads[static_cast<std::size_t>(tl_reg.id)].get();
}

std::string thread_name(const char* prefix, std::size_t index) {
  return std::string(prefix) + "/" + std::to_string(index);
}

void on_thread_exit(RtImpl& rt, int id, std::uint64_t epoch) {
  std::unique_lock<std::mutex> lk(rt.mu);
  if (epoch != rt.epoch) return;
  RtImpl::Tstate& me = *rt.threads[static_cast<std::size_t>(id)];
  if (me.status == RtImpl::Tstate::kFinished) return;
  rt.hb.thread_finish(id);
  me.status = RtImpl::Tstate::kFinished;
  rt.trace_event("  -- " + me.name + " finished");
  for (const auto& t : rt.threads) {
    if (t->status == RtImpl::Tstate::kBlockedJoin && t->join_target == id) {
      t->status = RtImpl::Tstate::kReady;
      t->join_target = -1;
    }
  }
  rt.any_cv.notify_all();
  rt.maybe_schedule_locked();
}

TlReg::~TlReg() {
  RtImpl* rt = Current::get();
  if (rt == nullptr || id < 0 || !g_active.load(std::memory_order_relaxed)) {
    return;
  }
  on_thread_exit(*rt, id, epoch);
}

}  // namespace

// ------------------------------------------------------------------
// Hook entry points (race/hook.hpp).

bool self_scheduled() noexcept {
  RtImpl* rt = Current::get();
  if (rt == nullptr || !g_active.load(std::memory_order_relaxed)) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(rt->mu);
  return !rt->bail && self_locked(*rt) != nullptr;
}

void hook(const char* site) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr || me->status != RtImpl::Tstate::kRunning) return;
  rt->choice_point_locked(lk, *me, site);
}

void hook_access(const char* site, const void* addr, Access access,
                 Order order) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr || me->status != RtImpl::Tstate::kRunning) return;
  rt->choice_point_locked(lk, *me, site);
  // Record the access only after any preemption resolved: the actual
  // atomic op executes right after this hook returns, with no other
  // thread scheduled in between.
  if (rt->opts.track_hb && !rt->bail) {
    rt->hb.atomic_access(me->id, addr, access, order, site);
  }
}

void name_thread(const char* prefix, std::size_t index) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  if (tl_reg.id >= 0 && tl_reg.epoch == rt->epoch) return;  // re-announce
  const int id = static_cast<int>(rt->threads.size());
  auto t = std::make_unique<RtImpl::Tstate>();
  t->id = id;
  t->name = thread_name(prefix, index);
  t->os_id = std::this_thread::get_id();
  t->status = RtImpl::Tstate::kReady;
  rt->threads.push_back(std::move(t));
  tl_reg.id = id;
  tl_reg.epoch = rt->epoch;
  rt->trace_event("  ++ " + rt->threads.back()->name + " registered");
  rt->any_cv.notify_all();  // wake the creator's await_thread
  rt->park(lk, *rt->threads[static_cast<std::size_t>(id)]);
}

void await_thread(const char* prefix, std::size_t index) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  const std::string name = thread_name(prefix, index);
  std::unique_lock<std::mutex> lk(rt->mu);
  rt->any_cv.wait(lk, [&] {
    return rt->bail || rt->find_by_name(name) != nullptr;
  });
  if (rt->bail) return;
  RtImpl::Tstate* child = rt->find_by_name(name);
  RtImpl::Tstate* me = self_locked(*rt);
  if (rt->opts.track_hb && child != nullptr) {
    // create happens-before the child's first step
    rt->hb.thread_start(child->id, me != nullptr ? me->id : -1);
  }
}

void sched_join(std::thread::id tid) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  RtImpl::Tstate* target = rt->find_by_os_id(tid);
  if (me == nullptr || target == nullptr || target == me) return;
  if (target->status != RtImpl::Tstate::kFinished) {
    me->join_target = target->id;
    rt->block_self_locked(lk, *me, RtImpl::Tstate::kBlockedJoin, nullptr,
                          ("join " + target->name).c_str());
    if (rt->bail) return;
  }
  if (rt->opts.track_hb) rt->hb.thread_join(me->id, target->id);
}

void join(std::thread& t) {
  if (schedule_active()) sched_join(t.get_id());
  t.join();
}

void adopt_thread(const char* prefix, std::size_t index) {
  name_thread(prefix, index);
}

void spawn_await(const char* prefix, std::size_t index) {
  await_thread(prefix, index);
}

// ------------------------------------------------------------------
// Virtual mutex / condvar arbitration (called from base/mutex.hpp).

void sched_mutex_create(const void* m) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  const std::lock_guard<std::mutex> lock(rt->mu);
  std::erase(rt->dead_mutexes, m);  // a new mutex reuses the address
}

void sched_mutex_destroy(const void* m) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  const std::lock_guard<std::mutex> lock(rt->mu);
  if (rt->bail) return;
  const auto it = std::find_if(
      rt->vmutexes.begin(), rt->vmutexes.end(),
      [m](const RtImpl::VMutex& v) { return v.mu == m; });
  if (it != rt->vmutexes.end()) {
    if (it->owner != -1 || !it->waiters.empty()) {
      rt->start_bail_locked("mutex destroyed while held or awaited\n" +
                            rt->state_dump());
      return;
    }
    rt->vmutexes.erase(it);
  }
  rt->dead_mutexes.push_back(m);
}

void sched_mutex_lock(const void* m) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr || me->status != RtImpl::Tstate::kRunning) return;
  if (rt->lock_of_dead_locked(m, *me)) return;
  RtImpl::VMutex& v = rt->vmutex(m);
  if (v.owner == -1) {
    v.owner = me->id;
  } else {
    v.waiters.push_back(me->id);
    rt->block_self_locked(lk, *me, RtImpl::Tstate::kBlockedMutex, m, "mutex");
    if (rt->bail) return;
    // sched_mutex_unlock made us the owner before readying us.
  }
  if (rt->opts.track_hb) rt->hb.mutex_acquire(me->id, m);
}

bool sched_mutex_try_lock(const void* m) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return true;  // uncontrolled: let the real try decide
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return true;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr || me->status != RtImpl::Tstate::kRunning) return true;
  if (rt->lock_of_dead_locked(m, *me)) return true;
  RtImpl::VMutex& v = rt->vmutex(m);
  if (v.owner != -1) return false;
  v.owner = me->id;
  if (rt->opts.track_hb) rt->hb.mutex_acquire(me->id, m);
  return true;
}

void sched_mutex_unlock(const void* m) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr) return;
  RtImpl::VMutex& v = rt->vmutex(m);
  if (v.owner != me->id) return;  // e.g. registered mid-critical-section
  if (rt->opts.track_hb) rt->hb.mutex_release(me->id, m);
  if (v.waiters.empty()) {
    v.owner = -1;
    return;
  }
  // FIFO handoff: the head waiter becomes owner and turns runnable; it
  // proceeds when the scheduler picks it.
  const int next = v.waiters.front();
  v.waiters.erase(v.waiters.begin());
  v.owner = next;
  RtImpl::Tstate& w = *rt->threads[static_cast<std::size_t>(next)];
  if (w.status == RtImpl::Tstate::kBlockedMutex) {
    w.status = RtImpl::Tstate::kReady;
  }
}

void sched_cv_enqueue(const void* c) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr) return;
  rt->vcv(c).waiters.push_back(me->id);
}

void sched_cv_block(const void* c) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr || me->status != RtImpl::Tstate::kRunning) return;
  RtImpl::VCv& v = rt->vcv(c);
  auto woken_it = std::find(v.woken.begin(), v.woken.end(), me->id);
  if (woken_it != v.woken.end()) {
    // The notify landed between enqueue and block: consume it.
    v.woken.erase(woken_it);
  } else {
    auto wait_it = std::find(v.waiters.begin(), v.waiters.end(), me->id);
    if (wait_it == v.waiters.end()) return;  // never enqueued: spurious
    rt->block_self_locked(lk, *me, RtImpl::Tstate::kBlockedCv, c, "condvar");
    if (rt->bail) return;
  }
  if (rt->opts.track_hb) rt->hb.cv_wake(me->id, c);
}

void sched_cv_notify(const void* c, bool all) {
  RtImpl* rt = Current::get();
  if (rt == nullptr) return;
  std::unique_lock<std::mutex> lk(rt->mu);
  if (rt->bail) return;
  RtImpl::Tstate* me = self_locked(*rt);
  if (me == nullptr) return;
  if (rt->opts.track_hb) rt->hb.cv_notify(me->id, c);
  RtImpl::VCv& v = rt->vcv(c);
  const std::size_t n = all ? v.waiters.size() : std::min<std::size_t>(
                                                     1, v.waiters.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int w = v.waiters.front();
    v.waiters.erase(v.waiters.begin());
    RtImpl::Tstate& t = *rt->threads[static_cast<std::size_t>(w)];
    if (t.status == RtImpl::Tstate::kBlockedCv && t.wait_obj == c) {
      t.status = RtImpl::Tstate::kReady;
    } else {
      v.woken.push_back(w);  // enqueued but not yet parked
    }
  }
}

// ------------------------------------------------------------------
// Explorer driver.

Explorer::Explorer(ExploreOptions opts) : impl_(new Impl), opts_(opts) {
  impl_->opts = opts_;
}

Explorer::~Explorer() {
  if (Current::get() == impl_) Current::get() = nullptr;
  delete impl_;
}

const std::vector<HbRace>& Explorer::races() const {
  return impl_->all_races;
}

std::string Explorer::last_witness() const {
  return impl_->last_witness_str;
}

void Explorer::violation(std::string message) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->pending_violation.empty()) {
    impl_->pending_violation = std::move(message);
  }
}

namespace {

void begin_execution(RtImpl& rt, std::size_t index,
                     const ExploreOptions& opts, bool random_mode) {
  const std::lock_guard<std::mutex> lock(rt.mu);
  ++rt.epoch;
  rt.threads.clear();
  rt.vmutexes.clear();
  rt.dead_mutexes.clear();
  rt.vcvs.clear();
  rt.trace.clear();
  rt.trace_truncated = false;
  rt.hb.clear();
  rt.tape_pos = 0;
  rt.preemptions = 0;
  rt.steps = 0;
  rt.bail = false;
  rt.schedule_index = index;
  rt.random_mode = random_mode;
  if (random_mode) rt.rng.seed(opts.seed + index);
  // The exploring thread is thread 0 ("main"), registered directly (no
  // TLS finish hook: it outlives every execution).
  auto t = std::make_unique<RtImpl::Tstate>();
  t->id = 0;
  t->name = "main";
  t->os_id = std::this_thread::get_id();
  t->status = RtImpl::Tstate::kRunning;
  rt.threads.push_back(std::move(t));
  tl_reg.id = 0;
  tl_reg.epoch = rt.epoch;
  if (opts.track_hb) rt.hb.thread_start(0, -1);
}

/// After the body returns on main: wait out stragglers, harvest races
/// and the witness, and drop the active flag.
void end_execution(RtImpl& rt) {
  std::unique_lock<std::mutex> lk(rt.mu);
  const auto others_finished = [&] {
    for (const auto& t : rt.threads) {
      if (t->id != 0 && t->status != RtImpl::Tstate::kFinished) return false;
    }
    return true;
  };
  if (!rt.any_cv.wait_for(lk, std::chrono::seconds(10), others_finished)) {
    rt.start_bail_locked("threads outlive the body (join them before it "
                         "returns)\n" + rt.state_dump());
    rt.any_cv.wait_for(lk, std::chrono::seconds(10), others_finished);
  }
  g_active.store(false, std::memory_order_relaxed);
  rt.record_races_locked();
  std::string witness;
  for (const std::string& line : rt.trace) {
    witness += line;
    witness += "\n";
  }
  rt.last_witness_str = std::move(witness);
  tl_reg.id = -1;
}

}  // namespace

std::size_t Explorer::explore(const std::function<void()>& body) {
  if (Current::get() != nullptr) {
    violation_ = Violation{
        "error[race.schedule] nested explore() is not supported", "", 0};
    return 0;
  }
  Current::get() = impl_;
  violation_.reset();
  schedules_run_ = 0;
  exhausted_ = false;
  impl_->tape.clear();
  impl_->pending_violation.clear();
  impl_->all_races.clear();
  impl_->race_keys.clear();
  const bool random_mode = opts_.random_schedules > 0;

  for (;;) {
    begin_execution(*impl_, schedules_run_, opts_, random_mode);
    g_active.store(true, std::memory_order_relaxed);
    body();
    end_execution(*impl_);
    ++schedules_run_;
    if (!impl_->pending_violation.empty()) {
      violation_ = Violation{impl_->pending_violation,
                             impl_->last_witness_str, schedules_run_ - 1};
      break;
    }
    if (random_mode) {
      if (schedules_run_ >= opts_.random_schedules) break;
    } else if (!impl_->advance_tape()) {
      exhausted_ = true;
      break;
    }
    if (schedules_run_ >= opts_.max_schedules) break;
  }

  Current::get() = nullptr;
  return schedules_run_;
}

#else  // !STRT_RACE

// Hookless builds keep the Explorer type so tests compile and skip at
// runtime; explore() runs the body once, natively.
struct Explorer::Impl {
  std::vector<HbRace> all_races;
  std::string last_witness_str;
  std::string pending_violation;
};

Explorer::Explorer(ExploreOptions opts) : impl_(new Impl), opts_(opts) {}

Explorer::~Explorer() { delete impl_; }

const std::vector<HbRace>& Explorer::races() const {
  return impl_->all_races;
}

std::string Explorer::last_witness() const {
  return impl_->last_witness_str;
}

void Explorer::violation(std::string message) {
  if (impl_->pending_violation.empty()) {
    impl_->pending_violation = std::move(message);
  }
}

std::size_t Explorer::explore(const std::function<void()>& body) {
  violation_.reset();
  impl_->pending_violation.clear();
  body();
  schedules_run_ = 1;
  exhausted_ = true;
  if (!impl_->pending_violation.empty()) {
    violation_ = Violation{impl_->pending_violation, "", 0};
  }
  return schedules_run_;
}

#endif  // STRT_RACE

}  // namespace strt::race

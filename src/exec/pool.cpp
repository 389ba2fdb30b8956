#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#include "base/config.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt::exec {

namespace {

thread_local bool t_inside_parallel = false;

/// Configured participant count; 0 until first resolved.
std::atomic<std::size_t> g_threads{0};

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(
      cfg::get_int("STRT_THREADS", /*def=*/hw == 0 ? 1 : hw, /*min=*/1));
}

/// Marks the current thread as inside a parallel region for its lifetime.
class Region {
 public:
  Region() : outer_(t_inside_parallel) { t_inside_parallel = true; }
  ~Region() { t_inside_parallel = outer_; }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  bool outer_;
};

}  // namespace

std::size_t thread_count() {
  std::size_t n = g_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = default_thread_count();
    g_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

void set_thread_count(std::size_t n) {
  g_threads.store(n == 0 ? default_thread_count() : n,
                  std::memory_order_relaxed);
}

bool inside_parallel_region() { return t_inside_parallel; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t participants =
      t_inside_parallel ? 1 : std::min(thread_count(), n);
  if (participants <= 1) {
    const Region region;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const obs::Span span("parallel_for");
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Written only by the participant that flips `failed`; read after the
  // helpers are joined.
  std::exception_ptr error;
  const auto work = [&] {
    const Region region;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < n && !failed.load(std::memory_order_relaxed);
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(participants - 1);
  try {
    while (helpers.size() + 1 < participants) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Too few threads available: the participants already running
    // finish the range.
  }
  work();
  for (std::thread& t : helpers) t.join();

  static obs::Counter& c_tasks = obs::counter("exec.tasks");
  c_tasks.add(n);
  if (error) std::rethrow_exception(error);
}

}  // namespace strt::exec

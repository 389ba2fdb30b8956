// strt::race -- lockdep lock-order analysis, the vector-clock
// happens-before checker, and the deterministic interleaving explorer.
//
// Three layers, three test groups:
//
//   * Lockdep drives the always-compiled lock-order graph directly
//     (fabricated sites and addresses): a 2-cycle and a 3-cycle report
//     full witness chains, try_lock acquisitions are exempt from edge
//     recording, and the engine's stripe fan-out pattern (one site
//     locking many stripe mutexes, never nested) stays clean.  Under
//     STRT_LOCKDEP=1 the same inversions are caught through real
//     strt::Mutex acquisitions.
//
//   * Hb drives HbChecker with synthetic event streams: unordered
//     write/write and write/read pairs are flagged; mutex hand-off,
//     release/acquire atomics, thread create and join edges order them.
//
//   * Explore (STRT_RACE=1 builds only; skipped elsewhere) finds a lost
//     update and prints its witness, then runs the Service's drain and
//     shutdown protocols to bounded exhaustion: drain() never returns
//     with a request unanswered, the destructor never strands an
//     admitted request nor frees the service under a submitter blocked
//     on backpressure, and no access to the service's guarded state
//     goes unordered.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <new>
#include <optional>
#include <source_location>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "model/generator.hpp"
#include "race/hook.hpp"
#include "race/lockdep.hpp"
#include "race/schedule.hpp"
#include "race/vector_clock.hpp"
#include "svc/api.hpp"
#include "svc/service.hpp"

namespace strt {
namespace {

// =================================================================
// Lockdep: the always-compiled lock-order graph, driven directly.

race::SiteId site(const char* label) {
  return race::lockdep_site(std::source_location::current(), label);
}

TEST(Lockdep, CycleOfTwoReportsWitness) {
  race::lockdep_reset();
  const race::LockId a = race::lockdep_register();
  const race::LockId b = race::lockdep_register();
  const race::SiteId sa = site("lockdep.test.A");
  const race::SiteId sb = site("lockdep.test.B");

  // This thread's order: A then B.
  race::lockdep_acquire(a, sa);
  race::lockdep_acquire(b, sb);
  race::lockdep_release(b);
  race::lockdep_release(a);
  EXPECT_EQ(race::lockdep_stats().cycles, 0u);

  // A second thread inverts the order: B then A closes the cycle.
  std::thread t([&] {
    race::lockdep_acquire(b, sb);
    race::lockdep_acquire(a, sa);
    race::lockdep_release(a);
    race::lockdep_release(b);
  });
  t.join();

  const std::vector<race::LockCycle> cycles = race::lockdep_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(race::lockdep_stats().cycles, 1u);
  // Full witness chain: both sites, closed (first == last).
  ASSERT_GE(cycles[0].chain_names.size(), 3u);
  EXPECT_EQ(cycles[0].chain_names.front(), cycles[0].chain_names.back());
  EXPECT_NE(cycles[0].message.find("error[race.lock-cycle]"),
            std::string::npos);
  EXPECT_NE(cycles[0].message.find("lockdep.test.A"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("lockdep.test.B"), std::string::npos);
  EXPECT_NE(race::lockdep_report().find("1 cycle(s)"), std::string::npos);
}

TEST(Lockdep, CycleOfThreeWitnessNamesEveryEdge) {
  race::lockdep_reset();
  const race::LockId a = race::lockdep_register();
  const race::LockId b = race::lockdep_register();
  const race::LockId c = race::lockdep_register();
  const race::SiteId sa = site("lockdep.tri.A");
  const race::SiteId sb = site("lockdep.tri.B");
  const race::SiteId sc = site("lockdep.tri.C");

  const auto nested = [](race::LockId first, race::SiteId sfirst,
                         race::LockId second, race::SiteId ssecond) {
    race::lockdep_acquire(first, sfirst);
    race::lockdep_acquire(second, ssecond);
    race::lockdep_release(second);
    race::lockdep_release(first);
  };
  nested(a, sa, b, sb);  // A -> B
  nested(b, sb, c, sc);  // B -> C
  EXPECT_EQ(race::lockdep_stats().cycles, 0u);
  nested(c, sc, a, sa);  // C -> A closes A -> B -> C -> A

  const std::vector<race::LockCycle> cycles = race::lockdep_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("(3 sites)"), std::string::npos);
  for (const char* name : {"lockdep.tri.A", "lockdep.tri.B",
                           "lockdep.tri.C"}) {
    EXPECT_NE(cycles[0].message.find(name), std::string::npos) << name;
  }
}

TEST(Lockdep, TryLockIsExemptFromEdges) {
  race::lockdep_reset();
  const race::LockId a = race::lockdep_register();
  const race::LockId b = race::lockdep_register();
  const race::SiteId sa = site("lockdep.try.A");
  const race::SiteId sb = site("lockdep.try.B");

  // A held while B is try-acquired: no A -> B edge (a try_lock cannot
  // block, so it cannot be the waiting half of a deadlock)...
  race::lockdep_acquire(a, sa);
  race::lockdep_try_acquire(b, sb);
  race::lockdep_release(b);
  race::lockdep_release(a);
  EXPECT_EQ(race::lockdep_stats().edges, 0u);

  // ...so the inverted blocking order B -> A stays acyclic.
  race::lockdep_acquire(b, sb);
  race::lockdep_acquire(a, sa);
  race::lockdep_release(a);
  race::lockdep_release(b);
  EXPECT_EQ(race::lockdep_stats().edges, 1u);
  EXPECT_EQ(race::lockdep_stats().cycles, 0u);
}

TEST(Lockdep, StripeFanOutIsNotAFalsePositive) {
  race::lockdep_reset();
  // The workspace memo pattern: one call site locks whichever of its 16
  // stripe mutexes the key hashes to, one at a time, never nested.
  race::LockId stripes[16];
  for (race::LockId& m : stripes) m = race::lockdep_register();
  const race::SiteId s = site("lockdep.stripe.memo");
  for (int round = 0; round < 3; ++round) {
    for (const race::LockId m : stripes) {
      race::lockdep_acquire(m, s);
      race::lockdep_release(m);
    }
  }
  // Non-nested acquisitions record no edges at all.
  EXPECT_EQ(race::lockdep_stats().edges, 0u);
  EXPECT_EQ(race::lockdep_stats().cycles, 0u);
  EXPECT_EQ(race::lockdep_stats().acquisitions, 48u);
}

TEST(Lockdep, SameSiteNestingIsAnImmediateSelfCycle) {
  race::lockdep_reset();
  const race::LockId m1 = race::lockdep_register();
  const race::LockId m2 = race::lockdep_register();
  const race::SiteId s = site("lockdep.nest.self");
  // Two instances nested under ONE site: any second thread doing the
  // same in the opposite instance order deadlocks, so the same-site
  // cycle is reported without needing to see that thread.
  race::lockdep_acquire(m1, s);
  race::lockdep_acquire(m2, s);
  race::lockdep_release(m2);
  race::lockdep_release(m1);
  EXPECT_EQ(race::lockdep_stats().cycles, 1u);
}

TEST(Lockdep, ResetClearsFindings) {
  race::lockdep_reset();
  const race::LockId a = race::lockdep_register();
  const race::SiteId s = site("lockdep.reset.site");
  race::lockdep_acquire(a, s);
  race::lockdep_acquire(a, s);  // relock of the held instance
  race::lockdep_release(a);
  race::lockdep_release(a);
  EXPECT_EQ(race::lockdep_stats().cycles, 1u);
  race::lockdep_reset();
  EXPECT_EQ(race::lockdep_stats().cycles, 0u);
  EXPECT_EQ(race::lockdep_stats().edges, 0u);
  EXPECT_TRUE(race::lockdep_cycles().empty());
}

#if STRT_LOCKDEP
// The instrumented path end to end: real strt::Mutex acquisitions in an
// intentionally inverted pair, sites captured from these very lines.
TEST(Lockdep, RealMutexInversionIsCaught) {
  race::lockdep_reset();
  Mutex a;
  Mutex b;
  {
    const MutexLock la(a);
    const MutexLock lb(b);
  }
  std::thread t([&] {
    const MutexLock lb(b);
    const MutexLock la(a);
  });
  t.join();
  const std::vector<race::LockCycle> cycles = race::lockdep_cycles();
  ASSERT_GE(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("test_race.cpp"), std::string::npos);
  race::lockdep_reset();
}
#endif  // STRT_LOCKDEP

// =================================================================
// HbChecker: synthetic event streams, every build flavor.

TEST(Hb, UnorderedWritesAreFlagged) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  hb.thread_start(1, 0);
  int x = 0;
  hb.plain_access(0, &x, true, "hb.t0.write");
  hb.plain_access(1, &x, true, "hb.t1.write");
  ASSERT_EQ(hb.races().size(), 1u);
  EXPECT_TRUE(hb.races()[0].write_write);
  EXPECT_EQ(hb.races()[0].first_site, "hb.t0.write");
  EXPECT_EQ(hb.races()[0].second_site, "hb.t1.write");
  EXPECT_FALSE(hb.ordered_so_far(&x));
}

TEST(Hb, UnorderedWriteReadIsFlagged) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  hb.thread_start(1, 0);
  int x = 0;
  hb.plain_access(0, &x, true, "hb.w");
  hb.plain_access(1, &x, false, "hb.r");
  ASSERT_EQ(hb.races().size(), 1u);
  EXPECT_FALSE(hb.races()[0].write_write);
}

TEST(Hb, MutexHandOffOrders) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  hb.thread_start(1, 0);
  int mu = 0;
  int x = 0;
  hb.mutex_acquire(0, &mu);
  hb.plain_access(0, &x, true, "hb.guarded.w0");
  hb.mutex_release(0, &mu);
  hb.mutex_acquire(1, &mu);
  hb.plain_access(1, &x, true, "hb.guarded.w1");
  hb.mutex_release(1, &mu);
  EXPECT_TRUE(hb.races().empty());
  EXPECT_TRUE(hb.ordered_so_far(&x));
}

TEST(Hb, ReleaseAcquirePairOrders) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  hb.thread_start(1, 0);
  int flag = 0;
  int x = 0;
  hb.plain_access(0, &x, true, "hb.data.w");
  hb.atomic_access(0, &flag, race::Access::kStore, race::Order::kRelease,
                   "hb.flag.store");
  hb.atomic_access(1, &flag, race::Access::kLoad, race::Order::kAcquire,
                   "hb.flag.load");
  hb.plain_access(1, &x, false, "hb.data.r");
  EXPECT_TRUE(hb.races().empty()) << hb.races()[0].first_site << " / "
                                  << hb.races()[0].second_site;
}

TEST(Hb, RelaxedPairDoesNotOrder) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  hb.thread_start(1, 0);
  int flag = 0;
  int x = 0;
  hb.plain_access(0, &x, true, "hb.rlx.data.w");
  hb.atomic_access(0, &flag, race::Access::kStore, race::Order::kRelaxed,
                   "hb.rlx.flag.store");
  hb.atomic_access(1, &flag, race::Access::kLoad, race::Order::kRelaxed,
                   "hb.rlx.flag.load");
  hb.plain_access(1, &x, false, "hb.rlx.data.r");
  // Both the flag pair itself and the data pair it failed to publish.
  bool data_pair_flagged = false;
  for (const race::HbRace& r : hb.races()) {
    if (r.first_site == "hb.rlx.data.w" && r.second_site == "hb.rlx.data.r") {
      data_pair_flagged = true;
    }
  }
  EXPECT_TRUE(data_pair_flagged);
  EXPECT_FALSE(hb.ordered_so_far(&x));
}

TEST(Hb, CreateAndJoinEdgesOrder) {
  race::HbChecker hb;
  hb.thread_start(0, -1);
  int x = 0;
  hb.plain_access(0, &x, true, "hb.parent.before");
  hb.thread_start(1, 0);  // create happens-before the child's first step
  hb.plain_access(1, &x, true, "hb.child.write");
  hb.thread_finish(1);
  hb.thread_join(0, 1);  // finish happens-before the join's return
  hb.plain_access(0, &x, true, "hb.parent.after");
  EXPECT_TRUE(hb.races().empty());
  EXPECT_TRUE(hb.ordered_so_far(&x));
}

// =================================================================
// The interleaving explorer.  Real schedules only under STRT_RACE=1;
// elsewhere each test skips (the Explorer type still exists and runs
// bodies natively, which the skip message points out).

#if STRT_RACE

TEST(Explore, FindsTheLostUpdateAndPrintsAWitness) {
  race::ExploreOptions opts;
  opts.max_preemptions = 1;
  opts.choice_sites = {"cnt."};
  race::Explorer ex(opts);
  int x = 0;
  ex.explore([&] {
    x = 0;
    std::thread t0([&] {
      STRT_RACE_THREAD("cnt", 0);
      STRT_RACE_HOOK("cnt.read0");
      const int seen = x;
      STRT_RACE_HOOK("cnt.write0");
      x = seen + 1;
    });
    STRT_RACE_AWAIT_THREAD("cnt", 0);
    std::thread t1([&] {
      STRT_RACE_THREAD("cnt", 1);
      STRT_RACE_HOOK("cnt.read1");
      const int seen = x;
      STRT_RACE_HOOK("cnt.write1");
      x = seen + 1;
    });
    STRT_RACE_AWAIT_THREAD("cnt", 1);
    race::join(t0);
    race::join(t1);
    if (x != 2) ex.violation("lost update: x == " + std::to_string(x));
  });
  ASSERT_TRUE(ex.found().has_value());
  EXPECT_NE(ex.found()->message.find("lost update"), std::string::npos);
  // The witness names the interleaving, thread by thread and site by
  // site, so the schedule can be read straight out of the failure.
  EXPECT_NE(ex.found()->witness.find("cnt/"), std::string::npos);
  EXPECT_NE(ex.found()->witness.find("preempt"), std::string::npos);
  EXPECT_GE(ex.schedules_run(), 2u);
  EXPECT_FALSE(ex.exhausted());
}

TEST(Explore, MutexMakesTheCounterAtomicUnderEverySchedule) {
  race::ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.choice_sites = {"cnt."};
  race::Explorer ex(opts);
  int x = 0;
  Mutex mu;
  const auto locked_inc = [&] {
    const MutexLock l(mu);
    STRT_RACE_HOOK("cnt.read");
    const int seen = x;
    STRT_RACE_HOOK("cnt.write");
    x = seen + 1;
  };
  ex.explore([&] {
    x = 0;
    std::thread t0([&] {
      STRT_RACE_THREAD("cnt", 0);
      locked_inc();
    });
    STRT_RACE_AWAIT_THREAD("cnt", 0);
    std::thread t1([&] {
      STRT_RACE_THREAD("cnt", 1);
      locked_inc();
    });
    STRT_RACE_AWAIT_THREAD("cnt", 1);
    race::join(t0);
    race::join(t1);
    if (x != 2) ex.violation("lost update under mutex: x == " +
                             std::to_string(x));
  });
  EXPECT_FALSE(ex.found().has_value())
      << ex.found()->message << "\n" << ex.found()->witness;
  EXPECT_TRUE(ex.exhausted());
  EXPECT_GE(ex.schedules_run(), 2u);
}

TEST(Explore, RandomModeRunsTheRequestedScheduleCount) {
  race::ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.choice_sites = {"cnt."};
  opts.random_schedules = 24;
  opts.seed = 0xfeedULL;
  race::Explorer ex(opts);
  int x = 0;
  Mutex mu;
  ex.explore([&] {
    x = 0;
    std::thread t0([&] {
      STRT_RACE_THREAD("cnt", 0);
      const MutexLock l(mu);
      STRT_RACE_HOOK("cnt.bump");
      ++x;
    });
    STRT_RACE_AWAIT_THREAD("cnt", 0);
    race::join(t0);
    if (x != 1) ex.violation("x == " + std::to_string(x));
  });
  EXPECT_FALSE(ex.found().has_value());
  EXPECT_EQ(ex.schedules_run(), 24u);
  EXPECT_FALSE(ex.exhausted());  // sampling never certifies the space
}

TEST(Explore, LockOfADestroyedMutexIsAViolation) {
  // The scheduler entry points stand in for Mutex::lock so the test
  // never touches the real mutex after its destructor ran.
  race::ExploreOptions opts;
  race::Explorer ex(opts);
  alignas(Mutex) unsigned char buf[sizeof(Mutex)];
  ex.explore([&] {
    Mutex* m = new (buf) Mutex;
    m->~Mutex();
    m = new (buf) Mutex;  // a new mutex may reuse the address
    race::sched_mutex_lock(m);
    race::sched_mutex_unlock(m);
    m->~Mutex();
    race::sched_mutex_lock(m);
  });
  ASSERT_TRUE(ex.found().has_value());
  EXPECT_NE(ex.found()->message.find("main locks a destroyed mutex"),
            std::string::npos)
      << ex.found()->message;
}

TEST(Explore, DestroyingAHeldMutexIsAViolation) {
  race::ExploreOptions opts;
  race::Explorer ex(opts);
  alignas(Mutex) unsigned char buf[sizeof(Mutex)];
  ex.explore([&] {
    Mutex* m = new (buf) Mutex;
    race::sched_mutex_lock(m);  // held, virtually only
    m->~Mutex();
  });
  ASSERT_TRUE(ex.found().has_value());
  EXPECT_NE(ex.found()->message.find("destroyed while held"),
            std::string::npos)
      << ex.found()->message;
}

// ---------------------------------------------------------------
// The service under the explorer.

std::vector<DrtTask> tiny_task_set(std::uint64_t seed) {
  Rng rng = Rng::split(seed, 0);
  DrtGenParams params;
  params.min_vertices = 2;
  params.max_vertices = 3;
  params.min_separation = Time(6);
  params.max_separation = Time(24);
  auto gen = random_drt_set(rng, 1, 0.3, params);
  std::vector<DrtTask> tasks;
  for (auto& g : gen) tasks.push_back(std::move(g.task));
  return tasks;
}

/// A structural request whose deadline has already expired on dispatch:
/// the full admission/queue/promise path runs, the engine does not, so
/// explored bodies stay fast and deterministic.
svc::AnalysisRequest tiny_request(std::uint64_t id, std::uint64_t seed) {
  svc::AnalysisRequest req;
  req.id = id;
  req.kind = svc::AnalysisKind::kStructural;
  req.supply = Supply::dedicated(1);
  req.tasks = tiny_task_set(seed);
  req.deadline = std::chrono::milliseconds(0);
  return req;
}

svc::ServiceOptions explored_opts() {
  svc::ServiceOptions o;
  o.queue_capacity = 2;
  o.max_batch = 1;
  return o;
}

/// One uncontrolled Service lifecycle before explore(): function-local
/// statics (obs registry cells, the api.cpp outcome counters) initialize
/// outside the controlled schedule, keeping explored executions
/// identical under replay.
void warm_service_statics(const svc::ServiceOptions& sopts,
                          const svc::AnalysisRequest& req) {
  svc::Service svc(sopts);
  svc::AnalysisRequest r = req;
  std::future<svc::AnalysisOutcome> fut = svc.submit(std::move(r));
  svc.drain();
  fut.get();
}

/// Every critical section of the service announces each guarded field it
/// touches as a relaxed access, so only the mutex's hand-off edges order
/// them.  Any
/// unordered pair -- write/write or write/read -- is an access that
/// escaped the lock, never acceptable in any explored schedule.
void expect_guarded_state_ordered(const race::Explorer& ex) {
  for (const race::HbRace& r : ex.races()) {
    ADD_FAILURE() << r.first_site << " / " << r.second_site
                  << (r.write_write ? ": unordered writes"
                                    : ": unordered write/read");
  }
}

TEST(ExploreSvc, DrainNeverReturnsEarlyOnShippedLogic) {
  const svc::ServiceOptions sopts = explored_opts();
  const svc::AnalysisRequest base = tiny_request(1, 7);
  warm_service_statics(sopts, base);

  race::ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.choice_sites = {"svc.drain.", "svc.worker."};
  race::Explorer ex(opts);
  ex.explore([&] {
    svc::Service svc(sopts);
    svc::AnalysisRequest req = base;
    std::future<svc::AnalysisOutcome> fut = svc.submit(std::move(req));
    svc.drain();
    if (fut.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ex.violation("drain() returned before the submitted request "
                   "resolved");
    }
  });
  EXPECT_FALSE(ex.found().has_value())
      << ex.found()->message << "\n" << ex.found()->witness;
  EXPECT_TRUE(ex.exhausted());
  EXPECT_GE(ex.schedules_run(), 2u);
  expect_guarded_state_ordered(ex);
}

/// Starts a registered producer thread that submits `req` into `*svc`
/// and returns once the producer has announced itself, *before* it
/// touches the service.  Between that announcement and the admission
/// taking the service lock there is no choice site, so in every explored
/// schedule the producer holds the lock before the caller's next step --
/// exactly the lifetime contract submit() has against the destructor.
std::thread start_producer(
    const std::unique_ptr<svc::Service>& svc, const svc::AnalysisRequest& req,
    std::optional<std::future<svc::AnalysisOutcome>>& fut) {
  // Shared: the producer may still be notifying after this returns.
  struct Handshake {
    Mutex mu;
    CondVar cv;
    bool entered = false;
  };
  auto hs = std::make_shared<Handshake>();
  std::thread producer([&svc, &req, &fut, hs] {
    STRT_RACE_THREAD("producer", 0);
    {
      const MutexLock l(hs->mu);
      hs->entered = true;
    }
    hs->cv.notify_all();
    svc::AnalysisRequest r = req;
    fut = svc->submit(std::move(r));
  });
  STRT_RACE_AWAIT_THREAD("producer", 0);
  MutexLock l(hs->mu);
  while (!hs->entered) l.wait(hs->cv);
  return producer;
}

TEST(ExploreSvc, ShutdownNeverStrandsAPromiseOnShippedLogic) {
  const svc::ServiceOptions sopts = explored_opts();
  const svc::AnalysisRequest base = tiny_request(1, 7);
  warm_service_statics(sopts, base);

  race::ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.choice_sites = {"svc.admit.", "svc.worker.", "svc.stop."};
  race::Explorer ex(opts);
  ex.explore([&] {
    auto svc = std::make_unique<svc::Service>(sopts);
    std::optional<std::future<svc::AnalysisOutcome>> fut;
    std::thread producer = start_producer(svc, base, fut);
    svc.reset();  // ~Service: stop, serve what is queued, join the worker
    race::join(producer);
    if (!fut.has_value()) {
      ex.violation("producer returned without a future");
      return;
    }
    try {
      fut->get();
    } catch (const std::future_error&) {
      ex.violation("stranded promise: the worker exited past a queued "
                   "request");
    }
  });
  EXPECT_FALSE(ex.found().has_value())
      << ex.found()->message << "\n" << ex.found()->witness;
  EXPECT_TRUE(ex.exhausted());
  EXPECT_GE(ex.schedules_run(), 2u);
  expect_guarded_state_ordered(ex);
}

TEST(ExploreSvc, ShutdownOutwaitsASubmitterBlockedOnSpace) {
  // Paused with room for one: the first request fills the queue, so the
  // producer parks in submit()'s backpressure wait and can only leave it
  // through the stop.  The destructor must not free the service while
  // the woken producer still has to take the lock back (the worker may
  // well have exited by then); ASan builds turn that into a hard error.
  svc::ServiceOptions sopts = explored_opts();
  sopts.queue_capacity = 1;
  sopts.start_paused = true;
  const svc::AnalysisRequest base = tiny_request(1, 7);
  warm_service_statics(sopts, base);

  race::ExploreOptions opts;
  opts.max_preemptions = 2;
  opts.choice_sites = {"svc.admit.", "svc.worker.", "svc.stop."};
  race::Explorer ex(opts);
  ex.explore([&] {
    auto svc = std::make_unique<svc::Service>(sopts);
    svc::AnalysisRequest first = base;
    std::future<svc::AnalysisOutcome> queued = svc->submit(std::move(first));
    std::optional<std::future<svc::AnalysisOutcome>> fut;
    std::thread producer = start_producer(svc, base, fut);
    svc.reset();
    race::join(producer);
    if (queued.get().status == svc::OutcomeStatus::kRejected) {
      ex.violation("the queued request was rejected, not served");
    }
    if (!fut.has_value() ||
        fut->get().status != svc::OutcomeStatus::kRejected) {
      ex.violation("the blocked producer was admitted past the stop");
    }
  });
  EXPECT_FALSE(ex.found().has_value())
      << ex.found()->message << "\n" << ex.found()->witness;
  EXPECT_TRUE(ex.exhausted());
  EXPECT_GE(ex.schedules_run(), 2u);
  expect_guarded_state_ordered(ex);
}

#else  // !STRT_RACE

TEST(Explore, RequiresRaceBuild) {
  GTEST_SKIP() << "interleaving explorer hooks are compiled out; "
                  "configure with -DSTRT_RACE=ON";
}

#endif  // STRT_RACE

}  // namespace
}  // namespace strt

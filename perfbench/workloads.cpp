#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "base/rng.hpp"
#include "check/check.hpp"
#include "exec/exec.hpp"
#include "io/parse.hpp"
#include "model/generator.hpp"
#include "obs/report.hpp"
#include "svc/request_stream.hpp"

namespace perfbench {

using strt::DrtGenParams;
using strt::DrtTask;
using strt::Rng;
using strt::Supply;
using strt::Time;
using strt::svc::AnalysisKind;

namespace {

// serve_mix: kServeStreams streams, each polling a few dozen 3-task
// systems over many rounds: kServeSystems * (6 + 5 * (kServeRounds - 1))
// = 1025 requests per stream.  A run so covers 600 systems, which keeps
// the per-seed cost of the workload steady, while one pass stays short
// enough to repeat many times in a run.
constexpr int kServeStreams = 24;
constexpr int kServeSystems = 25;
constexpr int kServeRounds = 8;
// oneshot_cold: four requests per system, 1200 distinct requests.
constexpr int kOneshotSystems = 300;

/// TDMA at rate 7/10 for every system; utilization sums are 0.45
/// (serve_mix) and 0.62 (oneshot_cold).
Supply bench_supply() { return Supply::tdma(Time(7), Time(10)); }

/// One serve_mix system.  The cost factors are fixed by the system's
/// slot in its stream, not drawn: vertex counts cycle through 3..12
/// across the three tasks, the minimum separation is log-spaced over
/// 100..316 ticks across the slots (each edge draws from [min, 3 * min]),
/// and the utilization shares are 0.2 / 0.15 / 0.1.  The seed draws the
/// graphs themselves (cycle order, chords, separations, wcets).  Cost
/// grows steeply with the separation scale; above about 300 ticks a few
/// systems per seed set the run's p99 by themselves.
System serve_system(Rng& rng, int slot, int slots, std::uint64_t& redraws) {
  const double exponent =
      2.0 + 0.5 * static_cast<double>((slot * 7) % slots) /
                static_cast<double>(slots);
  const auto min_sep =
      static_cast<std::int64_t>(std::llround(std::pow(10.0, exponent)));
  constexpr double kShares[3] = {0.2, 0.15, 0.1};
  System sys;
  sys.supply = bench_supply();
  for (;;) {
    sys.tasks.clear();
    for (int j = 0; j < 3; ++j) {
      DrtGenParams p;
      p.min_vertices = p.max_vertices =
          static_cast<std::size_t>(3 + (slot + 4 * j) % 10);
      p.min_separation = Time(min_sep);
      p.max_separation = Time(3 * min_sep);
      p.target_utilization = kShares[j];
      sys.tasks.push_back(strt::random_drt(rng, p).task);
    }
    if (passes_lint(sys.tasks, sys.supply)) return sys;
    ++redraws;
  }
}

/// One oneshot_cold system: two 40-80 vertex tasks with about 1.5
/// chords per vertex and separations of 300-1000 ticks, at utilization
/// 0.465 + 0.155 on the 0.7 supply, so busy windows run to 10^3 ticks.
System oneshot_system(Rng& rng, int slot, std::uint64_t& redraws) {
  constexpr double kShares[2] = {0.465, 0.155};
  System sys;
  sys.supply = bench_supply();
  for (;;) {
    sys.tasks.clear();
    for (int j = 0; j < 2; ++j) {
      DrtGenParams p;
      const auto v = static_cast<std::size_t>(40 + (slot * 13 + j * 20) % 41);
      p.min_vertices = p.max_vertices = v;
      p.chord_probability = 1.5 / static_cast<double>(v - 1);
      p.min_separation = Time(300);
      p.max_separation = Time(1000);
      p.target_utilization = kShares[j];
      sys.tasks.push_back(strt::random_drt(rng, p).task);
    }
    if (passes_lint(sys.tasks, sys.supply)) return sys;
    ++redraws;
  }
}

void append_request(std::string& stream, std::uint64_t id, AnalysisKind kind,
                    const std::vector<const DrtTask*>& tasks,
                    const Supply& supply) {
  stream += "{\"id\": " + std::to_string(id) + ", \"kind\": \"" +
            std::string(strt::svc::kind_name(kind)) + "\", \"supply\": \"" +
            strt::obs::json_escape(strt::serialize_supply(supply)) +
            "\", \"tasks\": [";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i > 0) stream += ", ";
    stream += '"';
    stream += strt::obs::json_escape(strt::serialize_task(*tasks[i]));
    stream += '"';
  }
  stream += "]}\n";
}

/// A serve_mix stream over `systems`: rounds over the systems,
/// interleaved.  Every round polls each system with structural, fp, edf
/// twice and audsley; the first round also asks joint-FP.  Sensitivity
/// is left out: its near-overload probes make rare requests whose memo
/// footprint is 40x the next largest, and those set peak RSS and p99 by
/// themselves (the traced pass still times it per request).
std::string serve_stream(std::span<const System> systems, int rounds,
                         std::uint64_t& id) {
  std::string text;
  for (int r = 0; r < rounds; ++r) {
    for (const System& sys : systems) {
      const auto& t = sys.tasks;
      const auto add = [&](AnalysisKind k, std::vector<const DrtTask*> ts) {
        append_request(text, ++id, k, ts, sys.supply);
      };
      add(AnalysisKind::kStructural, {&t[0]});
      add(AnalysisKind::kFp, {&t[0], &t[1], &t[2]});
      add(AnalysisKind::kEdf, {&t[0], &t[1], &t[2]});
      add(AnalysisKind::kEdf, {&t[0], &t[1], &t[2]});
      add(AnalysisKind::kAudsley, {&t[0], &t[1], &t[2]});
      if (r == 0) add(AnalysisKind::kJointFp, {&t[0], &t[2]});
    }
  }
  return text;
}

/// The oneshot_cold list: structural, fp, edf and audsley per system.
std::string oneshot_stream(std::span<const System> systems) {
  std::string text;
  std::uint64_t id = 0;
  for (const System& sys : systems) {
    const auto& t = sys.tasks;
    for (const AnalysisKind k :
         {AnalysisKind::kStructural, AnalysisKind::kFp, AnalysisKind::kEdf,
          AnalysisKind::kAudsley}) {
      std::vector<const DrtTask*> ts = {&t[0]};
      if (k != AnalysisKind::kStructural) ts.push_back(&t[1]);
      append_request(text, ++id, k, ts, sys.supply);
    }
  }
  return text;
}

/// Identity of what a request asks, without its id.
std::string request_key(const strt::svc::AnalysisRequest& req) {
  std::string key(strt::svc::kind_name(req.kind));
  key += ':' + std::to_string(strt::svc::request_fingerprint(req));
  return key;
}

std::string time_text(Time t) {
  return t.is_unbounded() ? "inf" : std::to_string(t.count());
}

std::string work_text(strt::Work w) {
  return w.is_unbounded() ? "inf" : std::to_string(w.count());
}

template <class T, class F>
std::string list_text(const std::vector<T>& xs, F&& f) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += f(xs[i]);
  }
  return s + ']';
}

}  // namespace

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kServeMix: return "serve_mix";
    case Workload::kOneshotCold: return "oneshot_cold";
    case Workload::kRestartWarm: return "restart_warm";
  }
  return "unknown";
}

std::optional<Workload> workload_from_name(std::string_view s) {
  for (const Workload w : {Workload::kServeMix, Workload::kOneshotCold,
                           Workload::kRestartWarm}) {
    if (workload_name(w) == s) return w;
  }
  return std::nullopt;
}

bool passes_lint(const std::vector<DrtTask>& tasks, const Supply& supply) {
  strt::check::CheckResult r;
  for (const DrtTask& t : tasks) r.merge(strt::check::check_task(t));
  if (tasks.size() > 1) r.merge(strt::check::check_task_set(tasks));
  r.merge(strt::check::check_system(tasks, supply));
  return r.ok();
}

Inputs make_inputs(Workload w, std::uint64_t seed, Size size) {
  Inputs in;
  const bool small = size == Size::kSmall;
  std::vector<std::string> texts;
  // System s draws from its own split of the seed, so the systems can be
  // drawn on the exec pool without the schedule changing the inputs.
  const auto draw = [&](int count, auto&& one) {
    const auto n = static_cast<std::size_t>(count);
    in.systems.resize(n);
    std::vector<std::uint64_t> redraws(n, 0);
    strt::exec::parallel_for(n, [&](std::size_t s) {
      Rng rng = Rng::split(seed, s);
      in.systems[s] = one(rng, static_cast<int>(s), redraws[s]);
    });
    for (const std::uint64_t r : redraws) in.redraws += r;
  };
  if (w == Workload::kOneshotCold) {
    draw(small ? 6 : kOneshotSystems,
         [](Rng& rng, int s, std::uint64_t& redraws) {
           return oneshot_system(rng, s, redraws);
         });
    texts.push_back(oneshot_stream(in.systems));
  } else {
    const int streams = small ? 2 : kServeStreams;
    const int per_stream = small ? 4 : kServeSystems;
    draw(streams * per_stream,
         [per_stream](Rng& rng, int s, std::uint64_t& redraws) {
           return serve_system(rng, s % per_stream, per_stream, redraws);
         });
    std::uint64_t id = 0;
    for (int k = 0; k < streams; ++k) {
      const std::span<const System> mine(
          in.systems.data() + static_cast<std::size_t>(k * per_stream),
          static_cast<std::size_t>(per_stream));
      texts.push_back(serve_stream(mine, small ? 3 : kServeRounds, id));
    }
  }

  std::vector<std::vector<strt::svc::RequestParse>> parsed(texts.size());
  strt::exec::parallel_for(texts.size(), [&](std::size_t k) {
    std::istringstream is(texts[k]);
    parsed[k] =
        strt::svc::read_request_stream(is, strt::svc::StreamFormat::kJsonl);
  });
  std::unordered_map<std::string, std::size_t> first;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    Stream st;
    st.begin = in.requests.size();
    for (strt::svc::RequestParse& p : parsed[k]) {
      if (!p.request) {
        std::ostringstream msg;
        msg << "generated request does not parse back:\n";
        p.diagnostics.print(msg);
        throw std::runtime_error(msg.str());
      }
      const std::size_t i = in.requests.size();
      in.first_of.push_back(first.try_emplace(request_key(*p.request), i)
                                .first->second);
      in.requests.push_back(std::move(*p.request));
    }
    st.end = in.requests.size();
    st.text = std::move(texts[k]);
    in.streams.push_back(std::move(st));
  }
  return in;
}

std::string answer_text(const strt::svc::AnalysisOutcome& out) {
  std::string s = std::string(strt::svc::kind_name(out.kind)) + ' ' +
                  std::string(strt::svc::status_name(out.status)) + " |" +
                  out.error + "| " + out.diagnostics.to_json();
  if (const auto* r = out.structural()) {
    s += " delay=" + time_text(r->delay) + " backlog=" + work_text(r->backlog) +
         " bw=" + time_text(r->busy_window) +
         " vd=" + list_text(r->vertex_delays, time_text) +
         " meets=" + std::to_string(r->meets_vertex_deadlines) +
         " gen=" + std::to_string(r->stats.generated) +
         " exp=" + std::to_string(r->stats.expanded);
  } else if (const auto* f = out.fp()) {
    s += " over=" + std::to_string(f->overloaded) +
         " sbw=" + time_text(f->system_busy_window);
    for (const strt::FpTaskResult& t : f->tasks) {
      s += " [" + std::to_string(t.task_index) +
           " bw=" + time_text(t.busy_window) +
           " sd=" + time_text(t.structural_delay) +
           " cd=" + time_text(t.curve_delay) +
           " sb=" + work_text(t.structural_backlog) +
           " cb=" + work_text(t.curve_backlog) +
           " vd=" + list_text(t.vertex_delays, time_text) +
           " meets=" + std::to_string(t.meets_vertex_deadlines) + ']';
    }
  } else if (const auto* e = out.edf()) {
    s += " sched=" + std::to_string(e->schedulable) +
         " over=" + std::to_string(e->overloaded) + " viol=" +
         (e->first_violation ? time_text(*e->first_violation) : "-") +
         " margin=" + (e->margin ? std::to_string(*e->margin) : "-") +
         " h=" + time_text(e->horizon_checked);
  } else if (const auto* j = out.joint_fp()) {
    s += " over=" + std::to_string(j->overloaded) +
         " joint=" + time_text(j->joint_delay) +
         " rbf=" + time_text(j->rbf_delay) +
         " paths=" + std::to_string(j->paths_analyzed);
  } else if (const auto* sr = out.sensitivity()) {
    s += " feasible=" + std::to_string(sr->feasible) +
         " wcet=" + list_text(sr->wcet_slack, work_text) +
         " sep=" + list_text(sr->separation_slack, time_text);
  } else if (const auto* a = out.audsley()) {
    s += " feasible=" + std::to_string(a->feasible) + " order=" +
         list_text(a->order, [](std::size_t i) { return std::to_string(i); }) +
         " tests=" + std::to_string(a->tests_run);
  }
  return s;
}

bool ordering_holds(const strt::svc::AnalysisOutcome& out) {
  const strt::FpResult* f = out.fp();
  if (f == nullptr) return true;
  return std::all_of(f->tasks.begin(), f->tasks.end(),
                     [](const strt::FpTaskResult& t) {
                       return t.structural_delay <= t.curve_delay;
                     });
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench

#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <span>

#include "check/check.hpp"
#include "core/busy_window.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/explore.hpp"
#include "graph/workload.hpp"
#include "obs/report.hpp"

namespace perfbench {

using strt::DrtTask;
using strt::Staircase;
using strt::Supply;
using strt::Time;
using strt::svc::AnalysisKind;

// ---- Tracer ---------------------------------------------------------------

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& t, std::string_view name, std::uint64_t ref)
    : t_(t.on_ ? &t : nullptr) {
  if (t_ == nullptr) return;
  Span s;
  s.id = static_cast<std::uint32_t>(t_->spans_.size() + 1);
  s.parent = t_->open_.empty() ? 0 : t_->open_.back();
  s.name = name;
  s.ref = ref;
  index_ = t_->spans_.size();
  t_->open_.push_back(s.id);
  t_->spans_.push_back(s);
  t_->spans_[index_].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[index_].end_ns = now_ns();
  t_->open_.pop_back();
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::total_us(std::string_view name) const {
  double sum = 0;
  for (const double x : durations_ns(name)) sum += x;
  return sum / 1e3;
}

double Tracer::mean_us(std::string_view name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0 : total_us(name) / static_cast<double>(n);
}

std::size_t Tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

void Tracer::write_json(std::ostream& os, std::string_view workload,
                        std::uint64_t seed) const {
  // Child time per span, for self time = duration - child time.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) child_ns[s.parent] += s.end_ns - s.start_ns;
  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string_view, Total> totals;
  for (const Span& s : spans_) {
    Total& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[s.id];
  }
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"schema\": \"strt.perfbench.spans.v1\", \"workload\": \""
     << workload << "\", \"seed\": " << seed << ",\n\"summary\": [";
  bool first = true;
  for (const auto& [name, t] : totals) {
    os << (first ? "\n" : ",\n") << "  {\"name\": \""
       << strt::obs::json_escape(name) << "\", \"count\": " << t.count
       << ", \"total_us\": " << static_cast<double>(t.total_ns) / 1e3
       << ", \"self_us\": " << static_cast<double>(t.self_ns) / 1e3 << '}';
    first = false;
  }
  os << "],\n\"spans\": [";
  first = true;
  for (const Span& s : spans_) {
    os << (first ? "\n" : ",\n") << "  {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \""
       << strt::obs::json_escape(s.name) << "\", \"start_ns\": "
       << s.start_ns - t0 << ", \"end_ns\": " << s.end_ns - t0
       << ", \"ref\": " << s.ref << '}';
    first = false;
  }
  os << "]}\n";
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// ---- Layer probes ---------------------------------------------------------

namespace {

/// Systems and requests sampled per probe: enough for a stable mean,
/// few enough that the probes stay a small part of a traced run.
constexpr std::size_t kSampleSystems = 12;
constexpr std::size_t kSampleRequests = 8;
/// Warm memo lookups timed per task and curve family.
constexpr int kWarmLookups = 32;

/// `k` indices spread evenly over [0, n).
std::vector<std::size_t> spread(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  const std::size_t m = std::min(n, k);
  for (std::size_t i = 0; i < m; ++i) out.push_back(i * n / m);
  return out;
}

struct KindSpans {
  const char* cold;
  const char* warm;
};

KindSpans kind_spans(AnalysisKind k) {
  switch (k) {
    case AnalysisKind::kStructural:
      return {"core.structural.cold", "core.structural.warm"};
    case AnalysisKind::kFp: return {"core.fp.cold", "core.fp.warm"};
    case AnalysisKind::kEdf: return {"core.edf.cold", "core.edf.warm"};
    case AnalysisKind::kJointFp:
      return {"core.joint_fp.cold", "core.joint_fp.warm"};
    case AnalysisKind::kSensitivity:
      return {"core.sensitivity.cold", "core.sensitivity.warm"};
    case AnalysisKind::kAudsley:
      return {"core.audsley.cold", "core.audsley.warm"};
  }
  return {"core.unknown.cold", "core.unknown.warm"};
}

/// Per-system front gate, as svc::run_request applies it, on a fresh
/// workspace.
void probe_validate(Tracer& tr, const System& sys, std::size_t ref) {
  strt::engine::Workspace ws;
  const Tracer::Scope all(tr, "check.validate", ref);
  for (const DrtTask& t : sys.tasks) {
    const Tracer::Scope s(tr, "engine.validate", ref);
    (void)ws.validate(t);
  }
  {
    const Tracer::Scope s(tr, "check.check_task_set", ref);
    (void)strt::check::check_task_set(sys.tasks);
  }
  const Tracer::Scope s(tr, "check.check_system", ref);
  (void)strt::check::check_system(sys.tasks, sys.supply);
}

struct TaskProbe {
  double tasks = 0;  // tasks probed past the busy window
  double explore_states = 0;
  double explore_pruned = 0;
  double segments = 0;
  double inverse_calls = 0;
};

/// Graph, resource, core and curve layers on one task, each on fresh
/// state, then the engine's warm lookups.
void probe_task(Tracer& tr, const DrtTask& task, const Supply& supply,
                std::size_t ref, TaskProbe& acc) {
  {
    const Tracer::Scope s(tr, "graph.utilization", ref);
    (void)strt::utilization(task);
  }
  strt::engine::Workspace ws;
  std::optional<strt::BusyWindow> bw;
  {
    const Tracer::Scope s(tr, "core.busy_window", ref);
    bw = strt::busy_window(ws, task, supply);
  }
  if (!bw) return;  // the lint gate rules overload out
  acc.tasks += 1;
  const Time len = bw->length;
  // sbf() accepts no horizon below one supply period.
  const Time sbf_len = strt::max(len, supply.min_horizon());
  {
    strt::ExploreOptions o;
    o.elapsed_limit = strt::max(Time(0), len - Time(1));
    const Tracer::Scope s(tr, "graph.explore_paths", ref);
    const strt::ExploreResult r = strt::explore_paths(task, o);
    acc.explore_states += static_cast<double>(r.stats.generated);
    acc.explore_pruned += static_cast<double>(r.stats.pruned);
  }
  std::optional<Staircase> rbf;
  std::optional<Staircase> sbf;
  {
    const Tracer::Scope s(tr, "graph.rbf", ref);
    rbf = strt::rbf(task, len);
  }
  {
    const Tracer::Scope s(tr, "graph.dbf", ref);
    (void)strt::dbf(task, len);
  }
  {
    const Tracer::Scope s(tr, "resource.sbf", ref);
    sbf = supply.sbf(sbf_len);
  }

  // Curve kernels on the task's rbf and the supply's sbf.
  acc.segments += static_cast<double>(rbf->breakpoint_count() +
                                      sbf->breakpoint_count());
  {
    const Tracer::Scope s(tr, "curves.hdev", ref);
    (void)strt::hdev(*rbf, *sbf);
  }
  {
    const Tracer::Scope s(tr, "curves.minplus_conv", ref);
    (void)strt::minplus_conv(*rbf, *sbf);
  }
  {
    const Tracer::Scope s(tr, "curves.leftover_service", ref);
    (void)strt::leftover_service(*sbf, *rbf);
  }
  {
    const Tracer::Scope s(tr, "curves.concave_hull_staircase", ref);
    (void)strt::concave_hull_staircase(*rbf);
  }
  {
    const Tracer::Scope s(tr, "curves.pointwise_add", ref);
    (void)strt::pointwise_add(*rbf, *sbf);
  }
  {
    const std::span<const strt::Work> values = rbf->values();
    const Tracer::Scope s(tr, "curves.inverse_batch", ref);
    for (const strt::Work w : values) (void)sbf->inverse(w);
    acc.inverse_calls += static_cast<double>(values.size());
  }

  // Warm engine lookups: busy_window above filled rbf and sbf at `len`.
  (void)ws.dbf(task, len);
  for (int i = 0; i < kWarmLookups; ++i) {
    {
      const Tracer::Scope s(tr, "engine.rbf_hit", ref);
      (void)ws.rbf(task, len);
    }
    {
      const Tracer::Scope s(tr, "engine.dbf_hit", ref);
      (void)ws.dbf(task, len);
    }
    const Tracer::Scope s(tr, "engine.sbf_hit", ref);
    (void)ws.sbf(supply, sbf_len);
  }
}

/// A request of kind `k` on `sys`, with the task slots of svc/api.hpp:
/// the first task alone for structural and sensitivity, the first and
/// last for joint-FP, every task otherwise.
strt::svc::AnalysisRequest request_on(const System& sys, AnalysisKind k,
                                      std::uint64_t id) {
  strt::svc::AnalysisRequest req;
  req.id = id;
  req.kind = k;
  req.supply = sys.supply;
  if (k == AnalysisKind::kStructural || k == AnalysisKind::kSensitivity) {
    req.tasks = {sys.tasks.front()};
  } else if (k == AnalysisKind::kJointFp) {
    req.tasks = {sys.tasks.front(), sys.tasks.back()};
  } else {
    req.tasks = sys.tasks;
  }
  return req;
}

/// Requests of kind `k` in the first stream that first ask their
/// question, spread over it.  The first stream covers every slot of the
/// workload's generator (later streams repeat the slots).
std::vector<const strt::svc::AnalysisRequest*> distinct_of_kind(
    const Inputs& in, AnalysisKind k) {
  std::vector<const strt::svc::AnalysisRequest*> all;
  for (std::size_t i = 0; i < in.streams.front().end; ++i) {
    if (in.first_of[i] == i && in.requests[i].kind == k) {
      all.push_back(&in.requests[i]);
    }
  }
  std::vector<const strt::svc::AnalysisRequest*> out;
  for (const std::size_t i : spread(all.size(), kSampleRequests)) {
    out.push_back(all[i]);
  }
  return out;
}

}  // namespace

std::map<std::string, double> probe_layers(const Inputs& in,
                                           std::uint64_t seed,
                                           Tracer& tr) {
  std::map<std::string, double> m;

  TaskProbe acc;
  std::set<std::uint64_t> seen;
  // The first stream's systems: they cover every slot of the generator.
  const std::size_t first_stream = in.systems.size() / in.streams.size();
  for (const std::size_t i : spread(first_stream, kSampleSystems)) {
    const System& sys = in.systems[i];
    const Tracer::Scope s(tr, "probe.system", i);
    probe_validate(tr, sys, i);
    for (const DrtTask& t : sys.tasks) {
      if (!seen.insert(t.fingerprint()).second) continue;
      probe_task(tr, t, sys.supply, i, acc);
    }
  }
  m["check.validate_us"] = tr.mean_us("check.validate");
  m["graph.utilization_us"] = tr.mean_us("graph.utilization");
  m["core.busy_window_us"] = tr.mean_us("core.busy_window");
  m["graph.explore_us"] = tr.mean_us("graph.explore_paths");
  m["graph.explore_states"] =
      acc.tasks > 0 ? acc.explore_states / acc.tasks : 0;
  m["graph.explore_pruned_frac"] =
      acc.explore_states > 0 ? acc.explore_pruned / acc.explore_states : 0;
  m["graph.rbf_us"] = tr.mean_us("graph.rbf");
  m["graph.dbf_us"] = tr.mean_us("graph.dbf");
  m["resource.sbf_us"] = tr.mean_us("resource.sbf");
  m["curves.hdev_us"] = tr.mean_us("curves.hdev");
  m["curves.conv_us"] = tr.mean_us("curves.minplus_conv");
  m["curves.leftover_us"] = tr.mean_us("curves.leftover_service");
  m["curves.hull_us"] = tr.mean_us("curves.concave_hull_staircase");
  m["curves.add_us"] = tr.mean_us("curves.pointwise_add");
  {
    const std::vector<double> d = tr.durations_ns("curves.inverse_batch");
    double total = 0;
    for (const double x : d) total += x;
    m["curves.inverse_ns"] =
        acc.inverse_calls > 0 ? total / acc.inverse_calls : 0;
  }
  m["curves.segments"] =
      acc.tasks > 0 ? acc.segments / acc.tasks : 0;
  {
    std::vector<double> hits = tr.durations_ns("engine.rbf_hit");
    for (const char* name : {"engine.dbf_hit", "engine.sbf_hit"}) {
      const std::vector<double> d = tr.durations_ns(name);
      hits.insert(hits.end(), d.begin(), d.end());
    }
    m["engine.hit_ns"] = median(std::move(hits));
  }

  // Each kind cold on a fresh workspace, then warm on the same one.
  std::optional<Inputs> small;
  for (const AnalysisKind k : strt::svc::kAllAnalysisKinds) {
    std::vector<strt::svc::AnalysisRequest> reqs;
    for (const strt::svc::AnalysisRequest* r : distinct_of_kind(in, k)) {
      reqs.push_back(*r);
    }
    if (reqs.empty()) {
      if (!small) small = make_inputs(Workload::kServeMix, seed, Size::kSmall);
      for (const std::size_t i :
           spread(small->systems.size(), kSampleRequests)) {
        reqs.push_back(request_on(small->systems[i], k, i));
      }
    }
    const KindSpans names = kind_spans(k);
    for (const strt::svc::AnalysisRequest& req : reqs) {
      strt::engine::Workspace ws;
      {
        const Tracer::Scope s(tr, names.cold, req.id);
        (void)strt::svc::run_request(ws, req);
      }
      const Tracer::Scope s(tr, names.warm, req.id);
      (void)strt::svc::run_request(ws, req);
    }
    const std::string base = "core." + std::string(strt::svc::kind_name(k));
    m[base + ".cold_us"] = tr.mean_us(names.cold);
    m[base + ".warm_us"] = tr.mean_us(names.warm);
  }
  return m;
}

double probe_snapshot(Tracer& tr, strt::engine::Workspace& ws,
                      const std::string& path) {
  bool ok = false;
  {
    const Tracer::Scope s(tr, "snapshot.save");
    ok = ws.save_snapshot(path);
  }
  if (!ok) return -1;
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (ec) return -1;
  {
    strt::engine::Workspace fresh;
    const Tracer::Scope s(tr, "snapshot.load");
    ok = fresh.load_snapshot(path);
  }
  std::filesystem::remove(path, ec);
  return ok ? static_cast<double>(bytes) / 1e6 : -1;
}

}  // namespace perfbench

// strt benchmark: generates one workload from a seed, drives it
// through the public svc / engine / core entry points, checks every
// answer, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of the traced pass).  perfbench/run.py builds and
// runs it; see perfbench/README.md for the workloads and metrics.
//
//   strt_bench --workload serve_mix|oneshot_cold|restart_warm --seed N
//              --seconds S --trace 0|1 [--size full|small] [--out DIR]
//              [--digests FILE]
//   strt_bench --workload W --seed N --dump-inputs [--size full|small]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A wrong answer makes "correct" false and the exit code 1.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/config.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "layers.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "svc/request_stream.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace svc = strt::svc;
namespace engine = strt::engine;
using Clock = std::chrono::steady_clock;

/// The seed the committed answer digests are for.
constexpr std::uint64_t kDigestSeed = 1;
/// Service constructions timed for setup_s besides one per timed pass.
constexpr std::size_t kExtraSetups = 9;
/// one-shot start-ups timed for setup_s on oneshot_cold.
constexpr int kStartupProbes = 31;
/// Exec pool participants while anything is timed.  One means the
/// analyses run serially on the thread that asks for them (the shard
/// worker, or the loop on oneshot_cold), so a run keeps one thread busy
/// and its times do not measure how a shared host schedules a pool as
/// wide as its cores.  Untimed work (drawing the inputs, restart_warm's
/// snapshot-writing serves, the reference answers) uses the hardware
/// threads.
constexpr std::size_t kMeasuredExecThreads = 1;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Process user + system CPU seconds.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  Workload workload = Workload::kServeMix;
  std::uint64_t seed = kDigestSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string digests = "perfbench/digests.json";
  bool dump_inputs = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "strt_bench: " << why << "\n"
            << "usage: strt_bench --workload serve_mix|oneshot_cold|"
               "restart_warm --seed N --seconds S --trace 0|1 "
               "[--size full|small] [--out DIR] [--digests FILE] "
               "[--dump-inputs]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const std::string v = value();
        const std::optional<Workload> w = workload_from_name(v);
        if (!w) usage("unknown workload '" + v + "'");
        a.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
        if (!(a.seconds > 0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (arg == "--size") {
        const std::string v = value();
        if (v != "full" && v != "small") usage("--size takes full or small");
        a.size = v == "small" ? Size::kSmall : Size::kFull;
      } else if (arg == "--out") {
        a.out_dir = value();
      } else if (arg == "--digests") {
        a.digests = value();
      } else if (arg == "--dump-inputs") {
        a.dump_inputs = true;
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// The one-shot CLI's start-up, run in a child process: configuration,
/// the exec pool size, a workspace, and the first request parsed.  Writes
/// one byte to `fd` when ready for the first analysis.
int startup_probe(int fd, const char* first_line) {
  (void)strt::obs::enabled();
  (void)strt::exec::thread_count();
  engine::Workspace ws;
  const svc::RequestParse p = svc::parse_request_json(first_line, 1);
  const char ready = p.request ? 'r' : 'x';
  if (write(fd, &ready, 1) != 1) return 1;
  return 0;
}

/// Spawns `self` in start-up probe mode and returns the seconds from
/// spawn to its ready byte, or a negative value on failure.
double time_startup(const std::string& self, const std::string& first_line) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const std::string fd_arg = std::to_string(fds[1]);
  std::vector<char*> argv = {const_cast<char*>(self.c_str()),
                             const_cast<char*>("--startup-probe"),
                             const_cast<char*>(fd_arg.c_str()),
                             const_cast<char*>(first_line.c_str()), nullptr};
  pid_t pid = 0;
  const Clock::time_point t0 = Clock::now();
  const int rc = posix_spawn(&pid, self.c_str(), nullptr, nullptr,
                             argv.data(), environ);
  close(fds[1]);
  double elapsed = -1;
  if (rc == 0) {
    char b = 0;
    const ssize_t n = read(fds[0], &b, 1);
    if (n == 1 && b == 'r') elapsed = seconds_since(t0);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) elapsed = -1;
  }
  close(fds[0]);
  return elapsed;
}

/// What the answer check keeps of one outcome once the outcome is gone.
struct Answer {
  std::size_t request = 0;  // index into Inputs::requests
  bool ok = false;          // status ok, id echoed, FP ordering holds
  std::uint64_t hash = 0;   // fnv1a(answer_text(outcome))
};

Answer summarize(const Inputs& in, std::size_t i,
                 const svc::AnalysisOutcome& out) {
  return {i, out.ok() && out.id == in.requests[i].id && ordering_holds(out),
          fnv1a(answer_text(out))};
}

/// The reference answer to each distinct request (indexed by request;
/// only entries with first_of[i] == i are used).
struct Reference {
  std::vector<std::uint64_t> hash;
  std::vector<bool> ok;
  std::vector<bool> have;

  explicit Reference(std::size_t n)
      : hash(n, 0), ok(n, false), have(n, false) {}

  void set(const Answer& a) {
    hash[a.request] = a.hash;
    ok[a.request] = a.ok;
    have[a.request] = true;
  }
};

/// svc::run_request on a private workspace for every distinct request
/// that has no reference yet, spread over the exec pool (outside any
/// timed region).
void complete_reference(const Inputs& in, Reference& ref) {
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    if (in.first_of[i] == i && !ref.have[i]) todo.push_back(i);
  }
  const std::vector<Answer> got =
      strt::exec::parallel_map(todo.size(), [&](std::size_t j) {
        return summarize(in, todo[j], svc::run_request(in.requests[todo[j]]));
      });
  for (const Answer& a : got) ref.set(a);
}

/// Counts the answers that are not ok or differ from the reference.
std::uint64_t count_failures(const Inputs& in, const Reference& ref,
                             const std::vector<Answer>& answers) {
  std::uint64_t failed = 0;
  for (const Answer& a : answers) {
    const std::size_t f = in.first_of[a.request];
    if (!a.ok || !ref.ok[f] || a.hash != ref.hash[f]) ++failed;
  }
  return failed;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of the reference answers of every request, in stream order.
std::uint64_t answers_digest(const Inputs& in, const Reference& ref) {
  std::uint64_t h = fnv1a("strt.perfbench.answers.v1");
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    h = fnv1a(hex64(ref.hash[in.first_of[i]]) + "\n", h);
  }
  return h;
}

/// The committed digest for `workload` in the JSON object at `path` (""
/// when the file or the entry is missing or malformed).
std::string committed_digest(const std::string& path, std::string_view w) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  try {
    const strt::obs::JsonValue doc = strt::obs::JsonValue::parse(ss.str());
    const strt::obs::JsonValue* v = doc.find(w);
    return v != nullptr ? v->string : "";
  } catch (const std::invalid_argument&) {
    return "";
  }
}

// ---- Served workloads (serve_mix, restart_warm) ----------------------------

struct Served {
  /// Per pass.
  std::vector<double> wall_s, cpu_s, pass_requests, setup_s, bytes;
  /// Per request: service (run_us) and queue-wait times.
  std::vector<double> run_us, queue_us;
  std::vector<Answer> answers;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
  std::uint64_t hits = 0, misses = 0, inv_hits = 0, inv_misses = 0;
};

/// The measured configuration: library defaults, plus on restart_warm the
/// snapshot of the stream being served.
svc::ServiceOptions service_options(const std::string& snapshot_base,
                                    std::size_t stream) {
  svc::ServiceOptions opts;
  if (!snapshot_base.empty()) {
    opts.snapshot_path = snapshot_base + "." + std::to_string(stream);
  }
  return opts;
}

/// One pass over stream `k`: build a Service (timed as set-up), then
/// parse the stream, submit everything with blocking admission, collect
/// every outcome and drain() (timed as the pass).  Each outcome is
/// reduced to an Answer after the clock stops, for the check at the end of
/// the run.  `after` runs on the drained service before it is destroyed.
void served_pass(const Inputs& in, std::size_t k,
                 const std::string& snapshot_base, Tracer& tr, Served& acc,
                 const std::function<void(svc::Service&)>& after = {}) {
  const Stream& st = in.streams[k];
  const Tracer::Scope pass(tr, "bench.served_pass", k);
  const Clock::time_point s0 = Clock::now();
  std::optional<svc::Service> service;
  {
    const Tracer::Scope s(tr, "svc.Service", k);
    service.emplace(service_options(snapshot_base, k));
  }
  acc.setup_s.push_back(seconds_since(s0));
  const engine::WorkspaceStats ws0 = service->workspace().stats();

  std::istringstream stream(st.text);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<svc::RequestParse> parses;
  {
    const Tracer::Scope s(tr, "svc.read_request_stream", k);
    parses = svc::read_request_stream(stream, svc::StreamFormat::kJsonl);
  }
  std::vector<std::optional<std::future<svc::AnalysisOutcome>>> futures;
  futures.reserve(parses.size());
  for (svc::RequestParse& p : parses) {
    if (!p.request) {
      futures.emplace_back();
      continue;
    }
    const Tracer::Scope s(tr, "svc.submit", p.request->id);
    futures.emplace_back(service->submit(std::move(*p.request)));
  }
  std::vector<svc::AnalysisOutcome> outs(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i]) continue;
    const Tracer::Scope s(tr, "svc.future_get", in.requests[st.begin + i].id);
    outs[i] = futures[i]->get();
  }
  {
    const Tracer::Scope s(tr, "svc.drain", k);
    service->drain();
  }
  acc.wall_s.push_back(seconds_since(t0));
  acc.cpu_s.push_back(cpu_seconds() - cpu0);
  acc.pass_requests.push_back(static_cast<double>(st.size()));

  const svc::ServiceStats stats = service->stats();
  const engine::WorkspaceStats ws1 = service->workspace().stats();
  acc.batches += stats.batches;
  acc.batched += stats.batched_requests;
  acc.hits += ws1.hits - ws0.hits;
  acc.misses += ws1.misses - ws0.misses;
  acc.inv_hits += ws1.inverse_hits - ws0.inverse_hits;
  acc.inv_misses += ws1.inverse_misses - ws0.inverse_misses;
  acc.bytes.push_back(static_cast<double>(ws1.bytes));
  if (after) after(*service);
  {
    const Tracer::Scope s(tr, "svc.~Service", k);
    service.reset();
  }

  acc.requests += st.size();
  for (std::size_t j = 0; j < st.size(); ++j) {
    const std::size_t i = st.begin + j;
    if (j >= outs.size() || !futures[j]) {
      acc.answers.push_back({i, false, 0});
      continue;
    }
    acc.answers.push_back(summarize(in, i, outs[j]));
    acc.run_us.push_back(static_cast<double>(outs[j].stats.run_us));
    acc.queue_us.push_back(static_cast<double>(outs[j].stats.queue_us));
  }
}

/// Serves every stream once, untimed, spread over the hardware threads
/// (one Service per stream, as in the timed passes), and keeps their
/// answers.  On restart_warm these serves write the snapshots.
void prepare_streams(const Inputs& in, const std::string& snapshot_base,
                     Served& acc) {
  const std::size_t workers = std::min<std::size_t>(
      in.streams.size(), std::max(1U, std::thread::hardware_concurrency()));
  std::vector<Served> part(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Tracer off(false);
      for (std::size_t k = w; k < in.streams.size(); k += workers) {
        served_pass(in, k, snapshot_base, off, part[w]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (Served& p : part) {
    acc.answers.insert(acc.answers.end(), p.answers.begin(), p.answers.end());
  }
}

/// Passes over the streams in turn, at least one per stream, until the
/// next pass would end past `seconds`.  `last` runs on the final pass's
/// service.
void served_passes(const Inputs& in, const std::string& snapshot_base,
                   double seconds, Tracer& tr, Served& acc,
                   const std::function<void(svc::Service&)>& last = {}) {
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const double expected = acc.wall_s.empty() ? 0 : acc.wall_s.back();
    const bool final_pass = pass + 1 >= in.streams.size() &&
                            seconds_since(start) + expected >= seconds;
    served_pass(in, pass % in.streams.size(), snapshot_base, tr, acc,
                final_pass ? last : std::function<void(svc::Service&)>{});
    if (final_pass) break;
  }
}

// ---- oneshot_cold ----------------------------------------------------------

struct Oneshot {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> service_us;
  std::vector<Answer> answers;
  std::uint64_t hits = 0, misses = 0, inv_hits = 0, inv_misses = 0;
  double max_bytes = 0;
};

/// Answers the request list serially, each request by svc::run_request on
/// a fresh private workspace, cycling through the list until `seconds`
/// have passed.  Each outcome is reduced to an Answer as it arrives (a few
/// microseconds against milliseconds per request).
void oneshot_run(const Inputs& in, double seconds, Tracer& tr,
                 Oneshot& acc) {
  const std::size_t n = in.requests.size();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope loop(tr, "bench.oneshot_loop");
    for (std::size_t k = 0; seconds_since(t0) < seconds; ++k) {
      const std::size_t i = k % n;
      const Clock::time_point a = Clock::now();
      std::optional<svc::AnalysisOutcome> out;
      engine::WorkspaceStats ws_stats;
      {
        const Tracer::Scope s(tr, "svc.run_request", in.requests[i].id);
        engine::Workspace ws;
        out = svc::run_request(ws, in.requests[i]);
        ws_stats = ws.stats();
      }
      acc.service_us.push_back(seconds_since(a) * 1e6);
      acc.answers.push_back(summarize(in, i, *out));
      acc.hits += ws_stats.hits;
      acc.misses += ws_stats.misses;
      acc.inv_hits += ws_stats.inverse_hits;
      acc.inv_misses += ws_stats.inverse_misses;
      acc.max_bytes =
          std::max(acc.max_bytes, static_cast<double>(ws_stats.bytes));
    }
  }
  acc.wall_s += seconds_since(t0);
  acc.cpu_s += cpu_seconds() - cpu0;
}

// ---- Reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_metrics(const std::vector<Metric>& ms, std::string_view title) {
  std::cout << title << '\n';
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6g %-7s (%zu samples)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::fflush(stdout);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string samples_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": " + std::to_string(ms[i].samples);
  }
  return s + "}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Throughput, CPU and set-up are medians over passes (streams differ, so
/// a median keeps one heavy stream, or a few seconds of a slow host, from
/// moving the result); service times are quantiles over every request of
/// the run, so the tail rests on every system's cold requests at once.
std::vector<Metric> served_metrics(const Served& s) {
  std::vector<double> rps;
  std::vector<double> cpu;
  for (std::size_t i = 0; i < s.wall_s.size(); ++i) {
    rps.push_back(s.pass_requests[i] / s.wall_s[i]);
    cpu.push_back(s.cpu_s[i] * 1e6 / s.pass_requests[i]);
  }
  return {
      {"throughput_rps", median(rps), "1/s", rps.size()},
      {"service_p50_us", quantile(s.run_us, 0.50), "us", s.run_us.size()},
      {"service_p95_us", quantile(s.run_us, 0.95), "us", s.run_us.size()},
      {"cpu_us_per_req", median(cpu), "us", cpu.size()},
      {"setup_s", median(s.setup_s), "s", s.setup_s.size()},
  };
}

std::vector<Metric> oneshot_metrics(const Oneshot& o,
                                    const std::vector<double>& startups) {
  const auto n = static_cast<double>(o.answers.size());
  return {
      {"throughput_rps", ratio(n, o.wall_s), "1/s", o.answers.size()},
      {"service_p50_us", quantile(o.service_us, 0.50), "us",
       o.service_us.size()},
      {"service_p95_us", quantile(o.service_us, 0.95), "us",
       o.service_us.size()},
      {"cpu_us_per_req", ratio(o.cpu_s * 1e6, n), "us", o.answers.size()},
      {"setup_s", median(startups), "s", startups.size()},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--startup-probe") {
    return startup_probe(std::atoi(argv[2]), argv[3]);
  }
  const Args args = parse_args(argc, argv);
  const std::string_view wname = workload_name(args.workload);

  const Clock::time_point prep0 = Clock::now();
  const Inputs in = make_inputs(args.workload, args.seed, args.size);
  if (args.dump_inputs) {
    for (const Stream& st : in.streams) std::cout << st.text;
    return 0;
  }
  strt::exec::set_thread_count(kMeasuredExecThreads);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::cerr << "strt_bench: cannot create " << args.out_dir << '\n';
    return 2;
  }
  const std::string tag =
      std::string(wname) + "-" + std::to_string(args.seed) +
      (args.trace ? "-trace" : "");
  // restart_warm: the snapshot of stream k is written to <base>.k.
  const std::string snapshot_base =
      args.workload == Workload::kRestartWarm
          ? args.out_dir + "/" + tag + ".snapshot"
          : "";
  const auto remove_snapshots = [&] {
    for (std::size_t k = 0; k < in.streams.size() && !snapshot_base.empty();
         ++k) {
      std::filesystem::remove(service_options(snapshot_base, k).snapshot_path,
                              ec);
    }
  };
  remove_snapshots();

  std::size_t distinct = 0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    distinct += in.first_of[i] == i ? 1 : 0;
  }
  std::cout << "workload " << wname << ", seed " << args.seed << ": "
            << in.systems.size() << " systems, " << in.requests.size()
            << " requests (" << distinct << " distinct), " << in.redraws
            << " lint redraws\n";

  const bool served = args.workload != Workload::kOneshotCold;
  // Untraced runs time everything; a traced run times half untraced (for
  // the overhead figure) and half traced.
  const double e2e_seconds = args.trace ? args.seconds / 2 : args.seconds;

  Tracer off(false);
  std::vector<Metric> e2e;
  // Every outcome of the run, checked against the reference at the end.
  std::vector<Answer> answers;
  const auto keep = [&](std::vector<Answer>& more) {
    answers.insert(answers.end(), more.begin(), more.end());
    more.clear();
  };
  Served served_untraced;
  Oneshot oneshot_untraced;
  if (served) {
    // Warm-up and, on restart_warm, the untimed serves that write the
    // snapshots the timed passes start from.
    Served prep;
    if (snapshot_base.empty()) {
      served_pass(in, 0, snapshot_base, off, prep);
    } else {
      prepare_streams(in, snapshot_base, prep);
    }
    keep(prep.answers);
    for (std::size_t k = 0; k < kExtraSetups; ++k) {
      const Clock::time_point s0 = Clock::now();
      const svc::Service s(service_options(snapshot_base,
                                           k % in.streams.size()));
      served_untraced.setup_s.push_back(seconds_since(s0));
    }
    std::cout << "prepared in " << seconds_since(prep0) << " s\n";
    served_passes(in, snapshot_base, e2e_seconds, off, served_untraced);
    keep(served_untraced.answers);
    std::cout << "per-pass throughput (1/s):";
    for (std::size_t i = 0; i < served_untraced.wall_s.size(); ++i) {
      std::printf(" %.0f", served_untraced.pass_requests[i] /
                               served_untraced.wall_s[i]);
    }
    std::cout << std::endl;
    e2e = served_metrics(served_untraced);
  } else {
    std::vector<double> startups;
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    const std::string& text = in.streams[0].text;
    const std::string first_line = text.substr(0, text.find('\n'));
    for (int k = 0; k < kStartupProbes; ++k) {
      const double t = time_startup(self, first_line);
      if (t < 0) {
        std::cerr << "strt_bench: start-up probe failed\n";
        return 2;
      }
      startups.push_back(t);
    }
    std::cout << "prepared in " << seconds_since(prep0) << " s\n";
    oneshot_run(in, e2e_seconds, off, oneshot_untraced);
    e2e = oneshot_metrics(oneshot_untraced, startups);
    keep(oneshot_untraced.answers);
  }
  // Read before the traced half and the reference answers allocate.
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  print_metrics(e2e, args.trace ? "end-to-end (untraced half):"
                                : "end-to-end:");
  // Printed for reading only: across seeds the p99 spread twice as far as
  // the p95, because a seed's few heaviest requests, or a few slow seconds
  // of the host, set it.
  const std::vector<double>& service_us =
      served ? served_untraced.run_us : oneshot_untraced.service_us;
  std::printf("  %-28s %16.6g %-7s (%zu samples; not in the result)\n",
              "service_p99_us", quantile(service_us, 0.99), "us",
              service_us.size());

  std::vector<Metric> layer;
  std::string spans_path;
  bool probes_ok = true;
  if (args.trace) {
    strt::obs::set_enabled(true);
    strt::obs::Registry::global().reset();
    Tracer tr(true);
    strt::obs::Counter& c_runs = strt::obs::counter("explore.runs");
    strt::obs::Histogram& h_lock =
        strt::obs::histogram("cache.lock_wait_ns");

    double traced_rps = 0;
    double hits = 0, misses = 0, inv_hits = 0, inv_misses = 0, bytes = 0;
    double traced_requests = 0;
    double snapshot_mb = -1;
    const auto save_probe = [&](svc::Service& s) {
      snapshot_mb =
          probe_snapshot(tr, s.workspace(), args.out_dir + "/" + tag +
                                                ".probe.snapshot");
    };
    Served svc_pass;  // the served passes the svc.* metrics come from
    if (served) {
      served_passes(in, snapshot_base, e2e_seconds, tr, svc_pass, save_probe);
      traced_rps = served_metrics(svc_pass)[0].value;
      traced_requests = static_cast<double>(svc_pass.requests);
      hits = static_cast<double>(svc_pass.hits);
      misses = static_cast<double>(svc_pass.misses);
      inv_hits = static_cast<double>(svc_pass.inv_hits);
      inv_misses = static_cast<double>(svc_pass.inv_misses);
      bytes = median(svc_pass.bytes);
    } else {
      Oneshot o;
      oneshot_run(in, e2e_seconds, tr, o);
      traced_requests = static_cast<double>(o.answers.size());
      traced_rps = ratio(traced_requests, o.wall_s);
      hits = static_cast<double>(o.hits);
      misses = static_cast<double>(o.misses);
      inv_hits = static_cast<double>(o.inv_hits);
      inv_misses = static_cast<double>(o.inv_misses);
      bytes = o.max_bytes;
      keep(o.answers);
    }
    const double runs = static_cast<double>(c_runs.value());
    const strt::obs::HistogramSnapshot lock = h_lock.snapshot();
    const auto per_req = [&](double x) { return ratio(x, traced_requests); };
    if (!served) {
      // oneshot_cold bypasses svc: its svc.* figures come from one served
      // pass of its request list.
      served_pass(in, 0, "", tr, svc_pass, save_probe);
    }
    keep(svc_pass.answers);
    std::map<std::string, double> probes = probe_layers(in, args.seed, tr);

    const auto add = [&](std::string name, double v, const char* unit,
                         std::size_t samples) {
      layer.push_back({std::move(name), v, unit, samples});
    };
    add("svc.parse_us",
        ratio(tr.total_us("svc.read_request_stream"),
              static_cast<double>(svc_pass.requests)),
        "us", svc_pass.requests);
    add("svc.queue_wait_p50_us", quantile(svc_pass.queue_us, 0.5), "us",
        svc_pass.queue_us.size());
    add("svc.queue_wait_p99_us", quantile(svc_pass.queue_us, 0.99), "us",
        svc_pass.queue_us.size());
    add("svc.batch_size_mean",
        ratio(static_cast<double>(svc_pass.requests),
              static_cast<double>(svc_pass.batches)),
        "count", svc_pass.batches);
    add("svc.batched_frac",
        ratio(static_cast<double>(svc_pass.batched),
              static_cast<double>(svc_pass.requests)),
        "ratio", svc_pass.requests);
    const std::size_t task_probes = tr.count("graph.utilization");
    const std::size_t explores = tr.count("graph.explore_paths");
    add("check.validate_us", probes["check.validate_us"], "us",
        tr.count("check.validate"));
    add("graph.utilization_us", probes["graph.utilization_us"], "us",
        task_probes);
    add("graph.explore_us", probes["graph.explore_us"], "us", explores);
    add("graph.explore_states", probes["graph.explore_states"], "count",
        explores);
    add("graph.explore_pruned_frac", probes["graph.explore_pruned_frac"],
        "ratio", explores);
    add("graph.explore_runs_per_req", per_req(runs), "count",
        static_cast<std::size_t>(traced_requests));
    for (const char* n : {"graph.rbf_us", "graph.dbf_us", "resource.sbf_us",
                          "core.busy_window_us"}) {
      add(n, probes[n], "us", task_probes);
    }
    for (const svc::AnalysisKind k : svc::kAllAnalysisKinds) {
      const std::string base = "core." + std::string(svc::kind_name(k));
      const std::size_t n = tr.count(base + ".cold");
      add(base + ".cold_us", probes[base + ".cold_us"], "us", n);
      add(base + ".warm_us", probes[base + ".warm_us"], "us", n);
    }
    add("engine.hit_ratio", ratio(hits, hits + misses), "ratio",
        static_cast<std::size_t>(hits + misses));
    add("engine.inverse_hit_ratio", ratio(inv_hits, inv_hits + inv_misses),
        "ratio", static_cast<std::size_t>(inv_hits + inv_misses));
    add("engine.hit_ns", probes["engine.hit_ns"], "ns",
        tr.count("engine.rbf_hit") * 3);
    add("engine.lock_wait_p99_ns", static_cast<double>(lock.quantile(0.99)),
        "ns", lock.count);
    add("engine.bytes_mb", bytes / 1e6, "MB", 1);
    const std::size_t kernels = tr.count("curves.hdev");
    for (const char* n : {"curves.hdev_us", "curves.conv_us",
                          "curves.leftover_us", "curves.hull_us",
                          "curves.add_us"}) {
      add(n, probes[n], "us", kernels);
    }
    add("curves.inverse_ns", probes["curves.inverse_ns"], "ns", kernels);
    add("curves.segments", probes["curves.segments"], "count", kernels);
    add("snapshot.load_ms", tr.mean_us("snapshot.load") / 1e3, "ms",
        tr.count("snapshot.load"));
    add("snapshot.mb", std::max(0.0, snapshot_mb), "MB", 1);
    add("snapshot.save_ms", tr.mean_us("snapshot.save") / 1e3, "ms",
        tr.count("snapshot.save"));
    add("obs.trace_overhead_frac", 1.0 - ratio(traced_rps, e2e[0].value),
        "ratio", 2);
    if (snapshot_mb < 0) {
      std::cerr << "strt_bench: snapshot probe failed\n";
      probes_ok = false;
    }
    print_metrics(layer, "per-layer (traced pass):");

    spans_path = args.out_dir + "/" + tag + ".spans.json";
    std::ofstream f(spans_path);
    tr.write_json(f, wname, args.seed);
    if (!f) {
      std::cerr << "strt_bench: cannot write " << spans_path << '\n';
      return 2;
    }
    std::cout << "spans written to " << spans_path << '\n';
  }
  remove_snapshots();

  // The answer check.  oneshot_cold's reference is the first answer to
  // each request (on a private workspace, like every other); the served
  // workloads' is svc::run_request on a private workspace, computed now.
  Reference ref(in.requests.size());
  if (!served) {
    for (const Answer& a : answers) {
      if (in.first_of[a.request] == a.request && !ref.have[a.request]) {
        ref.set(a);
      }
    }
  }
  strt::exec::set_thread_count(0);  // untimed from here on
  complete_reference(in, ref);
  std::uint64_t failed = count_failures(in, ref, answers);
  const std::uint64_t attempted = answers.size();

  // Answer digest of the default seed against the committed one.
  const std::string digest = hex64(answers_digest(in, ref));
  if (args.seed == kDigestSeed && args.size == Size::kFull) {
    const std::string want = committed_digest(args.digests, wname);
    if (want != digest) {
      // Some answer moved, and the digest cannot tell which: count one.
      ++failed;
      std::cerr << "strt_bench: answer digest " << digest << " differs from "
                << "the committed " << (want.empty() ? "(none)" : want)
                << " in '" << args.digests << "'\n";
    }
  }
  const bool correct = failed == 0 && probes_ok;
  std::printf("failed_frac %.6g (%llu of %llu requests)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const std::vector<Metric>& reported = args.trace ? layer : e2e;
  std::cout << "{\"provenance\": {\"workload\": \"" << wname
            << "\", \"seed\": " << args.seed << ", \"size\": \""
            << (args.size == Size::kFull ? "full" : "small")
            << "\", \"seconds\": " << number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ", \"exec_threads\": " << kMeasuredExecThreads
            << ", \"compiler\": \"" << STRT_BENCH_COMPILER << " ("
            << __VERSION__ << ")\", \"build_type\": \"" << STRT_BENCH_BUILD_TYPE
            << "\", \"systems\": " << in.systems.size()
            << ", \"requests\": " << in.requests.size()
            << ", \"distinct_requests\": " << distinct
            << ", \"lint_redraws\": " << in.redraws
            << ", \"answer_digest\": \"" << digest << "\""
            << ", \"spans\": \"" << spans_path << "\""
            << ", \"config\": " << strt::cfg::effective_config_json()
            << "}, \"samples\": " << samples_json(reported) << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(reported) << "}" << std::endl;
  return correct ? 0 : 1;
}

#include "obs/sink.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"

namespace strt::obs {

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 5);
  out += "strt_";
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string prometheus_exposition() {
  // Counters and gauges (plus each gauge's `_max` high-water row) are
  // flattened into scalar rows and emitted sorted by family, each under
  // its own `# TYPE` line; histograms follow, sorted the same way.
  struct Scalar {
    std::string family;
    const char* type;
    std::string value;
  };
  std::vector<Scalar> scalars;
  for (const CounterSample& c : Registry::global().counters()) {
    scalars.push_back(
        {prometheus_name(c.name), "counter", std::to_string(c.value)});
  }
  for (const GaugeSample& g : Registry::global().gauges()) {
    const std::string family = prometheus_name(g.name);
    scalars.push_back({family, "gauge", std::to_string(g.value)});
    scalars.push_back({family + "_max", "gauge", std::to_string(g.max_value)});
  }
  std::stable_sort(scalars.begin(), scalars.end(),
                   [](const Scalar& a, const Scalar& b) {
                     return a.family < b.family;
                   });

  std::string out;
  for (const Scalar& s : scalars) {
    out += "# TYPE " + s.family + " " + s.type + "\n";
    out += s.family + " " + s.value + "\n";
  }

  std::vector<HistogramSample> hists = Registry::global().histograms();
  std::vector<std::pair<std::string, const HistogramSample*>> hrows;
  hrows.reserve(hists.size());
  for (const HistogramSample& h : hists) {
    hrows.emplace_back(prometheus_name(h.name), &h);
  }
  std::stable_sort(hrows.begin(), hrows.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (const auto& [name, hp] : hrows) {
    const HistogramSample& h = *hp;
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.snapshot.buckets[i] == 0) continue;
      cumulative += h.snapshot.buckets[i];
      out += name + "_bucket{le=\"" +
             std::to_string(histogram_bucket_upper(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.snapshot.count) +
           "\n";
    out += name + "_sum " + std::to_string(h.snapshot.sum) + "\n";
    out += name + "_count " + std::to_string(h.snapshot.count) + "\n";
  }
  return out;
}

struct TelemetrySink::Impl {
  mutable Mutex mu;
  std::vector<RequestTrace> traces STRT_GUARDED_BY(mu);
  std::uint64_t flushes STRT_GUARDED_BY(mu) = 0;
  /// Serializes whole flushes: any thread may flush, and the
  /// tmp+rename, append, and rewrite steps of two flushes must not
  /// interleave on the same files.
  Mutex flush_mu;
};

TelemetrySink::TelemetrySink(std::string dir)
    : dir_(std::move(dir)), impl_(new Impl) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    delete impl_;
    throw std::runtime_error("TelemetrySink: cannot create directory '" +
                             dir_ + "'");
  }
}

TelemetrySink::~TelemetrySink() {
  flush();
  delete impl_;
}

void TelemetrySink::add_trace(RequestTrace trace) {
  if (trace.empty()) return;
  const MutexLock lock(impl_->mu);
  impl_->traces.push_back(std::move(trace));
}

std::uint64_t TelemetrySink::flushes() const {
  const MutexLock lock(impl_->mu);
  return impl_->flushes;
}

void TelemetrySink::flush() {
  const MutexLock io_lock(impl_->flush_mu);
  std::uint64_t seq = 0;
  std::vector<RequestTrace> traces;
  {
    const MutexLock lock(impl_->mu);
    seq = ++impl_->flushes;
    traces = impl_->traces;  // copy: keep accumulating across flushes
  }

  // metrics.prom: write-to-tmp + rename, so scrapers never read a
  // half-written exposition.
  const std::string prom = prometheus_exposition();
  const std::string prom_path = dir_ + "/metrics.prom";
  const std::string tmp_path = prom_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (out) {
      out << prom;
      out.close();
      std::error_code ec;
      std::filesystem::rename(tmp_path, prom_path, ec);
    }
  }

  // events.jsonl: one report line per flush (append-only).
  {
    std::ofstream out(dir_ + "/events.jsonl", std::ios::app);
    if (out) {
      RunReport event("telemetry.flush");
      event.put("seq", seq);
      event.put("traces", static_cast<std::int64_t>(traces.size()));
      event.capture();
      event.write_json_line(out);
    }
  }

  // trace.json: the full Chrome trace so far (rewritten whole so the
  // file is always a complete, loadable JSON document).
  {
    std::ofstream out(dir_ + "/trace.json", std::ios::trunc);
    if (out) out << trace_to_chrome_json(traces);
  }
}

}  // namespace strt::obs

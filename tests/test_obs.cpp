#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/structural.hpp"
#include "engine/workspace.hpp"
#include "graph/explore.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

/// Every test runs with observability on and a clean slate, and leaves
/// the process-global state disabled and zeroed for the next test.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::global().reset();
    obs::reset_spans();
  }
  void TearDown() override {
    obs::Registry::global().reset();
    obs::reset_spans();
    obs::set_enabled(false);
  }
};

TEST_F(ObsTest, CounterAddAndReset) {
  obs::Counter& c = obs::counter("test.counter_add");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);  // same cell, zeroed
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, CounterIsNoOpWhenDisabled) {
  obs::Counter& c = obs::counter("test.disabled");
  obs::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  obs::set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, GaugeTracksValueAndHighWater) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(10);
  g.set(25);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max_value(), 25);
}

TEST_F(ObsTest, RegistrySnapshotsAreNameSorted) {
  // Registration order is zz, aa, mm; snapshots come back sorted by name
  // regardless, so report diffs are stable across instrumentation-reach
  // changes.
  obs::counter("test.order.zz").add(1);
  obs::counter("test.order.aa").add(2);
  obs::counter("test.order.mm").add(3);

  std::vector<std::string> seen;
  for (const obs::CounterSample& s : obs::Registry::global().counters()) {
    if (s.name.rfind("test.order.", 0) == 0) seen.push_back(s.name);
  }
  const std::vector<std::string> want{"test.order.aa", "test.order.mm",
                                      "test.order.zz"};
  EXPECT_EQ(seen, want);

  const std::vector<obs::CounterSample> all =
      obs::Registry::global().counters();
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const obs::CounterSample& a, const obs::CounterSample& b) {
        return a.name < b.name;
      }));

  // Re-lookup returns the same cell, not a new registration.
  obs::counter("test.order.zz").add(10);
  EXPECT_EQ(obs::counter("test.order.zz").value(), 11u);
}

TEST_F(ObsTest, CountersAreThreadSafe) {
  obs::Counter& c = obs::counter("test.threads");
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  // Concurrent registration of fresh names must not invalidate `c`.
  obs::counter("test.threads.other").add(1);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsTest, SpansNestAndAccumulate) {
  {
    const obs::Span outer("outer");
    {
      const obs::Span inner("inner");
    }
    {
      const obs::Span inner("inner");  // same path -> same node
    }
  }
  {
    const obs::Span outer("outer");  // re-entered top-level phase
  }

  const std::vector<obs::SpanSample> tree = obs::span_tree();
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].name, "outer");
  EXPECT_EQ(tree[0].count, 2u);
  EXPECT_GE(tree[0].total_ns, 0);
  ASSERT_EQ(tree[0].children.size(), 1u);
  EXPECT_EQ(tree[0].children[0].name, "inner");
  EXPECT_EQ(tree[0].children[0].count, 2u);

  obs::reset_spans();
  EXPECT_TRUE(obs::span_tree().empty());
}

TEST_F(ObsTest, SpansAreFreeWhenDisabled) {
  obs::set_enabled(false);
  {
    const obs::Span s("invisible");
  }
  obs::set_enabled(true);
  EXPECT_TRUE(obs::span_tree().empty());
}

TEST_F(ObsTest, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("\n\t"), "\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST_F(ObsTest, ReportRoundTripsThroughAnalysis) {
  // Run a real structural analysis so the explorer and curve counters
  // fire, then serialize the report and parse it back.
  // A fresh caching workspace, so the one-exploration-per-task check
  // below holds whatever STRT_CACHE says and whatever ran before.
  engine::Workspace ws(true);
  const DrtTask task = test::small_task();
  const Supply supply = Supply::tdma(Time(4), Time(5));
  const StructuralResult st = structural_delay(ws, task, supply);
  ASSERT_FALSE(st.delay.is_unbounded());

  obs::RunReport report("roundtrip");
  report.put("task", task.name());
  report.put("delay", st.delay.count());
  report.put("rate", 0.5);
  report.put("feasible", true);
  report.capture();

  const std::string json = report.to_json();
  const obs::JsonValue doc = obs::JsonValue::parse(json);
  ASSERT_EQ(doc.kind, obs::JsonValue::Kind::Object);

  const obs::JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, obs::kReportSchema);
  EXPECT_EQ(schema->string, "strt.obs.report.v2");
  EXPECT_EQ(doc.find("name")->string, "roundtrip");

  const obs::JsonValue* fields = doc.find("fields");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->find("task")->string, "small");
  ASSERT_TRUE(fields->find("delay")->is_integer);
  EXPECT_EQ(fields->find("delay")->integer, st.delay.count());
  EXPECT_DOUBLE_EQ(fields->find("rate")->number, 0.5);
  EXPECT_TRUE(fields->find("feasible")->boolean);

  // The analysis must have left its marks: explorer counters and the
  // structural span tree (with the explore phase nested inside).
  const obs::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  // One exploration per task: the busy-window doubling extends the
  // task's frontier in place and structural reads it, so exactly one
  // fresh exploration ran.
  const obs::JsonValue* runs = counters->find("explore.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->integer, 1);
  // The counter aggregates every state the shared frontier generated
  // (past the busy window too), so it dominates the per-result stats.
  const obs::JsonValue* generated = counters->find("explore.generated");
  ASSERT_NE(generated, nullptr);
  EXPECT_GE(static_cast<std::uint64_t>(generated->integer),
            st.stats.generated);

  // v2: histogram summaries ride along (the explorer records its state
  // count per run).
  const obs::JsonValue* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::JsonValue* states = histograms->find("explore.states");
  ASSERT_NE(states, nullptr);
  EXPECT_GE(states->find("count")->integer, 1);
  EXPECT_GE(states->find("max")->integer, states->find("p50")->integer);
  EXPECT_GE(states->find("p99")->integer, states->find("p50")->integer);

  const obs::JsonValue* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->kind, obs::JsonValue::Kind::Array);
  // The span tree holds the structural phase and exactly one "explore"
  // entry for the one task (resumptions are "explore.extend").
  bool saw_structural = false;
  std::int64_t explores = 0;
  const std::function<void(const obs::JsonValue&)> walk =
      [&](const obs::JsonValue& node) {
        const std::string& name = node.find("name")->string;
        if (name == "structural") saw_structural = true;
        if (name == "explore") explores += node.find("count")->integer;
        for (const obs::JsonValue& c : node.find("children")->array) walk(c);
      };
  for (const obs::JsonValue& s : spans->array) walk(s);
  EXPECT_TRUE(saw_structural);
  EXPECT_EQ(explores, 1);

  // write_json_line == to_json + newline.
  std::ostringstream os;
  report.write_json_line(os);
  EXPECT_EQ(os.str(), json + "\n");
}

TEST_F(ObsTest, ReportPutOverwritesInPlace) {
  obs::RunReport report("overwrite");
  report.put("k1", std::int64_t{1});
  report.put("k2", std::int64_t{2});
  report.put("k1", "replaced");
  ASSERT_EQ(report.fields().size(), 2u);
  EXPECT_EQ(report.fields()[0].first, "k1");
  EXPECT_EQ(std::get<std::string>(report.fields()[0].second), "replaced");
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  EXPECT_THROW(obs::JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(obs::JsonValue::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(obs::JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(obs::JsonValue::parse("\"unterminated"),
               std::invalid_argument);
}

TEST_F(ObsTest, ProgressCallbackFires) {
  const DrtTask task = test::small_task();
  ExploreOptions opts;
  opts.elapsed_limit = Time(200);
  opts.progress_every = 10;
  std::uint64_t calls = 0;
  ExploreProgress last{};
  opts.on_progress = [&](const ExploreProgress& p) {
    ++calls;
    last = p;
    return true;  // keep going
  };
  const ExploreResult res = explore_paths(task, opts);
  EXPECT_FALSE(res.stats.aborted);
  ASSERT_GE(calls, 1u);
  EXPECT_EQ(last.expanded % 10, 0u);
  EXPECT_LE(last.expanded, res.stats.expanded);
  EXPECT_GT(last.arena_size, 0u);
  EXPECT_GE(last.elapsed_seconds, 0.0);
}

TEST_F(ObsTest, ProgressCallbackCanAbort) {
  const DrtTask task = test::small_task();

  ExploreOptions full_opts;
  full_opts.elapsed_limit = Time(200);
  const ExploreResult full = explore_paths(task, full_opts);
  ASSERT_GT(full.stats.expanded, 20u);

  ExploreOptions opts;
  opts.elapsed_limit = Time(200);
  opts.progress_every = 10;
  std::uint64_t calls = 0;
  opts.on_progress = [&](const ExploreProgress&) {
    ++calls;
    return calls < 2;  // cancel at the second report
  };
  const ExploreResult res = explore_paths(task, opts);
  EXPECT_TRUE(res.stats.aborted);
  EXPECT_EQ(calls, 2u);
  EXPECT_LT(res.stats.expanded, full.stats.expanded);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Exact unit buckets for 0..3.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(obs::histogram_bucket(v), v);
    EXPECT_EQ(obs::histogram_bucket_lower(v), v);
  }
  // Every value sits inside its bucket's [lower, upper] range, bucket
  // indexes are monotone in the value, and the relative bucket width
  // never exceeds 25% of the lower edge.
  const std::uint64_t probes[] = {4,    5,      6,     7,     8,   9,
                                  15,   16,     17,    100,   1000, 4095,
                                  4096, 100000, 1u << 20, (1u << 20) + 1};
  std::size_t prev = 0;
  for (const std::uint64_t v : probes) {
    const std::size_t b = obs::histogram_bucket(v);
    ASSERT_LT(b, obs::kHistogramBuckets);
    EXPECT_LE(obs::histogram_bucket_lower(b), v);
    EXPECT_GE(obs::histogram_bucket_upper(b), v);
    EXPECT_GE(b, prev);
    prev = b;
    if (v >= 4) {
      const std::uint64_t lo = obs::histogram_bucket_lower(b);
      const std::uint64_t width =
          obs::histogram_bucket_upper(b) - lo + 1;
      EXPECT_LE(width * 4, lo);
    }
  }
  // Power-of-two edges start a fresh sub-bucket: 2^k maps one past the
  // bucket of 2^k - 1.
  for (int k = 3; k < 40; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    EXPECT_EQ(obs::histogram_bucket(edge),
              obs::histogram_bucket(edge - 1) + 1);
    EXPECT_EQ(obs::histogram_bucket_lower(obs::histogram_bucket(edge)),
              edge);
  }
  // The top of the range still lands in a valid bucket.
  EXPECT_LT(obs::histogram_bucket(~std::uint64_t{0}),
            obs::kHistogramBuckets);
}

TEST_F(ObsTest, HistogramQuantileMatchesSortedOracle) {
  obs::Histogram& h = obs::histogram("test.quantile");
  // Deterministic pseudo-random samples spanning several octaves.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (x >> 33) % 1'000'000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.max, values.back());
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) sum += v;
  EXPECT_EQ(snap.sum, sum);

  for (const double q : {0.10, 0.50, 0.90, 0.99, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(
                                                values.size()))));
    const std::uint64_t oracle = values[rank - 1];
    const std::uint64_t est = snap.quantile(q);
    // The estimate is the bucket upper edge: never below the true order
    // statistic, and at most one 25%-wide bucket above it.
    EXPECT_GE(est, oracle) << "q=" << q;
    EXPECT_LE(est, oracle + oracle / 4 + 1) << "q=" << q;
  }
  EXPECT_EQ(snap.quantile(1.0), values.back());
}

TEST_F(ObsTest, HistogramSnapshotMergeAccumulates) {
  obs::Histogram& a = obs::histogram("test.merge.a");
  obs::Histogram& b = obs::histogram("test.merge.b");
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 100; v < 300; ++v) b.record(v);

  obs::HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 300u);
  EXPECT_EQ(merged.max, 299u);
  EXPECT_EQ(merged.sum, 299u * 300u / 2);
}

TEST_F(ObsTest, HistogramShardsMergeAcrossThreads) {
  obs::Histogram& h = obs::histogram("test.shards");
  // Two waves of 4: the second wave adopts the shards the first left
  // behind, and both waves' samples must survive.
  constexpr int kThreads = 8;
  constexpr int kWave = kThreads / 2;
  constexpr std::uint64_t kPerThread = 10'000;
  for (int first = 0; first < kThreads; first += kWave) {
    std::vector<std::thread> workers;
    for (int t = first; t < first + kWave; ++t) {
      workers.emplace_back([&h, t] {
        // Distinct value ranges per thread so a lost shard is visible in
        // the sum, not only the count.
        const std::uint64_t base = static_cast<std::uint64_t>(t) * 1000;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          h.record(base + (i % 997));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t want_sum = 0;
  std::uint64_t want_max = 0;
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t base = static_cast<std::uint64_t>(t) * 1000;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      want_sum += base + (i % 997);
      want_max = std::max(want_max, base + (i % 997));
    }
  }
  EXPECT_EQ(snap.sum, want_sum);
  EXPECT_EQ(snap.max, want_max);

  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST_F(ObsTest, HistogramIsNoOpWhenDisabled) {
  obs::Histogram& h = obs::histogram("test.hist_disabled");
  obs::set_enabled(false);
  h.record(42);
  EXPECT_EQ(h.snapshot().count, 0u);
  obs::set_enabled(true);
  h.record(42);
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST_F(ObsTest, TraceRoundTripsThroughChromeJson) {
  obs::TraceContext ctx = obs::TraceContext::make();
  ASSERT_TRUE(static_cast<bool>(ctx));

  const std::int64_t t0 = obs::trace_now_us();
  ctx.add_complete_span("queue", t0 - 50, t0);
  {
    obs::TraceSpanScope request(ctx, "request");
    request.attr("kind", "structural");
    {
      obs::TraceSpanScope validate(ctx, "validate");
    }
    {
      obs::TraceSpanScope run(ctx, "run");
      // The analyses' own profile spans mirror into the active trace.
      const obs::Span explore("explore");
    }
  }

  const obs::RequestTrace before = ctx.snapshot();
  ASSERT_EQ(before.spans.size(), 5u);

  const std::string json = obs::trace_to_chrome_json({before});
  const std::vector<obs::RequestTrace> parsed =
      obs::parse_chrome_trace(json);
  ASSERT_EQ(parsed.size(), 1u);
  const obs::RequestTrace& after = parsed[0];
  EXPECT_EQ(after.trace_id, before.trace_id);
  ASSERT_EQ(after.spans.size(), before.spans.size());

  // Parent/child nesting survives the round trip: queue and request are
  // roots; validate, run, and explore hang off the right parents.
  const obs::TraceSpanRecord* queue = after.find("queue");
  const obs::TraceSpanRecord* request = after.find("request");
  const obs::TraceSpanRecord* validate = after.find("validate");
  const obs::TraceSpanRecord* run = after.find("run");
  const obs::TraceSpanRecord* explore = after.find("explore");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(request, nullptr);
  ASSERT_NE(validate, nullptr);
  ASSERT_NE(run, nullptr);
  ASSERT_NE(explore, nullptr);
  EXPECT_EQ(queue->parent, 0u);
  EXPECT_EQ(request->parent, 0u);
  EXPECT_EQ(validate->parent, request->id);
  EXPECT_EQ(run->parent, request->id);
  EXPECT_EQ(explore->parent, run->id);

  // Attributes survive; timestamps are monotone in snapshot order and
  // children start no earlier than their parents.
  bool saw_kind = false;
  for (const auto& [k, v] : request->attrs) {
    if (k == "kind" && v == "structural") saw_kind = true;
  }
  EXPECT_TRUE(saw_kind);
  for (std::size_t i = 1; i < after.spans.size(); ++i) {
    EXPECT_LE(after.spans[i - 1].start_us, after.spans[i].start_us);
  }
  EXPECT_GE(validate->start_us, request->start_us);
  EXPECT_GE(run->start_us, request->start_us);
  EXPECT_GE(explore->start_us, run->start_us);
  for (const obs::TraceSpanRecord& s : after.spans) {
    EXPECT_GE(s.dur_us, 0);
  }

  // Malformed documents are rejected, not misread.
  EXPECT_THROW(obs::parse_chrome_trace("{}"), std::invalid_argument);
  EXPECT_THROW(
      obs::parse_chrome_trace(
          R"({"traceEvents":[],"otherData":{"schema":"other.v9"}})"),
      std::invalid_argument);
}

TEST_F(ObsTest, DisengagedTraceContextIsInert) {
  obs::TraceContext ctx;  // default: disengaged
  EXPECT_FALSE(static_cast<bool>(ctx));
  EXPECT_EQ(ctx.trace_id(), 0u);
  EXPECT_EQ(ctx.add_complete_span("x", 0, 1), 0u);
  {
    obs::TraceSpanScope scope(ctx, "ignored");
    scope.attr("k", "v");
    EXPECT_EQ(scope.id(), 0u);
  }
  EXPECT_TRUE(ctx.snapshot().empty());
}

TEST_F(ObsTest, ReportEmbedsRequestTrace) {
  obs::TraceContext ctx = obs::TraceContext::make();
  {
    obs::TraceSpanScope request(ctx, "request");
    obs::TraceSpanScope validate(ctx, "validate");
  }

  obs::RunReport report("traced");
  report.set_trace(ctx.snapshot());
  const obs::JsonValue doc = obs::JsonValue::parse(report.to_json());
  const obs::JsonValue* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->find("trace_id")->is_integer);
  const obs::JsonValue* spans = trace->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 2u);
  EXPECT_EQ(spans->array[0].find("name")->string, "request");

  // Without a trace the member is absent (schema keeps it optional).
  obs::RunReport bare("bare");
  EXPECT_EQ(obs::JsonValue::parse(bare.to_json()).find("trace"), nullptr);
}

TEST_F(ObsTest, StructuralOptionsForwardProgress) {
  const DrtTask task = test::small_task();
  const Supply supply = Supply::tdma(Time(4), Time(5));
  StructuralOptions opts;
  opts.progress_every = 5;
  std::atomic<std::uint64_t> calls{0};
  opts.on_progress = [&](const ExploreProgress&) {
    ++calls;
    return true;
  };
  const StructuralResult st = structural_delay(test::workspace(), task, supply, opts);
  EXPECT_FALSE(st.stats.aborted);
  EXPECT_GE(calls.load(), 1u);
}

}  // namespace
}  // namespace strt

// Experiment E4 (Figure analogue): analysis runtime and explored states
// vs graph size and vs supply tightness (busy-window length).
//
// google-benchmark harness; counters report busy-window length and
// explored/pruned state counts alongside wall time.
//
// After the microbenchmarks, a closing section runs the same structural
// sweep serially (STRT_THREADS=1) and as a parallel loop and exits 1
// unless the delays are bit-identical, times the overhauled explorer
// against the pre-overhaul implementation (std::map skyline +
// std::priority_queue agenda, kept as the bench-only strt_bench_legacy
// library), and times a sensitivity sweep with the engine Workspace cache
// on vs off.  The headline numbers land in BENCH_runtime.json:
// explorer_legacy_ms / explorer_new_ms / explorer_speedup, and
// sensitivity_uncached_ms / sensitivity_cached_ms / cache_speedup.
//
// Expected shape: runtime grows mildly with the vertex count (the
// dominance-pruned frontier is small) and roughly linearly with the
// busy-window length; everything stays in the interactive range for
// DATE-scale graphs.  The explorer overhaul wins a constant factor from
// flat storage and O(1) bucket scheduling.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/abstractions.hpp"
#include "core/sensitivity.hpp"
#include "core/structural.hpp"
#include "curves/minplus.hpp"
#include "curves/staircase.hpp"
#include "engine/workspace.hpp"
#include "graph/explore.hpp"
#include "io/table.hpp"
#include "legacy_curves.hpp"
#include "legacy_explore.hpp"
#include "model/generator.hpp"

namespace strt {
namespace {

GeneratedTask task_with_vertices(std::size_t n, double target_u,
                                 std::uint64_t seed) {
  Rng rng(seed);
  DrtGenParams params;
  params.min_vertices = n;
  params.max_vertices = n;
  params.min_separation = Time(5);
  params.max_separation = Time(40);
  params.chord_probability = 0.10;
  params.target_utilization = target_u;
  return random_drt(rng, params);
}

void BM_StructuralVsVertices(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const GeneratedTask gen = task_with_vertices(n, 0.35, 1000 + n);
  const Supply supply = Supply::tdma(Time(5), Time(10));
  StructuralOptions opts;
  opts.want_witness = false;
  StructuralResult last;
  for (auto _ : state) {
    engine::Workspace ws;
    last = structural_delay(ws, gen.task, supply, opts);
    benchmark::DoNotOptimize(last.delay);
  }
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["busy_window"] =
      static_cast<double>(last.busy_window.count());
  state.counters["states"] = static_cast<double>(last.stats.generated);
  state.counters["delay"] = static_cast<double>(last.delay.count());
}
BENCHMARK(BM_StructuralVsVertices)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_StructuralVsSupplyTightness(benchmark::State& state) {
  // Fixed task (U ~ 0.45); the slot shrinks toward the utilization, the
  // busy window (and hence the explored prefix) stretches.
  const GeneratedTask gen = task_with_vertices(10, 0.45, 77);
  const auto slot = state.range(0);
  const Supply supply = Supply::tdma(Time(slot), Time(20));
  if (!(gen.exact_utilization < supply.long_run_rate())) {
    state.SkipWithError("supply below utilization");
    return;
  }
  StructuralOptions opts;
  opts.want_witness = false;
  StructuralResult last;
  for (auto _ : state) {
    engine::Workspace ws;
    last = structural_delay(ws, gen.task, supply, opts);
    benchmark::DoNotOptimize(last.delay);
  }
  state.counters["slot"] = static_cast<double>(slot);
  state.counters["busy_window"] =
      static_cast<double>(last.busy_window.count());
  state.counters["states"] = static_cast<double>(last.stats.generated);
}
BENCHMARK(BM_StructuralVsSupplyTightness)
    ->DenseRange(10, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_AbstractionAnalyses(benchmark::State& state) {
  // Cost of each analysis in the spectrum on the same instance.
  const GeneratedTask gen = task_with_vertices(15, 0.40, 4242);
  const Supply supply = Supply::tdma(Time(9), Time(20));
  const auto a = static_cast<WorkloadAbstraction>(state.range(0));
  StructuralOptions opts;
  opts.want_witness = false;
  for (auto _ : state) {
    engine::Workspace ws;
    const AbstractionResult r =
        delay_with_abstraction(ws, gen.task, supply, a, opts);
    benchmark::DoNotOptimize(r.delay);
  }
  state.SetLabel(std::string(abstraction_name(a)));
}
BENCHMARK(BM_AbstractionAnalyses)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);

/// The Pareto frontier as a canonical (elapsed -> max work) map -- the
/// semantic content both explorer implementations must agree on.
template <class Arena, class Frontier>
std::map<std::int64_t, std::int64_t> frontier_skyline(
    const Arena& arena, const Frontier& frontier) {
  std::map<std::int64_t, std::int64_t> m;
  for (const std::int32_t idx : frontier) {
    const PathState& st = arena[static_cast<std::size_t>(idx)];
    auto& slot = m[st.elapsed.count()];
    slot = std::max(slot, st.work.count());
  }
  return m;
}

/// One random canonical staircase for the kernel microbench (the test
/// suite's random_staircase shape, regenerated here so the harness stays
/// self-contained).
Staircase random_curve(Rng& rng, Time horizon, double step_prob,
                       std::int64_t max_jump) {
  std::vector<Step> pts;
  std::int64_t v = 0;
  for (std::int64_t t = 1; t <= horizon.count(); ++t) {
    if (rng.chance(step_prob)) {
      v += rng.uniform_int(1, max_jump);
      pts.push_back(Step{Time(t), Work(v)});
    }
  }
  return Staircase::from_points(std::move(pts), horizon);
}

/// SoA-vs-AoS curve kernel ablation.  The microbench mix mirrors the
/// analysis hot path: min-plus convolution on ~300-breakpoint curves
/// (joint-FP / leftover territory) and hdev / pointwise / pseudo-inverse
/// on busy-window-sized curves (every structural and curve-based run
/// hammers those).  Both layouts are checked bit-identical before any
/// timing; the aggregate mix must clear the 1.5x gate.  The headline
/// number lands in BENCH_runtime.json as kernel_speedup.
int run_kernel_section(bench::BenchReport& report) {
  using namespace strt::bench;
  Rng rng(7070);

  // conv operands: ~300 breakpoints each.
  const Staircase cf = random_curve(rng, Time(1'000), 0.3, 4);
  const Staircase cg = random_curve(rng, Time(1'000), 0.3, 4);
  // hdev / pointwise / inverse operands: busy-window-scale curves.
  const Staircase big_a = random_curve(rng, Time(20'000), 0.3, 4);
  Staircase big_b = random_curve(rng, Time(20'000), 0.3, 5);
  big_b = big_b.with_tail(
      Tail{big_b.horizon(), big_b.value_at_horizon() + Work(1)});

  const legacy::LegacyCurve lcf = legacy::from_staircase(cf);
  const legacy::LegacyCurve lcg = legacy::from_staircase(cg);
  const legacy::LegacyCurve lba = legacy::from_staircase(big_a);
  const legacy::LegacyCurve lbb = legacy::from_staircase(big_b);

  // Bit-identity gate: every kernel must agree across layouts before the
  // stopwatch starts.
  if (minplus_conv(cf, cg) != legacy::to_staircase(legacy::conv(lcf, lcg)) ||
      pointwise_add(big_a, big_b) !=
          legacy::to_staircase(legacy::pointwise_add(lba, lbb)) ||
      hdev(big_a, big_b) != legacy::hdev(lba, lbb)) {
    std::cerr << "kernel ablation: SoA and AoS kernels disagree -- "
                 "bit-identity contract broken\n";
    return 1;
  }
  const Work inv_top = big_b.value_at_horizon() * 2;
  const Work inv_stride = max(Work(1), Work(inv_top.count() / 4'000));
  for (Work w(0); w <= inv_top; w += inv_stride) {
    if (big_b.inverse(w) != lbb.inverse(w)) {
      std::cerr << "kernel ablation: pseudo-inverse disagrees at w="
                << w.count() << "\n";
      return 1;
    }
  }

  // Rep counts approximate the kernel mix of the analysis hot path: one
  // convolution serves many hdev / pointwise / inverse probes (the
  // busy-window iteration and every curve-based bound re-query the
  // latter).  Each kernel is also timed on its own so the table shows
  // where the layout wins.
  constexpr int kConvReps = 2;
  constexpr int kHdevReps = 100;
  constexpr int kAddReps = 20;
  constexpr int kInvSweeps = 6;

  auto timed = [](int reps, auto&& fn) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    return sw.millis();
  };

  struct KernelRow {
    const char* name;
    double legacy_ms;
    double soa_ms;
  };
  std::vector<KernelRow> rows;
  {
    Phase phase("ablation.kernels.soa");
    rows.push_back(
        {"minplus_conv", 0,
         timed(kConvReps,
               [&] { benchmark::DoNotOptimize(minplus_conv(cf, cg)); })});
    rows.push_back(
        {"hdev", 0, timed(kHdevReps, [&] {
           benchmark::DoNotOptimize(hdev(big_a, big_b));
         })});
    rows.push_back(
        {"pointwise_add", 0, timed(kAddReps, [&] {
           benchmark::DoNotOptimize(pointwise_add(big_a, big_b));
         })});
    rows.push_back({"pseudo_inverse", 0, timed(kInvSweeps, [&] {
                      for (Work w(0); w <= inv_top; w += inv_stride) {
                        benchmark::DoNotOptimize(big_b.inverse(w));
                      }
                    })});
  }
  {
    Phase phase("ablation.kernels.legacy");
    rows[0].legacy_ms = timed(kConvReps, [&] {
      benchmark::DoNotOptimize(legacy::conv(lcf, lcg));
    });
    rows[1].legacy_ms = timed(kHdevReps, [&] {
      benchmark::DoNotOptimize(legacy::hdev(lba, lbb));
    });
    rows[2].legacy_ms = timed(kAddReps, [&] {
      benchmark::DoNotOptimize(legacy::pointwise_add(lba, lbb));
    });
    rows[3].legacy_ms = timed(kInvSweeps, [&] {
      for (Work w(0); w <= inv_top; w += inv_stride) {
        benchmark::DoNotOptimize(lbb.inverse(w));
      }
    });
  }

  double legacy_ms = 0;
  double soa_ms = 0;
  std::cout << "\nCurve kernel layout (AoS oracle vs SoA; conv "
            << cf.breakpoint_count() << "x" << cg.breakpoint_count()
            << " bp, hdev/pointwise/inverse " << big_a.breakpoint_count()
            << "x" << big_b.breakpoint_count() << " bp):\n";
  Table kt({"kernel", "legacy ms", "soa ms", "speedup"});
  for (const KernelRow& row : rows) {
    legacy_ms += row.legacy_ms;
    soa_ms += row.soa_ms;
    kt.add_row({row.name, fmt_ratio(row.legacy_ms, 1),
                fmt_ratio(row.soa_ms, 1),
                fmt_ratio(row.legacy_ms / std::max(row.soa_ms, 1e-6), 2) +
                    "x"});
  }
  const double kernel_speedup = legacy_ms / std::max(soa_ms, 1e-6);
  kt.add_row({"mix", fmt_ratio(legacy_ms, 1), fmt_ratio(soa_ms, 1),
              fmt_ratio(kernel_speedup, 2) + "x"});
  kt.print(std::cout);

  report.metric("kernel_legacy_ms", legacy_ms);
  report.metric("kernel_soa_ms", soa_ms);
  report.metric("kernel_speedup", kernel_speedup);
  report.metric("kernel_conv_speedup",
                rows[0].legacy_ms / std::max(rows[0].soa_ms, 1e-6));
  report.metric("kernel_hdev_speedup",
                rows[1].legacy_ms / std::max(rows[1].soa_ms, 1e-6));
  report.metric("kernel_pointwise_speedup",
                rows[2].legacy_ms / std::max(rows[2].soa_ms, 1e-6));
  report.metric("kernel_inverse_speedup",
                rows[3].legacy_ms / std::max(rows[3].soa_ms, 1e-6));

  if (kernel_speedup < 1.5) {
    std::cerr << "kernel ablation: SoA speedup " << kernel_speedup
              << "x is below the 1.5x gate\n";
    return 1;
  }
  return 0;
}

/// Serial vs parallel determinism of the same 40-vertex structural sweep
/// plus the explorer-overhaul and cache ablations; emits the headline
/// numbers into BENCH_runtime.json via the report.
int run_speedup_section() {
  using namespace strt::bench;
  BenchReport report("runtime");

  const Supply supply = Supply::tdma(Time(5), Time(10));
  constexpr std::size_t kTrials = 12;
  constexpr std::size_t kVertices = 40;
  StructuralOptions opts;
  opts.want_witness = false;

  // Each trial generates its own task from a split stream and analyzes
  // it; the returned delays must match bit-for-bit across thread counts.
  auto sweep = [&](std::uint64_t seed) {
    return trials(seed, kTrials, [&](Rng& rng, std::size_t) {
      DrtGenParams params;
      params.min_vertices = kVertices;
      params.max_vertices = kVertices;
      params.min_separation = Time(5);
      params.max_separation = Time(40);
      params.chord_probability = 0.10;
      params.target_utilization = 0.35;
      const GeneratedTask gen = random_drt(rng, params);
      engine::Workspace trial_ws;
      const StructuralResult r =
          structural_delay(trial_ws, gen.task, supply, opts);
      return r.delay.count();
    });
  };

  // Only bit-identity is checked: the parallel loop shows no speedup on a
  // sweep this small, so none is timed or reported.
  exec::set_thread_count(1);
  const std::vector<std::int64_t> serial_delays = sweep(5151);
  exec::set_thread_count(0);  // back to STRT_THREADS / hardware default
  const std::vector<std::int64_t> parallel_delays = sweep(5151);
  if (serial_delays != parallel_delays) {
    std::cerr << "determinism: serial and parallel delay vectors differ\n";
    return 1;
  }
  std::cout << "\nSerial vs parallel: " << kTrials << " structural "
            << "analyses of " << kVertices << "-vertex tasks agree\n";

  // --- Explorer overhaul ablation: same exploration, old data
  // structures vs new, results checked equal before timing.
  const GeneratedTask gen = task_with_vertices(20, 0.40, 2026);
  lint_generated({&gen.task, 1});
  const Time window(600);
  constexpr int kReps = 5;

  const ExploreResult once =
      explore_paths(gen.task, ExploreOptions{.elapsed_limit = window});
  const legacy::Result legacy_once = legacy::explore(gen.task, window);
  if (frontier_skyline(once.arena, once.frontier) !=
      frontier_skyline(legacy_once.arena, legacy_once.frontier)) {
    std::cerr << "explorer ablation: legacy and overhauled frontiers "
                 "differ\n";
    return 1;
  }

  double new_ms = 0;
  {
    Phase phase("ablation.explorer.new");
    for (int rep = 0; rep < kReps; ++rep) {
      const ExploreResult r =
          explore_paths(gen.task, ExploreOptions{.elapsed_limit = window});
      benchmark::DoNotOptimize(r.frontier.size());
    }
    new_ms = phase.millis();
  }
  double legacy_ms = 0;
  {
    Phase phase("ablation.explorer.legacy");
    for (int rep = 0; rep < kReps; ++rep) {
      const legacy::Result r = legacy::explore(gen.task, window);
      benchmark::DoNotOptimize(r.frontier.size());
    }
    legacy_ms = phase.millis();
  }
  const double explorer_speedup = legacy_ms / std::max(new_ms, 1e-6);

  std::cout << "\nExplorer overhaul (20-vertex task, window "
            << window.count() << ", " << kReps << " reps, "
            << once.stats.generated << " states/run):\n";
  Table ab({"legacy ms", "new ms", "speedup"});
  ab.add_row({fmt_ratio(legacy_ms, 1), fmt_ratio(new_ms, 1),
              fmt_ratio(explorer_speedup, 2) + "x"});
  ab.print(std::cout);

  // --- Workspace cache ablation: the same sensitivity sweep (the
  // design-exploration loop that hammers rbf/sbf/inverse lookups) run
  // twice per mode through one shared workspace -- cache off vs on --
  // with the reports checked bit-identical before timing.
  constexpr std::size_t kCacheTasks = 4;
  constexpr int kCacheRounds = 2;
  std::vector<GeneratedTask> cache_tasks;
  for (std::size_t i = 0; i < kCacheTasks; ++i) {
    cache_tasks.push_back(task_with_vertices(8, 0.45, 9000 + i));
  }
  const Supply cache_supply = Supply::tdma(Time(9), Time(20));

  auto sensitivity_sweep = [&](engine::Workspace& ws) {
    std::vector<SensitivityReport> reports;
    for (int round = 0; round < kCacheRounds; ++round) {
      for (const GeneratedTask& g : cache_tasks) {
        reports.push_back(sensitivity_analysis(ws, g.task, cache_supply));
      }
    }
    return reports;
  };
  auto same_reports = [](const std::vector<SensitivityReport>& a,
                         const std::vector<SensitivityReport>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].feasible != b[i].feasible ||
          a[i].wcet_slack != b[i].wcet_slack ||
          a[i].separation_slack != b[i].separation_slack) {
        return false;
      }
    }
    return true;
  };

  engine::Workspace ws_off(false);
  std::vector<SensitivityReport> uncached_reports;
  double uncached_ms = 0;
  {
    Phase phase("ablation.cache.off");
    uncached_reports = sensitivity_sweep(ws_off);
    uncached_ms = phase.millis();
  }
  engine::Workspace ws_on(true);
  std::vector<SensitivityReport> cached_reports;
  double cached_ms = 0;
  {
    Phase phase("ablation.cache.on");
    cached_reports = sensitivity_sweep(ws_on);
    cached_ms = phase.millis();
  }
  if (!same_reports(uncached_reports, cached_reports)) {
    std::cerr << "cache ablation: cached and uncached sensitivity reports "
                 "differ -- bit-identity contract broken\n";
    return 1;
  }
  const double cache_speedup = uncached_ms / std::max(cached_ms, 1e-6);
  const engine::WorkspaceStats cache_stats = ws_on.stats();

  std::cout << "\nWorkspace cache (sensitivity sweep, " << kCacheTasks
            << " tasks x " << kCacheRounds << " rounds):\n";
  Table ct({"uncached ms", "cached ms", "speedup", "hits", "misses"});
  ct.add_row({fmt_ratio(uncached_ms, 1), fmt_ratio(cached_ms, 1),
              fmt_ratio(cache_speedup, 2) + "x",
              std::to_string(cache_stats.hits),
              std::to_string(cache_stats.misses)});
  ct.print(std::cout);

  report.metric("sweep_trials", kTrials);
  report.metric("sweep_vertices", kVertices);
  report.metric("explorer_states_per_run", once.stats.generated);
  report.metric("explorer_legacy_ms", legacy_ms);
  report.metric("explorer_new_ms", new_ms);
  report.metric("explorer_speedup", explorer_speedup);
  report.metric("sensitivity_uncached_ms", uncached_ms);
  report.metric("sensitivity_cached_ms", cached_ms);
  report.metric("cache_speedup", cache_speedup);
  report.metric("cache_hits", cache_stats.hits);
  report.metric("cache_misses", cache_stats.misses);
  report.metric("cache_bytes", cache_stats.bytes);
  return run_kernel_section(report);
}

}  // namespace
}  // namespace strt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return strt::run_speedup_section();
}

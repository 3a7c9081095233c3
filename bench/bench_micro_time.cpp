// Micro-benchmark A7: time-phase engine comparison.
//
// Two modes:
//  * default — google-benchmark timings of the incremental vs reference
//    time engines on representative solves (single-shot and
//    horizon-extension-heavy cases);
//  * --json [--grid N] [--repeats R] — machine-readable end-to-end map()
//    wall-clock comparison over the whole workload suite per engine, plus
//    the per-II solver-reuse counters (sessions, horizon extensions,
//    assumptions used, learnt clauses retained, nogoods added), recorded in
//    BENCH_time.json to track the time-phase perf trajectory across PRs.
//    The "hard" section additionally records engine="speculative" rows —
//    the cross-II race (map_speculative) with its certificate-traffic
//    counters (speculative_hits, nogoods_lifted_cross_ii, steals).
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>

#include "bench_json.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "support/stopwatch.hpp"
#include "timing/time_solver.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace monomap;
using monomap::bench::JsonWriter;
using monomap::bench::median;

TimeSolverOptions engine_options(TimeEngine engine) {
  TimeSolverOptions opt;
  opt.engine = engine;
  return opt;
}

void BM_TimeFirstSolution(benchmark::State& state) {
  // First schedule of a mid-size suite benchmark (Arg 0: engine).
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("fft");
  const TimeEngine engine = state.range(0) == 0 ? TimeEngine::kIncremental
                                                : TimeEngine::kReference;
  for (auto _ : state) {
    TimeSolver solver(b.dfg, arch, engine_options(engine));
    const auto sol = solver.next(Deadline(30.0));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_TimeFirstSolution)->Arg(0)->Arg(1);

void BM_TimeScheduleEnumeration(benchmark::State& state) {
  // The mapper's retry pattern: enumerate 8 distinct schedules (Arg 0:
  // engine). The incremental engine answers re-solves from a warm solver.
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("gsm");
  const TimeEngine engine = state.range(0) == 0 ? TimeEngine::kIncremental
                                                : TimeEngine::kReference;
  for (auto _ : state) {
    TimeSolver solver(b.dfg, arch, engine_options(engine));
    int yielded = 0;
    while (yielded < 8 && solver.next(Deadline(30.0)).has_value()) {
      ++yielded;
    }
    benchmark::DoNotOptimize(yielded);
  }
}
BENCHMARK(BM_TimeScheduleEnumeration)->Arg(0)->Arg(1);

void BM_TimeHorizonExtensions(benchmark::State& state) {
  // Capacity-bound chain on one PE: the solver must walk several horizon
  // extensions before the first schedule appears (Arg 0: engine).
  const Dfg dfg = Dfg::from_edges(
      "chain6", 6,
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}, {1, 5, 0}});
  const CgraArch arch(1, 1);
  const TimeEngine engine = state.range(0) == 0 ? TimeEngine::kIncremental
                                                : TimeEngine::kReference;
  for (auto _ : state) {
    TimeSolver solver(dfg, arch, engine_options(engine));
    const auto sol = solver.next(Deadline(30.0));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_TimeHorizonExtensions)->Arg(0)->Arg(1);

// --- --json mode -----------------------------------------------------------

/// Per-(benchmark, engine) record: median-of-repeats end-to-end map() wall
/// clock plus the solver-reuse counters of the last run.
void run_json_mode(int grid, int repeats) {
  const CgraArch arch = CgraArch::square(grid);
  JsonWriter json(std::cout);
  json.begin_object();
  json.field("bench", "bench_micro_time");
  json.field("grid", grid);
  json.field("topology", topology_name(arch.topology()));
  json.field("repeats", repeats);

  std::vector<double> ratios;
  json.key("time");
  json.begin_array();
  for (const Benchmark& b : benchmark_suite()) {
    double incremental_median = 0.0;
    for (const TimeEngine engine :
         {TimeEngine::kIncremental, TimeEngine::kReference}) {
      DecoupledMapperOptions opt;
      opt.timeout_s = 60.0;
      opt.time.engine = engine;
      const DecoupledMapper mapper(opt);
      std::vector<double> seconds;
      MapResult last;
      for (int r = 0; r < repeats; ++r) {
        Stopwatch wall;
        last = mapper.map(b.dfg, arch);
        seconds.push_back(wall.elapsed_s());
      }
      const double med = median(seconds);
      if (engine == TimeEngine::kIncremental) {
        incremental_median = med;
      } else if (incremental_median > 0.0) {
        ratios.push_back(med / incremental_median);
      }
      json.begin_object();
      json.field("suite", b.name);
      json.field("engine", to_string(engine));
      json.field("success", last.success);
      json.field("outcome", to_string(last.outcome));
      json.field("degraded", last.outcome == MapOutcome::kDegraded);
      json.field("fault_retries", last.fault_retries);
      json.field("ii", last.success ? last.ii : -1);
      json.field("seconds", med);
      json.field("time_phase_s", last.time_phase_s);
      json.field("space_phase_s", last.space_phase_s);
      json.field("schedules_tried", last.schedules_tried);
      json.field("sat_calls", last.time_stats.sat_calls);
      json.field("instances_built", last.time_stats.instances_built);
      json.field("sessions_created", last.time_stats.sessions_created);
      json.field("horizon_extensions", last.time_stats.horizon_extensions);
      json.field("assumptions_used", last.time_stats.assumptions_used);
      json.field("learnt_retained", last.time_stats.learnt_retained);
      json.field("nogoods_added", last.time_stats.nogoods_added);
      json.field("narrow_nogoods", last.time_stats.narrow_nogoods);
      json.field("nogoods_lifted", last.time_stats.nogoods_lifted);
      json.field("nogoods_deduped", last.time_stats.nogoods_deduped);
      json.field("space_truncated", last.space_truncated);
      json.field("space_exhausted", last.space_exhausted);
      json.field("space_backjumps", last.space_backjumps);
      json.field("budget_extensions", last.budget_extensions);
      json.field("budget_shrinks", last.budget_shrinks);
      json.end_object();
    }
  }
  json.end_array();

  // Space-failure-heavy instances on the smaller paper grids: this is
  // where schedule seeding, retry diversification, conflict-set nogoods
  // and the adaptive space budget are decisive, so the baseline pins them
  // explicitly (nw rides along for its II-3-vs-4 sensitivity to the
  // refutation-patience rule). Grid 8 rides along for the cross-II
  // certificate channel: its mII refutations are where the warm rows
  // harvest certificates. Each case also records the cross-II race on 4
  // workers (clamped to the machine's cores): engine="speculative" is
  // the default cold race, which lands on the incremental rows' final II
  // bit-exactly, and engine="speculative-warm" shares certificates
  // (SpeculativeOptions::share_nogoods — may settle a different II on
  // borderline cases); the certificate-traffic counters ride on the warm
  // rows.
  json.key("hard");
  json.begin_array();
  for (const char* name : {"hotspot3D", "cfd", "nw"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {4, 5, 8}) {
      const CgraArch hard_arch = CgraArch::square(side);
      for (const TimeEngine engine :
           {TimeEngine::kIncremental, TimeEngine::kReference}) {
        DecoupledMapperOptions opt;
        opt.timeout_s = 120.0;
        opt.time.engine = engine;
        const DecoupledMapper mapper(opt);
        std::vector<double> seconds;
        MapResult last;
        for (int r = 0; r < repeats; ++r) {
          Stopwatch wall;
          last = mapper.map(b.dfg, hard_arch);
          seconds.push_back(wall.elapsed_s());
        }
        json.begin_object();
        json.field("suite", b.name);
        json.field("grid", side);
        json.field("engine", to_string(engine));
        json.field("success", last.success);
        json.field("outcome", to_string(last.outcome));
        json.field("degraded", last.outcome == MapOutcome::kDegraded);
        json.field("fault_retries", last.fault_retries);
        json.field("ii", last.success ? last.ii : -1);
        json.field("seconds", median(seconds));
        json.field("schedules_tried", last.schedules_tried);
        json.field("nogoods_added", last.time_stats.nogoods_added);
        json.field("space_truncated", last.space_truncated);
        json.field("space_exhausted", last.space_exhausted);
        json.field("space_backjumps", last.space_backjumps);
        json.field("budget_extensions", last.budget_extensions);
        json.field("budget_shrinks", last.budget_shrinks);
        json.end_object();
      }
      for (const bool warm : {false, true}) {
        DecoupledMapperOptions opt;
        opt.timeout_s = 120.0;
        const DecoupledMapper mapper(opt);
        SpeculativeOptions sopt;
        sopt.num_threads = 4;
        sopt.share_nogoods = warm;
        std::vector<double> seconds;
        MapResult last;
        for (int r = 0; r < repeats; ++r) {
          Stopwatch wall;
          last = mapper.map_speculative(b.dfg, hard_arch, sopt);
          seconds.push_back(wall.elapsed_s());
        }
        json.begin_object();
        json.field("suite", b.name);
        json.field("grid", side);
        json.field("engine", warm ? "speculative-warm" : "speculative");
        json.field("success", last.success);
        json.field("outcome", to_string(last.outcome));
        json.field("degraded", last.outcome == MapOutcome::kDegraded);
        json.field("fault_retries", last.fault_retries);
        json.field("ii", last.success ? last.ii : -1);
        json.field("seconds", median(seconds));
        json.field("schedules_tried", last.schedules_tried);
        json.field("nogoods_added", last.time_stats.nogoods_added);
        if (warm) {
          json.field("speculative_hits", last.speculative_hits);
          json.field("nogoods_lifted_cross_ii",
                     last.nogoods_lifted_cross_ii);
          json.field("steals", last.steals);
        }
        json.field("space_truncated", last.space_truncated);
        json.field("space_exhausted", last.space_exhausted);
        json.field("space_backjumps", last.space_backjumps);
        json.field("budget_extensions", last.budget_extensions);
        json.field("budget_shrinks", last.budget_shrinks);
        json.end_object();
      }
    }
  }
  json.end_array();

  json.key("summary");
  json.begin_object();
  json.field("median_speedup_reference_over_incremental", median(ratios));
  json.end_object();
  json.end_object();
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  int grid = 8;
  int repeats = 5;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[i + 1]);
    }
  }
  if (json) {
    run_json_mode(std::max(grid, 1), std::max(repeats, 1));
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Micro-benchmark A7: the time phase.
//
// Two modes:
//  * default — google-benchmark timings of the incremental time engine on
//    representative solves (single-shot, enumeration and
//    horizon-extension-heavy cases);
//  * --json [--grid N] [--repeats R] — machine-readable end-to-end map()
//    wall clock over the whole workload suite, plus the per-II
//    solver-reuse counters (sessions, horizon extensions, assumptions
//    used, learnt clauses retained, nogoods added), recorded in
//    BENCH_time.json to track the time-phase perf trajectory. Rows keep
//    engine="incremental" so they pair with earlier recordings.
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

void BM_TimeFirstSolution(benchmark::State& state) {
  // First schedule of a mid-size suite benchmark.
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("fft");
  for (auto _ : state) {
    TimeSolver solver(b.dfg, arch);
    const auto sol = solver.next(Deadline(30.0));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_TimeFirstSolution);

void BM_TimeScheduleEnumeration(benchmark::State& state) {
  // The mapper's retry pattern: enumerate 8 distinct schedules, each
  // re-solve answered from the warm session.
  const CgraArch arch = CgraArch::square(8);
  const Benchmark& b = benchmark_by_name("gsm");
  for (auto _ : state) {
    TimeSolver solver(b.dfg, arch);
    int yielded = 0;
    while (yielded < 8 && solver.next(Deadline(30.0)).has_value()) {
      ++yielded;
    }
    benchmark::DoNotOptimize(yielded);
  }
}
BENCHMARK(BM_TimeScheduleEnumeration);

void BM_TimeHorizonExtensions(benchmark::State& state) {
  // Capacity-bound chain on one PE: the solver must walk several horizon
  // extensions before the first schedule appears.
  const Dfg dfg = Dfg::from_edges(
      "chain6", 6,
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}, {1, 5, 0}});
  const CgraArch arch(1, 1);
  for (auto _ : state) {
    TimeSolver solver(dfg, arch);
    const auto sol = solver.next(Deadline(30.0));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_TimeHorizonExtensions);

// --- --json mode -----------------------------------------------------------

/// Per-benchmark record: median-of-repeats end-to-end map() wall clock plus
/// the solver-reuse counters of the last run.
void run_json_mode(int grid, int repeats) {
  const CgraArch arch = CgraArch::square(grid);
  JsonWriter json(std::cout);
  json.begin_object();
  json.field("bench", "bench_micro_time");
  json.field("grid", grid);
  json.field("topology", topology_name(arch.topology()));
  json.field("repeats", repeats);
  monomap::bench::host_fields(json);

  /// Median-of-repeats map() wall clock on `run_arch`, and the last run.
  auto timed_map = [repeats](const Dfg& dfg, const CgraArch& run_arch,
                             double timeout_s, MapResult* last) {
    DecoupledMapperOptions opt;
    opt.timeout_s = timeout_s;
    const DecoupledMapper mapper(opt);
    std::vector<double> seconds;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch wall;
      *last = mapper.map(dfg, run_arch);
      seconds.push_back(wall.elapsed_s());
    }
    return median(seconds);
  };
  /// The fields every row carries (`grid` only on the per-row-grid
  /// "hard" rows).
  auto row_head = [&json](const Benchmark& b, int grid_side,
                          const MapResult& last, double seconds) {
    json.begin_object();
    json.field("suite", b.name);
    if (grid_side > 0) json.field("grid", grid_side);
    json.field("engine", "incremental");
    json.field("success", last.success);
    json.field("outcome", to_string(last.outcome));
    json.field("degraded", last.outcome == MapOutcome::kDegraded);
    json.field("fault_retries", last.fault_retries);
    json.field("ii", last.success ? last.ii : -1);
    json.field("seconds", seconds);
  };
  auto row_tail = [&json](const MapResult& last) {
    json.field("space_truncated", last.space_truncated);
    json.field("space_exhausted", last.space_exhausted);
    json.field("space_backjumps", last.space_backjumps);
    json.field("budget_extensions", last.budget_extensions);
    json.field("budget_shrinks", last.budget_shrinks);
    json.end_object();
  };

  json.key("time");
  json.begin_array();
  for (const Benchmark& b : benchmark_suite()) {
    MapResult last;
    const double seconds = timed_map(b.dfg, arch, 60.0, &last);
    row_head(b, /*grid_side=*/0, last, seconds);
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
    row_tail(last);
  }
  json.end_array();

  // Space-failure-heavy instances on the smaller paper grids: this is
  // where schedule seeding, retry diversification, conflict-set nogoods
  // and the adaptive space budget are decisive, so the baseline pins them
  // explicitly (nw rides along for its II-3-vs-4 sensitivity to the
  // refutation-patience rule). Grid 8 rides along for map()'s cross-II
  // race: there the first II fails and the IIs above it run on helpers.
  json.key("hard");
  json.begin_array();
  for (const char* name : {"hotspot3D", "cfd", "nw"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {4, 5, 8}) {
      MapResult last;
      const double seconds =
          timed_map(b.dfg, CgraArch::square(side), 120.0, &last);
      row_head(b, side, last, seconds);
      json.field("schedules_tried", last.schedules_tried);
      json.field("nogoods_added", last.time_stats.nogoods_added);
      row_tail(last);
    }
  }
  json.end_array();
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

// Oracle tests for the time engine: TimeSolver's persistent per-II
// TimeSession (assumption-based horizon activation, space-conflict nogood
// feedback) against a fresh TimeFormulation built for the same (II,
// horizon) instance.
//
// Every horizon extension of a session must decide its instance exactly as
// the one-shot formulation does — before and after both take the same
// blocked label vector and the same label nogood — and every model either
// side yields must satisfy the time constraints. The mapper-level tests
// then run the full decoupled pipeline on the one engine, including
// instances where the space phase fails and feeds nogoods back, and the
// restricted consecutive-slots mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mapper/decoupled_mapper.hpp"
#include "sched/asap_alap.hpp"
#include "sched/mii.hpp"
#include "timing/time_formulation.hpp"
#include "timing/time_session.hpp"
#include "timing/time_solver.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

/// The three time-constraint families, checked directly on a solution.
void expect_time_feasible(const Dfg& dfg, const CgraArch& arch,
                          const TimeSolution& sol) {
  const Graph& g = dfg.graph();
  const int ii = sol.ii;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    EXPECT_GE(sol.time[static_cast<std::size_t>(edge.dst)] + edge.attr * ii,
              sol.time[static_cast<std::size_t>(edge.src)] + 1)
        << "edge " << edge.src << "->" << edge.dst;
  }
  std::vector<int> per_slot(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    ++per_slot[static_cast<std::size_t>(sol.label(v))];
  }
  for (const int c : per_slot) {
    EXPECT_LE(c, arch.num_pes());
  }
}

std::vector<int> labels_of(const Dfg& dfg, const TimeSolution& sol) {
  std::vector<int> labels;
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) labels.push_back(sol.label(v));
  return labels;
}

/// One (II, extension k) instance, decided twice: by a TimeSession extended
/// k times and by a fresh TimeFormulation at the critical path + k. Both
/// must agree on SAT/UNSAT. On SAT both then block the session's label
/// vector and forbid half of the formulation's placements, and must agree
/// again; then, for up to `more_blocks` rounds, both block the session's
/// next label vector and must keep agreeing.
void expect_session_matches_formulation(const Dfg& dfg, const CgraArch& arch,
                                        int ii, int k, int more_blocks,
                                        const std::string& where) {
  const Deadline deadline(60.0);
  const int horizon = critical_path_length(dfg) + k;
  TimeSession session(dfg, arch, ii);
  for (int e = 0; e < k; ++e) session.extend_horizon();
  TimeFormulation fresh(dfg, arch, ii, horizon);
  bool fresh_ok = fresh.build();
  std::vector<std::vector<int>> blocked;
  std::vector<std::pair<NodeId, int>> nogood;

  /// Solve both; true when both found a model (which lands in *s / *f).
  auto both_sat = [&](const std::string& stage, TimeSolution* s,
                      TimeSolution* f) {
    const SatStatus on_s =
        session.ok() ? session.solve(deadline) : SatStatus::kUnsat;
    const SatStatus on_f =
        fresh_ok ? fresh.solve(deadline) : SatStatus::kUnsat;
    EXPECT_NE(on_s, SatStatus::kUnknown) << where << ", " << stage;
    EXPECT_EQ(on_s, on_f) << where << ", " << stage;
    if (on_s != SatStatus::kSat || on_f != SatStatus::kSat) return false;
    *s = session.extract();
    *f = fresh.extract();
    for (const TimeSolution* sol : {s, f}) {
      EXPECT_EQ(sol->ii, ii) << where << ", " << stage;
      EXPECT_EQ(sol->horizon, horizon) << where << ", " << stage;
      expect_time_feasible(dfg, arch, *sol);
      const std::vector<int> labels = labels_of(dfg, *sol);
      for (const auto& b : blocked) {
        EXPECT_NE(labels, b) << where << ", " << stage;
      }
      bool realises_nogood = !nogood.empty();
      for (const auto& [v, slot] : nogood) {
        realises_nogood = realises_nogood && sol->label(v) == slot;
      }
      EXPECT_FALSE(realises_nogood) << where << ", " << stage;
    }
    return true;
  };
  auto block_both = [&](const TimeSolution& sol) {
    blocked.push_back(labels_of(dfg, sol));
    session.block_labels(sol);
    fresh_ok = fresh_ok && fresh.block_labels(sol);
  };

  TimeSolution s;
  TimeSolution f;
  if (!both_sat("first solve", &s, &f)) return;
  block_both(s);
  for (NodeId v = 0; v < std::max(1, dfg.num_nodes() / 2); ++v) {
    nogood.emplace_back(v, f.label(v));
  }
  session.add_label_nogood(nogood);
  fresh_ok = fresh_ok && fresh.add_label_nogood(nogood);
  if (!both_sat("after block + nogood", &s, &f)) return;
  for (int round = 1; round <= more_blocks; ++round) {
    block_both(s);
    if (!both_sat("block " + std::to_string(round), &s, &f)) return;
  }
}

/// Every II from `first_ii` (mII when 0) up to mII + 2, at horizon
/// extensions 0..2.
void expect_sessions_match_formulations(const Dfg& dfg, const CgraArch& arch,
                                        const std::string& name,
                                        int first_ii = 0,
                                        int more_blocks = 0) {
  const int mii = compute_mii(dfg, arch).mii();
  for (int ii = first_ii > 0 ? first_ii : mii; ii <= mii + 2; ++ii) {
    for (int k = 0; k <= 2; ++k) {
      expect_session_matches_formulation(
          dfg, arch, ii, k, more_blocks,
          name + " II " + std::to_string(ii) + " +" + std::to_string(k));
    }
  }
}

TEST(TimeSessionOracle, SessionMatchesFreshFormulationOnSuite) {
  const CgraArch arch = CgraArch::square(4);
  for (const char* name : {"gsm", "fft", "susan", "hotspot3D", "nw"}) {
    expect_sessions_match_formulations(benchmark_by_name(name).dfg, arch,
                                       name);
  }
}

TEST(TimeSessionOracle, SessionMatchesFreshFormulationOnSyntheticDfgs) {
  const CgraArch arch = CgraArch::square(3);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticSpec spec;
    spec.num_nodes = 8 + static_cast<int>(seed) * 3;  // 11..26 nodes
    spec.seed = seed * 7919;
    expect_sessions_match_formulations(random_dfg(spec), arch,
                                       "seed " + std::to_string(seed));
  }
}

TEST(TimeSessionOracle, SessionMatchesFreshFormulationToExhaustion) {
  // The suite instances above are all satisfiable. These two are small
  // enough to start one II below mII (refuted outright), to need horizon
  // extensions (5 nodes on one PE: II 5 is unsatisfiable at the critical
  // path), and to run out of label vectors within 64 blocks.
  const Dfg chain = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch one_pe(1, 1);
  expect_sessions_match_formulations(
      chain, one_pe, "chain5",
      std::max(1, compute_mii(chain, one_pe).mii() - 1), 64);
  const Dfg running = running_example_dfg();
  const CgraArch grid2 = CgraArch::square(2);
  expect_sessions_match_formulations(
      running, grid2, "running_example",
      std::max(1, compute_mii(running, grid2).mii() - 1), 64);
}

TEST(TimeSessionOracle, HorizonExtensionParity) {
  // Forces horizon extension: 5 nodes on one PE (see
  // TimeSolver.HorizonExtensionUnlocksTightCapacity).
  const Dfg dfg = Dfg::from_edges(
      "chain5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 4, 0}});
  const CgraArch arch(1, 1);
  TimeSolver solver(dfg, arch);
  const auto sol = solver.next(Deadline::unlimited());
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->ii, 5);
  EXPECT_GE(sol->horizon, 5);
  EXPECT_GE(solver.stats().horizon_extensions, 1);
}

TEST(TimeSessionOracle, MapperDifferentialOnSuite) {
  // Full decoupled pipeline at two grids. nw and hotspot3D are the
  // space-failure-heavy instances: their early schedules are spatially
  // infeasible, so this sweep exercises the nogood feedback path, the
  // blocking path and II escalation. Every case must map, validate, and
  // land at or above mII.
  for (const char* name : {"gsm", "fft", "nw", "hotspot3D"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int grid : {4, 5}) {
      const CgraArch arch = CgraArch::square(grid);
      DecoupledMapperOptions opt;
      opt.timeout_s = 120.0;
      const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
      ASSERT_TRUE(r.success) << name << " " << grid << "x" << grid << ": "
                             << r.failure_reason;
      EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping));
      EXPECT_GE(r.ii, r.mii.mii()) << name << " " << grid << "x" << grid;
    }
  }
}

TEST(TimeSessionOracle, MapperDifferentialRestrictedMode) {
  // The consecutive-slots (restricted interconnect) mode flows through the
  // session's dependency pairs and the space model together. gsm and the
  // running example are mappable in this mode; fft is refuted up to a
  // capped max II of 8.
  struct Case {
    const char* name;
    const Dfg* dfg;
    bool mappable;
  };
  const Dfg running = running_example_dfg();
  const std::vector<Case> cases = {
      {"gsm", &benchmark_by_name("gsm").dfg, true},
      {"running_example", &running, true},
      {"fft", &benchmark_by_name("fft").dfg, false},
  };
  const CgraArch arch = CgraArch::square(4);
  for (const Case& c : cases) {
    DecoupledMapperOptions opt;
    opt.timeout_s = 120.0;
    opt.space.model = MrrgModel::kConsecutiveOnly;
    if (!c.mappable) opt.time.max_ii = 8;  // cap the exhaustion sweep
    const MapResult r = DecoupledMapper(opt).map(*c.dfg, arch);
    EXPECT_EQ(r.success, c.mappable) << c.name << ": " << r.failure_reason;
    if (r.success) {
      EXPECT_TRUE(mapping_is_valid(*c.dfg, arch, r.mapping,
                                   MrrgModel::kConsecutiveOnly));
    } else {
      EXPECT_EQ(r.outcome, MapOutcome::kRefuted) << c.name;
    }
  }
}

TEST(TimeSessionOracle, SpaceConflictNogoodSkipsSchedules) {
  // nw on a 5x5 grid: several schedules at the early IIs are spatially
  // infeasible and the bitset engine's exhaustion proofs touch only a
  // node subset, so the mapper must record narrow nogoods — the stat the
  // acceptance criteria pins (MapResult::time_stats).
  const Benchmark& b = benchmark_by_name("nw");
  const CgraArch arch = CgraArch::square(5);
  DecoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.time_stats.nogoods_added, 1);
  EXPECT_GE(r.time_stats.narrow_nogoods, 1)
      << "every space failure produced only full-width explanations";
  // And the reuse counters prove the session actually persisted.
  EXPECT_GE(r.time_stats.sessions_created, 1);
  EXPECT_GE(r.time_stats.assumptions_used, r.time_stats.sat_calls);
}

}  // namespace
}  // namespace monomap
